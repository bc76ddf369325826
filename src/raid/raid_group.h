// RAID-4 parity group, the unit of WAFL's software RAID: N-1 data disks plus
// one dedicated parity disk. Supports degraded reads, degraded writes and
// full reconstruction onto a replacement drive.
#ifndef BKUP_RAID_RAID_GROUP_H_
#define BKUP_RAID_RAID_GROUP_H_

#include <cstdint>
#include <string>
#include <vector>

#include "src/block/block.h"
#include "src/block/disk.h"
#include "src/util/status.h"

namespace bkup {

class RaidGroup {
 public:
  // `disks` must hold at least 2 drives of equal size; the last one is the
  // dedicated parity disk.
  RaidGroup(std::string name, std::vector<Disk*> disks);

  const std::string& name() const { return name_; }
  size_t num_disks() const { return disks_.size(); }
  size_t data_width() const { return disks_.size() - 1; }
  uint64_t blocks_per_disk() const { return blocks_per_disk_; }

  // Usable data blocks in this group.
  uint64_t data_blocks() const { return data_width() * blocks_per_disk_; }

  Disk* data_disk(size_t column) { return disks_[column]; }
  Disk* parity_disk() { return disks_.back(); }

  // Where group-relative data block `gbn` lives.
  struct Placement {
    Disk* disk;
    Dbn dbn;        // block on that disk (== stripe index)
    size_t column;  // data column within the group
  };
  Placement Locate(uint64_t gbn);

  // Read into `out` with transparent reconstruction if the target drive has
  // failed: a degraded read XORs the surviving columns straight into `out`.
  // At most one failed drive per group is survivable (RAID-4).
  Status ReadBlock(uint64_t gbn, BlockSpan out);
  Status ReadBlock(uint64_t gbn, Block* out) { return ReadBlock(gbn, out->data); }

  // Write with parity maintenance (read-modify-write of data + parity). An
  // error leaves data and parity as they were.
  Status WriteBlock(uint64_t gbn, ConstBlockSpan data);
  Status WriteBlock(uint64_t gbn, const Block& block) {
    return WriteBlock(gbn, block.data);
  }

  // Rebuilds the contents of column `column` (or the parity disk when
  // `column == data_width()`) onto its current — freshly replaced — drive.
  Status Reconstruct(size_t column);

  // Number of failed drives right now.
  size_t failed_count() const;

 private:
  // XOR of every drive in the stripe except `skip_column`
  // (data_width() == parity column index convention).
  Status XorStripeExcept(Dbn stripe, size_t skip_column, BlockSpan out);
  // InvalidArgument unless `gbn` is a data block of this group.
  Status CheckBounds(uint64_t gbn, const char* op) const;

  std::string name_;
  std::vector<Disk*> disks_;
  uint64_t blocks_per_disk_;
};

}  // namespace bkup

#endif  // BKUP_RAID_RAID_GROUP_H_
