#include "src/raid/raid_group.h"

#include <algorithm>
#include <cassert>

namespace bkup {

RaidGroup::RaidGroup(std::string name, std::vector<Disk*> disks)
    : name_(std::move(name)), disks_(std::move(disks)) {
  assert(disks_.size() >= 2 && "a RAID-4 group needs a data and a parity disk");
  blocks_per_disk_ = disks_.front()->num_blocks();
  for (const Disk* d : disks_) {
    blocks_per_disk_ = std::min(blocks_per_disk_, d->num_blocks());
  }
}

RaidGroup::Placement RaidGroup::Locate(uint64_t gbn) {
  assert(gbn < data_blocks());
  const size_t column = static_cast<size_t>(gbn % data_width());
  const Dbn stripe = gbn / data_width();
  return Placement{disks_[column], stripe, column};
}

size_t RaidGroup::failed_count() const {
  size_t n = 0;
  for (const Disk* d : disks_) {
    n += d->failed() ? 1 : 0;
  }
  return n;
}

Status RaidGroup::XorStripeExcept(Dbn stripe, size_t skip_column, Block* out) {
  out->Zero();
  for (size_t c = 0; c < disks_.size(); ++c) {
    if (c == skip_column) {
      continue;
    }
    BKUP_ASSIGN_OR_RETURN(const Block* stored, disks_[c]->Peek(stripe));
    if (stored != nullptr) {  // a never-written block reads as zeros
      out->XorWith(*stored);
    }
  }
  return Status::Ok();
}

Status RaidGroup::ReadBlock(uint64_t gbn, Block* out) {
  Placement p = Locate(gbn);
  if (!p.disk->failed()) {
    return p.disk->ReadData(p.dbn, out);
  }
  if (failed_count() > 1) {
    return IoError(name_ + ": multiple drive failures, data lost");
  }
  // Degraded read: data = XOR of surviving data columns and parity.
  return XorStripeExcept(p.dbn, p.column, out);
}

Status RaidGroup::WriteBlock(uint64_t gbn, const Block& block) {
  Placement p = Locate(gbn);
  Disk* parity = parity_disk();

  if (p.disk->failed()) {
    if (failed_count() > 1) {
      return IoError(name_ + ": multiple drive failures, stripe lost");
    }
    // Degraded write: fold the new data into parity so a future
    // reconstruction of this column yields `block`.
    Block others;
    // XOR of all drives except the failed data column and the parity disk.
    others.Zero();
    Block tmp;
    for (size_t c = 0; c < data_width(); ++c) {
      if (c == p.column) {
        continue;
      }
      BKUP_RETURN_IF_ERROR(disks_[c]->ReadData(p.dbn, &tmp));
      others.XorWith(tmp);
    }
    others.XorWith(block);
    return parity->WriteData(p.dbn, others);
  }

  if (parity->failed()) {
    // Parity offline: write data only; parity is rebuilt on replacement.
    return p.disk->WriteData(p.dbn, block);
  }

  // Normal path: read-modify-write parity, in place on the stored blocks.
  // Both lookups run their drive checks before any byte changes, so an
  // error leaves data and parity as they were.
  BKUP_ASSIGN_OR_RETURN(Block* data_slot, p.disk->Slot(p.dbn));
  BKUP_ASSIGN_OR_RETURN(Block* parity_slot, parity->Slot(p.dbn));
  parity_slot->XorWith(*data_slot);
  parity_slot->XorWith(block);
  *data_slot = block;
  return Status::Ok();
}

Status RaidGroup::Reconstruct(size_t column) {
  assert(column <= data_width());
  Disk* target = column == data_width() ? parity_disk() : disks_[column];
  if (target->failed()) {
    return FailedPrecondition(
        name_ + ": replace the failed drive before reconstructing");
  }
  if (failed_count() > 0) {
    return IoError(name_ + ": another drive is still failed");
  }
  Block rebuilt;
  for (Dbn stripe = 0; stripe < blocks_per_disk_; ++stripe) {
    BKUP_RETURN_IF_ERROR(XorStripeExcept(stripe, column, &rebuilt));
    BKUP_RETURN_IF_ERROR(target->WriteData(stripe, rebuilt));
  }
  return Status::Ok();
}

}  // namespace bkup
