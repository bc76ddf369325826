#include "src/raid/volume.h"

#include <cassert>

namespace bkup {

std::unique_ptr<Volume> Volume::Create(SimEnvironment* env, std::string name,
                                       const VolumeGeometry& geometry) {
  assert(geometry.num_raid_groups >= 1);
  assert(geometry.disks_per_group >= 2);
  // unique_ptr with private ctor: wrap manually.
  std::unique_ptr<Volume> vol(new Volume(std::move(name), geometry));
  uint64_t next_vbn = 0;
  for (size_t g = 0; g < geometry.num_raid_groups; ++g) {
    std::vector<Disk*> members;
    for (size_t d = 0; d < geometry.disks_per_group; ++d) {
      auto disk = std::make_unique<Disk>(
          env,
          vol->name_ + ".rg" + std::to_string(g) + ".d" + std::to_string(d),
          geometry.blocks_per_disk, geometry.disk_timing);
      members.push_back(disk.get());
      vol->disks_.push_back(std::move(disk));
    }
    auto group = std::make_unique<RaidGroup>(
        vol->name_ + ".rg" + std::to_string(g), std::move(members));
    vol->group_start_.push_back(next_vbn);
    next_vbn += group->data_blocks();
    vol->groups_.push_back(std::move(group));
  }
  vol->num_blocks_ = next_vbn;
  return vol;
}

Volume::Placement Volume::Locate(Vbn vbn) {
  assert(vbn < num_blocks_);
  // Find the owning group (group_start_ is ascending; linear scan is fine
  // for the handful of groups a volume has).
  size_t g = groups_.size() - 1;
  while (group_start_[g] > vbn) {
    --g;
  }
  RaidGroup* group = groups_[g].get();
  RaidGroup::Placement p = group->Locate(vbn - group_start_[g]);
  return Placement{group, g, p.disk, p.dbn, group->parity_disk()};
}

Status Volume::ReadBlock(Vbn vbn, BlockSpan out) {
  if (vbn >= num_blocks_) {
    return InvalidArgument(name_ + ": read past end of volume");
  }
  Placement p = Locate(vbn);
  return p.group->ReadBlock(vbn - group_start_[p.group_index], out);
}

Status Volume::WriteBlock(Vbn vbn, ConstBlockSpan data) {
  if (vbn >= num_blocks_) {
    return InvalidArgument(name_ + ": write past end of volume");
  }
  Placement p = Locate(vbn);
  return p.group->WriteBlock(vbn - group_start_[p.group_index], data);
}

}  // namespace bkup
