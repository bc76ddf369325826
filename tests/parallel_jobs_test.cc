// End-to-end tests for the composed multi-tape jobs: data correctness of
// parallel logical (quota-tree) and parallel physical (striped) backup and
// restore, plus the structural properties of the striping.
#include <gtest/gtest.h>

#include "src/backup/parallel.h"
#include "src/workload/population.h"

namespace bkup {
namespace {

VolumeGeometry Geometry() {
  VolumeGeometry geom;
  geom.num_raid_groups = 2;
  geom.disks_per_group = 4;
  geom.blocks_per_disk = 4096;
  return geom;
}

struct ParallelFixture {
  ParallelFixture() : filer(&env, FilerModel::F630()) {
    volume = Volume::Create(&env, "home", Geometry());
    fs = std::move(Filesystem::Format(volume.get(), &env)).value();
    WorkloadParams params;
    params.target_bytes = 16 * kMiB;
    params.quota_trees = 4;
    EXPECT_TRUE(PopulateFilesystem(fs.get(), params).ok());
    for (int i = 0; i < 4; ++i) {
      tapes.push_back(
          std::make_unique<Tape>("t" + std::to_string(i), 4ull * kGiB));
      drives.push_back(
          std::make_unique<TapeDrive>(&env, "d" + std::to_string(i)));
      drives.back()->LoadMedia(tapes.back().get());
    }
  }

  std::vector<TapeDrive*> DrivePtrs() {
    std::vector<TapeDrive*> out;
    for (auto& d : drives) {
      out.push_back(d.get());
    }
    return out;
  }

  SimEnvironment env;
  Filer filer;
  std::unique_ptr<Volume> volume;
  std::unique_ptr<Filesystem> fs;
  std::vector<std::unique_ptr<Tape>> tapes;
  std::vector<std::unique_ptr<TapeDrive>> drives;
};

TEST(ParallelJobsTest, LogicalQuotaTreeRoundTrip) {
  ParallelFixture f;
  auto src_sums = ChecksumTree(f.fs->LiveReader()).value();
  ASSERT_GT(src_sums.size(), 50u);

  std::vector<std::string> subtrees;
  for (uint32_t k = 0; k < 4; ++k) {
    subtrees.push_back(QuotaTreePath(k));
  }
  ParallelLogicalBackupResult backup;
  CountdownLatch done(&f.env, 1);
  f.env.Spawn(ParallelLogicalBackupJob(&f.filer, f.fs.get(), f.DrivePtrs(),
                                       subtrees, LogicalDumpOptions{},
                                       &backup, &done));
  f.env.Run();
  ASSERT_TRUE(backup.merged.status.ok()) << backup.merged.status.ToString();
  ASSERT_EQ(backup.parts.size(), 4u);
  // Each quota tree produced an independent tape.
  for (int k = 0; k < 4; ++k) {
    EXPECT_GT(f.tapes[k]->size(), kMiB) << "tape " << k;
  }
  // The dump snapshot was shared and cleaned up.
  EXPECT_TRUE(f.fs->ListSnapshots().empty());

  // Restore all four tapes concurrently into a fresh filesystem.
  auto restore_volume = Volume::Create(&f.env, "r", Geometry());
  auto restore_fs =
      std::move(Filesystem::Format(restore_volume.get(), &f.env)).value();
  for (auto& d : f.drives) {
    d->Rewind();
  }
  ParallelLogicalRestoreResult restore;
  CountdownLatch rdone(&f.env, 1);
  f.env.Spawn(ParallelLogicalRestoreJob(&f.filer, restore_fs.get(),
                                        f.DrivePtrs(), subtrees, false,
                                        &restore, &rdone));
  f.env.Run();
  ASSERT_TRUE(restore.merged.status.ok())
      << restore.merged.status.ToString();

  auto dst_sums = ChecksumTree(restore_fs->LiveReader()).value();
  EXPECT_EQ(src_sums, dst_sums);
}

TEST(ParallelJobsTest, StripedImagePartsPartitionTheBlockSet) {
  ParallelFixture f;
  ParallelImageBackupResult backup;
  CountdownLatch done(&f.env, 1);
  f.env.Spawn(ParallelImageBackupJob(&f.filer, f.fs.get(), f.DrivePtrs(),
                                     ImageDumpOptions{}, false, &backup,
                                     &done));
  f.env.Run();
  ASSERT_TRUE(backup.merged.status.ok());
  ASSERT_EQ(backup.parts.size(), 4u);

  // The four parts are pairwise disjoint and cover the full set.
  Bitmap unions(f.volume->num_blocks());
  uint64_t total = 0;
  for (size_t i = 0; i < 4; ++i) {
    const Bitmap& part = backup.parts[i]->dump.block_set;
    for (size_t j = i + 1; j < 4; ++j) {
      EXPECT_TRUE(part.DisjointWith(backup.parts[j]->dump.block_set))
          << "parts " << i << " and " << j << " overlap";
    }
    unions.OrWith(part);
    total += part.CountOnes();
  }
  EXPECT_EQ(unions.CountOnes(), total);
  // Every referenced block is covered.
  const uint64_t used =
      f.fs->blockmap().CountUsed();
  EXPECT_EQ(total, used);
}

TEST(ParallelJobsTest, StripedImageRoundTripBootsWithSnapshots) {
  ParallelFixture f;
  ASSERT_TRUE(f.fs->CreateSnapshot("history").ok());
  auto src_sums = ChecksumTree(f.fs->LiveReader()).value();

  ParallelImageBackupResult backup;
  CountdownLatch done(&f.env, 1);
  f.env.Spawn(ParallelImageBackupJob(&f.filer, f.fs.get(), f.DrivePtrs(),
                                     ImageDumpOptions{}, false, &backup,
                                     &done));
  f.env.Run();
  ASSERT_TRUE(backup.merged.status.ok());

  auto restore_volume = Volume::Create(&f.env, "r", Geometry());
  for (auto& d : f.drives) {
    d->Rewind();
  }
  ParallelImageRestoreResult restore;
  CountdownLatch rdone(&f.env, 1);
  f.env.Spawn(ParallelImageRestoreJob(&f.filer, restore_volume.get(),
                                      f.DrivePtrs(), &restore, &rdone));
  f.env.Run();
  ASSERT_TRUE(restore.merged.status.ok())
      << restore.merged.status.ToString();

  auto mounted = Filesystem::Mount(restore_volume.get(), &f.env);
  ASSERT_TRUE(mounted.ok()) << mounted.status().ToString();
  auto dst_sums = ChecksumTree((*mounted)->LiveReader()).value();
  EXPECT_EQ(src_sums, dst_sums);
  // Snapshots travelled with the image parts.
  EXPECT_TRUE((*mounted)->SnapshotReader("history").ok());
}

TEST(ParallelJobsTest, PartsRunConcurrently) {
  ParallelFixture f;
  ParallelImageBackupResult backup;
  CountdownLatch done(&f.env, 1);
  f.env.Spawn(ParallelImageBackupJob(&f.filer, f.fs.get(), f.DrivePtrs(),
                                     ImageDumpOptions{}, true, &backup,
                                     &done));
  f.env.Run();
  ASSERT_TRUE(backup.merged.status.ok());
  // All four parts' streaming windows overlap substantially.
  SimTime latest_start = 0;
  SimTime earliest_end = std::numeric_limits<SimTime>::max();
  for (const auto& part : backup.parts) {
    const PhaseStats& p = part->report.phase(JobPhase::kDumpBlocks);
    latest_start = std::max(latest_start, p.start);
    earliest_end = std::min(earliest_end, p.end);
  }
  EXPECT_GT(earliest_end, latest_start)
      << "part windows must overlap (true concurrency)";
}


// A target dir that cannot be made fails the whole restore before any part
// starts: a part spawned earlier would outlive the job's latch.
TEST(ParallelJobsTest, RestoreWithUnmakeableTargetStartsNoPart) {
  ParallelFixture f;
  auto restore_volume = Volume::Create(&f.env, "r", Geometry());
  auto restore_fs =
      std::move(Filesystem::Format(restore_volume.get(), &f.env)).value();
  const Status mkdir_error =
      restore_fs->Mkdir("/missing/r1", 0755).status();
  ASSERT_FALSE(mkdir_error.ok());

  ParallelLogicalRestoreResult restore;
  CountdownLatch done(&f.env, 1);
  f.env.Spawn(ParallelLogicalRestoreJob(
      &f.filer, restore_fs.get(), {f.drives[0].get(), f.drives[1].get()},
      {"/r0", "/missing/r1"}, false, &restore, &done));
  f.env.Run();
  ASSERT_TRUE(done.done());
  EXPECT_EQ(restore.merged.status.code(), mkdir_error.code());
  EXPECT_EQ(restore.merged.status.ToString(), mkdir_error.ToString());
  EXPECT_TRUE(restore.parts.empty());
}

}  // namespace
}  // namespace bkup
