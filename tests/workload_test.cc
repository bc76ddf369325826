// Tests for the workload generator: population shape, determinism, quota
// trees, aging-induced fragmentation, and tree checksumming.
#include <gtest/gtest.h>

#include <set>
#include <string>

#include "src/workload/aging.h"
#include "src/workload/population.h"

namespace bkup {
namespace {

VolumeGeometry BigGeometry() {
  VolumeGeometry geom;
  geom.num_raid_groups = 3;
  geom.disks_per_group = 4;
  geom.blocks_per_disk = 4096;  // 3*3*4096 blocks = 144 MiB
  return geom;
}

struct WorkloadFixture {
  WorkloadFixture() {
    volume = Volume::Create(&env, "home", BigGeometry());
    fs = std::move(Filesystem::Format(volume.get(), &env)).value();
  }
  SimEnvironment env;
  std::unique_ptr<Volume> volume;
  std::unique_ptr<Filesystem> fs;
};

TEST(WorkloadTest, PopulatesRequestedVolume) {
  WorkloadFixture f;
  WorkloadParams params;
  params.target_bytes = 8 * kMiB;
  auto stats = PopulateFilesystem(f.fs.get(), params);
  ASSERT_TRUE(stats.ok()) << stats.status().ToString();
  EXPECT_GE(stats->bytes, params.target_bytes * 95 / 100);
  EXPECT_GT(stats->files, 50u) << "a lognormal mix should yield many files";
  EXPECT_GT(stats->directories, 3u);
  const FsStats fss = f.fs->Stats();
  EXPECT_GE(fss.active_blocks * kBlockSize, stats->bytes);
}

TEST(WorkloadTest, DeterministicInSeed) {
  WorkloadParams params;
  params.target_bytes = 2 * kMiB;
  params.seed = 42;

  auto run = [&params]() {
    WorkloadFixture f;
    auto stats = PopulateFilesystem(f.fs.get(), params);
    EXPECT_TRUE(stats.ok());
    auto sums = ChecksumTree(f.fs->LiveReader());
    EXPECT_TRUE(sums.ok());
    return *sums;
  };
  const auto a = run();
  const auto b = run();
  EXPECT_EQ(a, b);
  EXPECT_GT(a.size(), 10u);
}

TEST(WorkloadTest, QuotaTreesSplitEvenly) {
  WorkloadFixture f;
  WorkloadParams params;
  params.target_bytes = 8 * kMiB;
  params.quota_trees = 4;
  auto stats = PopulateFilesystem(f.fs.get(), params);
  ASSERT_TRUE(stats.ok());
  FsReader reader = f.fs->LiveReader();
  uint64_t sizes[4] = {};
  for (uint32_t qt = 0; qt < 4; ++qt) {
    ASSERT_TRUE(reader.LookupPath(QuotaTreePath(qt)).ok());
    Status st = WalkTree(reader, QuotaTreePath(qt),
                         [&sizes, qt](const std::string&, Inum,
                                      const InodeData& inode) {
                           sizes[qt] += inode.size;
                         });
    ASSERT_TRUE(st.ok());
  }
  for (uint32_t qt = 0; qt < 4; ++qt) {
    EXPECT_NEAR(static_cast<double>(sizes[qt]), 2.0 * kMiB,
                0.35 * kMiB)
        << "quota tree " << qt << " should hold ~1/4 of the data";
  }
}

TEST(WorkloadTest, ChecksumTreeSeesEveryFile) {
  WorkloadFixture f;
  ASSERT_TRUE(f.fs->Mkdir("/d", 0755).ok());
  auto a = f.fs->Create("/a", 0644);
  auto b = f.fs->Create("/d/b", 0644);
  ASSERT_TRUE(a.ok());
  ASSERT_TRUE(b.ok());
  std::vector<uint8_t> data(100, 7);
  ASSERT_TRUE(f.fs->Write(*a, 0, data).ok());
  ASSERT_TRUE(f.fs->Write(*b, 0, data).ok());
  ASSERT_TRUE(f.fs->ConsistencyPoint().ok());
  auto sums = ChecksumTree(f.fs->LiveReader());
  ASSERT_TRUE(sums.ok());
  EXPECT_EQ(sums->size(), 2u);
  EXPECT_EQ(sums->at("/a"), sums->at("/d/b"));
}

TEST(AgingTest, AgingFragmentsTheLayout) {
  WorkloadFixture fresh;
  WorkloadFixture aged;
  WorkloadParams params;
  // Fill most of the volume so churn forces the write allocator to wrap
  // into scattered free holes (an emptier volume barely fragments, which is
  // also true of real WAFL).
  params.target_bytes = 80 * kMiB;
  ASSERT_TRUE(PopulateFilesystem(fresh.fs.get(), params).ok());
  ASSERT_TRUE(PopulateFilesystem(aged.fs.get(), params).ok());

  AgingParams aging;
  aging.rounds = 5;
  aging.churn_fraction = 0.35;
  auto stats = AgeFilesystem(aged.fs.get(), aging);
  ASSERT_TRUE(stats.ok()) << stats.status().ToString();
  EXPECT_GT(stats->deletions, 20u);
  EXPECT_GT(stats->creations, 20u);

  auto frag_fresh = MeasureFragmentation(fresh.fs->LiveReader());
  auto frag_aged = MeasureFragmentation(aged.fs->LiveReader());
  ASSERT_TRUE(frag_fresh.ok());
  ASSERT_TRUE(frag_aged.ok());
  EXPECT_GT(frag_fresh->MeanRunBlocks(), frag_aged->MeanRunBlocks())
      << "aging must scatter file blocks (paper footnote 1)";
}

TEST(AgingTest, AgedFilesystemStillVerifies) {
  WorkloadFixture f;
  WorkloadParams params;
  params.target_bytes = 8 * kMiB;
  ASSERT_TRUE(PopulateFilesystem(f.fs.get(), params).ok());
  AgingParams aging;
  aging.rounds = 2;
  ASSERT_TRUE(AgeFilesystem(f.fs.get(), aging).ok());
  // Remount and confirm the tree is intact and readable.
  auto sums_before = ChecksumTree(f.fs->LiveReader());
  ASSERT_TRUE(sums_before.ok());
  f.fs.reset();
  auto fs2 = Filesystem::Mount(f.volume.get(), &f.env);
  ASSERT_TRUE(fs2.ok());
  auto sums_after = ChecksumTree((*fs2)->LiveReader());
  ASSERT_TRUE(sums_after.ok());
  EXPECT_EQ(*sums_before, *sums_after);
}

TEST(AgingTest, AgingTwiceSkipsTakenNames) {
  WorkloadFixture f;
  WorkloadParams params;
  params.target_bytes = 8 * kMiB;
  ASSERT_TRUE(PopulateFilesystem(f.fs.get(), params).ok());
  AgingParams aging;
  aging.rounds = 2;
  auto first = AgeFilesystem(f.fs.get(), aging);
  ASSERT_TRUE(first.ok()) << first.status().ToString();
  auto aged_names = [](const FsReader& reader) {
    std::set<std::string> names;
    EXPECT_TRUE(WalkTree(reader, "/",
                         [&names](const std::string& path, Inum,
                                  const InodeData&) {
                           if (path.find("/aged_r") != std::string::npos) {
                             names.insert(path);
                           }
                         })
                    .ok());
    return names;
  };
  const std::set<std::string> before = aged_names(f.fs->LiveReader());
  ASSERT_FALSE(before.empty());

  // The same parameters draw the same aged_r{round}_{seq} names again; the
  // second pass must move on to free sequence numbers.
  auto second = AgeFilesystem(f.fs.get(), aging);
  ASSERT_TRUE(second.ok()) << second.status().ToString();
  EXPECT_GT(second->creations, 0u);
  size_t fresh = 0;
  for (const std::string& name : aged_names(f.fs->LiveReader())) {
    fresh += before.count(name) == 0 ? 1 : 0;
  }
  EXPECT_GT(fresh, 0u);

  auto sums_before = ChecksumTree(f.fs->LiveReader());
  ASSERT_TRUE(sums_before.ok());
  f.fs.reset();
  auto fs2 = Filesystem::Mount(f.volume.get(), &f.env);
  ASSERT_TRUE(fs2.ok());
  auto sums_after = ChecksumTree((*fs2)->LiveReader());
  ASSERT_TRUE(sums_after.ok());
  EXPECT_EQ(*sums_before, *sums_after);
}

TEST(FragmentationTest, SequentialFileHasOneRun) {
  WorkloadFixture f;
  auto inum = f.fs->Create("/seq", 0644);
  ASSERT_TRUE(inum.ok());
  std::vector<uint8_t> data(20 * kBlockSize, 1);
  ASSERT_TRUE(f.fs->Write(*inum, 0, data).ok());
  ASSERT_TRUE(f.fs->ConsistencyPoint().ok());
  auto frag = MeasureFragmentation(f.fs->LiveReader());
  ASSERT_TRUE(frag.ok());
  EXPECT_EQ(frag->files, 1u);
  EXPECT_EQ(frag->mapped_blocks, 20u);
  EXPECT_EQ(frag->runs, 1u) << "a freshly written file should be contiguous";
}

}  // namespace
}  // namespace bkup
