// Tests for RAID-4 groups and volumes: parity maintenance, degraded
// operation, reconstruction, and volume-level placement.
#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <memory>
#include <span>
#include <vector>

#include "src/raid/raid_group.h"
#include "src/raid/volume.h"
#include "src/util/random.h"

namespace bkup {
namespace {

constexpr uint64_t kDiskBlocks = 64;

struct GroupFixture {
  explicit GroupFixture(size_t ndisks) {
    for (size_t i = 0; i < ndisks; ++i) {
      disks.push_back(std::make_unique<Disk>(&env, "d" + std::to_string(i),
                                             kDiskBlocks));
    }
    std::vector<Disk*> ptrs;
    for (auto& d : disks) {
      ptrs.push_back(d.get());
    }
    group = std::make_unique<RaidGroup>("rg0", std::move(ptrs));
  }

  SimEnvironment env;
  std::vector<std::unique_ptr<Disk>> disks;
  std::unique_ptr<RaidGroup> group;
};

Block RandomBlock(Rng* rng) {
  Block b;
  rng->Fill(b.bytes());
  return b;
}

TEST(RaidGroupTest, GeometryBasics) {
  GroupFixture f(5);
  EXPECT_EQ(f.group->data_width(), 4u);
  EXPECT_EQ(f.group->data_blocks(), 4 * kDiskBlocks);
  EXPECT_EQ(f.group->parity_disk(), f.disks.back().get());
}

TEST(RaidGroupTest, PlacementRoundRobin) {
  GroupFixture f(4);
  auto p0 = f.group->Locate(0);
  auto p1 = f.group->Locate(1);
  auto p3 = f.group->Locate(3);
  EXPECT_EQ(p0.column, 0u);
  EXPECT_EQ(p0.dbn, 0u);
  EXPECT_EQ(p1.column, 1u);
  EXPECT_EQ(p3.column, 0u);
  EXPECT_EQ(p3.dbn, 1u);
}

TEST(RaidGroupTest, WriteReadRoundTrip) {
  GroupFixture f(5);
  Rng rng(1);
  std::vector<Block> golden;
  for (uint64_t i = 0; i < 40; ++i) {
    golden.push_back(RandomBlock(&rng));
    ASSERT_TRUE(f.group->WriteBlock(i, golden.back()).ok());
  }
  Block b;
  for (uint64_t i = 0; i < 40; ++i) {
    ASSERT_TRUE(f.group->ReadBlock(i, &b).ok());
    EXPECT_EQ(b, golden[i]) << "block " << i;
  }
}

TEST(RaidGroupTest, ParityIsXorOfDataColumns) {
  GroupFixture f(4);  // 3 data + parity
  Rng rng(2);
  Block b0 = RandomBlock(&rng), b1 = RandomBlock(&rng), b2 = RandomBlock(&rng);
  ASSERT_TRUE(f.group->WriteBlock(0, b0).ok());
  ASSERT_TRUE(f.group->WriteBlock(1, b1).ok());
  ASSERT_TRUE(f.group->WriteBlock(2, b2).ok());
  Block parity;
  ASSERT_TRUE(f.group->parity_disk()->ReadData(0, &parity).ok());
  Block expect = b0;
  expect.XorWith(b1);
  expect.XorWith(b2);
  EXPECT_EQ(parity, expect);

  // Random-order writes over 40 stripes: overwrites of written blocks, and
  // stripes 32+ left partial (column 2 never written, and from stripe 36
  // column 1 neither).
  constexpr uint64_t kStripes = 40;
  std::vector<uint64_t> candidates;
  for (uint64_t gbn = 0; gbn < kStripes * 3; ++gbn) {
    const uint64_t stripe = gbn / 3, column = gbn % 3;
    if ((stripe >= 32 && column == 2) || (stripe >= 36 && column == 1)) {
      continue;
    }
    candidates.push_back(gbn);
  }
  std::map<uint64_t, Block> last = {{0, b0}, {1, b1}, {2, b2}};
  for (int i = 0; i < 400; ++i) {
    const uint64_t gbn = candidates[rng.Below(candidates.size())];
    last[gbn] = RandomBlock(&rng);
    ASSERT_TRUE(f.group->WriteBlock(gbn, last[gbn]).ok()) << "block " << gbn;
  }
  auto expected = [&last](uint64_t gbn) {
    auto it = last.find(gbn);
    return it == last.end() ? Block() : it->second;
  };
  for (Dbn stripe = 0; stripe < kDiskBlocks; ++stripe) {
    Block want;
    for (uint64_t column = 0; column < 3; ++column) {
      want.XorWith(expected(stripe * 3 + column));
    }
    ASSERT_TRUE(f.group->parity_disk()->ReadData(stripe, &parity).ok());
    EXPECT_EQ(parity, want) << "stripe " << stripe;
  }

  // Fail each data column in turn: degraded reads return the last bytes
  // written, then the column is rebuilt before the next one fails.
  Block got;
  for (size_t column = 0; column < 3; ++column) {
    f.disks[column]->Fail();
    for (uint64_t gbn = column; gbn < kStripes * 3; gbn += 3) {
      ASSERT_TRUE(f.group->ReadBlock(gbn, &got).ok()) << "block " << gbn;
      EXPECT_EQ(got, expected(gbn)) << "degraded read of block " << gbn;
    }
    f.disks[column]->ReplaceWithBlank();
    ASSERT_TRUE(f.group->Reconstruct(column).ok());
  }
}

TEST(RaidGroupTest, DegradedReadReconstructs) {
  GroupFixture f(5);
  Rng rng(3);
  std::vector<Block> golden;
  for (uint64_t i = 0; i < 20; ++i) {
    golden.push_back(RandomBlock(&rng));
    ASSERT_TRUE(f.group->WriteBlock(i, golden.back()).ok());
  }
  f.disks[1]->Fail();
  Block b;
  for (uint64_t i = 0; i < 20; ++i) {
    ASSERT_TRUE(f.group->ReadBlock(i, &b).ok()) << "block " << i;
    EXPECT_EQ(b, golden[i]) << "block " << i;
  }
}

TEST(RaidGroupTest, DegradedWriteSurvivesReconstruction) {
  GroupFixture f(5);
  Rng rng(4);
  for (uint64_t i = 0; i < 20; ++i) {
    ASSERT_TRUE(f.group->WriteBlock(i, RandomBlock(&rng)).ok());
  }
  f.disks[2]->Fail();
  // Write new data to blocks living on the failed column and elsewhere.
  std::vector<Block> fresh;
  for (uint64_t i = 0; i < 20; ++i) {
    fresh.push_back(RandomBlock(&rng));
    ASSERT_TRUE(f.group->WriteBlock(i, fresh[i]).ok()) << "block " << i;
  }
  // Degraded reads already see the new data.
  Block b;
  for (uint64_t i = 0; i < 20; ++i) {
    ASSERT_TRUE(f.group->ReadBlock(i, &b).ok());
    EXPECT_EQ(b, fresh[i]) << "degraded read of block " << i;
  }
  // Replace the drive and reconstruct; normal reads see the new data.
  f.disks[2]->ReplaceWithBlank();
  ASSERT_TRUE(f.group->Reconstruct(2).ok());
  for (uint64_t i = 0; i < 20; ++i) {
    ASSERT_TRUE(f.group->ReadBlock(i, &b).ok());
    EXPECT_EQ(b, fresh[i]) << "post-reconstruction read of block " << i;
  }
}

TEST(RaidGroupTest, ParityDiskFailureAndRebuild) {
  GroupFixture f(4);
  Rng rng(5);
  std::vector<Block> golden;
  for (uint64_t i = 0; i < 12; ++i) {
    golden.push_back(RandomBlock(&rng));
    ASSERT_TRUE(f.group->WriteBlock(i, golden[i]).ok());
  }
  f.group->parity_disk()->Fail();
  // Data writes still work with parity offline.
  golden[5] = RandomBlock(&rng);
  ASSERT_TRUE(f.group->WriteBlock(5, golden[5]).ok());
  f.group->parity_disk()->ReplaceWithBlank();
  ASSERT_TRUE(f.group->Reconstruct(f.group->data_width()).ok());
  // Now fail a data disk; degraded reads must still be right, proving the
  // rebuilt parity is consistent.
  f.disks[0]->Fail();
  Block b;
  for (uint64_t i = 0; i < 12; ++i) {
    ASSERT_TRUE(f.group->ReadBlock(i, &b).ok());
    EXPECT_EQ(b, golden[i]) << "block " << i;
  }
}

TEST(RaidGroupTest, DoubleFailureIsDataLoss) {
  GroupFixture f(5);
  Rng rng(6);
  ASSERT_TRUE(f.group->WriteBlock(0, RandomBlock(&rng)).ok());
  f.disks[0]->Fail();
  f.disks[1]->Fail();
  Block b;
  EXPECT_EQ(f.group->ReadBlock(0, &b).code(), ErrorCode::kIoError);
  EXPECT_EQ(f.group->WriteBlock(0, b).code(), ErrorCode::kIoError);
}

TEST(RaidGroupTest, ReconstructRequiresReplacedDrive) {
  GroupFixture f(3);
  f.disks[0]->Fail();
  EXPECT_EQ(f.group->Reconstruct(0).code(), ErrorCode::kFailedPrecondition);
}

// The span read path is the only implementation; the Block* form forwards to
// it. Both must agree on written blocks, never-written blocks (zeros) and a
// degraded read that XORs the survivors into the caller's span.
TEST(RaidGroupTest, SpanReadMatchesBlockRead) {
  GroupFixture f(4);
  Rng rng(9);
  std::vector<Block> golden;
  for (uint64_t i = 0; i < 12; ++i) {
    golden.push_back(RandomBlock(&rng));
    ASSERT_TRUE(f.group->WriteBlock(i, golden[i]).ok());
  }
  auto expect_span_read = [&f](uint64_t gbn, const Block& want) {
    std::vector<uint8_t> buf(2 * kBlockSize, 0xEE);
    auto slot = std::span(buf).subspan(kBlockSize / 2).first<kBlockSize>();
    ASSERT_TRUE(f.group->ReadBlock(gbn, slot).ok()) << "block " << gbn;
    Block via_block;
    ASSERT_TRUE(f.group->ReadBlock(gbn, &via_block).ok()) << "block " << gbn;
    EXPECT_EQ(via_block, want) << "block " << gbn;
    EXPECT_TRUE(std::equal(slot.begin(), slot.end(), want.data.begin()))
        << "block " << gbn;
    // Bytes outside the span are untouched.
    EXPECT_EQ(buf.front(), 0xEE);
    EXPECT_EQ(buf.back(), 0xEE);
  };
  for (uint64_t i = 0; i < 12; ++i) {
    expect_span_read(i, golden[i]);
  }
  expect_span_read(40, Block());  // never written: zeros
  f.disks[1]->Fail();
  for (uint64_t i = 0; i < 12; ++i) {
    expect_span_read(i, golden[i]);  // column 1 blocks are reconstructed
  }
  expect_span_read(40, Block());
}

// Snapshot of every drive's stored bytes, for "nothing changed" checks.
std::vector<std::vector<uint8_t>> DriveImages(GroupFixture* f) {
  std::vector<std::vector<uint8_t>> images;
  for (auto& d : f->disks) {
    std::vector<uint8_t> image;
    for (Dbn dbn = 0; dbn < kDiskBlocks; ++dbn) {
      Result<const Block*> stored = d->Peek(dbn);
      if (stored.ok() && *stored != nullptr) {
        image.insert(image.end(), (*stored)->data.begin(),
                     (*stored)->data.end());
      } else {
        image.resize(image.size() + kBlockSize, stored.ok() ? 0 : 0xFF);
      }
    }
    images.push_back(std::move(image));
  }
  return images;
}

TEST(RaidGroupTest, RejectedAccessLeavesDataAndParityUnchanged) {
  GroupFixture f(4);
  Rng rng(10);
  for (uint64_t i = 0; i < 30; ++i) {
    ASSERT_TRUE(f.group->WriteBlock(i, RandomBlock(&rng)).ok());
  }
  const Block fresh = RandomBlock(&rng);
  Block out = RandomBlock(&rng);
  const Block out_before = out;

  // Out of range, through both forms.
  const auto before = DriveImages(&f);
  const uint64_t past = f.group->data_blocks();
  EXPECT_EQ(f.group->ReadBlock(past, &out).code(), ErrorCode::kInvalidArgument);
  EXPECT_EQ(f.group->ReadBlock(past, out.data).code(),
            ErrorCode::kInvalidArgument);
  EXPECT_EQ(f.group->WriteBlock(past, fresh).code(),
            ErrorCode::kInvalidArgument);
  EXPECT_EQ(f.group->WriteBlock(past, ConstBlockSpan(fresh.data)).code(),
            ErrorCode::kInvalidArgument);
  EXPECT_EQ(out, out_before);
  EXPECT_EQ(DriveImages(&f), before);

  // Two failed drives: the stripe is lost, and neither a read nor a write
  // touches what the survivors hold.
  f.disks[0]->Fail();
  f.disks[2]->Fail();
  EXPECT_EQ(f.group->ReadBlock(0, out.data).code(), ErrorCode::kIoError);
  EXPECT_EQ(f.group->WriteBlock(0, ConstBlockSpan(fresh.data)).code(),
            ErrorCode::kIoError);
  EXPECT_EQ(f.group->WriteBlock(3, fresh).code(), ErrorCode::kIoError);
  EXPECT_EQ(f.group->WriteBlock(5, fresh).code(), ErrorCode::kIoError);
  EXPECT_EQ(out, out_before);
  f.disks[0]->ReplaceWithBlank();
  f.disks[2]->ReplaceWithBlank();
  auto after = DriveImages(&f);
  EXPECT_EQ(after[1], before[1]);
  EXPECT_EQ(after[3], before[3]);  // parity
}

// ---------------------------------------------------------------- Volume ---

TEST(VolumeTest, CreateGeometry) {
  SimEnvironment env;
  VolumeGeometry geom;
  geom.num_raid_groups = 3;
  geom.disks_per_group = 5;
  geom.blocks_per_disk = 100;
  auto vol = Volume::Create(&env, "home", geom);
  EXPECT_EQ(vol->num_disks(), 15u);
  EXPECT_EQ(vol->num_groups(), 3u);
  EXPECT_EQ(vol->num_blocks(), 3 * 4 * 100u);
  EXPECT_EQ(vol->SizeBytes(), vol->num_blocks() * kBlockSize);
}

TEST(VolumeTest, ReadWriteAcrossGroups) {
  SimEnvironment env;
  VolumeGeometry geom;
  geom.num_raid_groups = 2;
  geom.disks_per_group = 3;
  geom.blocks_per_disk = 16;
  auto vol = Volume::Create(&env, "v", geom);
  Rng rng(7);
  std::vector<Block> golden(vol->num_blocks());
  for (Vbn i = 0; i < vol->num_blocks(); ++i) {
    golden[i] = RandomBlock(&rng);
    ASSERT_TRUE(vol->WriteBlock(i, golden[i]).ok());
  }
  Block b;
  for (Vbn i = 0; i < vol->num_blocks(); ++i) {
    ASSERT_TRUE(vol->ReadBlock(i, &b).ok());
    EXPECT_EQ(b, golden[i]) << "vbn " << i;
  }
}

TEST(VolumeTest, LocateCrossesGroupBoundary) {
  SimEnvironment env;
  VolumeGeometry geom;
  geom.num_raid_groups = 2;
  geom.disks_per_group = 3;   // 2 data disks per group
  geom.blocks_per_disk = 16;  // 32 data blocks per group
  auto vol = Volume::Create(&env, "v", geom);
  auto p_first = vol->Locate(0);
  auto p_last_g0 = vol->Locate(31);
  auto p_first_g1 = vol->Locate(32);
  EXPECT_EQ(p_first.group_index, 0u);
  EXPECT_EQ(p_last_g0.group_index, 0u);
  EXPECT_EQ(p_first_g1.group_index, 1u);
  EXPECT_EQ(p_first_g1.dbn, 0u);
}

TEST(VolumeTest, OutOfRangeRejected) {
  SimEnvironment env;
  VolumeGeometry geom;
  geom.num_raid_groups = 1;
  geom.disks_per_group = 2;
  geom.blocks_per_disk = 8;
  auto vol = Volume::Create(&env, "v", geom);
  Block b;
  EXPECT_EQ(vol->ReadBlock(vol->num_blocks(), &b).code(),
            ErrorCode::kInvalidArgument);
  EXPECT_EQ(vol->WriteBlock(vol->num_blocks(), b).code(),
            ErrorCode::kInvalidArgument);
}

TEST(VolumeTest, SurvivesOneFailurePerGroup) {
  SimEnvironment env;
  VolumeGeometry geom;
  geom.num_raid_groups = 2;
  geom.disks_per_group = 4;
  geom.blocks_per_disk = 32;
  auto vol = Volume::Create(&env, "v", geom);
  Rng rng(8);
  std::vector<Block> golden(vol->num_blocks());
  for (Vbn i = 0; i < vol->num_blocks(); ++i) {
    golden[i] = RandomBlock(&rng);
    ASSERT_TRUE(vol->WriteBlock(i, golden[i]).ok());
  }
  // One failure in each group simultaneously is survivable in RAID-4.
  vol->disk(0)->Fail();
  vol->disk(5)->Fail();
  Block b;
  for (Vbn i = 0; i < vol->num_blocks(); ++i) {
    ASSERT_TRUE(vol->ReadBlock(i, &b).ok()) << "vbn " << i;
    EXPECT_EQ(b, golden[i]);
  }
}

// Property sweep over group widths: write random data, fail each column in
// turn, verify reconstruction.
class RaidWidthTest : public ::testing::TestWithParam<size_t> {};

TEST_P(RaidWidthTest, EveryColumnReconstructs) {
  const size_t ndisks = GetParam();
  GroupFixture f(ndisks);
  Rng rng(ndisks);
  std::vector<Block> golden;
  for (uint64_t i = 0; i < f.group->data_blocks(); ++i) {
    golden.push_back(RandomBlock(&rng));
    ASSERT_TRUE(f.group->WriteBlock(i, golden[i]).ok());
  }
  for (size_t col = 0; col < ndisks; ++col) {
    Disk* victim = col == ndisks - 1 ? f.group->parity_disk()
                                     : f.group->data_disk(col);
    victim->Fail();
    Block b;
    for (uint64_t i = 0; i < f.group->data_blocks(); ++i) {
      ASSERT_TRUE(f.group->ReadBlock(i, &b).ok())
          << "col " << col << " block " << i;
      EXPECT_EQ(b, golden[i]);
    }
    victim->ReplaceWithBlank();
    ASSERT_TRUE(
        f.group->Reconstruct(col == ndisks - 1 ? f.group->data_width() : col)
            .ok());
    for (uint64_t i = 0; i < f.group->data_blocks(); ++i) {
      ASSERT_TRUE(f.group->ReadBlock(i, &b).ok());
      EXPECT_EQ(b, golden[i]);
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Widths, RaidWidthTest, ::testing::Values(2, 3, 5, 9));

}  // namespace
}  // namespace bkup
