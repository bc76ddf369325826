// Tests for the simulated devices: disk data + timing model, tape drives,
// tape library.
#include <gtest/gtest.h>

#include <algorithm>
#include <limits>
#include <memory>
#include <span>
#include <vector>

#include "src/block/block.h"
#include "src/block/disk.h"
#include "src/block/fault_hook.h"
#include "src/block/tape.h"
#include "src/block/tape_library.h"
#include "src/util/random.h"

namespace bkup {
namespace {

Block MakeBlock(uint8_t fill) {
  Block b;
  b.data.fill(fill);
  return b;
}

// ----------------------------------------------------------------- Block ---

TEST(BlockTest, ZeroAndIsZero) {
  Block b = MakeBlock(7);
  EXPECT_FALSE(b.IsZero());
  b.Zero();
  EXPECT_TRUE(b.IsZero());
}

TEST(BlockTest, XorWithIsInvolution) {
  Rng rng(1);
  Block a, b;
  rng.Fill(a.bytes());
  rng.Fill(b.bytes());
  Block c = a;
  c.XorWith(b);
  EXPECT_NE(c, a);
  c.XorWith(b);
  EXPECT_EQ(c, a);
}

TEST(BlockTest, CopyFromPartial) {
  Block b;
  std::vector<uint8_t> src = {1, 2, 3};
  b.CopyFrom(src, 100);
  EXPECT_EQ(b.data[100], 1);
  EXPECT_EQ(b.data[102], 3);
  EXPECT_EQ(b.data[103], 0);
}

// ------------------------------------------------------------------ Disk ---

TEST(DiskTest, ReadUnwrittenIsZeros) {
  SimEnvironment env;
  Disk d(&env, "d0", 1000);
  Block b = MakeBlock(0xFF);
  ASSERT_TRUE(d.ReadData(42, &b).ok());
  EXPECT_TRUE(b.IsZero());
}

TEST(DiskTest, WriteReadRoundTrip) {
  SimEnvironment env;
  Disk d(&env, "d0", 1000);
  Block w = MakeBlock(0xAB);
  ASSERT_TRUE(d.WriteData(7, w).ok());
  Block r;
  ASSERT_TRUE(d.ReadData(7, &r).ok());
  EXPECT_EQ(r, w);
}

TEST(DiskTest, OutOfRangeRejected) {
  SimEnvironment env;
  Disk d(&env, "d0", 10);
  Block b;
  EXPECT_EQ(d.ReadData(10, &b).code(), ErrorCode::kInvalidArgument);
  EXPECT_EQ(d.WriteData(11, b).code(), ErrorCode::kInvalidArgument);
}

TEST(DiskTest, FailedDiskErrorsAllIo) {
  SimEnvironment env;
  Disk d(&env, "d0", 10);
  Block b;
  ASSERT_TRUE(d.WriteData(3, MakeBlock(1)).ok());
  d.Fail();
  EXPECT_EQ(d.ReadData(3, &b).code(), ErrorCode::kIoError);
  EXPECT_EQ(d.WriteData(3, b).code(), ErrorCode::kIoError);
  d.ReplaceWithBlank();
  ASSERT_TRUE(d.ReadData(3, &b).ok());
  EXPECT_TRUE(b.IsZero()) << "replacement drive must be blank";
}

TEST(DiskTest, SpanFormsMatchBlockForms) {
  SimEnvironment env;
  Disk d(&env, "d0", 16);
  Rng rng(2);
  std::vector<uint8_t> stream(3 * kBlockSize);
  rng.Fill(stream);
  // Write from a slot in the middle of a byte stream, read back both ways.
  ASSERT_TRUE(d.WriteData(5, std::span(stream).subspan(100).first<kBlockSize>())
                  .ok());
  Block via_block;
  ASSERT_TRUE(d.ReadData(5, &via_block).ok());
  EXPECT_TRUE(std::equal(via_block.data.begin(), via_block.data.end(),
                         stream.begin() + 100));
  std::vector<uint8_t> back(kBlockSize + 8, 0xEE);
  ASSERT_TRUE(d.ReadData(5, std::span(back).subspan(8).first<kBlockSize>())
                  .ok());
  EXPECT_TRUE(std::equal(back.begin() + 8, back.end(), stream.begin() + 100));
  EXPECT_EQ(back[7], 0xEE);
  // A never-written block reads as zeros into the span.
  ASSERT_TRUE(d.ReadData(6, std::span(back).subspan(8).first<kBlockSize>())
                  .ok());
  EXPECT_TRUE(std::all_of(back.begin() + 8, back.end(),
                          [](uint8_t b) { return b == 0; }));
  // A rejected read leaves the caller's span alone.
  std::fill(back.begin(), back.end(), 0xEE);
  EXPECT_EQ(d.ReadData(16, std::span(back).first<kBlockSize>()).code(),
            ErrorCode::kInvalidArgument);
  d.Fail();
  EXPECT_EQ(d.ReadData(5, std::span(back).first<kBlockSize>()).code(),
            ErrorCode::kIoError);
  EXPECT_TRUE(std::all_of(back.begin(), back.end(),
                          [](uint8_t b) { return b == 0xEE; }));
}

// The store is a dense slot table: a slot stays null until its block is
// first written, and a replaced drive starts with every slot empty.
TEST(DiskTest, PeekIsNullUntilFirstWriteAndBlankEmptiesEverySlot) {
  constexpr uint64_t kBlocks = 64;
  SimEnvironment env;
  Disk d(&env, "d0", kBlocks);
  for (Dbn dbn = 0; dbn < kBlocks; ++dbn) {
    Result<const Block*> stored = d.Peek(dbn);
    ASSERT_TRUE(stored.ok());
    EXPECT_EQ(*stored, nullptr) << "dbn " << dbn;
  }
  for (Dbn dbn = 0; dbn < kBlocks; dbn += 3) {
    ASSERT_TRUE(d.WriteData(dbn, MakeBlock(0xA5)).ok());
  }
  Result<Block*> slot = d.Slot(kBlocks - 2);  // creates a zero block
  ASSERT_TRUE(slot.ok());
  EXPECT_TRUE((*slot)->IsZero());
  for (Dbn dbn = 0; dbn < kBlocks; ++dbn) {
    const bool written = dbn % 3 == 0 || dbn == kBlocks - 2;
    EXPECT_EQ(*d.Peek(dbn) != nullptr, written) << "dbn " << dbn;
  }
  EXPECT_EQ(d.Peek(kBlocks).status().code(), ErrorCode::kInvalidArgument);

  d.Fail();
  d.ReplaceWithBlank();
  for (Dbn dbn = 0; dbn < kBlocks; ++dbn) {
    EXPECT_EQ(*d.Peek(dbn), nullptr) << "dbn " << dbn;
  }
  Block b = MakeBlock(0xA5);
  ASSERT_TRUE(d.ReadData(0, &b).ok());
  EXPECT_TRUE(b.IsZero());
}

TEST(DiskTest, SequentialAccessIsTransferOnly) {
  SimEnvironment env;
  DiskTiming t;
  t.transfer_mb_per_s = 10.0;
  Disk d(&env, "d0", 1u << 20, t);
  // Head at 0, read 256 blocks at 0: 1 MiB at 10 MB/s ~= 104.8 ms.
  const SimDuration seq = d.AccessTime(0, 256);
  EXPECT_NEAR(static_cast<double>(seq), 104.8 * kMillisecond,
              1.0 * kMillisecond);
}

TEST(DiskTest, RandomAccessPaysSeekAndRotation) {
  SimEnvironment env;
  Disk d(&env, "d0", 1u << 20);
  const SimDuration near = d.AccessTime(0, 1);
  const SimDuration far = d.AccessTime(1u << 19, 1);
  EXPECT_GT(far, near + 5 * kMillisecond);
}

TEST(DiskTest, SeekCostGrowsWithDistance) {
  SimEnvironment env;
  Disk d(&env, "d0", 1u << 20);
  const SimDuration mid = d.AccessTime(1u << 16, 1);
  const SimDuration far = d.AccessTime(1u << 19, 1);
  EXPECT_GT(far, mid);
}

Task DoAccess(Disk* d, Dbn dbn, uint64_t count) {
  co_await d->TimedAccess(dbn, count);
}

TEST(DiskTest, TimedAccessMovesHeadAndCountsBytes) {
  SimEnvironment env;
  Disk d(&env, "d0", 1u << 20);
  env.Spawn(DoAccess(&d, 100, 8));
  env.Run();
  EXPECT_EQ(d.head_position(), 108u);
  EXPECT_EQ(d.bytes_transferred(), 8 * kBlockSize);
  EXPECT_GT(d.arm().BusyIntegral(), 0);
}

Task DoTimedAccess(Disk* d, Dbn dbn, uint64_t count, Status* st) {
  co_await d->TimedAccess(dbn, count, st);
}

Task FailAt(SimEnvironment* env, Disk* d, SimDuration when) {
  co_await env->Delay(when);
  d->Fail();
}

TEST(DiskTest, FailDuringInFlightAccessSurfacesIoError) {
  SimEnvironment env;
  Disk d(&env, "d0", 1u << 20);
  // A long transfer (4096 blocks ~ 1.7 s) with a Fail() landing mid-flight:
  // the waiting job must see kIoError, and the head/byte counters must not
  // pretend the access completed.
  Status st;
  env.Spawn(DoTimedAccess(&d, 0, 4096, &st));
  env.Spawn(FailAt(&env, &d, 100 * kMillisecond));
  env.Run();
  EXPECT_EQ(st.code(), ErrorCode::kIoError);
  EXPECT_EQ(d.head_position(), 0u);
  EXPECT_EQ(d.bytes_transferred(), 0u);
}

TEST(DiskTest, SequentialScanFasterThanRandomScan) {
  // The asymmetry that drives the whole paper: N blocks sequentially vs the
  // same N blocks scattered.
  SimEnvironment env;
  Disk seq_disk(&env, "seq", 1u << 20);
  Disk rnd_disk(&env, "rnd", 1u << 20);
  constexpr int kN = 64;

  for (int i = 0; i < kN; ++i) {
    env.Spawn(DoAccess(&seq_disk, static_cast<Dbn>(i) * 8, 8));
  }
  const SimTime t0 = env.now();
  env.Run();
  const SimDuration seq_time = env.now() - t0;

  Rng rng(5);
  const SimTime t1 = env.now();
  for (int i = 0; i < kN; ++i) {
    env.Spawn(DoAccess(&rnd_disk, rng.Below(1u << 20), 8));
  }
  env.Run();
  const SimDuration rnd_time = env.now() - t1;
  EXPECT_GT(rnd_time, 3 * seq_time);
}

// ------------------------------------------------------------------ Tape ---

TEST(TapeTest, WriteReadRoundTrip) {
  SimEnvironment env;
  Tape media("t0", 1 * kGiB);
  TapeDrive drive(&env, "dlt0");
  drive.LoadMedia(&media);
  std::vector<uint8_t> data = {1, 2, 3, 4, 5};
  ASSERT_TRUE(drive.WriteData(data).ok());
  EXPECT_EQ(drive.position(), 5u);
  drive.Rewind();
  std::vector<uint8_t> back(5);
  ASSERT_TRUE(drive.ReadData(back).ok());
  EXPECT_EQ(back, data);
}

TEST(TapeTest, NoMediaFails) {
  SimEnvironment env;
  TapeDrive drive(&env, "dlt0");
  std::vector<uint8_t> data(10);
  EXPECT_EQ(drive.WriteData(data).code(), ErrorCode::kFailedPrecondition);
  EXPECT_EQ(drive.ReadData(data).code(), ErrorCode::kFailedPrecondition);
}

TEST(TapeTest, EndOfTapeIsNoSpace) {
  SimEnvironment env;
  Tape media("t0", 100);
  TapeDrive drive(&env, "dlt0");
  drive.LoadMedia(&media);
  std::vector<uint8_t> data(101);
  EXPECT_EQ(drive.WriteData(data).code(), ErrorCode::kNoSpace);
}

TEST(TapeTest, ReadPastRecordedDataIsCorruption) {
  SimEnvironment env;
  Tape media("t0", 1000);
  TapeDrive drive(&env, "dlt0");
  drive.LoadMedia(&media);
  std::vector<uint8_t> data(10);
  ASSERT_TRUE(drive.WriteData(data).ok());
  drive.Rewind();
  std::vector<uint8_t> big(11);
  EXPECT_EQ(drive.ReadData(big).code(), ErrorCode::kCorruption);
}

TEST(TapeTest, MidTapeWriteTruncates) {
  SimEnvironment env;
  Tape media("t0", 1000);
  TapeDrive drive(&env, "dlt0");
  drive.LoadMedia(&media);
  std::vector<uint8_t> data(100, 0xEE);
  ASSERT_TRUE(drive.WriteData(data).ok());
  ASSERT_TRUE(drive.SeekTo(40).ok());
  std::vector<uint8_t> patch(10, 0x11);
  ASSERT_TRUE(drive.WriteData(patch).ok());
  EXPECT_EQ(media.size(), 50u) << "serpentine write truncates the tail";
}

// Records `bytes` on blank `media` through a drive of its own.
void RecordOn(Tape* media, const std::vector<uint8_t>& bytes) {
  SimEnvironment env;
  TapeDrive drive(&env, "rec");
  drive.LoadMedia(media);
  ASSERT_TRUE(drive.WriteData(bytes).ok());
}

TEST(TapeTest, CorruptionFlipsBits) {
  Tape media("t0", 1000);
  RecordOn(&media, std::vector<uint8_t>(100, 0x00));
  ASSERT_TRUE(media.CorruptRange(10, 5).ok());
  EXPECT_EQ(media.contents()[9], 0x00);
  EXPECT_EQ(media.contents()[10], 0x5A);
  EXPECT_EQ(media.contents()[14], 0x5A);
  EXPECT_EQ(media.contents()[15], 0x00);
}

TEST(TapeTest, CorruptRangeRejectsAndClampsOutOfBounds) {
  Tape media("t0", 1000);
  RecordOn(&media, std::vector<uint8_t>(100, 0x00));
  // Starting beyond the recorded data is an error and must not write.
  EXPECT_EQ(media.CorruptRange(100, 5).code(), ErrorCode::kInvalidArgument);
  EXPECT_EQ(media.CorruptRange(500, 1).code(), ErrorCode::kInvalidArgument);
  for (uint8_t b : media.contents()) {
    EXPECT_EQ(b, 0x00);
  }
  // A range running off the end of the data clamps (the defect extends
  // into blank media) — no overflow, no out-of-bounds write.
  ASSERT_TRUE(media.CorruptRange(98, std::numeric_limits<uint64_t>::max())
                  .ok());
  EXPECT_EQ(media.contents()[97], 0x00);
  EXPECT_EQ(media.contents()[98], 0x5A);
  EXPECT_EQ(media.contents()[99], 0x5A);
  EXPECT_EQ(media.size(), 100u);
}

std::shared_ptr<std::vector<uint8_t>> CountingStream(size_t n) {
  auto stream = std::make_shared<std::vector<uint8_t>>(n);
  for (size_t i = 0; i < n; ++i) {
    (*stream)[i] = static_cast<uint8_t>(i * 7 + 1);
  }
  return stream;
}

TEST(TapeTest, AdoptedStreamRecordsInPlace) {
  SimEnvironment env;
  auto stream = CountingStream(1000);
  Tape media("t0", 1 * kGiB);
  ASSERT_TRUE(media.Adopt(stream).ok());
  EXPECT_EQ(media.size(), 0u) << "adopting records nothing";
  TapeDrive drive(&env, "dlt0");
  drive.LoadMedia(&media);
  const std::span<const uint8_t> bytes = *stream;
  ASSERT_TRUE(drive.WriteData(bytes.first(600)).ok());
  ASSERT_TRUE(drive.WriteData(bytes.subspan(600)).ok());
  EXPECT_EQ(media.size(), 1000u);
  EXPECT_EQ(media.contents().data(), stream->data())
      << "the tape's bytes are the adopted buffer's bytes";

  // Only blank media adopt.
  EXPECT_EQ(media.Adopt(CountingStream(10)).code(),
            ErrorCode::kFailedPrecondition);
  EXPECT_EQ(media.contents().data(), stream->data());
}

TEST(TapeTest, AdoptedStreamCapsAtCapacityAndSpills) {
  SimEnvironment env;
  auto stream = CountingStream(150);
  Tape first("t0", 100);
  Tape spare("t1", 100);
  ASSERT_TRUE(first.Adopt(stream).ok());
  TapeDrive drive(&env, "dlt0");
  drive.LoadMedia(&first);
  const std::span<const uint8_t> bytes = *stream;
  EXPECT_EQ(drive.WriteData(bytes).code(), ErrorCode::kNoSpace);
  ASSERT_TRUE(drive.WriteData(bytes.first(100)).ok());
  EXPECT_EQ(first.size(), 100u);
  // The rest of the stream goes to a spare, which copies it.
  drive.LoadMedia(&spare);
  ASSERT_TRUE(drive.WriteData(bytes.subspan(100)).ok());
  ASSERT_EQ(spare.size(), 50u);
  EXPECT_NE(spare.contents().data(), stream->data() + 100);
  EXPECT_TRUE(std::equal(spare.contents().begin(), spare.contents().end(),
                         bytes.begin() + 100));
}

TEST(TapeTest, SharedStoreNeverChangesUnderItsOtherHolder) {
  SimEnvironment env;
  TapeDrive drive(&env, "dlt0");
  auto stream = CountingStream(100);
  const std::vector<uint8_t> original = *stream;
  auto recorded = [&](Tape* media) {
    ASSERT_TRUE(media->Adopt(stream).ok());
    drive.LoadMedia(media);
    ASSERT_TRUE(drive.WriteData(*stream).ok());
    ASSERT_EQ(media->contents().data(), stream->data());
  };

  // A media defect damages the tape, not the stream it shares.
  Tape corrupted("t0", 1000);
  recorded(&corrupted);
  ASSERT_TRUE(corrupted.CorruptRange(10, 5).ok());
  EXPECT_EQ(*stream, original);
  EXPECT_EQ(corrupted.contents()[10], original[10] ^ 0x5A);
  EXPECT_EQ(corrupted.contents()[15], original[15]);
  EXPECT_EQ(corrupted.size(), 100u);
  // A write of the stream's bytes after the tape went private copies them.
  drive.Rewind();
  ASSERT_TRUE(drive.WriteData(*stream).ok());
  EXPECT_TRUE(std::ranges::equal(corrupted.contents(), original));
  EXPECT_NE(corrupted.contents().data(), stream->data());

  // A copying write (other bytes, mid-tape) truncates the tape only.
  Tape patched("t1", 1000);
  recorded(&patched);
  ASSERT_TRUE(drive.SeekTo(40).ok());
  ASSERT_TRUE(drive.WriteData(std::vector<uint8_t>(10, 0xEE)).ok());
  EXPECT_EQ(patched.size(), 50u);
  EXPECT_EQ(patched.contents()[39], original[39]);
  EXPECT_EQ(patched.contents()[40], 0xEE);
  EXPECT_EQ(*stream, original);

  // Erase drops the tape's hold and leaves the bytes to the other holder.
  Tape erased("t2", 1000);
  recorded(&erased);
  const long holders = stream.use_count();
  erased.Erase();
  EXPECT_EQ(erased.size(), 0u);
  EXPECT_TRUE(erased.contents().empty());
  EXPECT_EQ(stream.use_count(), holders - 1);
  EXPECT_EQ(*stream, original);
}

TEST(TapeTest, SoleHolderChangesItsStoreInPlace) {
  SimEnvironment env;
  TapeDrive drive(&env, "dlt0");
  Tape media("t0", 1000);
  const uint8_t* store = nullptr;
  {
    auto stream = CountingStream(100);
    store = stream->data();
    ASSERT_TRUE(media.Adopt(stream).ok());
    drive.LoadMedia(&media);
    ASSERT_TRUE(drive.WriteData(*stream).ok());
  }
  // The writer let go: the tape owns the store and nothing is copied.
  const uint8_t before = media.contents()[3];
  ASSERT_TRUE(media.CorruptRange(3, 1).ok());
  EXPECT_EQ(media.contents().data(), store);
  EXPECT_EQ(media.contents()[3], before ^ 0x5A);
}

// Fails every tape read and counts the reads it saw.
class FailingTapeReads : public DeviceFaultHook {
 public:
  Status OnDiskAccess(Disk*, uint64_t) override { return Status::Ok(); }
  Status OnTapeWrite(TapeDrive*, uint64_t, uint64_t) override {
    return Status::Ok();
  }
  Status OnTapeRead(TapeDrive*, uint64_t position, uint64_t nbytes) override {
    ++reads;
    last = {position, nbytes};
    return IoError("injected read error");
  }
  int reads = 0;
  std::pair<uint64_t, uint64_t> last;
};

Task DoTapePass(TapeDrive* drive, uint64_t nbytes, Status* status) {
  co_await drive->TimedPass(nbytes, status);
}

TEST(TapeTest, PassMovesTheHeadWithReadDataChecks) {
  SimEnvironment env;
  TapeDrive drive(&env, "dlt0");
  Status st;
  EXPECT_EQ(drive.PassData(1).code(), ErrorCode::kFailedPrecondition);
  env.Spawn(DoTapePass(&drive, 1, &st));
  env.Run();
  EXPECT_EQ(st.code(), ErrorCode::kFailedPrecondition);

  Tape media("t0", 1000);
  RecordOn(&media, std::vector<uint8_t>(100, 0x33));
  drive.LoadMedia(&media);
  ASSERT_TRUE(drive.SeekTo(60).ok());
  EXPECT_EQ(drive.PassData(41).code(), ErrorCode::kCorruption);
  EXPECT_EQ(drive.position(), 60u) << "a failed pass leaves the head";
  env.Spawn(DoTapePass(&drive, 41, &st));
  env.Run();
  EXPECT_EQ(st.code(), ErrorCode::kCorruption);
  EXPECT_EQ(drive.position(), 60u);
  EXPECT_EQ(drive.bytes_transferred(), 0u);

  // A pass that fits moves the head and counts like a read.
  env.Spawn(DoTapePass(&drive, 40, &st));
  env.Run();
  ASSERT_TRUE(st.ok()) << st.ToString();
  EXPECT_EQ(drive.position(), 100u);
  EXPECT_EQ(drive.bytes_transferred(), 40u);
}

TEST(TapeTest, PassConsultsTheFaultHookAndTakesReadTime) {
  SimEnvironment env;
  TapeTiming t;
  t.stream_mb_per_s = 10.0;
  TapeDrive drive(&env, "dlt0", t);
  Tape media("t0", 10 * kMiB);
  RecordOn(&media, std::vector<uint8_t>(1'000'000, 0x44));
  drive.LoadMedia(&media);
  FailingTapeReads hook;
  drive.set_fault_hook(&hook);
  ASSERT_TRUE(drive.SeekTo(10).ok());
  Status st;
  env.Spawn(DoTapePass(&drive, 500'000, &st));
  env.Run();
  EXPECT_EQ(st.code(), ErrorCode::kIoError);
  EXPECT_EQ(hook.reads, 1);
  EXPECT_EQ(hook.last, std::make_pair(uint64_t{10}, uint64_t{500'000}));
  EXPECT_EQ(drive.position(), 10u) << "a failed pass leaves the head";
  EXPECT_EQ(env.now(), SecondsToSim(0.05)) << "a pass streams like a read";

  drive.set_fault_hook(nullptr);
  env.Spawn(DoTapePass(&drive, 500'000, &st));
  env.Run();
  ASSERT_TRUE(st.ok()) << st.ToString();
  EXPECT_EQ(drive.position(), 500'010u);
}

Task DoTapeWrite(TapeDrive* drive, std::span<const uint8_t> data,
                 Status* status) {
  co_await drive->TimedWrite(data, status);
}

TEST(TapeTest, StreamingRateGovernsTimedWrites) {
  SimEnvironment env;
  Tape media("t0", 1 * kGiB);
  TapeTiming t;
  t.stream_mb_per_s = 10.0;
  TapeDrive drive(&env, "dlt0", t);
  drive.LoadMedia(&media);
  std::vector<uint8_t> chunk(1'000'000);
  Status st;
  env.Spawn(DoTapeWrite(&drive, chunk, &st));
  env.Run();
  ASSERT_TRUE(st.ok());
  EXPECT_EQ(env.now(), SecondsToSim(0.1));
  EXPECT_EQ(drive.repositions(), 0u);
}

Task GappyWriter(SimEnvironment* env, TapeDrive* drive, SimDuration gap,
                 Status* status) {
  std::vector<uint8_t> chunk(100'000);
  for (int i = 0; i < 3; ++i) {
    co_await drive->TimedWrite(chunk, status);
    co_await env->Delay(gap);
  }
}

TEST(TapeTest, UnderrunCausesRepositioning) {
  SimEnvironment env;
  Tape media("t0", 1 * kGiB);
  TapeDrive drive(&env, "dlt0");
  drive.LoadMedia(&media);
  Status st;
  env.Spawn(GappyWriter(&env, &drive, 2 * kSecond, &st));
  env.Run();
  ASSERT_TRUE(st.ok());
  EXPECT_EQ(drive.repositions(), 2u) << "every post-gap write repositions";

  // A back-to-back writer on the same timing never repositions.
  Tape media2("t1", 1 * kGiB);
  TapeDrive drive2(&env, "dlt1");
  drive2.LoadMedia(&media2);
  env.Spawn(GappyWriter(&env, &drive2, 0, &st));
  env.Run();
  EXPECT_EQ(drive2.repositions(), 0u);
}

TEST(TapeTest, TimedRewindAndLoadAdvanceClock) {
  SimEnvironment env;
  Tape media("t0", 1 * kGiB);
  TapeDrive drive(&env, "dlt0");
  auto proc = [](TapeDrive* d, Tape* m) -> Task {
    co_await d->TimedLoadMedia(m);
    co_await d->TimedRewind();
  };
  env.Spawn(proc(&drive, &media));
  env.Run();
  EXPECT_EQ(env.now(),
            drive.timing().load_time + drive.timing().rewind_time);
  EXPECT_TRUE(drive.loaded());
}

// ---------------------------------------------------------------- Library ---

TEST(TapeLibraryTest, SlotsAndLabels) {
  TapeLibrary lib("stacker0", 10 * kMiB, 4);
  EXPECT_EQ(lib.num_slots(), 4u);
  ASSERT_NE(lib.TapeInSlot(2), nullptr);
  EXPECT_EQ(lib.TapeInSlot(2)->label(), "stacker0.2");
  EXPECT_EQ(lib.TapeInSlot(9), nullptr);
  EXPECT_EQ(*lib.SlotOfLabel("stacker0.3"), 3u);
  EXPECT_EQ(lib.SlotOfLabel("nope").status().code(), ErrorCode::kNotFound);
}

TEST(TapeLibraryTest, LoadSwapsMedia) {
  SimEnvironment env;
  TapeLibrary lib("stacker0", 10 * kMiB, 2);
  TapeDrive drive(&env, "dlt0");
  ASSERT_TRUE(lib.LoadSlot(&drive, 0).ok());
  EXPECT_EQ(drive.tape()->label(), "stacker0.0");
  std::vector<uint8_t> data(10, 1);
  ASSERT_TRUE(drive.WriteData(data).ok());
  ASSERT_TRUE(lib.LoadSlot(&drive, 1).ok());
  EXPECT_EQ(drive.tape()->label(), "stacker0.1");
  EXPECT_EQ(drive.position(), 0u);
  // Tape 0 kept its contents while out of the drive.
  EXPECT_EQ(lib.TapeInSlot(0)->size(), 10u);
  EXPECT_EQ(lib.LoadSlot(&drive, 7).code(), ErrorCode::kInvalidArgument);
}

TEST(TapeLibraryTest, AddBlankTape) {
  TapeLibrary lib("stacker0", 10 * kMiB, 1);
  const size_t slot = lib.AddBlankTape("extra");
  EXPECT_EQ(slot, 1u);
  EXPECT_EQ(lib.TapeInSlot(slot)->label(), "extra");
  EXPECT_EQ(lib.TapeInSlot(slot)->size(), 0u);
}

}  // namespace
}  // namespace bkup
