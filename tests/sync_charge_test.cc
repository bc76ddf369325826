// Tests for the sim synchronization primitives (SimEvent, CountdownLatch)
// and the disk charging helpers (run coalescing, parity accounting,
// parallelism across arms).
#include <gtest/gtest.h>

#include <algorithm>
#include <new>
#include <string>
#include <vector>

#include "src/backup/charge.h"
#include "src/sim/sync.h"

namespace bkup {
namespace {

// ----------------------------------------------------------------- sync ---

Task Waiter(SimEvent* ev, SimTime* woke, SimEnvironment* env) {
  co_await ev->Wait();
  *woke = env->now();
}

Task NotifyAfter(SimEnvironment* env, SimEvent* ev, SimDuration d) {
  co_await env->Delay(d);
  ev->Notify();
}

TEST(SimEventTest, WaitBlocksUntilNotify) {
  SimEnvironment env;
  SimEvent ev(&env);
  SimTime woke = -1;
  env.Spawn(Waiter(&ev, &woke, &env));
  env.Spawn(NotifyAfter(&env, &ev, 100));
  env.Run();
  EXPECT_EQ(woke, 100);
}

TEST(SimEventTest, WaitAfterNotifyIsImmediate) {
  SimEnvironment env;
  SimEvent ev(&env);
  ev.Notify();
  SimTime woke = -1;
  env.Spawn(Waiter(&ev, &woke, &env));
  env.Run();
  EXPECT_EQ(woke, 0);
}

TEST(SimEventTest, MultipleWaitersAllWake) {
  SimEnvironment env;
  SimEvent ev(&env);
  SimTime woke[3] = {-1, -1, -1};
  for (auto& w : woke) {
    env.Spawn(Waiter(&ev, &w, &env));
  }
  env.Spawn(NotifyAfter(&env, &ev, 7));
  env.Run();
  for (SimTime w : woke) {
    EXPECT_EQ(w, 7);
  }
}

Task CountAfter(SimEnvironment* env, CountdownLatch* latch, SimDuration d) {
  co_await env->Delay(d);
  latch->CountDown();
}

Task LatchWaiter(CountdownLatch* latch, SimTime* woke, SimEnvironment* env) {
  co_await latch->Wait();
  *woke = env->now();
}

TEST(CountdownLatchTest, WaitsForAllParties) {
  SimEnvironment env;
  CountdownLatch latch(&env, 3);
  SimTime woke = -1;
  env.Spawn(LatchWaiter(&latch, &woke, &env));
  env.Spawn(CountAfter(&env, &latch, 10));
  env.Spawn(CountAfter(&env, &latch, 30));
  env.Spawn(CountAfter(&env, &latch, 20));
  env.Run();
  EXPECT_EQ(woke, 30) << "latch opens when the last party arrives";
  EXPECT_TRUE(latch.done());
}

TEST(CountdownLatchTest, ZeroCountIsImmediatelyDone) {
  SimEnvironment env;
  CountdownLatch latch(&env, 0);
  EXPECT_TRUE(latch.done());
  SimTime woke = -1;
  env.Spawn(LatchWaiter(&latch, &woke, &env));
  env.Run();
  EXPECT_EQ(woke, 0);
}

// --------------------------------------------------------------- charge ---

struct ChargeFixture {
  ChargeFixture() {
    VolumeGeometry geom;
    geom.num_raid_groups = 2;
    geom.disks_per_group = 4;  // 3 data + 1 parity each
    geom.blocks_per_disk = 4096;
    volume = Volume::Create(&env, "v", geom);
  }
  SimEnvironment env;
  std::unique_ptr<Volume> volume;
};

Task DoCharge(SimEnvironment* env, Volume* volume, std::vector<Vbn> vbns,
              bool writes) {
  co_await ChargeDiskAccess(env, volume, vbns, writes);
}

TEST(ChargeTest, SequentialReadsCoalesceAcrossDisks) {
  ChargeFixture f;
  // 64 consecutive vbns: ~21-22 contiguous blocks per data disk, read in
  // parallel — elapsed should be about one disk's transfer time, far below
  // the serial sum.
  std::vector<Vbn> vbns;
  for (Vbn v = 100; v < 164; ++v) {
    vbns.push_back(v);
  }
  f.env.Spawn(DoCharge(&f.env, f.volume.get(), vbns, false));
  const SimTime end = f.env.Run();
  const double per_disk_bytes = 22.0 * kBlockSize;
  const double expect_s = per_disk_bytes / 10e6;  // 10 MB/s media rate
  EXPECT_LT(end, SecondsToSim(expect_s * 2.5));
  EXPECT_GT(end, SecondsToSim(expect_s * 0.8));
}

TEST(ChargeTest, ReadsDoNotTouchParity) {
  ChargeFixture f;
  std::vector<Vbn> vbns{0, 1, 2, 3, 4, 5};
  f.env.Spawn(DoCharge(&f.env, f.volume.get(), vbns, false));
  f.env.Run();
  EXPECT_EQ(f.volume->group(0)->parity_disk()->arm().BusyIntegral(), 0);
}

TEST(ChargeTest, WritesChargeParityOncePerStripe) {
  ChargeFixture f;
  // 6 consecutive vbns = 2 full stripes on group 0: parity disk should be
  // charged ~2 blocks, not 6.
  std::vector<Vbn> vbns{0, 1, 2, 3, 4, 5};
  f.env.Spawn(DoCharge(&f.env, f.volume.get(), vbns, true));
  f.env.Run();
  Disk* parity = f.volume->group(0)->parity_disk();
  EXPECT_EQ(parity->bytes_transferred(), 2 * kBlockSize)
      << "one parity block per stripe";
  Disk* data0 = f.volume->group(0)->data_disk(0);
  EXPECT_EQ(data0->bytes_transferred(), 2 * kBlockSize);
}

TEST(ChargeTest, ScatteredReadsPaySeeks) {
  ChargeFixture f;
  // Same number of blocks, scattered vs contiguous: scattered must take
  // several times longer.
  std::vector<Vbn> contiguous, scattered;
  for (int i = 0; i < 12; ++i) {
    contiguous.push_back(600 + i);
    scattered.push_back(static_cast<Vbn>((i * 997) % 12000));
  }
  f.env.Spawn(DoCharge(&f.env, f.volume.get(), contiguous, false));
  const SimDuration t_contig = f.env.Run();
  SimEnvironment env2;
  auto volume2 = Volume::Create(&env2, "v2", f.volume->geometry());
  env2.Spawn(DoCharge(&env2, volume2.get(), scattered, false));
  const SimDuration t_scattered = env2.Run();
  EXPECT_GT(t_scattered, 3 * t_contig);
}

Task DoSeqWrites(SimEnvironment* env, Volume* volume, uint64_t blocks) {
  co_await ChargeSequentialWrites(env, volume, blocks);
}

TEST(ChargeTest, SequentialWritesSpreadOverAllDisks) {
  ChargeFixture f;
  f.env.Spawn(DoSeqWrites(&f.env, f.volume.get(), 600));
  const SimTime end = f.env.Run();
  // 600 blocks over 6 data disks = 100 blocks/disk = 400 KiB at 10 MB/s
  // ~= 41 ms, all disks in parallel.
  EXPECT_NEAR(static_cast<double>(end), 41.0 * kMillisecond,
              8.0 * kMillisecond);
  // Every disk including parity was busy.
  for (const auto& d : f.volume->disks()) {
    EXPECT_GT(d->arm().BusyIntegral(), 0) << d->name();
  }
}

TEST(ChargeTest, EmptyChargesCompleteInstantly) {
  ChargeFixture f;
  f.env.Spawn(DoCharge(&f.env, f.volume.get(), {}, false));
  f.env.Spawn(DoSeqWrites(&f.env, f.volume.get(), 0));
  EXPECT_EQ(f.env.Run(), 0);
}

// Records the disks that finish an access, in event order.
class AccessOrder : public DeviceFaultHook {
 public:
  Status OnDiskAccess(Disk* disk, uint64_t) override {
    order.push_back(disk->name());
    return Status::Ok();
  }
  Status OnTapeWrite(TapeDrive*, uint64_t, uint64_t) override {
    return Status::Ok();
  }
  Status OnTapeRead(TapeDrive*, uint64_t, uint64_t) override {
    return Status::Ok();
  }
  std::vector<std::string> order;
};

// One access's per-disk runs start in volume order, wherever the allocator
// put the Disk objects. Disk-sized blocks freed lowest address first come
// back highest first, so Volume::Create's disks get descending addresses —
// the order an address-keyed schedule would follow. Spawn order fixes the
// event order at equal times, so an address order would tie simulated
// output (fault draws, per-disk series) to the heap layout.
TEST(ChargeTest, DiskRunsStartInVolumeOrderNotAddressOrder) {
  SimEnvironment env;
  std::vector<void*> recycled;
  for (int i = 0; i < 4; ++i) {
    recycled.push_back(::operator new(sizeof(Disk)));
  }
  std::sort(recycled.begin(), recycled.end());
  for (void* block : recycled) {
    ::operator delete(block);
  }
  VolumeGeometry geom;
  geom.num_raid_groups = 1;
  geom.disks_per_group = 4;
  geom.blocks_per_disk = 64;
  auto volume = Volume::Create(&env, "v", geom);
  AccessOrder hook;
  for (const auto& disk : volume->disks()) {
    disk->set_fault_hook(&hook);
  }
  // One block on each data disk of stripe 0, plus its parity: equal access
  // times, so the hook sees the disks in the order their runs started.
  env.Spawn(DoCharge(&env, volume.get(), {0, 1, 2}, true));
  env.Run();
  EXPECT_EQ(hook.order, (std::vector<std::string>{"v.rg0.d0", "v.rg0.d1",
                                                  "v.rg0.d2", "v.rg0.d3"}));
}

}  // namespace
}  // namespace bkup
