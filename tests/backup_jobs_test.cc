// Tests for the simulated backup jobs: correctness of the data they move,
// sanity of the timing model (tape-limited backups, CPU asymmetry between
// logical and physical, NVRAM effect on logical restore), parallel
// scaling behaviour, snapshot cleanup on failed dumps, and a golden digest
// of every public job entry point's reports.
#include <gtest/gtest.h>

#include <cstdio>
#include <functional>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "src/backup/jobs.h"
#include "src/backup/parallel.h"
#include "src/backup/remote.h"
#include "src/dump/catalog.h"
#include "src/faults/crash.h"
#include "src/faults/fault_injector.h"
#include "src/util/random.h"
#include "src/workload/population.h"

namespace bkup {
namespace {

VolumeGeometry JobGeometry() {
  VolumeGeometry geom;
  geom.num_raid_groups = 2;
  geom.disks_per_group = 4;
  geom.blocks_per_disk = 4096;  // 96 MiB data space
  return geom;
}

struct JobFixture {
  JobFixture() : filer(&env, FilerModel::F630()) {
    src_volume = Volume::Create(&env, "home", JobGeometry());
    dst_volume = Volume::Create(&env, "spare", JobGeometry());
    src = std::move(Filesystem::Format(src_volume.get(), &env)).value();
    for (int i = 0; i < 4; ++i) {
      tapes.push_back(std::make_unique<Tape>("t" + std::to_string(i),
                                             4ull * kGiB));
      drives.push_back(
          std::make_unique<TapeDrive>(&env, "dlt" + std::to_string(i)));
      drives.back()->LoadMedia(tapes.back().get());
    }
  }

  void Populate(uint64_t bytes, uint32_t quota_trees = 1) {
    WorkloadParams params;
    params.target_bytes = bytes;
    params.quota_trees = quota_trees;
    auto stats = PopulateFilesystem(src.get(), params);
    ASSERT_TRUE(stats.ok()) << stats.status().ToString();
  }

  SimEnvironment env;
  Filer filer;
  std::unique_ptr<Volume> src_volume, dst_volume;
  std::unique_ptr<Filesystem> src;
  std::vector<std::unique_ptr<Tape>> tapes;
  std::vector<std::unique_ptr<TapeDrive>> drives;
};

TEST(BackupJobsTest, LogicalBackupJobWritesRestorableTape) {
  JobFixture f;
  f.Populate(8 * kMiB);
  auto src_sums = ChecksumTree(f.src->LiveReader());
  ASSERT_TRUE(src_sums.ok());

  LogicalBackupJobResult backup;
  CountdownLatch done(&f.env, 1);
  LogicalDumpOptions opt;
  opt.volume_name = "home";
  f.env.Spawn(LogicalBackupJob(&f.filer, f.src.get(), f.drives[0].get(), opt,
                               &backup, &done));
  f.env.Run();
  ASSERT_TRUE(backup.report.status.ok())
      << backup.report.status.ToString();
  EXPECT_GT(backup.report.elapsed(), 0);
  EXPECT_GT(f.tapes[0]->size(), 8 * kMiB);
  // The dump snapshot was cleaned up.
  EXPECT_TRUE(f.src->ListSnapshots().empty());

  // Restore the tape on a second filesystem and verify every checksum.
  auto dst = std::move(Filesystem::Format(f.dst_volume.get(), &f.env)).value();
  f.drives[0]->Rewind();
  LogicalRestoreJobResult restore;
  CountdownLatch rdone(&f.env, 1);
  f.env.Spawn(LogicalRestoreJob(&f.filer, dst.get(), f.drives[0].get(),
                                LogicalRestoreOptions{}, false, &restore,
                                &rdone));
  f.env.Run();
  ASSERT_TRUE(restore.report.status.ok())
      << restore.report.status.ToString();
  auto dst_sums = ChecksumTree(dst->LiveReader());
  ASSERT_TRUE(dst_sums.ok());
  EXPECT_EQ(*src_sums, *dst_sums);
}

TEST(BackupJobsTest, PhysicalBackupJobWritesRestorableTape) {
  JobFixture f;
  f.Populate(8 * kMiB);
  auto src_sums = ChecksumTree(f.src->LiveReader());
  ASSERT_TRUE(src_sums.ok());

  ImageBackupJobResult backup;
  CountdownLatch done(&f.env, 1);
  f.env.Spawn(ImageBackupJob(&f.filer, f.src.get(), f.drives[0].get(),
                             ImageDumpOptions{}, /*delete_snapshot_after=*/
                             false, &backup, &done));
  f.env.Run();
  ASSERT_TRUE(backup.report.status.ok()) << backup.report.status.ToString();

  f.drives[0]->Rewind();
  ImageRestoreJobResult restore;
  CountdownLatch rdone(&f.env, 1);
  f.env.Spawn(ImageRestoreJob(&f.filer, f.dst_volume.get(),
                              f.drives[0].get(), &restore, &rdone));
  f.env.Run();
  ASSERT_TRUE(restore.report.status.ok())
      << restore.report.status.ToString();

  auto dst = Filesystem::Mount(f.dst_volume.get(), &f.env);
  ASSERT_TRUE(dst.ok()) << dst.status().ToString();
  auto dst_sums = ChecksumTree((*dst)->LiveReader());
  ASSERT_TRUE(dst_sums.ok());
  EXPECT_EQ(*src_sums, *dst_sums);
}

TEST(BackupJobsTest, SingleTapeBackupIsTapeLimited) {
  // Table 2's regime: with one DLT drive, both strategies run near tape
  // speed, physical somewhat faster.
  JobFixture f;
  f.Populate(16 * kMiB);

  LogicalBackupJobResult logical;
  CountdownLatch ldone(&f.env, 1);
  f.env.Spawn(LogicalBackupJob(&f.filer, f.src.get(), f.drives[0].get(),
                               LogicalDumpOptions{}, &logical, &ldone));
  f.env.Run();
  ASSERT_TRUE(logical.report.status.ok());

  ImageBackupJobResult physical;
  CountdownLatch pdone(&f.env, 1);
  f.env.Spawn(ImageBackupJob(&f.filer, f.src.get(), f.drives[1].get(),
                             ImageDumpOptions{}, true, &physical, &pdone));
  f.env.Run();
  ASSERT_TRUE(physical.report.status.ok());

  // Compare streaming phases (excluding fixed snapshot overheads).
  const PhaseStats& lfiles = logical.report.phase(JobPhase::kDumpFiles);
  const PhaseStats& pblocks = physical.report.phase(JobPhase::kDumpBlocks);
  const double tape_rate = f.drives[0]->timing().stream_mb_per_s * 1e6;
  const double logical_rate =
      static_cast<double>(lfiles.tape_bytes) / SimToSeconds(lfiles.elapsed());
  const double physical_rate = static_cast<double>(pblocks.tape_bytes) /
                               SimToSeconds(pblocks.elapsed());
  EXPECT_GT(physical_rate, 0.85 * tape_rate)
      << "physical dump must stream the tape";
  EXPECT_GT(logical_rate, 0.6 * tape_rate);
  EXPECT_GT(physical_rate, logical_rate)
      << "physical holds a modest single-tape edge (Table 2)";
}

TEST(BackupJobsTest, CpuAsymmetryMatchesTable3) {
  JobFixture f;
  f.Populate(16 * kMiB);

  LogicalBackupJobResult logical;
  CountdownLatch ldone(&f.env, 1);
  f.env.Spawn(LogicalBackupJob(&f.filer, f.src.get(), f.drives[0].get(),
                               LogicalDumpOptions{}, &logical, &ldone));
  f.env.Run();
  ImageBackupJobResult physical;
  CountdownLatch pdone(&f.env, 1);
  f.env.Spawn(ImageBackupJob(&f.filer, f.src.get(), f.drives[1].get(),
                             ImageDumpOptions{}, true, &physical, &pdone));
  f.env.Run();

  const double logical_cpu =
      logical.report.phase(JobPhase::kDumpFiles).CpuUtilization();
  const double physical_cpu =
      physical.report.phase(JobPhase::kDumpBlocks).CpuUtilization();
  EXPECT_GT(logical_cpu, 3.0 * physical_cpu)
      << "logical dump consumes ~5x the CPU of physical (Table 3)";
  EXPECT_LT(physical_cpu, 0.12);
  EXPECT_GT(logical_cpu, 0.10);
}

TEST(BackupJobsTest, NvramBypassSpeedsLogicalRestore) {
  JobFixture f;
  f.Populate(8 * kMiB);
  LogicalBackupJobResult backup;
  CountdownLatch done(&f.env, 1);
  f.env.Spawn(LogicalBackupJob(&f.filer, f.src.get(), f.drives[0].get(),
                               LogicalDumpOptions{}, &backup, &done));
  f.env.Run();
  ASSERT_TRUE(backup.report.status.ok());

  auto restore_once = [&f](bool bypass) {
    auto volume = Volume::Create(&f.env, "r", JobGeometry());
    auto dst = std::move(Filesystem::Format(volume.get(), &f.env)).value();
    f.drives[0]->Rewind();
    LogicalRestoreJobResult restore;
    CountdownLatch rdone(&f.env, 1);
    f.env.Spawn(LogicalRestoreJob(&f.filer, dst.get(), f.drives[0].get(),
                                  LogicalRestoreOptions{}, bypass, &restore,
                                  &rdone));
    f.env.Run();
    EXPECT_TRUE(restore.report.status.ok());
    return restore.report.elapsed();
  };
  const SimDuration with_nvram = restore_once(false);
  const SimDuration without_nvram = restore_once(true);
  EXPECT_LT(without_nvram, with_nvram)
      << "bypassing NVRAM must speed up logical restore (footnote 2)";
}

TEST(BackupJobsTest, PhysicalRestoreFasterThanLogical) {
  JobFixture f;
  f.Populate(12 * kMiB);

  // Logical chain.
  LogicalBackupJobResult lback;
  CountdownLatch l1(&f.env, 1);
  f.env.Spawn(LogicalBackupJob(&f.filer, f.src.get(), f.drives[0].get(),
                               LogicalDumpOptions{}, &lback, &l1));
  f.env.Run();
  auto lvol = Volume::Create(&f.env, "lr", JobGeometry());
  auto lfs = std::move(Filesystem::Format(lvol.get(), &f.env)).value();
  f.drives[0]->Rewind();
  LogicalRestoreJobResult lrest;
  CountdownLatch l2(&f.env, 1);
  f.env.Spawn(LogicalRestoreJob(&f.filer, lfs.get(), f.drives[0].get(),
                                LogicalRestoreOptions{}, false, &lrest, &l2));
  f.env.Run();
  ASSERT_TRUE(lrest.report.status.ok());

  // Physical chain.
  ImageBackupJobResult pback;
  CountdownLatch p1(&f.env, 1);
  f.env.Spawn(ImageBackupJob(&f.filer, f.src.get(), f.drives[1].get(),
                             ImageDumpOptions{}, false, &pback, &p1));
  f.env.Run();
  f.drives[1]->Rewind();
  ImageRestoreJobResult prest;
  CountdownLatch p2(&f.env, 1);
  f.env.Spawn(ImageRestoreJob(&f.filer, f.dst_volume.get(),
                              f.drives[1].get(), &prest, &p2));
  f.env.Run();
  ASSERT_TRUE(prest.report.status.ok());

  // Normalize to per-byte cost (streams differ slightly in size).
  const double logical_s_per_mb =
      SimToSeconds(lrest.report.elapsed()) /
      (static_cast<double>(lrest.report.stream_bytes) / 1e6);
  const double physical_s_per_mb =
      SimToSeconds(prest.report.elapsed()) /
      (static_cast<double>(prest.report.stream_bytes) / 1e6);
  EXPECT_LT(physical_s_per_mb, logical_s_per_mb)
      << "physical restore must outrun logical restore (Table 2)";
}

TEST(BackupJobsTest, ParallelPhysicalDumpScales) {
  JobFixture f;
  f.Populate(32 * kMiB);

  auto run_parallel = [&f](uint32_t ntapes) {
    std::vector<TapeDrive*> drives;
    for (uint32_t k = 0; k < ntapes; ++k) {
      f.tapes[k]->Erase();
      f.drives[k]->LoadMedia(f.tapes[k].get());
      drives.push_back(f.drives[k].get());
    }
    ImageDumpOptions opt;
    opt.snapshot_name = "par" + std::to_string(ntapes);
    ParallelImageBackupResult result;
    CountdownLatch done(&f.env, 1);
    f.env.Spawn(ParallelImageBackupJob(&f.filer, f.src.get(), drives, opt,
                                       /*delete_snapshot_after=*/true,
                                       &result, &done));
    f.env.Run();
    EXPECT_TRUE(result.merged.status.ok())
        << result.merged.status.ToString();
    uint64_t blocks = 0;
    for (auto& r : result.parts) {
      blocks += r->dump.stats.blocks_dumped;
    }
    return std::pair(result.merged, blocks);
  };

  auto [one, blocks1] = run_parallel(1);
  auto [four, blocks4] = run_parallel(4);
  // All data covered in both runs (modulo snapshot meta churn).
  EXPECT_NEAR(static_cast<double>(blocks4), static_cast<double>(blocks1),
              static_cast<double>(blocks1) * 0.05);
  // The streaming phase must speed up substantially with 4 drives.
  // This fixture has only 6 data disks, so 4-way scaling is disk-limited
  // around 2x (the bench geometry with ~27 data disks scales further).
  const SimDuration t1 = one.phase(JobPhase::kDumpBlocks).elapsed();
  const SimDuration t4 = four.phase(JobPhase::kDumpBlocks).elapsed();
  EXPECT_LT(t4, t1 * 5 / 8) << "physical dump scales to 4 tapes (Table 5)";
}

TEST(BackupJobsTest, ReportPhasesAreOrderedAndComplete) {
  JobFixture f;
  f.Populate(4 * kMiB);
  LogicalBackupJobResult backup;
  CountdownLatch done(&f.env, 1);
  f.env.Spawn(LogicalBackupJob(&f.filer, f.src.get(), f.drives[0].get(),
                               LogicalDumpOptions{}, &backup, &done));
  f.env.Run();
  const JobReport& r = backup.report;
  ASSERT_TRUE(r.status.ok());
  // All of Table 3's logical-dump stages appear, in order.
  const PhaseStats& snap = r.phase(JobPhase::kCreateSnapshot);
  const PhaseStats& map = r.phase(JobPhase::kMap);
  const PhaseStats& dirs = r.phase(JobPhase::kDumpDirs);
  const PhaseStats& files = r.phase(JobPhase::kDumpFiles);
  const PhaseStats& del = r.phase(JobPhase::kDeleteSnapshot);
  for (const PhaseStats* p : {&snap, &map, &dirs, &files, &del}) {
    EXPECT_TRUE(p->active());
  }
  EXPECT_EQ(snap.elapsed(), f.filer.model().snapshot_create_time);
  EXPECT_NEAR(snap.CpuUtilization(), 0.5, 0.05);
  EXPECT_LE(snap.end, map.start);
  EXPECT_LE(map.end, dirs.start + kSecond);
  EXPECT_LE(dirs.start, files.start);
  EXPECT_LE(files.end, del.start);
  // The files phase moved the bulk of the stream.
  EXPECT_GT(files.tape_bytes, r.stream_bytes / 2);
  // Envelope covers all phases.
  EXPECT_EQ(r.start_time, snap.start);
  EXPECT_EQ(r.end_time, del.end);
}


// A dump that fails after its job took the snapshot must delete that
// snapshot and still close the report's envelope; a leftover would block
// the next default-named dump with ALREADY_EXISTS.
TEST(BackupJobsTest, FailedLogicalDumpReleasesItsSnapshot) {
  JobFixture f;
  f.Populate(2 * kMiB);
  LogicalDumpOptions missing;
  missing.subtree = "/no/such/dir";
  LogicalBackupJobResult failed;
  CountdownLatch done(&f.env, 1);
  f.env.Spawn(LogicalBackupJob(&f.filer, f.src.get(), f.drives[0].get(),
                               missing, &failed, &done));
  f.env.Run();
  ASSERT_TRUE(done.done());
  EXPECT_EQ(failed.report.status.code(), ErrorCode::kNotFound)
      << failed.report.status.ToString();
  EXPECT_TRUE(f.src->ListSnapshots().empty()) << "dump.auto leaked";
  EXPECT_EQ(failed.report.end_time, f.env.now());
  EXPECT_EQ(failed.report.cpu_busy_end, f.filer.cpu().BusyIntegral());

  LogicalBackupJobResult next;
  CountdownLatch next_done(&f.env, 1);
  f.env.Spawn(LogicalBackupJob(&f.filer, f.src.get(), f.drives[1].get(),
                               LogicalDumpOptions{}, &next, &next_done));
  f.env.Run();
  EXPECT_TRUE(next.report.status.ok()) << next.report.status.ToString();
  EXPECT_GT(next.report.elapsed(), 0);
}

// Same for an image dump: a failed dump bases no incremental, so the job
// drops the snapshot it took even when asked to keep it.
TEST(BackupJobsTest, FailedImageDumpReleasesItsSnapshot) {
  JobFixture f;
  f.Populate(2 * kMiB);
  ImageDumpOptions bad_part;
  bad_part.part_index = 5;
  bad_part.part_count = 2;
  ImageBackupJobResult failed;
  CountdownLatch done(&f.env, 1);
  f.env.Spawn(ImageBackupJob(&f.filer, f.src.get(), f.drives[0].get(),
                             bad_part, /*delete_snapshot_after=*/false,
                             &failed, &done));
  f.env.Run();
  ASSERT_TRUE(done.done());
  EXPECT_FALSE(failed.report.status.ok());
  EXPECT_TRUE(f.src->ListSnapshots().empty()) << "image.auto leaked";
  EXPECT_EQ(failed.report.end_time, f.env.now());
  EXPECT_EQ(failed.report.cpu_busy_end, f.filer.cpu().BusyIntegral());
}

TEST(BackupJobsTest, FailedRemoteLogicalDumpReleasesItsSnapshot) {
  JobFixture f;
  f.Populate(2 * kMiB);
  NetLink link(&f.env, "wan", LinkParams{});
  TapeServer server(&f.env, "vault");
  Tape media("vault.0", 64 * kMiB);
  RemoteTarget target;
  target.link = &link;
  target.server = &server;
  target.drive = server.AddDrive("dlt0");
  target.drive->LoadMedia(&media);
  LogicalDumpOptions missing;
  missing.subtree = "/no/such/dir";
  LogicalBackupJobResult failed;
  CountdownLatch done(&f.env, 1);
  f.env.Spawn(RemoteLogicalBackupJob(&f.filer, f.src.get(), target, missing,
                                     &failed, &done));
  f.env.Run();
  ASSERT_TRUE(done.done());
  EXPECT_EQ(failed.report.status.code(), ErrorCode::kNotFound)
      << failed.report.status.ToString();
  EXPECT_TRUE(f.src->ListSnapshots().empty()) << "dump.remote leaked";
  EXPECT_EQ(failed.report.end_time, f.env.now());
  EXPECT_EQ(failed.report.cpu_busy_end, f.filer.cpu().BusyIntegral());
}

// ------------------------------------------------- job matrix golden ---
// Pins the exact simulated output of every public job entry point: each
// runs once on one small seeded volume, with content stages off and again
// with chunk+dedup+crc, plus seeded fault runs for the tape remount, tape
// read retry and link reconnect ladders. A case's digest folds every
// report it produced (name, status, times, bytes, media, faults, resume
// and content stats, per-phase stats) and the event count and clock after
// each job. The expected values were recorded before the job bodies were
// composed from shared pieces; a refactor of src/backup that claims
// "simulated output unchanged" must leave every one of them as it is.

VolumeGeometry GoldenGeometry() {
  VolumeGeometry geom;
  geom.num_raid_groups = 1;
  geom.disks_per_group = 4;
  geom.blocks_per_disk = 2048;
  return geom;
}

void Canon(std::string* out, const char* fmt, auto... args) {
  char buf[256];
  std::snprintf(buf, sizeof(buf), fmt, args...);
  *out += buf;
}

std::string CanonReport(const JobReport& r) {
  std::string s = "job " + r.name + " | " + r.status.ToString() + "\n";
  Canon(&s, "time %lld %lld cpu %lld %lld stream %llu data %llu\n",
        static_cast<long long>(r.start_time),
        static_cast<long long>(r.end_time),
        static_cast<long long>(r.cpu_busy_start),
        static_cast<long long>(r.cpu_busy_end),
        static_cast<unsigned long long>(r.stream_bytes),
        static_cast<unsigned long long>(r.data_bytes));
  s += "media";
  for (const std::string& t : r.tapes_used) {
    s += " " + t;
  }
  s += " | final";
  for (const std::string& t : r.final_media) {
    s += " " + t;
  }
  s += "\n";
  const FaultCounters& f = r.faults;
  s += "faults";
  for (uint64_t v :
       {f.disk_io_errors, f.disk_retries, f.reconstruction_reads,
        f.spare_disks_used, f.tape_errors, f.tape_retries, f.tape_remounts,
        f.bytes_rewritten, f.files_skipped, f.link_errors, f.link_retransmits,
        f.link_reconnects, f.link_bytes_resent}) {
    Canon(&s, " %llu", static_cast<unsigned long long>(v));
  }
  const ResumeStats& m = r.resume;
  s += "\nresume";
  for (uint64_t v : {m.resumes, m.bytes_replayed, m.bytes_skipped,
                     m.entries_skipped, m.checkpoints}) {
    Canon(&s, " %llu", static_cast<unsigned long long>(v));
  }
  const ContentStats& c = r.content;
  s += "\ncontent";
  for (uint64_t v : {c.raw_bytes, c.wire_bytes, c.unique_bytes, c.chunks,
                     c.dedup_hits, c.crc_checks, c.encode_cpu_us,
                     c.decode_cpu_us}) {
    Canon(&s, " %llu", static_cast<unsigned long long>(v));
  }
  s += "\n";
  for (int p = 0; p < static_cast<int>(JobPhase::kCount); ++p) {
    const PhaseStats& ps = r.phases[p];
    if (!ps.active()) {
      continue;
    }
    Canon(&s, "phase %d %lld %lld cpu %lld %lld disk %llu tape %llu net %llu\n",
          p, static_cast<long long>(ps.start), static_cast<long long>(ps.end),
          static_cast<long long>(ps.cpu_busy_start),
          static_cast<long long>(ps.cpu_busy_end),
          static_cast<unsigned long long>(ps.disk_bytes),
          static_cast<unsigned long long>(ps.tape_bytes),
          static_cast<unsigned long long>(ps.net_bytes));
  }
  return s;
}

uint64_t Fnv64(const std::string& s) {
  uint64_t h = 14695981039346656037ull;
  for (unsigned char c : s) {
    h = (h ^ c) * 1099511628211ull;
  }
  return h;
}

// One seeded volume with local drives, a tape server across a clean link,
// and (for the content runs) chunk+dedup+crc over a shared ChunkIndex.
struct GoldenWorld {
  explicit GoldenWorld(bool with_content)
      : filer(&env, FilerModel::F630()),
        link(&env, "wan", LinkParams{}),
        server(&env, "vault") {
    volume = Volume::Create(&env, "home", GoldenGeometry());
    fs = std::move(Filesystem::Format(volume.get(), &env)).value();
    WorkloadParams params;
    params.seed = 1999;
    params.target_bytes = 2 * kMiB;
    params.quota_trees = 2;
    EXPECT_TRUE(PopulateFilesystem(fs.get(), params).ok());
    EXPECT_TRUE(fs->Mkdir("/golden", 0755).ok());
    Result<Inum> needle = fs->Create("/golden/needle.dat", 0644);
    EXPECT_TRUE(needle.ok());
    std::vector<uint8_t> data(5 * kBlockSize);
    Rng(3).Fill(data);
    EXPECT_TRUE(fs->Write(*needle, 0, data).ok());
    for (int i = 0; i < 2; ++i) {
      tapes.push_back(
          std::make_unique<Tape>("t" + std::to_string(i), 64 * kMiB));
      drives.push_back(
          std::make_unique<TapeDrive>(&env, "d" + std::to_string(i)));
      drives.back()->LoadMedia(tapes.back().get());
      tapes.push_back(
          std::make_unique<Tape>("v" + std::to_string(i), 64 * kMiB));
      server_drives.push_back(server.AddDrive("dlt" + std::to_string(i)));
      server_drives.back()->LoadMedia(tapes.back().get());
    }
    if (with_content) {
      content.chunk = true;
      content.dedup = true;
      content.crc = true;
      content.index = &index;
    }
  }

  RemoteTarget Target(const SupervisionPolicy* policy = nullptr) {
    RemoteTarget target;
    target.link = &link;
    target.server = &server;
    target.drive = server_drives[0];
    target.supervision = policy;
    target.content = content;
    return target;
  }

  std::vector<TapeDrive*> Drives() {
    return {drives[0].get(), drives[1].get()};
  }

  void Rewind() {
    for (auto& d : drives) {
      d->Rewind();
    }
    for (TapeDrive* d : server_drives) {
      EXPECT_TRUE(d->SeekTo(0).ok());
    }
  }

  Volume* FreshVolume() {
    spares.push_back(Volume::Create(
        &env, "r" + std::to_string(spares.size()), GoldenGeometry()));
    return spares.back().get();
  }

  std::unique_ptr<Filesystem> FreshFs() {
    return std::move(Filesystem::Format(FreshVolume(), &env)).value();
  }

  // Spawns one job, runs the simulation dry, and logs the clock and event
  // count it left behind.
  void Run(const std::function<Task(CountdownLatch*)>& job) {
    CountdownLatch done(&env, 1);
    env.Spawn(job(&done));
    env.Run();
    EXPECT_TRUE(done.done());
    Canon(&log, "run now %lld events %llu\n",
          static_cast<long long>(env.now()),
          static_cast<unsigned long long>(env.events_processed()));
  }

  void Record(const JobReport& r) { log += CanonReport(r); }

  SimEnvironment env;
  Filer filer;
  NetLink link;
  TapeServer server;
  std::unique_ptr<Volume> volume;
  std::unique_ptr<Filesystem> fs;
  std::vector<std::unique_ptr<Volume>> spares;
  std::vector<std::unique_ptr<Tape>> tapes;
  std::vector<std::unique_ptr<TapeDrive>> drives;
  std::vector<TapeDrive*> server_drives;
  ChunkIndex index;
  ContentConfig content;
  std::string log;
};

void GoldenLogicalBackup(GoldenWorld& w, LogicalBackupJobResult* r,
                         const SupervisionPolicy* policy = nullptr) {
  LogicalDumpOptions opt;
  opt.volume_name = "home";
  w.Run([&](CountdownLatch* done) {
    return LogicalBackupJob(&w.filer, w.fs.get(), w.drives[0].get(), opt, r,
                            done, {}, policy, {}, w.content);
  });
  w.Record(r->report);
  w.Rewind();
}

void GoldenRemoteLogicalBackup(GoldenWorld& w, LogicalBackupJobResult* r) {
  w.Run([&](CountdownLatch* done) {
    return RemoteLogicalBackupJob(&w.filer, w.fs.get(), w.Target(),
                                  LogicalDumpOptions{}, r, done);
  });
  w.Record(r->report);
  w.Rewind();
}

std::vector<std::string> GoldenSubtrees() {
  return {QuotaTreePath(0), QuotaTreePath(1)};
}

// Crash plan for the resumable cases: one kill a third into the file data.
CrashPlan GoldenKills(const TapeCatalog& catalog) {
  CrashPlan plan;
  plan.seed = 77;
  plan.KillAtOffset(catalog.directory_end() +
                    (catalog.stream_end() - catalog.directory_end()) / 3);
  return plan;
}

using GoldenCase = std::function<void(GoldenWorld&)>;

const std::map<std::string, GoldenCase>& GoldenCases() {
  static const auto* cases = new std::map<std::string, GoldenCase>{
      {"LogicalBackup",
       [](GoldenWorld& w) {
         LogicalBackupJobResult b;
         GoldenLogicalBackup(w, &b);
       }},
      {"LogicalRestore",
       [](GoldenWorld& w) {
         LogicalBackupJobResult b;
         GoldenLogicalBackup(w, &b);
         auto rfs = w.FreshFs();
         LogicalRestoreJobResult r;
         w.Run([&](CountdownLatch* done) {
           return LogicalRestoreJob(&w.filer, rfs.get(), w.drives[0].get(),
                                    LogicalRestoreOptions{}, false, &r, done,
                                    {}, nullptr, w.content);
         });
         w.Record(r.report);
       }},
      {"ResumableLogicalRestore",
       [](GoldenWorld& w) {
         LogicalBackupJobResult b;
         GoldenLogicalBackup(w, &b);
         TapeCatalog catalog = TapeCatalog::Load(b.dump.catalog_image).value();
         CrashInjector kills(GoldenKills(catalog));
         Volume* rvolume = w.FreshVolume();
         auto rfs = std::move(Filesystem::Format(rvolume, &w.env)).value();
         SupervisionPolicy policy;
         ResumableRestoreConfig cfg;
         cfg.catalog = &catalog;
         cfg.kill = &kills;
         cfg.checkpoint_every = 8;
         cfg.content = w.content;
         ResumableRestoreJobResult r;
         w.Run([&](CountdownLatch* done) {
           return ResumableLogicalRestoreJob(
               &w.filer, &rfs, rvolume, w.drives[0].get(),
               LogicalRestoreOptions{}, false, &policy, cfg, &r, done);
         });
         w.Record(r.report);
         Canon(&w.log, "attempts %u\n", r.attempts);
       }},
      {"ImageBackup",
       [](GoldenWorld& w) {
         ImageBackupJobResult b;
         w.Run([&](CountdownLatch* done) {
           return ImageBackupJob(&w.filer, w.fs.get(), w.drives[0].get(),
                                 ImageDumpOptions{}, true, &b, done, {},
                                 nullptr, {}, w.content);
         });
         w.Record(b.report);
       }},
      {"ImageRestore",
       [](GoldenWorld& w) {
         ImageBackupJobResult b;
         w.Run([&](CountdownLatch* done) {
           return ImageBackupJob(&w.filer, w.fs.get(), w.drives[0].get(),
                                 ImageDumpOptions{}, true, &b, done, {},
                                 nullptr, {}, w.content);
         });
         w.Record(b.report);
         w.Rewind();
         Volume* rvolume = w.FreshVolume();
         ImageRestoreJobResult r;
         w.Run([&](CountdownLatch* done) {
           return ImageRestoreJob(&w.filer, rvolume, w.drives[0].get(), &r,
                                  done, {}, nullptr, w.content);
         });
         w.Record(r.report);
       }},
      {"RemoteLogicalBackup",
       [](GoldenWorld& w) {
         LogicalBackupJobResult b;
         GoldenRemoteLogicalBackup(w, &b);
       }},
      {"RemoteLogicalRestore",
       [](GoldenWorld& w) {
         LogicalBackupJobResult b;
         GoldenRemoteLogicalBackup(w, &b);
         auto rfs = w.FreshFs();
         LogicalRestoreJobResult r;
         w.Run([&](CountdownLatch* done) {
           return RemoteLogicalRestoreJob(&w.filer, rfs.get(), w.Target(),
                                          LogicalRestoreOptions{}, true, &r,
                                          done);
         });
         w.Record(r.report);
       }},
      {"RemoteSingleFileRestore",
       [](GoldenWorld& w) {
         LogicalBackupJobResult b;
         GoldenRemoteLogicalBackup(w, &b);
         TapeCatalog catalog = TapeCatalog::Load(b.dump.catalog_image).value();
         auto rfs = w.FreshFs();
         LinkBudget budget(&w.link, 8 * kMiB);
         RemoteSingleFileRestoreResult r;
         w.Run([&](CountdownLatch* done) {
           return RemoteSingleFileRestoreJob(
               &w.filer, rfs.get(), w.Target(), &catalog,
               "/golden/needle.dat", LogicalRestoreOptions{}, false, &budget,
               &r, done);
         });
         w.Record(r.report);
         Canon(&w.log, "link %llu full %llu rejected %d consumed %llu\n",
               static_cast<unsigned long long>(r.link_bytes),
               static_cast<unsigned long long>(r.full_stream_bytes),
               static_cast<int>(r.budget_rejected),
               static_cast<unsigned long long>(budget.consumed()));
       }},
      {"RemoteImageBackup",
       [](GoldenWorld& w) {
         ImageBackupJobResult b;
         w.Run([&](CountdownLatch* done) {
           return RemoteImageBackupJob(&w.filer, w.fs.get(), w.Target(),
                                       ImageDumpOptions{}, true, &b, done);
         });
         w.Record(b.report);
       }},
      {"RemoteImageRestore",
       [](GoldenWorld& w) {
         ImageBackupJobResult b;
         w.Run([&](CountdownLatch* done) {
           return RemoteImageBackupJob(&w.filer, w.fs.get(), w.Target(),
                                       ImageDumpOptions{}, true, &b, done);
         });
         w.Record(b.report);
         w.Rewind();
         Volume* rvolume = w.FreshVolume();
         ImageRestoreJobResult r;
         w.Run([&](CountdownLatch* done) {
           return RemoteImageRestoreJob(&w.filer, rvolume, w.Target(), &r,
                                        done);
         });
         w.Record(r.report);
       }},
      {"ParallelRemoteImageBackup",
       [](GoldenWorld& w) {
         ParallelRemoteImageBackupResult b;
         w.Run([&](CountdownLatch* done) {
           return ParallelRemoteImageBackupJob(
               &w.filer, w.fs.get(), &w.link, &w.server, w.server_drives,
               ImageDumpOptions{}, true, nullptr, &b, done, {}, w.content);
         });
         w.Record(b.control);
         for (const auto& p : b.parts) {
           w.Record(p->report);
         }
         w.Record(b.merged);
       }},
      {"ParallelLogicalBackup",
       [](GoldenWorld& w) {
         ParallelLogicalBackupResult b;
         w.Run([&](CountdownLatch* done) {
           return ParallelLogicalBackupJob(
               &w.filer, w.fs.get(), w.Drives(), GoldenSubtrees(),
               LogicalDumpOptions{}, &b, done, nullptr, {}, {}, w.content);
         });
         w.Record(b.control);
         for (const auto& p : b.parts) {
           w.Record(p->report);
         }
         w.Record(b.merged);
       }},
      {"ParallelLogicalRestore",
       [](GoldenWorld& w) {
         ParallelLogicalBackupResult b;
         w.Run([&](CountdownLatch* done) {
           return ParallelLogicalBackupJob(
               &w.filer, w.fs.get(), w.Drives(), GoldenSubtrees(),
               LogicalDumpOptions{}, &b, done, nullptr, {}, {}, w.content);
         });
         w.Record(b.merged);
         w.Rewind();
         auto rfs = w.FreshFs();
         ParallelLogicalRestoreResult r;
         w.Run([&](CountdownLatch* done) {
           return ParallelLogicalRestoreJob(&w.filer, rfs.get(), w.Drives(),
                                            GoldenSubtrees(), false, &r, done,
                                            w.content);
         });
         for (const auto& p : r.parts) {
           w.Record(p->report);
         }
         w.Record(r.merged);
       }},
      {"ParallelImageBackup",
       [](GoldenWorld& w) {
         ParallelImageBackupResult b;
         w.Run([&](CountdownLatch* done) {
           return ParallelImageBackupJob(&w.filer, w.fs.get(), w.Drives(),
                                         ImageDumpOptions{}, true, &b, done,
                                         nullptr, {}, {}, w.content);
         });
         w.Record(b.control);
         for (const auto& p : b.parts) {
           w.Record(p->report);
         }
         w.Record(b.merged);
       }},
      {"ParallelImageRestore",
       [](GoldenWorld& w) {
         ParallelImageBackupResult b;
         w.Run([&](CountdownLatch* done) {
           return ParallelImageBackupJob(&w.filer, w.fs.get(), w.Drives(),
                                         ImageDumpOptions{}, true, &b, done,
                                         nullptr, {}, {}, w.content);
         });
         w.Record(b.merged);
         w.Rewind();
         Volume* rvolume = w.FreshVolume();
         ParallelImageRestoreResult r;
         w.Run([&](CountdownLatch* done) {
           return ParallelImageRestoreJob(&w.filer, rvolume, w.Drives(), &r,
                                          done, w.content);
         });
         for (const auto& p : r.parts) {
           w.Record(p->report);
         }
         w.Record(r.merged);
       }},
  };
  return *cases;
}

// Seeded fault runs (content off): the tape remount ladder, the tape read
// retry ladder of every reader, and the link reconnect ladder.
const std::map<std::string, GoldenCase>& GoldenFaultCases() {
  static const auto* cases = new std::map<std::string, GoldenCase>{
      {"TapeRemount",
       [](GoldenWorld& w) {
         Tape s0("s0", 64 * kMiB), s1("s1", 64 * kMiB);
         FaultPlan plan;
         plan.seed = 9;
         plan.TapeMediaDefect("t0", 256 * kKiB, 64 * kKiB);
         FaultInjector injector(&w.env, plan);
         injector.Arm(w.drives[0].get());
         SupervisionPolicy policy;
         LogicalBackupJobResult b;
         LogicalDumpOptions opt;
         w.Run([&](CountdownLatch* done) {
           return LogicalBackupJob(&w.filer, w.fs.get(), w.drives[0].get(),
                                   opt, &b, done, {&s0, &s1}, &policy);
         });
         w.Record(b.report);
         TapeDrive rdrive(&w.env, "rd");
         rdrive.LoadMedia(&s0);
         auto rfs = w.FreshFs();
         LogicalRestoreJobResult r;
         w.Run([&](CountdownLatch* done) {
           return LogicalRestoreJob(&w.filer, rfs.get(), &rdrive,
                                    LogicalRestoreOptions{}, false, &r, done,
                                    {}, &policy);
         });
         w.Record(r.report);
       }},
      {"TapeReadRetry",
       [](GoldenWorld& w) {
         LogicalBackupJobResult b;
         GoldenLogicalBackup(w, &b);
         FaultPlan plan;
         plan.seed = 7;
         plan.TapeFlaky("d0", 0.2);
         FaultInjector injector(&w.env, plan);
         injector.Arm(w.drives[0].get());
         SupervisionPolicy policy;
         auto rfs = w.FreshFs();
         LogicalRestoreJobResult r;
         w.Run([&](CountdownLatch* done) {
           return LogicalRestoreJob(&w.filer, rfs.get(), w.drives[0].get(),
                                    LogicalRestoreOptions{}, false, &r, done,
                                    {}, &policy);
         });
         w.Record(r.report);
         w.Rewind();
         TapeCatalog catalog = TapeCatalog::Load(b.dump.catalog_image).value();
         CrashInjector kills(GoldenKills(catalog));
         Volume* rvolume = w.FreshVolume();
         auto resumed = std::move(Filesystem::Format(rvolume, &w.env)).value();
         ResumableRestoreConfig cfg;
         cfg.catalog = &catalog;
         cfg.kill = &kills;
         cfg.checkpoint_every = 8;
         ResumableRestoreJobResult rr;
         w.Run([&](CountdownLatch* done) {
           return ResumableLogicalRestoreJob(
               &w.filer, &resumed, rvolume, w.drives[0].get(),
               LogicalRestoreOptions{}, false, &policy, cfg, &rr, done);
         });
         w.Record(rr.report);
       }},
      {"RemoteTapeReadRetry",
       [](GoldenWorld& w) {
         LogicalBackupJobResult b;
         GoldenRemoteLogicalBackup(w, &b);
         FaultPlan plan;
         plan.seed = 5;
         plan.TapeFlaky("vault.dlt0", 0.5);
         FaultInjector injector(&w.env, plan);
         injector.Arm(w.server_drives[0]);
         SupervisionPolicy policy;
         auto rfs = w.FreshFs();
         LogicalRestoreJobResult r;
         w.Run([&](CountdownLatch* done) {
           return RemoteLogicalRestoreJob(&w.filer, rfs.get(),
                                          w.Target(&policy),
                                          LogicalRestoreOptions{}, false, &r,
                                          done);
         });
         w.Record(r.report);
         TapeCatalog catalog = TapeCatalog::Load(b.dump.catalog_image).value();
         for (const SupervisionPolicy* p :
              std::vector<const SupervisionPolicy*>{&policy, nullptr}) {
           w.Rewind();
           auto sfs = w.FreshFs();
           RemoteSingleFileRestoreResult s;
           w.Run([&](CountdownLatch* done) {
             return RemoteSingleFileRestoreJob(
                 &w.filer, sfs.get(), w.Target(p), &catalog,
                 "/golden/needle.dat", LogicalRestoreOptions{}, false,
                 nullptr, &s, done);
           });
           w.Record(s.report);
         }
       }},
      {"LinkReconnect",
       [](GoldenWorld& w) {
         FaultPlan plan;
         plan.seed = 11;
         plan.LinkDown("wan", 30 * kSecond, 33 * kSecond);
         FaultInjector injector(&w.env, plan);
         injector.Arm(&w.link);
         SupervisionPolicy policy;
         ImageBackupJobResult b;
         w.Run([&](CountdownLatch* done) {
           return RemoteImageBackupJob(&w.filer, w.fs.get(),
                                       w.Target(&policy), ImageDumpOptions{},
                                       true, &b, done);
         });
         w.Record(b.report);
         w.Rewind();
         Volume* rvolume = w.FreshVolume();
         ImageRestoreJobResult r;
         w.Run([&](CountdownLatch* done) {
           return RemoteImageRestoreJob(&w.filer, rvolume, w.Target(&policy),
                                        &r, done);
         });
         w.Record(r.report);
       }},
  };
  return *cases;
}

// Digests recorded before the job bodies were shared. Keys are
// "<case>/<plain|content|fault>".
const std::map<std::string, std::string>& GoldenDigests() {
  static const auto* digests = new std::map<std::string, std::string>{
      {"ImageBackup/content", "89f13e32f945e9bd"},
      {"ImageBackup/plain", "972e3f7fcbb09b3e"},
      {"ImageRestore/content", "98af2c176dc790ce"},
      {"ImageRestore/plain", "502da21c6e306b27"},
      {"LinkReconnect/fault", "192ffccce83b57a9"},
      {"LogicalBackup/content", "7e75652c755117f7"},
      {"LogicalBackup/plain", "d6c82d6b7460c10a"},
      {"LogicalRestore/content", "c25017985b0d4634"},
      {"LogicalRestore/plain", "22c766bc45f949d0"},
      {"ParallelImageBackup/content", "1304257d710c3a2c"},
      {"ParallelImageBackup/plain", "f117ede291c63661"},
      {"ParallelImageRestore/content", "a5977a55c38122ce"},
      {"ParallelImageRestore/plain", "f338952f72f47a5b"},
      {"ParallelLogicalBackup/content", "440982c3779653ea"},
      {"ParallelLogicalBackup/plain", "27e8242e5b426eb1"},
      {"ParallelLogicalRestore/content", "ff2214aabcf50db0"},
      {"ParallelLogicalRestore/plain", "1962d0c0545627c7"},
      {"ParallelRemoteImageBackup/content", "a8a570827edff385"},
      {"ParallelRemoteImageBackup/plain", "d2b0b7a33cf50f21"},
      {"RemoteImageBackup/content", "a7f37c91c815aaec"},
      {"RemoteImageBackup/plain", "4c9e799d33dfdba6"},
      {"RemoteImageRestore/content", "20a213eda27a6463"},
      {"RemoteImageRestore/plain", "4a893ca4e185f59a"},
      {"RemoteLogicalBackup/content", "406423540f4a94cc"},
      {"RemoteLogicalBackup/plain", "048ef1b69dba94d4"},
      {"RemoteLogicalRestore/content", "c6055962cda231ff"},
      {"RemoteLogicalRestore/plain", "b75ab2be6033387e"},
      {"RemoteSingleFileRestore/content", "2e63202c26738e00"},
      {"RemoteSingleFileRestore/plain", "80715776b4443126"},
      {"RemoteTapeReadRetry/fault", "875319ff50f78376"},
      {"ResumableLogicalRestore/content", "89f3fb64a76ec18c"},
      {"ResumableLogicalRestore/plain", "f8ae510f585cb09b"},
      {"TapeReadRetry/fault", "6013f2f8b1863389"},
      {"TapeRemount/fault", "eaa23ae05897330d"},
  };
  return *digests;
}

class JobMatrixGoldenTest : public ::testing::TestWithParam<std::string> {};

TEST_P(JobMatrixGoldenTest, ReportsMatchRecordedDigest) {
  const std::string key = GetParam();
  const std::string name = key.substr(0, key.find('/'));
  const std::string mode = key.substr(key.find('/') + 1);
  GoldenWorld w(mode == "content");
  const auto& cases = mode == "fault" ? GoldenFaultCases() : GoldenCases();
  cases.at(name)(w);
  char hex[17];
  std::snprintf(hex, sizeof(hex), "%016llx",
                static_cast<unsigned long long>(Fnv64(w.log)));
  const auto it = GoldenDigests().find(key);
  const std::string expected = it == GoldenDigests().end() ? "" : it->second;
  EXPECT_EQ(hex, expected) << "canonical reports of " << key << ":\n"
                           << w.log;
}

std::vector<std::string> GoldenKeys() {
  std::vector<std::string> keys;
  for (const auto& [name, _] : GoldenCases()) {
    keys.push_back(name + "/plain");
    keys.push_back(name + "/content");
  }
  for (const auto& [name, _] : GoldenFaultCases()) {
    keys.push_back(name + "/fault");
  }
  return keys;
}

INSTANTIATE_TEST_SUITE_P(
    Matrix, JobMatrixGoldenTest, ::testing::ValuesIn(GoldenKeys()),
    [](const ::testing::TestParamInfo<std::string>& param) {
      std::string id = param.param;
      id[id.find('/')] = '_';
      return id;
    });

}  // namespace
}  // namespace bkup
