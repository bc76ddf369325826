// Chaos soak for crash-resumable recovery: restores are killed at seeded
// random points (by applied-entry count, by stream offset, by per-record
// coin flip, singly and in multi-kill chains), the target "reboots" from
// its last consistency point, and the catalog-driven resume must
//
//   (a) converge on a byte-identical tree for every workload x kill point,
//   (b) replay strictly fewer bytes than a from-scratch re-run (bounded
//       replay: the consumed ranges are the prologue + missing suffix only),
//   (c) behave deterministically — the same seed produces the same kills,
//       the same attempt count, the same ranges, the same bytes.
//
// `BKUP_RECOVERY_SEED_OFFSET` shifts the whole seed block so
// tools/seed_sweep.py can soak fresh workloads without a recompile. One
// block is 8 workloads x 8 kill plans = 64 kill-point runs (each run twice
// for the determinism check), plus the supervised-job and remote
// single-file scenarios.
#include <gtest/gtest.h>

#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <map>
#include <memory>
#include <sstream>
#include <string>
#include <vector>

#include "src/backup/jobs.h"
#include "src/backup/remote.h"
#include "src/backup/supervisor.h"
#include "src/dump/catalog.h"
#include "src/dump/logical_dump.h"
#include "src/dump/logical_restore.h"
#include "src/dump/verify.h"
#include "src/content/content.h"
#include "src/faults/crash.h"
#include "src/faults/fault_injector.h"
#include "src/fs/filesystem.h"
#include "src/net/link.h"
#include "src/net/tape_server.h"
#include "src/obs/flight_recorder.h"
#include "src/obs/json.h"
#include "src/obs/trace.h"
#include "src/util/checksum.h"
#include "src/workload/population.h"

namespace bkup {
namespace {

constexpr int kWorkloadSeeds = 8;
constexpr int kKillPlansPerSeed = 8;

uint64_t SeedOffset() {
  const char* env = std::getenv("BKUP_RECOVERY_SEED_OFFSET");
  return env != nullptr ? std::strtoull(env, nullptr, 10) : 0;
}

VolumeGeometry Geometry() {
  VolumeGeometry geom;
  geom.num_raid_groups = 1;
  geom.disks_per_group = 4;
  geom.blocks_per_disk = 2048;
  return geom;
}

// One seeded workload, dumped once; every kill plan for the seed restores
// the same stream with the same catalog.
struct DumpedWorkload {
  explicit DumpedWorkload(uint64_t seed) {
    src_volume = Volume::Create(&env, "src", Geometry());
    src = std::move(Filesystem::Format(src_volume.get(), &env)).value();
    WorkloadParams params;
    params.seed = seed;
    params.target_bytes = 3 * kMiB;
    EXPECT_TRUE(PopulateFilesystem(src.get(), params).ok());
    // Advance time so restore-created inodes get mtimes that cannot collide
    // with the dumped ones (the resume diff depends on that mismatch).
    env.Spawn([](SimEnvironment* e) -> Task { co_await e->Delay(kSecond); }(
        &env));
    env.Run();

    EXPECT_TRUE(src->CreateSnapshot("snap").ok());
    auto reader = src->SnapshotReader("snap").value();
    LogicalDumpOptions opt;
    opt.volume_name = "src";
    opt.dump_time = env.now();
    auto out = RunLogicalDump(reader, opt);
    EXPECT_TRUE(out.ok()) << out.status().ToString();
    dump = std::move(out).value();
    EXPECT_TRUE(src->DeleteSnapshot("snap").ok());

    auto loaded = TapeCatalog::Load(dump.catalog_image);
    EXPECT_TRUE(loaded.ok()) << loaded.status().ToString();
    catalog = std::move(loaded).value();
    source_sums = ChecksumTree(src->LiveReader()).value();
  }

  SimEnvironment env;
  std::unique_ptr<Volume> src_volume;
  std::unique_ptr<Filesystem> src;
  LogicalDumpOutput dump;
  TapeCatalog catalog;
  std::map<std::string, uint32_t> source_sums;
};

// What one kill-and-resume sequence did, compared across reruns for the
// determinism property.
struct ChaosOutcome {
  bool converged = false;
  uint32_t attempts = 0;
  uint64_t total_bytes_replayed = 0;   // across every incarnation
  uint64_t final_bytes_replayed = 0;   // the attempt that completed
  uint64_t final_bytes_skipped = 0;
  uint32_t files_already_complete = 0;
  std::vector<StreamRange> final_ranges;
  std::map<std::string, uint32_t> sums;
};

// Runs restore attempts against a fresh target until one completes,
// remounting the volume (crash-reboot) after every kill.
ChaosOutcome RunChaos(DumpedWorkload* w, const CrashPlan& plan,
                      uint32_t checkpoint_every, const std::string& tag) {
  ChaosOutcome out;
  auto volume = Volume::Create(&w->env, "chaos-" + tag, Geometry());
  auto fs = std::move(Filesystem::Format(volume.get(), &w->env)).value();
  CrashInjector injector(plan);
  LogicalRestoreOptions opt;
  opt.catalog = &w->catalog;
  opt.checkpoint_every = checkpoint_every;
  opt.kill = &injector;
  constexpr uint32_t kMaxAttempts = 10;
  for (uint32_t attempt = 0; attempt < kMaxAttempts; ++attempt) {
    opt.resume = attempt > 0;
    auto res = RunLogicalRestore(fs.get(), w->dump.stream, opt);
    if (!res.ok()) {
      ADD_FAILURE() << tag << ": attempt " << attempt << " failed: "
                    << res.status().ToString();
      return out;
    }
    ++out.attempts;
    out.total_bytes_replayed += res->stats.bytes_replayed;
    if (!res->interrupted) {
      out.converged = true;
      out.final_bytes_replayed = res->stats.bytes_replayed;
      out.final_bytes_skipped = res->stats.bytes_skipped;
      out.files_already_complete = res->stats.files_already_complete;
      out.final_ranges = res->consumed_ranges;
      break;
    }
    // Crash-reboot: drop the in-memory state, remount the last CP.
    fs.reset();
    auto mounted = Filesystem::Mount(volume.get(), &w->env);
    if (!mounted.ok()) {
      ADD_FAILURE() << tag << ": remount failed: "
                    << mounted.status().ToString();
      return out;
    }
    fs = std::move(*mounted);
  }
  if (out.converged) {
    out.sums = ChecksumTree(fs->LiveReader()).value();
  }
  return out;
}

// A kill plan for slot `k` of a seed block: a deterministic mix of offset
// kills, entry kills, coin-flip kills and multi-kill chains.
CrashPlan PlanFor(uint64_t seed, int k, uint64_t dir_end,
                  uint64_t stream_end) {
  CrashPlan plan;
  plan.seed = seed * 100 + static_cast<uint64_t>(k);
  const uint64_t files_span = stream_end - dir_end;
  switch (k % 4) {
    case 0:  // die at a fixed point of the file section
      plan.KillAtOffset(dir_end + files_span * (k + 1) /
                        (kKillPlansPerSeed + 1));
      break;
    case 1:  // die after a fixed number of applied records
      plan.KillAtEntry(5 + static_cast<uint64_t>(k) * 11);
      break;
    case 2:  // die on a per-record coin flip inside the file phase
      plan.KillRandomIn(RestorePhase::kFiles, 0.02);
      break;
    default:  // die three times: twice mid-files, once at random
      plan.KillAtOffset(dir_end + files_span / 4)
          .KillAtOffset(dir_end + files_span / 2)
          .KillRandom(0.01);
      break;
  }
  return plan;
}

TEST(RecoveryChaosTest, KilledRestoresConvergeEverywhere) {
  const uint64_t offset = SeedOffset();
  int runs = 0, killed_runs = 0, resumed_with_skips = 0;
  for (int s = 0; s < kWorkloadSeeds; ++s) {
    const uint64_t seed = 1000 * (offset + 1) + static_cast<uint64_t>(s);
    DumpedWorkload w(seed);
    ASSERT_FALSE(w.catalog.empty());
    const uint64_t dir_end = w.catalog.directory_end();
    const uint64_t stream_end = w.catalog.stream_end();
    ASSERT_LT(dir_end, stream_end);

    // Baseline: an uninterrupted from-scratch restore of the same stream.
    CrashPlan no_kills;
    ChaosOutcome baseline =
        RunChaos(&w, no_kills, 0, "base-" + std::to_string(s));
    ASSERT_TRUE(baseline.converged);
    ASSERT_EQ(baseline.attempts, 1u);
    ASSERT_EQ(baseline.sums, w.source_sums) << "seed " << seed;
    const uint64_t full_bytes = baseline.final_bytes_replayed;

    for (int k = 0; k < kKillPlansPerSeed; ++k) {
      const CrashPlan plan = PlanFor(seed, k, dir_end, stream_end);
      const uint32_t cp_every = 1 + static_cast<uint32_t>(k % 4) * 3;
      const std::string tag =
          std::to_string(s) + "." + std::to_string(k);
      ChaosOutcome a = RunChaos(&w, plan, cp_every, tag + "a");
      ++runs;
      ASSERT_TRUE(a.converged) << tag;
      EXPECT_EQ(a.sums, w.source_sums)
          << tag << ": resumed tree differs from the source";
      if (a.attempts > 1) {
        ++killed_runs;
        // Bounded replay: the completing attempt moved strictly fewer bytes
        // than a from-scratch run would have. A kill that fired before the
        // first file became durable legitimately resumes from zero complete
        // files, so the skip assertions apply only once the diff kept
        // something.
        EXPECT_LT(a.final_bytes_replayed, full_bytes) << tag;
        if (a.files_already_complete > 0) {
          ++resumed_with_skips;
          EXPECT_GT(a.final_bytes_skipped, 0u) << tag;
          EXPECT_LT(a.final_bytes_replayed + a.final_bytes_skipped,
                    full_bytes + w.dump.stream.size())
              << tag << ": skip accounting ran past the stream";
        }
      }

      // Determinism: the same plan over the same stream runs the same way.
      ChaosOutcome b = RunChaos(&w, plan, cp_every, tag + "b");
      EXPECT_EQ(a.attempts, b.attempts) << tag;
      EXPECT_EQ(a.total_bytes_replayed, b.total_bytes_replayed) << tag;
      EXPECT_EQ(a.final_bytes_replayed, b.final_bytes_replayed) << tag;
      EXPECT_EQ(a.final_ranges, b.final_ranges) << tag;
      EXPECT_EQ(a.sums, b.sums) << tag;
    }
  }
  EXPECT_EQ(runs, kWorkloadSeeds * kKillPlansPerSeed);
  // The soak is vacuous if the kill plans rarely fire or if resumes never
  // actually fast-forward past durable work.
  EXPECT_GE(killed_runs, runs * 3 / 4)
      << "most kill plans must actually interrupt a run";
  EXPECT_GE(resumed_with_skips, killed_runs / 2)
      << "most resumes must skip already-complete files";
}

// The timed-world twin: a supervised ResumableLogicalRestoreJob takes two
// kills, restarts on the supervisor's backoff schedule, replays only the
// missing suffix off the tape, and reports the resume accounting in its
// JSON job report.
TEST(RecoveryChaosTest, SupervisedResumableJobSurvivesKills) {
  DumpedWorkload w(4242 + SeedOffset());
  Filer filer(&w.env, FilerModel::F630());
  Tape media("night.0", 32 * kMiB);
  TapeDrive drive(&w.env, "dlt0");
  drive.LoadMedia(&media);
  SupervisionPolicy policy;

  LogicalBackupJobResult backup;
  CountdownLatch done(&w.env, 1);
  w.env.Spawn(LogicalBackupJob(&filer, w.src.get(), &drive,
                               LogicalDumpOptions{}, &backup, &done, {},
                               &policy));
  w.env.Run();
  ASSERT_TRUE(backup.report.status.ok()) << backup.report.status.ToString();
  auto catalog = TapeCatalog::Load(backup.dump.catalog_image);
  ASSERT_TRUE(catalog.ok()) << catalog.status().ToString();

  const uint64_t dir_end = catalog->directory_end();
  const uint64_t stream_end = catalog->stream_end();
  CrashPlan plan;
  plan.seed = 77;
  plan.KillAtOffset(dir_end + (stream_end - dir_end) / 3)
      .KillAtOffset(dir_end + 2 * (stream_end - dir_end) / 3);
  CrashInjector injector(plan);

  auto volume = Volume::Create(&w.env, "r", Geometry());
  auto fs = std::move(Filesystem::Format(volume.get(), &w.env)).value();
  ResumableRestoreConfig cfg;
  cfg.catalog = &*catalog;
  cfg.kill = &injector;
  cfg.checkpoint_every = 8;
  ResumableRestoreJobResult result;
  CountdownLatch rdone(&w.env, 1);
  w.env.Spawn(ResumableLogicalRestoreJob(&filer, &fs, volume.get(), &drive,
                                         LogicalRestoreOptions{}, false,
                                         &policy, cfg, &result, &rdone));
  w.env.Run();

  ASSERT_TRUE(result.report.status.ok()) << result.report.status.ToString();
  EXPECT_EQ(result.attempts, 3u) << "two kills = three incarnations";
  EXPECT_FALSE(result.restore.interrupted);
  EXPECT_EQ(result.report.resume.resumes, 2u);
  EXPECT_GT(result.report.resume.bytes_skipped, 0u);
  EXPECT_GT(result.report.resume.checkpoints, 0u);
  EXPECT_EQ(ChecksumTree(fs->LiveReader()).value(), w.source_sums);

  JsonWriter jw;
  result.report.WriteJson(&jw);
  auto parsed = ParseJson(jw.Take());
  ASSERT_TRUE(parsed.ok()) << parsed.status().ToString();
  EXPECT_EQ((*parsed)["resume"]["resumes"].int_value(), 2);
  EXPECT_GT((*parsed)["resume"]["bytes_skipped"].int_value(), 0);
}

// Black-box forensics: the same two-kill supervised restore, run with a
// flight recorder attached, must leave a `flightrec_restore_resume_*.json`
// whose crash events sit at the planned kill points and whose
// `state.resumable_restore` block mirrors JobReport.resume exactly.
TEST(RecoveryChaosTest, ChaosKillLeavesMatchingFlightRecord) {
  DumpedWorkload w(4242 + SeedOffset());
  Filer filer(&w.env, FilerModel::F630());
  Tape media("night.0", 32 * kMiB);
  TapeDrive drive(&w.env, "dlt0");
  drive.LoadMedia(&media);
  SupervisionPolicy policy;

  LogicalBackupJobResult backup;
  CountdownLatch done(&w.env, 1);
  w.env.Spawn(LogicalBackupJob(&filer, w.src.get(), &drive,
                               LogicalDumpOptions{}, &backup, &done, {},
                               &policy));
  w.env.Run();
  ASSERT_TRUE(backup.report.status.ok()) << backup.report.status.ToString();
  auto catalog = TapeCatalog::Load(backup.dump.catalog_image);
  ASSERT_TRUE(catalog.ok()) << catalog.status().ToString();

  const uint64_t dir_end = catalog->directory_end();
  const uint64_t stream_end = catalog->stream_end();
  const uint64_t kill1 = dir_end + (stream_end - dir_end) / 3;
  const uint64_t kill2 = dir_end + 2 * (stream_end - dir_end) / 3;
  CrashPlan plan;
  plan.seed = 77;
  plan.KillAtOffset(kill1).KillAtOffset(kill2);
  CrashInjector injector(plan);

  // Attached only for the restore: the fault ring should hold nothing but
  // the two chaos kills. The tracer gives the black box a trace tail that
  // includes the "restore.kill" instants.
  const std::string dir = ::testing::TempDir() + "chaos_flightrec";
  ASSERT_EQ(std::system(("mkdir -p " + dir).c_str()), 0);
  FlightRecorder recorder(&w.env, dir);
  Tracer tracer(&w.env);

  auto volume = Volume::Create(&w.env, "r", Geometry());
  auto fs = std::move(Filesystem::Format(volume.get(), &w.env)).value();
  ResumableRestoreConfig cfg;
  cfg.catalog = &*catalog;
  cfg.kill = &injector;
  cfg.checkpoint_every = 8;
  ResumableRestoreJobResult result;
  CountdownLatch rdone(&w.env, 1);
  w.env.Spawn(ResumableLogicalRestoreJob(&filer, &fs, volume.get(), &drive,
                                         LogicalRestoreOptions{}, false,
                                         &policy, cfg, &result, &rdone));
  w.env.Run();
  ASSERT_TRUE(result.report.status.ok()) << result.report.status.ToString();
  ASSERT_EQ(result.attempts, 3u);
  ASSERT_EQ(result.report.resume.resumes, 2u);

  ASSERT_EQ(recorder.dumps_written(), 1u);
  EXPECT_EQ(recorder.last_path(), dir + "/flightrec_restore_resume_0.json");
  std::ifstream in(recorder.last_path());
  std::ostringstream text;
  text << in.rdbuf();
  auto parsed = ParseJson(text.str());
  ASSERT_TRUE(parsed.ok()) << parsed.status().ToString();
  const JsonValue& doc = *parsed;
  EXPECT_EQ(doc["reason"].string_value(), "restore_resume");

  // Two crash events, labeled with consecutive incarnations, each at or
  // just past its planned kill offset (kills land on record granularity).
  const auto& events = doc["faults"]["events"].array();
  std::vector<uint64_t> kill_offsets;
  for (const JsonValue& e : events) {
    ASSERT_EQ(e["kind"].string_value(), "crash");
    unsigned long long offset = 0;
    unsigned incarnation = 0;
    ASSERT_EQ(std::sscanf(e["detail"].string_value().c_str(),
                          "kill at offset %llu, incarnation %u", &offset,
                          &incarnation),
              2)
        << e["detail"].string_value();
    EXPECT_EQ(incarnation, kill_offsets.size());
    kill_offsets.push_back(offset);
  }
  ASSERT_EQ(kill_offsets.size(), 2u);
  EXPECT_GE(kill_offsets[0], kill1);
  EXPECT_LT(kill_offsets[0], kill2);
  EXPECT_GE(kill_offsets[1], kill2);
  EXPECT_LE(kill_offsets[1], stream_end);

  // The live-state block is the JobReport.resume accounting, verbatim.
  const JsonValue& state = doc["state"]["resumable_restore"];
  EXPECT_EQ(state["attempts"].int_value(), 3);
  EXPECT_EQ(state["resumes"].int_value(), 2);
  EXPECT_EQ(static_cast<uint64_t>(state["bytes_replayed"].int_value()),
            result.report.resume.bytes_replayed);
  EXPECT_EQ(static_cast<uint64_t>(state["bytes_skipped"].int_value()),
            result.report.resume.bytes_skipped);
  EXPECT_EQ(static_cast<uint64_t>(state["entries_skipped"].int_value()),
            result.report.resume.entries_skipped);
  EXPECT_EQ(static_cast<uint64_t>(state["checkpoints"].int_value()),
            result.report.resume.checkpoints);
  EXPECT_TRUE(state["status_ok"].bool_value());

  // The black box carries the trace ring's tail: the last moments of the
  // final (successful) incarnation, every event on the restore job's track.
  ASSERT_TRUE(doc["trace"]["attached"].bool_value());
  const auto& tail = doc["trace"]["tail"].array();
  ASSERT_FALSE(tail.empty());
  for (const JsonValue& e : tail) {
    EXPECT_EQ(e["track"].string_value().rfind("job:", 0), 0u)
        << e["track"].string_value();
  }
}

// Catalog-driven remote single-file restore: one file off the vault costs
// O(file) link bytes, not O(stream), and the LinkBudget can veto the
// transfer before anything moves.
TEST(RecoveryChaosTest, RemoteSingleFileRestoreCostsOFile) {
  SimEnvironment env;
  NetLink link(&env, "wan", LinkParams{});
  TapeServer server(&env, "vault");
  TapeDrive* drive = server.AddDrive("dlt0");
  Tape media("vault.0", 32 * kMiB);
  drive->LoadMedia(&media);
  Filer filer(&env, FilerModel::F630());

  auto src_volume = Volume::Create(&env, "src", Geometry());
  auto src = std::move(Filesystem::Format(src_volume.get(), &env)).value();
  WorkloadParams params;
  params.seed = 11 + SeedOffset();
  params.target_bytes = 3 * kMiB;
  ASSERT_TRUE(PopulateFilesystem(src.get(), params).ok());
  // A known needle to fish back out.
  ASSERT_TRUE(src->Mkdir("/known", 0755).ok());
  auto needle = src->Create("/known/needle.dat", 0644);
  ASSERT_TRUE(needle.ok());
  Rng rng(3);
  std::vector<uint8_t> needle_data(5 * kBlockSize);
  rng.Fill(needle_data);
  ASSERT_TRUE(src->Write(*needle, 0, needle_data).ok());

  RemoteTarget target;
  target.link = &link;
  target.server = &server;
  target.drive = drive;

  LogicalBackupJobResult backup;
  CountdownLatch done(&env, 1);
  env.Spawn(RemoteLogicalBackupJob(&filer, src.get(), target,
                                   LogicalDumpOptions{}, &backup, &done));
  env.Run();
  ASSERT_TRUE(backup.report.status.ok()) << backup.report.status.ToString();
  EXPECT_TRUE(backup.dump.stream.empty()) << "the tape keeps the stream";
  ASSERT_EQ(media.contents().size(), backup.report.stream_bytes);
  auto verified = VerifyDumpStream(media.contents());
  ASSERT_TRUE(verified.ok()) << verified.status().ToString();
  EXPECT_EQ(verified->corrupt_records + verified->data_crc_errors, 0u)
      << "tape image must be the dump stream byte for byte";
  auto catalog = TapeCatalog::Load(backup.dump.catalog_image);
  ASSERT_TRUE(catalog.ok()) << catalog.status().ToString();

  // A budget too small for even the ranged reads refuses up front.
  auto tiny_volume = Volume::Create(&env, "tiny", Geometry());
  auto tiny_fs =
      std::move(Filesystem::Format(tiny_volume.get(), &env)).value();
  LinkBudget tiny_budget(&link, 2 * kDumpRecordSize);
  RemoteSingleFileRestoreResult rejected;
  CountdownLatch tiny_done(&env, 1);
  env.Spawn(RemoteSingleFileRestoreJob(&filer, tiny_fs.get(), target,
                                       &*catalog, "/known/needle.dat",
                                       LogicalRestoreOptions{}, false,
                                       &tiny_budget, &rejected, &tiny_done));
  env.Run();
  EXPECT_TRUE(rejected.budget_rejected);
  EXPECT_FALSE(rejected.report.status.ok());
  EXPECT_EQ(tiny_budget.consumed(), 0u);

  // With a real allowance the file comes back for O(file) link bytes.
  auto rvolume = Volume::Create(&env, "r", Geometry());
  auto rfs = std::move(Filesystem::Format(rvolume.get(), &env)).value();
  LinkBudget budget(&link, 8 * kMiB);
  RemoteSingleFileRestoreResult result;
  CountdownLatch rdone(&env, 1);
  env.Spawn(RemoteSingleFileRestoreJob(&filer, rfs.get(), target, &*catalog,
                                       "/known/needle.dat",
                                       LogicalRestoreOptions{}, false,
                                       &budget, &result, &rdone));
  env.Run();
  ASSERT_TRUE(result.report.status.ok()) << result.report.status.ToString();
  EXPECT_FALSE(result.budget_rejected);
  EXPECT_EQ(result.restore.stats.files_restored, 1u);
  EXPECT_GT(result.link_bytes, 0u);
  EXPECT_EQ(result.full_stream_bytes, backup.report.stream_bytes);
  EXPECT_LT(result.link_bytes, result.full_stream_bytes / 10)
      << "one file must cost well under a tenth of the stream";
  EXPECT_EQ(budget.consumed(), result.link_bytes);

  auto got = rfs->LookupPath("/known/needle.dat");
  ASSERT_TRUE(got.ok());
  std::vector<uint8_t> got_data;
  ASSERT_TRUE(
      rfs->Read(*got, 0, needle_data.size() + 16, &got_data).ok());
  ASSERT_EQ(got_data.size(), needle_data.size());
  EXPECT_EQ(Crc32c(got_data), Crc32c(needle_data));
}

// ----------------------------------------- kills inside an active pipeline

// One compressed+dedup'd remote dump, optionally through a mid-stream link
// outage, then a remote restore of the wire media with the same ChunkIndex.
struct ContentOutageRun {
  Status backup_status;
  Status restore_status;
  FaultCounters faults;
  ContentStats content;
  uint64_t raw_stream_bytes = 0;
  uint64_t media_bytes = 0;
  uint32_t media_crc = 0;
  bool restored_identical = false;
};

ContentOutageRun RunCompressedRemoteDump(bool outage) {
  SimEnvironment env;
  NetLink link(&env, "wan", LinkParams{});
  TapeServer server(&env, "vault");
  TapeDrive* drive = server.AddDrive("dlt0");
  Tape media("night.0", 32 * kMiB);
  drive->LoadMedia(&media);
  Filer filer(&env, FilerModel::F630());

  auto volume = Volume::Create(&env, "src", Geometry());
  auto fs = std::move(Filesystem::Format(volume.get(), &env)).value();
  WorkloadParams params;
  params.seed = 808 + SeedOffset();
  params.target_bytes = 3 * kMiB;
  EXPECT_TRUE(PopulateFilesystem(fs.get(), params).ok());
  const auto source_sums = ChecksumTree(fs->LiveReader()).value();

  ChunkIndex index;
  ContentConfig content;
  content.chunk = content.dedup = content.compress = content.crc = true;
  content.index = &index;

  SupervisionPolicy policy;
  RemoteTarget target;
  target.link = &link;
  target.server = &server;
  target.drive = drive;
  target.supervision = &policy;
  target.content = content;

  // Cable pull over the start of the streaming phase (after the 30 s
  // snapshot quiesce), long enough to exhaust every frame's retransmit
  // budget: the session dies mid-pipeline and the supervisor reconnects,
  // resuming the *wire* stream from the receiver's acked floor.
  FaultPlan plan;
  plan.seed = 11;
  plan.LinkDown("wan", 30 * kSecond, 33 * kSecond);
  FaultInjector injector(&env, plan);
  if (outage) {
    injector.Arm(&link);
  }

  ContentOutageRun run;
  LogicalBackupJobResult backup;
  CountdownLatch done(&env, 1);
  env.Spawn(RemoteLogicalBackupJob(&filer, fs.get(), target,
                                   LogicalDumpOptions{}, &backup, &done));
  env.Run();
  run.backup_status = backup.report.status;
  if (!run.backup_status.ok()) {
    return run;
  }
  run.faults = backup.report.faults;
  run.content = backup.report.content;
  run.raw_stream_bytes = backup.report.stream_bytes;
  run.media_bytes = media.contents().size();
  run.media_crc = Crc32c(media.contents());

  if (!drive->SeekTo(0).ok()) {
    run.restore_status = IoError("rewind failed");
    return run;
  }
  auto rvolume = Volume::Create(&env, "r", Geometry());
  auto rfs = std::move(Filesystem::Format(rvolume.get(), &env)).value();
  LogicalRestoreJobResult restore;
  CountdownLatch rdone(&env, 1);
  env.Spawn(RemoteLogicalRestoreJob(&filer, rfs.get(), target,
                                    LogicalRestoreOptions{}, false, &restore,
                                    &rdone));
  env.Run();
  run.restore_status = restore.report.status;
  if (run.restore_status.ok()) {
    run.restored_identical =
        ChecksumTree(rfs->LiveReader()).value() == source_sums;
  }
  return run;
}

// A link outage that kills the session mid-pipeline must not change what
// the stages produced or charged: the reconnect resends already-encoded
// wire bytes from the session buffer, so the outage run pays the same
// encode CPU, ships the same wire image, and restores byte-identically.
TEST(RecoveryChaosTest, CompressedRemoteDumpOutageNeverDoubleChargesEncode) {
  const ContentOutageRun clean = RunCompressedRemoteDump(/*outage=*/false);
  ASSERT_TRUE(clean.backup_status.ok()) << clean.backup_status.ToString();
  ASSERT_TRUE(clean.restore_status.ok()) << clean.restore_status.ToString();
  EXPECT_EQ(clean.faults.link_reconnects, 0u);
  EXPECT_TRUE(clean.restored_identical);
  EXPECT_GT(clean.content.encode_cpu_us, 0u);
  EXPECT_LT(clean.media_bytes, clean.raw_stream_bytes)
      << "the tape must hold the (smaller) wire image, not raw bytes";
  EXPECT_EQ(clean.media_bytes, clean.content.wire_bytes);

  const ContentOutageRun hurt = RunCompressedRemoteDump(/*outage=*/true);
  ASSERT_TRUE(hurt.backup_status.ok()) << hurt.backup_status.ToString();
  ASSERT_TRUE(hurt.restore_status.ok()) << hurt.restore_status.ToString();
  EXPECT_GE(hurt.faults.link_reconnects, 1u) << "the outage must kill a conn";
  EXPECT_GT(hurt.faults.link_bytes_resent, 0u);
  EXPECT_TRUE(hurt.restored_identical)
      << "restore after mid-pipeline kill must be byte-identical";

  // The property under test: resending wire bytes is not re-encoding.
  EXPECT_EQ(hurt.content.encode_cpu_us, clean.content.encode_cpu_us)
      << "reconnect resend must not re-charge stage CPU";
  EXPECT_EQ(hurt.content.raw_bytes, clean.content.raw_bytes);
  EXPECT_EQ(hurt.content.wire_bytes, clean.content.wire_bytes);
  EXPECT_EQ(hurt.content.dedup_hits, clean.content.dedup_hits);
  EXPECT_EQ(hurt.media_crc, clean.media_crc)
      << "the wire image on the vault must not depend on the outage";
}

// Crash-resumable restore of a compressed tape: the acked floor and the
// catalog's offsets live in raw coordinates while the media holds wire
// bytes; each incarnation must translate its bounded replay through the
// FrameMap, converge on a byte-identical tree, and pay decode CPU only for
// the wire it actually moved (strictly less than attempts x a full decode).
TEST(RecoveryChaosTest, CompressedTapeResumableRestoreSurvivesKills) {
  DumpedWorkload w(4242 + SeedOffset());
  Filer filer(&w.env, FilerModel::F630());
  Tape media("night.0", 32 * kMiB);
  TapeDrive drive(&w.env, "dlt0");
  drive.LoadMedia(&media);
  SupervisionPolicy policy;

  ChunkIndex index;
  ContentConfig content;
  content.chunk = content.dedup = content.compress = content.crc = true;
  content.index = &index;

  LogicalBackupJobResult backup;
  CountdownLatch done(&w.env, 1);
  w.env.Spawn(LogicalBackupJob(&filer, w.src.get(), &drive,
                               LogicalDumpOptions{}, &backup, &done, {},
                               &policy, {}, content));
  w.env.Run();
  ASSERT_TRUE(backup.report.status.ok()) << backup.report.status.ToString();
  ASSERT_LT(media.contents().size(), backup.report.stream_bytes)
      << "compressed backup must write wire bytes to tape";
  auto catalog = TapeCatalog::Load(backup.dump.catalog_image);
  ASSERT_TRUE(catalog.ok()) << catalog.status().ToString();

  const uint64_t dir_end = catalog->directory_end();
  const uint64_t stream_end = catalog->stream_end();
  CrashPlan plan;
  plan.seed = 77;
  plan.KillAtOffset(dir_end + (stream_end - dir_end) / 3)
      .KillAtOffset(dir_end + 2 * (stream_end - dir_end) / 3);
  CrashInjector injector(plan);

  auto volume = Volume::Create(&w.env, "r", Geometry());
  auto fs = std::move(Filesystem::Format(volume.get(), &w.env)).value();
  ResumableRestoreConfig cfg;
  cfg.catalog = &*catalog;
  cfg.kill = &injector;
  cfg.checkpoint_every = 8;
  cfg.content = content;
  ResumableRestoreJobResult result;
  CountdownLatch rdone(&w.env, 1);
  w.env.Spawn(ResumableLogicalRestoreJob(&filer, &fs, volume.get(), &drive,
                                         LogicalRestoreOptions{}, false,
                                         &policy, cfg, &result, &rdone));
  w.env.Run();

  ASSERT_TRUE(result.report.status.ok()) << result.report.status.ToString();
  EXPECT_EQ(result.attempts, 3u) << "two kills = three incarnations";
  EXPECT_FALSE(result.restore.interrupted);
  EXPECT_EQ(result.report.resume.resumes, 2u);
  EXPECT_EQ(ChecksumTree(fs->LiveReader()).value(), w.source_sums)
      << "resumed restore of compressed media must be byte-identical";

  // Bounded decode: a full-stream decode costs DecodeCpuPerMb() x raw MB;
  // three incarnations that each replayed everything would pay 3x that.
  const uint64_t full_decode_us =
      content.DecodeCpuPerMb() * backup.report.stream_bytes / 1000000;
  EXPECT_GT(result.report.content.decode_cpu_us, 0u);
  EXPECT_LT(result.report.content.decode_cpu_us,
            result.attempts * full_decode_us)
      << "bounded replay must not pay decode CPU for skipped wire";
}

}  // namespace
}  // namespace bkup
