// perfbench: one benchmark for the simulator's host cost and the model's
// paper fidelity. README.md lists the workloads, the metrics and which
// layer each per-layer number belongs to.
//
//   perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//
// A run repeats the workload, each time on a freshly built testbed, until
// --seconds of host time have passed and each of kPopulations populations
// (file trees generated from seeds derived from --seed) has run at least
// once. Host metrics are medians over the repetitions. Sim metrics are
// means over the populations; the simulation is deterministic, so every
// repetition of a population must produce the same digest, and a mismatch
// counts as a failure. With --trace 1, each population runs untraced and
// then traced, and the run prints the per-layer metrics of the traced
// repetitions. The last line of stdout is one JSON object.
#include <malloc.h>
#include <sys/resource.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <map>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "perfbench/paper_cells.h"
#include "perfbench/spans.h"
#include "src/backup/jobs.h"
#include "src/backup/parallel.h"
#include "src/backup/remote.h"
#include "src/content/content.h"
#include "src/net/link.h"
#include "src/net/tape_server.h"
#include "src/obs/metrics.h"
#include "src/sim/throttle.h"
#include "src/util/checksum.h"
#include "src/util/random.h"
#include "src/workload/aging.h"
#include "src/workload/foreground.h"
#include "src/workload/population.h"

#ifndef PERFBENCH_BUILD_TYPE
#define PERFBENCH_BUILD_TYPE "unknown"
#endif

namespace perfbench {
namespace {

using namespace bkup;

// One population's paper cells and foreground percentiles move by several
// percent with its file-size draw, more than the bounds in BENCHMARK.json
// allow between runs; a run's sim metrics are therefore means over this
// many populations.
constexpr int kPopulations = 6;
constexpr const char* kRefSnapshot = "bench.ref";

// Foreground load: 8 closed-loop clients with 20 ms mean think time. The
// local workloads run kProbeOpsPerClient ops on the idle filer after their
// suite; remote_nightly runs kNightOpsPerClient beside its night-2 dump,
// enough to outlast the dump window.
constexpr uint32_t kFgClients = 8;
constexpr uint64_t kProbeOpsPerClient = 500;
constexpr uint64_t kNightOpsPerClient = 2000;
// Share of files edited between the two nights.
constexpr double kChurnFraction = 0.05;
// Night-2 stream cap, in wire bytes per second: about half of what night 2
// moves unthrottled during its file-dump phase (196-331 kB/s over the six
// populations of seed 1999), so the cap binds. The bucket holds one second
// of rate.
constexpr double kNight2ThrottleBytesPerS = 125e3;

// ------------------------------------------------------------ one rep ---

struct Rep {
  double setup_s = 0;  // host: volume, format, populate, age, churn
  double wall_s = 0;   // host: the measured phase (jobs and verification)
  double total_s = 0;  // host: the whole repetition, teardown included
  double crc_bytes = 0;  // tape bytes the traced CRC pass covered
  bool traced = false;
  int attempted = 0;
  std::vector<std::string> failures;
  std::map<std::string, double> sim;    // end-to-end sim metrics
  std::map<std::string, double> layer;  // per-layer metrics
  std::string digest;  // canonical text of every sim output

  void Check(bool ok, const std::string& what) {
    ++attempted;
    if (!ok) failures.push_back(what);
  }
};

// Canonical "key=value" lines of every simulated output of a repetition.
class Digest {
 public:
  void Line(const std::string& key, const std::string& value) {
    text_ += key;
    text_ += '=';
    text_ += value;
    text_ += '\n';
  }
  template <typename T>
  void Int(const std::string& key, T value) {
    Line(key, std::to_string(value));
  }
  void Real(const std::string& key, double value) {
    char buf[64];
    std::snprintf(buf, sizeof(buf), "%.17g", value);
    Line(key, buf);
  }
  const std::string& text() const { return text_; }

 private:
  std::string text_;
};

uint64_t Fnv1a64(const std::string& s) {
  uint64_t h = 1469598103934665603ull;
  for (unsigned char c : s) {
    h ^= c;
    h *= 1099511628211ull;
  }
  return h;
}

void DigestReport(Digest* d, const std::string& job, const JobReport& r) {
  const std::string p = "job." + job + ".";
  d->Line(p + "name", r.name);
  d->Line(p + "status", r.status.ToString());
  d->Int(p + "start_time", r.start_time);
  d->Int(p + "end_time", r.end_time);
  d->Int(p + "stream_bytes", r.stream_bytes);
  d->Int(p + "data_bytes", r.data_bytes);
  d->Int(p + "cpu_busy_start", r.cpu_busy_start);
  d->Int(p + "cpu_busy_end", r.cpu_busy_end);
  std::string media;
  for (const auto& m : r.tapes_used) media += m + ",";
  d->Line(p + "tapes_used", media);
  media.clear();
  for (const auto& m : r.final_media) media += m + ",";
  d->Line(p + "final_media", media);
  const FaultCounters& f = r.faults;
  for (const auto& [k, v] : std::initializer_list<
           std::pair<const char*, uint64_t>>{
           {"disk_io_errors", f.disk_io_errors},
           {"disk_retries", f.disk_retries},
           {"reconstruction_reads", f.reconstruction_reads},
           {"spare_disks_used", f.spare_disks_used},
           {"tape_errors", f.tape_errors},
           {"tape_retries", f.tape_retries},
           {"tape_remounts", f.tape_remounts},
           {"bytes_rewritten", f.bytes_rewritten},
           {"files_skipped", f.files_skipped},
           {"link_errors", f.link_errors},
           {"link_retransmits", f.link_retransmits},
           {"link_reconnects", f.link_reconnects},
           {"link_bytes_resent", f.link_bytes_resent}}) {
    d->Int(p + "faults." + k, v);
  }
  const ResumeStats& rs = r.resume;
  d->Int(p + "resume.resumes", rs.resumes);
  d->Int(p + "resume.bytes_replayed", rs.bytes_replayed);
  d->Int(p + "resume.bytes_skipped", rs.bytes_skipped);
  d->Int(p + "resume.entries_skipped", rs.entries_skipped);
  d->Int(p + "resume.checkpoints", rs.checkpoints);
  const ContentStats& c = r.content;
  d->Int(p + "content.raw_bytes", c.raw_bytes);
  d->Int(p + "content.wire_bytes", c.wire_bytes);
  d->Int(p + "content.unique_bytes", c.unique_bytes);
  d->Int(p + "content.chunks", c.chunks);
  d->Int(p + "content.dedup_hits", c.dedup_hits);
  d->Int(p + "content.crc_checks", c.crc_checks);
  d->Int(p + "content.encode_cpu_us", c.encode_cpu_us);
  d->Int(p + "content.decode_cpu_us", c.decode_cpu_us);
  for (int i = 0; i < static_cast<int>(JobPhase::kCount); ++i) {
    const PhaseStats& ph = r.phases[i];
    if (!ph.active()) continue;
    const std::string q =
        p + "phase." + JobPhaseName(static_cast<JobPhase>(i)) + ".";
    d->Int(q + "start", ph.start);
    d->Int(q + "end", ph.end);
    d->Int(q + "cpu_busy_start", ph.cpu_busy_start);
    d->Int(q + "cpu_busy_end", ph.cpu_busy_end);
    d->Int(q + "disk_bytes", ph.disk_bytes);
    d->Int(q + "tape_bytes", ph.tape_bytes);
    d->Int(q + "net_bytes", ph.net_bytes);
  }
}

// Sum of a counter over all its label sets.
uint64_t CounterSum(const MetricsRegistry& registry, const std::string& name) {
  uint64_t sum = 0;
  for (const auto& [key, value] : registry.CounterSnapshot()) {
    if (key == name || key.rfind(name + "{", 0) == 0) sum += value;
  }
  return sum;
}

using Tree = std::map<std::string, uint32_t>;

// Empty when the trees match; else the first path that differs.
std::string TreeDiff(const Tree& want, const Tree& got) {
  if (want == got) return "";
  auto w = want.begin();
  auto g = got.begin();
  while (w != want.end() && g != got.end() && *w == *g) {
    ++w;
    ++g;
  }
  const std::string path =
      w == want.end() ? g->first
                      : (g == got.end() || w->first < g->first ? w->first
                                                                : g->first);
  return ": " + std::to_string(want.size()) + " vs " +
         std::to_string(got.size()) + " files, first difference at " + path;
}

// ---------------------------------------------------------- the testbed ---

// Sim queueing on one class of resource: the integral of queue length over
// simulated time, sampled at every occupancy change the resource reports.
class QueueWatches {
 public:
  enum Kind { kCpu = 0, kArm, kTape };

  explicit QueueWatches(bool enabled) : enabled_(enabled) {}
  QueueWatches(const QueueWatches&) = delete;
  QueueWatches& operator=(const QueueWatches&) = delete;

  void Watch(Resource* res, Kind kind) {
    if (enabled_) watches_.push_back(std::make_unique<Watcher>(res, kind));
  }
  void WatchArms(Volume* volume) {
    for (const auto& d : volume->disks()) Watch(&d->arm(), kArm);
  }
  double WaitSeconds(Kind kind) const {
    int64_t us = 0;
    for (const auto& w : watches_) {
      if (w->kind == kind) us += w->integral;
    }
    return SimToSeconds(us);
  }

 private:
  struct Watcher : ResourceObserver {
    Watcher(Resource* r, Kind k)
        : res(r), kind(k), last_time(r->env()->now()),
          last_queue(static_cast<int64_t>(r->queue_length())) {
      res->AddObserver(this);
    }
    ~Watcher() override { res->RemoveObserver(this); }
    Watcher(const Watcher&) = delete;
    Watcher& operator=(const Watcher&) = delete;
    void OnResourceChange(const Resource& r, SimTime now, int64_t) override {
      integral += last_queue * (now - last_time);
      last_time = now;
      last_queue = static_cast<int64_t>(r.queue_length());
    }
    Resource* res;
    Kind kind;
    SimTime last_time;
    int64_t last_queue;
    int64_t integral = 0;
  };

  bool enabled_;
  std::vector<std::unique_ptr<Watcher>> watches_;
};

struct TestbedSpec {
  uint64_t data_bytes;
  uint32_t quota_trees;
  uint32_t local_tapes;
};

// The paper's testbed "eliot": an F630 with ~31 FC-AL disks in 3 RAID
// groups and DLT-7000 drives, at the scaled drive capacity (8 MiB per
// disk) the tree's paper-table benches use.
//
// This is the testbed of bench::Bench (bench/common.h), with the same
// geometry, population, aging and tapes. It is rebuilt here because Bench
// creates the volume, formats, populates and ages in one constructor, so
// the per-layer split of setup_s (raid.volume_create_s, fs.format_s,
// workload.populate_s, workload.age_s) would need four more link-time
// wrappers of mangled names.
class Testbed {
 public:
  Testbed(const TestbedSpec& spec, uint64_t seed) {
    const Clock::time_point t0 = Clock::now();
    fs = FreshFilesystem("home");
    WorkloadParams params;
    params.seed = seed;
    params.target_bytes = spec.data_bytes;
    params.quota_trees = spec.quota_trees;
    {
      ScopedSpan span(Layer::kPopulate);
      Require(PopulateFilesystem(fs, params).status(), "populate");
    }
    // A "mature" data set, per the paper's footnote 1.
    AgingParams aging;
    aging.seed = seed + 1;
    aging.rounds = 3;
    aging.churn_fraction = 0.3;
    {
      ScopedSpan span(Layer::kAge);
      Require(AgeFilesystem(fs, aging).status(), "age");
    }
    for (uint32_t i = 0; i < spec.local_tapes; ++i) {
      tapes.push_back(
          std::make_unique<Tape>("tape" + std::to_string(i), 8 * kGiB));
      drives.push_back(
          std::make_unique<TapeDrive>(&env, "dlt" + std::to_string(i)));
      drives.back()->LoadMedia(tapes.back().get());
    }
    setup_s = SecondsSince(t0);
  }

  static void Require(const Status& st, const char* what) {
    if (!st.ok()) {
      std::fprintf(stderr, "perfbench: %s failed: %s\n", what,
                   st.ToString().c_str());
      std::exit(2);
    }
  }

  Volume* FreshVolume(const std::string& name) {
    VolumeGeometry geom;
    geom.num_raid_groups = 3;
    geom.disks_per_group = 10;
    geom.blocks_per_disk = 2048;
    ScopedSpan span(Layer::kVolume);
    volumes.push_back(Volume::Create(&env, name, geom));
    return volumes.back().get();
  }

  Filesystem* FreshFilesystem(const std::string& name) {
    Volume* volume = FreshVolume(name);
    ScopedSpan span(Layer::kFormat);
    Result<std::unique_ptr<Filesystem>> made =
        Filesystem::Format(volume, &env);
    Require(made.status(), "format");
    filesystems.push_back(std::move(made).value());
    return filesystems.back().get();
  }

  Volume* home() { return volumes.front().get(); }

  std::vector<TapeDrive*> Drives() {
    std::vector<TapeDrive*> out;
    for (auto& d : drives) out.push_back(d.get());
    return out;
  }

  // Runs the simulation until its queue drains: the span of the jobs
  // spawned before the call. The leaves the jobs record inside it (engine,
  // content, snapshot) are subtracted; the rest is replay. The events the
  // call processes are counted in job_events, so sim.events and
  // sim.ns_per_event cover the same calls as the replay span.
  void RunJobs() {
    const uint64_t events0 = env.events_processed();
    if (!Spans().enabled) {
      env.Run();
    } else {
      const double inner0 = Spans().Sum();
      const Clock::time_point t0 = Clock::now();
      env.Run();
      const double span = SecondsSince(t0);
      Spans()[Layer::kReplay] += span - (Spans().Sum() - inner0);
    }
    job_events += env.events_processed() - events0;
  }

  // CRC-32C of every file under the given roots, keyed by path.
  static Result<Tree> Sums(const FsReader& reader,
                           const std::vector<std::string>& roots) {
    ScopedSpan span(Layer::kVerify);
    Tree all;
    for (const std::string& root : roots) {
      Result<Tree> sums = ChecksumTree(reader, root);
      if (!sums.ok()) return sums.status();
      all.insert(sums->begin(), sums->end());
    }
    return all;
  }

  static Tree Checksums(const FsReader& reader) {
    Result<Tree> sums = Sums(reader, {"/"});
    Require(sums.status(), "checksum walk");
    return std::move(sums).value();
  }

  // Checks a restored tree against its source.
  static void CheckTree(const Tree& source, const FsReader& restored,
                        const std::string& what, Rep* rep,
                        const std::vector<std::string>& roots = {"/"}) {
    Result<Tree> sums = Sums(restored, roots);
    const std::string diff =
        sums.ok() ? TreeDiff(source, *sums) : ": " + sums.status().ToString();
    rep->Check(diff.empty(), what + diff);
  }

  // Mounts a volume an image restore rebuilt and checks its tree.
  void CheckMountedTree(const Tree& source, Volume* volume,
                        const std::string& what, Rep* rep) {
    Result<std::unique_ptr<Filesystem>> mounted = [&] {
      ScopedSpan span(Layer::kVerify);
      return Filesystem::Mount(volume, &env);
    }();
    if (!mounted.ok()) {
      rep->Check(false, what + ": mount: " + mounted.status().ToString());
      return;
    }
    CheckTree(source, (*mounted)->LiveReader(), what, rep);
  }

  // Member order is destruction order reversed: metric handles, volumes
  // and drives must all die before the registry and the environment.
  MetricsRegistry registry;
  ScopedMetricsRegistry scope{&registry};
  SimEnvironment env;
  Filer filer{&env, FilerModel::F630()};
  std::vector<std::unique_ptr<Volume>> volumes;
  std::vector<std::unique_ptr<Filesystem>> filesystems;
  std::vector<std::unique_ptr<Tape>> tapes;
  std::vector<std::unique_ptr<TapeDrive>> drives;
  Filesystem* fs = nullptr;
  double setup_s = 0;
  uint64_t job_events = 0;  // events processed inside RunJobs
};

// Watches the filer CPU, the home volume's arms and the testbed's drives.
void WatchTestbed(Testbed* tb, QueueWatches* watches) {
  watches->Watch(&tb->filer.cpu(), QueueWatches::kCpu);
  watches->WatchArms(tb->home());
  for (TapeDrive* d : tb->Drives()) watches->Watch(&d->unit(), QueueWatches::kTape);
}

int64_t BusyOf(const std::vector<TapeDrive*>& drives) {
  int64_t busy = 0;
  for (TapeDrive* d : drives) busy += d->unit().BusyIntegral();
  return busy;
}

// Tape-unit busy time of the backups over their streaming windows.
struct TapeUse {
  int64_t busy_us = 0;
  int64_t window_us = 0;

  template <typename Fn>
  void Backup(const std::vector<TapeDrive*>& drives, const JobReport& report,
              Fn run) {
    const int64_t b0 = BusyOf(drives);
    run();
    busy_us += BusyOf(drives) - b0;
    window_us += static_cast<int64_t>(drives.size()) * report.StreamElapsed();
  }
};

// ------------------------------------------------------ job bookkeeping ---

struct Job {
  std::string name;
  const JobReport* report;
};

// The end of a backup window: the last byte on tape, before the snapshot
// is deleted.
SimTime WindowEnd(const JobReport& r) {
  const PhaseStats& del = r.phase(JobPhase::kDeleteSnapshot);
  return del.active() ? del.start : r.end_time;
}

double CellValue(const PaperCell& cell, const JobReport& r, uint32_t tapes) {
  switch (cell.quantity) {
    case Quantity::kMBps:
      return r.MBps();
    case Quantity::kGBphPerTape:
      return r.GBph() / tapes;
    case Quantity::kDumpCpuPct: {
      const JobPhase stream = r.phase(JobPhase::kDumpFiles).active()
                                  ? JobPhase::kDumpFiles
                                  : JobPhase::kDumpBlocks;
      return r.phase(stream).CpuUtilization() * 100.0;
    }
    case Quantity::kStreamCpuPct:
      return r.StreamCpuUtilization() * 100.0;
  }
  return 0;
}

// Scores the jobs: per-job sim metrics, the paper cells, the backup window
// and the wire ratio, and every report field into the digest.
void ScoreJobs(const char* workload, const std::vector<Job>& jobs,
               uint32_t tapes, Rep* rep, Digest* d) {
  for (const Job& j : jobs) {
    rep->Check(j.report->status.ok(), j.name + " status");
    DigestReport(d, j.name, *j.report);
    const std::string p = "backup." + j.name + ".";
    rep->layer[p + "sim_MBps"] = j.report->MBps();
    rep->layer[p + "cpu_pct"] = j.report->StreamCpuUtilization() * 100.0;
    rep->layer[p + "sim_s"] = SimToSeconds(j.report->elapsed());
  }
  double err_sum = 0;
  double err_max = 0;
  int cells = 0;
  for (size_t i = 0; i < std::size(kPaperCells); ++i) {
    const PaperCell& cell = kPaperCells[i];
    if (std::strcmp(cell.workload, workload) != 0) continue;
    for (const Job& j : jobs) {
      if (j.name != cell.job) continue;
      const double sim = CellValue(cell, *j.report, tapes);
      const double err = std::fabs(sim / cell.paper - 1.0) * 100.0;
      d->Real("paper.cell" + std::to_string(i), sim);
      err_sum += err;
      err_max = std::max(err_max, err);
      ++cells;
    }
  }
  rep->Check(cells > 0, "paper cells found");
  rep->sim["paper_err_pct"] = cells > 0 ? err_sum / cells : 0;
  rep->sim["paper_max_err_pct"] = err_max;
}

// The local workloads' backup window (the sum of both backups') and their
// tape bytes per raw stream byte.
void ScoreLocalBackups(const JobReport& logical, const JobReport& physical,
                       Rep* rep) {
  rep->sim["sim_window_s"] =
      SimToSeconds(WindowEnd(logical) - logical.start_time) +
      SimToSeconds(WindowEnd(physical) - physical.start_time);
  rep->sim["wire_per_raw"] =
      static_cast<double>(logical.total_tape_bytes() +
                          physical.total_tape_bytes()) /
      static_cast<double>(logical.stream_bytes + physical.stream_bytes);
}

// Scores the foreground ops summarised in `s`, and the whole load.
void ScoreForeground(const LatencySummary& s, const ForegroundLoad& load,
                     Rep* rep, Digest* d) {
  rep->Check(s.count >= 1000, "foreground p99 has >= 10 samples beyond it");
  rep->sim["fg_p50_ms"] = s.p50_us / 1000.0;
  rep->sim["fg_p99_ms"] = s.p99_us / 1000.0;
  rep->sim["fg_samples"] = static_cast<double>(s.count);
  const ForegroundStats& st = load.stats();
  rep->Check(st.errors == 0, "foreground errors");
  rep->layer["workload.fg_ops"] = static_cast<double>(st.total_ops());
  rep->layer["workload.fg_errors"] = static_cast<double>(st.errors);
  for (int i = 0; i < static_cast<int>(FgOp::kCount); ++i) {
    d->Int(std::string("fg.ops.") + FgOpName(static_cast<FgOp>(i)), st.ops[i]);
  }
  d->Int("fg.errors", st.errors);
  d->Int("fg.bytes_read", st.bytes_read);
  d->Int("fg.bytes_written", st.bytes_written);
  d->Int("fg.cp_blocks_flushed", st.cp_blocks_flushed);
  d->Int("fg.op_mix_crc", load.OpMixCrc());
  d->Int("fg.trace_crc", load.TraceCrc());
}

ForegroundParams FgParams(uint64_t seed, uint64_t ops_per_client) {
  ForegroundParams p;
  p.seed = seed;
  p.num_clients = kFgClients;
  p.ops_per_client = ops_per_client;
  p.mean_think_time = 20 * kMillisecond;
  return p;
}

// The idle-filer foreground floor of the local workloads: the same client
// mix as remote_nightly's, on the aged volume once the suite is done.
void ForegroundProbe(Testbed* tb, uint64_t seed, Rep* rep, Digest* d) {
  ForegroundLoad load(&tb->filer, tb->fs,
                      FgParams(seed + 3, kProbeOpsPerClient));
  CountdownLatch done(&tb->env, 1);
  tb->env.Spawn(load.Run(&done));
  {
    ScopedSpan span(Layer::kForeground);
    tb->env.Run();
  }
  ScoreForeground(load.Summarize(), load, rep, d);
}

// Measured-phase clock and the sim counters read at its end.
class Measure {
 public:
  explicit Measure(Testbed* tb) : tb_(tb) { Start(); }
  void Start() { t0_ = Clock::now(); }
  void Stop() { wall_ += SecondsSince(t0_); }

  void Finish(Rep* rep, Digest* d, const QueueWatches& watches,
              const TapeUse& tape, const std::vector<TapeDrive*>& drives) {
    const MetricsRegistry& reg = tb_->registry;
    rep->wall_s = wall_;
    const uint64_t events = tb_->job_events;
    uint64_t repositions = 0;
    for (TapeDrive* t : drives) repositions += t->repositions();
    const uint64_t chunks = CounterSum(reg, "content.chunks");
    const uint64_t hits = CounterSum(reg, "content.dedup_hits");
    auto& l = rep->layer;
    l["sim.events"] = static_cast<double>(events);
    l["sim.cpu_wait_s"] = watches.WaitSeconds(QueueWatches::kCpu);
    l["sim.arm_wait_s"] = watches.WaitSeconds(QueueWatches::kArm);
    l["sim.tape_wait_s"] = watches.WaitSeconds(QueueWatches::kTape);
    l["block.tape_util_pct"] =
        tape.window_us > 0 ? 100.0 * static_cast<double>(tape.busy_us) /
                                 static_cast<double>(tape.window_us)
                           : 0;
    l["block.tape_repositions"] = static_cast<double>(repositions);
    l["block.disk_MB"] = static_cast<double>(CounterSum(reg, "disk.bytes")) / 1e6;
    l["dump.stream_bytes"] =
        static_cast<double>(CounterSum(reg, "dump.logical.stream_bytes"));
    l["content.chunks"] = static_cast<double>(chunks);
    l["content.dedup_hits"] = static_cast<double>(hits);
    l["content.ref_rate"] =
        chunks > 0 ? static_cast<double>(hits) / static_cast<double>(chunks)
                   : 0;
    l["net.frames"] = static_cast<double>(CounterSum(reg, "net.frames"));
    l["net.bytes"] = static_cast<double>(CounterSum(reg, "net.bytes"));
    l["net.retransmits"] =
        static_cast<double>(CounterSum(reg, "net.retransmits"));
    d->Int("sim.events", events);
    d->Int("sim.events_total", tb_->env.events_processed());
    d->Int("sim.now", tb_->env.now());
    d->Int("block.tape_busy_us", tape.busy_us);
    d->Int("block.tape_window_us", tape.window_us);
    d->Int("block.tape_repositions", repositions);
    for (const auto& [key, value] : reg.CounterSnapshot()) {
      d->Int("counter." + key, value);
    }
    for (const auto& [key, value] : rep->sim) d->Real("e2e." + key, value);
  }

 private:
  Testbed* tb_;
  Clock::time_point t0_;
  double wall_ = 0;
};

// ---------------------------------------------------------- workloads ---

// The benchmark's own Crc32c pass over the bytes the workload put on tape.
// Traced repetitions only; it runs after the measured phase.
double TimeCrc(const std::vector<std::span<const uint8_t>>& media) {
  uint64_t bytes = 0;
  uint32_t crc = 0;
  {
    ScopedSpan span(Layer::kCrc);
    for (auto m : media) {
      crc = Crc32c(m, crc);
      bytes += m.size();
    }
  }
  // Publish the result so the pass cannot be elided.
  static volatile uint32_t sink;
  sink = sink + crc;
  return static_cast<double>(bytes);
}


// Table 2: logical backup, logical restore to a fresh fs, physical backup,
// physical restore to a fresh volume; one DLT drive each.
void Table2(uint64_t seed, bool traced, Rep* rep) {
  Testbed tb({96 * kMiB, 4, 2}, seed);
  rep->setup_s = tb.setup_s;
  QueueWatches watches(traced);
  WatchTestbed(&tb, &watches);
  Digest d;
  TapeUse tape;
  Measure m(&tb);

  const Tree source = tb.Checksums(tb.fs->LiveReader());
  LogicalBackupJobResult lb;
  {
    CountdownLatch done(&tb.env, 1);
    LogicalDumpOptions opt;
    opt.volume_name = "home";
    tb.env.Spawn(LogicalBackupJob(&tb.filer, tb.fs, tb.drives[0].get(), opt,
                                  &lb, &done));
    tape.Backup({tb.drives[0].get()}, lb.report, [&] { tb.RunJobs(); });
  }
  LogicalRestoreJobResult lr;
  {
    Filesystem* fs = tb.FreshFilesystem("lrestore");
    watches.WatchArms(tb.volumes.back().get());
    tb.drives[0]->Rewind();
    CountdownLatch done(&tb.env, 1);
    tb.env.Spawn(LogicalRestoreJob(&tb.filer, fs, tb.drives[0].get(),
                                   LogicalRestoreOptions{}, false, &lr,
                                   &done));
    tb.RunJobs();
    tb.CheckTree(source, fs->LiveReader(), "logical restore", rep);
  }
  ImageBackupJobResult pb;
  {
    CountdownLatch done(&tb.env, 1);
    tb.env.Spawn(ImageBackupJob(&tb.filer, tb.fs, tb.drives[1].get(),
                                ImageDumpOptions{},
                                /*delete_snapshot_after=*/true, &pb, &done));
    tape.Backup({tb.drives[1].get()}, pb.report, [&] { tb.RunJobs(); });
  }
  ImageRestoreJobResult pr;
  {
    Volume* volume = tb.FreshVolume("prestore");
    watches.WatchArms(volume);
    tb.drives[1]->Rewind();
    CountdownLatch done(&tb.env, 1);
    tb.env.Spawn(ImageRestoreJob(&tb.filer, volume, tb.drives[1].get(), &pr,
                                 &done));
    tb.RunJobs();
    tb.CheckMountedTree(source, volume, "physical restore", rep);
  }
  ForegroundProbe(&tb, seed, rep, &d);
  m.Stop();
  if (traced) {
    rep->crc_bytes = TimeCrc({tb.tapes[0]->contents(), tb.tapes[1]->contents()});
  }

  const std::vector<Job> jobs = {{"logical_backup", &lb.report},
                                 {"logical_restore", &lr.report},
                                 {"physical_backup", &pb.report},
                                 {"physical_restore", &pr.report}};
  ScoreJobs("table2_local", jobs, 1, rep, &d);
  ScoreLocalBackups(lb.report, pb.report, rep);
  m.Finish(rep, &d, watches, tape, tb.Drives());
  rep->digest = d.text();
}

// Table 5: 4 quota trees dumped in parallel to 4 drives and restored in
// parallel; the block set striped over 4 drives and restored in parallel.
void Parallel4(uint64_t seed, bool traced, Rep* rep) {
  constexpr uint32_t kTapes = 4;
  Testbed tb({128 * kMiB, kTapes, kTapes}, seed);
  rep->setup_s = tb.setup_s;
  QueueWatches watches(traced);
  WatchTestbed(&tb, &watches);
  Digest d;
  TapeUse tape;
  Measure m(&tb);

  std::vector<std::string> subtrees;
  for (uint32_t k = 0; k < kTapes; ++k) subtrees.push_back(QuotaTreePath(k));
  const Tree source = tb.Checksums(tb.fs->LiveReader());
  // The parallel logical dump covers the quota trees only; aging leaves a
  // few files at the root, outside all of them.
  Tree source_trees;
  for (const auto& [path, sum] : source) {
    for (const std::string& root : subtrees) {
      if (path.rfind(root + "/", 0) == 0) source_trees.emplace(path, sum);
    }
  }

  ParallelLogicalBackupResult lb;
  {
    CountdownLatch done(&tb.env, 1);
    LogicalDumpOptions base;
    base.volume_name = "home";
    tb.env.Spawn(ParallelLogicalBackupJob(&tb.filer, tb.fs, tb.Drives(),
                                          subtrees, base, &lb, &done));
    tape.Backup(tb.Drives(), lb.merged, [&] { tb.RunJobs(); });
  }
  ParallelLogicalRestoreResult lr;
  {
    Filesystem* fs = tb.FreshFilesystem("lrestore");
    watches.WatchArms(tb.volumes.back().get());
    for (TapeDrive* t : tb.Drives()) t->Rewind();
    CountdownLatch done(&tb.env, 1);
    tb.env.Spawn(ParallelLogicalRestoreJob(&tb.filer, fs, tb.Drives(),
                                           subtrees, /*bypass_nvram=*/false,
                                           &lr, &done));
    tb.RunJobs();
    tb.CheckTree(source_trees, fs->LiveReader(), "parallel logical restore",
                 rep, subtrees);
  }
  for (uint32_t k = 0; k < kTapes; ++k) {
    tb.tapes[k]->Erase();
    tb.drives[k]->LoadMedia(tb.tapes[k].get());
  }
  ParallelImageBackupResult pb;
  {
    CountdownLatch done(&tb.env, 1);
    tb.env.Spawn(ParallelImageBackupJob(&tb.filer, tb.fs, tb.Drives(),
                                        ImageDumpOptions{},
                                        /*delete_snapshot_after=*/false, &pb,
                                        &done));
    tape.Backup(tb.Drives(), pb.merged, [&] { tb.RunJobs(); });
  }
  ParallelImageRestoreResult pr;
  {
    Volume* volume = tb.FreshVolume("prestore");
    watches.WatchArms(volume);
    for (TapeDrive* t : tb.Drives()) t->Rewind();
    CountdownLatch done(&tb.env, 1);
    tb.env.Spawn(ParallelImageRestoreJob(&tb.filer, volume, tb.Drives(), &pr,
                                         &done));
    tb.RunJobs();
    tb.CheckMountedTree(source, volume, "parallel physical restore", rep);
  }
  ForegroundProbe(&tb, seed, rep, &d);
  m.Stop();
  if (traced) {
    std::vector<std::span<const uint8_t>> media;
    for (const auto& t : tb.tapes) media.push_back(t->contents());
    rep->crc_bytes = TimeCrc(media);
  }

  const std::vector<Job> jobs = {{"logical_backup", &lb.merged},
                                 {"logical_restore", &lr.merged},
                                 {"physical_backup", &pb.merged},
                                 {"physical_restore", &pr.merged}};
  ScoreJobs("parallel4_local", jobs, kTapes, rep, &d);
  ScoreLocalBackups(lb.merged, pb.merged, rep);
  m.Finish(rep, &d, watches, tape, tb.Drives());
  rep->digest = d.text();
}

// A home volume's nightly edits: one 4 KiB block rewritten in place in a
// `fraction` of the files, then a consistency point.
Status Churn(Filesystem* fs, double fraction, uint64_t seed) {
  std::vector<std::pair<Inum, uint64_t>> files;
  Status st = WalkTree(fs->LiveReader(), "/",
                       [&files](const std::string&, Inum inum,
                                const InodeData& inode) {
                         if (inode.type == InodeType::kFile) {
                           files.emplace_back(inum, inode.size);
                         }
                       });
  if (!st.ok()) return st;
  Rng rng(seed);
  std::vector<uint8_t> patch(kBlockSize);
  for (const auto& [inum, size] : files) {
    if (!rng.Chance(fraction)) continue;
    rng.Fill(patch);
    const uint64_t offset =
        size > kBlockSize ? rng.Below(size / kBlockSize) * kBlockSize : 0;
    st = fs->Write(inum, offset, patch);
    if (!st.ok()) return st;
  }
  return fs->ConsistencyPoint().status();
}

// Takes the reference snapshot in the same simulation event as the dump's
// own, so the restore is checked against exactly the tree the dump saw.
Task SnapshotThenDump(Filesystem* fs, Status* ref, Task dump) {
  *ref = fs->CreateSnapshot(kRefSnapshot);
  co_await std::move(dump);
}

// Records when the awaited task (the foreground load) ends.
Task RecordEnd(SimEnvironment* env, SimTime* end, Task task) {
  co_await std::move(task);
  *end = env->now();
}

// Two nights over a 125 MB/s link to a tape server, with content stages
// and a shared chunk index; night 2 runs throttled in the background class
// beside a foreground load, and its restore is checked.
void RemoteNightly(uint64_t seed, bool traced, Rep* rep) {
  Testbed tb({64 * kMiB, 1, 0}, seed);
  rep->setup_s = tb.setup_s;
  NetLink link(&tb.env, "lan", LinkParams{});
  Tape media1("vault.night1", 8 * kGiB);
  Tape media2("vault.night2", 8 * kGiB);
  TapeServer server(&tb.env, "vault");
  TapeDrive* drive1 = server.AddDrive("dlt0");
  TapeDrive* drive2 = server.AddDrive("dlt1");
  drive1->LoadMedia(&media1);
  drive2->LoadMedia(&media2);
  ChunkIndex index;
  ContentConfig content;
  content.chunk = content.dedup = content.crc = true;
  content.index = &index;
  BackupThrottle throttle(&tb.env, kNight2ThrottleBytesPerS);
  auto target_for = [&](TapeDrive* drive) {
    RemoteTarget target;
    target.link = &link;
    target.server = &server;
    target.drive = drive;
    target.content = content;
    return target;
  };
  QueueWatches watches(traced);
  WatchTestbed(&tb, &watches);
  watches.Watch(&drive1->unit(), QueueWatches::kTape);
  watches.Watch(&drive2->unit(), QueueWatches::kTape);
  Digest d;
  TapeUse tape;
  Measure m(&tb);

  // Night 1: level-0 against a cold chunk index.
  LogicalBackupJobResult night1;
  {
    LogicalDumpOptions opt;
    opt.volume_name = "home";
    CountdownLatch done(&tb.env, 1);
    tb.env.Spawn(RemoteLogicalBackupJob(&tb.filer, tb.fs, target_for(drive1),
                                        opt, &night1, &done));
    tape.Backup({drive1}, night1.report, [&] { tb.RunJobs(); });
  }

  // The day's edits. Set-up work, not measured.
  m.Stop();
  {
    const Clock::time_point t0 = Clock::now();
    {
      ScopedSpan span(Layer::kChurn);
      Testbed::Require(Churn(tb.fs, kChurnFraction, seed + 2), "churn");
    }
    rep->setup_s += SecondsSince(t0);
  }
  m.Start();

  // Night 2: level-0 against the warm index, throttled and demoted, while
  // the foreground clients run.
  LogicalBackupJobResult night2;
  Status ref_status;
  ForegroundLoad load(&tb.filer, tb.fs, FgParams(seed + 3, kNightOpsPerClient));
  SimTime load_end = 0;
  const uint64_t link_bytes0 = link.bytes_transferred();
  {
    RemoteTarget target = target_for(drive2);
    target.qos.throttle = &throttle;
    target.qos.io_priority = kPriorityBackground;
    LogicalDumpOptions opt;
    opt.volume_name = "home";
    CountdownLatch done(&tb.env, 2);
    tb.env.Spawn(SnapshotThenDump(
        tb.fs, &ref_status,
        RemoteLogicalBackupJob(&tb.filer, tb.fs, target, opt, &night2,
                               &done)));
    tb.env.Spawn(RecordEnd(&tb.env, &load_end, load.Run(&done)));
    tape.Backup({drive2}, night2.report, [&] { tb.RunJobs(); });
  }
  const uint64_t night2_link_bytes = link.bytes_transferred() - link_bytes0;
  rep->Check(ref_status.ok(), "reference snapshot " + ref_status.ToString());
  const BackupThrottle::Stats& throttled = throttle.stats();
  rep->Check(throttled.throttled_requests > 0 && throttled.total_wait > 0,
             "night 2 was throttled");

  // Restore night 2 over the link and check it against the reference.
  LogicalRestoreJobResult restore;
  {
    Filesystem* fs = tb.FreshFilesystem("rrestore");
    watches.WatchArms(tb.volumes.back().get());
    drive2->Rewind();
    CountdownLatch done(&tb.env, 1);
    tb.env.Spawn(RemoteLogicalRestoreJob(&tb.filer, fs, target_for(drive2),
                                         LogicalRestoreOptions{}, false,
                                         &restore, &done));
    tb.RunJobs();
    Result<FsReader> ref = tb.fs->SnapshotReader(kRefSnapshot);
    if (ref.ok()) {
      tb.CheckTree(tb.Checksums(*ref), fs->LiveReader(),
                   "night-2 restore vs. dump-time snapshot", rep);
    } else {
      rep->Check(false, "reference snapshot: " + ref.status().ToString());
    }
  }
  m.Stop();
  if (traced) rep->crc_bytes = TimeCrc({media1.contents(), media2.contents()});

  const SimTime window_begin = night2.report.start_time;
  const SimTime window_end = WindowEnd(night2.report);
  rep->Check(load_end >= window_end,
             "foreground load outlasts the night-2 window");
  ScoreForeground(load.SummarizeBetween(window_begin, window_end), load, rep,
                  &d);

  const std::vector<Job> jobs = {{"night1_backup", &night1.report},
                                 {"night2_backup", &night2.report},
                                 {"night2_restore", &restore.report}};
  ScoreJobs("remote_nightly", jobs, 1, rep, &d);
  rep->sim["sim_window_s"] = SimToSeconds(window_end - window_begin);
  rep->sim["wire_per_raw"] =
      static_cast<double>(night2_link_bytes) /
      static_cast<double>(std::max<uint64_t>(night2.report.stream_bytes, 1));
  d.Int("net.night2_link_bytes", night2_link_bytes);
  d.Int("net.frames", link.frames_transferred());
  d.Int("throttle.requests", throttled.requests);
  d.Int("throttle.bytes", throttled.bytes);
  d.Int("throttle.throttled_requests", throttled.throttled_requests);
  d.Int("throttle.total_wait", throttled.total_wait);
  rep->layer["sim.throttled_requests"] =
      static_cast<double>(throttled.throttled_requests);
  rep->layer["sim.throttle_wait_s"] = SimToSeconds(throttled.total_wait);
  m.Finish(rep, &d, watches, tape, {drive1, drive2});
  rep->digest = d.text();
}

// --------------------------------------------------------------- main ---

struct Workload {
  const char* name;
  void (*run)(uint64_t seed, bool traced, Rep* rep);
};

constexpr Workload kWorkloads[] = {
    {"table2_local", Table2},
    {"parallel4_local", Parallel4},
    {"remote_nightly", RemoteNightly},
};

// Per-layer names printed by a traced run, in BENCHMARK.json order.
const char* const kLayerMetrics[] = {
    "workload.populate_s", "workload.age_s", "workload.churn_s",
    "workload.fg_probe_s", "workload.fg_ops", "workload.fg_errors",
    "raid.volume_create_s", "fs.format_s", "fs.snapshot_s", "fs.verify_s",
    "dump.logical_dump_s", "dump.logical_restore_s", "dump.stream_bytes",
    "image.dump_s", "image.restore_s", "content.encode_s", "content.decode_s",
    "content.chunks", "content.dedup_hits", "content.ref_rate", "net.frames",
    "net.bytes", "net.retransmits", "sim.events", "sim.replay_s",
    "sim.ns_per_event", "sim.cpu_wait_s", "sim.arm_wait_s", "sim.tape_wait_s",
    "sim.throttled_requests", "sim.throttle_wait_s",
    "block.tape_util_pct", "block.tape_repositions", "block.disk_MB",
    "util.crc32c_MBps", "obs.trace_overhead_pct", "obs.span_coverage_pct",
};
const char* const kJobNames[] = {
    "logical_backup", "logical_restore", "physical_backup",
    "physical_restore", "night1_backup", "night2_backup", "night2_restore",
};
const char* const kJobMetrics[] = {"sim_MBps", "cpu_pct", "sim_s"};

const char* UnitOf(const std::string& name) {
  auto ends = [&](const char* suffix) {
    const size_t n = std::strlen(suffix);
    return name.size() >= n && name.compare(name.size() - n, n, suffix) == 0;
  };
  if (name == "failed_frac") return "ratio";
  if (ends("_MBps")) return "MB/s";
  if (ends("_pct")) return "%";
  if (ends("_ms")) return "ms";
  if (ends("_MiB")) return "MiB";
  if (ends("_MB")) return "MB";
  if (ends("_s")) return "s";
  if (ends("ns_per_event")) return "ns";
  if (ends("wire_per_raw")) return "ratio";
  if (ends("ref_rate")) return "ref/chunk";
  return "count";
}

// "host" for numbers read off the host clock, "sim" for simulated ones.
const char* KindOf(const std::string& name) {
  auto starts = [&](const char* p) { return name.rfind(p, 0) == 0; };
  // Simulated seconds: the sim-layer waits, job times and backup windows.
  const bool sim_seconds =
      starts("sim.") || starts("backup.") || name == "sim_window_s";
  const bool host = (std::strcmp(UnitOf(name), "s") == 0 && !sim_seconds) ||
                    name == "sim.replay_s" || name == "sim.ns_per_event" ||
                    name == "peak_rss_MiB" || starts("util.") ||
                    starts("obs.");
  return host ? "host" : "sim";
}

// Host-time layer metrics of one traced repetition, from its span totals.
void HostLayers(const SpanTotals& s, Rep* rep) {
  auto& l = rep->layer;
  l["workload.populate_s"] = s[Layer::kPopulate];
  l["workload.age_s"] = s[Layer::kAge];
  l["workload.churn_s"] = s[Layer::kChurn];
  l["workload.fg_probe_s"] = s[Layer::kForeground];
  l["raid.volume_create_s"] = s[Layer::kVolume];
  l["fs.format_s"] = s[Layer::kFormat];
  l["fs.snapshot_s"] = s[Layer::kSnapshot];
  l["fs.verify_s"] = s[Layer::kVerify];
  l["dump.logical_dump_s"] = s[Layer::kLogicalDump];
  l["dump.logical_restore_s"] = s[Layer::kLogicalRestore];
  l["image.dump_s"] = s[Layer::kImageDump];
  l["image.restore_s"] = s[Layer::kImageRestore];
  l["content.encode_s"] = s[Layer::kEncode];
  l["content.decode_s"] = s[Layer::kDecode];
  l["sim.replay_s"] = s[Layer::kReplay];
  const double events = l["sim.events"];
  l["sim.ns_per_event"] = events > 0 ? s[Layer::kReplay] / events * 1e9 : 0;
  l["util.crc32c_MBps"] =
      s[Layer::kCrc] > 0 ? rep->crc_bytes / 1e6 / s[Layer::kCrc] : 0;
  l["obs.span_coverage_pct"] =
      rep->total_s > 0 ? 100.0 * s.Sum() / rep->total_s : 0;
}

double Median(std::vector<double> v) {
  if (v.empty()) return 0;
  std::sort(v.begin(), v.end());
  const size_t n = v.size();
  return n % 2 ? v[n / 2] : (v[n / 2 - 1] + v[n / 2]) / 2.0;
}

struct Args {
  std::string workload;
  uint64_t seed = 1999;
  double seconds = 10;
  bool trace = false;
};

bool ParseArgs(int argc, char** argv, Args* a) {
  for (int i = 1; i < argc; ++i) {
    const std::string key = argv[i];
    if (i + 1 >= argc) return false;
    const char* v = argv[++i];
    if (key == "--workload") {
      a->workload = v;
    } else if (key == "--seed") {
      a->seed = std::strtoull(v, nullptr, 10);
    } else if (key == "--seconds") {
      a->seconds = std::strtod(v, nullptr);
    } else if (key == "--trace") {
      a->trace = std::strcmp(v, "1") == 0;
    } else {
      return false;
    }
  }
  return !a->workload.empty() && a->seconds > 0;
}

uint64_t PopulationSeed(uint64_t seed, int population) {
  return seed + 7919ull * static_cast<uint64_t>(population);
}

// Runs one repetition; a traced one also gets its host-time layers.
Rep RunRep(const Workload& w, uint64_t seed, bool traced) {
  Spans() = SpanTotals{};
  Spans().enabled = traced;
  Rep rep;
  rep.traced = traced;
  const Clock::time_point t0 = Clock::now();
  w.run(seed, traced, &rep);
  rep.total_s = SecondsSince(t0);
  Spans().enabled = false;
  if (traced) HostLayers(Spans(), &rep);
  return rep;
}

double PeakRssMiB() {
  struct rusage ru;
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // KiB on Linux
}

void PrintMetric(const std::string& name, double value, const char* kind,
                 const std::string& note = "") {
  std::printf("  %-34s %16.6f %-9s %-4s %s\n", name.c_str(), value,
              UnitOf(name), kind, note.c_str());
}

int Main(const Args& args, const Workload& w) {
  std::printf("perfbench %s seed=%llu seconds=%g trace=%d build=%s\n", w.name,
              static_cast<unsigned long long>(args.seed), args.seconds,
              args.trace ? 1 : 0, PERFBENCH_BUILD_TYPE);
  // Repetitions until the time is up and every population has run. A
  // traced run pairs an untraced and a traced repetition of each
  // population, alternating which runs first, so the two compare under the
  // same conditions.
  std::vector<Rep> reps;
  std::vector<int> population_of;
  const int per_population = args.trace ? 2 : 1;
  auto is_traced = [&](int population, int position) {
    return args.trace && position != population % 2;
  };
  const Clock::time_point start = Clock::now();
  for (int i = 0;; ++i) {
    const int population = (i / per_population) % kPopulations;
    reps.push_back(RunRep(w, PopulationSeed(args.seed, population),
                          is_traced(population, i % per_population)));
    population_of.push_back(population);
    std::printf("rep %d population %d%s: setup_s %.4f wall_s %.4f total_s "
                "%.4f\n",
                i, population, reps.back().traced ? " traced" : "",
                reps.back().setup_s, reps.back().wall_s, reps.back().total_s);
    // Return the freed testbed to the system, so the peak resident size is
    // that of the largest repetition rather than of heap fragmentation.
    malloc_trim(0);
    const int done = i + 1;
    if (done >= kPopulations * per_population && done % per_population == 0 &&
        SecondsSince(start) >= args.seconds) {
      break;
    }
  }

  int attempted = 0;
  std::vector<std::string> failures;
  for (size_t i = 0; i < reps.size(); ++i) {
    attempted += reps[i].attempted + 1;
    for (const auto& f : reps[i].failures) {
      failures.push_back("population " + std::to_string(population_of[i]) +
                         ": " + f);
    }
    const size_t first = static_cast<size_t>(population_of[i] * per_population);
    if (reps[i].digest != reps[first].digest) {
      failures.push_back("rep " + std::to_string(i) +
                         (reps[i].traced ? " (traced)" : "") +
                         " digest differs from rep " + std::to_string(first));
    }
  }
  for (const auto& f : failures) std::printf("FAILED: %s\n", f.c_str());

  // Each population's first repetition carries its sim outputs; in a
  // traced run, its first traced one, so the digest printed is the traced
  // simulation's.
  std::vector<const Rep*> pops;
  std::string digest;
  for (int j = 0; j < kPopulations; ++j) {
    const int position = args.trace && !is_traced(j, 0) ? 1 : 0;
    pops.push_back(&reps[static_cast<size_t>(j * per_population + position)]);
    digest += "population " + std::to_string(j) + " seed=" +
              std::to_string(PopulationSeed(args.seed, j)) + "\n" +
              pops.back()->digest;
  }
  auto sim_mean = [&](const char* key) {
    double sum = 0;
    for (const Rep* r : pops) sum += r->sim.at(key);
    return sum / static_cast<double>(pops.size());
  };

  auto median_of = [&](bool want_traced, auto field) {
    std::vector<double> v;
    for (const Rep& r : reps) {
      if (r.traced == want_traced) v.push_back(field(r));
    }
    return Median(v);
  };
  const double wall = median_of(false, [](const Rep& r) { return r.wall_s; });
  const int untraced = static_cast<int>(reps.size()) / per_population;
  std::map<std::string, double> metrics;
  if (!args.trace) {
    metrics["wall_s"] = wall;
    metrics["setup_s"] =
        median_of(false, [](const Rep& r) { return r.setup_s; });
    metrics["peak_rss_MiB"] = PeakRssMiB();
    for (const char* k : {"paper_err_pct", "paper_max_err_pct",
                          "wire_per_raw", "fg_p50_ms", "fg_p99_ms",
                          "sim_window_s"}) {
      metrics[k] = sim_mean(k);
    }
    std::printf("end-to-end (host: median of %d reps; sim: mean of %d "
                "populations, exact per seed)\n",
                untraced, kPopulations);
    for (const char* k : {"wall_s", "setup_s", "peak_rss_MiB"}) {
      PrintMetric(k, metrics[k], KindOf(k));
    }
    PrintMetric("failed_frac",
                static_cast<double>(failures.size()) / attempted, "-",
                std::to_string(failures.size()) + " of " +
                    std::to_string(attempted));
    for (const char* k : {"paper_err_pct", "paper_max_err_pct",
                          "wire_per_raw", "sim_window_s"}) {
      PrintMetric(k, metrics[k], "sim");
    }
    const std::string samples =
        "n=" + std::to_string(static_cast<long long>(
                   sim_mean("fg_samples") * kPopulations)) +
        " over " + std::to_string(kPopulations) + " populations";
    PrintMetric("fg_p50_ms", metrics["fg_p50_ms"], "sim", samples);
    PrintMetric("fg_p99_ms", metrics["fg_p99_ms"], "sim", samples);
  } else {
    std::vector<std::string> names(std::begin(kLayerMetrics),
                                   std::end(kLayerMetrics));
    for (const char* job : kJobNames) {
      for (const char* m : kJobMetrics) {
        names.push_back(std::string("backup.") + job + "." + m);
      }
    }
    for (const std::string& n : names) {
      metrics[n] = median_of(true, [&](const Rep& r) {
        auto it = r.layer.find(n);
        return it == r.layer.end() ? 0.0 : it->second;
      });
    }
    const double traced_wall =
        median_of(true, [](const Rep& r) { return r.wall_s; });
    metrics["obs.trace_overhead_pct"] =
        wall > 0 ? (traced_wall / wall - 1.0) * 100.0 : 0;
    std::printf("per-layer (median of %d traced reps over %d populations)\n",
                untraced, kPopulations);
    for (const std::string& n : names) {
      PrintMetric(n, metrics[n], KindOf(n));
    }
  }

  std::printf("digest %s seed=%llu %016llx\n", w.name,
              static_cast<unsigned long long>(args.seed),
              static_cast<unsigned long long>(Fnv1a64(digest)));

  std::string json = "{\"correct\": ";
  json += failures.empty() ? "true" : "false";
  json += ", \"attempted\": " + std::to_string(attempted);
  json += ", \"failed\": " + std::to_string(failures.size());
  json += ", \"metrics\": {";
  bool comma = false;
  for (const auto& [name, value] : metrics) {
    char buf[64];
    std::snprintf(buf, sizeof(buf), "%.17g",
                  std::isfinite(value) ? value : 0.0);
    json += comma ? ", " : "";
    json += "\"" + name + "\": {\"value\": " + buf + ", \"unit\": \"" +
            UnitOf(name) + "\"}";
    comma = true;
  }
  json += "}}";
  std::printf("%s\n", json.c_str());
  return failures.empty() ? 0 : 1;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  using namespace perfbench;
  Args args;
  if (!ParseArgs(argc, argv, &args)) {
    std::fprintf(stderr,
                 "usage: perfbench --workload <name> --seed <n> --seconds "
                 "<s> --trace <0|1>\n");
    return 2;
  }
  for (const Workload& w : kWorkloads) {
    if (args.workload == w.name) return Main(args, w);
  }
  std::fprintf(stderr, "perfbench: unknown workload '%s'\n",
               args.workload.c_str());
  return 2;
}
