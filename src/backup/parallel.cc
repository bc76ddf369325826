#include "src/backup/parallel.h"

#include <cassert>
#include <type_traits>

#include "src/backup/pipeline.h"

namespace bkup {

namespace {

// One backup part per sink, all from one shared snapshot; the caller names
// the parts and sets their engine options. Part results are created as the
// fan-out spawns the parts.
template <typename ParallelResult>
FanOutSpec FanOutOver(Filer* filer, Filesystem* fs, std::string name,
                      SnapshotUse snapshot, std::string snapshot_name,
                      std::vector<RemoteTarget> sinks,
                      ParallelResult* result) {
  FanOutSpec spec;
  spec.filer = filer;
  spec.fs = fs;
  spec.name = std::move(name);
  spec.snapshot = std::move(snapshot);
  spec.snapshot_name = std::move(snapshot_name);
  for (RemoteTarget& sink : sinks) {
    BackupSpec part;
    part.filer = filer;
    part.fs = fs;
    part.sink = std::move(sink);
    spec.parts.push_back(std::move(part));
  }
  spec.attach = [result](BackupSpec* part) {
    using PartResult =
        typename decltype(result->parts)::value_type::element_type;
    result->parts.push_back(std::make_unique<PartResult>());
    part->report = &result->parts.back()->report;
    if constexpr (std::is_same_v<PartResult, LogicalBackupJobResult>) {
      part->logical = &result->parts.back()->dump;
    } else {
      part->image = &result->parts.back()->dump;
    }
  };
  spec.control = &result->control;
  spec.merged = &result->merged;
  return spec;
}

// Stripes the image dump: part k of N to sink k.
Task StripedImageBackup(FanOutSpec spec, const std::string& part_name,
                        const ImageDumpOptions& base_options,
                        CountdownLatch* done) {
  const size_t n = spec.parts.size();
  for (size_t k = 0; k < n; ++k) {
    BackupSpec& part = spec.parts[k];
    part.name = part_name + " [part " + std::to_string(k) + "/" +
                std::to_string(n) + "]";
    part.image_options = base_options;
    part.image_options.part_index = static_cast<uint32_t>(k);
    part.image_options.part_count = static_cast<uint32_t>(n);
  }
  return FanOutBody(std::move(spec), done);
}

// Per-drive sinks on the filer, drawing remount media from the stacker
// slice `spare_tapes[k]` (empty when the caller supplied none).
std::vector<RemoteTarget> LocalSinks(
    const std::vector<TapeDrive*>& drives,
    const std::vector<std::vector<Tape*>>& spare_tapes,
    const SupervisionPolicy* supervision, BackupQos qos,
    const ContentConfig& content) {
  std::vector<RemoteTarget> sinks;
  for (size_t k = 0; k < drives.size(); ++k) {
    sinks.push_back(LocalMedia(drives[k],
                               k < spare_tapes.size() ? spare_tapes[k]
                                                      : std::vector<Tape*>{},
                               supervision, qos, content));
  }
  return sinks;
}

template <typename PartResult>
void MergeParts(const char* name,
                const std::vector<std::unique_ptr<PartResult>>& parts,
                JobReport* merged) {
  std::vector<JobReport> reports;
  for (const auto& p : parts) {
    reports.push_back(p->report);
  }
  *merged = MergeReports(name, reports);
}

}  // namespace

Task ParallelLogicalBackupJob(Filer* filer, Filesystem* fs,
                              std::vector<TapeDrive*> drives,
                              std::vector<std::string> subtrees,
                              LogicalDumpOptions base_options,
                              ParallelLogicalBackupResult* result,
                              CountdownLatch* done,
                              const SupervisionPolicy* supervision,
                              std::vector<std::vector<Tape*>> spare_tapes,
                              BackupQos qos, ContentConfig content) {
  assert(drives.size() == subtrees.size() && !drives.empty());
  FanOutSpec spec = FanOutOver(
      filer, fs, "Parallel logical backup", {.default_name = "dump.parallel"},
      base_options.snapshot_name,
      LocalSinks(drives, spare_tapes, supervision, qos, content), result);
  for (size_t k = 0; k < drives.size(); ++k) {
    BackupSpec& part = spec.parts[k];
    part.name = "Logical backup [" + subtrees[k] + "]";
    part.logical_options = base_options;
    part.logical_options.subtree = subtrees[k];
  }
  return FanOutBody(std::move(spec), done);
}

Task ParallelLogicalRestoreJob(Filer* filer, Filesystem* fs,
                               std::vector<TapeDrive*> drives,
                               std::vector<std::string> target_dirs,
                               bool bypass_nvram,
                               ParallelLogicalRestoreResult* result,
                               CountdownLatch* done, ContentConfig content) {
  assert(drives.size() == target_dirs.size() && !drives.empty());
  SimEnvironment* env = filer->env();
  // Every target dir exists before any part starts: a part spawned ahead of
  // a failing Mkdir would outlive this frame and its latch.
  for (const std::string& dir : target_dirs) {
    if (dir != "/" && !fs->LookupPath(dir).ok()) {
      Result<Inum> made = fs->Mkdir(dir, 0755);
      if (!made.ok()) {
        result->merged.status = made.status();
        done->CountDown();
        co_return;
      }
    }
  }
  CountdownLatch parts_done(env, static_cast<int>(drives.size()));
  for (size_t k = 0; k < drives.size(); ++k) {
    LogicalRestoreOptions options;
    options.target_dir = target_dirs[k];
    result->parts.push_back(std::make_unique<LogicalRestoreJobResult>());
    env->Spawn(LogicalRestoreJob(filer, fs, drives[k], options, bypass_nvram,
                                 result->parts.back().get(), &parts_done, {},
                                 nullptr, content));
  }
  co_await parts_done.Wait();
  MergeParts("Parallel logical restore", result->parts, &result->merged);
  done->CountDown();
}

Task ParallelImageBackupJob(Filer* filer, Filesystem* fs,
                            std::vector<TapeDrive*> drives,
                            ImageDumpOptions base_options,
                            bool delete_snapshot_after,
                            ParallelImageBackupResult* result,
                            CountdownLatch* done,
                            const SupervisionPolicy* supervision,
                            std::vector<std::vector<Tape*>> spare_tapes,
                            BackupQos qos, ContentConfig content) {
  assert(!drives.empty());
  return StripedImageBackup(
      FanOutOver(filer, fs, "Parallel physical backup",
                 {.default_name = "image.parallel",
                  .reuse = true,
                  .keep = !delete_snapshot_after},
                 base_options.snapshot_name,
                 LocalSinks(drives, spare_tapes, supervision, qos, content),
                 result),
      "Physical backup", base_options, done);
}

Task ParallelRemoteImageBackupJob(Filer* filer, Filesystem* fs, NetLink* link,
                                  TapeServer* server,
                                  std::vector<TapeDrive*> drives,
                                  ImageDumpOptions base_options,
                                  bool delete_snapshot_after,
                                  const SupervisionPolicy* supervision,
                                  ParallelRemoteImageBackupResult* result,
                                  CountdownLatch* done, BackupQos qos,
                                  ContentConfig content) {
  assert(!drives.empty());
  std::vector<RemoteTarget> sinks =
      LocalSinks(drives, {}, supervision, qos, content);
  for (RemoteTarget& sink : sinks) {
    sink.link = link;
    sink.server = server;
  }
  return StripedImageBackup(
      FanOutOver(filer, fs, "Parallel remote physical backup",
                 {.default_name = "image.remote.parallel",
                  .reuse = true,
                  .keep = !delete_snapshot_after},
                 base_options.snapshot_name, std::move(sinks), result),
      "Remote physical backup", base_options, done);
}

Task ParallelImageRestoreJob(Filer* filer, Volume* volume,
                             std::vector<TapeDrive*> drives,
                             ParallelImageRestoreResult* result,
                             CountdownLatch* done, ContentConfig content) {
  assert(!drives.empty());
  SimEnvironment* env = filer->env();
  CountdownLatch parts_done(env, static_cast<int>(drives.size()));
  for (TapeDrive* drive : drives) {
    result->parts.push_back(std::make_unique<ImageRestoreJobResult>());
    env->Spawn(ImageRestoreJob(filer, volume, drive,
                               result->parts.back().get(), &parts_done, {},
                               nullptr, content));
  }
  co_await parts_done.Wait();
  MergeParts("Parallel physical restore", result->parts, &result->merged);
  done->CountDown();
}

}  // namespace bkup
