// The job bodies every public entry point wraps (pipeline.h), and the
// local entry points of jobs.h.
#include "src/backup/jobs.h"

#include "src/backup/pipeline.h"
#include "src/obs/flight_recorder.h"
#include "src/obs/metrics.h"
#include "src/obs/trace.h"

namespace bkup {

namespace {

// The report envelope: every exit of every job closes what it opened.
void OpenReport(JobReport* report, Filer* filer, std::string name) {
  report->name = std::move(name);
  report->start_time = filer->env()->now();
  report->cpu_busy_start = filer->cpu().BusyIntegral();
}

void CloseReport(JobReport* report, Filer* filer) {
  report->end_time = filer->env()->now();
  report->cpu_busy_end = filer->cpu().BusyIntegral();
}

// Opens a backup's snapshot bracket: takes `snap` unless `use.reuse` finds
// it already there. *created tells the closing half whether this job owns
// the snapshot.
Task OpenSnapshot(Filer* filer, Filesystem* fs, const SnapshotUse& use,
                  const std::string& snap, int priority, JobReport* report,
                  bool* created) {
  *created = !use.reuse || !fs->FindSnapshot(snap).ok();
  if (!*created) {
    co_return;
  }
  report->status = fs->CreateSnapshot(snap);
  if (!report->status.ok()) {
    *created = false;
    co_return;
  }
  co_await SnapshotPhase(filer, report, JobPhase::kCreateSnapshot,
                         filer->model().snapshot_create_time, priority);
}

Task DeleteSnapshot(Filer* filer, Filesystem* fs, const std::string& snap,
                    int priority, JobReport* report) {
  Status del = fs->DeleteSnapshot(snap);
  if (!del.ok() && report->status.ok()) {
    report->status = del;
  }
  co_await SnapshotPhase(filer, report, JobPhase::kDeleteSnapshot,
                         filer->model().snapshot_delete_time, priority);
}

// The raw stream a restore reads. With content stages the media hold the
// wire image: invert the pipeline first (verifying every store-backed
// frame) so the restore engine sees the exact raw stream the dump produced,
// and keep the coordinate map for the replay. Without, the media are the
// raw stream.
struct DecodedMedia {
  FrameMap map;
  std::vector<uint8_t> raw;
};

Status DecodeMedia(std::span<const uint8_t> media, const ContentConfig& content,
                   JobReport* report, DecodedMedia* out,
                   std::span<const uint8_t>* raw) {
  *raw = media;
  if (!content.enabled()) {
    return Status::Ok();
  }
  BKUP_ASSIGN_OR_RETURN(out->map, FrameMap::FromWire(media));
  BKUP_ASSIGN_OR_RETURN(out->raw,
                        StagePipeline(content).Decode(media, &report->content));
  *raw = out->raw;
  return Status::Ok();
}

// Meta-data write amplification measured from the real consistency points
// the functional restore performed since MarkCpCounters.
double MetaMultiplier(const Filesystem& fs) {
  const uint64_t data_writes = fs.cp_data_writes_since_mark();
  const uint64_t meta_writes = fs.cp_meta_writes_since_mark();
  return data_writes > 0 ? static_cast<double>(meta_writes) /
                               static_cast<double>(data_writes)
                         : 0.5;
}

// The selected restore's link cost: catalog ranges are raw; what the link
// moves is their frame-aligned wire cover.
uint64_t LinkSizeOf(const std::vector<StreamRange>& raw_ranges,
                    const FrameMap* map) {
  uint64_t total = 0;
  for (const StreamRange& r :
       map != nullptr ? map->WireRangesOf(raw_ranges) : raw_ranges) {
    total += r.size();
  }
  return total;
}

}  // namespace

RemoteTarget LocalMedia(TapeDrive* tape, std::vector<Tape*> spare_tapes,
                        const SupervisionPolicy* supervision, BackupQos qos,
                        ContentConfig content) {
  RemoteTarget media;
  media.drive = tape;
  media.spare_tapes = std::move(spare_tapes);
  media.supervision = supervision;
  media.qos = qos;
  media.content = content;
  return media;
}

Task BackupBody(BackupSpec spec, CountdownLatch* done) {
  Filer* filer = spec.filer;
  Filesystem* fs = spec.fs;
  SimEnvironment* env = filer->env();
  JobReport& report = *spec.report;
  const int priority = spec.sink.qos.io_priority;
  OpenReport(&report, filer, spec.name);

  std::string& snap = spec.logical != nullptr
                          ? spec.logical_options.snapshot_name
                          : spec.image_options.snapshot_name;
  bool created = false;
  if (!spec.snapshot.default_name.empty()) {
    if (snap.empty()) {
      snap = spec.snapshot.default_name;
    }
    co_await OpenSnapshot(filer, fs, spec.snapshot, snap, priority, &report,
                          &created);
  }

  const IoTrace* trace = nullptr;
  std::span<const uint8_t> stream;
  uint64_t data_blocks = 0;
  if (report.status.ok() && spec.logical != nullptr) {
    LogicalDumpOptions& options = spec.logical_options;
    options.dump_time = env->now();
    if (spec.sink.supervision != nullptr &&
        spec.sink.supervision->skip_unreadable_files) {
      // Graceful degradation: a logical dump can drop what it cannot read
      // and still produce a consistent stream; an image dump cannot.
      options.skip_unreadable = true;
    }
    Result<FsReader> reader = fs->SnapshotReader(snap);
    Result<LogicalDumpOutput> dump =
        reader.ok() ? RunLogicalDump(*reader, options)
                    : Result<LogicalDumpOutput>(reader.status());
    if (dump.ok()) {
      *spec.logical = std::move(*dump);
      report.faults.files_skipped += spec.logical->stats.files_skipped;
      trace = &spec.logical->trace;
      stream = spec.logical->stream;
      data_blocks = spec.logical->stats.data_blocks;
    } else {
      report.status = dump.status();
    }
  } else if (report.status.ok()) {
    spec.image_options.dump_time = env->now();
    Result<ImageDumpOutput> dump =
        RunImageDump(fs->volume(), spec.image_options);
    if (dump.ok()) {
      *spec.image = std::move(*dump);
      trace = &spec.image->trace;
      stream = spec.image->stream;
      data_blocks = spec.image->stats.blocks_dumped;
    } else {
      report.status = dump.status();
    }
  }

  if (trace != nullptr) {
    ReplayConfig cfg;
    cfg.filer = filer;
    cfg.volume = fs->volume();
    cfg.media = spec.sink;
    CountdownLatch replay_done(env, 1);
    env->Spawn(BackupReplay(cfg, trace, stream, &report, &replay_done));
    co_await replay_done.Wait();
  }
  if (created && (!spec.snapshot.keep || trace == nullptr)) {
    co_await DeleteSnapshot(filer, fs, snap, priority, &report);
  }
  CloseReport(&report, filer);
  report.data_bytes = data_blocks * kBlockSize;
  done->CountDown();
}

Task FanOutBody(FanOutSpec spec, CountdownLatch* done) {
  Filer* filer = spec.filer;
  SimEnvironment* env = filer->env();
  JobReport& control = *spec.control;
  const int priority = spec.parts.front().sink.qos.io_priority;
  OpenReport(&control, filer, spec.name + " (control)");
  const std::string snap = spec.snapshot_name.empty()
                               ? spec.snapshot.default_name
                               : spec.snapshot_name;
  bool created = false;
  co_await OpenSnapshot(filer, spec.fs, spec.snapshot, snap, priority,
                        &control, &created);
  if (!control.status.ok()) {
    CloseReport(&control, filer);
    done->CountDown();
    co_return;
  }

  CountdownLatch parts_done(env, static_cast<int>(spec.parts.size()));
  for (BackupSpec& part : spec.parts) {
    part.logical_options.snapshot_name = snap;
    part.image_options.snapshot_name = snap;
    spec.attach(&part);
    env->Spawn(BackupBody(part, &parts_done));
  }
  co_await parts_done.Wait();

  if (created && !spec.snapshot.keep) {
    co_await DeleteSnapshot(filer, spec.fs, snap, priority, &control);
  }
  CloseReport(&control, filer);
  std::vector<JobReport> reports{control};
  for (const BackupSpec& part : spec.parts) {
    reports.push_back(*part.report);
  }
  *spec.merged = MergeReports(spec.name, reports);
  done->CountDown();
}

Task RestoreBody(RestoreSpec spec, CountdownLatch* done) {
  Filer* filer = spec.filer;
  SimEnvironment* env = filer->env();
  JobReport& report = *spec.report;
  const RemoteTarget& source = spec.source;
  OpenReport(&report, filer, spec.name);

  // A selected restore reads ranges off the mounted media only; any other
  // restores a multi-volume set as the concatenation of its media.
  const bool selected = spec.single != nullptr;
  std::vector<uint8_t> spliced;
  std::span<const uint8_t> media;
  if (!source.drive->loaded()) {
    report.status = FailedPrecondition("no tape loaded for restore");
  } else if (selected && spec.options.catalog == nullptr) {
    report.status = InvalidArgument("single-file restore needs a catalog");
  } else {
    media = source.drive->tape()->contents();
    if (!selected && !source.spare_tapes.empty()) {
      spliced.assign(media.begin(), media.end());
      for (Tape* t : source.spare_tapes) {
        spliced.insert(spliced.end(), t->contents().begin(),
                       t->contents().end());
      }
      media = spliced;
    }
  }
  if (selected) {
    spec.single->full_stream_bytes = media.size();
  }

  DecodedMedia decoded;
  std::span<const uint8_t> raw;
  if (report.status.ok()) {
    report.status =
        DecodeMedia(media, source.content, &report, &decoded, &raw);
  }
  const FrameMap* map =
      source.content.enabled() ? &decoded.map : nullptr;

  // A selected restore reserves the link allowance up front from the
  // catalog's estimate — the ranges it will pull, known before any byte
  // moves.
  uint64_t estimate = 0;
  if (report.status.ok() && selected) {
    Result<RestoreCatalog> names = BuildRestoreCatalog(raw);
    Result<Inum> picked = names.ok() ? names->Namei(spec.options.select[0])
                                     : Result<Inum>(names.status());
    if (!picked.ok()) {
      report.status = picked.status();
    } else {
      estimate = LinkSizeOf(
          spec.options.catalog->RestoreRanges(names->Descendants(*picked)),
          map);
      if (spec.budget != nullptr && !spec.budget->TryReserve(estimate)) {
        spec.single->budget_rejected = true;
        report.status = Exhausted("link budget rejected single-file restore");
      }
    }
  }

  ReplayConfig cfg;
  cfg.filer = filer;
  cfg.media = source;
  cfg.content_map = map;
  const IoTrace* trace = nullptr;
  std::optional<std::vector<StreamRange>> ranges;
  uint64_t data_bytes = 0;
  if (report.status.ok() && spec.logical != nullptr) {
    spec.fs->MarkCpCounters();
    Result<LogicalRestoreOutput> restored =
        RunLogicalRestore(spec.fs, raw, spec.options);
    if (restored.ok()) {
      *spec.logical = std::move(*restored);
      cfg.volume = spec.fs->volume();
      cfg.charge_nvram = !spec.bypass_nvram;
      cfg.write_meta_multiplier = MetaMultiplier(*spec.fs);
      trace = &spec.logical->trace;
      if (selected) {
        ranges = spec.logical->consumed_ranges;
      }
      data_bytes = spec.logical->stats.bytes_restored;
    } else {
      if (spec.budget != nullptr) {
        spec.budget->Cancel(estimate);
      }
      report.status = restored.status();
    }
  } else if (report.status.ok()) {
    // Image restore bypasses the NVRAM log ("bypass the NVRAM ... further
    // enhancing performance").
    Result<ImageRestoreOutput> restored = RunImageRestore(spec.volume, raw);
    if (restored.ok()) {
      *spec.image = std::move(*restored);
      cfg.volume = spec.volume;
      trace = &spec.image->trace;
      data_bytes = spec.image->stats.blocks_restored * kBlockSize;
    } else {
      report.status = restored.status();
    }
  }

  if (trace != nullptr) {
    CountdownLatch replay_done(env, 1);
    env->Spawn(RestoreReplay(cfg, trace, media, raw.size(), ranges, &report,
                             &replay_done));
    co_await replay_done.Wait();
    if (selected) {
      RemoteSingleFileRestoreResult& single = *spec.single;
      single.link_bytes = LinkSizeOf(single.restore.consumed_ranges, map);
      if (spec.budget != nullptr) {
        spec.budget->Commit(estimate, single.link_bytes);
      }
      MetricsRegistry::Default()
          .GetCounter("restore.single_file.link_bytes")
          ->Increment(single.link_bytes);
    }
  }
  CloseReport(&report, filer);
  report.data_bytes = data_bytes;
  done->CountDown();
}

Task LogicalBackupJob(Filer* filer, Filesystem* fs, TapeDrive* tape,
                      LogicalDumpOptions options,
                      LogicalBackupJobResult* result, CountdownLatch* done,
                      std::vector<Tape*> spare_tapes,
                      const SupervisionPolicy* supervision, BackupQos qos,
                      ContentConfig content) {
  return BackupBody({.filer = filer,
                     .fs = fs,
                     .name = "Logical backup",
                     .sink = LocalMedia(tape, std::move(spare_tapes),
                                        supervision, qos, content),
                     .snapshot = {.default_name = "dump.auto"},
                     .report = &result->report,
                     .logical = &result->dump,
                     .logical_options = std::move(options)},
                    done);
}

Task ImageBackupJob(Filer* filer, Filesystem* fs, TapeDrive* tape,
                    ImageDumpOptions options, bool delete_snapshot_after,
                    ImageBackupJobResult* result, CountdownLatch* done,
                    std::vector<Tape*> spare_tapes,
                    const SupervisionPolicy* supervision, BackupQos qos,
                    ContentConfig content) {
  return BackupBody({.filer = filer,
                     .fs = fs,
                     .name = "Physical backup",
                     .sink = LocalMedia(tape, std::move(spare_tapes),
                                        supervision, qos, content),
                     .snapshot = {.default_name = "image.auto",
                                  .reuse = true,
                                  .keep = !delete_snapshot_after},
                     .report = &result->report,
                     .image = &result->dump,
                     .image_options = std::move(options)},
                    done);
}

Task LogicalRestoreJob(Filer* filer, Filesystem* fs, TapeDrive* tape,
                       LogicalRestoreOptions options, bool bypass_nvram,
                       LogicalRestoreJobResult* result, CountdownLatch* done,
                       std::vector<Tape*> spare_tapes,
                       const SupervisionPolicy* supervision,
                       ContentConfig content) {
  return RestoreBody({.filer = filer,
                      .name = bypass_nvram ? "Logical restore (NVRAM bypass)"
                                           : "Logical restore",
                      .source = LocalMedia(tape, std::move(spare_tapes),
                                           supervision, {}, content),
                      .report = &result->report,
                      .fs = fs,
                      .options = std::move(options),
                      .bypass_nvram = bypass_nvram,
                      .logical = &result->restore},
                     done);
}

Task ImageRestoreJob(Filer* filer, Volume* volume, TapeDrive* tape,
                     ImageRestoreJobResult* result, CountdownLatch* done,
                     std::vector<Tape*> spare_tapes,
                     const SupervisionPolicy* supervision,
                     ContentConfig content) {
  return RestoreBody({.filer = filer,
                      .name = "Physical restore",
                      .source = LocalMedia(tape, std::move(spare_tapes),
                                           supervision, {}, content),
                      .report = &result->report,
                      .volume = volume,
                      .image = &result->restore},
                     done);
}

Task ResumableLogicalRestoreJob(Filer* filer, std::unique_ptr<Filesystem>* fs,
                                Volume* volume, TapeDrive* tape,
                                LogicalRestoreOptions options,
                                bool bypass_nvram,
                                const SupervisionPolicy* supervision,
                                ResumableRestoreConfig resume,
                                ResumableRestoreJobResult* result,
                                CountdownLatch* done) {
  SimEnvironment* env = filer->env();
  JobReport& report = result->report;
  OpenReport(&report, filer, "Resumable logical restore");

  // Single-media only: the ranged reads address the mounted tape directly.
  // The wire image is decoded once (it is a pure function of the media);
  // each incarnation's ranged replay still pays tape and decode CPU only
  // for the wire frames its resume actually needs.
  std::span<const uint8_t> media;
  DecodedMedia decoded;
  std::span<const uint8_t> stream;
  if (!tape->loaded()) {
    report.status = FailedPrecondition("no tape loaded for restore");
  } else if (resume.catalog == nullptr) {
    report.status = InvalidArgument("resumable restore needs a catalog");
  } else {
    media = tape->tape()->contents();
    report.status =
        DecodeMedia(media, resume.content, &report, &decoded, &stream);
  }
  if (!report.status.ok()) {
    CloseReport(&report, filer);
    done->CountDown();
    co_return;
  }

  options.catalog = resume.catalog;
  options.kill = resume.kill;
  options.checkpoint_every = resume.checkpoint_every;

  static const SupervisionPolicy kDefaultPolicy;
  const RetryPolicy& restart = (supervision != nullptr ? *supervision
                                                       : kDefaultPolicy)
                                   .restart_retry;
  // One trace spans every incarnation: each supervised restart continues
  // the same trace id with a bumped incarnation label.
  TraceContext ctx;
  if (Tracer* tracer = env->tracer()) {
    ctx = tracer->StartTrace();
  }
  int attempt = 0;
  while (true) {
    ScopedTraceSpan incarnation_span(
        env->tracer(), ("job:" + report.name).c_str(),
        "incarnation#" + std::to_string(attempt), ctx);
    ++result->attempts;
    options.resume = attempt > 0;
    (*fs)->MarkCpCounters();
    Result<LogicalRestoreOutput> restored =
        RunLogicalRestore(fs->get(), stream, options);
    if (!restored.ok()) {
      report.status = restored.status();
      break;
    }
    report.resume.bytes_skipped += restored->stats.bytes_skipped;
    report.resume.entries_skipped += restored->stats.entries_skipped;
    report.resume.checkpoints += restored->stats.checkpoints;
    if (attempt > 0) {
      report.resume.bytes_replayed += restored->stats.bytes_replayed;
    }
    report.data_bytes += restored->stats.bytes_restored;

    ReplayConfig cfg;
    cfg.filer = filer;
    cfg.volume = volume;
    cfg.media = LocalMedia(tape, {}, supervision, {}, resume.content);
    cfg.charge_nvram = !bypass_nvram;
    cfg.write_meta_multiplier = MetaMultiplier(**fs);
    cfg.content_map = resume.content.enabled() ? &decoded.map : nullptr;
    CountdownLatch replay_done(env, 1);
    env->Spawn(RestoreReplay(cfg, &restored->trace, media, stream.size(),
                             restored->consumed_ranges, &report,
                             &replay_done));
    co_await replay_done.Wait();

    const bool interrupted = restored->interrupted;
    result->restore = std::move(*restored);
    if (!interrupted) {
      break;  // this incarnation finished the restore
    }
    // The process died mid-stream: reboot, remount the last consistency
    // point, back off on the restart schedule, and resume from the catalog.
    report.resume.resumes++;
    if (Tracer* tracer = env->tracer()) {
      tracer->Instant(tracer->Track("faults"), "restore.kill", ctx);
    }
    if (FlightRecorder* recorder = env->flight_recorder()) {
      recorder->RecordFault(
          "crash", report.name,
          "kill at offset " + std::to_string(result->restore.stopped_at) +
              ", incarnation " + std::to_string(attempt));
    }
    ctx = ctx.NextIncarnation();
    ++attempt;
    if (attempt >= restart.max_attempts) {
      report.status = Exhausted("restore restart budget exhausted");
      break;
    }
    co_await env->Delay(restart.BackoffBefore(attempt));
    if (resume.remount_between_attempts) {
      fs->reset();
      Result<std::unique_ptr<Filesystem>> mounted =
          Filesystem::Mount(volume, env);
      if (!mounted.ok()) {
        report.status = mounted.status();
        break;
      }
      *fs = std::move(*mounted);
    }
  }

  CloseReport(&report, filer);
  // Chaos-kill black box: a run that had to resume leaves a flight record
  // whose kill points and replayed-range stats mirror JobReport.resume.
  if (FlightRecorder* recorder = env->flight_recorder();
      recorder != nullptr && report.resume.resumes > 0) {
    recorder->AddStateProvider("resumable_restore", [&](JsonWriter* w) {
      w->BeginObject()
          .Field("job", report.name)
          .Field("attempts", static_cast<uint64_t>(result->attempts))
          .Field("resumes", report.resume.resumes)
          .Field("bytes_replayed", report.resume.bytes_replayed)
          .Field("bytes_skipped", report.resume.bytes_skipped)
          .Field("entries_skipped", report.resume.entries_skipped)
          .Field("checkpoints", report.resume.checkpoints)
          .Field("status_ok", report.status.ok())
          .EndObject();
    });
    const Status dumped = recorder->Dump("restore_resume");
    if (!dumped.ok() && report.status.ok()) {
      report.status = dumped;
    }
    recorder->RemoveStateProvider("resumable_restore");
  }
  done->CountDown();
}

}  // namespace bkup
