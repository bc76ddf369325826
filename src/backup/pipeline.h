// Internal to src/backup: the pieces every public job entry point is
// composed from. Nothing outside this library includes it.
//
// Three bodies carry all fifteen entry points of jobs.h, remote.h and
// parallel.h (jobs.cc):
//
//   backup body   snapshot bracket -> RunLogicalDump | RunImageDump
//                 -> BackupReplay
//   restore body  media -> DecodeMedia -> RunLogicalRestore | RunImageRestore
//                 -> RestoreReplay
//   fan-out       snapshot bracket -> N backup bodies -> merged report
//
// and two replays carry every stream (pipeline.cc). Whether the stream
// crosses a link is a property of the job's media, not a separate job: a
// `RemoteTarget` with a null `link` is a drive on the filer itself.
#ifndef BKUP_BACKUP_PIPELINE_H_
#define BKUP_BACKUP_PIPELINE_H_

#include <functional>
#include <optional>
#include <span>
#include <string>
#include <vector>

#include "src/backup/remote.h"

namespace bkup {

// Everything a replay needs beyond the trace and the stream.
struct ReplayConfig {
  Filer* filer = nullptr;
  Volume* volume = nullptr;
  // Where the stream goes (backup) or comes from (restore): a drive on the
  // filer, or with `media.link` set, a drive on a tape server across that
  // link. Its spare tapes double as the spanning set and the remount pool,
  // and its supervision, QoS and content stages apply to the whole replay.
  // Supervision null = fail on the first error (the pre-supervision model).
  RemoteTarget media;
  // Restore side, derived from the engine run by the restore body: logical
  // restore pays the NVRAM log unless bypassed, image restore never does;
  // the multiplier is the extra meta-data blocks written per data block at
  // consistency points, measured from the functional run's CP reports.
  bool charge_nvram = false;
  double write_meta_multiplier = 0.0;
  // Restore side: the wire image's coordinate map when content stages ran.
  // Readers then move wire bytes, watermarks are translated back to raw, and
  // per-phase tape/net byte counts are wire deltas. The engine always sees
  // the decoded raw stream.
  const FrameMap* content_map = nullptr;

  bool remote() const { return media.link != nullptr; }
};

// A drive on the filer as a job's media.
RemoteTarget LocalMedia(TapeDrive* tape, std::vector<Tape*> spare_tapes,
                        const SupervisionPolicy* supervision, BackupQos qos,
                        ContentConfig content);

// Replays a dump-side trace: charges disk reads and CPU per event and
// streams the produced bytes to the media, encoding them first when
// content stages are on (tapes and links then move wire bytes and the
// throttle paces post-stage rates). Takes the stream: the media's first
// tape adopts it (or the wire image), so the bytes end up on the tape, not
// in the caller's dump output. Accumulates phase stats into `report` (does
// not set the report's envelope fields).
Task BackupReplay(ReplayConfig cfg, const IoTrace* trace,
                  std::vector<uint8_t> stream, JobReport* report,
                  CountdownLatch* done);

// Replays a restore-side trace: reads `media` (what the drive holds — the
// wire image when content stages ran) back off the drive and charges CPU,
// NVRAM and disk writes as each event's bytes arrive. `raw_bytes` is the
// engine-side stream size. With `ranges` (raw, ascending — the engine's
// consumed_ranges), only those bytes are read, seek by seek, so resumed and
// single-file restores pay O(needed bytes) of tape time; ranges address the
// mounted media only. Without, the whole stream is read, spanning spares.
Task RestoreReplay(ReplayConfig cfg, const IoTrace* trace,
                   std::span<const uint8_t> media, uint64_t raw_bytes,
                   std::optional<std::vector<StreamRange>> ranges,
                   JobReport* report, CountdownLatch* done);

// Charges a snapshot create/delete window (~30 s at ~50% CPU) and records
// it as `phase` in the report. The duty-cycled CPU slices run at
// `priority`.
Task SnapshotPhase(Filer* filer, JobReport* report, JobPhase phase,
                   SimDuration duration, int priority);

// A backup's snapshot (Table 3's create and delete rows).
struct SnapshotUse {
  // Taken when the dump options name none; empty for a fan-out part, whose
  // parent holds the snapshot.
  std::string default_name;
  // An existing snapshot of that name is the quiesce point (image dumps:
  // parallel parts or an earlier job may share it); otherwise the job must
  // create it.
  bool reuse = false;
  // Keep a snapshot this job took once its dump produced a stream (it may
  // base a later incremental). A snapshot whose dump failed is always
  // dropped.
  bool keep = false;
};

// One backup: the engine that runs, its output, and where the stream goes.
// Exactly one of `logical` and `image` is set.
struct BackupSpec {
  Filer* filer = nullptr;
  Filesystem* fs = nullptr;
  std::string name;  // the report's name
  RemoteTarget sink;
  SnapshotUse snapshot;
  JobReport* report = nullptr;
  LogicalDumpOutput* logical = nullptr;
  LogicalDumpOptions logical_options = {};
  ImageDumpOutput* image = nullptr;
  ImageDumpOptions image_options = {};
};

Task BackupBody(BackupSpec spec, CountdownLatch* done);

// N backup parts run concurrently from one shared snapshot, held by the
// control report at the parts' I/O priority; the parts' sinks may share one
// throttle and ChunkIndex.
// The fan-out fills in each part's snapshot name, and `attach` creates the
// part's result object as the part is spawned, pointing its report and
// output there.
struct FanOutSpec {
  Filer* filer = nullptr;
  Filesystem* fs = nullptr;
  std::string name;  // the merged report's name
  SnapshotUse snapshot;
  std::string snapshot_name;  // the caller's base option; may be empty
  std::vector<BackupSpec> parts;
  std::function<void(BackupSpec* part)> attach;
  JobReport* control = nullptr;
  JobReport* merged = nullptr;
};

Task FanOutBody(FanOutSpec spec, CountdownLatch* done);

// One restore. Exactly one of `logical` (into `fs`, with `options`) and
// `image` (onto `volume`) is set. With `single` set, the restore selects
// one path (options.select) through options.catalog and moves only the
// ranges the engine consumed, gated on `budget` when one is given.
struct RestoreSpec {
  Filer* filer = nullptr;
  std::string name;  // the report's name
  RemoteTarget source;
  JobReport* report = nullptr;
  Filesystem* fs = nullptr;
  LogicalRestoreOptions options = {};
  bool bypass_nvram = false;
  LogicalRestoreOutput* logical = nullptr;
  Volume* volume = nullptr;
  ImageRestoreOutput* image = nullptr;
  RemoteSingleFileRestoreResult* single = nullptr;
  LinkBudget* budget = nullptr;
};

Task RestoreBody(RestoreSpec spec, CountdownLatch* done);

}  // namespace bkup

#endif  // BKUP_BACKUP_PIPELINE_H_
