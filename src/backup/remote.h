// Remote backup and restore: the local jobs of jobs.h with a simulated
// network spliced between the filer and the tape.
//
// The paper's dump-stream portability claim (§2: the stream "can be written
// to tape, to a file, or sent over a network"; §6's three-way restore
// matrix) is exercised literally here — the same functional engines and the
// same replay halves run, but the producer lives on the filer and the tape
// writer on a `TapeServer` across a `NetLink`:
//
//     [disk reads + CPU] -> Channel<chunk> -> StreamConn -> [tape writes]
//         (filer)                              (NetLink)    (tape server)
//
// A stream that outlives its connection (a frame lost beyond its retransmit
// budget) is reconnected by the supervisor and resumed from the receiver's
// acked watermark — the network analogue of the tape remount ladder. See
// DESIGN.md §10 for the transport model.
#ifndef BKUP_BACKUP_REMOTE_H_
#define BKUP_BACKUP_REMOTE_H_

#include <memory>
#include <vector>

#include "src/backup/jobs.h"
#include "src/backup/parallel.h"
#include "src/backup/supervisor.h"
#include "src/net/link.h"
#include "src/net/stream_conn.h"
#include "src/net/tape_server.h"

namespace bkup {

// Where a remote job's stream lands (or comes from): one drive on a tape
// server, reached over a link. `spare_tapes` plays the same double role as
// for the local jobs — spanning set and remount pool, now on the server
// side. A null `supervision` fails the job on the first unrecovered link or
// tape error; with a policy, connections are re-made per `link_retry`.
// Inside the library the same struct with a null `link` describes a local
// drive: every job's media is a RemoteTarget (src/backup/pipeline.h).
struct RemoteTarget {
  NetLink* link = nullptr;
  TapeServer* server = nullptr;
  TapeDrive* drive = nullptr;
  std::vector<Tape*> spare_tapes;
  const SupervisionPolicy* supervision = nullptr;
  // Backup QoS for jobs run against this target. The throttle paces the
  // *wire* (every StreamConn of the session acquires each frame's bytes
  // before transmitting — not the producer, so bytes are charged once);
  // io_priority demotes the filer-side disk/CPU charges as for local jobs.
  BackupQos qos;
  // Content stages (DESIGN.md §16): backups encode on the filer before the
  // link, so the session ships wire bytes (the throttle and the acked-floor
  // reconnect machinery operate in post-stage coordinates, and a resend
  // never re-charges encode CPU); restores decode on the filer after the
  // link. Restores must pass the same config — in particular the same
  // ChunkIndex — the backup ran with.
  ContentConfig content;
};

// Snapshot create -> 4-phase dump, streamed over the link to the server's
// drive -> snapshot delete. The report's net columns show the link payload.
Task RemoteLogicalBackupJob(Filer* filer, Filesystem* fs, RemoteTarget target,
                            LogicalDumpOptions options,
                            LogicalBackupJobResult* result,
                            CountdownLatch* done);

// Restores a logical stream read off the server's drive, shipped to the
// filer over the link, and replayed through the file system.
Task RemoteLogicalRestoreJob(Filer* filer, Filesystem* fs, RemoteTarget target,
                             LogicalRestoreOptions options, bool bypass_nvram,
                             LogicalRestoreJobResult* result,
                             CountdownLatch* done);

struct RemoteSingleFileRestoreResult {
  LogicalRestoreOutput restore;
  JobReport report;
  uint64_t link_bytes = 0;         // stream bytes actually shipped
  uint64_t full_stream_bytes = 0;  // what a naive full-stream pull would move
  bool budget_rejected = false;    // the LinkBudget refused the reservation
};

// Restores one file (or subtree) from the server's media using the dump's
// catalog: the catalog turns the path into exact byte ranges, the server
// reads only those ranges (seek/read ladders via TapeServer::ReadRange), and
// only O(file) bytes cross the link instead of the whole stream — the
// paper's "stupidity recovery" at WAN cost. `budget` (optional) gates the
// transfer on the nightly link allowance, reserving the catalog's estimate
// up front. Single-media only: ranges address the drive's mounted tape.
Task RemoteSingleFileRestoreJob(Filer* filer, Filesystem* fs,
                                RemoteTarget target,
                                const TapeCatalog* catalog, std::string path,
                                LogicalRestoreOptions options,
                                bool bypass_nvram, LinkBudget* budget,
                                RemoteSingleFileRestoreResult* result,
                                CountdownLatch* done);

// Block-order image dump streamed over the link to the server's drive.
Task RemoteImageBackupJob(Filer* filer, Filesystem* fs, RemoteTarget target,
                          ImageDumpOptions options, bool delete_snapshot_after,
                          ImageBackupJobResult* result, CountdownLatch* done);

// Image restore of the server-side media straight into the RAID layer.
Task RemoteImageRestoreJob(Filer* filer, Volume* volume, RemoteTarget target,
                           ImageRestoreJobResult* result, CountdownLatch* done);

// The same striped dump as ParallelImageBackupJob, so the same result.
using ParallelRemoteImageBackupResult = ParallelImageBackupResult;

// Stripes one image dump over N server drives (part k of N per drive) from
// one shared snapshot, each part on its own stream session — all of them
// contending for the same link, which is what makes the link the bottleneck
// where local parallel physical dump scales with drives.
// `qos` applies to every part; the parts' sessions share one throttle
// bucket, so the cap bounds the aggregate link rate of the striped dump.
Task ParallelRemoteImageBackupJob(Filer* filer, Filesystem* fs, NetLink* link,
                                  TapeServer* server,
                                  std::vector<TapeDrive*> drives,
                                  ImageDumpOptions base_options,
                                  bool delete_snapshot_after,
                                  const SupervisionPolicy* supervision,
                                  ParallelRemoteImageBackupResult* result,
                                  CountdownLatch* done, BackupQos qos = {},
                                  ContentConfig content = {});

}  // namespace bkup

#endif  // BKUP_BACKUP_REMOTE_H_
