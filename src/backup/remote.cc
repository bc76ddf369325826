// The remote entry points of remote.h: the local jobs' bodies with the
// stream's media on a tape server across the target's link.
#include "src/backup/remote.h"

#include "src/backup/pipeline.h"

namespace bkup {

Task RemoteLogicalBackupJob(Filer* filer, Filesystem* fs, RemoteTarget target,
                            LogicalDumpOptions options,
                            LogicalBackupJobResult* result,
                            CountdownLatch* done) {
  return BackupBody({.filer = filer,
                     .fs = fs,
                     .name = "Remote logical backup",
                     .sink = std::move(target),
                     .snapshot = {.default_name = "dump.remote"},
                     .report = &result->report,
                     .logical = &result->dump,
                     .logical_options = std::move(options)},
                    done);
}

Task RemoteLogicalRestoreJob(Filer* filer, Filesystem* fs, RemoteTarget target,
                             LogicalRestoreOptions options, bool bypass_nvram,
                             LogicalRestoreJobResult* result,
                             CountdownLatch* done) {
  return RestoreBody({.filer = filer,
                      .name = bypass_nvram
                                  ? "Remote logical restore (NVRAM bypass)"
                                  : "Remote logical restore",
                      .source = std::move(target),
                      .report = &result->report,
                      .fs = fs,
                      .options = std::move(options),
                      .bypass_nvram = bypass_nvram,
                      .logical = &result->restore},
                     done);
}

Task RemoteSingleFileRestoreJob(Filer* filer, Filesystem* fs,
                                RemoteTarget target,
                                const TapeCatalog* catalog, std::string path,
                                LogicalRestoreOptions options,
                                bool bypass_nvram, LinkBudget* budget,
                                RemoteSingleFileRestoreResult* result,
                                CountdownLatch* done) {
  options.select = {std::move(path)};
  options.catalog = catalog;
  return RestoreBody({.filer = filer,
                      .name = "Remote single-file restore",
                      .source = std::move(target),
                      .report = &result->report,
                      .fs = fs,
                      .options = std::move(options),
                      .bypass_nvram = bypass_nvram,
                      .logical = &result->restore,
                      .single = result,
                      .budget = budget},
                     done);
}

Task RemoteImageBackupJob(Filer* filer, Filesystem* fs, RemoteTarget target,
                          ImageDumpOptions options, bool delete_snapshot_after,
                          ImageBackupJobResult* result, CountdownLatch* done) {
  return BackupBody({.filer = filer,
                     .fs = fs,
                     .name = "Remote physical backup",
                     .sink = std::move(target),
                     .snapshot = {.default_name = "image.remote",
                                  .reuse = true,
                                  .keep = !delete_snapshot_after},
                     .report = &result->report,
                     .image = &result->dump,
                     .image_options = std::move(options)},
                    done);
}

Task RemoteImageRestoreJob(Filer* filer, Volume* volume, RemoteTarget target,
                           ImageRestoreJobResult* result,
                           CountdownLatch* done) {
  return RestoreBody({.filer = filer,
                      .name = "Remote physical restore",
                      .source = std::move(target),
                      .report = &result->report,
                      .volume = volume,
                      .image = &result->restore},
                     done);
}

}  // namespace bkup
