// Link-time span hooks around the engine, content and snapshot calls that
// the *Job coroutines make.
//
// CMakeLists.txt links the benchmark with `-Wl,--wrap=<symbol>` for each
// symbol below, so every call to it from the program's libraries resolves
// to `__wrap_<symbol>` here, which opens a span and forwards to the
// original, `__real_<symbol>`. The program's code is untouched and the
// simulation sees the same calls in the same order; only the host clock is
// read around them.
//
// The names are the Itanium C++ mangling of the public declarations in
// src/. If one of those declarations changes, the link fails on the
// matching `__real_` symbol, and both the mangled name here and the
// `--wrap` list in CMakeLists.txt must be updated together. Member
// functions are wrapped as free functions taking the object pointer first,
// which is how the Itanium ABI passes `this`.
#include <span>
#include <string>
#include <vector>

#include "perfbench/spans.h"
#include "src/content/content.h"
#include "src/dump/logical_dump.h"
#include "src/dump/logical_restore.h"
#include "src/fs/filesystem.h"
#include "src/image/image_dump.h"

namespace perfbench {

SpanTotals& Spans() {
  static SpanTotals totals;
  return totals;
}

}  // namespace perfbench

using bkup::ContentStats;
using bkup::EncodeResult;
using bkup::Filesystem;
using bkup::FsReader;
using bkup::ImageDumpOptions;
using bkup::ImageDumpOutput;
using bkup::ImageRestoreOutput;
using bkup::LogicalDumpOptions;
using bkup::LogicalDumpOutput;
using bkup::LogicalRestoreOptions;
using bkup::LogicalRestoreOutput;
using bkup::Result;
using bkup::StagePipeline;
using bkup::Status;
using bkup::Volume;
using perfbench::Layer;
using perfbench::ScopedSpan;
using Bytes = std::span<const uint8_t>;

#define PERFBENCH_MANGLED_RUN_LOGICAL_DUMP \
  "_ZN4bkup14RunLogicalDumpERKNS_8FsReaderERKNS_18LogicalDumpOptionsE"
#define PERFBENCH_MANGLED_RUN_LOGICAL_RESTORE                             \
  "_ZN4bkup17RunLogicalRestoreEPNS_10FilesystemESt4spanIKhLm"          \
  "18446744073709551615EERKNS_21LogicalRestoreOptionsE"
#define PERFBENCH_MANGLED_RUN_IMAGE_DUMP \
  "_ZN4bkup12RunImageDumpEPNS_6VolumeERKNS_16ImageDumpOptionsE"
#define PERFBENCH_MANGLED_RUN_IMAGE_RESTORE \
  "_ZN4bkup15RunImageRestoreEPNS_6VolumeESt4spanIKhLm18446744073709551615EE"
#define PERFBENCH_MANGLED_ENCODE \
  "_ZNK4bkup13StagePipeline6EncodeESt4spanIKhLm18446744073709551615EE"
#define PERFBENCH_MANGLED_DECODE                                         \
  "_ZNK4bkup13StagePipeline6DecodeESt4spanIKhLm18446744073709551615EE" \
  "PNS_12ContentStatsE"
#define PERFBENCH_MANGLED_CREATE_SNAPSHOT                        \
  "_ZN4bkup10Filesystem14CreateSnapshotERKNSt7__cxx1112basic_" \
  "stringIcSt11char_traitsIcESaIcEEE"

// The originals.
Result<LogicalDumpOutput> RealRunLogicalDump(const FsReader&,
                                             const LogicalDumpOptions&)
    __asm__("__real_" PERFBENCH_MANGLED_RUN_LOGICAL_DUMP);
Result<LogicalRestoreOutput> RealRunLogicalRestore(
    Filesystem*, Bytes, const LogicalRestoreOptions&)
    __asm__("__real_" PERFBENCH_MANGLED_RUN_LOGICAL_RESTORE);
Result<ImageDumpOutput> RealRunImageDump(Volume*, const ImageDumpOptions&)
    __asm__("__real_" PERFBENCH_MANGLED_RUN_IMAGE_DUMP);
Result<ImageRestoreOutput> RealRunImageRestore(Volume*, Bytes)
    __asm__("__real_" PERFBENCH_MANGLED_RUN_IMAGE_RESTORE);
Result<EncodeResult> RealEncode(const StagePipeline*, Bytes)
    __asm__("__real_" PERFBENCH_MANGLED_ENCODE);
Result<std::vector<uint8_t>> RealDecode(const StagePipeline*, Bytes,
                                        ContentStats*)
    __asm__("__real_" PERFBENCH_MANGLED_DECODE);
Status RealCreateSnapshot(Filesystem*, const std::string&)
    __asm__("__real_" PERFBENCH_MANGLED_CREATE_SNAPSHOT);

// The wrappers the linker routes the program's calls to.
Result<LogicalDumpOutput> WrapRunLogicalDump(const FsReader&,
                                             const LogicalDumpOptions&)
    __asm__("__wrap_" PERFBENCH_MANGLED_RUN_LOGICAL_DUMP);
Result<LogicalRestoreOutput> WrapRunLogicalRestore(
    Filesystem*, Bytes, const LogicalRestoreOptions&)
    __asm__("__wrap_" PERFBENCH_MANGLED_RUN_LOGICAL_RESTORE);
Result<ImageDumpOutput> WrapRunImageDump(Volume*, const ImageDumpOptions&)
    __asm__("__wrap_" PERFBENCH_MANGLED_RUN_IMAGE_DUMP);
Result<ImageRestoreOutput> WrapRunImageRestore(Volume*, Bytes)
    __asm__("__wrap_" PERFBENCH_MANGLED_RUN_IMAGE_RESTORE);
Result<EncodeResult> WrapEncode(const StagePipeline*, Bytes)
    __asm__("__wrap_" PERFBENCH_MANGLED_ENCODE);
Result<std::vector<uint8_t>> WrapDecode(const StagePipeline*, Bytes,
                                        ContentStats*)
    __asm__("__wrap_" PERFBENCH_MANGLED_DECODE);
Status WrapCreateSnapshot(Filesystem*, const std::string&)
    __asm__("__wrap_" PERFBENCH_MANGLED_CREATE_SNAPSHOT);

Result<LogicalDumpOutput> WrapRunLogicalDump(
    const FsReader& reader, const LogicalDumpOptions& options) {
  ScopedSpan span(Layer::kLogicalDump);
  return RealRunLogicalDump(reader, options);
}

Result<LogicalRestoreOutput> WrapRunLogicalRestore(
    Filesystem* fs, Bytes stream, const LogicalRestoreOptions& options) {
  ScopedSpan span(Layer::kLogicalRestore);
  return RealRunLogicalRestore(fs, stream, options);
}

Result<ImageDumpOutput> WrapRunImageDump(Volume* volume,
                                         const ImageDumpOptions& options) {
  ScopedSpan span(Layer::kImageDump);
  return RealRunImageDump(volume, options);
}

Result<ImageRestoreOutput> WrapRunImageRestore(Volume* volume, Bytes stream) {
  ScopedSpan span(Layer::kImageRestore);
  return RealRunImageRestore(volume, stream);
}

Result<EncodeResult> WrapEncode(const StagePipeline* pipeline, Bytes raw) {
  ScopedSpan span(Layer::kEncode);
  return RealEncode(pipeline, raw);
}

Result<std::vector<uint8_t>> WrapDecode(const StagePipeline* pipeline,
                                        Bytes wire, ContentStats* stats) {
  ScopedSpan span(Layer::kDecode);
  return RealDecode(pipeline, wire, stats);
}

Status WrapCreateSnapshot(Filesystem* fs, const std::string& name) {
  ScopedSpan span(Layer::kSnapshot);
  return RealCreateSnapshot(fs, name);
}
