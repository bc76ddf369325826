// Host-time spans the benchmark records around its calls into each layer.
//
// Every span is a leaf: no two of them ever nest, so per-layer sums add up
// to the share of wall time they cover. Job spans are the one exception —
// a job's env.Run() contains the engine, content and snapshot calls the job
// makes, so the benchmark books a job's residual (job span minus the leaves
// recorded inside it) as kReplay, the simulator's own replay cost.
//
// The engine and content calls happen inside the *Job coroutines, so they
// are timed by link-time wrappers (hooks.cc) around the very calls the jobs
// make; the program under test is not modified.
#ifndef PERFBENCH_SPANS_H_
#define PERFBENCH_SPANS_H_

#include <array>
#include <chrono>
#include <cstddef>

namespace perfbench {

enum class Layer : int {
  kVolume = 0,      // raid: Volume::Create for the testbed and restore targets
  kFormat,          // fs: Filesystem::Format
  kPopulate,        // workload: PopulateFilesystem
  kAge,             // workload: AgeFilesystem (aging rounds)
  kChurn,           // workload: the benchmark's between-night Churn()
  kSnapshot,        // fs: Filesystem::CreateSnapshot (bench and jobs)
  kVerify,          // fs: Mount + ChecksumTree walks of sources and restores
  kLogicalDump,     // dump: RunLogicalDump
  kLogicalRestore,  // dump: RunLogicalRestore
  kImageDump,       // image: RunImageDump
  kImageRestore,    // image: RunImageRestore
  kEncode,          // content: StagePipeline::Encode
  kDecode,          // content: StagePipeline::Decode
  kReplay,          // sim: job span minus the leaves above recorded inside it
  kForeground,      // workload: the idle-filer foreground probe's env.Run()
  kCrc,             // util: the benchmark's own Crc32c pass over tape bytes
  kCount,
};

inline constexpr size_t kNumLayers = static_cast<size_t>(Layer::kCount);

using Clock = std::chrono::steady_clock;

inline double SecondsSince(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

// Process-wide span totals. Recording is off unless a traced repetition
// turns it on, so untraced repetitions pay one branch per hooked call.
struct SpanTotals {
  bool enabled = false;
  std::array<double, kNumLayers> seconds{};

  double& operator[](Layer l) { return seconds[static_cast<size_t>(l)]; }
  double operator[](Layer l) const {
    return seconds[static_cast<size_t>(l)];
  }
  double Sum() const {
    double s = 0;
    for (double v : seconds) s += v;
    return s;
  }
};

SpanTotals& Spans();

// Adds the scope's duration to `layer` when recording is on.
class ScopedSpan {
 public:
  explicit ScopedSpan(Layer layer)
      : layer_(layer), on_(Spans().enabled), t0_(on_ ? Clock::now()
                                                     : Clock::time_point()) {}
  ~ScopedSpan() {
    if (on_) Spans()[layer_] += SecondsSince(t0_);
  }
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

 private:
  Layer layer_;
  bool on_;
  Clock::time_point t0_;
};

}  // namespace perfbench

#endif  // PERFBENCH_SPANS_H_
