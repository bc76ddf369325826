#include "src/block/disk.h"

#include <cmath>
#include <cstdlib>
#include <cstring>

namespace bkup {

Disk::Disk(SimEnvironment* env, std::string name, uint64_t num_blocks,
           DiskTiming timing)
    : env_(env),
      name_(std::move(name)),
      num_blocks_(num_blocks),
      timing_(timing),
      arm_(env, 1, name_ + ".arm"),
      metric_access_us_(MetricsRegistry::Default().GetHistogram(
          "disk.access_us", HistogramOptions::Log2(), {{"device", name_}})),
      metric_bytes_(MetricsRegistry::Default().GetCounter("disk.bytes",
                                                          {{"device", name_}})),
      metric_errors_(MetricsRegistry::Default().GetCounter(
          "disk.errors", {{"device", name_}})),
      store_(num_blocks) {}

Status Disk::CheckAccess(Dbn dbn, const char* op) const {
  if (failed_) {
    return IoError(name_ + ": drive failed");
  }
  if (dbn >= num_blocks_) {
    return InvalidArgument(name_ + ": " + op + " past end of disk");
  }
  return Status::Ok();
}

Status Disk::ReadData(Dbn dbn, BlockSpan out) const {
  BKUP_ASSIGN_OR_RETURN(const Block* stored, Peek(dbn));
  if (stored == nullptr) {
    std::memset(out.data(), 0, kBlockSize);
  } else {
    std::memcpy(out.data(), stored->data.data(), kBlockSize);
  }
  return Status::Ok();
}

Status Disk::WriteData(Dbn dbn, ConstBlockSpan data) {
  BKUP_ASSIGN_OR_RETURN(Block* stored, Slot(dbn));
  std::memcpy(stored->data.data(), data.data(), kBlockSize);
  return Status::Ok();
}

Result<const Block*> Disk::Peek(Dbn dbn) const {
  BKUP_RETURN_IF_ERROR(CheckAccess(dbn, "read"));
  return store_[dbn].get();
}

Result<Block*> Disk::Slot(Dbn dbn) {
  BKUP_RETURN_IF_ERROR(CheckAccess(dbn, "write"));
  std::unique_ptr<Block>& slot = store_[dbn];
  if (slot == nullptr) {
    slot = std::make_unique<Block>();
  }
  return slot.get();
}

void Disk::ReplaceWithBlank() {
  for (std::unique_ptr<Block>& slot : store_) {
    slot.reset();
  }
  failed_ = false;
  head_ = 0;
}

SimDuration Disk::AccessTime(Dbn dbn, uint64_t count) const {
  double ms = 0.0;
  const uint64_t distance =
      dbn >= head_ ? dbn - head_ : head_ - dbn;
  if (distance < 16) {
    // Sequential or near-sequential: the drive's read-ahead and track
    // buffer absorb small gaps.
  } else if (distance <= timing_.near_threshold_blocks) {
    ms += timing_.track_seek_ms;
  } else {
    // Seek time grows sublinearly with distance (arm acceleration); scale
    // the average seek by a sqrt profile normalized to a half-disk stroke.
    const double frac =
        static_cast<double>(distance) / static_cast<double>(num_blocks_);
    ms += timing_.track_seek_ms +
          (timing_.avg_seek_ms - timing_.track_seek_ms) *
              std::sqrt(std::min(1.0, frac * 2.0));
    ms += timing_.rotational_ms;
  }
  const double bytes = static_cast<double>(count) * kBlockSize;
  ms += bytes / (timing_.transfer_mb_per_s * 1e6) * 1e3;
  return static_cast<SimDuration>(ms * static_cast<double>(kMillisecond));
}

Task Disk::TimedAccess(Dbn dbn, uint64_t count, Status* status,
                       int priority) {
  co_await arm_.Acquire(1, priority);
  // Compute the access time under the arm so queued requests pay the seek
  // from wherever the previous request left the head.
  const SimDuration t = AccessTime(dbn, count);
  co_await env_->Delay(t);
  Status st = Status::Ok();
  if (fault_hook_ != nullptr) {
    st = fault_hook_->OnDiskAccess(this, count);
  }
  // Re-check after the delay: a Fail() that landed while this access was in
  // flight surfaces to the waiting job instead of silently completing.
  if (st.ok() && failed_) {
    st = IoError(name_ + ": drive failed");
  }
  metric_access_us_->Observe(static_cast<double>(t));
  if (st.ok()) {
    head_ = dbn + count;
    bytes_transferred_ += count * kBlockSize;
    metric_bytes_->Increment(count * kBlockSize);
  } else {
    metric_errors_->Increment();
  }
  if (status != nullptr) {
    *status = st;
  }
  arm_.Release();
}

}  // namespace bkup
