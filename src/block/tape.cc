#include "src/block/tape.h"

#include <algorithm>
#include <cstring>

#include "src/obs/trace.h"

namespace bkup {

Status Tape::Adopt(std::shared_ptr<std::vector<uint8_t>> stream) {
  if (size_ != 0) {
    return FailedPrecondition(label_ + ": adopting a stream needs blank media");
  }
  store_ = std::move(stream);
  return Status::Ok();
}

std::vector<uint8_t>& Tape::Own() {
  if (store_ == nullptr) {
    store_ = std::make_shared<std::vector<uint8_t>>();
  } else if (store_.use_count() > 1) {
    store_ = std::make_shared<std::vector<uint8_t>>(
        store_->begin(), store_->begin() + static_cast<ptrdiff_t>(size_));
  } else {
    store_->resize(size_);  // an adopted stream's unrecorded tail
  }
  return *store_;
}

void Tape::Record(uint64_t offset, std::span<const uint8_t> data) {
  if (store_ != nullptr && offset <= size_ &&
      data.size() <= store_->size() - offset &&
      data.data() == store_->data() + offset) {
    size_ = offset + data.size();  // the store already holds these bytes
    return;
  }
  std::vector<uint8_t>& bytes = Own();
  // Serpentine media: a write invalidates everything past it.
  bytes.resize(offset);
  bytes.insert(bytes.end(), data.begin(), data.end());
  size_ = bytes.size();
}

Status Tape::CorruptRange(uint64_t offset, uint64_t length) {
  if (offset >= size_) {
    return InvalidArgument(label_ + ": corrupt range [" +
                           std::to_string(offset) + ", +" +
                           std::to_string(length) +
                           ") starts beyond recorded data");
  }
  std::vector<uint8_t>& bytes = Own();
  // Clamp without forming offset+length (which could overflow).
  const uint64_t end = offset + std::min<uint64_t>(length, size_ - offset);
  for (uint64_t i = offset; i < end; ++i) {
    bytes[i] ^= 0x5A;
  }
  return Status::Ok();
}

TapeDrive::TapeDrive(SimEnvironment* env, std::string name, TapeTiming timing)
    : env_(env),
      name_(std::move(name)),
      timing_(timing),
      unit_(env, 1, name_ + ".unit"),
      metric_bytes_(MetricsRegistry::Default().GetCounter("tape.bytes",
                                                          {{"drive", name_}})),
      metric_repositions_(MetricsRegistry::Default().GetCounter(
          "tape.repositions", {{"drive", name_}})) {}

void TapeDrive::LoadMedia(Tape* tape) {
  tape_ = tape;
  position_ = 0;
  streaming_until_ = -1;
}

Task TapeDrive::TimedLoadMedia(Tape* tape) {
  co_await unit_.Acquire();
  co_await env_->Delay(timing_.load_time);
  LoadMedia(tape);
  unit_.Release();
}

void TapeDrive::UnloadMedia() {
  tape_ = nullptr;
  position_ = 0;
}

Task TapeDrive::TimedRewind() {
  co_await unit_.Acquire();
  co_await env_->Delay(timing_.rewind_time);
  Rewind();
  streaming_until_ = -1;
  unit_.Release();
}

Status TapeDrive::WriteData(std::span<const uint8_t> data) {
  if (tape_ == nullptr) {
    return FailedPrecondition(name_ + ": no media loaded");
  }
  if (position_ + data.size() > tape_->capacity()) {
    return NoSpace(name_ + ": end of tape");
  }
  tape_->Record(position_, data);
  position_ += data.size();
  return Status::Ok();
}

Status TapeDrive::ReadData(std::span<uint8_t> out) {
  const uint64_t at = position_;
  BKUP_RETURN_IF_ERROR(PassData(out.size()));
  std::memcpy(out.data(), tape_->contents().data() + at, out.size());
  return Status::Ok();
}

Status TapeDrive::PassData(uint64_t nbytes) {
  if (tape_ == nullptr) {
    return FailedPrecondition(name_ + ": no media loaded");
  }
  if (position_ > tape_->size() || nbytes > tape_->size() - position_) {
    return Corruption(name_ + ": read past end of recorded data");
  }
  position_ += nbytes;
  return Status::Ok();
}

Status TapeDrive::SeekTo(uint64_t offset) {
  if (tape_ == nullptr) {
    return FailedPrecondition(name_ + ": no media loaded");
  }
  if (offset > tape_->size()) {
    return InvalidArgument(name_ + ": seek past end of data");
  }
  position_ = offset;
  return Status::Ok();
}

SimDuration TapeDrive::TransferTime(uint64_t nbytes) const {
  const double seconds =
      static_cast<double>(nbytes) / (timing_.stream_mb_per_s * 1e6);
  return SecondsToSim(seconds);
}

SimDuration TapeDrive::RepositionPenalty() {
  if (streaming_until_ < 0 ||
      env_->now() <= streaming_until_ + timing_.stream_tolerance) {
    return 0;
  }
  ++repositions_;
  metric_repositions_->Increment();
  // Shoe-shining is the tape-side symptom of a starved dump; mark each one
  // on the drive's track so stalls line up with the job spans above them.
  TRACE_INSTANT(env_, name_, "reposition");
  return timing_.reposition_penalty;
}

Task TapeDrive::TimedWrite(std::span<const uint8_t> data, Status* status) {
  co_await unit_.Acquire();
  const SimDuration t = TransferTime(data.size()) + RepositionPenalty();
  co_await env_->Delay(t);
  // A fault (e.g. a media defect caught by the drive's read-after-write
  // verify) rejects the transfer before any byte lands.
  Status st = Status::Ok();
  if (fault_hook_ != nullptr) {
    st = fault_hook_->OnTapeWrite(this, position_, data.size());
  }
  *status = st.ok() ? WriteData(data) : st;
  if (status->ok()) {
    bytes_transferred_ += data.size();
    metric_bytes_->Increment(data.size());
  }
  streaming_until_ = env_->now();
  unit_.Release();
}

Task TapeDrive::TimedReadInto(uint64_t nbytes, uint8_t* out,
                              Status* status) {
  co_await unit_.Acquire();
  const SimDuration t = TransferTime(nbytes) + RepositionPenalty();
  co_await env_->Delay(t);
  Status st = Status::Ok();
  if (fault_hook_ != nullptr) {
    st = fault_hook_->OnTapeRead(this, position_, nbytes);
  }
  if (st.ok()) {
    st = out != nullptr ? ReadData(std::span(out, nbytes)) : PassData(nbytes);
  }
  *status = st;
  if (status->ok()) {
    bytes_transferred_ += nbytes;
    metric_bytes_->Increment(nbytes);
  }
  streaming_until_ = env_->now();
  unit_.Release();
}

Task TapeDrive::TimedSeekTo(uint64_t offset, Status* status) {
  co_await unit_.Acquire();
  if (offset != position_) {
    // Any jump breaks streaming: one reposition, always.
    ++repositions_;
    metric_repositions_->Increment();
    TRACE_INSTANT(env_, name_, "reposition");
    co_await env_->Delay(timing_.reposition_penalty);
  }
  *status = SeekTo(offset);
  streaming_until_ = env_->now();
  unit_.Release();
}

}  // namespace bkup
