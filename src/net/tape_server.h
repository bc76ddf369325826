// A remote tape server: the far end of a NetLink.
//
// The node that NDMP calls the "tape service": it owns drives fed from a
// `TapeLibrary` and sits across the link from the filer. The server is
// structural — drives, media, naming; the supervised writer/reader
// coroutines that pair it with a dump stream live in src/backup/pipeline.cc,
// which keeps src/net independent of the backup layer.
#ifndef BKUP_NET_TAPE_SERVER_H_
#define BKUP_NET_TAPE_SERVER_H_

#include <algorithm>
#include <cstddef>
#include <memory>
#include <span>
#include <string>
#include <vector>

#include "src/block/tape.h"
#include "src/block/tape_library.h"
#include "src/obs/trace.h"
#include "src/sim/channel.h"
#include "src/sim/environment.h"
#include "src/util/status.h"

namespace bkup {

class TapeServer {
 public:
  TapeServer(SimEnvironment* env, std::string name,
             TapeLibrary* library = nullptr)
      : env_(env), name_(std::move(name)), library_(library) {}

  SimEnvironment* env() const { return env_; }
  const std::string& name() const { return name_; }
  TapeLibrary* library() const { return library_; }

  // Adds a drive named "<server>.<name>"; the server owns it.
  TapeDrive* AddDrive(const std::string& name,
                      TapeTiming timing = TapeTiming()) {
    drives_.push_back(
        std::make_unique<TapeDrive>(env_, name_ + "." + name, timing));
    return drives_.back().get();
  }

  size_t num_drives() const { return drives_.size(); }
  TapeDrive* drive(size_t i) { return drives_[i].get(); }

  // Ranged media read, the server-side primitive of catalog-driven restores:
  // seeks `drive` to the absolute byte `offset` (paying the reposition) and
  // passes the head over `length` bytes in `chunk_bytes` pieces (the caller
  // reads them from the media, so none is copied), publishing the absolute
  // offset reached after each piece on `progress`. The channel is left open
  // so callers can chain ranges; *status holds the first error. Reads are
  // idempotent, so a caller's retry can simply re-issue the remainder.
  // With a tracer attached and a valid `ctx`, the read runs under a span on
  // this server's process row, continuing the caller's cross-node trace.
  Task ReadRange(TapeDrive* drive, uint64_t offset, uint64_t length,
                 uint64_t chunk_bytes, Channel<uint64_t>* progress,
                 Status* status, TraceContext ctx = {}) {
    ScopedTraceSpan span(env_->tracer(), name_,
                         ("srv:" + name_).c_str(), "read.range", ctx);
    Status st;
    co_await drive->TimedSeekTo(offset, &st);
    uint64_t pos = offset;
    const uint64_t end = offset + length;
    while (st.ok() && pos < end) {
      const uint64_t on_tape =
          drive->loaded() ? drive->tape()->size() - drive->position() : 0;
      if (on_tape == 0) {
        st = Corruption(name_ + ": media ended inside a ranged read");
        break;
      }
      const uint64_t n = std::min({chunk_bytes, end - pos, on_tape});
      co_await drive->TimedPass(n, &st);
      if (st.ok()) {
        pos += n;
        co_await progress->Send(pos);
      }
    }
    *status = st;
  }

  // Instantaneous library load (tests and setup); jobs pay drive load time
  // through TimedLoadMedia as usual.
  Status LoadSlot(size_t drive_index, size_t slot) {
    if (library_ == nullptr) {
      return FailedPrecondition(name_ + ": no tape library attached");
    }
    return library_->LoadSlot(drive(drive_index), slot);
  }

 private:
  SimEnvironment* env_;
  std::string name_;
  TapeLibrary* library_;
  std::vector<std::unique_ptr<TapeDrive>> drives_;
};

}  // namespace bkup

#endif  // BKUP_NET_TAPE_SERVER_H_
