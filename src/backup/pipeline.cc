// The replay pipelines every job's stream runs through. A backup replay has
// the structure of WAFL's real dump path — a producer touching disks and
// CPU, a bounded buffer, and a consumer streaming a tape drive — and a
// restore replay the mirror image:
//
//     [disk reads + CPU] -> Channel<chunk> -> [tape writes]      (backup)
//     [tape reads] -> Channel<watermark> -> [CPU/NVRAM + disk]   (restore)
//
// A remote replay splices a NetLink between the halves: the filer keeps the
// disk/CPU half, and the tape half runs on a TapeServer, fed by (or
// feeding) a stream session of StreamConns. Content stages splice an
// adapter between the halves that translates raw and wire coordinates.
//
// Because the stages share the filer's CPU, the NVRAM port, the disk arms
// and each tape's streaming behaviour, the paper's phenomena — tape
// bottleneck at one drive, disk/CPU saturation of parallel logical dumps,
// near-linear physical scaling — emerge from the simulation rather than
// being asserted.
#include "src/backup/pipeline.h"

#include <algorithm>

#include "src/obs/trace.h"

namespace bkup {

namespace {

// Pipeline buffer pool: chunks in flight between producer and consumer.
constexpr size_t kPipelineDepth = 8;
constexpr uint64_t kChunkBytes = 256 * kKiB;
// Outstanding disk operations: dump-side read-ahead (the kernel dump
// "generates its own read-ahead policy") and restore-side write-behind
// (consistency points flush asynchronously).
constexpr size_t kDiskWindow = 8;

// One pipeline chunk: stream bytes [begin, end) produced under `phase`.
struct StreamChunk {
  uint64_t begin;
  uint64_t end;
  JobPhase phase;
};

std::string ServerNode(const RemoteTarget& media) {
  return media.server != nullptr ? media.server->name() : "tape-server";
}

// Keeps one span open per job track, closing the previous phase's span and
// opening the next as a replay loop crosses phase boundaries. The track is
// "job:<report name>", so each (uniquely named) job gets its own timeline
// row and phases appear as contiguous spans along it. No-op without a tracer.
class PhaseSpanner {
 public:
  PhaseSpanner(SimEnvironment* env, const std::string& job_name)
      : tracer_(env->tracer()) {
    if (tracer_ != nullptr) {
      track_ = tracer_->Track("job:" + job_name);
    }
  }
  ~PhaseSpanner() { Close(); }
  PhaseSpanner(const PhaseSpanner&) = delete;
  PhaseSpanner& operator=(const PhaseSpanner&) = delete;

  void Enter(JobPhase phase) {
    if (tracer_ == nullptr || phase == current_) {
      return;
    }
    if (current_ != JobPhase::kCount) {
      tracer_->End(track_);
    }
    current_ = phase;
    tracer_->Begin(track_, JobPhaseName(phase));
  }

  void Close() {
    if (tracer_ != nullptr && current_ != JobPhase::kCount) {
      tracer_->End(track_);
      current_ = JobPhase::kCount;
    }
  }

 private:
  Tracer* tracer_;
  uint32_t track_ = 0;
  JobPhase current_ = JobPhase::kCount;
};

// Sender side of one remote stream: a chain of StreamConns over the same
// byte span. The first connection carries the whole stream in the happy
// case; when a connection fails (a frame lost beyond its retransmit budget)
// the session drains it, reads its acked watermark, backs off per the
// supervisor's link_retry, and resends [acked, high-watermark) on a fresh
// connection — the network analogue of RecoverTapeWrite's remount ladder.
// The receiver consumes connections in order from `conns()` and drains each
// one's frames to end-of-stream, so its own write cursor always equals the
// acked watermark the next connection resumes from.
class StreamSession {
 public:
  StreamSession(SimEnvironment* env, const RemoteTarget& media,
                std::string name, std::span<const uint8_t> stream,
                JobReport* report)
      : env_(env),
        link_(media.link),
        name_(std::move(name)),
        server_node_(ServerNode(media)),
        stream_(stream),
        sup_(media.supervision),
        report_(report),
        throttle_(media.qos.throttle),
        conn_feed_(env, 16) {
    // One causal trace for the whole session: every connection, frame and
    // reconnect incarnation shares this id (no-op without a tracer).
    if (Tracer* tracer = env_->tracer()) {
      ctx_ = tracer->StartTrace();
    }
  }

  // The session's causal identity; incarnation climbs with each reconnect.
  const TraceContext& ctx() const { return ctx_; }

  // Opens the first connection; call (and await) before Send.
  Task Start() { co_await Connect(); }

  // The receiver's view: connections in the order they were made. Closed by
  // Finish once the stream (and any recovery) is complete.
  Channel<StreamConn*>& conns() { return conn_feed_; }

  // Ships stream[begin, end). A stream that fails beyond the reconnect
  // budget sets *failed and records its error as the report's status
  // (unless an earlier error holds it). Ranges must be sent in order.
  Task Send(uint64_t begin, uint64_t end, uint32_t tag, bool* failed) {
    last_tag_ = tag;
    hwm_ = std::max(hwm_, end);
    Status st;
    co_await conns_.back()->SendRange(stream_, begin, end, tag, &st);
    while (!st.ok() && CanRecover()) {
      co_await RecoverOnce(&st);
    }
    if (!st.ok()) {
      *failed = true;
      if (report_->status.ok()) {
        report_->status = st;
      }
    }
  }

  // Waits out everything in flight (recovering if the tail fails), then
  // signals end-of-stream to the receiver and settles the stats. An
  // unrecovered tail is recorded like a failed Send.
  Task Finish() {
    Status st;
    while (true) {
      co_await conns_.back()->Drain(&st);
      if (st.ok() || !CanRecover()) {
        break;
      }
      co_await RecoverOnce(&st);
    }
    conns_.back()->CloseSend();
    conn_feed_.Close();
    for (const auto& conn : conns_) {
      report_->faults.link_retransmits += conn->stats().retransmits;
    }
    if (!st.ok() && report_->status.ok()) {
      report_->status = st;
    }
  }

 private:
  bool CanRecover() const {
    return sup_ != nullptr && attempts_ < sup_->link_retry.max_attempts;
  }

  Task Connect() {
    conns_.push_back(std::make_unique<StreamConn>(
        link_, name_ + "#" + std::to_string(conns_.size())));
    conns_.back()->set_throttle(throttle_);  // QoS survives reconnects
    conns_.back()->EnableTracing(ctx_, "filer", server_node_);
    co_await conn_feed_.Send(conns_.back().get());
  }

  // One reconnect: retire the failed connection, resume past its ack.
  Task RecoverOnce(Status* st) {
    StreamConn* old = conns_.back().get();
    ++report_->faults.link_errors;
    if (Tracer* tracer = env_->tracer()) {
      tracer->Instant(tracer->Track("faults"), "link.error", ctx_);
    }
    Status drain;  // already failed; we only need the in-flight frames done
    co_await old->Drain(&drain);
    old->CloseSend();
    acked_floor_ = std::max(acked_floor_, old->acked());
    ++attempts_;
    co_await env_->Delay(sup_->link_retry.BackoffBefore(attempts_));
    ++report_->faults.link_reconnects;
    // The fresh connection is a new incarnation of the same trace: its
    // spans and frames stay under one trace id, labeled with the count.
    ctx_ = ctx_.NextIncarnation();
    if (Tracer* tracer = env_->tracer()) {
      tracer->Instant(tracer->Track("faults"), "link.reconnect", ctx_);
    }
    report_->faults.link_bytes_resent += hwm_ - acked_floor_;
    co_await Connect();
    *st = Status::Ok();
    if (hwm_ > acked_floor_) {
      co_await conns_.back()->SendRange(stream_, acked_floor_, hwm_,
                                        last_tag_, st);
    }
  }

  SimEnvironment* env_;
  NetLink* link_;
  std::string name_;
  std::string server_node_;
  TraceContext ctx_;
  std::span<const uint8_t> stream_;
  const SupervisionPolicy* sup_;
  JobReport* report_;
  BackupThrottle* throttle_;
  Channel<StreamConn*> conn_feed_;
  std::vector<std::unique_ptr<StreamConn>> conns_;
  uint64_t hwm_ = 0;          // highest stream byte handed to Send
  uint64_t acked_floor_ = 0;  // resume point carried across reconnects
  int attempts_ = 0;          // reconnects made (cumulative budget)
  uint32_t last_tag_ = 0;
};

// Recovers a failed tape write of stream[begin, end). On entry `*st` holds
// the error. Transient errors back off and re-issue; an error that outlives
// the retry budget is treated as a media fault: the mounted media is
// abandoned for the next spare and everything it held — stream[*media_start,
// begin) plus the failing piece — is rewritten from the checkpoint, exactly
// the way a dump(8) operator re-feeds a tape after a write error. Nested
// failures (a defective spare) loop back through the same ladder until the
// spares run out.
Task RecoverTapeWrite(SimEnvironment* env, TapeDrive* tape,
                      std::span<const uint8_t> stream, uint64_t begin,
                      uint64_t end, std::span<Tape* const> spares,
                      const SupervisionPolicy& sup, size_t* next_spare,
                      uint64_t* media_start, JobReport* report, Status* st) {
  FaultCounters& faults = report->faults;
  uint64_t cursor = begin;     // start of the piece whose write failed
  uint64_t failed_at = begin;  // where the retry budget is being spent
  int attempt = 1;
  while (true) {
    ++faults.tape_errors;
    TRACE_INSTANT(env, "faults", "tape.error");
    if (st->code() == ErrorCode::kNoSpace) {
      co_return;  // capacity is the spanning path's job, not a fault
    }
    if (attempt < sup.tape_retry.max_attempts) {
      ++faults.tape_retries;
      TRACE_INSTANT(env, "faults", "tape.retry");
      co_await env->Delay(sup.tape_retry.BackoffBefore(attempt));
      ++attempt;
    } else {
      // Persistent: remount a spare and rewind to the checkpoint.
      if (!sup.remount_on_media_error || *next_spare >= spares.size()) {
        co_return;  // unrecoverable; *st keeps the final error
      }
      Tape* spare = spares[(*next_spare)++];
      co_await tape->TimedLoadMedia(spare);
      ++faults.tape_remounts;
      TRACE_INSTANT(env, "faults", "tape.remount");
      report->tapes_used.push_back(spare->label());
      if (!report->final_media.empty()) {
        report->final_media.pop_back();  // the abandoned media
      }
      report->final_media.push_back(spare->label());
      faults.bytes_rewritten += cursor - *media_start;
      cursor = *media_start;
      failed_at = cursor;
      attempt = 1;
    }
    // Replay [cursor, end) piecewise; stop at the first failure.
    *st = Status::Ok();
    while (cursor < end && st->ok()) {
      const uint64_t n = std::min<uint64_t>(kChunkBytes, end - cursor);
      co_await tape->TimedWrite(stream.subspan(cursor, n), st);
      if (st->ok()) {
        cursor += n;
      }
    }
    if (st->ok()) {
      co_return;
    }
    if (cursor != failed_at) {
      failed_at = cursor;  // progress was made: fresh retry budget
      attempt = 1;
    }
  }
}

// Writes stream[begin, end) to the media, loading the next spare when the
// mounted one fills (multi-volume dumps). Under supervision, write errors
// run the retry/remount ladder above. `*media_start` is the checkpoint: the
// stream offset where the mounted media begins, so tape content is always
// stream[media_start, media_start + position).
Task WriteToMedia(const ReplayConfig& cfg, std::span<const uint8_t> stream,
                  uint64_t begin, uint64_t end, JobPhase phase,
                  size_t* next_spare, uint64_t* media_start,
                  JobReport* report) {
  SimEnvironment* env = cfg.filer->env();
  TapeDrive* tape = cfg.media.drive;
  const std::vector<Tape*>& spares = cfg.media.spare_tapes;
  const uint64_t n = end - begin;
  if (tape->loaded() && tape->position() + n > tape->tape()->capacity()) {
    if (*next_spare < spares.size()) {
      co_await tape->TimedLoadMedia(spares[(*next_spare)++]);
      report->tapes_used.push_back(tape->tape()->label());
      report->final_media.push_back(tape->tape()->label());
      *media_start = begin;
    }  // else fall through: the write fails with NoSpace below
  }
  Status st;
  co_await tape->TimedWrite(stream.subspan(begin, n), &st);
  if (!st.ok() && cfg.media.supervision != nullptr) {
    co_await RecoverTapeWrite(env, tape, stream, begin, end, spares,
                              *cfg.media.supervision, next_spare, media_start,
                              report, &st);
  }
  if (!st.ok() && report->status.ok()) {
    report->status = st;
  }
  report->TouchPhase(phase, env->now(), cfg.filer->cpu().BusyIntegral());
  report->phase(phase).tape_bytes += n;
}

// Tape end of a backup. Locally it drains `chunks`; on a tape server it
// drains each connection of the session in turn (`conns`), skipping bytes a
// resumed connection replays that the tape already holds. `stream` stands
// in for the received payload bytes (the simulation ships offsets, not
// copies).
Task TapeWriterProc(ReplayConfig cfg, std::span<const uint8_t> stream,
                    Channel<StreamChunk>* chunks,
                    Channel<StreamConn*>* conns, TraceContext ctx,
                    JobReport* report, SimEvent* writer_done) {
  SimEnvironment* env = cfg.filer->env();
  // On a tape server this coroutine *is* the server: its span lives on the
  // server's process row, under the same trace id as the filer-side spans
  // and the frames.
  std::optional<ScopedTraceSpan> srv_span;
  if (conns != nullptr) {
    srv_span.emplace(env->tracer(), ServerNode(cfg.media),
                     ("srv:" + report->name).c_str(), "tape.write", ctx);
  }
  TapeDrive* tape = cfg.media.drive;
  size_t next_spare = 0;
  uint64_t media_start = 0;
  if (tape->loaded()) {
    report->tapes_used.push_back(tape->tape()->label());
    report->final_media.push_back(tape->tape()->label());
  }
  while (chunks != nullptr) {
    std::optional<StreamChunk> chunk = co_await chunks->Recv();
    if (!chunk.has_value()) {
      break;
    }
    co_await WriteToMedia(cfg, stream, chunk->begin, chunk->end, chunk->phase,
                          &next_spare, &media_start, report);
  }
  uint64_t written = 0;  // stream bytes on tape == delivered watermark
  while (conns != nullptr) {
    std::optional<StreamConn*> conn = co_await conns->Recv();
    if (!conn.has_value()) {
      break;
    }
    while (true) {
      std::optional<StreamFrame> frame = co_await (*conn)->frames().Recv();
      if (!frame.has_value()) {
        break;
      }
      if (frame->end <= written) {
        continue;  // replayed prefix of a resumed connection
      }
      co_await WriteToMedia(cfg, stream, std::max(frame->begin, written),
                            frame->end, static_cast<JobPhase>(frame->tag),
                            &next_spare, &media_start, report);
      written = frame->end;
    }
  }
  writer_done->Notify();
}

// The tape-read retry ladder, shared by every reader. After a failed read:
// counts the error, and while the supervision budget lasts, counts a retry
// and sleeps its backoff before the caller re-issues the read (*again).
// Reads are idempotent — a failed one does not advance the head — so a
// re-issue is exact.
Task TapeReadRetry(SimEnvironment* env, const SupervisionPolicy* sup,
                   int* attempt, JobReport* report, bool* again) {
  ++report->faults.tape_errors;
  *again = sup != nullptr && *attempt + 1 < sup->tape_retry.max_attempts;
  if (!*again) {
    co_return;
  }
  ++report->faults.tape_retries;
  TRACE_INSTANT(env, "faults", "tape.retry");
  ++*attempt;
  co_await env->Delay(sup->tape_retry.BackoffBefore(*attempt));
}

// Tape end of a restore: reads the stream off the media and publishes how
// many stream bytes have arrived — on `out` for a local drive, or through
// the session across the link from a tape server. A sequential read spans
// onto the next spare as each media runs dry; a ranged read (`ranges`)
// seeks to each range on the mounted media and publishes absolute offsets,
// so watermarks stay monotone while the gaps are never touched. Under
// supervision, read errors run the retry ladder.
Task TapeReaderProc(ReplayConfig cfg,
                    std::optional<std::vector<StreamRange>> ranges,
                    uint64_t total_bytes, Channel<uint64_t>* out,
                    StreamSession* session, JobReport* report,
                    SimEvent* reader_done) {
  SimEnvironment* env = cfg.filer->env();
  std::optional<ScopedTraceSpan> srv_span;
  if (session != nullptr) {
    srv_span.emplace(env->tracer(), ServerNode(cfg.media),
                     ("srv:" + report->name).c_str(), "tape.read",
                     session->ctx());
  }
  TapeDrive* tape = cfg.media.drive;
  const std::vector<Tape*>& spares = cfg.media.spare_tapes;
  std::vector<uint8_t> scratch(kChunkBytes);
  size_t next_spare = 0;
  if (tape->loaded()) {
    // A resumed restore reads the same media again: list it once.
    const std::string& label = tape->tape()->label();
    if (!ranges || report->tapes_used.empty() ||
        report->tapes_used.back() != label) {
      report->tapes_used.push_back(label);
    }
  }
  bool failed = false;  // the session gave up: read on, ship nothing
  for (const StreamRange& r :
       ranges ? *ranges : std::vector<StreamRange>{{0, total_bytes}}) {
    if (ranges) {
      Status st;
      co_await tape->TimedSeekTo(r.begin, &st);
      if (!st.ok()) {
        if (report->status.ok()) {
          report->status = st;
        }
        break;
      }
    }
    uint64_t pos = r.begin;
    while (pos < r.end) {
      uint64_t on_tape =
          tape->loaded() ? tape->tape()->size() - tape->position() : 0;
      if (on_tape == 0) {
        if (ranges || next_spare >= spares.size()) {
          if (report->status.ok()) {
            report->status =
                Corruption(ranges ? "tape ended inside a restore range"
                                  : "multi-volume set ended early");
          }
          break;
        }
        co_await tape->TimedLoadMedia(spares[next_spare++]);
        report->tapes_used.push_back(tape->tape()->label());
        on_tape = tape->tape()->size();
      }
      const uint64_t n =
          std::min<uint64_t>({kChunkBytes, r.end - pos, on_tape});
      Status st;
      co_await tape->TimedRead(std::span(scratch).first(n), &st);
      int attempt = 0;
      bool again = cfg.media.supervision != nullptr;
      while (!st.ok() && again) {
        co_await TapeReadRetry(env, cfg.media.supervision, &attempt, report,
                               &again);
        if (again) {
          co_await tape->TimedRead(std::span(scratch).first(n), &st);
        }
      }
      if (!st.ok() && report->status.ok()) {
        report->status = st;
      }
      pos += n;
      if (session == nullptr) {
        co_await out->Send(pos);
      } else if (!failed) {
        co_await session->Send(pos - n, pos, 0, &failed);
      }
    }
  }
  if (session == nullptr) {
    out->Close();
    co_return;
  }
  co_await session->Finish();
  reader_done->Notify();
}

// Wraps TapeServer::ReadRange so the progress channel closes and the
// completion event fires when the range (or its error) is done.
Task ReadRangeAndClose(TapeServer* server, TapeDrive* drive, uint64_t offset,
                       uint64_t length, Channel<uint64_t>* progress,
                       Status* status, SimEvent* done, TraceContext ctx) {
  co_await server->ReadRange(drive, offset, length, kChunkBytes, progress,
                             status, ctx);
  progress->Close();
  done->Notify();
}

// Server-side ranged reader: reads only `ranges` off the media through
// TapeServer::ReadRange and ships each piece to the filer at its absolute
// stream offset, so watermarks stay monotone across the gaps the tape never
// touches. A failed range read runs the tape retry ladder and re-issues the
// remainder of the range (ranged reads are idempotent).
Task RangedRemoteTapeReaderProc(ReplayConfig cfg,
                                std::vector<StreamRange> ranges,
                                StreamSession* session, JobReport* report,
                                SimEvent* reader_done) {
  SimEnvironment* env = cfg.filer->env();
  TapeDrive* tape = cfg.media.drive;
  if (tape->loaded()) {
    report->tapes_used.push_back(tape->tape()->label());
  }
  bool failed = false;
  for (const StreamRange& r : ranges) {
    uint64_t floor = r.begin;  // delivered-to-filer cursor within the range
    int attempt = 0;
    while (floor < r.end && !failed) {
      Channel<uint64_t> progress(env, 4);
      Status read_st;
      SimEvent range_done(env);
      env->Spawn(ReadRangeAndClose(cfg.media.server, tape, floor,
                                   r.end - floor, &progress, &read_st,
                                   &range_done, session->ctx()));
      while (true) {
        std::optional<uint64_t> watermark = co_await progress.Recv();
        if (!watermark.has_value()) {
          break;
        }
        co_await session->Send(floor, *watermark, 0, &failed);
        floor = *watermark;
      }
      co_await range_done.Wait();
      if (read_st.ok() || failed) {
        break;
      }
      bool again = false;
      co_await TapeReadRetry(env, cfg.media.supervision, &attempt, report,
                             &again);
      if (!again) {
        if (report->status.ok()) {
          report->status = read_st;
        }
        failed = true;
      }
    }
    if (failed) {
      break;
    }
  }
  co_await session->Finish();
  reader_done->Notify();
}

// Filer-side receive adapter for remote restores: turns the in-order frames
// of the session's connections into the monotone arrived-bytes watermark
// ReplayConsumer expects.
Task WatermarkAdapter(Channel<StreamConn*>* conn_feed,
                      Channel<uint64_t>* out) {
  uint64_t hwm = 0;
  while (true) {
    std::optional<StreamConn*> conn = co_await conn_feed->Recv();
    if (!conn.has_value()) {
      break;
    }
    while (true) {
      std::optional<StreamFrame> frame = co_await (*conn)->frames().Recv();
      if (!frame.has_value()) {
        break;
      }
      if (frame->end > hwm) {
        hwm = frame->end;
        co_await out->Send(hwm);
      }
    }
  }
  out->Close();
}

// Filer-side pump of a remote backup: forwards produced chunks into the
// stream session and attributes the shipped bytes to each chunk's phase.
// After an unrecoverable stream failure it keeps draining the channel
// (dropping the sends) so the producer can finish and the job fails cleanly
// instead of deadlocking.
Task NetSenderProc(Filer* filer, StreamSession* session,
                   Channel<StreamChunk>* chunks, std::string track,
                   JobReport* report, SimEvent* sender_done) {
  SimEnvironment* env = filer->env();
  ScopedTraceSpan span(env->tracer(), track.c_str(), "stream",
                       session->ctx());
  bool failed = false;
  while (true) {
    std::optional<StreamChunk> chunk = co_await chunks->Recv();
    if (!chunk.has_value()) {
      break;
    }
    if (failed) {
      continue;
    }
    co_await session->Send(chunk->begin, chunk->end,
                           static_cast<uint32_t>(chunk->phase), &failed);
    report->phase(chunk->phase).net_bytes += chunk->end - chunk->begin;
    report->TouchPhase(chunk->phase, env->now(),
                       filer->cpu().BusyIntegral());
  }
  co_await session->Finish();
  sender_done->Notify();
}

// Charges one event's disk reads, then signals its ready-event and frees a
// slot in the read-ahead window.
Task DiskFetch(ReplayConfig cfg, const IoEvent* event, JobReport* report,
               SimEvent* ready, Resource* window) {
  DiskFaultPolicy policy;
  const DiskFaultPolicy* pp = nullptr;
  if (cfg.media.supervision != nullptr) {
    policy = cfg.media.supervision->MakeDiskPolicy(&report->faults);
    pp = &policy;
  }
  Status error;
  co_await ChargeDiskAccess(cfg.filer->env(), cfg.volume, event->disk_reads,
                            /*parity_writes=*/false, pp, &error,
                            cfg.media.qos.io_priority);
  if (!error.ok() && report->status.ok()) {
    report->status = error;
  }
  ready->Notify();
  window->Release();
}

// Write-behind worker for the restore side.
Task DiskFlush(ReplayConfig cfg, std::vector<Vbn> writes,
               uint64_t seq_blocks, JobReport* report, Resource* window) {
  SimEnvironment* env = cfg.filer->env();
  DiskFaultPolicy policy;
  const DiskFaultPolicy* pp = nullptr;
  if (cfg.media.supervision != nullptr) {
    policy = cfg.media.supervision->MakeDiskPolicy(&report->faults);
    pp = &policy;
  }
  Status error;
  if (!writes.empty()) {
    co_await ChargeDiskAccess(env, cfg.volume, writes,
                              /*parity_writes=*/true, pp, &error,
                              cfg.media.qos.io_priority);
  } else if (seq_blocks > 0) {
    co_await ChargeSequentialWrites(env, cfg.volume, seq_blocks, pp, &error,
                                    cfg.media.qos.io_priority);
  }
  if (!error.ok() && report->status.ok()) {
    report->status = error;
  }
  window->Release();
}

// Producer half of a backup replay: charges read-ahead disk fetches and CPU
// per trace event and emits the stream as ordered chunks on `out`, drawing
// each chunk's bytes from `throttle` when set. Does not close the channel —
// the caller composes the shutdown order.
Task ReplayProducer(ReplayConfig cfg, BackupThrottle* throttle,
                    const IoTrace* trace, Channel<StreamChunk>* out,
                    PhaseSpanner* spans, JobReport* report) {
  SimEnvironment* env = cfg.filer->env();
  const int priority = cfg.media.qos.io_priority;
  // Read-ahead: keep up to kDiskWindow events' disk reads in flight; the
  // stream is still produced in order.
  const size_t n_events = trace->events.size();
  std::vector<std::unique_ptr<SimEvent>> ready(n_events);
  Resource window(env, static_cast<int64_t>(kDiskWindow), "readahead");
  size_t spawned = 0;
  auto SpawnFetchesUpTo = [&](size_t limit) -> Task {
    while (spawned < std::min(limit, n_events)) {
      const IoEvent& ev = trace->events[spawned];
      ready[spawned] = std::make_unique<SimEvent>(env);
      if (ev.disk_reads.empty()) {
        ready[spawned]->Notify();
      } else {
        co_await window.Acquire();
        env->Spawn(DiskFetch(cfg, &ev, report, ready[spawned].get(),
                             &window));
      }
      ++spawned;
    }
  };

  uint64_t sent = 0;
  for (size_t i = 0; i < n_events; ++i) {
    const IoEvent& e = trace->events[i];
    spans->Enter(e.phase);
    co_await SpawnFetchesUpTo(i + kDiskWindow + 1);
    report->TouchPhase(e.phase, env->now(), cfg.filer->cpu().BusyIntegral());
    co_await ready[i]->Wait();
    report->phase(e.phase).disk_bytes += e.disk_reads.size() * kBlockSize;
    co_await cfg.filer->ChargeCpu(e.cpu, priority);
    while (sent < e.stream_end) {
      const uint64_t n = std::min<uint64_t>(kChunkBytes, e.stream_end - sent);
      if (throttle != nullptr) {
        co_await throttle->Acquire(n);
      }
      co_await out->Send(StreamChunk{sent, sent + n, e.phase});
      sent += n;
    }
    report->TouchPhase(e.phase, env->now(), cfg.filer->cpu().BusyIntegral());
  }
}

// Consumer half of a restore replay: waits for the `arrived` watermark
// (stream bytes delivered so far) to cover each trace event, then charges
// CPU, NVRAM and write-behind disk flushes. Drains the watermark channel and
// settles outstanding flushes before returning.
Task ReplayConsumer(ReplayConfig cfg, const IoTrace* trace,
                    uint64_t stream_bytes, Channel<uint64_t>* arrived,
                    PhaseSpanner* spans, JobReport* report) {
  SimEnvironment* env = cfg.filer->env();
  const int priority = cfg.media.qos.io_priority;
  const auto window_depth = static_cast<int64_t>(kDiskWindow);
  Resource write_window(env, window_depth, "writebehind");

  uint64_t available = 0;
  uint64_t consumed = 0;
  for (const IoEvent& e : trace->events) {
    spans->Enter(e.phase);
    // Wait for the stream to deliver this event's bytes.
    while (available < e.stream_end) {
      std::optional<uint64_t> watermark = co_await arrived->Recv();
      if (!watermark.has_value()) {
        available = stream_bytes;
        break;
      }
      available = *watermark;
    }
    report->TouchPhase(e.phase, env->now(), cfg.filer->cpu().BusyIntegral());
    // With content stages, the tape/link moved wire bytes: attribute the
    // event's share in wire coordinates (exact at frame boundaries).
    uint64_t delta = e.stream_end - consumed;
    if (cfg.content_map != nullptr) {
      delta = cfg.content_map->WireOf(e.stream_end) -
              cfg.content_map->WireOf(consumed);
    }
    report->phase(e.phase).tape_bytes += delta;
    // A remote stream crossed a NetLink: the same bytes are the phase's
    // link payload (the link MB/s columns).
    if (cfg.remote()) {
      report->phase(e.phase).net_bytes += delta;
    }
    consumed = e.stream_end;

    co_await cfg.filer->ChargeCpu(e.cpu, priority);
    if (cfg.charge_nvram && e.nvram_bytes > 0) {
      co_await cfg.filer->ChargeNvram(e.nvram_bytes, priority);
    }
    // Disk flushes proceed write-behind, bounded by the disk window.
    if (!e.disk_writes.empty()) {
      // The engine knows the exact addresses (image restore).
      co_await write_window.Acquire();
      env->Spawn(DiskFlush(cfg, e.disk_writes, 0, report, &write_window));
      report->phase(e.phase).disk_bytes +=
          e.disk_writes.size() * kBlockSize;
    } else if (e.blocks_written > 0) {
      // Write-anywhere flush: sequential burst plus CP meta amplification.
      const auto blocks = static_cast<uint64_t>(
          static_cast<double>(e.blocks_written) *
          (1.0 + cfg.write_meta_multiplier));
      co_await write_window.Acquire();
      env->Spawn(DiskFlush(cfg, {}, blocks, report, &write_window));
      report->phase(e.phase).disk_bytes += blocks * kBlockSize;
    }
    report->TouchPhase(e.phase, env->now(), cfg.filer->cpu().BusyIntegral());
  }
  // Drain any watermarks still queued (trailing stream padding) and wait
  // for outstanding write-behind flushes.
  while (true) {
    std::optional<uint64_t> watermark = co_await arrived->Recv();
    if (!watermark.has_value()) {
      break;
    }
  }
  co_await write_window.Acquire(window_depth);
  write_window.Release(window_depth);
}

// Content-stage adapter of a backup, spliced between the replay halves:
// translates raw producer chunks into wire chunks through the FrameMap,
// charging the enabled encode stages' CPU per raw MB at the replay's
// priority and pacing `throttle` on the post-stage wire bytes (the producer
// then paces nothing). Closes `out` and notifies `done` when `in` drains.
Task ContentChunkAdapter(ReplayConfig cfg, const FrameMap* map,
                         BackupThrottle* throttle, Channel<StreamChunk>* in,
                         Channel<StreamChunk>* out, JobReport* report,
                         SimEvent* done) {
  const SimDuration cpu_per_mb = cfg.media.content.EncodeCpuPerMb();
  uint64_t raw_done = 0;
  uint64_t cpu_charged = 0;
  uint64_t wire_sent = 0;
  while (true) {
    std::optional<StreamChunk> chunk = co_await in->Recv();
    if (!chunk.has_value()) {
      break;
    }
    // Encode CPU is priced per *raw* MB moved; the running total keeps the
    // charge exact across chunks of any size.
    raw_done += chunk->end - chunk->begin;
    const uint64_t cpu_due =
        static_cast<uint64_t>(cpu_per_mb) * raw_done / 1000000;
    if (cpu_due > cpu_charged) {
      co_await cfg.filer->cpu().Use(
          1, static_cast<SimDuration>(cpu_due - cpu_charged),
          cfg.media.qos.io_priority);
      report->content.encode_cpu_us += cpu_due - cpu_charged;
      cpu_charged = cpu_due;
    }
    const uint64_t wire_end = map->WireOf(chunk->end);
    if (wire_end > wire_sent) {
      // QoS paces post-stage wire bytes: the rate cap applies to what the
      // tape or link actually moves, not the pre-compression stream.
      if (throttle != nullptr) {
        co_await throttle->Acquire(wire_end - wire_sent);
      }
      co_await out->Send(StreamChunk{wire_sent, wire_end, chunk->phase});
      wire_sent = wire_end;
    }
  }
  out->Close();
  done->Notify();
}

// The restore-side inverse: wire-offset watermarks from a reader become raw
// watermarks for ReplayConsumer. Decode CPU is charged only for raw bytes
// the wire ranges actually moved — a resumed or single-file replay never
// pays decode for skipped gaps. Empty `wire_ranges` means the whole stream.
Task ContentWatermarkAdapter(ReplayConfig cfg, const FrameMap* map,
                             std::vector<StreamRange> wire_ranges,
                             Channel<uint64_t>* in, Channel<uint64_t>* out,
                             JobReport* report, SimEvent* done) {
  if (wire_ranges.empty()) {
    wire_ranges.push_back(StreamRange{0, map->wire_total()});
  }
  const SimDuration cpu_per_mb = cfg.media.content.DecodeCpuPerMb();
  size_t range = 0;          // first range the watermark has not passed
  uint64_t completed_raw = 0;  // raw size of fully delivered ranges
  uint64_t cpu_charged = 0;
  while (true) {
    std::optional<uint64_t> watermark = co_await in->Recv();
    if (!watermark.has_value()) {
      break;
    }
    const uint64_t wire = *watermark;
    while (range < wire_ranges.size() && wire >= wire_ranges[range].end) {
      completed_raw += map->RawSizeOfWireRange(wire_ranges[range]);
      ++range;
    }
    // Raw bytes the ranges have actually moved so far — NOT RawAvailable
    // of the global offset, which would bill decode CPU for skipped gaps
    // in a resumed or single-file replay.
    uint64_t moved_raw = completed_raw;
    if (range < wire_ranges.size() && wire > wire_ranges[range].begin) {
      moved_raw += map->RawAvailable(wire) -
                   map->RawAvailable(wire_ranges[range].begin);
    }
    const uint64_t cpu_due =
        static_cast<uint64_t>(cpu_per_mb) * moved_raw / 1000000;
    if (cpu_due > cpu_charged) {
      co_await cfg.filer->cpu().Use(
          1, static_cast<SimDuration>(cpu_due - cpu_charged),
          cfg.media.qos.io_priority);
      report->content.decode_cpu_us += cpu_due - cpu_charged;
      cpu_charged = cpu_due;
    }
    co_await out->Send(map->RawAvailable(wire));
  }
  out->Close();
  done->Notify();
}

}  // namespace

Task BackupReplay(ReplayConfig cfg, const IoTrace* trace,
                  std::span<const uint8_t> stream, JobReport* report,
                  CountdownLatch* done) {
  SimEnvironment* env = cfg.filer->env();
  const RemoteTarget& sink = cfg.media;
  // Content stages encode once, functionally, before the stream leaves the
  // filer: the media (and a link's session) hold the wire image while the
  // producer still replays the engine's raw-coordinate trace. Over a link,
  // the StreamConn throttle, the acked floor and any reconnect resend all
  // operate in post-stage coordinates, and a resend replays already-encoded
  // bytes without re-charging encode CPU.
  const bool content = sink.content.enabled();
  std::vector<uint8_t> wire_image;
  FrameMap map;
  std::span<const uint8_t> wire = stream;
  if (content) {
    Result<EncodeResult> encoded = StagePipeline(sink.content).Encode(stream);
    if (!encoded.ok()) {
      if (report->status.ok()) {
        report->status = encoded.status();
      }
      done->CountDown();
      co_return;
    }
    wire_image = std::move(encoded->wire);
    map = std::move(encoded->map);
    report->content.Add(encoded->stats);
    wire = wire_image;
  }
  // The byte cap is enforced once: over a link by the session's
  // connections, which pace the wire; locally by the content adapter (wire
  // bytes) or else the producer.
  BackupThrottle* throttle = cfg.remote() ? nullptr : sink.qos.throttle;

  std::optional<StreamSession> session;
  if (cfg.remote()) {
    session.emplace(env, sink, report->name, wire, report);
    co_await session->Start();
  }
  Channel<StreamChunk> wire_chunks(env, kPipelineDepth);
  Channel<StreamChunk> raw_chunks(env, kPipelineDepth);
  SimEvent writer_done(env);
  SimEvent sender_done(env);
  SimEvent adapter_done(env);
  if (session) {
    env->Spawn(TapeWriterProc(cfg, wire, nullptr, &session->conns(),
                              session->ctx(), report, &writer_done));
    env->Spawn(NetSenderProc(cfg.filer, &*session, &wire_chunks,
                             "net:" + sink.link->name(), report,
                             &sender_done));
  } else {
    env->Spawn(TapeWriterProc(cfg, wire, &wire_chunks, nullptr, {}, report,
                              &writer_done));
  }
  if (content) {
    env->Spawn(ContentChunkAdapter(cfg, &map, throttle, &raw_chunks,
                                   &wire_chunks, report, &adapter_done));
  }
  PhaseSpanner spans(env, report->name);
  Channel<StreamChunk>& produced = content ? raw_chunks : wire_chunks;
  co_await ReplayProducer(cfg, content ? nullptr : throttle, trace, &produced,
                          &spans, report);
  produced.Close();
  if (content) {
    co_await adapter_done.Wait();
  }
  if (session) {
    co_await sender_done.Wait();
  }
  co_await writer_done.Wait();
  // Close after the writer drains so the final phase's span covers the tape
  // tail, not just the last produced chunk.
  spans.Close();
  report->stream_bytes += stream.size();
  done->CountDown();
}

Task RestoreReplay(ReplayConfig cfg, const IoTrace* trace,
                   std::span<const uint8_t> media, uint64_t raw_bytes,
                   std::optional<std::vector<StreamRange>> ranges,
                   JobReport* report, CountdownLatch* done) {
  SimEnvironment* env = cfg.filer->env();
  const FrameMap* map = cfg.content_map;
  // Resume/catalog offsets are raw; with content stages the media hold wire
  // frames. Read only the frame-aligned wire cover — the bounded-replay
  // guarantee stated in post-stage coordinates.
  if (ranges && map != nullptr) {
    ranges = map->WireRangesOf(*ranges);
  }
  // Account only the bytes the media actually moved, not the skipped gaps —
  // the number the bounded-replay guarantee is stated in.
  uint64_t moved = raw_bytes;
  if (ranges) {
    moved = 0;
    for (const StreamRange& r : *ranges) {
      moved += r.size();
    }
  }

  std::optional<StreamSession> session;
  if (cfg.remote()) {
    session.emplace(env, cfg.media, report->name, media, report);
    co_await session->Start();
  }
  // The reader publishes media (wire) watermarks; with content stages an
  // adapter translates them back to raw for the consumer, charging the
  // decode stages' CPU along the way.
  Channel<uint64_t> wire_marks(env, kPipelineDepth);
  Channel<uint64_t> raw_marks(env, kPipelineDepth);
  SimEvent reader_done(env);
  SimEvent adapter_done(env);
  if (!session) {
    env->Spawn(TapeReaderProc(cfg, ranges, media.size(), &wire_marks, nullptr,
                              report, nullptr));
  } else {
    if (ranges) {
      env->Spawn(RangedRemoteTapeReaderProc(cfg, *ranges, &*session, report,
                                            &reader_done));
    } else {
      env->Spawn(TapeReaderProc(cfg, std::nullopt, media.size(), nullptr,
                                &*session, report, &reader_done));
    }
    env->Spawn(WatermarkAdapter(&session->conns(), &wire_marks));
  }
  if (map != nullptr) {
    env->Spawn(ContentWatermarkAdapter(
        cfg, map, ranges.value_or(std::vector<StreamRange>{}), &wire_marks,
        &raw_marks, report, &adapter_done));
  }
  PhaseSpanner spans(env, report->name);
  co_await ReplayConsumer(cfg, trace, raw_bytes,
                          map != nullptr ? &raw_marks : &wire_marks, &spans,
                          report);
  if (session) {
    co_await reader_done.Wait();
  }
  if (map != nullptr) {
    co_await adapter_done.Wait();
  }
  spans.Close();
  report->stream_bytes += moved;
  done->CountDown();
}

Task SnapshotPhase(Filer* filer, JobReport* report, JobPhase phase,
                   SimDuration duration, int priority) {
  SimEnvironment* env = filer->env();
  PhaseSpanner spans(env, report->name);
  spans.Enter(phase);
  report->TouchPhase(phase, env->now(), filer->cpu().BusyIntegral());
  // Duty-cycle the CPU at the target fraction in short slices so that
  // concurrent jobs are not starved for the whole window.
  const SimTime deadline = env->now() + duration;
  const SimDuration slice = 20 * kMillisecond;
  const auto busy_slice = static_cast<SimDuration>(
      static_cast<double>(slice) * filer->model().snapshot_cpu_fraction);
  while (env->now() < deadline) {
    co_await filer->cpu().Use(1, busy_slice, priority);
    const SimDuration idle =
        std::min<SimDuration>(slice - busy_slice, deadline - env->now());
    if (idle > 0) {
      co_await env->Delay(idle);
    }
  }
  report->TouchPhase(phase, env->now(), filer->cpu().BusyIntegral());
}

}  // namespace bkup
