#include "repl/repl.hpp"

#include <fcntl.h>
#include <unistd.h>

#include <algorithm>
#include <chrono>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <utility>

#include "repl/net_transport.hpp"
#include "repl/wire.hpp"

namespace fs = std::filesystem;

namespace sdl::repl {

namespace {

// Appends up to `len` bytes of `fd`, read from `base + buf->size()`, to
// `buf`; returns how many arrived (fewer only at the end of the file).
std::size_t read_more(int fd, std::uint64_t base, std::size_t len,
                      std::string* buf) {
  const std::size_t start = buf->size();
  buf->resize(start + len);
  std::size_t got = 0;
  while (got < len) {
    const ssize_t n = ::pread(fd, buf->data() + start + got, len - got,
                              static_cast<off_t>(base + start + got));
    if (n <= 0) break;
    got += static_cast<std::size_t>(n);
  }
  buf->resize(start + got);
  return got;
}

struct SegmentRef {
  std::uint64_t start = 0;
  std::string path;
};

bool parse_numbered(const std::string& name, const char* prefix,
                    const char* suffix, std::uint64_t* seq) {
  const std::size_t plen = std::strlen(prefix);
  const std::size_t slen = std::strlen(suffix);
  if (name.size() <= plen + slen) return false;
  if (name.compare(0, plen, prefix) != 0) return false;
  if (name.compare(name.size() - slen, slen, suffix) != 0) return false;
  const std::string digits = name.substr(plen, name.size() - plen - slen);
  std::uint64_t v = 0;
  for (const char c : digits) {
    if (c < '0' || c > '9') return false;
    v = v * 10 + static_cast<std::uint64_t>(c - '0');
  }
  *seq = v;
  return true;
}

std::vector<SegmentRef> list_segments(const std::string& dir) {
  std::vector<SegmentRef> out;
  std::error_code ec;
  for (const auto& entry : fs::directory_iterator(dir, ec)) {
    if (!entry.is_regular_file(ec)) continue;
    const std::string name = entry.path().filename().string();
    std::uint64_t start = 0;
    if (parse_numbered(name, "wal-", ".wal", &start)) {
      out.push_back({start, entry.path().string()});
    }
  }
  std::sort(out.begin(), out.end(),
            [](const SegmentRef& a, const SegmentRef& b) {
              return a.start < b.start;
            });
  return out;
}

bool read_file(const std::string& path, std::string* out) {
  std::ifstream in(path, std::ios::binary);
  if (!in) return false;
  std::ostringstream ss;
  ss << in.rdbuf();
  *out = ss.str();
  return in.good() || in.eof();
}

}  // namespace

// ---------------------------------------------------------------- leader

ReplLeader::ReplLeader(ReplOptions opts, persist::PersistManager* persist)
    : opts_(std::move(opts)), persist_(persist) {
  // Seed BEFORE registering the listener, and advance with a fetch-max:
  // a callback racing the constructor can then never be overwritten by
  // the older seed value. Wake sleeping tailers the instant the durable
  // watermark advances. The listener runs with the WAL writer mutex held:
  // store + notify only, never back into persist (see
  // WalWriter::set_durable_listener) — taking durable_mutex_ here is safe
  // (wait_shippable never touches the writer under it) and closes the
  // missed-wakeup window between a tailer's predicate check and its wait.
  durable_seq_.store(persist_->shippable_seq(), std::memory_order_release);
  persist_->set_durable_listener([this](std::uint64_t seq) {
    std::uint64_t cur = durable_seq_.load(std::memory_order_relaxed);
    while (cur < seq && !durable_seq_.compare_exchange_weak(
                            cur, seq, std::memory_order_release,
                            std::memory_order_relaxed)) {
    }
    { std::scoped_lock lock(durable_mutex_); }
    durable_cv_.notify_all();
  });
  if (opts_.listen_port != 0) {
    listener_ = NetListener::bind(opts_.listen_port);
    if (listener_ != nullptr) {
      accept_thread_ = std::thread([this] {
        while (!stop_.load(std::memory_order_acquire)) {
          auto t = listener_->accept(opts_.poll_interval_ms);
          if (t != nullptr) add_follower(std::move(t));
        }
      });
    }
  }
}

ReplLeader::~ReplLeader() {
  stop();
  // The listener captures `this`; detach it before the members die.
  persist_->set_durable_listener({});
}

void ReplLeader::add_follower(std::unique_ptr<Transport> transport) {
  std::scoped_lock lock(sessions_mutex_);
  if (stop_.load(std::memory_order_acquire)) {
    transport->close();
    return;
  }
  auto session = std::make_unique<Session>();
  session->transport = std::move(transport);
  Session* raw = session.get();
  sessions_started_.fetch_add(1, std::memory_order_relaxed);
  session->thread = std::thread([this, raw] { session_main(raw); });
  sessions_.push_back(std::move(session));
}

void ReplLeader::stop() {
  stop_.store(true, std::memory_order_release);
  {
    std::scoped_lock lock(durable_mutex_);
  }
  durable_cv_.notify_all();
  // close() only shutdown()s the listening socket (waking the blocked
  // accept); the fd itself is closed by the NetListener destructor, after
  // the accept thread is joined — no fd reuse under a live poll().
  if (listener_ != nullptr) listener_->close();
  if (accept_thread_.joinable()) accept_thread_.join();
  std::vector<std::unique_ptr<Session>> drained;
  {
    std::scoped_lock lock(sessions_mutex_);
    for (auto& s : sessions_) s->transport->close();
    drained.swap(sessions_);
  }
  for (auto& s : drained) {
    if (s->thread.joinable()) s->thread.join();
  }
}

bool ReplLeader::lag_exceeded() const {
  if (opts_.max_lag_bytes == 0) return false;
  std::scoped_lock lock(sessions_mutex_);
  for (const auto& s : sessions_) {
    if (s->ended.load(std::memory_order_acquire)) continue;
    const std::uint64_t sent = s->sent_bytes.load(std::memory_order_acquire);
    const std::uint64_t acked = s->acked_bytes.load(std::memory_order_acquire);
    if (sent > acked && sent - acked > opts_.max_lag_bytes) {
      const_cast<ReplLeader*>(this)->backpressure_hits_.fetch_add(
          1, std::memory_order_relaxed);
      return true;
    }
  }
  return false;
}

ReplLeaderStats ReplLeader::stats() const {
  ReplLeaderStats out;
  out.sessions_started = sessions_started_.load(std::memory_order_relaxed);
  out.sessions_ended = sessions_ended_.load(std::memory_order_relaxed);
  out.batches_sent = batches_sent_.load(std::memory_order_relaxed);
  out.snapshots_sent = snapshots_sent_.load(std::memory_order_relaxed);
  out.backpressure_hits = backpressure_hits_.load(std::memory_order_relaxed);
  out.tail_bytes_read = tail_bytes_read_.load(std::memory_order_relaxed);
  const std::uint64_t shippable = persist_->shippable_seq();
  std::uint64_t min_acked = shippable;
  bool any_live = false;
  std::scoped_lock lock(sessions_mutex_);
  for (const auto& s : sessions_) {
    out.bytes_sent += s->sent_bytes.load(std::memory_order_relaxed);
    if (s->ended.load(std::memory_order_acquire)) continue;
    any_live = true;
    min_acked =
        std::min(min_acked, s->acked_seq.load(std::memory_order_acquire));
    const std::uint64_t sent = s->sent_bytes.load(std::memory_order_acquire);
    const std::uint64_t acked = s->acked_bytes.load(std::memory_order_acquire);
    out.lag_bytes += sent > acked ? sent - acked : 0;
  }
  out.min_acked_seq = any_live ? min_acked : shippable;
  out.lag_records = shippable - out.min_acked_seq;
  return out;
}

bool ReplLeader::drain_acks(Session* s, int timeout_ms) {
  std::string raw;
  Message msg;
  for (;;) {
    const RecvStatus st = s->transport->recv(&raw, timeout_ms);
    if (st == RecvStatus::Closed) return false;
    if (st == RecvStatus::Timeout) return true;
    if (!decode_message(raw, &msg) || msg.kind != MsgKind::Ack) {
      s->transport->close();
      return false;
    }
    // Watermarks are monotone; a reordered ack never regresses them.
    if (msg.ack.applied_seq > s->acked_seq.load(std::memory_order_relaxed)) {
      s->acked_seq.store(msg.ack.applied_seq, std::memory_order_release);
    }
    if (msg.ack.applied_bytes >
        s->acked_bytes.load(std::memory_order_relaxed)) {
      s->acked_bytes.store(msg.ack.applied_bytes, std::memory_order_release);
    }
    timeout_ms = 0;  // drain whatever else is queued, then return
  }
}

bool ReplLeader::wait_shippable(std::uint64_t min_seq) {
  std::unique_lock lock(durable_mutex_);
  durable_cv_.wait_for(
      lock, std::chrono::milliseconds(opts_.poll_interval_ms), [&] {
        return stop_.load(std::memory_order_acquire) ||
               durable_seq_.load(std::memory_order_acquire) >= min_seq;
      });
  return !stop_.load(std::memory_order_acquire);
}

void ReplLeader::session_main(Session* s) {
  Transport* const t = s->transport.get();
  const auto finish = [&] {
    t->close();
    s->ended.store(true, std::memory_order_release);
    sessions_ended_.fetch_add(1, std::memory_order_relaxed);
  };

  // Handshake: the follower leads with Hello{node, last_applied}.
  std::uint64_t next = 0;
  {
    std::string raw;
    Message msg;
    for (;;) {
      if (stop_.load(std::memory_order_acquire)) return finish();
      const RecvStatus st = t->recv(&raw, opts_.poll_interval_ms);
      if (st == RecvStatus::Timeout) continue;
      if (st == RecvStatus::Closed || !decode_message(raw, &msg) ||
          msg.kind != MsgKind::Hello) {
        return finish();
      }
      next = msg.hello.last_applied + 1;
      s->acked_seq.store(msg.hello.last_applied, std::memory_order_release);
      break;
    }
  }

  // Tail state: a cached fd survives pruning's unlink; `file_off` is the
  // offset of the next unshipped frame. The tail is re-read each round
  // rather than buffered across rounds — preallocated zero padding can be
  // overwritten in place by the flusher, so cached tail bytes go stale.
  int fd = -1;
  std::uint64_t cur_start = 0;
  std::uint64_t file_off = 0;
  std::size_t frame_hint = 256;  // size of the last frame shipped
  std::string buf;
  const auto close_seg = [&] {
    if (fd >= 0) ::close(fd);
    fd = -1;
  };

  while (!stop_.load(std::memory_order_acquire)) {
    if (!drain_acks(s, 0)) break;

    // In-flight window: past the cap, block on acks instead of sending.
    // (sent/acked are both per-session; acked can still observe ahead of
    // a torn read of sent, so clamp instead of letting unsigned wrap.)
    const std::uint64_t win_sent =
        s->sent_bytes.load(std::memory_order_relaxed);
    const std::uint64_t win_acked =
        s->acked_bytes.load(std::memory_order_relaxed);
    if (win_sent > win_acked &&
        win_sent - win_acked > opts_.max_inflight_bytes) {
      if (!drain_acks(s, opts_.poll_interval_ms)) break;
      continue;
    }

    // Catch-up: the WAL below the newest snapshot barrier is pruned (or
    // about to be) — seed from the snapshot file and tail from barrier+1.
    const std::uint64_t barrier = persist_->last_snapshot_barrier();
    if (next <= barrier) {
      std::string bytes;
      const std::string path =
          persist_->options().dir + "/" + persist::snapshot_file_name(barrier);
      if (!read_file(path, &bytes)) {
        // Raced a newer snapshot's prune; rescan next round.
        std::this_thread::sleep_for(std::chrono::milliseconds(1));
        continue;
      }
      if (FaultInjector* f = faults_.load(std::memory_order_acquire)) {
        const FaultAction a = f->decide(FaultPoint::ReplSend);
        if (a == FaultAction::Delay) f->delay();
        if (a == FaultAction::Kill) break;
      }
      SnapshotMsg msg;
      msg.file_bytes = std::move(bytes);
      const std::size_t snap_bytes = msg.file_bytes.size();
      if (!t->send(encode_snapshot(msg))) break;
      s->sent_bytes.fetch_add(snap_bytes, std::memory_order_release);
      snapshots_sent_.fetch_add(1, std::memory_order_relaxed);
      next = barrier + 1;
      close_seg();
      continue;
    }

    const std::uint64_t shippable = persist_->shippable_seq();
    if (shippable < next) {
      if (!wait_shippable(next)) break;
      continue;
    }

    // Open (or reopen after rotation/teardown) the segment covering `next`:
    // the one with the largest start <= next.
    if (fd < 0) {
      const std::vector<SegmentRef> segs =
          list_segments(persist_->options().dir);
      const SegmentRef* best = nullptr;
      for (const SegmentRef& g : segs) {
        if (g.start <= next && (best == nullptr || g.start > best->start)) {
          best = &g;
        }
      }
      if (best == nullptr) {
        // Segment pruned under us; the snapshot branch covers it next round.
        std::this_thread::sleep_for(std::chrono::milliseconds(1));
        continue;
      }
      fd = ::open(best->path.c_str(), O_RDONLY);
      if (fd < 0) continue;  // pruned between list and open
      cur_start = best->start;
      file_off = persist::kWalHeaderSize;
    }

    // Read the live tail and assemble one batch of raw frames. The
    // segment's tail is preallocated zeros, so the window is sized to
    // what the durable frames past the cursor should occupy (their count
    // times the last frame's size) rather than a fixed span of mostly
    // padding; a frame that runs past the window extends it. Frames are
    // checked by length, CRC and seq only — the follower decodes them.
    buf.clear();
    const auto pending_bytes = [&] {
      return static_cast<std::size_t>(
          std::min<std::uint64_t>((shippable - next + 1) * frame_hint,
                                  opts_.max_batch_bytes));
    };
    const auto fetch = [&](std::size_t len) {
      const std::size_t got = read_more(fd, file_off, len, &buf);
      tail_bytes_read_.fetch_add(got, std::memory_order_relaxed);
      return got;
    };
    fetch(pending_bytes());

    std::string frames;
    std::uint64_t first = 0;
    std::uint64_t last = 0;
    std::size_t consumed = 0;
    bool clean_end = false;
    bool corrupt = false;
    while (next <= shippable && frames.size() < opts_.max_batch_bytes) {
      const std::string_view rest = std::string_view(buf).substr(consumed);
      const persist::WalFrameParse p =
          persist::parse_wal_frame(rest, persist::WalFrameDecode::SeqOnly);
      // The window ends inside this frame's header or payload: extend it
      // (by at least the rest of the frame) unless the file ends here.
      const std::size_t short_by =
          rest.size() < 8 ? 8 - rest.size()
          : p.status == persist::WalFrameStatus::Torn && p.size > rest.size()
              ? p.size - rest.size()
              : 0;
      if (short_by != 0 && fetch(std::max(short_by, pending_bytes())) != 0) {
        continue;
      }
      if (p.status == persist::WalFrameStatus::Ok) {
        if (p.commit.seq > shippable) break;  // durable gate: never ship past
        if (p.commit.seq >= next) {
          if (frames.empty()) first = p.commit.seq;
          frames.append(buf, consumed, p.size);
          last = p.commit.seq;
          next = p.commit.seq + 1;
          frame_hint = p.size;
        }
        consumed += p.size;
        continue;
      }
      if (p.status == persist::WalFrameStatus::Corrupt) corrupt = true;
      if (p.status == persist::WalFrameStatus::End) clean_end = true;
      break;  // Torn: a racing pwrite — re-read next round
    }
    file_off += consumed;

    if (!frames.empty()) {
      if (FaultInjector* f = faults_.load(std::memory_order_acquire)) {
        const FaultAction a = f->decide(FaultPoint::ReplSend);
        if (a == FaultAction::Delay) f->delay();
        if (a == FaultAction::Kill) break;  // dropped session mid-stream
      }
      BatchMsg msg;
      msg.first_seq = first;
      msg.last_seq = last;
      msg.frames = std::move(frames);
      const std::size_t frame_bytes = msg.frames.size();
      if (!t->send(encode_batch(msg))) break;
      s->sent_bytes.fetch_add(frame_bytes, std::memory_order_release);
      batches_sent_.fetch_add(1, std::memory_order_relaxed);
      continue;
    }

    if (corrupt) break;  // cannot happen below the durable watermark

    if (clean_end) {
      // Durable data exists at or past `next` but this segment is done:
      // the WAL rotated. Find the successor; if none is visible yet the
      // rotation is mid-flight — retry.
      const std::vector<SegmentRef> segs =
          list_segments(persist_->options().dir);
      const SegmentRef* best = nullptr;
      for (const SegmentRef& g : segs) {
        if (g.start <= next && (best == nullptr || g.start > best->start)) {
          best = &g;
        }
      }
      if (best != nullptr && best->start != cur_start) {
        close_seg();
        continue;
      }
    }
    // Torn tail or rotation not yet visible: wait for the next durable
    // advance (or a poll tick) before re-reading.
    if (!wait_shippable(next)) break;
  }
  close_seg();
  finish();
}

// -------------------------------------------------------------- follower

ReplFollower::ReplFollower(ReplOptions opts, Engine* engine,
                           persist::PersistManager* persist)
    : opts_(std::move(opts)), engine_(engine), persist_(persist) {
  const Dataspace& space = engine_->space();
  id_index_.reserve(space.size());
  space.scan_all([&](const Record& r) {
    id_index_.emplace(r.id, &r);
    return true;
  });
  // Restart continuity: the local log holds the leader's frames under the
  // leader's sequence numbers, so the last one recovery restored is
  // exactly the watermark the reattach Hello resumes from.
  if (persist_ != nullptr) {
    applied_seq_.store(persist_->stats().last_seq, std::memory_order_release);
  }
}

ReplFollower::~ReplFollower() { detach(); }

void ReplFollower::attach(std::unique_ptr<Transport> transport) {
  std::scoped_lock lock(attach_mutex_);
  // Tear down any previous session first: the applier owns id_index_
  // between attach boundaries.
  session_stop_.store(true, std::memory_order_release);
  if (transport_ != nullptr) transport_->close();
  if (applier_.joinable()) applier_.join();
  transport_ = std::move(transport);
  session_stop_.store(false, std::memory_order_release);
  attaches_.fetch_add(1, std::memory_order_relaxed);
  Transport* const raw = transport_.get();
  applier_ = std::thread([this, raw] { applier_main(raw); });
}

std::uint64_t ReplFollower::detach() {
  std::scoped_lock lock(attach_mutex_);
  session_stop_.store(true, std::memory_order_release);
  if (transport_ != nullptr) transport_->close();
  if (applier_.joinable()) applier_.join();
  transport_.reset();
  return applied_seq_.load(std::memory_order_acquire);
}

std::uint64_t ReplFollower::promote() {
  const std::uint64_t fence = detach();
  id_index_.clear();  // the applier is joined; local commits follow
  promotions_.fetch_add(1, std::memory_order_relaxed);
  writable_.store(true, std::memory_order_release);
  return fence;
}

bool ReplFollower::attached() const {
  std::scoped_lock lock(attach_mutex_);
  return transport_ != nullptr && transport_->alive();
}

ReplFollowerStats ReplFollower::stats() const {
  ReplFollowerStats out;
  out.applied_seq = applied_seq_.load(std::memory_order_acquire);
  out.applied_commits = applied_commits_.load(std::memory_order_relaxed);
  out.applied_bytes = applied_bytes_.load(std::memory_order_relaxed);
  out.snapshots_loaded = snapshots_loaded_.load(std::memory_order_relaxed);
  out.batches_applied = batches_applied_.load(std::memory_order_relaxed);
  out.batches_rejected = batches_rejected_.load(std::memory_order_relaxed);
  const std::uint64_t attaches = attaches_.load(std::memory_order_relaxed);
  out.reconnects = attaches > 0 ? attaches - 1 : 0;
  out.promotions = promotions_.load(std::memory_order_relaxed);
  out.missing_retracts = missing_retracts_.load(std::memory_order_relaxed);
  return out;
}

void ReplFollower::applier_main(Transport* transport) {
  // Handshake: announce the contiguous watermark; the leader resumes the
  // stream there (or seeds a snapshot if it pruned past it).
  HelloMsg hello;
  hello.node_id = opts_.node_id;
  hello.last_applied = applied_seq_.load(std::memory_order_acquire);
  if (!transport->send(encode_hello(hello))) return;

  // Acked bytes are PER-SESSION: the leader windows them against its own
  // per-session sent counter, so a reconnected session restarts at zero
  // (the cumulative applied_bytes_ atomic keeps feeding the stats gauge).
  std::uint64_t session_bytes = 0;
  std::string raw;
  Message msg;
  while (!session_stop_.load(std::memory_order_acquire)) {
    const RecvStatus st = transport->recv(&raw, opts_.poll_interval_ms);
    if (st == RecvStatus::Timeout) continue;
    if (st == RecvStatus::Closed) return;
    if (!decode_message(raw, &msg)) {
      transport->close();
      return;
    }
    // ReplApply crossing: the batch is decoded but not yet applied.
    // FailCommit = reject and retry in place (redelivery without a
    // reconnect); Kill = tear the session down mid-apply.
    bool killed = false;
    if (FaultInjector* f = faults_.load(std::memory_order_acquire)) {
      for (;;) {
        const FaultAction a = f->decide(FaultPoint::ReplApply);
        if (a == FaultAction::Kill) {
          killed = true;
          break;
        }
        if (a == FaultAction::Delay) f->delay();
        if (a == FaultAction::FailCommit) {
          batches_rejected_.fetch_add(1, std::memory_order_relaxed);
          continue;
        }
        break;
      }
    }
    if (killed) {
      transport->close();
      return;
    }

    bool ok = true;
    if (msg.kind == MsgKind::Snapshot) {
      ok = apply_snapshot(msg.snapshot.file_bytes);
      if (ok) {
        session_bytes += msg.snapshot.file_bytes.size();
        applied_bytes_.fetch_add(msg.snapshot.file_bytes.size(),
                                 std::memory_order_relaxed);
      }
    } else if (msg.kind == MsgKind::Batch) {
      std::uint64_t bytes = 0;
      ok = apply_batch(msg.batch.first_seq, msg.batch.last_seq,
                       msg.batch.frames, &bytes);
      if (ok) {
        session_bytes += bytes;
        applied_bytes_.fetch_add(bytes, std::memory_order_relaxed);
      }
    } else {
      continue;  // Hello/Ack from a confused peer: ignore
    }
    if (!ok) {
      transport->close();
      return;
    }
    AckMsg ack;
    ack.applied_seq = applied_seq_.load(std::memory_order_acquire);
    ack.applied_bytes = session_bytes;
    if (!transport->send(encode_ack(ack))) return;
  }
}

bool ReplFollower::apply_snapshot(const std::string& file_bytes) {
  persist::SnapshotReadResult snap = persist::parse_snapshot(file_bytes);
  if (!snap.ok) {
    batches_rejected_.fetch_add(1, std::memory_order_relaxed);
    return false;
  }
  // A snapshot REPLACES the local state: one reset frame retracting every
  // resident instance and asserting the snapshot's records reuses the
  // exact apply path (exclusion, publish). It carries no bytes, so it is
  // not logged: the snapshot file itself becomes this node's snapshot at
  // the barrier, and its log restarts at barrier + 1.
  Engine::ReplFrame reset;
  reset.commit.seq = snap.barrier_seq;
  reset.commit.retracts.reserve(id_index_.size());
  for (const auto& [id, rec] : id_index_) reset.commit.retracts.push_back(id);
  reset.commit.asserts = std::move(snap.records);
  const Engine::ReplApplyOutcome out =
      engine_->apply_replicated({&reset, 1}, &id_index_);
  missing_retracts_.fetch_add(out.missing_retracts,
                              std::memory_order_relaxed);
  applied_commits_.fetch_add(out.applied_commits, std::memory_order_relaxed);
  if (!out.ok) {
    // The reset failed mid-apply: reject the session with the watermark
    // untouched; the reconnect handshake re-seeds from scratch.
    batches_rejected_.fetch_add(1, std::memory_order_relaxed);
    return false;
  }
  if (persist_ != nullptr) {
    persist_->install_snapshot(file_bytes, snap.barrier_seq);
  }
  applied_seq_.store(snap.barrier_seq, std::memory_order_release);
  snapshots_loaded_.fetch_add(1, std::memory_order_relaxed);
  return true;
}

bool ReplFollower::apply_batch(std::uint64_t first_seq,
                               std::uint64_t last_seq,
                               const std::string& frames,
                               std::uint64_t* applied_bytes) {
  const std::uint64_t applied = applied_seq_.load(std::memory_order_acquire);
  if (last_seq <= applied) return true;  // full redelivery: ack and move on
  if (first_seq > applied + 1) {
    // Gap: applying would lose commits. Tear down; the reconnect handshake
    // resumes from the watermark.
    batches_rejected_.fetch_add(1, std::memory_order_relaxed);
    return false;
  }
  std::vector<Engine::ReplFrame> batch;
  std::size_t off = 0;
  std::uint64_t expect = applied + 1;
  std::uint64_t bytes = 0;
  while (off < frames.size()) {
    const std::string_view rest = std::string_view(frames).substr(off);
    persist::WalFrameParse p = persist::parse_wal_frame(rest);
    if (p.status == persist::WalFrameStatus::End) break;
    if (p.status != persist::WalFrameStatus::Ok) {
      batches_rejected_.fetch_add(1, std::memory_order_relaxed);
      return false;
    }
    off += p.size;
    if (p.commit.seq <= applied) continue;  // partial redelivery overlap
    if (p.commit.seq != expect) {
      batches_rejected_.fetch_add(1, std::memory_order_relaxed);
      return false;
    }
    ++expect;
    bytes += p.size;
    batch.push_back({rest.substr(0, p.size), std::move(p.commit)});
  }
  if (batch.empty()) return true;
  const Engine::ReplApplyOutcome out =
      engine_->apply_replicated(batch, &id_index_);
  missing_retracts_.fetch_add(out.missing_retracts,
                              std::memory_order_relaxed);
  applied_commits_.fetch_add(out.applied_commits, std::memory_order_relaxed);
  if (!out.ok) {
    // A commit threw mid-batch: everything before it applied and logged.
    // Advance the watermark to that prefix, reject the session; the
    // reconnect handshake resumes exactly there.
    if (out.applied_commits > 0) {
      applied_seq_.store(batch[out.applied_commits - 1].commit.seq,
                         std::memory_order_release);
    }
    batches_rejected_.fetch_add(1, std::memory_order_relaxed);
    return false;
  }
  batches_applied_.fetch_add(1, std::memory_order_relaxed);
  applied_seq_.store(expect - 1, std::memory_order_release);
  *applied_bytes = bytes;
  return true;
}

}  // namespace sdl::repl
