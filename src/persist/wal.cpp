#include "persist/wal.hpp"

#include <fcntl.h>
#include <sys/stat.h>
#include <unistd.h>

#include <cerrno>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <stdexcept>

#include "core/codec.hpp"

namespace sdl::persist {

namespace {

// Durable format constants — append-only, never renumber.
// v2 ("SDLWAL2\n") adds an explicit format-version field and the origin
// node id to the header payload; v1 ("SDLWAL1\n") is recognized only to
// be rejected as a format mismatch (never corruption).
constexpr char kWalMagic[8] = {'S', 'D', 'L', 'W', 'A', 'L', '2', '\n'};
constexpr char kWalMagicV1[8] = {'S', 'D', 'L', 'W', 'A', 'L', '1', '\n'};
constexpr std::size_t kHeaderSize = kWalHeaderSize;  // magic, payload, crc
constexpr std::size_t kHeaderPayload = 24;  // version, shards, seq, origin
constexpr std::uint8_t kRecordCommit = 1;
// Follower-only watermark record (WalCommit::repl_mark). Additive within
// the v2 format: leader segments never contain it, so cross-node shipped
// logs stay decodable by any v2 reader; only a follower's OWN directory
// carries these, and the binary that wrote them reads them back.
constexpr std::uint8_t kRecordReplMark = 2;
// A frame length beyond this is corruption, not a huge commit: even a
// consensus composite over thousands of tuples stays far below it.
constexpr std::uint32_t kMaxRecordLen = 1u << 30;
// Preallocation granularity: keeping writes inside fallocated space makes
// fdatasync a pure data flush (no extent/size journal commit), which on
// ext4 halves the per-sync latency and CPU. ~20k typical commit frames.
constexpr std::uint64_t kPreallocChunk = 1u << 20;

std::string header_bytes(std::uint32_t shard_count, std::uint64_t start_seq,
                         std::uint64_t origin_node) {
  std::string out(kWalMagic, sizeof kWalMagic);
  std::string payload;
  codec::put_u32(payload, kWalFormatVersion);
  codec::put_u32(payload, shard_count);
  codec::put_u64(payload, start_seq);
  codec::put_u64(payload, origin_node);
  out += payload;
  codec::put_u32(out, codec::crc32(payload.data(), payload.size()));
  return out;
}

bool decode_commit(std::string_view payload, WalCommit* out) {
  codec::Reader r(payload);
  const std::uint8_t kind = r.get_u8();
  if (kind == kRecordReplMark) {
    out->seq = r.get_varint();
    out->repl_mark = r.get_varint();
    return r.ok() && r.at_end() && out->repl_mark != 0;
  }
  if (kind != kRecordCommit) return false;
  out->seq = r.get_varint();
  out->owner = static_cast<ProcessId>(r.get_varint());
  out->fire = r.get_varint();
  const std::uint64_t nretracts = r.get_varint();
  if (!r.ok() || nretracts > r.remaining()) return false;
  out->retracts.reserve(static_cast<std::size_t>(nretracts));
  for (std::uint64_t i = 0; i < nretracts && r.ok(); ++i) {
    const std::uint64_t bits = r.get_u64();
    out->retracts.emplace_back(static_cast<ProcessId>(bits >> 40), bits);
  }
  const std::uint64_t nasserts = r.get_varint();
  if (!r.ok() || nasserts > r.remaining()) return false;
  out->asserts.reserve(static_cast<std::size_t>(nasserts));
  for (std::uint64_t i = 0; i < nasserts && r.ok(); ++i) {
    const std::uint64_t bits = r.get_u64();
    const TupleId id(static_cast<ProcessId>(bits >> 40), bits);
    Tuple t = r.get_tuple();
    if (!r.ok()) break;
    out->asserts.emplace_back(id, std::move(t));
  }
  // Trailing garbage inside a CRC-clean frame would mean an encoder bug,
  // not disk corruption; reject it all the same.
  return r.ok() && r.at_end();
}

}  // namespace

std::string wal_segment_name(std::uint64_t start_seq) {
  char buf[40];
  std::snprintf(buf, sizeof buf, "wal-%020llu.wal",
                static_cast<unsigned long long>(start_seq));
  return buf;
}

WalFrameParse parse_wal_frame(std::string_view data) {
  WalFrameParse out;
  if (data.size() < 8) {
    // A crash can land the file size anywhere inside the preallocated
    // region, including 1-7 bytes past the last frame. All-zero short
    // tails are that padding — clean end-of-log, same as a full [0][0]
    // marker below. Only a NONZERO partial header is a torn write (or,
    // for a live tail, a frame still being flushed).
    for (const char c : data) {
      if (c != '\0') {
        out.status = WalFrameStatus::Torn;
        out.detail = "torn frame header";
        return out;
      }
    }
    out.status = WalFrameStatus::End;
    return out;
  }
  codec::Reader fr(data.data(), 8);
  const std::uint32_t len = fr.get_u32();
  const std::uint32_t crc = fr.get_u32();
  if (len == 0 && crc == 0) {
    // Preallocation padding: the writer fallocates segment space ahead
    // of the data, so a crashed segment ends in zeros. A real frame's
    // payload is never empty (it always carries a record kind byte), so
    // [0][0] unambiguously marks clean end-of-log — not corruption.
    out.status = WalFrameStatus::End;
    return out;
  }
  if (len > kMaxRecordLen) {
    out.status = WalFrameStatus::Corrupt;
    out.detail = "frame length " + std::to_string(len) + " exceeds cap";
    return out;
  }
  if (data.size() - 8 < len) {
    out.status = WalFrameStatus::Torn;
    out.size = 8 + std::size_t{len};
    out.detail = "torn record";
    return out;
  }
  const std::string_view payload(data.data() + 8, len);
  if (codec::crc32(payload.data(), payload.size()) != crc) {
    out.status = WalFrameStatus::Corrupt;
    out.detail = "record crc mismatch";
    return out;
  }
  if (!decode_commit(payload, &out.commit)) {
    out.status = WalFrameStatus::Corrupt;
    out.detail = "undecodable record";
    return out;
  }
  out.status = WalFrameStatus::Ok;
  out.size = 8 + len;
  return out;
}

WalReadResult read_wal_segment(const std::string& path) {
  WalReadResult result;
  std::ifstream in(path, std::ios::binary);
  if (!in) throw std::runtime_error("wal: cannot open " + path);
  std::string data((std::istreambuf_iterator<char>(in)),
                   std::istreambuf_iterator<char>());
  if (in.bad()) throw std::runtime_error("wal: read failed: " + path);

  if (data.empty()) {
    // A segment created by rotate()/open that never got its header bytes
    // (crash between creat and write). Nothing durable was lost.
    result.detail = "empty segment";
    return result;
  }
  if (data.size() >= sizeof kWalMagicV1 &&
      std::memcmp(data.data(), kWalMagicV1, sizeof kWalMagicV1) == 0) {
    // A v1 segment (pre format-version header). Its records are intact —
    // this binary just does not decode that layout. Distinct rejection:
    // never classified as corrupt, never truncated.
    result.format_mismatch = true;
    result.format_version = 1;
    result.detail = "segment format version 1 (binary speaks version " +
                    std::to_string(kWalFormatVersion) + ")";
    return result;
  }
  if (data.size() < kHeaderSize ||
      std::memcmp(data.data(), kWalMagic, sizeof kWalMagic) != 0) {
    result.corrupt = true;
    result.detail = "bad segment header";
    return result;
  }
  {
    codec::Reader r(data.data() + sizeof kWalMagic, kHeaderPayload + 4);
    const std::uint32_t version = r.get_u32();
    const std::uint32_t shard_count = r.get_u32();
    const std::uint64_t start_seq = r.get_u64();
    const std::uint64_t origin_node = r.get_u64();
    const std::uint32_t crc = r.get_u32();
    if (crc != codec::crc32(data.data() + sizeof kWalMagic, kHeaderPayload)) {
      result.corrupt = true;
      result.detail = "segment header crc mismatch";
      return result;
    }
    result.format_version = version;
    if (version != kWalFormatVersion) {
      // CRC-clean header from a different (newer) format revision: the
      // payload layout beyond the header is unknown to this binary.
      result.format_mismatch = true;
      result.detail = "segment format version " + std::to_string(version) +
                      " (binary speaks version " +
                      std::to_string(kWalFormatVersion) + ")";
      return result;
    }
    result.header_ok = true;
    result.shard_count = shard_count;
    result.start_seq = start_seq;
    result.origin_node = origin_node;
  }

  std::size_t off = kHeaderSize;
  result.valid_bytes = off;
  while (off < data.size()) {
    WalFrameParse frame = parse_wal_frame(std::string_view(data).substr(off));
    if (frame.status == WalFrameStatus::End) break;
    if (frame.status != WalFrameStatus::Ok) {
      // A torn frame in a file at rest is a crash cut; corrupt is damage.
      // Either way the clean prefix ends here.
      result.corrupt = true;
      result.detail = frame.detail + " at offset " + std::to_string(off);
      break;
    }
    result.offsets.push_back(off);
    result.commits.push_back(std::move(frame.commit));
    off += frame.size;
    result.valid_bytes = off;
  }
  return result;
}

WalWriter::WalWriter(std::string dir, std::uint32_t shard_count,
                     std::uint64_t next_seq, std::uint64_t fsync_every,
                     std::uint64_t origin_node)
    : dir_(std::move(dir)),
      shard_count_(shard_count),
      fsync_every_(fsync_every),
      origin_node_(origin_node),
      next_seq_(next_seq),
      last_appended_(next_seq - 1),
      last_synced_(next_seq - 1) {
  {
    std::scoped_lock lock(mutex_);
    open_segment(next_seq_);
  }
  // Group commit: the fsync runs off the commit path. Committers park
  // frames; the flusher pays the device latency.
  if (fsync_every_ > 1) flusher_ = std::thread([this] { flusher_main(); });
}

WalWriter::~WalWriter() {
  {
    std::unique_lock lock(mutex_);
    if (fd_ >= 0 && !dead_ && fsync_every_ > 0 &&
        (last_synced_ < last_appended_ || !batch_.empty())) {
      sync_locked(lock);
    }
    stop_ = true;
  }
  cv_.notify_all();
  if (flusher_.joinable()) flusher_.join();
  std::scoped_lock lock(mutex_);
  if (fd_ >= 0) {
    // Clean shutdown drops the preallocation padding: the segment on disk
    // ends exactly at the last frame, as pre-preallocation readers expect.
    if (!dead_ && prealloc_end_ > file_off_) {
      ::ftruncate(fd_, static_cast<off_t>(file_off_));
    }
    ::close(fd_);
    fd_ = -1;
  }
}

void WalWriter::flusher_main() {
  std::unique_lock lock(mutex_);
  while (true) {
    cv_.wait(lock, [&] { return stop_ || flush_requested_; });
    if (flush_requested_ && fd_ >= 0 && !dead_ && !batch_.empty()) {
      flush_requested_ = false;
      std::string pending = std::move(batch_);
      batch_.clear();
      const std::uint64_t target = last_appended_;
      // Claim the batch's file range under the mutex (writes stay in
      // sequence order), then pwrite+fdatasync on a dup so rotate()/
      // teardown can close fd_ meanwhile (the duplicated descriptor
      // shares the open file description), and outside the mutex so
      // committers keep parking frames.
      ensure_capacity_locked(pending.size());
      const std::uint64_t off = file_off_;
      file_off_ += pending.size();
      const int dupfd = ::dup(fd_);
      flush_inflight_ = true;
      lock.unlock();
      obs::RuntimeMetrics* const obs_m =
          (metrics_ != nullptr && obs::enabled()) ? metrics_ : nullptr;
      const std::uint64_t t_flush0 = obs_m != nullptr ? obs::now_ns() : 0;
      bool ok = dupfd >= 0;
      if (ok) {
        ok = write_at(dupfd, pending.data(), pending.size(), off);
        if (ok) ::fdatasync(dupfd);
      }
      if (ok && obs_m != nullptr) obs_m->wal_flush_ns->record_since(t_flush0);
      if (dupfd >= 0) ::close(dupfd);
      lock.lock();
      flush_inflight_ = false;
      if (!ok) dead_ = true;
      // An inline sync (barrier, teardown) may have overtaken this batch.
      if (ok && target > last_synced_) {
        last_synced_ = target;
        ++syncs_;
        if (durable_listener_) durable_listener_(last_synced_);
      }
      done_cv_.notify_all();
    } else {
      flush_requested_ = false;
    }
    if (stop_ && !flush_requested_) return;
  }
}

void WalWriter::open_segment(std::uint64_t start_seq) {
  path_ = dir_ + "/" + wal_segment_name(start_seq);
  // No O_TRUNC: after a crash between rotate() and the first append,
  // reopening the same start_seq must continue the existing segment,
  // never wipe it. Writes use pwrite at file_off_ (not O_APPEND — the
  // preallocated file's EOF sits past the data).
  fd_ = ::open(path_.c_str(), O_CREAT | O_WRONLY, 0644);
  if (fd_ < 0) {
    throw std::runtime_error("wal: cannot open segment " + path_ + ": " +
                             std::strerror(errno));
  }
  struct stat st{};
  if (::fstat(fd_, &st) != 0) {
    throw std::runtime_error("wal: fstat failed: " + path_);
  }
  // An existing segment was truncated to its clean prefix by recovery
  // (PersistManager::clean_directory), so its size IS the data end.
  file_off_ = static_cast<std::uint64_t>(st.st_size);
  prealloc_end_ = file_off_;
  if (st.st_size == 0) {
    ensure_capacity_locked(kPreallocChunk);
    const std::string header =
        header_bytes(shard_count_, start_seq, origin_node_);
    if (!write_at(fd_, header.data(), header.size(), 0)) {
      throw std::runtime_error("wal: cannot write segment header: " + path_);
    }
    file_off_ = header.size();
    if (fsync_every_ > 0) {
      ::fsync(fd_);
      // Persist the directory entry too, so the segment itself survives a
      // crash right after creation.
      const int dfd = ::open(dir_.c_str(), O_RDONLY | O_DIRECTORY);
      if (dfd >= 0) {
        ::fsync(dfd);
        ::close(dfd);
      }
    }
  }
}

void WalWriter::ensure_capacity_locked(std::size_t need) {
  if (!prealloc_enabled_) return;
  while (file_off_ + need > prealloc_end_) {
    // posix_fallocate extends the file size as well as the allocation, so
    // every later write in the region is non-extending (cheap fdatasync).
    if (::posix_fallocate(fd_, static_cast<off_t>(prealloc_end_),
                          static_cast<off_t>(kPreallocChunk)) != 0) {
      prealloc_enabled_ = false;  // e.g. unsupported fs; writes extend
      return;
    }
    prealloc_end_ += kPreallocChunk;
  }
}

bool WalWriter::write_at(int fd, const char* data, std::size_t size,
                         std::uint64_t off) {
  while (size > 0) {
    const ssize_t n = ::pwrite(fd, data, size, static_cast<off_t>(off));
    if (n < 0) {
      if (errno == EINTR) continue;
      return false;
    }
    data += n;
    size -= static_cast<std::size_t>(n);
    off += static_cast<std::uint64_t>(n);
  }
  return true;
}

std::uint64_t WalWriter::append(
    ProcessId owner, std::uint64_t fire, const std::vector<TupleId>& retracts,
    const std::vector<std::pair<TupleId, Tuple>>& asserts) {
  // Committer-side append latency: mutex wait + encode + write (and, for
  // fsync_every == 1, the inline durable sync). Recorded only for
  // acknowledged appends — the dead/killed paths are not the hot path.
  obs::RuntimeMetrics* const obs_m =
      (metrics_ != nullptr && obs::enabled()) ? metrics_ : nullptr;
  const std::uint64_t t_append0 = obs_m != nullptr ? obs::now_ns() : 0;
  std::unique_lock lock(mutex_);
  if (dead_) return 0;

  // Group-commit backpressure: past the byte cap the parked batch is
  // memory growing at commit speed while draining at device speed — block
  // this committer until the flusher catches up instead of queueing
  // without bound. Checked BEFORE the frame is encoded into the shared
  // scratch buffer: the wait releases mutex_, and another committer
  // entering append() meanwhile would clobber the scratch. The flusher
  // claims (clears) the batch under the mutex and signals done_cv_ after
  // its flush, so the predicate drains promptly.
  if (overload_ != nullptr && fsync_every_ > 1) {
    const std::size_t cap = overload_->options().wal_max_batch_bytes;
    if (cap != 0 && batch_.size() >= cap) {
      overload_->stats().wal_waits.fetch_add(1, std::memory_order_relaxed);
      // A loop, not a one-shot predicate wait: between the flusher's
      // notify and this committer re-acquiring the mutex, its peers can
      // refill the batch past the cap — each pass must re-request a
      // flush, or the last sleeper wedges once those peers exit.
      while (!dead_ && batch_.size() >= cap) {
        flush_requested_ = true;
        unsynced_ = 0;
        cv_.notify_one();
        done_cv_.wait(lock);
      }
      if (dead_) return 0;
    }
  }

  // Encode straight into the reused scratch buffer (its capacity sticks
  // across appends — the encode path is on every commit's critical
  // section, so allocations here are commit latency). The payload starts
  // at byte 8; the frame header is patched in once the length is known.
  std::string& frame = frame_scratch_;
  frame.clear();
  frame.append(8, '\0');
  {
    codec::put_u8(frame, kRecordCommit);
    codec::put_varint(frame, next_seq_);
    codec::put_varint(frame, owner);
    codec::put_varint(frame, fire);
    codec::put_varint(frame, retracts.size());
    for (const TupleId id : retracts) codec::put_u64(frame, id.bits());
    codec::put_varint(frame, asserts.size());
    for (const auto& [id, tuple] : asserts) {
      codec::put_u64(frame, id.bits());
      codec::put_tuple(frame, tuple);
    }
  }
  const std::size_t payload_len = frame.size() - 8;
  std::string header;
  codec::put_u32(header, static_cast<std::uint32_t>(payload_len));
  codec::put_u32(header, codec::crc32(frame.data() + 8, payload_len));
  frame.replace(0, 8, header);

  if (faults_ != nullptr) {
    switch (faults_->decide(FaultPoint::WalAppend)) {
      case FaultAction::Delay:
        faults_->delay();
        break;
      case FaultAction::Kill: {
        // Simulated crash mid-write: the parked group-commit batch plus a
        // deterministic prefix of the new frame is what "reached disk".
        // The commit is NOT acknowledged; recovery must drop the torn
        // record. Batched-but-unsynced acks die with the process — the
        // documented fsync_every > 1 window. Wait out any in-flight flush
        // first so the torn bytes land at a well-defined file position.
        done_cv_.wait(lock, [&] { return !flush_inflight_; });
        std::string pending = std::move(batch_);
        batch_.clear();
        pending += frame;
        const std::uint64_t torn =
            faults_->jitter_us(static_cast<std::uint64_t>(pending.size() - 1));
        write_at(fd_, pending.data(), static_cast<std::size_t>(torn),
                 file_off_);
        if (fd_ >= 0) ::fsync(fd_);
        dead_ = true;
        // Committers blocked on the batch cap key off dead_ too.
        done_cv_.notify_all();
        return 0;
      }
      default:
        break;
    }
  }

  // Group commit: for fsync_every > 1 the committer does NO syscall — the
  // frame parks in user space and the background flusher drains the batch
  // with one pwrite+fdatasync pair (a committer-side write would block on
  // the inode lock behind the in-flight fsync). fsync_every <= 1 writes
  // through immediately (1 also syncs inline: strict durable-before-ack).
  if (fsync_every_ > 1) {
    batch_ += frame;
  } else {
    ensure_capacity_locked(frame.size());
    if (!write_at(fd_, frame.data(), frame.size(), file_off_)) {
      dead_ = true;
      return 0;
    }
    file_off_ += frame.size();
  }
  last_appended_ = next_seq_++;
  ++appended_;
  ++unsynced_;
  bool notify = false;
  if (fsync_every_ == 1) {
    sync_locked(lock);
  } else if (fsync_every_ > 1 && unsynced_ >= fsync_every_) {
    unsynced_ = 0;
    flush_requested_ = true;
    notify = true;
  } else if (fsync_every_ == 0 && durable_listener_) {
    // Durability off: the write-through IS the watermark (see
    // shippable_seq) — replication still makes progress.
    durable_listener_(last_appended_);
  }
  const std::uint64_t acked = last_appended_;
  lock.unlock();
  if (obs_m != nullptr) obs_m->wal_append_ns->record_since(t_append0);
  // Notify after unlock: waking the flusher while holding the mutex would
  // bounce it straight back to sleep (and on one core, preempt the
  // committer mid-critical-section).
  if (notify) cv_.notify_one();
  return acked;
}

std::uint64_t WalWriter::append_repl_mark(std::uint64_t mark) {
  std::unique_lock lock(mutex_);
  if (dead_ || mark == 0) return 0;
  // Tiny metadata frame: skips the group-commit byte cap (a ~20-byte
  // record cannot meaningfully grow the batch) and the WalAppend fault
  // point (which targets commit appends). Ships through the same batch /
  // write-through path so its durability order matches the data's.
  std::string& frame = frame_scratch_;
  frame.clear();
  frame.append(8, '\0');
  codec::put_u8(frame, kRecordReplMark);
  codec::put_varint(frame, next_seq_);
  codec::put_varint(frame, mark);
  const std::size_t payload_len = frame.size() - 8;
  std::string header;
  codec::put_u32(header, static_cast<std::uint32_t>(payload_len));
  codec::put_u32(header, codec::crc32(frame.data() + 8, payload_len));
  frame.replace(0, 8, header);

  if (fsync_every_ > 1) {
    batch_ += frame;
  } else {
    ensure_capacity_locked(frame.size());
    if (!write_at(fd_, frame.data(), frame.size(), file_off_)) {
      dead_ = true;
      return 0;
    }
    file_off_ += frame.size();
  }
  last_appended_ = next_seq_++;
  ++appended_;
  ++unsynced_;
  bool notify = false;
  if (fsync_every_ == 1) {
    sync_locked(lock);
  } else if (fsync_every_ > 1 && unsynced_ >= fsync_every_) {
    unsynced_ = 0;
    flush_requested_ = true;
    notify = true;
  } else if (fsync_every_ == 0 && durable_listener_) {
    durable_listener_(last_appended_);
  }
  const std::uint64_t acked = last_appended_;
  lock.unlock();
  if (notify) cv_.notify_one();
  return acked;
}

void WalWriter::sync_locked(std::unique_lock<std::mutex>& lock) {
  // Fence the flusher first: its batch write must fully precede ours or
  // the frames would interleave out of sequence order.
  done_cv_.wait(lock, [&] { return !flush_inflight_; });
  if (fd_ < 0 || dead_) return;
  obs::RuntimeMetrics* const obs_m =
      (metrics_ != nullptr && obs::enabled()) ? metrics_ : nullptr;
  const std::uint64_t t_flush0 = obs_m != nullptr ? obs::now_ns() : 0;
  if (!batch_.empty()) {
    std::string pending = std::move(batch_);
    batch_.clear();
    flush_requested_ = false;
    ensure_capacity_locked(pending.size());
    if (!write_at(fd_, pending.data(), pending.size(), file_off_)) {
      dead_ = true;
      done_cv_.notify_all();
      return;
    }
    file_off_ += pending.size();
  }
  ::fdatasync(fd_);
  const bool advanced = last_appended_ > last_synced_;
  last_synced_ = last_appended_;
  unsynced_ = 0;
  ++syncs_;
  if (obs_m != nullptr) obs_m->wal_flush_ns->record_since(t_flush0);
  if (advanced && durable_listener_) durable_listener_(last_synced_);
}

void WalWriter::sync() {
  std::unique_lock lock(mutex_);
  sync_locked(lock);
}

std::uint64_t WalWriter::rotate() {
  std::unique_lock lock(mutex_);
  const std::uint64_t barrier = last_appended_;
  if (dead_) return barrier;
  sync_locked(lock);
  if (dead_) return barrier;
  // Trim the padding so the closed segment ends at its last frame (the
  // snapshot barrier makes this segment immutable from here on).
  if (prealloc_end_ > file_off_) {
    ::ftruncate(fd_, static_cast<off_t>(file_off_));
    if (fsync_every_ > 0) ::fsync(fd_);
  }
  ::close(fd_);
  fd_ = -1;
  open_segment(barrier + 1);
  return barrier;
}

bool WalWriter::alive() const {
  std::scoped_lock lock(mutex_);
  return !dead_;
}

std::uint64_t WalWriter::last_appended() const {
  std::scoped_lock lock(mutex_);
  return last_appended_;
}

std::uint64_t WalWriter::last_synced() const {
  std::scoped_lock lock(mutex_);
  return last_synced_;
}

std::uint64_t WalWriter::shippable_seq() const {
  std::scoped_lock lock(mutex_);
  return fsync_every_ == 0 ? last_appended_ : last_synced_;
}

std::uint64_t WalWriter::appended_commits() const {
  std::scoped_lock lock(mutex_);
  return appended_;
}

std::uint64_t WalWriter::syncs() const {
  std::scoped_lock lock(mutex_);
  return syncs_;
}

}  // namespace sdl::persist
