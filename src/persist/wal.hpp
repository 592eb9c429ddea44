// Write-ahead log: the durable commit stream (durability tentpole).
//
// Every effectful commit — engine transaction, environment seed, consensus
// composite — appends ONE record while the commit's engine locks are still
// held, carrying the commit's full effect set (retracted instance ids,
// asserted instances with their tuples). The writer assigns the record's
// sequence number under its own mutex inside that critical section, so:
//   * conflicting commits hold a common shard lock across the append —
//     their WAL order IS their serialization order (a valid witness, the
//     same lock-held discipline src/check/history uses);
//   * file order equals sequence order, so a torn tail is exactly a
//     sequence-prefix: recovery that truncates at the first corrupt record
//     recovers a serially-consistent prefix by construction.
//
// Framing: each record is [u32 len][u32 crc32(payload)][payload]; a
// segment starts with a fixed-size header stamping the format version,
// the dataspace geometry (shard_count — TupleId sequences are
// shard-striped, so recovery into a different geometry could collide
// fresh ids with restored ones), the first sequence number the segment
// may contain, and the origin node id (replication: a follower must be
// able to tell whose log it is replaying). A version mismatch is
// reported as `format_mismatch`, distinct from corruption — a newer
// node's segment shipped to an older binary is readable-someday data,
// not damage, and must never be truncated away. Fsync is batched:
// `fsync_every` commits per fsync(2) (1 = group size one, 0 = never), the
// classic group-commit throughput/durability dial experiment E18 measures.
// For fsync_every > 1 committers never issue a syscall at all: frames park
// in a user-space batch and a background flusher thread drains it with one
// pwrite(2)+fdatasync(2) pair per batch (a write by the committer would
// block on the inode lock behind the in-flight fsync). The loss window on
// a crash is the documented "up to one batch plus the flush in flight";
// fsync_every = 1 keeps the strict write+fsync-before-ack path.
//
// Segment space is preallocated in chunks (posix_fallocate), so steady-
// state writes never extend the file and fdatasync skips the extent/size
// journal commit — on ext4 that halves both the latency and the CPU of
// every sync (measured: 245us -> 113us wall, 65us -> 28us CPU). The tail
// of a crashed segment is therefore zero padding; the reader treats a
// [len=0][crc=0] frame header as clean end-of-log (a real frame's payload
// is never empty). Clean shutdown and rotation ftruncate the padding away.
//
// The FaultInjector's WalAppend point simulates a crash mid-write: the
// record is cut short at a deterministic byte length, the writer goes
// permanently dead (as a crashed process's disk would), and the caller
// sees an unacknowledged append. Recovery tests then assert the torn tail
// is dropped and every acknowledged commit survives.
#pragma once

#include <condition_variable>
#include <cstdint>
#include <functional>
#include <mutex>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "control/overload.hpp"
#include "core/tuple.hpp"
#include "fault/fault.hpp"
#include "obs/metrics.hpp"

namespace sdl::persist {

/// One committed transaction as the WAL stores it. `fire` groups the
/// members of a consensus composite into one atomic record (0 = an
/// independent commit, matching HistoryEntry::consensus_fire).
///
/// `repl_mark` != 0 marks a REPLICATION WATERMARK record instead of a
/// commit: a follower appends one right after re-logging an applied
/// batch, carrying the leader sequence that batch reached. It has no
/// effect set (replay no-ops it) but consumes a local sequence number
/// like any frame, and because it is appended after the batch in the
/// same group-commit stream it is durable exactly when the data it
/// covers is — recovery restores the follower's leader-seq watermark
/// from it (RecoveredState::repl_applied_seq) so a restarted follower
/// resumes the stream where it left off instead of from zero.
struct WalCommit {
  std::uint64_t seq = 0;
  ProcessId owner = 0;
  std::uint64_t fire = 0;
  std::uint64_t repl_mark = 0;  // leader-seq watermark; 0 = normal commit
  std::vector<TupleId> retracts;
  std::vector<std::pair<TupleId, Tuple>> asserts;
};

/// Parse of one segment file. `corrupt` marks a torn or damaged tail;
/// `valid_bytes` is the length of the clean prefix (the truncation point
/// under the truncate-at-first-corrupt policy). `format_mismatch` is a
/// DISTINCT rejection: the header is intact but stamps a format version
/// this binary does not speak (e.g. a v1 segment, or one shipped from a
/// newer node) — the file must be left untouched, never truncated.
/// Commits are in file order; `offsets[i]` is the byte offset of commit
/// i's frame.
struct WalReadResult {
  bool header_ok = false;
  bool format_mismatch = false;
  std::uint32_t format_version = 0;
  std::uint32_t shard_count = 0;
  std::uint64_t start_seq = 0;
  std::uint64_t origin_node = 0;
  std::vector<WalCommit> commits;
  std::vector<std::uint64_t> offsets;
  std::uint64_t valid_bytes = 0;
  bool corrupt = false;
  std::string detail;
};

/// Current segment format version ("SDLWAL2\n" header). Version 1
/// ("SDLWAL1\n", no version/origin fields) is recognized and rejected as
/// a format mismatch, not corruption.
constexpr std::uint32_t kWalFormatVersion = 2;

/// Byte size of the v2 segment header (magic + payload + crc). Frame 0
/// starts at exactly this offset; the replication tailer seeks here.
constexpr std::size_t kWalHeaderSize = 8 + 24 + 4;

/// Reads and validates one WAL segment file. Never throws on bad input —
/// torn and corrupt files yield a clean-prefix result with `corrupt` set.
/// Throws std::runtime_error only if the file cannot be opened/read.
WalReadResult read_wal_segment(const std::string& path);

/// Segment file name for a given starting sequence ("wal-<seq>.wal").
std::string wal_segment_name(std::uint64_t start_seq);

/// Incremental frame parse over an in-memory byte window — the ONE decode
/// path shared by read_wal_segment (recovery) and the replication stream
/// (leader tailer re-validating before ship, follower apply). `data` is
/// any window whose byte 0 is a frame boundary (NOT including the segment
/// header).
enum class WalFrameStatus {
  Ok,       // one whole frame decoded; `size` bytes consumed
  End,      // clean end-of-log ([0][0] marker or all-zero padding tail)
  Torn,     // partial frame: more bytes may still arrive (live tail) or
            // the write was cut (crash) — caller context decides
  Corrupt,  // crc mismatch or undecodable payload: never recoverable
};
struct WalFrameParse {
  WalFrameStatus status = WalFrameStatus::End;
  std::size_t size = 0;  // frame bytes ([hdr 8][payload]) when status==Ok,
                         // or the size a whole header declares when a
                         // Torn window holds only part of the payload
  WalCommit commit;      // decoded record when status==Ok
  std::string detail;    // human-readable reason for Torn/Corrupt
};
WalFrameParse parse_wal_frame(std::string_view data);

class WalWriter {
 public:
  /// Opens (creating or appending to) the segment for `next_seq` in `dir`.
  /// `fsync_every`: commits per fsync batch; 1 = every commit, 0 = never.
  /// `origin_node` is stamped into every segment header this writer
  /// creates (0 = unreplicated single-node default).
  WalWriter(std::string dir, std::uint32_t shard_count, std::uint64_t next_seq,
            std::uint64_t fsync_every, std::uint64_t origin_node = 0);
  ~WalWriter();
  WalWriter(const WalWriter&) = delete;
  WalWriter& operator=(const WalWriter&) = delete;

  /// Appends one commit record. MUST be called with the commit's engine
  /// locks held (see file comment — the sequence assigned here is the
  /// recovery-order witness). Returns the assigned sequence, or 0 when
  /// the append was NOT acknowledged (writer dead, or killed mid-write by
  /// the WalAppend fault point — the record may be torn on disk).
  std::uint64_t append(ProcessId owner, std::uint64_t fire,
                       const std::vector<TupleId>& retracts,
                       const std::vector<std::pair<TupleId, Tuple>>& asserts);

  /// Appends a replication watermark record (WalCommit::repl_mark): the
  /// follower's durable "applied through leader seq `mark`" stamp. Same
  /// batching/sync discipline as append(); returns the assigned local
  /// sequence, or 0 when the writer is dead. Call it right after the
  /// batch's re-logged commits, before any other append can interleave
  /// (the follower applier is single-threaded, so this holds trivially).
  std::uint64_t append_repl_mark(std::uint64_t mark);

  /// Forces an fsync of any unsynced appends (snapshot barrier, teardown).
  void sync();

  /// Snapshot rotation: fsyncs and closes the current segment and opens a
  /// fresh one for last_appended()+1. MUST be called under total exclusion
  /// (no append concurrently). Returns the barrier — the last sequence of
  /// the closed segment; every record <= barrier lives in older segments.
  std::uint64_t rotate();

  /// False once a WalAppend kill fired (simulated crash) or an I/O error
  /// was seen: all subsequent appends are dropped and unacknowledged.
  [[nodiscard]] bool alive() const;

  [[nodiscard]] std::uint64_t last_appended() const;  // last fully written seq
  [[nodiscard]] std::uint64_t last_synced() const;    // last seq fsync covered
  [[nodiscard]] std::uint64_t appended_commits() const;
  [[nodiscard]] std::uint64_t syncs() const;
  [[nodiscard]] const std::string& dir() const { return dir_; }
  [[nodiscard]] const std::string& segment_path() const { return path_; }

  /// Arms the WalAppend injection point (null disables).
  void set_fault_injector(FaultInjector* f) { faults_ = f; }

  /// Arms the append/flush latency instruments (null disables; also
  /// re-gated on the SDL_OBS runtime flag, once per append/flush).
  void set_metrics(obs::RuntimeMetrics* m) { metrics_ = m; }

  /// Arms the overload layer's group-commit batch cap (null disables).
  /// When the parked batch exceeds wal_max_batch_bytes, committers block
  /// on the flusher instead of growing it — bounded memory and bounded
  /// ack lag when the device cannot keep up with the commit rate.
  void set_overload(control::OverloadControl* c) { overload_ = c; }

  /// Replication hook: `fn(durable_seq)` fires every time the durable
  /// watermark advances — after the group-commit flusher's fdatasync, an
  /// inline strict sync, or (fsync_every == 0, durability off) a plain
  /// write-through. Called with the writer mutex HELD: the listener must
  /// only flip a flag / notify a condition variable and must never call
  /// back into the writer. This is how records ship once durable, never
  /// before. Set before the first append; null disables.
  void set_durable_listener(std::function<void(std::uint64_t)> fn) {
    std::scoped_lock lock(mutex_);
    durable_listener_ = std::move(fn);
  }

  /// Highest sequence the replication tailer may ship: the durable
  /// watermark (last_synced), except with durability off (fsync_every ==
  /// 0) where records are as durable as they will ever get once written —
  /// there the append watermark gates shipping instead.
  [[nodiscard]] std::uint64_t shippable_seq() const;

 private:
  void open_segment(std::uint64_t start_seq);  // caller holds mutex_
  void sync_locked(std::unique_lock<std::mutex>& lock);
  // Grows the preallocated region so the next `need` bytes at file_off_
  // are non-extending writes. Caller holds mutex_ with no flush in flight.
  void ensure_capacity_locked(std::size_t need);
  static bool write_at(int fd, const char* data, std::size_t size,
                       std::uint64_t off);
  void flusher_main();

  const std::string dir_;
  const std::uint32_t shard_count_;
  const std::uint64_t fsync_every_;
  const std::uint64_t origin_node_;
  FaultInjector* faults_ = nullptr;
  obs::RuntimeMetrics* metrics_ = nullptr;
  control::OverloadControl* overload_ = nullptr;

  mutable std::mutex mutex_;
  std::condition_variable cv_;       // wakes the flusher at a batch boundary
  std::condition_variable done_cv_;  // signals a completed flush
  std::thread flusher_;              // started only when fsync_every > 1
  bool stop_ = false;
  bool flush_requested_ = false;   // a full batch awaits the flusher
  bool flush_inflight_ = false;    // the flusher is writing/fsyncing now
  int fd_ = -1;
  std::string path_;
  std::uint64_t file_off_ = 0;      // next write offset (logical data end)
  std::uint64_t prealloc_end_ = 0;  // allocated file size (>= file_off_)
  bool prealloc_enabled_ = true;    // cleared if fallocate is unsupported
  bool dead_ = false;
  std::uint64_t next_seq_ = 1;
  std::uint64_t last_appended_ = 0;
  std::uint64_t last_synced_ = 0;
  std::uint64_t appended_ = 0;
  std::uint64_t unsynced_ = 0;  // appends since the last flush handoff
  std::string batch_;  // group-commit frames parked until the next flush
  std::string frame_scratch_;  // reused per-append encode buffer
  std::uint64_t syncs_ = 0;
  std::function<void(std::uint64_t)> durable_listener_;  // repl wakeup
};

}  // namespace sdl::persist
