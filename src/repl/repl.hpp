// Leader/follower replication.
//
// The WAL is already a total serialization witness of every effectful
// commit (wal.hpp), so replication is log shipping — no second consensus
// protocol, no per-transaction coordination — and leader and follower
// share one sequence space:
//
//   * The LEADER tails its own live WAL segment files and streams raw
//     frames to each follower session. The group-commit flusher's durable
//     listener wakes the tailer the moment the watermark advances, and
//     the tailer never ships past shippable_seq() — a record reaches a
//     follower once durable on the leader, never before, so a follower
//     can never apply a commit the leader could lose in a crash.
//   * Each FOLLOWER checks every batch for contiguity (the CRCs were
//     checked by the frame parse), applies it onto its own Runtime under
//     total exclusion (Engine::apply_replicated), preserving
//     restart-stable TupleIds, and appends each frame's bytes unchanged
//     to its own WAL — a follower is an independently recoverable
//     replica, not a cache, and its log holds the leader's frames under
//     the leader's sequence numbers. Its applied watermark is therefore
//     its last logged seq: a RESTARTED follower resumes the stream from
//     the last_seq its recovery restored. Local parked readers wake on
//     the applied keys, and the lock-free optimistic read path serves
//     eventually-consistent reads with the applied-seq watermark exposed
//     for staleness checks.
//   * A follower joining BEHIND the retained WAL window (the leader
//     pruned segments past a snapshot barrier) is seeded with the raw
//     snapshot file first, then tailed from barrier + 1. It installs the
//     file as its own snapshot at the barrier and restarts its log on a
//     fresh segment at barrier + 1.
//   * On leader death a follower is PROMOTED: the applier fences at the
//     last contiguously applied record (contiguity is enforced on every
//     batch, so the fence needs no scan), the local WAL rotates to a
//     fresh segment, and the runtime resumes writable; its first local
//     commit takes fence + 1. The chaos sweep (tests/repl) kills leaders
//     mid-stream across 64 seeds and proves the promoted follower's state
//     equals the serial replay of the leader's log through the checker.
//
// Ordering/durability invariants (docs/IMPLEMENTATION.md §17 derives
// them): ship-once-durable, apply-in-sequence-order (batches whose first
// frame is not applied+1 are rejected), ack-after-apply. Backpressure:
// when a session's unacked bytes exceed max_lag_bytes the leader reports
// lag_exceeded() and the Runtime sheds new writes (control layer) instead
// of letting followers fall unboundedly behind.
#pragma once

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <unordered_map>
#include <vector>

#include "fault/fault.hpp"
#include "persist/persist.hpp"
#include "repl/transport.hpp"
#include "txn/engine.hpp"

namespace sdl::repl {

class NetListener;

enum class Role : std::uint8_t {
  None = 0,  // replication off (the default; zero cost)
  Leader,    // tail own WAL, stream to attached followers
  Follower,  // apply a leader's stream; read-only until promoted
};

/// Replication configuration (RuntimeOptions::repl).
struct ReplOptions {
  Role role = Role::None;
  /// This node's id; stamped into PersistOptions::node_id and the Hello.
  std::uint64_t node_id = 0;
  /// Leader: TCP accept port for followers (0 = loopback attach only).
  std::uint16_t listen_port = 0;
  /// Follower: leader's TCP port to connect to (0 = loopback attach only).
  std::uint16_t connect_port = 0;
  /// Largest Batch payload the tailer assembles before shipping.
  std::size_t max_batch_bytes = 256 * 1024;
  /// Per-session unacked-byte window; the tailer stalls past it.
  std::size_t max_inflight_bytes = 4 * 1024 * 1024;
  /// Leader backpressure: when any session's unacked bytes exceed this,
  /// lag_exceeded() turns true and the Runtime sheds writes (0 = off).
  std::uint64_t max_lag_bytes = 0;
  /// Session poll/wait granularity (stop checks, ack drains).
  int poll_interval_ms = 20;

  [[nodiscard]] bool enabled() const { return role != Role::None; }
};

struct ReplLeaderStats {
  std::uint64_t sessions_started = 0;
  std::uint64_t sessions_ended = 0;
  std::uint64_t batches_sent = 0;
  std::uint64_t bytes_sent = 0;       // batch frame bytes shipped
  std::uint64_t snapshots_sent = 0;   // catch-up seeds shipped
  std::uint64_t min_acked_seq = 0;    // slowest live follower's watermark
  std::uint64_t lag_records = 0;      // shippable_seq - min_acked_seq
  std::uint64_t lag_bytes = 0;        // unacked bytes across live sessions
  std::uint64_t backpressure_hits = 0;  // lag_exceeded() observed true
  std::uint64_t tail_bytes_read = 0;    // WAL bytes the tailers pread
};

/// Owns one session thread per attached follower. Each session is fed by
/// the PersistManager's durable listener (registered here) and tails the
/// segment FILES — a cached fd survives pruning's unlink, and rotation is
/// detected by rescanning the directory for the segment covering the
/// cursor. Sessions are independent: a slow follower stalls only itself.
class ReplLeader {
 public:
  /// `persist` must outlive the leader and be enabled (the WAL is the
  /// replication stream — a leader without durability has nothing to ship).
  ReplLeader(ReplOptions opts, persist::PersistManager* persist);
  ~ReplLeader();
  ReplLeader(const ReplLeader&) = delete;
  ReplLeader& operator=(const ReplLeader&) = delete;

  /// Attaches one follower endpoint and starts its session thread.
  void add_follower(std::unique_ptr<Transport> transport);

  /// Closes every session and joins the threads. Idempotent; also run by
  /// the destructor. Simulates leader death in tests when called while
  /// followers are mid-stream.
  void stop();

  /// True while any live session's unacked bytes exceed max_lag_bytes
  /// (0 = never). The Runtime's write path sheds on this.
  [[nodiscard]] bool lag_exceeded() const;

  [[nodiscard]] ReplLeaderStats stats() const;

  /// Arms the ReplSend injection point (null disarms).
  void set_fault_injector(FaultInjector* f) {
    faults_.store(f, std::memory_order_release);
  }

 private:
  struct Session {
    std::unique_ptr<Transport> transport;
    std::thread thread;
    std::atomic<std::uint64_t> acked_seq{0};
    std::atomic<std::uint64_t> sent_bytes{0};
    std::atomic<std::uint64_t> acked_bytes{0};
    std::atomic<bool> ended{false};
  };

  void session_main(Session* s);
  bool drain_acks(Session* s, int timeout_ms);
  /// Sleeps until the durable watermark reaches `min_seq`, stop, or one
  /// poll interval. Returns false when stopping.
  bool wait_shippable(std::uint64_t min_seq);

  const ReplOptions opts_;
  persist::PersistManager* const persist_;
  std::atomic<FaultInjector*> faults_{nullptr};

  // Durable-watermark wakeup. The WAL listener only stores + notifies
  // (it runs with the writer mutex held — see set_durable_listener).
  std::mutex durable_mutex_;
  std::condition_variable durable_cv_;
  std::atomic<std::uint64_t> durable_seq_{0};

  mutable std::mutex sessions_mutex_;
  std::vector<std::unique_ptr<Session>> sessions_;
  std::atomic<bool> stop_{false};

  // TCP accept loop (listen_port != 0 only).
  std::unique_ptr<NetListener> listener_;
  std::thread accept_thread_;

  std::atomic<std::uint64_t> batches_sent_{0};
  std::atomic<std::uint64_t> snapshots_sent_{0};
  std::atomic<std::uint64_t> sessions_started_{0};
  std::atomic<std::uint64_t> sessions_ended_{0};
  std::atomic<std::uint64_t> backpressure_hits_{0};
  std::atomic<std::uint64_t> tail_bytes_read_{0};
};

struct ReplFollowerStats {
  std::uint64_t applied_seq = 0;      // contiguous leader-seq watermark
  std::uint64_t applied_commits = 0;
  std::uint64_t applied_bytes = 0;    // cumulative batch bytes applied
  std::uint64_t snapshots_loaded = 0;
  std::uint64_t batches_applied = 0;
  std::uint64_t batches_rejected = 0;  // contiguity / decode rejections
  std::uint64_t reconnects = 0;        // attach() calls past the first
  std::uint64_t promotions = 0;
  std::uint64_t missing_retracts = 0;  // divergence signal (should be 0)
};

/// Applies a leader's stream onto a local engine. One applier thread per
/// attach(); reattaching after a session death (leader killed, transport
/// torn) resumes from the applied watermark via the Hello handshake.
class ReplFollower {
 public:
  /// `engine` applies batches; `persist` (may be null) logs their frames
  /// so the follower is independently recoverable, and its last logged
  /// seq is the watermark the Hello handshake resumes from. The id ->
  /// record-handle index starts with the records already resident in the
  /// engine's dataspace (the follower's own recovery), since WAL retracts
  /// carry only ids; the dataspace must be quiescent during construction.
  ReplFollower(ReplOptions opts, Engine* engine,
               persist::PersistManager* persist);
  ~ReplFollower();
  ReplFollower(const ReplFollower&) = delete;
  ReplFollower& operator=(const ReplFollower&) = delete;

  /// Connects this follower to a leader endpoint: detaches any previous
  /// session, then starts the applier thread (handshake + apply loop).
  void attach(std::unique_ptr<Transport> transport);

  /// Stops the applier and joins it. Returns the promotion fence: the
  /// last contiguously applied leader sequence. Idempotent.
  std::uint64_t detach();

  /// Promotion on leader death: detaches (fencing at the last contiguous
  /// applied record) and marks this node writable. The caller (Runtime)
  /// rotates the local WAL via snapshot_now so the leader epoch starts on
  /// a fresh segment. Returns the fence sequence.
  std::uint64_t promote();

  /// True once promote() ran — the Runtime's write gate.
  [[nodiscard]] bool writable() const {
    return writable_.load(std::memory_order_acquire);
  }

  /// Eventually-consistent staleness watermark for local reads.
  [[nodiscard]] std::uint64_t applied_seq() const {
    return applied_seq_.load(std::memory_order_acquire);
  }

  /// True while an applier session is live (transport not torn down).
  [[nodiscard]] bool attached() const;

  [[nodiscard]] ReplFollowerStats stats() const;

  /// Arms the ReplApply injection point (null disarms).
  void set_fault_injector(FaultInjector* f) {
    faults_.store(f, std::memory_order_release);
  }

 private:
  void applier_main(Transport* transport);
  bool apply_snapshot(const std::string& file_bytes);
  /// Returns false on a rejection that must tear the session down.
  bool apply_batch(std::uint64_t first_seq, std::uint64_t last_seq,
                   const std::string& frames, std::uint64_t* applied_bytes);

  const ReplOptions opts_;
  Engine* const engine_;
  persist::PersistManager* const persist_;
  std::atomic<FaultInjector*> faults_{nullptr};

  mutable std::mutex attach_mutex_;  // serializes attach/detach/promote
  std::unique_ptr<Transport> transport_;
  std::thread applier_;
  std::atomic<bool> session_stop_{false};

  // id -> handle of every resident record; owned by the applier
  // (single-threaded between attach boundaries, mutated under exclusive).
  // Cleared on promotion: a promoted node commits locally, so the
  // handles stop tracking its dataspace.
  Engine::IdIndex id_index_;

  std::atomic<std::uint64_t> applied_seq_{0};
  std::atomic<std::uint64_t> applied_commits_{0};
  std::atomic<std::uint64_t> applied_bytes_{0};
  std::atomic<std::uint64_t> snapshots_loaded_{0};
  std::atomic<std::uint64_t> batches_applied_{0};
  std::atomic<std::uint64_t> batches_rejected_{0};
  std::atomic<std::uint64_t> attaches_{0};
  std::atomic<std::uint64_t> promotions_{0};
  std::atomic<std::uint64_t> missing_retracts_{0};
  std::atomic<bool> writable_{false};
};

}  // namespace sdl::repl
