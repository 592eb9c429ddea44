// Durability subsystem facade (tentpole of this PR).
//
// PersistManager owns the write-ahead log and the snapshot policy for one
// runtime. Lifecycle:
//
//   open    — replay(dir) reconstructs the committed state, then the
//             directory is CLEANED for writing: torn segment tails are
//             physically truncated at the first corrupt record, segments
//             unreachable past a corruption/gap are deleted, orphan .tmp
//             files are removed. The WAL reopens at last_seq + 1. The
//             caller applies recovered() into its dataspace before
//             starting any process.
//   commit  — Engine::commit calls log_commit while the commit's locks
//             are held (wal.hpp explains why that ordering is the
//             recovery correctness argument). Group commit batches fsyncs.
//   snapshot— every `snapshot_every` logged commits (0 = never), the
//             caller's next maybe_snapshot runs the barrier protocol:
//             under total exclusion collect every instance and rotate the
//             WAL, then durably write the snapshot OUTSIDE the lock and
//             only then delete the segments and snapshots it supersedes.
//             Commits logged while the snapshot file is being written go
//             to the fresh segment (seq > barrier) — nothing is lost.
//
// PersistManager deliberately knows nothing about the engines: the
// snapshot entry points take an ExclusiveRunner callback (Runtime passes
// Engine::exclusive) so sdl_persist never depends on sdl_txn.
#pragma once

#include <atomic>
#include <cstdint>
#include <functional>
#include <memory>
#include <mutex>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "fault/fault.hpp"
#include "persist/recovery.hpp"
#include "persist/snapshot.hpp"
#include "persist/wal.hpp"
#include "space/dataspace.hpp"

namespace sdl::persist {

/// Durability configuration (RuntimeOptions::persist).
struct PersistOptions {
  /// Directory for WAL segments and snapshots. Empty = durability off.
  std::string dir;
  /// Commits per fsync batch: 1 = every commit durable before ack
  /// (safest), N = group commit (E18's dial), 0 = never fsync (OS decides).
  std::uint64_t fsync_every = 1;
  /// Logged commits between automatic snapshots; 0 = only explicit
  /// snapshot_now() calls.
  std::uint64_t snapshot_every = 0;
  /// Replication origin id stamped into every WAL segment header this
  /// node writes (0 = unreplicated single-node default). A follower
  /// replaying shipped segments can then attribute the log to its leader.
  std::uint64_t node_id = 0;

  [[nodiscard]] bool enabled() const { return !dir.empty(); }
};

class PersistManager {
 public:
  /// Runs a total-exclusion section (Runtime passes Engine::exclusive).
  using ExclusiveRunner = std::function<void(const std::function<void()>&)>;

  /// Mutating open: recovers `opts.dir` (creating it if absent), cleans
  /// torn/unreachable files, and opens the WAL for appending.
  /// Throws std::invalid_argument when the durable geometry differs from
  /// `shard_count` — recovered TupleIds are only collision-free under the
  /// geometry they were created with.
  PersistManager(PersistOptions opts, std::uint32_t shard_count);

  PersistManager(const PersistManager&) = delete;
  PersistManager& operator=(const PersistManager&) = delete;

  /// What recovery reconstructed at open. Runtime applies this into the
  /// dataspace (recovery::apply) before any process runs.
  [[nodiscard]] const RecoveredState& recovered() const { return recovered_; }

  /// Logs one commit's effect set. MUST be called with the commit's
  /// engine locks held. Returns the WAL sequence, or 0 when the append
  /// was not acknowledged (crashed writer — the in-memory run continues,
  /// but the commit is not durable). `fire` groups a consensus composite
  /// into one atomic record (0 = independent commit).
  std::uint64_t log_commit(ProcessId owner, std::uint64_t fire,
                           std::span<const TupleId> retracts,
                           std::span<const Record* const> asserts);

  /// Replication (follower side): logs one shipped leader frame as it
  /// is, under its own (the leader's) sequence number. MUST be called
  /// with the apply's exclusion held. Counts toward the snapshot
  /// interval like a local commit. Returns `seq`, or 0 when not
  /// acknowledged.
  std::uint64_t log_frame(std::uint64_t seq, std::string_view frame);

  /// Replication (follower side): makes a leader snapshot file this
  /// node's own snapshot at `barrier` — written durably as it arrived,
  /// then the WAL restarts on a fresh segment at barrier + 1 and every
  /// older file is pruned. The caller has already replaced the
  /// dataspace with the snapshot's records. When the file does not
  /// become durable the log stays where it was, and so refuses the next
  /// frame (WalWriter::append_frame) rather than record a gap.
  void install_snapshot(std::string_view file, std::uint64_t barrier);

  /// True when snapshot_every is configured and enough commits have been
  /// logged — the scheduler-side hook for calling maybe_snapshot without
  /// taking a lock on the common path.
  [[nodiscard]] bool snapshot_due() const;

  /// Runs the snapshot barrier protocol if one is due (no-op otherwise).
  void maybe_snapshot(const Dataspace& space, const ExclusiveRunner& exclusive);

  /// Unconditional snapshot (teardown, tests). Returns true when the
  /// snapshot became durable; false on a crashed snapshot writer (the WAL
  /// keeps the run recoverable regardless).
  bool snapshot_now(const Dataspace& space, const ExclusiveRunner& exclusive);

  /// Forces an fsync of any batched appends (teardown).
  void sync();

  /// Arms/disarms WalAppend + SnapshotWrite fault points (null disarms).
  void set_fault_injector(FaultInjector* f);

  /// Arms the WAL append/flush and snapshot-duration instruments (null
  /// disarms; also re-gated on the SDL_OBS runtime flag per operation).
  void set_metrics(obs::RuntimeMetrics* m);

  /// Arms the overload layer's WAL group-commit batch cap (null disarms).
  void set_overload(control::OverloadControl* c);

  /// Replication hook: fires on every durable-watermark advance (see
  /// WalWriter::set_durable_listener for the calling contract).
  void set_durable_listener(std::function<void(std::uint64_t)> fn);

  /// Highest sequence the replication tailer may ship (durable
  /// watermark; the append watermark when fsync_every == 0).
  [[nodiscard]] std::uint64_t shippable_seq() const {
    return wal_->shippable_seq();
  }

  /// Barrier of the newest durable snapshot (0 = none yet). Segments at
  /// or below this are pruned: a follower needing seq <= barrier must be
  /// seeded from the snapshot file instead of the WAL tail.
  [[nodiscard]] std::uint64_t last_snapshot_barrier() const {
    return last_snapshot_barrier_.load(std::memory_order_acquire);
  }

  [[nodiscard]] bool wal_alive() const { return wal_->alive(); }

  struct Stats {
    std::uint64_t logged_commits = 0;   // acknowledged WAL appends
    std::uint64_t last_seq = 0;         // last acknowledged sequence
    std::uint64_t syncs = 0;            // fsync batches issued
    std::uint64_t snapshots_written = 0;
    std::uint64_t snapshot_failures = 0;
    std::uint64_t recovered_instances = 0;
    std::uint64_t recovered_commits = 0;  // WAL commits replayed at open
  };
  [[nodiscard]] Stats stats() const;

  [[nodiscard]] const PersistOptions& options() const { return opts_; }

 private:
  void clean_directory();
  // Publishes `barrier` as the newest durable snapshot, then deletes
  // every snapshot and segment it supersedes.
  void prune_below(std::uint64_t barrier);

  const PersistOptions opts_;
  const std::uint32_t shard_count_;
  RecoveredState recovered_;
  std::unique_ptr<WalWriter> wal_;
  FaultInjector* faults_ = nullptr;
  obs::RuntimeMetrics* metrics_ = nullptr;

  std::mutex snapshot_mutex_;  // one snapshot at a time
  std::atomic<std::uint64_t> commits_since_snapshot_{0};
  std::atomic<std::uint64_t> snapshots_written_{0};
  std::atomic<std::uint64_t> snapshot_failures_{0};
  std::atomic<std::uint64_t> last_snapshot_barrier_{0};
  std::atomic<bool> snapshots_dead_{false};  // SnapshotWrite kill fired
};

}  // namespace sdl::persist
