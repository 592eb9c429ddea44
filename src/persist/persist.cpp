#include "persist/persist.hpp"

#include <unistd.h>

#include <filesystem>
#include <stdexcept>

namespace sdl::persist {

namespace fs = std::filesystem;

PersistManager::PersistManager(PersistOptions opts, std::uint32_t shard_count)
    : opts_(std::move(opts)), shard_count_(shard_count) {
  if (!opts_.enabled()) {
    throw std::invalid_argument("PersistManager: empty dir (durability off)");
  }
  fs::create_directories(opts_.dir);
  recovered_ = replay(opts_.dir);
  if (recovered_.format_mismatch) {
    throw std::invalid_argument(
        "PersistManager: " + opts_.dir + " continues in a WAL format this "
        "binary does not write; refusing to open it (no file changed)");
  }
  if (recovered_.shard_count != 0 && recovered_.shard_count != shard_count_) {
    throw std::invalid_argument(
        "PersistManager: durable geometry shard_count " +
        std::to_string(recovered_.shard_count) + " differs from runtime's " +
        std::to_string(shard_count_));
  }
  clean_directory();
  wal_ = std::make_unique<WalWriter>(opts_.dir, shard_count_,
                                     recovered_.last_seq + 1,
                                     opts_.fsync_every, opts_.node_id);
  if (recovered_.used_snapshot) {
    last_snapshot_barrier_.store(recovered_.snapshot_barrier,
                                 std::memory_order_release);
  }
}

void PersistManager::clean_directory() {
  // Physical counterpart of replay()'s logical truncation: make the
  // directory match exactly what recovery decided to trust, so the next
  // crash recovers from a clean chain and the reopened segment never
  // appends after torn bytes.
  for (const auto& entry : fs::directory_iterator(opts_.dir)) {
    if (!entry.is_regular_file()) continue;
    const std::string name = entry.path().filename().string();
    const std::string path = entry.path().string();
    if (name.size() > 4 && name.compare(name.size() - 4, 4, ".tmp") == 0) {
      ::unlink(path.c_str());  // orphan of an interrupted snapshot write
      continue;
    }
    if (name.size() > 4 && name.compare(name.size() - 4, 4, ".wal") == 0) {
      WalReadResult seg = read_wal_segment(path);
      if (seg.format_mismatch) {
        // Another format revision's data — unreadable here but intact.
        // Leave it byte-for-byte untouched (never truncate, never delete);
        // recovery already refused to chain past it.
        continue;
      }
      if (!seg.header_ok || seg.start_seq > recovered_.last_seq + 1) {
        // Headerless stub from a crashed rotate, or a segment past a
        // corruption/gap that recovery refused to trust.
        ::unlink(path.c_str());
        continue;
      }
      // Trim torn tails AND crash-time preallocation padding: the writer
      // reopening a segment takes its file size as the data end, so every
      // byte past valid_bytes must go.
      if (seg.corrupt || entry.file_size() > seg.valid_bytes) {
        ::truncate(path.c_str(), static_cast<off_t>(seg.valid_bytes));
      }
    }
  }
}

std::uint64_t PersistManager::log_commit(
    ProcessId owner, std::uint64_t fire, std::span<const TupleId> retracts,
    std::span<const Record* const> asserts) {
  const std::uint64_t seq = wal_->append(owner, fire, retracts, asserts);
  if (seq != 0 && opts_.snapshot_every > 0) {
    commits_since_snapshot_.fetch_add(1, std::memory_order_relaxed);
  }
  return seq;
}

std::uint64_t PersistManager::log_frame(std::uint64_t seq,
                                        std::string_view frame) {
  const std::uint64_t acked = wal_->append_frame(seq, frame);
  if (acked != 0 && opts_.snapshot_every > 0) {
    commits_since_snapshot_.fetch_add(1, std::memory_order_relaxed);
  }
  return acked;
}

void PersistManager::install_snapshot(std::string_view file,
                                      std::uint64_t barrier) {
  std::scoped_lock lock(snapshot_mutex_);
  if (!wal_->alive() ||
      !write_snapshot_file(opts_.dir, barrier, file, faults_)) {
    return;
  }
  // No exclusion needed for the rotation: until promotion the applier
  // calling here is the follower's only WAL writer.
  wal_->rotate(barrier + 1);
  commits_since_snapshot_.store(0, std::memory_order_relaxed);
  prune_below(barrier);
}

bool PersistManager::snapshot_due() const {
  return opts_.snapshot_every > 0 &&
         !snapshots_dead_.load(std::memory_order_relaxed) &&
         commits_since_snapshot_.load(std::memory_order_relaxed) >=
             opts_.snapshot_every;
}

void PersistManager::maybe_snapshot(const Dataspace& space,
                                    const ExclusiveRunner& exclusive) {
  if (snapshot_due()) snapshot_now(space, exclusive);
}

bool PersistManager::snapshot_now(const Dataspace& space,
                                  const ExclusiveRunner& exclusive) {
  std::scoped_lock lock(snapshot_mutex_);
  if (snapshots_dead_.load(std::memory_order_relaxed)) return false;
  // Whole-protocol duration (barrier + capture + durable write + pruning),
  // recorded only for snapshots that became durable.
  obs::RuntimeMetrics* const obs_m =
      (metrics_ != nullptr && obs::enabled()) ? metrics_ : nullptr;
  const std::uint64_t t_snap0 = obs_m != nullptr ? obs::now_ns() : 0;
  // A dead WAL writer simulates a crashed disk: the in-memory state has
  // commits the log never acknowledged, and persisting it would resurrect
  // them. The durable files stay frozen at the crash point.
  if (!wal_->alive()) return false;

  // Barrier: under total exclusion, rotate the WAL and capture every
  // instance. Everything <= barrier is in the capture and in closed
  // segments; everything after goes to the fresh segment. The expensive
  // file write happens OUTSIDE the exclusion.
  std::vector<std::pair<TupleId, Tuple>> records;
  std::uint64_t barrier = 0;
  bool writer_alive = true;
  exclusive([&] {
    barrier = wal_->rotate();
    // Re-check under the barrier: a committer may have killed the WAL
    // between the alive() check above and this exclusive section (or
    // rotate()'s own sync may have died), leaving an unacknowledged
    // commit in memory that the capture would resurrect. Rotate no-ops on
    // a dead writer, so aborting here touches no durable file.
    writer_alive = wal_->alive();
    if (!writer_alive) return;
    records.reserve(space.size());
    space.for_each_instance(
        [&](const Record& r) { records.emplace_back(r.id, r.tuple); });
  });
  if (!writer_alive) return false;
  commits_since_snapshot_.store(0, std::memory_order_relaxed);

  if (!write_snapshot(opts_.dir, shard_count_, barrier, records, faults_)) {
    snapshot_failures_.fetch_add(1, std::memory_order_relaxed);
    snapshots_dead_.store(true, std::memory_order_relaxed);
    return false;
  }
  snapshots_written_.fetch_add(1, std::memory_order_relaxed);
  // Only now that the new snapshot is durable: drop everything it
  // supersedes. A crash before this point recovers from the older
  // snapshot plus the full segment chain.
  prune_below(barrier);
  if (obs_m != nullptr) obs_m->snapshot_ns->record_since(t_snap0);
  return true;
}

void PersistManager::prune_below(std::uint64_t barrier) {
  last_snapshot_barrier_.store(barrier, std::memory_order_release);
  for (const auto& entry : fs::directory_iterator(opts_.dir)) {
    if (!entry.is_regular_file()) continue;
    const std::string name = entry.path().filename().string();
    if (name == snapshot_file_name(barrier)) continue;
    const bool old_snap =
        name.size() > 5 && name.compare(name.size() - 5, 5, ".snap") == 0;
    const bool old_wal =
        name.size() > 4 && name.compare(name.size() - 4, 4, ".wal") == 0 &&
        name != wal_segment_name(barrier + 1);
    if (old_snap || old_wal) ::unlink(entry.path().string().c_str());
  }
}

void PersistManager::sync() { wal_->sync(); }

void PersistManager::set_fault_injector(FaultInjector* f) {
  faults_ = f;
  wal_->set_fault_injector(f);
}

void PersistManager::set_metrics(obs::RuntimeMetrics* m) {
  metrics_ = m;
  wal_->set_metrics(m);
}

void PersistManager::set_overload(control::OverloadControl* c) {
  wal_->set_overload(c);
}

void PersistManager::set_durable_listener(
    std::function<void(std::uint64_t)> fn) {
  wal_->set_durable_listener(std::move(fn));
}

PersistManager::Stats PersistManager::stats() const {
  Stats s;
  s.logged_commits = wal_->appended_commits();
  s.last_seq = wal_->last_appended();
  s.syncs = wal_->syncs();
  s.snapshots_written = snapshots_written_.load(std::memory_order_relaxed);
  s.snapshot_failures = snapshot_failures_.load(std::memory_order_relaxed);
  s.recovered_instances = recovered_.live.size();
  s.recovered_commits = recovered_.commits.size();
  return s;
}

}  // namespace sdl::persist
