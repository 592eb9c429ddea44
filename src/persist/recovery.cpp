#include "persist/recovery.hpp"

#include <algorithm>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <map>
#include <stdexcept>

namespace sdl::persist {

namespace fs = std::filesystem;

namespace {

/// Parses "<prefix><decimal-seq><suffix>" file names; returns false for
/// anything else (orphan .tmp files, foreign files in the directory).
bool parse_numbered(const std::string& name, const char* prefix,
                    const char* suffix, std::uint64_t* seq) {
  const std::size_t plen = std::strlen(prefix);
  const std::size_t slen = std::strlen(suffix);
  if (name.size() <= plen + slen) return false;
  if (name.compare(0, plen, prefix) != 0) return false;
  if (name.compare(name.size() - slen, slen, suffix) != 0) return false;
  const std::string digits = name.substr(plen, name.size() - plen - slen);
  if (digits.empty() ||
      digits.find_first_not_of("0123456789") != std::string::npos) {
    return false;
  }
  *seq = std::strtoull(digits.c_str(), nullptr, 10);
  return true;
}

}  // namespace

RecoveredState replay(const std::string& dir) {
  RecoveredState state;
  std::error_code ec;
  if (!fs::is_directory(dir, ec)) {
    state.notes.push_back("no durable directory: fresh start");
    return state;
  }

  std::vector<std::uint64_t> snap_barriers;
  std::vector<std::uint64_t> wal_starts;
  for (const auto& entry : fs::directory_iterator(dir)) {
    if (!entry.is_regular_file()) continue;
    const std::string name = entry.path().filename().string();
    std::uint64_t seq = 0;
    if (parse_numbered(name, "snap-", ".snap", &seq)) {
      snap_barriers.push_back(seq);
    } else if (parse_numbered(name, "wal-", ".wal", &seq)) {
      wal_starts.push_back(seq);
    }
  }
  std::sort(snap_barriers.rbegin(), snap_barriers.rend());
  std::sort(wal_starts.begin(), wal_starts.end());

  // 1. Newest snapshot whose CRC validates wins; torn ones fall back.
  std::map<std::uint64_t, Tuple> live;  // id bits -> tuple, deterministic order
  for (const std::uint64_t barrier : snap_barriers) {
    const std::string path = dir + "/" + snapshot_file_name(barrier);
    SnapshotReadResult snap = read_snapshot(path);
    if (!snap.ok) {
      state.notes.push_back("snapshot " + snapshot_file_name(barrier) +
                            " rejected: " + snap.detail);
      continue;
    }
    state.used_snapshot = true;
    state.snapshot_barrier = snap.barrier_seq;
    state.shard_count = snap.shard_count;
    state.snapshot_ids.reserve(snap.records.size());
    for (auto& [id, tuple] : snap.records) {
      state.snapshot_ids.push_back(id);
      live.emplace(id.bits(), std::move(tuple));
    }
    state.notes.push_back("loaded " + snapshot_file_name(barrier) + " (" +
                          std::to_string(state.snapshot_ids.size()) +
                          " instances)");
    break;
  }
  state.last_seq = state.snapshot_barrier;

  // 2. Chain WAL segments: start at the segment covering barrier+1, keep
  // the longest clean strictly-sequential prefix.
  std::uint64_t expected = state.snapshot_barrier + 1;
  bool stopped = false;
  for (std::size_t i = 0; i < wal_starts.size(); ++i) {
    const std::uint64_t start = wal_starts[i];
    // Skip segments wholly covered by the snapshot: a segment is stale if
    // the NEXT segment also starts at or before the barrier+1 point.
    if (i + 1 < wal_starts.size() && wal_starts[i + 1] <= expected) continue;
    if (stopped) {
      state.notes.push_back(wal_segment_name(start) +
                            " unreachable past corruption: ignored");
      continue;
    }
    const std::string path = dir + "/" + wal_segment_name(start);
    WalReadResult seg = read_wal_segment(path);
    if (seg.format_mismatch) {
      // Distinct from corruption: the segment is intact but written by a
      // different format revision. Recovery cannot decode past it, but
      // the file must be preserved untouched (clean_directory honors the
      // same flag).
      state.notes.push_back(wal_segment_name(start) +
                            " format mismatch: " + seg.detail +
                            " — stopping (file preserved)");
      if (start <= expected) state.format_mismatch = true;
      stopped = true;
      continue;
    }
    if (!seg.header_ok) {
      // An empty/headerless trailing segment (crash at rotate) is benign;
      // anything with content behind it cannot be trusted.
      state.notes.push_back(wal_segment_name(start) + ": " +
                            (seg.detail.empty() ? "unreadable" : seg.detail));
      stopped = true;
      continue;
    }
    if (state.shard_count == 0) state.shard_count = seg.shard_count;
    if (seg.shard_count != state.shard_count) {
      state.notes.push_back(wal_segment_name(start) +
                            ": geometry mismatch (shard_count " +
                            std::to_string(seg.shard_count) + " vs " +
                            std::to_string(state.shard_count) + "): ignored");
      stopped = true;
      continue;
    }
    for (WalCommit& c : seg.commits) {
      if (c.seq < expected) continue;  // covered by the snapshot
      if (c.seq != expected) {
        state.notes.push_back("sequence gap at " + std::to_string(c.seq) +
                              " (expected " + std::to_string(expected) +
                              "): stopping");
        stopped = true;
        break;
      }
      state.commits.push_back(std::move(c));
      ++expected;
    }
    if (seg.corrupt) {
      const std::uint64_t file_size = fs::file_size(path);
      state.dropped_bytes += file_size - seg.valid_bytes;
      state.notes.push_back(wal_segment_name(start) + ": " + seg.detail +
                            " — dropped " +
                            std::to_string(file_size - seg.valid_bytes) +
                            " tail bytes");
      stopped = true;
    }
  }
  state.last_seq = expected - 1;

  // 3. Apply the surviving commits over the snapshot.
  for (const WalCommit& c : state.commits) {
    for (const TupleId id : c.retracts) live.erase(id.bits());
    for (const auto& [id, tuple] : c.asserts) live.emplace(id.bits(), tuple);
  }
  state.live.reserve(live.size());
  for (auto& [bits, tuple] : live) {
    state.live.emplace_back(TupleId(static_cast<ProcessId>(bits >> 40), bits),
                            std::move(tuple));
  }
  state.notes.push_back("recovered " + std::to_string(state.live.size()) +
                        " instances through seq " +
                        std::to_string(state.last_seq) + " (" +
                        std::to_string(state.commits.size()) +
                        " WAL commits replayed)");
  return state;
}

void apply(Dataspace& space, const RecoveredState& state) {
  if (state.shard_count == 0) return;  // fresh start: nothing durable
  if (space.shard_count() != state.shard_count) {
    throw std::invalid_argument(
        "recovery: dataspace shard_count " +
        std::to_string(space.shard_count()) +
        " differs from durable geometry " + std::to_string(state.shard_count));
  }
  for (const auto& [id, tuple] : state.live) space.restore(tuple, id);
}

CheckReport verify_recovery(const RecoveredState& state) {
  std::vector<HistoryEntry> entries;
  entries.reserve(state.commits.size());
  for (const WalCommit& c : state.commits) {
    HistoryEntry e;
    e.seq = c.seq;
    e.owner = c.owner;
    e.consensus_fire = c.fire;
    // The WAL stores the effect set, not the read set; every retracted
    // instance was necessarily read, which is exactly the dependency the
    // replay needs to validate the witness order.
    e.reads = c.retracts;
    e.retracts = c.retracts;
    e.asserts.reserve(c.asserts.size());
    for (const auto& [id, tuple] : c.asserts) e.asserts.push_back(id);
    e.label = "wal:" + std::to_string(c.seq);
    entries.push_back(std::move(e));
  }
  std::vector<TupleId> final_ids;
  final_ids.reserve(state.live.size());
  for (const auto& [id, tuple] : state.live) final_ids.push_back(id);
  return check_history(state.snapshot_ids, std::move(entries), final_ids);
}

}  // namespace sdl::persist
