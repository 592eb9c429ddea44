// Snapshots: a full serialization of the dataspace at a WAL barrier.
//
// A snapshot captures every resident instance (id + tuple) at the moment
// the WAL rotated — the `barrier_seq` stamped in its header is the last
// commit sequence the snapshot already reflects, so recovery loads the
// snapshot and replays only WAL records with seq > barrier_seq. Capture
// runs inside Engine::exclusive (every shard lock held), which makes the
// (snapshot, barrier) pair consistent by construction.
//
// Durability protocol: payload is written to "<name>.tmp", fsynced,
// renamed over the final name, and the directory is fsynced — a crash at
// any point leaves either the complete new snapshot or the previous state
// (an orphan .tmp is ignored by recovery). The whole file is covered by
// one CRC32 so a torn rename-target is detected and recovery falls back
// to an older snapshot plus a longer WAL chain.
//
// The FaultInjector's SnapshotWrite point simulates a crash mid-write:
// a deterministic prefix of the payload reaches the .tmp, no rename
// happens, and the writer reports failure.
#pragma once

#include <cstdint>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "core/tuple.hpp"
#include "fault/fault.hpp"

namespace sdl::persist {

/// Parse of one snapshot file. `ok` is false for missing, torn, or
/// corrupt files (detail says why) — recovery treats those as absent.
struct SnapshotReadResult {
  bool ok = false;
  std::uint32_t shard_count = 0;
  std::uint64_t barrier_seq = 0;
  std::vector<std::pair<TupleId, Tuple>> records;
  std::string detail;
};

/// Snapshot file name for a given barrier ("snap-<seq>.snap").
std::string snapshot_file_name(std::uint64_t barrier_seq);

/// Writes a snapshot of `records` to dir/snap-<barrier>.snap via the
/// tmp+fsync+rename+dir-fsync protocol. Returns false when the write did
/// not become durable (I/O error, or a SnapshotWrite kill fault — see
/// file comment). `faults` may be null.
bool write_snapshot(const std::string& dir, std::uint32_t shard_count,
                    std::uint64_t barrier_seq,
                    const std::vector<std::pair<TupleId, Tuple>>& records,
                    FaultInjector* faults);

/// The durable half of write_snapshot: puts already-encoded snapshot
/// file bytes at dir/snap-<barrier>.snap through the same protocol and
/// SnapshotWrite fault point. A follower installs its leader's snapshot
/// file through it as it arrived.
bool write_snapshot_file(const std::string& dir, std::uint64_t barrier_seq,
                         std::string_view file, FaultInjector* faults);

/// Reads and validates one snapshot file. Never throws on bad content;
/// throws std::runtime_error only if the file exists but cannot be read.
SnapshotReadResult read_snapshot(const std::string& path);

/// Validates and decodes snapshot-file bytes already in memory — the ONE
/// parse path shared by read_snapshot (recovery) and the replication
/// stream, which ships the raw snapshot file to seed a follower joining
/// behind the retained WAL window.
SnapshotReadResult parse_snapshot(std::string_view data);

}  // namespace sdl::persist
