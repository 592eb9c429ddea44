// Crash recovery: snapshot + WAL replay back to the committed state.
//
// `replay(dir)` reconstructs the exact committed pre-crash state from the
// durable files alone:
//   1. pick the NEWEST snapshot whose CRC validates (a torn or partially
//      renamed snapshot falls back to the next older one, or none);
//   2. chain WAL segments starting at the segment covering barrier+1 and
//      keep the longest clean prefix — reading stops at the first corrupt
//      or torn record (truncate-at-first-corrupt), at a segment-header
//      failure, or at a sequence that is not exactly last+1 (a gap means
//      a lost intermediate segment: nothing after it can be trusted);
//   3. apply the surviving commits, in sequence order, over the snapshot.
//
// Because WAL append order is a serialization witness (see wal.hpp), the
// surviving prefix is serially consistent by construction — and
// `verify_recovery` PROVES it per run by replaying that prefix through the
// src/check serializability checker (ISSUE 3) against the recovered final
// state: any lost acknowledged commit or resurrected torn commit surfaces
// as a FinalStateDivergence.
//
// replay() never mutates the directory. The physical cleanup (truncating
// a torn segment tail, deleting unreachable later segments) is done by
// PersistManager when it reopens the directory for writing.
#pragma once

#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "check/check.hpp"
#include "persist/snapshot.hpp"
#include "persist/wal.hpp"
#include "space/dataspace.hpp"

namespace sdl::persist {

/// Everything recovery learned from the durable directory.
struct RecoveredState {
  /// Geometry stamped in the durable headers; 0 when the directory holds
  /// no usable snapshot or WAL segment (fresh start).
  std::uint32_t shard_count = 0;
  /// True when a snapshot was loaded; `snapshot_barrier` is its barrier.
  bool used_snapshot = false;
  std::uint64_t snapshot_barrier = 0;
  /// Instance ids the snapshot contributed (the checker's initial state).
  std::vector<TupleId> snapshot_ids;
  /// The surviving WAL suffix (seq > snapshot_barrier), sequence order.
  std::vector<WalCommit> commits;
  /// Final recovered state: every live instance after applying `commits`
  /// over the snapshot.
  std::vector<std::pair<TupleId, Tuple>> live;
  /// Last committed sequence recovered (== snapshot_barrier when the WAL
  /// suffix is empty); the reopened WAL continues at last_seq + 1. A
  /// follower logs its leader's frames under the leader's sequence
  /// numbers, so on a follower this is also the applied watermark it
  /// resumes the stream from.
  std::uint64_t last_seq = 0;
  /// True when the chain stops at a segment in a format this binary does
  /// not write, right where the log would continue: a v1 segment, or an
  /// older follower's log holding retired watermark frames. Appending
  /// would fork its sequence space, so PersistManager refuses to open
  /// such a directory and changes no file in it.
  bool format_mismatch = false;
  /// Bytes of torn/corrupt WAL tail that were dropped.
  std::uint64_t dropped_bytes = 0;
  /// Human-readable log of recovery decisions (which snapshot, which
  /// segments, where reading stopped and why).
  std::vector<std::string> notes;
};

/// Reconstructs the committed state from `dir`. Read-only. An empty or
/// absent directory yields a fresh RecoveredState (shard_count 0).
/// Throws std::runtime_error only on I/O errors reading existing files.
RecoveredState replay(const std::string& dir);

/// Loads a recovered state into an EMPTY dataspace via Dataspace::restore.
/// Throws std::invalid_argument if the dataspace geometry differs from
/// state.shard_count (TupleId sequences are shard-striped — restoring
/// into a different geometry could collide fresh ids with restored ones).
void apply(Dataspace& space, const RecoveredState& state);

/// Closes the loop with the ISSUE 3 checker: replays `state.commits` as a
/// serial history over the snapshot ids and checks the result — including
/// final-state equivalence against `state.live`. ok() means the recovered
/// dataspace is exactly the serial replay of the surviving WAL prefix.
CheckReport verify_recovery(const RecoveredState& state);

}  // namespace sdl::persist
