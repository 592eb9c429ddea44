// The dataspace D (§2.1): "a finite but large multiset of tuples".
//
// Storage is content-addressed: tuples are bucketed by an IndexKey derived
// from (arity, first-field value). A pattern whose first term is a constant
// probes exactly one bucket; a pattern whose first term is a variable or
// wildcard scans all buckets of its arity. This mirrors the standard
// tuple-space implementation trick and is what experiment E5 measures.
//
// Dataspace is deliberately NOT self-synchronizing: the transaction engines
// in src/txn own the locks (GlobalLockEngine one mutex, ShardedEngine one
// reader–writer lock per shard) so that locking policy is an
// interchangeable, benchmarkable decision (experiments E6, E15). Buckets
// are distributed over `shard_count` shards by IndexKey hash.
//
// The storage layout is LOCK-FREE-READABLE: each shard is an open hash
// table of bucket nodes (chained, append-only) and each bucket holds its
// records in a doubly-linked node list whose forward pointers are
// atomics. The same record nodes are also threaded, through a second pair
// of links, onto the shard's FIELD-1 INDEX: an open hash table of chains
// keyed by (bucket, hash of field 1), which is what turns a pattern like
// [acct, k, b] with `k` bound into a lookup. That supports three access
// modes:
//   * mutation (insert, erase, rebuilds of either table) requires that
//     shard's lock EXCLUSIVELY, and the caller must bracket the whole
//     commit with begin_shard_write/end_shard_write (the seqlock protocol
//     below) and hold an epoch::Guard (erase and table growth defer frees
//     through EBR);
//   * locked reads (scan_*, find, count) require the shard at least SHARED;
//   * OPTIMISTIC reads (the ShardedEngine read path) take no lock at all:
//     inside an epoch::Guard, sample shard_version() (reject odd = writer
//     in progress), traverse via scan_key, scan_key_second or scan_arity,
//     then re-validate the sampled versions — identical ⇒ the traversal
//     observed a consistent snapshot; changed ⇒ discard and retry. Only
//     the writer-side `position` map (find, erase) is NOT optimistic-safe:
//     it is a plain container read only under locks.
// Whole-space operations (scan_arity, scan_all, snapshot) need every shard
// held in the corresponding mode (or per-shard version validation).
#pragma once

#include <atomic>
#include <bit>
#include <cstdint>
#include <functional>
#include <memory>
#include <unordered_map>
#include <vector>

#include "core/tuple.hpp"

namespace sdl {

/// Bucket address of a tuple: its arity and the hash of its first field.
/// Arity-0 tuples all share head_hash 0.
struct IndexKey {
  std::uint32_t arity = 0;
  std::uint64_t head_hash = 0;

  friend bool operator==(const IndexKey& a, const IndexKey& b) {
    return a.arity == b.arity && a.head_hash == b.head_hash;
  }

  [[nodiscard]] std::size_t hash() const {
    return head_hash * 0x9e3779b97f4a7c15ull + arity;
  }

  /// The bucket a tuple lives in.
  static IndexKey of(const Tuple& t) {
    IndexKey k;
    k.arity = static_cast<std::uint32_t>(t.arity());
    k.head_hash = t.arity() == 0 ? 0 : t[0].hash();
    return k;
  }

  /// The bucket tuples with this (arity, first field) live in.
  static IndexKey of_head(std::size_t arity, const Value& head) {
    IndexKey k;
    k.arity = static_cast<std::uint32_t>(arity);
    k.head_hash = arity == 0 ? 0 : head.hash();
    return k;
  }
};

struct IndexKeyHash {
  std::size_t operator()(const IndexKey& k) const noexcept { return k.hash(); }
};

/// One tuple instance resident in the dataspace.
struct Record {
  TupleId id;
  Tuple tuple;
};

/// Snapshot of the dataspace's instrumentation counters, aggregated over
/// shards. Counters are maintained per shard (single writer under that
/// shard's engine lock) so that hot-path scans and inserts never touch a
/// shared cache line — a measured scaling ceiling otherwise (E6).
struct SpaceStats {
  std::uint64_t asserts = 0;
  std::uint64_t retracts = 0;
  std::uint64_t records_scanned = 0;
};

/// The tuple store. See file comment for the synchronization contract.
class Dataspace {
 public:
  /// `shard_count` fixes the number of independently lockable shards for
  /// the life of the store. Must be a power of two.
  explicit Dataspace(std::size_t shard_count = 64);
  ~Dataspace();

  Dataspace(const Dataspace&) = delete;
  Dataspace& operator=(const Dataspace&) = delete;

  [[nodiscard]] std::size_t shard_count() const { return shard_count_; }
  [[nodiscard]] std::size_t shard_of(const IndexKey& key) const {
    return key.hash() & shard_mask_;
  }

  /// Index-statistics epoch: bumped whenever a shard's bucket table
  /// resizes, i.e. the store's population has drifted by a factor large
  /// enough to re-plan against. The compiled-query plan cache
  /// (src/query/compile.hpp) keys entries by this value, so drift
  /// invalidates stale plans on their next lookup. Monotonic; relaxed
  /// ordering suffices (a racing reader merely recompiles one epoch late).
  [[nodiscard]] std::uint64_t stats_epoch() const {
    return stats_epoch_.load(std::memory_order_relaxed);
  }

  // ------------------------------------------------------------- versions
  // Per-shard seqlock: a writer holding shard si's exclusive lock brackets
  // its commit with begin_shard_write(si) … end_shard_write(si), keeping
  // the version ODD for the full critical section — all of one commit's
  // mutations to a shard land inside one odd window, so an optimistic
  // reader can never validate a half-applied commit. Engines own the
  // bracketing (locking policy lives in src/txn); recovery-time mutation
  // (restore) is quiescent and exempt.

  /// Begin a writer critical section on shard si (version becomes odd).
  /// Caller holds si's exclusive lock; never nests.
  void begin_shard_write(std::size_t si) {
    auto& v = shards_[si].version;
    v.store(v.load(std::memory_order_relaxed) + 1, std::memory_order_relaxed);
  }
  /// End a writer critical section (version becomes even again). Must be
  /// called BEFORE releasing si's exclusive lock.
  void end_shard_write(std::size_t si) {
    auto& v = shards_[si].version;
    v.store(v.load(std::memory_order_relaxed) + 1, std::memory_order_release);
  }
  /// Current version of shard si (acquire: the sample point of the
  /// optimistic-read protocol; odd = writer in progress).
  [[nodiscard]] std::uint64_t shard_version(std::size_t si) const {
    return shards_[si].version.load(std::memory_order_acquire);
  }
  /// Relaxed re-read for the validation step — callers issue an acquire
  /// fence between the last traversal load and this (see OptimisticSource).
  [[nodiscard]] std::uint64_t shard_version_validate(std::size_t si) const {
    return shards_[si].version.load(std::memory_order_relaxed);
  }

  // ------------------------------------------------------------ mutation

  /// Inserts a tuple instance owned by `owner`; returns its fresh id.
  /// Caller must hold the lock for shard_of(IndexKey::of(t)) EXCLUSIVELY,
  /// inside a begin/end_shard_write bracket when optimistic readers may
  /// exist (i.e. under ShardedEngine).
  TupleId insert(Tuple t, ProcessId owner);

  /// Removes the instance `id` from the bucket `key` (which the caller
  /// derives from the matched tuple). Returns false if not present.
  /// Caller must hold the lock for shard_of(key) EXCLUSIVELY (bracketed as
  /// for insert) and an epoch::Guard: the record's node is retired through
  /// EBR, not freed, because unlocked readers may still be traversing it.
  bool erase(const IndexKey& key, TupleId id);

  using RecordFn = std::function<bool(const Record&)>;  // return false to stop

  // --------------------------------------------------------------- reads

  /// Visits every record in bucket `key`. Caller holds that shard's lock
  /// (shared mode suffices) OR is an optimistic reader inside an
  /// epoch::Guard with version validation (see file comment).
  void scan_key(const IndexKey& key, const RecordFn& fn) const;

  /// O(1) lookup of a resident instance by bucket + id — the incremental
  /// wakeup path's delta-liveness probe (src/query/incremental.hpp):
  /// a delta entry whose instance has since been retracted must not seed
  /// a join. Returns null when not resident. Goes through the writer-side
  /// `position` map, so the caller must hold that shard's lock (shared
  /// suffices) — NOT safe for optimistic readers. The returned pointer is
  /// stable for as long as the caller holds the lock.
  [[nodiscard]] const Record* find(const IndexKey& key, TupleId id) const;

  /// Visits only the records in bucket `key` whose SECOND field equals
  /// `second` — one walk of a field-1 index chain. This is what makes a
  /// join pattern like [label, p, l] with `p` already bound a lookup
  /// instead of a bucket scan (the §3.3 worker-model join drops from
  /// O(N³) to O(N²) on it). A chain can also hold other buckets' records
  /// and other field-1 values that share its slot; the walk checks both
  /// and counts only the records it resolves to as scanned. Same contract
  /// as scan_key: caller holds that shard's lock (shared suffices) OR is
  /// an optimistic reader inside an epoch::Guard with version validation.
  void scan_key_second(const IndexKey& key, const Value& second,
                       const RecordFn& fn) const;

  /// Visits every record whose tuple has `arity` (crosses all shards —
  /// caller holds every shard lock, or validates every shard version).
  void scan_arity(std::uint32_t arity, const RecordFn& fn) const;

  /// Visits every record (caller must hold every shard lock).
  void scan_all(const RecordFn& fn) const;

  /// Full-space walk for serialization (snapshots): visits every record,
  /// no early-stop, no scan-counter noise. Caller must hold every shard
  /// lock (the persistence layer runs it inside Engine::exclusive).
  void for_each_instance(const std::function<void(const Record&)>& fn) const;

  /// Re-inserts an instance under its ORIGINAL id — the recovery path.
  /// The sequence counter of the id's originating shard (recovered from
  /// the id itself, NOT from the tuple's bucket — bucket placement hashes
  /// atom intern ids and is not stable across a process restart) is
  /// advanced past the id so instances asserted after recovery can never
  /// collide with restored ones; this guarantee requires the dataspace to
  /// have the same shard_count the id was created under (the durable
  /// formats stamp it; recovery verifies). Throws if the id is already
  /// resident. Recovery-only: the caller must be quiescent (it may touch
  /// two shards — the bucket and the sequence originator). Bumps `live`
  /// but not the assert counter: the instance was counted when first
  /// asserted.
  void restore(Tuple t, TupleId id);

  /// Number of resident tuple instances (approximate under concurrency:
  /// exact when the caller holds all shard locks).
  [[nodiscard]] std::size_t size() const;

  /// Number of instances on the field-1 index, i.e. those of arity >= 2
  /// (caller must hold every shard lock or be otherwise quiescent).
  [[nodiscard]] std::size_t indexed_size() const;

  /// Count of instances structurally equal to `t` (caller holds the
  /// relevant shard lock).
  [[nodiscard]] std::size_t count(const Tuple& t) const;

  /// Snapshot of all resident records, sorted by tuple then id — for tests
  /// and trace dumps (caller must hold every shard lock or be otherwise
  /// quiescent).
  [[nodiscard]] std::vector<Record> snapshot() const;

  /// Aggregated counters (approximate under concurrency).
  [[nodiscard]] SpaceStats stats() const;

 private:
  struct BucketNode;

  /// One resident record, linked into two chains: its bucket's list
  /// (`next`/`prev`) and, for arity >= 2, a field-1 index chain
  /// (`next_second`/`prev_second`). The `next*` links are the
  /// unlocked-traversal pointers (atomic, release-published); the `prev*`
  /// links are writer-only (only ever touched under the shard's exclusive
  /// lock) so they stay plain. Unlinked nodes keep their forward links
  /// intact — a reader standing on a just-retracted node can still finish
  /// its walk of either chain.
  struct Node {
    Record rec;
    const BucketNode* bucket = nullptr;  // owner; outlives every Node
    std::atomic<Node*> next{nullptr};
    std::atomic<Node*> next_second{nullptr};
    Node* prev = nullptr;
    Node* prev_second = nullptr;
  };

  /// One bucket. Allocated on first insert of its key and never freed
  /// until the Dataspace dies (an emptied bucket is a tombstone that the
  /// next insert of the same key revives) — that is what lets readers
  /// traverse the bucket chains without coordination. `position` is a
  /// writer-side auxiliary: a plain container, mutated under the exclusive
  /// lock, read only under (at least shared) locks.
  struct BucketNode {
    explicit BucketNode(const IndexKey& k) : key(k) {}
    const IndexKey key;
    std::atomic<Node*> head{nullptr};
    std::atomic<BucketNode*> chain{nullptr};  // hash-slot chain link
    /// TupleId -> node (writer-only; O(1) erase).
    std::unordered_map<TupleId, Node*> position;
  };

  /// An open hash table of atomic chain heads, grown by doubling under the
  /// exclusive lock. Two per shard: bucket nodes chained through
  /// BucketNode::chain, and record nodes chained through Node::next_second
  /// (the field-1 index). A superseded table is EBR-retired because
  /// readers may still be walking it (they may then miss or repeat
  /// entries — version validation rejects the attempt; memory safety is
  /// what matters here).
  template <class Link>
  struct Table {
    explicit Table(std::size_t slot_count)
        : mask(slot_count - 1),
          slots(std::make_unique<std::atomic<Link*>[]>(slot_count)) {}
    const std::size_t mask;
    std::unique_ptr<std::atomic<Link*>[]> slots;
  };
  using BucketTable = Table<BucketNode>;
  using SecondTable = Table<Node>;

  /// Per-shard state. Bucket mutation (and the asserts/retracts/live
  /// counters) happens only under this shard's EXCLUSIVE lock — a single
  /// writer — so those counter writes are load+store, not RMW. The
  /// `scanned` counter is also bumped by readers (shared-mode or
  /// optimistic): concurrent load+store bumps may lose counts, which is
  /// accepted — stats are documented approximate, and an RMW here would
  /// put every concurrent same-shard reader back on one contended cache
  /// line (the exact ceiling the lock-free read path removes, E15).
  /// Atomics keep the unlocked aggregate reads (size()/stats()) and the
  /// unlocked bumps well-defined (no UB, no torn values). `version` sits
  /// on its own cache line: optimistic readers hammer it with loads and
  /// sharing it with writer-updated counters would bounce the line.
  struct Shard {
    std::atomic<BucketTable*> table{nullptr};
    std::atomic<SecondTable*> seconds{nullptr};  // the field-1 index
    std::size_t bucket_nodes = 0;  // writer-only: BucketNodes ever created
    alignas(64) std::atomic<std::uint64_t> version{0};
    alignas(64) std::atomic<std::uint64_t> next_sequence{1};
    // Writer-only: Nodes on `seconds` chains. Bumped on every insert and
    // erase, so it sits with the commit counters, not on the line of the
    // table pointers every reader loads.
    std::size_t indexed = 0;
    std::atomic<std::uint64_t> live{0};
    std::atomic<std::uint64_t> asserts{0};
    std::atomic<std::uint64_t> retracts{0};
    std::atomic<std::uint64_t> scanned{0};

    static void bump(std::atomic<std::uint64_t>& c, std::uint64_t by = 1) {
      c.store(c.load(std::memory_order_relaxed) + by, std::memory_order_relaxed);
    }
    static void drop(std::atomic<std::uint64_t>& c) {
      c.store(c.load(std::memory_order_relaxed) - 1, std::memory_order_relaxed);
    }
  };

  /// Slot index of `key` in `t`. The shard selector consumed the hash's
  /// low bits, so the table consumes the next ones up.
  [[nodiscard]] std::size_t slot_of(const BucketTable& t,
                                    const IndexKey& key) const {
    return (key.hash() >> shard_bits_) & t.mask;
  }

  /// Field-1 index slot of (bucket `key`, field-1 hash `second_hash`):
  /// the XOR of every mask-wide chunk of the combined hash. An integer's
  /// hash is nearly the integer, so within one bucket consecutive keys land
  /// in neighbouring slots (a walk over them stays in cache), while keys
  /// that differ only in high bits, such as multiples of a power of two,
  /// still spread over the table.
  static std::size_t second_slot(const SecondTable& t, const IndexKey& key,
                                 std::size_t second_hash) {
    const int width = std::popcount(t.mask);
    std::size_t folded = 0;
    for (std::size_t h = key.hash() ^ second_hash; h != 0; h >>= width) {
      folded ^= h;
    }
    return folded & t.mask;
  }

  /// Bucket lookup by chain walk (readers and writers alike; writers see
  /// a stable table under their exclusive lock).
  [[nodiscard]] BucketNode* find_bucket(const Shard& shard,
                                        const IndexKey& key) const;

  /// Writer-only: find-or-create, growing the table at load factor 1.
  BucketNode* ensure_bucket(Shard& shard, const IndexKey& key);

  /// Writer-only: link a fresh node at the head of its bucket and (arity
  /// >= 2) of its field-1 chain, growing the field-1 table at load
  /// factor 1 first (release-publish).
  void link_record(Shard& shard, BucketNode& bucket, Record rec);

  /// Writer-only: rebuild the field-1 table at double width.
  void grow_seconds(Shard& shard);

  std::unique_ptr<Shard[]> shards_;  // Shard is immovable (atomics)
  std::size_t shard_count_;
  std::size_t shard_mask_;
  std::size_t shard_bits_;
  std::atomic<std::uint64_t> stats_epoch_{0};  // see stats_epoch()
};

}  // namespace sdl
