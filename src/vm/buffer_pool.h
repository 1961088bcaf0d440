// A size-bucketed free list of WordVec storage — the software stand-in for
// vector registers.
//
// Every value-returning VectorMachine primitive materializes its result in a
// fresh WordVec; on a register machine those intermediates would live in
// vector registers and cost nothing to "allocate". The pool closes that gap
// for the hot round loops: an algorithm acquires its working vectors once,
// feeds them to the *_into primitives each round, and releases them at the
// end — steady-state rounds touch no allocator.
//
// Released vectors are bucketed by floor(log2(capacity)), so bucket i holds
// capacities in [2^i, 2^(i+1)); acquire(n) scans its own bucket (checking
// each candidate's capacity) and the next two up, serving hits by a
// capacity-preserving resize. Each bucket keeps at most kMaxPerBucket
// vectors; beyond that, release simply frees.
//
// The pool is owned by one VectorMachine and, like the machine itself, is
// confined to the machine's issuing thread — no locking. Stats are exported
// by the machine under the host-only "pool." metrics namespace (excluded
// from MetricsSnapshot::deterministic()), so hit rates never enter
// cross-backend determinism contracts.
#pragma once

#include <array>
#include <cstddef>
#include <cstdint>
#include <vector>

namespace folvec::analysis {
class Analyzer;
}  // namespace folvec::analysis

namespace folvec::vm {

class BufferPool {
 public:
  /// Free vectors retained per size bucket; further releases deallocate.
  static constexpr std::size_t kMaxPerBucket = 8;

  using WordVec = std::vector<std::int64_t>;

  /// A vector of size n (contents unspecified), reusing pooled storage with
  /// capacity >= n when any is available. Under an installed FaultPlan a
  /// kPoolAlloc fire degrades gracefully: the free lists are dropped (as a
  /// pressured allocator would drop its caches) and the request is served
  /// by a fresh allocation. Throws folvec::RecoverableError(kPoolExhausted)
  /// when a word limit is set and granting `n` would exceed it.
  WordVec acquire(std::size_t n);

  /// Returns a vector's storage to the pool (or frees it when the bucket is
  /// full). The vector is left empty either way.
  void release(WordVec&& v);

  /// Drops all retained storage.
  void trim();

  /// Caps the total words of capacity handed out and not yet released;
  /// 0 (the default) means unlimited. Acquires beyond the cap throw
  /// RecoverableError(kPoolExhausted) — the recoverable-exhaustion producer
  /// used by the resilience tests and by capped production deployments.
  void set_limit_words(std::uint64_t words) { limit_words_ = words; }
  std::uint64_t limit_words() const { return limit_words_; }

  /// The free-list bucket a capacity lands in: floor(log2(capacity)).
  /// Exposed for the bucket-boundary regression tests.
  static std::size_t bucket_of(std::size_t capacity);

  struct Stats {
    std::uint64_t acquires = 0;
    std::uint64_t hits = 0;      ///< acquires served from a free list
    std::uint64_t misses = 0;    ///< acquires that had to allocate
    std::uint64_t releases = 0;  ///< releases retained in a bucket
    std::uint64_t discards = 0;  ///< releases dropped (bucket full / tiny)
    /// Words of capacity currently parked in free lists.
    std::uint64_t held_words = 0;
    /// High-water mark of held_words over the pool's lifetime.
    std::uint64_t peak_held_words = 0;
    /// Words of capacity handed out and not yet released (capacity-based,
    /// saturating: callers may legitimately release larger swapped-in
    /// storage than they acquired).
    std::uint64_t outstanding_words = 0;
    /// Injected kPoolAlloc faults absorbed by dropping the free lists.
    std::uint64_t fault_drops = 0;
  };
  const Stats& stats() const { return stats_; }

  /// Attach the machine's static hazard analyzer (nullptr detaches). The
  /// pool reports every storage transition — acquire (live), release
  /// (parked: reads are use-after-release), free (gone) — which is exactly
  /// the lifetime state machine behind the kLifetime hazard class.
  void set_analyzer(analysis::Analyzer* a) { analyzer_ = a; }

 private:
  static constexpr std::size_t kBuckets = 64;

  static std::size_t floor_log2(std::size_t v);
  /// Emits the "pool.buffer.words_in_use" counter-track sample when a span
  /// tracer is installed (one relaxed load otherwise).
  void note_outstanding() const;

  std::array<std::vector<WordVec>, kBuckets> buckets_{};
  Stats stats_;
  std::uint64_t limit_words_ = 0;
  analysis::Analyzer* analyzer_ = nullptr;
};

/// RAII pooled vector: acquires on construction, releases on destruction.
/// The round loops' working buffers are PooledVecs so early exits (theorem
/// checks, audit throws) still hand the storage back.
class PooledVec {
 public:
  PooledVec(BufferPool& pool, std::size_t n)
      : pool_(&pool), v_(pool.acquire(n)) {}
  ~PooledVec() {
    if (pool_ != nullptr) pool_->release(std::move(v_));
  }
  PooledVec(const PooledVec&) = delete;
  PooledVec& operator=(const PooledVec&) = delete;
  PooledVec(PooledVec&& other) noexcept
      : pool_(other.pool_), v_(std::move(other.v_)) {
    other.pool_ = nullptr;
  }
  PooledVec& operator=(PooledVec&&) = delete;

  BufferPool::WordVec& operator*() { return v_; }
  const BufferPool::WordVec& operator*() const { return v_; }
  BufferPool::WordVec* operator->() { return &v_; }
  const BufferPool::WordVec* operator->() const { return &v_; }

 private:
  BufferPool* pool_;
  BufferPool::WordVec v_;
};

}  // namespace folvec::vm
