#include "hashing/open_table.h"

#include <string>
#include <unordered_set>
#include <utility>

#include "hashing/hash_fn.h"
#include "support/faultsim.h"
#include "support/require.h"
#include "telemetry/metrics.h"
#include "vm/buffer_pool.h"
#include "vm/checker.h"

namespace folvec::hashing {

using vm::Mask;
using vm::VectorMachine;
using vm::Word;
using vm::WordVec;

ScalarOpenTable::ScalarOpenTable(std::size_t table_size, ProbeVariant variant,
                                 vm::CostAccumulator* cost)
    : slots_(table_size, kUnentered), variant_(variant), cost_(cost) {
  FOLVEC_REQUIRE(table_size > 32,
                 "the key-dependent probe step requires size(table) > 32");
}

Word ScalarOpenTable::probe_step(Word key) const {
  switch (variant_) {
    case ProbeVariant::kLinear:
      return 1;
    case ProbeVariant::kKeyDependent:
      return (key & 31) + 1;
  }
  return 1;
}

Status ScalarOpenTable::try_insert(Word key, std::size_t* probes_out) {
  FOLVEC_REQUIRE(key >= 0, "keys must be non-negative");
  if (FaultPlan* plan = faults();
      plan != nullptr && plan->fires(FaultSite::kProbeSaturation)) {
    telemetry::count("fault.injected.probe");
    return Status(StatusCode::kProbeCycleSaturated,
                  "injected probe-cycle saturation");
  }
  if (entered_ == slots_.size()) {
    // Genuinely full: a distinct condition from a saturated probe cycle,
    // and one growing also fixes.
    return Status(StatusCode::kTableFull,
                  "every slot of the " + std::to_string(slots_.size()) +
                      "-slot table is occupied");
  }
  const auto size = static_cast<Word>(slots_.size());
  // hash: one (slow) integer division plus bookkeeping on the scalar unit.
  cost_.div(1);
  cost_.alu(1);
  Word h = mod_hash(key, size);
  std::size_t probes = 1;
  // Probe until an empty slot; each probe is a load + compare-and-branch,
  // and a re-probe adds the step arithmetic and another modulus.
  cost_.mem(1);
  cost_.branch(1);
  while (slots_[static_cast<std::size_t>(h)] != kUnentered) {
    FOLVEC_REQUIRE(slots_[static_cast<std::size_t>(h)] != key,
                   "duplicate key inserted into an open-addressing table");
    h = mod_hash(h + probe_step(key), size);
    ++probes;
    cost_.div(1);
    cost_.alu(2);
    cost_.mem(1);
    cost_.branch(1);
    // The sequence advances by a constant step, so its cycle length divides
    // the table size: after `size` probes every reachable slot has been
    // visited. Exceeding that means the key's cycle holds no free slot even
    // though the table is not full (gcd hazard — see the header).
    if (probes > slots_.size()) {
      telemetry::count("hashing.probe_cycle_saturated");
      return Status(
          StatusCode::kProbeCycleSaturated,
          "probe cycle of key " + std::to_string(key) + " (step " +
              std::to_string(probe_step(key)) + ", table size " +
              std::to_string(slots_.size()) +
              ") has no free slot although the table is not full");
    }
  }
  slots_[static_cast<std::size_t>(h)] = key;
  cost_.mem(1);
  ++entered_;
  telemetry::observe("hashing.scalar.probe_count", probes);
  if (probes_out != nullptr) *probes_out = probes;
  return Status::ok();
}

std::size_t ScalarOpenTable::insert(Word key) {
  std::size_t probes = 0;
  const Status st = try_insert(key, &probes);
  if (!st.is_ok()) throw RecoverableError(st.code(), st.message());
  return probes;
}

void ScalarOpenTable::grow() {
  // The next prime above twice the current size: prime sizes make
  // gcd(step, size) = 1 for every key-dependent step in [1, 32], so every
  // probe cycle covers the whole table and saturation implies truly full.
  std::size_t candidate = slots_.size() * 2 + 1;
  const auto is_prime = [](std::size_t v) {
    for (std::size_t d = 3; d * d <= v; d += 2) {
      if (v % d == 0) return false;
    }
    return (v & 1) != 0;
  };
  while (!is_prime(candidate)) candidate += 2;
  std::vector<Word> old = std::move(slots_);
  slots_.assign(candidate, kUnentered);
  entered_ = 0;
  ++grows_;
  telemetry::count("hashing.scalar.grows");
  for (Word v : old) {
    if (v == kUnentered) continue;
    // Re-entry cannot fail: the new size is prime (full-cycle probing) and
    // strictly larger than the number of live keys. Injected faults are
    // ignored here — the re-entry IS the recovery path.
    const auto size = static_cast<Word>(slots_.size());
    cost_.div(1);
    cost_.alu(1);
    Word h = mod_hash(v, size);
    cost_.mem(1);
    cost_.branch(1);
    while (slots_[static_cast<std::size_t>(h)] != kUnentered) {
      h = mod_hash(h + probe_step(v), size);
      cost_.div(1);
      cost_.alu(2);
      cost_.mem(1);
      cost_.branch(1);
    }
    slots_[static_cast<std::size_t>(h)] = v;
    cost_.mem(1);
    ++entered_;
  }
}

std::size_t ScalarOpenTable::insert_or_grow(Word key) {
  // One grow always suffices for a genuine failure (prime size, cycle
  // covers the table, size > 2x the live keys), so the bound only trips
  // under sustained fault injection — surface that instead of growing
  // without limit.
  constexpr std::size_t kMaxGrows = 3;
  Status st;
  for (std::size_t attempt = 0; attempt <= kMaxGrows; ++attempt) {
    std::size_t probes = 0;
    st = try_insert(key, &probes);
    if (st.is_ok()) {
      if (attempt != 0 && faults() != nullptr) {
        telemetry::count("fault.recovered.probe");
      }
      return probes;
    }
    if (attempt < kMaxGrows) grow();
  }
  throw RecoverableError(st.code(), st.message());
}

bool ScalarOpenTable::contains(Word key) const {
  const auto size = static_cast<Word>(slots_.size());
  Word h = mod_hash(key, size);
  for (std::size_t probes = 0; probes <= slots_.size() * 33; ++probes) {
    const Word v = slots_[static_cast<std::size_t>(h)];
    if (v == key) return true;
    if (v == kUnentered) return false;
    h = mod_hash(h + probe_step(key), size);
  }
  return false;
}

namespace {

/// Body of the Figure 8 insert, factored so the try_ wrapper can translate
/// its recoverable failure modes into Statuses without unwinding machinery
/// at every return site.
Status multi_hash_open_insert_body(VectorMachine& m, std::span<Word> table,
                                   std::span<const Word> keys,
                                   ProbeVariant variant,
                                   MultiHashStats& stats) {
  if (keys.empty()) return Status::ok();
  const auto size = static_cast<Word>(table.size());
  FOLVEC_REQUIRE(size > 32,
                 "the key-dependent probe step requires size(table) > 32");
  if (FaultPlan* plan = faults();
      plan != nullptr && plan->fires(FaultSite::kProbeSaturation)) {
    telemetry::count("fault.injected.probe");
    return Status(StatusCode::kProbeCycleSaturated,
                  "injected probe-cycle saturation");
  }
  std::size_t free_slots = 0;
  for (Word v : table) free_slots += (v == kUnentered) ? 1u : 0u;
  if (keys.size() > free_slots) {
    // Data-dependent, not caller misuse: how full the table is depends on
    // what was previously inserted. Recover by growing (see
    // VectorHashMap::rehash) and retrying the batch.
    return Status(StatusCode::kTableFull,
                  std::to_string(keys.size()) + " keys for " +
                      std::to_string(free_slots) + " free slots");
  }

  const vm::AlgoSpan span(m, "hashing.multi_insert");
  telemetry::count("hashing.insert_calls");
  telemetry::count("hashing.keys", keys.size());

  // Figure 8, first entry attempt: hash, then store keys into empty slots.
  // More than one key may be written to one entry — the ELS scatter keeps
  // exactly one intact, and the check below detects the losers. The whole
  // insert loop is the overwrite-and-check idiom, so the racing scatters
  // are a sanctioned data-race window over the table.
  const vm::ConflictWindow window(m, table, vm::WindowKind::kDataRace,
                                  "multiple hashing insert");
  // Retry-round working vectors are pooled and refilled in place; after the
  // first round the loop performs no allocation.
  vm::BufferPool& pool = m.pool();
  vm::PooledVec key_vec(pool, keys.size());
  vm::PooledVec next_key(pool, keys.size());
  vm::PooledVec next_hashed(pool, keys.size());
  vm::PooledVec probed(pool, keys.size());
  // Kept half of the splits; unused.
  vm::PooledVec entered_scratch(pool, keys.size());
  // Pooled intermediates for the subscript recalculation below.
  vm::PooledVec probe_tmp(pool, keys.size());
  vm::PooledVec step_vec(pool, keys.size());
  m.copy_into(*key_vec, keys);
  WordVec hashed = m.mod_scalar(*key_vec, size);
  {
    m.gather_into(*probed, table, hashed);
    const Mask empty = m.eq_scalar(*probed, kUnentered);
    m.scatter_masked(table, hashed, *key_vec, empty);
  }
  stats.max_vector_len = key_vec->size();

  // Outer loop: detect which keys made it, pack the rest, re-probe.
  const std::size_t max_iterations = table.size() * 33;
  for (std::size_t iter = 0; iter < max_iterations; ++iter) {
    ++stats.iterations;
    const vm::AlgoSpan round_span(m, "retry", iter);
    m.gather_into(*probed, table, hashed);
    const Mask entered = m.eq(*probed, *key_vec);
    const std::size_t nrest = key_vec->size() - m.count_true(entered);
    // Keys confirmed entered this pass found their slot on probe iter+1.
    telemetry::observe("hashing.probe_count", iter + 1,
                       key_vec->size() - nrest);
    if (nrest == 0) {
      telemetry::count("hashing.retry_rounds", stats.iterations);
      telemetry::observe("hashing.retry_rounds_per_call", stats.iterations);
      return Status::ok();
    }

    // One partition per control vector replaces the old mask_not + two
    // compresses; the kept (entered) halves are dead.
    m.partition_into(*entered_scratch, *next_hashed, hashed, entered);
    m.partition_into(*entered_scratch, *next_key, *key_vec, entered);
    std::swap(hashed, *next_hashed);
    std::swap(*key_vec, *next_key);

    // Subscript recalculation. The optimized variant separates keys that
    // collided at the same slot by giving each its own stride.
    switch (variant) {
      case ProbeVariant::kLinear:
        m.add_scalar_into(*probe_tmp, hashed, 1);
        m.mod_scalar_into(hashed, *probe_tmp, size);
        break;
      case ProbeVariant::kKeyDependent:
        m.and_scalar_into(*probe_tmp, *key_vec, 31);
        m.add_scalar_into(*step_vec, *probe_tmp, 1);
        m.add_into(*probe_tmp, hashed, *step_vec);
        m.mod_scalar_into(hashed, *probe_tmp, size);
        break;
    }

    m.gather_into(*probed, table, hashed);
    const Mask empty = m.eq_scalar(*probed, kUnentered);
    m.scatter_masked(table, hashed, *key_vec, empty);
  }
  // A full sweep of the table without convergence: every remaining key's
  // probe cycle is saturated (composite size + gcd hazard). The table holds
  // the keys that did land; the caller recovers by growing and re-deriving
  // the remainder.
  telemetry::count("hashing.probe_cycle_saturated");
  return Status(StatusCode::kProbeCycleSaturated,
                "multiple hashing swept the table without converging (" +
                    std::to_string(key_vec->size()) +
                    " keys on saturated probe cycles)");
}

}  // namespace

Status try_multi_hash_open_insert(VectorMachine& m, std::span<Word> table,
                                  std::span<const Word> keys,
                                  ProbeVariant variant,
                                  MultiHashStats* stats_out) {
  MultiHashStats stats;
  Status st;
  try {
    st = multi_hash_open_insert_body(m, table, keys, variant, stats);
  } catch (const RecoverableError& e) {
    // A capped buffer pool running dry mid-insert arrives as an exception
    // from acquire(); forward it as a value.
    st = e.status();
  }
  if (stats_out != nullptr) *stats_out = stats;
  return st;
}

MultiHashStats multi_hash_open_insert(VectorMachine& m,
                                      std::span<Word> table,
                                      std::span<const Word> keys,
                                      ProbeVariant variant) {
  MultiHashStats stats;
  const Status st = multi_hash_open_insert_body(m, table, keys, variant, stats);
  if (!st.is_ok()) throw RecoverableError(st.code(), st.message());
  return stats;
}

vm::Mask multi_hash_open_contains(VectorMachine& m,
                                  std::span<const Word> table,
                                  std::span<const Word> keys,
                                  ProbeVariant variant,
                                  MultiHashLookupStats* lookup_stats) {
  if (lookup_stats != nullptr) *lookup_stats = MultiHashLookupStats{};
  const auto size = static_cast<Word>(table.size());
  FOLVEC_REQUIRE(size > 32,
                 "the key-dependent probe step requires size(table) > 32");
  Mask found(keys.size(), 0);
  if (keys.empty()) return found;

  // Lockstep probing: lanes retire when they hit their key (found) or an
  // empty slot (absent); the rest advance along their probe sequence.
  // Working vectors are pooled; the probe loop allocates only masks.
  vm::BufferPool& pool = m.pool();
  vm::PooledVec key_vec(pool, keys.size());
  vm::PooledVec lane(pool, keys.size());
  vm::PooledVec probed(pool, keys.size());
  vm::PooledVec hit_lanes(pool, keys.size());
  vm::PooledVec packed(pool, keys.size());
  // Pooled intermediates for the subscript recalculation.
  vm::PooledVec probe_tmp(pool, keys.size());
  vm::PooledVec step_vec(pool, keys.size());
  m.copy_into(*key_vec, keys);
  m.iota_into(*lane, keys.size());
  WordVec hashed = m.mod_scalar(*key_vec, size);
  const std::size_t max_iterations = table.size() * 33;
  for (std::size_t iter = 0; iter < max_iterations; ++iter) {
    m.gather_into(*probed, table, hashed);
    const Mask hit = m.eq(*probed, *key_vec);
    const Mask miss = m.eq_scalar(*probed, kUnentered);
    // Record hits through the lane index vector.
    m.compress_into(*hit_lanes, *lane, hit);
    for (Word l : *hit_lanes) found[static_cast<std::size_t>(l)] = 1;
    const Mask active = m.mask_not(m.mask_or(hit, miss));
    if (m.count_true(active) == 0) return found;
    m.compress_into(*packed, *key_vec, active);
    std::swap(*key_vec, *packed);
    m.compress_into(*packed, *lane, active);
    std::swap(*lane, *packed);
    m.compress_into(*packed, hashed, active);
    std::swap(hashed, *packed);
    switch (variant) {
      case ProbeVariant::kLinear:
        m.add_scalar_into(*probe_tmp, hashed, 1);
        m.mod_scalar_into(hashed, *probe_tmp, size);
        break;
      case ProbeVariant::kKeyDependent:
        m.and_scalar_into(*probe_tmp, *key_vec, 31);
        m.add_scalar_into(*step_vec, *probe_tmp, 1);
        m.add_into(*probe_tmp, hashed, *step_vec);
        m.mod_scalar_into(hashed, *probe_tmp, size);
        break;
    }
  }
  // Lanes still probing after a full sweep of the table are reported
  // absent. Reachable only when some probe cycle holds no empty slot — the
  // table is completely full, or a composite size saturated a cycle (gcd
  // hazard, see the header) — so surface the count instead of falling
  // through silently: a caller seeing nonzero exhausted lanes on a table it
  // believes sparse has hit the hazard and should grow to a prime size.
  telemetry::count("hashing.lookup_sweep_exhausted", key_vec->size());
  if (lookup_stats != nullptr) {
    lookup_stats->sweep_exhausted_lanes = key_vec->size();
  }
  return found;
}

}  // namespace folvec::hashing
