#include "hashing/hash_map.h"

#include <algorithm>
#include <utility>

#include "support/faultsim.h"
#include "support/require.h"
#include "support/status.h"
#include "telemetry/metrics.h"
#include "vm/checker.h"

namespace folvec::hashing {

using vm::Mask;
using vm::VectorMachine;
using vm::Word;
using vm::WordVec;

namespace {

std::size_t round_capacity(std::size_t want) {
  std::size_t cap = 67;
  while (cap < want) cap = cap * 2 + 1;
  return cap;
}

/// The lanes of a lockstep probe: each lane's key, its position in the
/// batch, and the slot it probes next.
struct ProbeLanes {
  ProbeLanes(VectorMachine& m, std::span<const Word> keys, Word size)
      : key(m.copy(keys)),
        lane(m.iota(keys.size())),
        slot(m.mod_scalar(key, size)) {}

  /// Keeps the lanes of `rest` and steps them along Figure 8's
  /// key-dependent probe sequence: slot <- (slot + (key & 31) + 1) mod size.
  void advance(VectorMachine& m, const Mask& rest, Word size) {
    key = m.compress(key, rest);
    lane = m.compress(lane, rest);
    slot = m.compress(slot, rest);
    slot = m.mod_scalar(m.add(slot, m.add_scalar(m.and_scalar(key, 31), 1)),
                        size);
  }

  WordVec key;
  WordVec lane;
  WordVec slot;
};

}  // namespace

VectorHashMap::VectorHashMap(std::size_t initial_capacity)
    : slots_(round_capacity(initial_capacity), kUnentered),
      values_(slots_.size(), 0) {}

WordVec VectorHashMap::find_slots(VectorMachine& m,
                                  std::span<const Word> keys) const {
  WordVec result(keys.size(), -1);
  if (keys.empty()) return result;
  const auto size = static_cast<Word>(slots_.size());
  ProbeLanes p(m, keys, size);
  const std::size_t max_iterations = slots_.size() * 33;
  for (std::size_t iter = 0; iter < max_iterations; ++iter) {
    const WordVec probed = m.gather(slots_, p.slot);
    const Mask hit = m.eq(probed, p.key);
    const Mask miss = m.eq_scalar(probed, kUnentered);
    m.scatter_masked(result, p.lane, p.slot, hit);
    const Mask active = m.mask_not(m.mask_or(hit, miss));
    if (m.count_true(active) == 0) return result;
    p.advance(m, active, size);
  }
  // A full sweep without every lane retiring: those lanes sit on probe
  // cycles with no empty slot (full table or the gcd hazard of
  // open_table.h) and are reported absent. Surfaced rather than silent —
  // see multi_hash_open_contains.
  telemetry::count("hashing.lookup_sweep_exhausted", p.key.size());
  return result;
}

WordVec VectorHashMap::enter_keys(VectorMachine& m,
                                  std::span<const Word> keys) {
  WordVec result(keys.size(), -1);
  if (keys.empty()) return result;
  if (FaultPlan* plan = faults();
      plan != nullptr && plan->fires(FaultSite::kProbeSaturation)) {
    telemetry::count("fault.injected.probe");
    throw RecoverableError(StatusCode::kProbeCycleSaturated,
                           "injected probe-cycle saturation");
  }
  const auto size = static_cast<Word>(slots_.size());
  ProbeLanes p(m, keys, size);
  {
    // Figure 8 races distinct keys for empty slots: a sanctioned data race.
    // The election writes lane labels into the claimed slots' value words:
    // a label round, whose labels the caller's value write overwrites.
    const vm::ConflictWindow race(m, slots_, vm::WindowKind::kDataRace,
                                  "hash map insert");
    const vm::ConflictWindow election(m, values_, vm::WindowKind::kLabelRound,
                                      "hash map slot election");
    const std::size_t max_iterations = slots_.size() * 33;
    for (std::size_t iter = 0; iter < max_iterations; ++iter) {
      // Figure 8's overwrite-and-check on the lanes that see an empty slot.
      // Lanes carrying the same key walk the same probe sequence in
      // lockstep, so they write the same word and all pass the check.
      const WordVec probed = m.gather(slots_, p.slot);
      const Mask claimed = m.scatter_gather_eq_masked(
          slots_, p.slot, p.key, m.eq_scalar(probed, kUnentered));
      // One FOL1 label round over the claimed slots elects one lane per
      // slot, so the winners count the newly filled slots.
      if (m.count_true(claimed) > 0) {
        entered_ += m.count_true(
            m.scatter_gather_eq_masked(values_, p.slot, p.lane, claimed));
      }
      const Mask hit = m.mask_or(m.eq(probed, p.key), claimed);
      m.scatter_masked(result, p.lane, p.slot, hit);
      const Mask rest = m.mask_not(hit);
      if (m.count_true(rest) == 0) return result;
      p.advance(m, rest, size);
    }
  }
  // Non-convergence after a full sweep is data-dependent (saturated probe
  // cycles on a composite-sized table), not a library bug: report it
  // recoverably so upsert_batch can rehash bigger and retry. Keys that did
  // land stay in slots_ and were counted by their election, so size()
  // stays truthful; their value words still hold labels nobody will
  // overwrite, so they are retired before the recovery rehash reads them.
  m.retire_work(values_);
  telemetry::count("hashing.probe_cycle_saturated");
  throw RecoverableError(StatusCode::kProbeCycleSaturated,
                         "hash map insert swept the table without converging");
}

void VectorHashMap::rehash(VectorMachine& m, std::size_t min_capacity) {
  ++rehashes_;
  // Compress the live keys and values out of the old arrays with vector
  // operations, then re-enter them into the fresh table (tombstones drop
  // out with the compress: live slots hold non-negative keys). A key left
  // behind by a failed enter_keys is live and counted like any other.
  const WordVec old_keys = m.load(slots_, 0, slots_.size());
  const Mask live = m.ge_scalar(old_keys, 0);
  const WordVec keys = m.compress(old_keys, live);
  const WordVec vals = m.compress(m.load(values_, 0, values_.size()), live);

  // Build into fresh storage and roll back if the re-entry itself fails
  // (injected fault, or a saturated cycle in the new size): the recovery
  // path must never lose values, and its caller retries with a bigger
  // capacity anyway.
  std::vector<Word> saved_slots = std::move(slots_);
  std::vector<Word> saved_values = std::move(values_);
  const std::size_t saved_entered = entered_;
  const std::size_t saved_tombstones = tombstones_;
  slots_.assign(round_capacity(min_capacity), kUnentered);
  values_.assign(slots_.size(), 0);
  entered_ = 0;
  tombstones_ = 0;
  try {
    const WordVec new_slots = enter_keys(m, keys);
    m.scatter(values_, new_slots, vals);
  } catch (const RecoverableError&) {
    slots_ = std::move(saved_slots);
    values_ = std::move(saved_values);
    entered_ = saved_entered;
    tombstones_ = saved_tombstones;
    throw;
  }
}

void VectorHashMap::grow(VectorMachine& m, std::size_t need) {
  // Run the doubling on the capacity alone and rebuild once. Only the
  // current table holds tombstones: the first rebuild would drop them.
  std::size_t capacity = slots_.size();
  std::size_t occupied = entered_ + tombstones_;
  while (static_cast<double>(occupied + need) >
         0.7 * static_cast<double>(capacity)) {
    capacity = round_capacity(capacity * 2);
    occupied = entered_;
  }
  if (capacity != slots_.size()) rehash(m, capacity);
}

std::size_t VectorHashMap::erase_batch(VectorMachine& m,
                                       std::span<const Word> keys) {
  if (keys.empty()) return 0;
  const WordVec slot_vec = find_slots(m, keys);
  const WordVec hit_slots = m.compress(slot_vec, m.ne_scalar(slot_vec, -1));
  if (hit_slots.empty()) return 0;

  // Duplicate keys in the batch resolve to the same slot; the upsert's
  // value-word election counts the distinct slots. It is the masked form,
  // as in the upsert, because injected ELS faults target unmasked scatters
  // and would lose a slot from the count. The erased values are dead, so
  // their labels are retired rather than overwritten.
  std::size_t removed = 0;
  {
    const vm::ConflictWindow election(m, values_, vm::WindowKind::kLabelRound,
                                      "hash map erase election");
    removed = m.count_true(m.scatter_gather_eq_masked(
        values_, hit_slots, m.iota(hit_slots.size()),
        Mask(hit_slots.size(), 1)));
  }
  m.retire_work(values_);
  m.scatter(slots_, hit_slots, m.splat(hit_slots.size(), kTombstone));
  entered_ -= removed;
  tombstones_ += removed;

  // Clean up once tombstones clutter a quarter of the table.
  if (4 * tombstones_ > slots_.size()) {
    rehash(m, std::max<std::size_t>(64, 3 * entered_));
  }
  return removed;
}

void VectorHashMap::upsert_batch(VectorMachine& m,
                                 std::span<const Word> keys,
                                 std::span<const Word> values) {
  FOLVEC_REQUIRE(keys.size() == values.size(),
                 "keys/values must have equal length");
  if (keys.empty()) return;
  for (Word k : keys) {
    FOLVEC_REQUIRE(k >= 0, "keys must be non-negative");
  }
  // Graceful degradation: recoverable exhaustion mid-attempt (saturated
  // probe cycle, injected fault) is answered by rehashing to double
  // capacity and re-running the attempt. The re-run re-derives which keys
  // are present, so keys half-inserted by the failed attempt resolve as
  // existing and the batch completes exactly once per lane.
  constexpr std::size_t kMaxRecoveries = 4;
  for (std::size_t attempt = 0;; ++attempt) {
    try {
      grow(m, keys.size());
      const WordVec slot_vec = enter_keys(m, keys);
      // Value write: the order-preserving scatter makes "last lane wins"
      // hold for duplicate keys within the batch, matching sequential
      // upserts. It also overwrites every election label.
      m.scatter_ordered(values_, slot_vec, values);
      if (attempt != 0) {
        telemetry::count("hashing.upsert_recoveries", attempt);
        if (faults() != nullptr) telemetry::count("fault.recovered.probe");
      }
      return;
    } catch (const RecoverableError&) {
      if (attempt == kMaxRecoveries) throw;
      try {
        rehash(m, slots_.size() * 2);
      } catch (const RecoverableError&) {
        // The recovery was hit too (sustained injection). rehash rolled
        // itself back, so the next attempt retries from a consistent state.
      }
    }
  }
}

WordVec VectorHashMap::lookup_batch(VectorMachine& m,
                                    std::span<const Word> keys,
                                    Word missing) const {
  const WordVec slots = find_slots(m, keys);
  const Mask present = m.ne_scalar(slots, -1);
  const WordVec fetched = m.gather_masked(values_, slots, present, missing);
  return fetched;
}

bool VectorHashMap::contains(VectorMachine& m, Word key) const {
  const WordVec slots = find_slots(m, WordVec{key});
  return slots[0] != -1;
}

WordVec VectorHashMap::live_keys(VectorMachine& m) const {
  const WordVec all = m.load(slots_, 0, slots_.size());
  return m.compress(all, m.ge_scalar(all, 0));
}

}  // namespace folvec::hashing
