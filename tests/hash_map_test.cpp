// Tests for VectorHashMap: upsert/lookup semantics, within-batch duplicate
// resolution, growth/rehashing, and a randomized differential test against
// std::unordered_map.
#include "hashing/hash_map.h"

#include <gtest/gtest.h>

#include <string>
#include <tuple>
#include <unordered_map>

#include "support/faultsim.h"
#include "support/prng.h"
#include "support/status.h"

namespace folvec::hashing {
namespace {

using vm::BackendKind;
using vm::MachineConfig;
using vm::ScatterOrder;
using vm::VectorMachine;
using vm::Word;
using vm::WordVec;

TEST(VectorHashMapTest, InsertAndLookup) {
  VectorMachine m;
  VectorHashMap map;
  map.upsert_batch(m, WordVec{10, 20, 30}, WordVec{100, 200, 300});
  EXPECT_EQ(map.size(), 3u);
  EXPECT_EQ(map.lookup_batch(m, WordVec{20, 10, 99, 30}, -1),
            (WordVec{200, 100, -1, 300}));
  EXPECT_TRUE(map.contains(m, 10));
  EXPECT_FALSE(map.contains(m, 11));
}

TEST(VectorHashMapTest, UpsertOverwritesExisting) {
  VectorMachine m;
  VectorHashMap map;
  map.upsert_batch(m, WordVec{5}, WordVec{50});
  map.upsert_batch(m, WordVec{5, 6}, WordVec{55, 60});
  EXPECT_EQ(map.size(), 2u);
  EXPECT_EQ(map.lookup_batch(m, WordVec{5, 6}, -1), (WordVec{55, 60}));
}

TEST(VectorHashMapTest, DuplicateKeysInBatchLastLaneWins) {
  VectorMachine m;
  VectorHashMap map;
  map.upsert_batch(m, WordVec{7, 8, 7, 7}, WordVec{1, 2, 3, 4});
  EXPECT_EQ(map.size(), 2u);
  EXPECT_EQ(map.lookup_batch(m, WordVec{7, 8}, -1), (WordVec{4, 2}));
}

TEST(VectorHashMapTest, EmptyBatchIsNoop) {
  VectorMachine m;
  VectorHashMap map;
  map.upsert_batch(m, WordVec{}, WordVec{});
  EXPECT_EQ(map.size(), 0u);
  EXPECT_TRUE(map.lookup_batch(m, WordVec{}, -1).empty());
}

TEST(VectorHashMapTest, MismatchedBatchThrows) {
  VectorMachine m;
  VectorHashMap map;
  EXPECT_THROW(map.upsert_batch(m, WordVec{1}, WordVec{}),
               PreconditionError);
  EXPECT_THROW(map.upsert_batch(m, WordVec{-1}, WordVec{0}),
               PreconditionError);
}

TEST(VectorHashMapTest, GrowthKeepsEverything) {
  VectorMachine m;
  VectorHashMap map(64);
  const std::size_t initial_capacity = map.capacity();
  const auto keys = random_unique_keys(500, 1 << 30, 3);
  WordVec values(keys.size());
  for (std::size_t i = 0; i < keys.size(); ++i) {
    values[i] = static_cast<Word>(i);
  }
  // Insert in several batches to exercise repeated growth.
  for (std::size_t off = 0; off < keys.size(); off += 100) {
    map.upsert_batch(
        m, std::span(keys).subspan(off, 100),
        std::span<const Word>(values).subspan(off, 100));
  }
  EXPECT_GT(map.capacity(), initial_capacity);
  EXPECT_GT(map.rehash_count(), 0u);
  EXPECT_LE(map.load_factor(), 0.7);
  const WordVec found = map.lookup_batch(m, keys, -1);
  for (std::size_t i = 0; i < keys.size(); ++i) {
    ASSERT_EQ(found[i], values[i]) << "key " << keys[i];
  }
}

TEST(VectorHashMapEraseTest, EraseRemovesAndLookupMisses) {
  VectorMachine m;
  VectorHashMap map;
  map.upsert_batch(m, WordVec{1, 2, 3, 4}, WordVec{10, 20, 30, 40});
  EXPECT_EQ(map.erase_batch(m, WordVec{2, 4, 99}), 2u);
  EXPECT_EQ(map.size(), 2u);
  EXPECT_EQ(map.lookup_batch(m, WordVec{1, 2, 3, 4}, -1),
            (WordVec{10, -1, 30, -1}));
}

TEST(VectorHashMapEraseTest, DuplicateEraseKeysCountOnce) {
  VectorMachine m;
  VectorHashMap map;
  map.upsert_batch(m, WordVec{7}, WordVec{70});
  EXPECT_EQ(map.erase_batch(m, WordVec{7, 7, 7}), 1u);
  EXPECT_EQ(map.size(), 0u);
}

TEST(VectorHashMapEraseTest, ReinsertAfterEraseWorks) {
  VectorMachine m;
  VectorHashMap map;
  map.upsert_batch(m, WordVec{5, 6}, WordVec{50, 60});
  map.erase_batch(m, WordVec{5});
  map.upsert_batch(m, WordVec{5}, WordVec{55});
  EXPECT_EQ(map.lookup_batch(m, WordVec{5, 6}, -1), (WordVec{55, 60}));
  EXPECT_EQ(map.size(), 2u);
}

TEST(VectorHashMapEraseTest, ProbeChainsSurviveTombstones) {
  // Force a probe chain: keys congruent modulo the capacity collide; erase
  // the first link and the second must stay reachable.
  VectorMachine m;
  VectorHashMap map(64);  // rounds to capacity 67
  const Word cap = static_cast<Word>(map.capacity());
  const WordVec chain{3, 3 + cap, 3 + 2 * cap};
  map.upsert_batch(m, chain, WordVec{1, 2, 3});
  map.erase_batch(m, WordVec{chain[0]});
  EXPECT_EQ(map.lookup_batch(m, chain, -1), (WordVec{-1, 2, 3}));
}

TEST(VectorHashMapEraseTest, HeavyChurnTriggersTombstoneRehash) {
  VectorMachine m;
  VectorHashMap map;
  Xoshiro256 rng(9);
  std::unordered_map<Word, Word> reference;
  for (int round = 0; round < 30; ++round) {
    WordVec keys(40);
    WordVec values(40);
    for (std::size_t i = 0; i < keys.size(); ++i) {
      keys[i] = rng.in_range(0, 399);
      values[i] = rng.in_range(0, 1000);
      reference[keys[i]] = values[i];
    }
    map.upsert_batch(m, keys, values);
    // Erase a random half of the known keys.
    WordVec to_erase;
    for (const auto& [k, v] : reference) {
      if (rng.unit() < 0.5) to_erase.push_back(k);
    }
    map.erase_batch(m, to_erase);
    for (Word k : to_erase) reference.erase(k);
    ASSERT_EQ(map.size(), reference.size()) << "round " << round;
  }
  EXPECT_GT(map.rehash_count(), 0u);
  // Final content check.
  for (const auto& [k, v] : reference) {
    ASSERT_EQ(map.lookup_batch(m, WordVec{k}, -1)[0], v);
  }
}

TEST(VectorHashMapGrowthTest, FreshMapRehashesOnceForALargeBatch) {
  // 2^12 lanes into the initial 67 slots: repeated doubling reaches 8703
  // (0.7 * 4351 < 4096 <= 0.7 * 8703), and the table is rebuilt once, not
  // once per doubling.
  VectorMachine m;
  VectorHashMap map;
  const auto keys = random_unique_keys(std::size_t{1} << 12, 1 << 30, 5);
  map.upsert_batch(m, keys, keys);
  EXPECT_EQ(map.capacity(), 8703u);
  EXPECT_EQ(map.rehash_count(), 1u);
  EXPECT_EQ(map.size(), keys.size());
  EXPECT_EQ(map.lookup_batch(m, keys, -1), WordVec(keys.begin(), keys.end()));
}

TEST(VectorHashMapGrowthTest, OnlyTheFirstDoublingCountsTombstones) {
  VectorMachine m;
  VectorHashMap map;  // capacity 67
  WordVec keys;
  for (Word k = 0; k < 36; ++k) keys.push_back(k);
  map.upsert_batch(m, keys, keys);
  map.erase_batch(m, std::span<const Word>(keys).first(16));
  ASSERT_EQ(map.capacity(), 67u);
  ASSERT_EQ(map.rehash_count(), 0u);
  // 20 live + 16 tombstones + 60 new overflow 67 slots. After one doubling
  // the tombstones are gone and 80 keys fit 135 slots; counting the
  // tombstones again would double once more.
  WordVec more;
  for (Word k = 100; k < 160; ++k) more.push_back(k);
  map.upsert_batch(m, more, more);
  EXPECT_EQ(map.capacity(), 135u);
  EXPECT_EQ(map.rehash_count(), 1u);
  EXPECT_EQ(map.size(), 80u);
}

// ---- one probe loop for present, absent and repeated keys -------------------

struct ProbeLoopCase {
  ScatterOrder order;
  BackendKind backend;
  bool audit;
};

std::string probe_loop_case_name(
    const ::testing::TestParamInfo<ProbeLoopCase>& info) {
  static const char* const kOrders[] = {"Forward", "Reverse", "Shuffled"};
  static const char* const kBackends[] = {"Serial", "Simd"};
  return std::string(kOrders[static_cast<int>(info.param.order)]) +
         kBackends[static_cast<int>(info.param.backend)] +
         (info.param.audit ? "Audit" : "");
}

class VectorHashMapProbeLoopTest
    : public ::testing::TestWithParam<ProbeLoopCase> {
 protected:
  VectorHashMapProbeLoopTest() : m_(config()) {}

  static MachineConfig config() {
    MachineConfig cfg;
    cfg.scatter_order = GetParam().order;
    cfg.backend = GetParam().backend;
    cfg.audit = GetParam().audit;
    return cfg;
  }

  /// Upserts one batch into the map and the sequential reference, then
  /// checks the distinct count and last-write-wins lookups of every key
  /// the reference holds plus the batch's own keys.
  void upsert_and_check(const WordVec& keys, const WordVec& values) {
    map_.upsert_batch(m_, keys, values);
    for (std::size_t i = 0; i < keys.size(); ++i) {
      reference_[keys[i]] = values[i];
    }
    ASSERT_EQ(map_.size(), reference_.size());
    check_lookups();
  }

  void erase_and_check(const WordVec& keys) {
    std::size_t expected = 0;
    for (const Word k : keys) expected += reference_.erase(k);
    ASSERT_EQ(map_.erase_batch(m_, keys), expected);
    ASSERT_EQ(map_.size(), reference_.size());
    check_lookups();
  }

  void check_lookups() {
    WordVec queries;
    for (const auto& [k, v] : reference_) queries.push_back(k);
    const WordVec found = map_.lookup_batch(m_, queries, -1);
    for (std::size_t i = 0; i < queries.size(); ++i) {
      ASSERT_EQ(found[i], reference_.at(queries[i])) << "key " << queries[i];
    }
  }

  VectorMachine m_;
  VectorHashMap map_;
  std::unordered_map<Word, Word> reference_;
};

TEST_P(VectorHashMapProbeLoopTest, HeavyDuplicateBatch) {
  // 4096 lanes over 16 keys: every key repeats ~256 times in one batch.
  Xoshiro256 rng(17);
  for (int batch = 0; batch < 3; ++batch) {
    WordVec keys(4096);
    WordVec values(keys.size());
    for (std::size_t i = 0; i < keys.size(); ++i) {
      keys[i] = 1000 + 7 * rng.in_range(0, 15);
      values[i] = rng.in_range(0, 1 << 20);
    }
    upsert_and_check(keys, values);
    ASSERT_EQ(map_.size(), 16u);
  }
}

TEST_P(VectorHashMapProbeLoopTest, MixedBatchesOverTombstonedChains) {
  // Keys congruent modulo the capacity share a home slot, so every batch
  // walks probe chains; erasing links in the middle leaves tombstones on
  // them. Each batch mixes present, absent, erased and repeated keys.
  const Word cap = static_cast<Word>(map_.capacity());
  Xoshiro256 rng(23);
  for (int round = 0; round < 12; ++round) {
    WordVec keys(48);
    WordVec values(keys.size());
    for (std::size_t i = 0; i < keys.size(); ++i) {
      keys[i] = rng.in_range(0, 3) + cap * rng.in_range(0, 9);
      values[i] = rng.in_range(0, 1 << 20);
    }
    upsert_and_check(keys, values);
    WordVec doomed;
    for (const auto& [k, v] : reference_) {
      if (rng.unit() < 0.3) doomed.push_back(k);
    }
    doomed.push_back(doomed.empty() ? 5 : doomed.front());  // a repeat
    erase_and_check(doomed);
  }
}

INSTANTIATE_TEST_SUITE_P(
    OrdersAndBackends, VectorHashMapProbeLoopTest,
    ::testing::Values(
        ProbeLoopCase{ScatterOrder::kForward, BackendKind::kSerial, false},
        ProbeLoopCase{ScatterOrder::kReverse, BackendKind::kSerial, false},
        ProbeLoopCase{ScatterOrder::kShuffled, BackendKind::kSerial, false},
        ProbeLoopCase{ScatterOrder::kForward, BackendKind::kSimd, false},
        ProbeLoopCase{ScatterOrder::kReverse, BackendKind::kSimd, false},
        ProbeLoopCase{ScatterOrder::kShuffled, BackendKind::kSimd, false},
        // ScatterCheck over the key race, the election label rounds and
        // the erase retirements, whatever the environment says.
        ProbeLoopCase{ScatterOrder::kShuffled, BackendKind::kSerial, true},
        ProbeLoopCase{ScatterOrder::kShuffled, BackendKind::kSimd, true}),
    probe_loop_case_name);

// ---- retry idempotency around the gcd probe-cycle hazard --------------------
//
// Capacity 135 = 27 * 5: a key with (key & 31) == 26 probes with step 27,
// which cycles through only 5 of the 135 slots. Six such keys sharing one
// mod-27 slot family saturate that cycle — five land, the sixth sweeps the
// table, and the insert reports kProbeCycleSaturated with the five left in
// slots_ as partially-applied strays. These tests pin the retry loop's
// idempotency around exactly that state.

WordVec gcd_hazard_keys() {
  // k ≡ 26 (mod 32) fixes probe step 27; k ≡ 26 (mod 27) fixes the slot
  // family; both at once: k ≡ 26 (mod 864).
  WordVec keys;
  for (Word j = 0; j < 6; ++j) keys.push_back(26 + 864 * j);
  return keys;
}

TEST(VectorHashMapRecoveryTest, SaturatedRetryKeepsDuplicateBatchExact) {
  VectorMachine m;
  VectorHashMap map(68);
  ASSERT_EQ(map.capacity(), 135u);
  const WordVec six = gcd_hazard_keys();
  // Every key appears twice in the one batch; the later occurrence carries
  // the value that must win even though the batch is interrupted mid-way by
  // a genuine saturation and re-run after the recovery rehash.
  WordVec keys;
  WordVec values;
  for (std::size_t i = 0; i < six.size(); ++i) {
    keys.push_back(six[i]);
    values.push_back(static_cast<Word>(100 + i));
  }
  for (std::size_t i = 0; i < six.size(); ++i) {
    keys.push_back(six[i]);
    values.push_back(static_cast<Word>(200 + i));
  }
  map.upsert_batch(m, keys, values);
  EXPECT_GT(map.rehash_count(), 0u);
  EXPECT_EQ(map.size(), six.size());
  EXPECT_EQ(map.lookup_batch(m, six, -1),
            (WordVec{200, 201, 202, 203, 204, 205}));
  // Exactly one entry per key: one erase sweep drains the table completely.
  EXPECT_EQ(map.erase_batch(m, six), six.size());
  EXPECT_EQ(map.size(), 0u);
}

TEST(VectorHashMapRecoveryTest, SaturatedRetryIsCleanUnderAudit) {
  // The saturated attempt leaves election labels in the strays' value
  // words; the recovery rehash reads every value word, which ScatterCheck
  // flags unless the labels were retired before the throw.
  MachineConfig cfg;
  cfg.audit = true;
  VectorMachine m(cfg);
  VectorHashMap map(68);
  const WordVec six = gcd_hazard_keys();
  WordVec values;
  for (std::size_t i = 0; i < six.size(); ++i) {
    values.push_back(static_cast<Word>(300 + i));
  }
  map.upsert_batch(m, six, values);
  EXPECT_GT(map.rehash_count(), 0u);
  EXPECT_EQ(map.size(), six.size());
  EXPECT_EQ(map.lookup_batch(m, six, -1), values);
  EXPECT_TRUE(m.hazards().empty());
}

TEST(VectorHashMapRecoveryTest, ExhaustedRecoveryLeavesCountsConsistent) {
  VectorMachine m;
  VectorHashMap map(68);
  const WordVec keys = gcd_hazard_keys();
  WordVec values;
  for (std::size_t i = 0; i < keys.size(); ++i) {
    values.push_back(static_cast<Word>(10 + i));
  }
  {
    // Each genuine saturation is followed by a rehash whose re-entry is the
    // next probe check: firing on every 2nd check fails exactly the
    // rehashes, so every recovery rolls back and the batch finally throws.
    FaultPlan plan(1, "probe%2");
    ScopedFaultPlan scoped(&plan);
    EXPECT_THROW(map.upsert_batch(m, keys, values), RecoverableError);
  }
  // Five of the six keys landed before the first saturation. size() must
  // agree with what lookups actually see — stray entries that escaped the
  // count would corrupt every later load-factor and erase computation.
  std::size_t present = 0;
  for (const Word k : keys) {
    if (map.contains(m, k)) ++present;
  }
  EXPECT_EQ(present, 5u);
  EXPECT_EQ(map.size(), present);
  // Erasing everything drains the count to zero instead of underflowing it.
  EXPECT_EQ(map.erase_batch(m, keys), present);
  EXPECT_EQ(map.size(), 0u);
  // A clean retry completes the batch exactly once per key.
  map.upsert_batch(m, keys, values);
  EXPECT_EQ(map.size(), keys.size());
  EXPECT_EQ(map.lookup_batch(m, keys, -1), values);
}

// (batches, batch size, key range, scatter order)
using MapSweep = std::tuple<std::size_t, std::size_t, Word, ScatterOrder>;

class VectorHashMapPropertyTest : public ::testing::TestWithParam<MapSweep> {
};

TEST_P(VectorHashMapPropertyTest, MatchesUnorderedMap) {
  const auto [batches, batch_size, range, order] = GetParam();
  Xoshiro256 rng(batches * 31 + batch_size);
  MachineConfig cfg;
  cfg.scatter_order = order;
  VectorMachine m(cfg);
  VectorHashMap map;
  std::unordered_map<Word, Word> reference;

  for (std::size_t b = 0; b < batches; ++b) {
    WordVec keys(batch_size);
    WordVec values(batch_size);
    for (std::size_t i = 0; i < batch_size; ++i) {
      keys[i] = rng.in_range(0, range - 1);
      values[i] = rng.in_range(0, 1 << 20);
      reference[keys[i]] = values[i];  // sequential upsert semantics
    }
    map.upsert_batch(m, keys, values);
    ASSERT_EQ(map.size(), reference.size());

    // Spot-check lookups: all reference keys plus some absent ones.
    WordVec queries;
    for (const auto& [k, v] : reference) queries.push_back(k);
    queries.push_back(range + 5);
    const WordVec found = map.lookup_batch(m, queries, -1);
    for (std::size_t i = 0; i + 1 < queries.size(); ++i) {
      ASSERT_EQ(found[i], reference.at(queries[i])) << "key " << queries[i];
    }
    ASSERT_EQ(found.back(), -1);
  }
}

INSTANTIATE_TEST_SUITE_P(
    BatchSweep, VectorHashMapPropertyTest,
    ::testing::Combine(::testing::Values<std::size_t>(1, 5, 12),
                       ::testing::Values<std::size_t>(1, 17, 120),
                       ::testing::Values<Word>(10, 500, 1 << 28),
                       ::testing::Values(ScatterOrder::kForward,
                                         ScatterOrder::kShuffled)));

}  // namespace
}  // namespace folvec::hashing
