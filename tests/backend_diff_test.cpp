// Differential fuzz of the execution backends: SimdBackend must be
// bit-identical to SerialBackend for every primitive, under every
// ScatterOrder, at every SIMD level — same outputs, same memory images,
// same chime costs, same exceptions, same telemetry — and the fused kernels
// must be bit-identical to their unfused compositions on both backends.
#include <gtest/gtest.h>

#include <algorithm>
#include <cctype>
#include <cstdint>
#include <limits>
#include <sstream>
#include <string>
#include <tuple>
#include <vector>

#include "fol/fol1.h"
#include "hashing/open_table.h"
#include "support/json.h"
#include "support/prng.h"
#include "telemetry/metrics.h"
#include "telemetry/spans.h"
#include "vm/backend.h"
#include "vm/buffer_pool.h"
#include "vm/checker.h"
#include "vm/machine.h"
#include "vm/simd_backend.h"

namespace folvec::vm {
namespace {

MachineConfig diff_config(ScatterOrder order, std::uint64_t seed) {
  MachineConfig cfg;
  cfg.scatter_order = order;
  cfg.shuffle_seed = seed;
  // The fuzz scatters duplicate addresses outside ConflictWindows on
  // purpose; opt out of auditing regardless of the FOLVEC_AUDIT env.
  cfg.audit = false;
  return cfg;
}

VectorMachine make_serial(ScatterOrder order, std::uint64_t seed) {
  MachineConfig cfg = diff_config(order, seed);
  cfg.backend = BackendKind::kSerial;
  return VectorMachine(cfg);
}

VectorMachine make_simd(ScatterOrder order, std::uint64_t seed,
                        SimdLevel level) {
  MachineConfig cfg = diff_config(order, seed);
  cfg.backend = BackendKind::kSimd;
  cfg.simd_level = level;
  return VectorMachine(cfg);
}

void expect_same_costs(const CostAccumulator& serial,
                       const CostAccumulator& other) {
  for (std::size_t i = 0; i < kOpClassCount; ++i) {
    const auto c = static_cast<OpClass>(i);
    EXPECT_EQ(serial.instructions(c), other.instructions(c))
        << "instruction count diverged for " << op_class_name(c);
    EXPECT_EQ(serial.elements(c), other.elements(c))
        << "element count diverged for " << op_class_name(c);
  }
}

/// Shared random operands for one script run at size n.
struct Inputs {
  WordVec a, b, table, idx, vals;
  Mask mask;

  Inputs(std::size_t n, std::uint64_t seed) {
    Xoshiro256 rng(seed);
    const std::size_t table_size = std::max<std::size_t>(1, n / 2);
    a.resize(n);
    b.resize(n);
    idx.resize(n);
    vals.resize(n);
    mask.resize(n);
    table.resize(table_size);
    for (auto& x : a) x = rng.in_range(-1000000, 1000000);
    for (auto& x : b) x = rng.in_range(-1000000, 1000000);
    for (auto& x : table) x = rng.in_range(-1000000, 1000000);
    // Heavy collisions: ~n lanes over n/2 addresses.
    for (auto& x : idx) {
      x = rng.in_range(0, static_cast<Word>(table_size) - 1);
    }
    for (auto& x : vals) x = rng.in_range(-1000000, 1000000);
    for (auto& x : mask) x = static_cast<std::uint8_t>(rng.below(3) != 0);
  }
};

/// Runs every primitive once on `m` and returns a flat digest of all
/// results plus the final memory image.
WordVec run_script(VectorMachine& m, const Inputs& in) {
  const std::size_t n = in.a.size();
  WordVec digest;
  const auto emit = [&digest](const WordVec& v) {
    digest.insert(digest.end(), v.begin(), v.end());
  };
  const auto emit_mask = [&digest](const Mask& v) {
    for (auto b : v) digest.push_back(b);
  };

  emit(m.iota(n, -5, 3));
  emit(m.splat(n, 42));
  emit(m.copy(in.a));
  emit(m.reverse(in.a));
  emit(m.add(in.a, in.b));
  emit(m.sub(in.a, in.b));
  emit(m.mul(in.a, in.b));
  emit(m.add_scalar(in.a, 17));
  emit(m.mul_scalar(in.a, -3));
  emit(m.div_scalar(in.a, 7));
  emit(m.mod_scalar(in.a, 7));
  emit(m.and_scalar(in.a, 0xff));
  emit(m.or_scalar(in.a, 0x10));
  emit(m.shr_scalar(in.a, 2));
  emit(m.negate(in.a));
  emit_mask(m.eq(in.a, in.b));
  emit_mask(m.ne(in.a, in.b));
  emit_mask(m.le(in.a, in.b));
  emit_mask(m.lt(in.a, in.b));
  emit_mask(m.eq_scalar(in.a, 0));
  emit_mask(m.ne_scalar(in.a, 0));
  emit_mask(m.le_scalar(in.a, 100));
  emit_mask(m.lt_scalar(in.a, 100));
  emit_mask(m.ge_scalar(in.a, 100));
  const Mask lt_mask = m.lt(in.a, in.b);
  emit_mask(m.mask_and(lt_mask, in.mask));
  emit_mask(m.mask_or(lt_mask, in.mask));
  emit_mask(m.mask_not(in.mask));
  digest.push_back(static_cast<Word>(m.count_true(in.mask)));
  digest.push_back(m.reduce_sum(in.a));
  if (n > 0) {
    digest.push_back(m.reduce_min(in.a));
    digest.push_back(m.reduce_max(in.a));
  }
  emit(m.compress(in.a, in.mask));
  emit(m.select(in.mask, in.a, in.b));
  emit(m.from_mask(in.mask));

  WordVec mem(in.table.begin(), in.table.end());
  const std::size_t head = std::min(mem.size(), in.vals.size());
  m.store(mem, 0,
          WordVec(in.vals.begin(),
                  in.vals.begin() + static_cast<std::ptrdiff_t>(head)));
  emit(m.load(mem, 0, mem.size()));
  if (!mem.empty()) {
    const std::size_t strided_n = (mem.size() + 1) / 2;
    emit(m.load_strided(mem, 0, 2, strided_n));
    m.store_strided(mem, 0, 2, in.a.empty()
                                   ? WordVec{}
                                   : WordVec(in.a.begin(),
                                             in.a.begin() +
                                                 static_cast<std::ptrdiff_t>(
                                                     strided_n)));
  }
  m.fill(mem, -7);
  emit(mem);

  emit(m.gather(in.table, in.idx));
  emit(m.gather_masked(in.table, in.idx, in.mask, -99));

  // Three consecutive ELS scatters: under kShuffled each draws a fresh
  // permutation from the machine RNG, so this also checks that the RNG
  // stream is consumed identically on both backends.
  WordVec target(in.table.begin(), in.table.end());
  m.scatter(target, in.idx, in.vals);
  emit(target);
  m.scatter(target, in.idx, in.a);
  emit(target);
  m.scatter_masked(target, in.idx, in.vals, in.mask);
  emit(target);
  m.scatter_ordered(target, in.idx, in.b);
  emit(target);
  return digest;
}

TEST(BackendDiffLargeTest, LargeVectorsSimdMatchesSerial) {
  const std::size_t n = 200000;
  const Inputs in(n, 0xabcde);
  VectorMachine serial = make_serial(ScatterOrder::kShuffled, 7);
  VectorMachine simd = make_simd(ScatterOrder::kShuffled, 7,
                                 MachineConfig::simd_level_default());
  const WordVec want = run_script(serial, in);
  const WordVec got = run_script(simd, in);
  ASSERT_EQ(want, got);
  expect_same_costs(serial.cost(), simd.cost());
}

// ---- telemetry determinism across backends ---------------------------------
//
// The metrics contract (telemetry/metrics.h): everything outside the "pool."
// and "backend." namespaces carries modeled quantities and must be
// bit-identical for the same program on either backend.
// The span timeline likewise: the same spans, in the same order, with the
// same chime deltas — only the wall timestamps differ.

VectorMachine make_telemetry_machine(BackendKind kind) {
  MachineConfig cfg;
  cfg.audit = false;
  cfg.backend = kind;
  return VectorMachine(cfg);
}

/// A workload touching every instrumented layer: raw machine ops, FOL1
/// rounds with duplicates, and multiple hashing with retries.
void telemetry_workload(VectorMachine& m) {
  const WordVec targets = random_keys(1000, 100, 0x7e1e);
  WordVec work(100, 0);
  fol::fol1_decompose(m, targets, work);

  const WordVec keys = random_unique_keys(500, 1 << 20, 0x7e1f);
  WordVec table(1031, hashing::kUnentered);
  hashing::multi_hash_open_insert(m, table, keys,
                                  hashing::ProbeVariant::kKeyDependent);

  const WordVec a = m.iota(4096);
  m.reduce_sum(m.mul_scalar(a, 3));
}

telemetry::MetricsSnapshot run_with_metrics(BackendKind kind) {
  telemetry::MetricsRegistry registry;
  const telemetry::ScopedMetrics scoped(registry);
  {
    // The machine flushes its per-op-class totals on destruction, so the
    // snapshot is taken after this scope closes.
    VectorMachine m = make_telemetry_machine(kind);
    telemetry_workload(m);
  }
  return registry.snapshot();
}

/// The backend-invariant part of a trace: span and op event names,
/// categories, and chime payloads, in emission order — everything but the
/// wall clock. Host-side decoration (thread metadata, "counter" samples) is
/// excluded by construction: it describes how the host ran the work, not
/// what the program computed.
std::string span_tree_signature(BackendKind kind) {
  telemetry::SpanTracer tracer;
  {
    const telemetry::ScopedTracer scoped(tracer);
    VectorMachine m = make_telemetry_machine(kind);
    telemetry_workload(m);
  }
  std::ostringstream os;
  tracer.write_chrome_trace(os);
  const JsonValue doc = JsonValue::parse(os.str());
  std::string sig;
  for (const JsonValue& ev : doc.find("traceEvents")->as_array()) {
    const JsonValue* cat = ev.find("cat");
    if (cat == nullptr ||
        (cat->as_string() != "span" && cat->as_string() != "op")) {
      continue;
    }
    sig += ev.find("name")->as_string();
    sig += '|';
    sig += cat->as_string();
    if (const JsonValue* args = ev.find("args")) {
      for (const char* key :
           {"elements", "chime_instructions", "chime_elements"}) {
        if (const JsonValue* v = args->find(key)) {
          sig += '|';
          sig += std::to_string(static_cast<std::uint64_t>(v->as_number()));
        }
      }
    }
    sig += '\n';
  }
  return sig;
}

TEST(TelemetryDeterminismTest, MetricsIdenticalAcrossBackends) {
  const telemetry::MetricsSnapshot serial =
      run_with_metrics(BackendKind::kSerial).deterministic();
  ASSERT_FALSE(serial.counters.empty());
  ASSERT_FALSE(serial.histograms.empty());
  EXPECT_TRUE(serial.counters.contains("fol1.rounds"));
  EXPECT_TRUE(serial.counters.contains("hashing.retry_rounds"));
  const telemetry::MetricsSnapshot simd =
      run_with_metrics(BackendKind::kSimd).deterministic();
  EXPECT_EQ(serial.to_text(), simd.to_text());
  EXPECT_TRUE(serial == simd);
}

TEST(TelemetryDeterminismTest, FullSnapshotSeparatesHostOnlyNamespaces) {
  // The raw (non-deterministic view) SIMD snapshot is allowed to differ
  // from serial ONLY via timings, labels, and the pool./backend. namespaces.
  const telemetry::MetricsSnapshot serial =
      run_with_metrics(BackendKind::kSerial);
  const telemetry::MetricsSnapshot simd = run_with_metrics(BackendKind::kSimd);
  EXPECT_EQ(simd.labels.at("backend.name"), "simd");
  EXPECT_EQ(serial.labels.at("backend.name"), "serial");
  for (const auto& [name, value] : simd.counters) {
    if (name.starts_with("pool.") || name.starts_with("backend.")) continue;
    ASSERT_TRUE(serial.counters.contains(name)) << name;
    EXPECT_EQ(serial.counters.at(name), value) << name;
  }
}

TEST(TelemetryDeterminismTest, SpanTreesIdenticalAcrossBackends) {
  const std::string serial = span_tree_signature(BackendKind::kSerial);
  ASSERT_FALSE(serial.empty());
  EXPECT_NE(serial.find("fol1.decompose|span"), std::string::npos);
  EXPECT_NE(serial.find("hashing.multi_insert|span"), std::string::npos);
  EXPECT_EQ(serial, span_tree_signature(BackendKind::kSimd));
}

// ---- fused vs unfused differential fuzz ------------------------------------
//
// The fused scatter_gather_eq / partition kernels are an optimization, not a
// semantics change: for every ScatterOrder, the serial backend and the SIMD
// backend at every ISA level, and audit on or off, a machine with
// config.fuse=true must produce
// bit-identical outputs and memory images to the same machine running the
// unfused reference composition (FOLVEC_FUSE=0). Chimes are NOT compared
// across fuse modes — charging fused ops less is the point — but they must
// be identical across backends and audit settings for a fixed fuse mode.

/// Machine whose fuse flag is forced rather than inherited from the env.
MachineConfig fused_config(ScatterOrder order, BackendKind backend,
                           bool audit, bool fuse) {
  MachineConfig cfg;
  cfg.scatter_order = order;
  cfg.shuffle_seed = 4242;
  cfg.audit = audit;
  cfg.fuse = fuse;
  cfg.backend = backend;
  return cfg;
}

VectorMachine make_fused_machine(ScatterOrder order, BackendKind backend,
                                 bool audit, bool fuse) {
  return VectorMachine(fused_config(order, backend, audit, fuse));
}

/// Exercises the fused entry points plus their pooled *_into variants and
/// one full FOL1 decomposition; returns a flat digest of every result and
/// final memory image. Scatters sit inside ConflictWindows so the script is
/// audit-clean.
WordVec run_fused_script(VectorMachine& m, const Inputs& in) {
  const std::size_t n = in.a.size();
  WordVec digest;
  const auto emit = [&digest](const WordVec& v) {
    digest.insert(digest.end(), v.begin(), v.end());
  };
  const auto emit_mask = [&digest](const Mask& v) {
    for (auto b : v) digest.push_back(b);
  };

  // Distinct per-lane values, so a lane's readback matches only its own
  // write (the overwrite-and-check precondition).
  const WordVec labels = m.iota(n, 1, 3);

  WordVec table(in.table.begin(), in.table.end());
  {
    const ConflictWindow window(m, table, WindowKind::kDataRace,
                                "fused fuzz sge");
    const Mask survived = m.scatter_gather_eq(table, in.idx, labels);
    digest.push_back(static_cast<Word>(m.count_true(survived)));
    emit_mask(survived);
  }
  emit(table);

  WordVec table_masked(in.table.begin(), in.table.end());
  {
    const ConflictWindow window(m, table_masked, WindowKind::kDataRace,
                                "fused fuzz sge_masked");
    const Mask survived =
        m.scatter_gather_eq_masked(table_masked, in.idx, labels, in.mask);
    digest.push_back(static_cast<Word>(m.count_true(survived)));
    emit_mask(survived);
  }
  emit(table_masked);

  const auto [kept, rejected] = m.partition(in.a, in.mask);
  emit(kept);
  emit(rejected);

  WordVec kept2;
  WordVec rejected2;
  digest.push_back(
      static_cast<Word>(m.partition_into(kept2, rejected2, in.b, in.mask)));
  emit(kept2);
  emit(rejected2);

  // Pooled destination-passing round trip.
  PooledVec buf(m.pool(), 0);
  PooledVec buf2(m.pool(), 0);
  m.gather_into(*buf, in.table, in.idx);
  emit(*buf);
  m.add_scalar_into(*buf2, *buf, 11);
  emit(*buf2);
  m.compress_into(*buf, in.a, in.mask);
  emit(*buf);

  // Algorithm level: a duplicate-heavy FOL1 decomposition runs the fused
  // round loop end to end (or its unfused reference under fuse=false).
  if (n > 0) {
    WordVec work(in.table.size(), 0);
    WordVec fol_idx(in.idx.begin(), in.idx.end());
    const fol::Decomposition dec = fol::fol1_decompose(m, fol_idx, work);
    m.retire_work(work);
    digest.push_back(static_cast<Word>(dec.rounds()));
    for (const auto& set : dec.sets) {
      for (const std::size_t lane : set) {
        digest.push_back(static_cast<Word>(lane));
      }
    }
  }
  return digest;
}

/// The execution engine a FusedDiffTest instance runs: the serial backend,
/// or the SIMD backend forced to one ISA level.
struct FusedEngine {
  BackendKind backend;
  SimdLevel level;
};

using FusedDiffParam = std::tuple<ScatterOrder, FusedEngine, bool>;

class FusedDiffTest : public ::testing::TestWithParam<FusedDiffParam> {
 protected:
  void SetUp() override {
    if (engine().backend == BackendKind::kSimd &&
        !simd_level_supported(engine().level)) {
      GTEST_SKIP() << simd_level_name(engine().level)
                   << " is not available on this host/build";
    }
  }
  ScatterOrder order() const { return std::get<0>(GetParam()); }
  FusedEngine engine() const { return std::get<1>(GetParam()); }
  bool audit() const { return std::get<2>(GetParam()); }

  VectorMachine make_machine(bool fuse) const {
    MachineConfig cfg = fused_config(order(), engine().backend, audit(), fuse);
    if (engine().backend == BackendKind::kSimd) cfg.simd_level = engine().level;
    return VectorMachine(cfg);
  }
};

TEST_P(FusedDiffTest, FusedBitIdenticalToUnfusedComposition) {
  for (const std::size_t n :
       {std::size_t{0}, std::size_t{1}, std::size_t{7}, std::size_t{64},
        std::size_t{257}, std::size_t{1000}}) {
    const Inputs in(n, 0xf05ed000 + n);
    VectorMachine fused = make_machine(/*fuse=*/true);
    VectorMachine unfused = make_machine(/*fuse=*/false);
    const WordVec want = run_fused_script(unfused, in);
    const WordVec got = run_fused_script(fused, in);
    ASSERT_EQ(want, got) << "fused digest diverged at n=" << n;
  }
}

TEST_P(FusedDiffTest, ChimesInvariantAcrossBackendAndAudit) {
  // For a fixed fuse mode the chime stream is part of the deterministic
  // contract: serial or SIMD at any level, audit on or off — identical.
  for (const bool fuse : {true, false}) {
    const Inputs in(513, 0xc41135);
    VectorMachine base =
        make_fused_machine(order(), BackendKind::kSerial, false, fuse);
    const WordVec base_digest = run_fused_script(base, in);
    VectorMachine other = make_machine(fuse);
    const WordVec other_digest = run_fused_script(other, in);
    ASSERT_EQ(base_digest, other_digest);
    expect_same_costs(base.cost(), other.cost());
  }
}

/// "Avx512" for SimdLevel::kAvx512: the level name with a capital initial,
/// for test instance names.
std::string level_param_name(SimdLevel level) {
  std::string name = simd_level_name(level);
  name[0] = static_cast<char>(std::toupper(name[0]));
  return name;
}

std::string fused_param_name(
    const ::testing::TestParamInfo<FusedDiffParam>& info) {
  static constexpr const char* kFusedOrderNames[] = {"Forward", "Reverse",
                                                     "Shuffled"};
  const FusedEngine engine = std::get<1>(info.param);
  return std::string(kFusedOrderNames[static_cast<std::size_t>(
             std::get<0>(info.param))]) +
         (engine.backend == BackendKind::kSimd
              ? "xSimd" + level_param_name(engine.level)
              : std::string("xSerial")) +
         (std::get<2>(info.param) ? "xAudit" : "xNoAudit");
}

INSTANTIATE_TEST_SUITE_P(
    AllConfigs, FusedDiffTest,
    ::testing::Combine(
        ::testing::Values(ScatterOrder::kForward, ScatterOrder::kReverse,
                          ScatterOrder::kShuffled),
        ::testing::Values(FusedEngine{BackendKind::kSerial, SimdLevel::kScalar},
                          FusedEngine{BackendKind::kSimd, SimdLevel::kScalar},
                          FusedEngine{BackendKind::kSimd, SimdLevel::kNeon},
                          FusedEngine{BackendKind::kSimd, SimdLevel::kAvx2},
                          FusedEngine{BackendKind::kSimd, SimdLevel::kAvx512}),
        ::testing::Bool()),
    fused_param_name);

// ---- SIMD backend differential fuzz ----------------------------------------
//
// The SIMD backend lowers the same primitives to real vector instructions
// (AVX2 / AVX-512 / NEON, per-level kernel tables): it must be bit-identical
// to SerialBackend for every primitive, every ScatterOrder, every forced ISA
// level, fuse on or off, audit on or off — same outputs, same memory images,
// same chime costs, same exceptions. Unsupported levels are skipped (the
// graceful-downgrade path is covered by simd_dispatch_test).

using SimdDiffParam = std::tuple<ScatterOrder, SimdLevel>;

std::string simd_param_name(
    const ::testing::TestParamInfo<SimdDiffParam>& info) {
  static constexpr const char* kOrderNames[] = {"Forward", "Reverse",
                                                "Shuffled"};
  return std::string(
             kOrderNames[static_cast<std::size_t>(std::get<0>(info.param))]) +
         "x" + level_param_name(std::get<1>(info.param));
}

class SimdDiffTest : public ::testing::TestWithParam<SimdDiffParam> {
 protected:
  void SetUp() override {
    if (!simd_level_supported(level())) {
      GTEST_SKIP() << simd_level_name(level())
                   << " is not available on this host/build";
    }
  }
  ScatterOrder order() const { return std::get<0>(GetParam()); }
  SimdLevel level() const { return std::get<1>(GetParam()); }
};

TEST_P(SimdDiffTest, EveryPrimitiveBitIdenticalWithIdenticalChimes) {
  for (const std::size_t n :
       {std::size_t{0}, std::size_t{1}, std::size_t{7}, std::size_t{64},
        std::size_t{257}, std::size_t{1000}, std::size_t{4099}}) {
    const Inputs in(n, 0xfeed0000 + n);
    VectorMachine serial = make_serial(order(), 99);
    VectorMachine simd = make_simd(order(), 99, level());
    ASSERT_STREQ(simd.backend_name(), "simd");
    ASSERT_EQ(simd.active_simd_level(), level());
    const WordVec want = run_script(serial, in);
    const WordVec got = run_script(simd, in);
    ASSERT_EQ(want, got) << "digest diverged at n=" << n;
    expect_same_costs(serial.cost(), simd.cost());
    // Vector instructions actually dispatched through the kernel table.
    EXPECT_GT(simd.simd_dispatches(), 0u);
    EXPECT_EQ(serial.simd_dispatches(), 0u);
  }
}

TEST_P(SimdDiffTest, FusedBitIdenticalAcrossFuseAndAudit) {
  for (const bool audit : {false, true}) {
    for (const bool fuse : {true, false}) {
      const Inputs in(513, 0x51a3d000u + (audit ? 2u : 0u) + (fuse ? 1u : 0u));
      MachineConfig serial_cfg;
      serial_cfg.scatter_order = order();
      serial_cfg.shuffle_seed = 4242;
      serial_cfg.audit = audit;
      serial_cfg.fuse = fuse;
      serial_cfg.backend = BackendKind::kSerial;
      MachineConfig simd_cfg = serial_cfg;
      simd_cfg.backend = BackendKind::kSimd;
      simd_cfg.simd_level = level();
      VectorMachine serial(serial_cfg);
      VectorMachine simd(simd_cfg);
      // The audited machine stays vectorized: the kernels run on the
      // issuing thread, bit-identical to serial.
      ASSERT_STREQ(simd.backend_name(), "simd");
      const WordVec want = run_fused_script(serial, in);
      const WordVec got = run_fused_script(simd, in);
      ASSERT_EQ(want, got) << "audit=" << audit << " fuse=" << fuse;
      expect_same_costs(serial.cost(), simd.cost());
    }
  }
}

TEST_P(SimdDiffTest, ScatterSurvivorLaneExactUnderHeavyCollisions) {
  // Heavy duplicate addresses: the AVX-512 hardware scatter's overlapping-
  // store order (and every fallback) must reproduce the serial ELS survivor.
  Xoshiro256 rng(0x51a3dc7);
  for (int round = 0; round < 40; ++round) {
    const auto n = static_cast<std::size_t>(rng.in_range(1, 600));
    const auto table_size =
        static_cast<std::size_t>(rng.in_range(1, static_cast<Word>(n)));
    WordVec table_s(table_size, 0);
    WordVec idx(n);
    WordVec vals(n);
    for (auto& x : idx) {
      x = rng.in_range(0, static_cast<Word>(table_size) - 1);
    }
    for (auto& x : vals) x = rng.in_range(-1 << 20, 1 << 20);
    WordVec table_v = table_s;
    const auto seed = static_cast<std::uint64_t>(round) * 7919 + 1;
    VectorMachine serial = make_serial(order(), seed);
    VectorMachine simd = make_simd(order(), seed, level());
    serial.scatter(table_s, idx, vals);
    simd.scatter(table_v, idx, vals);
    ASSERT_EQ(table_s, table_v)
        << "scatter survivor diverged: n=" << n << " areas=" << table_size;
  }
}

TEST_P(SimdDiffTest, ExceptionParityWithSerial) {
  VectorMachine serial = make_serial(order(), 5);
  VectorMachine simd = make_simd(order(), 5, level());
  WordVec v(300, 1);
  v[257] = -4;
  EXPECT_THROW(serial.shl_scalar(v, 1), PreconditionError);
  EXPECT_THROW(simd.shl_scalar(v, 1), PreconditionError);
  WordVec table(16, 0);
  WordVec idx(300, 3);
  idx[170] = 99;
  EXPECT_THROW(serial.gather(table, idx), PreconditionError);
  EXPECT_THROW(simd.gather(table, idx), PreconditionError);
  const WordVec vals(300, 1);
  EXPECT_THROW(serial.scatter(table, idx, vals), PreconditionError);
  EXPECT_THROW(simd.scatter(table, idx, vals), PreconditionError);
  // Inactive out-of-bounds lanes are legal on both (the masked gather
  // kernel must not touch memory for inactive lanes).
  Mask mask(300, 1);
  mask[170] = 0;
  EXPECT_EQ(serial.gather_masked(table, idx, mask, -1),
            simd.gather_masked(table, idx, mask, -1));
  WordVec table_s = table;
  WordVec table_v = table;
  serial.scatter_masked(table_s, idx, vals, mask);
  simd.scatter_masked(table_v, idx, vals, mask);
  EXPECT_EQ(table_s, table_v);
}

TEST_P(SimdDiffTest, DivModScalarAdversarialValues) {
  // The div_s/mod_s kernels replace the hardware-less 64-bit divide with a
  // magic multiply; the magic pair and the floor/Euclid fixups must hold at
  // the extremes, for power-of-two divisors, and for the composite table
  // sizes the hashing probe recalc actually feeds them.
  WordVec values{0,
                 1,
                 -1,
                 2,
                 -2,
                 66,
                 -66,
                 67,
                 -67,
                 135,
                 -135,
                 (Word{1} << 62) - 1,
                 -((Word{1} << 62) - 1),
                 std::numeric_limits<Word>::max(),
                 std::numeric_limits<Word>::min(),
                 std::numeric_limits<Word>::min() + 1};
  Xoshiro256 rng(0xd1f0d1f0);
  while (values.size() < 300) {
    values.push_back(static_cast<Word>(rng.next()));
  }
  for (const Word d :
       {Word{1}, Word{2}, Word{3}, Word{7}, Word{31}, Word{64}, Word{67},
        Word{135}, Word{4096}, Word{999983}, (Word{1} << 62) + 1}) {
    VectorMachine serial = make_serial(order(), 7);
    VectorMachine simd = make_simd(order(), 7, level());
    const WordVec q_want = serial.div_scalar(values, d);
    const WordVec q_got = simd.div_scalar(values, d);
    const WordVec r_want = serial.mod_scalar(values, d);
    const WordVec r_got = simd.mod_scalar(values, d);
    for (std::size_t i = 0; i < values.size(); ++i) {
      ASSERT_EQ(q_want[i], q_got[i]) << "div " << values[i] << " / " << d;
      ASSERT_EQ(r_want[i], r_got[i]) << "mod " << values[i] << " % " << d;
      // Floor/Euclid invariants against first principles.
      ASSERT_GE(r_want[i], 0) << values[i] << " % " << d;
      ASSERT_LT(r_want[i], d) << values[i] << " % " << d;
    }
  }
}

TEST_P(SimdDiffTest, BackendScatterMatchesReferenceForEveryTraversal) {
  // The backend entry point directly, masked and unmasked, under all three
  // traversals (kExplicit is what ScatterOrder::kShuffled issues).
  SimdBackend simd(simd_kernels_for(level()));
  Xoshiro256 rng(0x5ca77e2);
  for (int round = 0; round < 50; ++round) {
    const auto n = static_cast<std::size_t>(rng.in_range(1, 1200));
    const auto table_size =
        static_cast<std::size_t>(rng.in_range(1, static_cast<Word>(n)));
    WordVec idx(n);
    WordVec vals(n);
    for (auto& x : idx) {
      x = rng.in_range(0, static_cast<Word>(table_size) - 1);
    }
    for (auto& x : vals) x = rng.in_range(-100000, 100000);
    std::vector<std::uint8_t> mask(n);
    for (auto& b : mask) b = static_cast<std::uint8_t>(rng.below(4) != 0);
    const std::uint8_t* m = round % 2 == 0 ? mask.data() : nullptr;
    std::vector<std::size_t> order;
    for (const ScatterTraversal traversal :
         {ScatterTraversal::kForward, ScatterTraversal::kReverse,
          ScatterTraversal::kExplicit}) {
      order.clear();
      if (traversal == ScatterTraversal::kExplicit) {
        order.resize(n);
        for (std::size_t i = 0; i < n; ++i) order[i] = i;
        shuffle(order, rng);
      }
      WordVec want(table_size, -1);
      apply_scatter_reference(want, idx, vals, m, traversal, order);
      WordVec got(table_size, -1);
      simd.scatter(got, idx, vals, m, traversal, order);
      ASSERT_EQ(want, got) << "n=" << n << " areas=" << table_size
                           << " traversal=" << static_cast<int>(traversal);
    }
  }
}

TEST_P(SimdDiffTest, FirstOobReturnsTheFirstActiveHit) {
  // check_indices only tests for npos, but the backend contract is the
  // lowest offending lane: negative and too-large indices, masked lanes
  // exempt.
  SerialBackend serial;
  SimdBackend simd(simd_kernels_for(level()));
  Xoshiro256 rng(0xf00b);
  for (int round = 0; round < 60; ++round) {
    const auto n = static_cast<std::size_t>(rng.in_range(1, 5000));
    WordVec idx(n);
    for (auto& x : idx) x = rng.in_range(0, 127);
    const int oob_lanes = static_cast<int>(rng.below(4));
    for (int k = 0; k < oob_lanes; ++k) {
      const auto pos =
          static_cast<std::size_t>(rng.below(static_cast<std::uint64_t>(n)));
      idx[pos] = (k % 2 == 0) ? 128 + rng.in_range(0, 100) : -1;
    }
    ASSERT_EQ(simd.first_oob(idx, 128, nullptr),
              serial.first_oob(idx, 128, nullptr))
        << "n=" << n;
  }
  WordVec idx(4096, 1);
  std::vector<std::uint8_t> mask(idx.size(), 1);
  idx[100] = 500;  // masked off: not a hit
  mask[100] = 0;
  idx[3000] = 600;  // active: the hit
  EXPECT_EQ(serial.first_oob(idx, 256, mask.data()), 3000u);
  EXPECT_EQ(simd.first_oob(idx, 256, mask.data()), 3000u);
  EXPECT_EQ(simd.first_oob(idx, 256, nullptr), 100u);
}

INSTANTIATE_TEST_SUITE_P(
    AllOrdersAllLevels, SimdDiffTest,
    ::testing::Combine(::testing::Values(ScatterOrder::kForward,
                                         ScatterOrder::kReverse,
                                         ScatterOrder::kShuffled),
                       ::testing::Values(SimdLevel::kScalar, SimdLevel::kNeon,
                                         SimdLevel::kAvx2,
                                         SimdLevel::kAvx512)),
    simd_param_name);

TEST(SimdMixedLevelTest, AllSupportedLevelsProduceOneDigest) {
  // Mixed-level differential fuzz: every supported ISA level (and the
  // scalar table) must produce the same digest for the same script — not
  // just each level vs serial, but every pair, including fused scripts.
  std::vector<SimdLevel> levels;
  for (const SimdLevel level :
       {SimdLevel::kScalar, SimdLevel::kNeon, SimdLevel::kAvx2,
        SimdLevel::kAvx512}) {
    if (simd_level_supported(level)) levels.push_back(level);
  }
  ASSERT_FALSE(levels.empty());
  for (const ScatterOrder order :
       {ScatterOrder::kForward, ScatterOrder::kReverse,
        ScatterOrder::kShuffled}) {
    for (const std::size_t n : {std::size_t{65}, std::size_t{1000}}) {
      const Inputs in(n, 0x3113d000 + n);
      std::vector<WordVec> digests;
      std::vector<WordVec> fused_digests;
      for (const SimdLevel level : levels) {
        VectorMachine m = make_simd(order, 99, level);
        digests.push_back(run_script(m, in));
        MachineConfig cfg;
        cfg.scatter_order = order;
        cfg.shuffle_seed = 4242;
        cfg.audit = false;
        cfg.fuse = true;
        cfg.backend = BackendKind::kSimd;
        cfg.simd_level = level;
        VectorMachine fm(cfg);
        fused_digests.push_back(run_fused_script(fm, in));
      }
      for (std::size_t i = 1; i < levels.size(); ++i) {
        EXPECT_EQ(digests[0], digests[i])
            << simd_level_name(levels[0]) << " vs "
            << simd_level_name(levels[i]) << " at n=" << n;
        EXPECT_EQ(fused_digests[0], fused_digests[i])
            << "fused " << simd_level_name(levels[0]) << " vs "
            << simd_level_name(levels[i]) << " at n=" << n;
      }
    }
  }
}

// ---- vector-length tail fuzz -----------------------------------------------
//
// Every SIMD kernel runs a main loop over whole registers (2 words on NEON,
// 4 on AVX2, 8 on AVX-512; 16, 32 or 64 mask bytes for the mask kernels)
// and finishes the remaining lanes in a tail. These lengths sit on both
// sides of each of those boundaries, so each tail path of each kernel is
// checked against the serial reference: the full primitive script, the
// fused script in either fuse and audit mode, and the fault raised by an
// out-of-bounds lane that falls in the tail.

using TailDiffParam = std::tuple<SimdLevel, std::size_t>;

class TailLengthDiffTest : public ::testing::TestWithParam<TailDiffParam> {
 protected:
  void SetUp() override {
    if (!simd_level_supported(level())) {
      GTEST_SKIP() << simd_level_name(level())
                   << " is not available on this host/build";
    }
  }
  SimdLevel level() const { return std::get<0>(GetParam()); }
  std::size_t n() const { return std::get<1>(GetParam()); }
};

constexpr ScatterOrder kAllOrders[] = {
    ScatterOrder::kForward, ScatterOrder::kReverse, ScatterOrder::kShuffled};

TEST_P(TailLengthDiffTest, FullScriptBitIdenticalToSerial) {
  const Inputs in(n(), 0x7a11d000 + n());
  for (const ScatterOrder order : kAllOrders) {
    VectorMachine serial = make_serial(order, 99);
    VectorMachine simd = make_simd(order, 99, level());
    const WordVec want = run_script(serial, in);
    const WordVec got = run_script(simd, in);
    ASSERT_EQ(want, got) << "order=" << static_cast<int>(order);
    expect_same_costs(serial.cost(), simd.cost());
  }
}

TEST_P(TailLengthDiffTest, FusedScriptBitIdenticalToSerial) {
  const Inputs in(n(), 0x7a11f000 + n());
  for (const ScatterOrder order : kAllOrders) {
    for (const bool audit : {false, true}) {
      for (const bool fuse : {true, false}) {
        const MachineConfig serial_cfg =
            fused_config(order, BackendKind::kSerial, audit, fuse);
        MachineConfig simd_cfg =
            fused_config(order, BackendKind::kSimd, audit, fuse);
        simd_cfg.simd_level = level();
        VectorMachine serial(serial_cfg);
        VectorMachine simd(simd_cfg);
        const WordVec want = run_fused_script(serial, in);
        const WordVec got = run_fused_script(simd, in);
        ASSERT_EQ(want, got) << "order=" << static_cast<int>(order)
                             << " audit=" << audit << " fuse=" << fuse;
        expect_same_costs(serial.cost(), simd.cost());
      }
    }
  }
}

TEST_P(TailLengthDiffTest, OutOfBoundsLaneFaultsLikeSerial) {
  // One bad lane at a time — the last lane (always in the tail), the middle
  // lane, lane 0 — then all three at once: both backends name the same
  // lowest offending lane, both throw on the active bad lane, and both let
  // a masked-off bad lane through with identical results.
  const std::size_t len = n();
  SerialBackend serial_backend;
  SimdBackend simd_backend(simd_kernels_for(level()));
  const WordVec table(16, 5);
  const WordVec vals(len, 1);
  const std::vector<std::vector<std::size_t>> bad_sets = {
      {len - 1}, {len / 2}, {0}, {0, len / 2, len - 1}};
  for (const std::vector<std::size_t>& bad : bad_sets) {
    WordVec idx(len);
    for (std::size_t i = 0; i < len; ++i) {
      idx[i] = static_cast<Word>(i % table.size());
    }
    for (const std::size_t lane : bad) {
      idx[lane] = lane % 2 == 0 ? Word{16} : Word{-1};
    }
    const std::size_t first = *std::min_element(bad.begin(), bad.end());
    EXPECT_EQ(serial_backend.first_oob(idx, table.size(), nullptr), first);
    EXPECT_EQ(simd_backend.first_oob(idx, table.size(), nullptr), first);

    VectorMachine serial = make_serial(ScatterOrder::kForward, 3);
    VectorMachine simd = make_simd(ScatterOrder::kForward, 3, level());
    EXPECT_THROW(serial.gather(table, idx), PreconditionError);
    EXPECT_THROW(simd.gather(table, idx), PreconditionError);
    WordVec table_s = table;
    WordVec table_v = table;
    EXPECT_THROW(serial.scatter(table_s, idx, vals), PreconditionError);
    EXPECT_THROW(simd.scatter(table_v, idx, vals), PreconditionError);
    EXPECT_EQ(table_s, table_v);

    Mask mask(len, 1);
    for (const std::size_t lane : bad) mask[lane] = 0;
    EXPECT_EQ(serial_backend.first_oob(idx, table.size(), mask.bytes().data()),
              Backend::npos);
    EXPECT_EQ(simd_backend.first_oob(idx, table.size(), mask.bytes().data()),
              Backend::npos);
    EXPECT_EQ(serial.gather_masked(table, idx, mask, -1),
              simd.gather_masked(table, idx, mask, -1));
    serial.scatter_masked(table_s, idx, vals, mask);
    simd.scatter_masked(table_v, idx, vals, mask);
    EXPECT_EQ(table_s, table_v);
  }
}

std::string tail_param_name(
    const ::testing::TestParamInfo<TailDiffParam>& info) {
  return level_param_name(std::get<0>(info.param)) + "xN" +
         std::to_string(std::get<1>(info.param));
}

INSTANTIATE_TEST_SUITE_P(
    AllLevelsTailLengths, TailLengthDiffTest,
    ::testing::Combine(
        ::testing::Values(SimdLevel::kScalar, SimdLevel::kNeon,
                          SimdLevel::kAvx2, SimdLevel::kAvx512),
        ::testing::Values(std::size_t{3}, std::size_t{4}, std::size_t{5},
                          std::size_t{7}, std::size_t{8}, std::size_t{9},
                          std::size_t{15}, std::size_t{16}, std::size_t{17},
                          std::size_t{31}, std::size_t{32}, std::size_t{33},
                          std::size_t{63}, std::size_t{64}, std::size_t{65},
                          std::size_t{77}, std::size_t{127}, std::size_t{128},
                          std::size_t{129}, std::size_t{255})),
    tail_param_name);

TEST(FusedDiffEdgeTest, MaskedSgeFaultsLikeCompositionWithScatterApplied) {
  // An out-of-bounds INACTIVE lane: the masked scatter skips it, but the
  // fused op's readback gathers all lanes, so it must throw exactly like
  // the unfused composition does at its gather — i.e. with the scatter's
  // stores already landed.
  for (const bool fuse : {true, false}) {
    VectorMachine m = make_fused_machine(ScatterOrder::kForward,
                                         BackendKind::kSerial,
                                         /*audit=*/false, fuse);
    WordVec table(16, -1);
    WordVec idx{3, 99, 5};
    const WordVec vals{10, 11, 12};
    Mask active{1, 0, 1};
    EXPECT_THROW(m.scatter_gather_eq_masked(table, idx, vals, active),
                 PreconditionError);
    EXPECT_EQ(table[3], 10);
    EXPECT_EQ(table[5], 12);
  }
}

}  // namespace
}  // namespace folvec::vm
