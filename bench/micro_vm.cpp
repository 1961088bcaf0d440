// Host wall-clock micro-benchmarks (google-benchmark) of the machine
// primitives and the end-to-end kernels.
//
// These measure the *simulator's* throughput on the host, not the modeled
// S-810 times the figure/table benches report — useful for keeping the
// substrate itself fast and for spotting accidental complexity regressions
// (e.g. the O(N^2) all-duplicates FOL1 case shows up directly here too).
#include <benchmark/benchmark.h>

#include <algorithm>
#include <chrono>

#include "bench_harness/report.h"
#include "fol/fol1.h"
#include "hashing/hash_map.h"
#include "hashing/open_table.h"
#include "sorting/address_calc.h"
#include "sorting/dist_count.h"
#include "support/env.h"
#include "support/prng.h"
#include "support/require.h"
#include "telemetry/metrics.h"
#include "telemetry/profile.h"
#include "telemetry/spans.h"
#include "tree/bst.h"
#include "vm/checker.h"
#include "vm/machine.h"
#include "vm/simd_backend.h"

namespace {

using folvec::random_keys;
using folvec::random_unique_keys;
using folvec::vm::VectorMachine;
using folvec::vm::Word;
using folvec::vm::WordVec;

void BM_MachineGather(benchmark::State& state) {
  const auto n = static_cast<std::size_t>(state.range(0));
  VectorMachine m;
  const WordVec table = m.iota(n);
  const WordVec idx = random_keys(n, static_cast<Word>(n), 1);
  for (auto _ : state) {
    benchmark::DoNotOptimize(m.gather(table, idx));
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(n));
}
BENCHMARK(BM_MachineGather)->Arg(1 << 10)->Arg(1 << 14);

void BM_MachineScatter(benchmark::State& state) {
  const auto n = static_cast<std::size_t>(state.range(0));
  VectorMachine m;
  WordVec table(n, 0);
  const WordVec idx = random_keys(n, static_cast<Word>(n), 2);
  const WordVec vals = m.iota(n);
  // Random indices collide on purpose: this measures the raw primitive.
  // The window sanctions the duplicates so the bench also runs (and shows
  // the checker's overhead) under FOLVEC_AUDIT=1.
  const folvec::vm::ConflictWindow window(
      m, table, folvec::vm::WindowKind::kDataRace, "scatter microbench");
  for (auto _ : state) {
    m.scatter(table, idx, vals);
    benchmark::DoNotOptimize(table.data());
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(n));
}
BENCHMARK(BM_MachineScatter)->Arg(1 << 10)->Arg(1 << 14);

void BM_MachineScatterGatherEq(benchmark::State& state) {
  // The fused FOL kernel: scatter distinct labels, gather the readback,
  // compare — one pass over the lanes instead of three. Random indices
  // collide on purpose (that is the workload the kernel exists for); the
  // window sanctions the duplicates under FOLVEC_AUDIT=1.
  const auto n = static_cast<std::size_t>(state.range(0));
  VectorMachine m;
  WordVec table(n, -1);
  const WordVec idx = random_keys(n, static_cast<Word>(n), 11);
  const WordVec labels = m.iota(n);
  const folvec::vm::ConflictWindow window(
      m, table, folvec::vm::WindowKind::kDataRace, "sge microbench");
  for (auto _ : state) {
    benchmark::DoNotOptimize(m.scatter_gather_eq(table, idx, labels));
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(n));
}
BENCHMARK(BM_MachineScatterGatherEq)->Arg(1 << 10)->Arg(1 << 14);

void BM_MachinePartition(benchmark::State& state) {
  // The fused kept/rejected split that replaces compress(v, m) +
  // compress(v, !m) in the round loops.
  const auto n = static_cast<std::size_t>(state.range(0));
  VectorMachine m;
  const WordVec v = m.iota(n);
  const auto mask_words = random_keys(n, 2, 12);
  folvec::vm::Mask mask(n);
  for (std::size_t i = 0; i < n; ++i) {
    mask[i] = static_cast<std::uint8_t>(mask_words[i]);
  }
  WordVec kept(n);
  WordVec rejected(n);
  for (auto _ : state) {
    m.partition_into(kept, rejected, v, mask);
    benchmark::DoNotOptimize(kept.data());
    benchmark::DoNotOptimize(rejected.data());
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(n));
}
BENCHMARK(BM_MachinePartition)->Arg(1 << 14);

void BM_MachineCompress(benchmark::State& state) {
  const auto n = static_cast<std::size_t>(state.range(0));
  VectorMachine m;
  const WordVec v = m.iota(n);
  const auto mask_words = random_keys(n, 2, 3);
  folvec::vm::Mask mask(n);
  for (std::size_t i = 0; i < n; ++i) {
    mask[i] = static_cast<std::uint8_t>(mask_words[i]);
  }
  for (auto _ : state) {
    benchmark::DoNotOptimize(m.compress(v, mask));
  }
}
BENCHMARK(BM_MachineCompress)->Arg(1 << 14);

// ---- per-instruction simd-vs-serial rows -----------------------------------
//
// Each SIMD-lowered primitive benched twice on identical inputs: once on the
// serial backend, once on the SIMD backend (runtime-dispatched to the best
// ISA the host offers, or forced via FOLVEC_SIMD_LEVEL). Rows pair up as
// BM_Prim*/serial/N vs BM_Prim*/simd/N; the ratio is the host-side speedup
// of the intrinsics lane loops over the scalar lane loops for that one
// instruction, free of any algorithm-level effects.

using folvec::vm::BackendKind;

VectorMachine backend_machine(BackendKind kind) {
  folvec::vm::MachineConfig cfg;
  cfg.backend = kind;
  return VectorMachine(cfg);
}

void BM_PrimAdd(benchmark::State& state, BackendKind kind) {
  const auto n = static_cast<std::size_t>(state.range(0));
  VectorMachine m = backend_machine(kind);
  const WordVec a = random_keys(n, 1 << 20, 31);
  const WordVec b = random_keys(n, 1 << 20, 32);
  WordVec out;
  for (auto _ : state) {
    m.add_into(out, a, b);
    benchmark::DoNotOptimize(out.data());
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(n));
}
BENCHMARK_CAPTURE(BM_PrimAdd, serial, BackendKind::kSerial)->Arg(1 << 14);
BENCHMARK_CAPTURE(BM_PrimAdd, simd, BackendKind::kSimd)->Arg(1 << 14);

void BM_PrimAddScalar(benchmark::State& state, BackendKind kind) {
  const auto n = static_cast<std::size_t>(state.range(0));
  VectorMachine m = backend_machine(kind);
  const WordVec a = random_keys(n, 1 << 20, 33);
  WordVec out;
  for (auto _ : state) {
    m.add_scalar_into(out, a, 7);
    benchmark::DoNotOptimize(out.data());
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(n));
}
BENCHMARK_CAPTURE(BM_PrimAddScalar, serial, BackendKind::kSerial)
    ->Arg(1 << 14);
BENCHMARK_CAPTURE(BM_PrimAddScalar, simd, BackendKind::kSimd)->Arg(1 << 14);

void BM_PrimCmpLt(benchmark::State& state, BackendKind kind) {
  const auto n = static_cast<std::size_t>(state.range(0));
  VectorMachine m = backend_machine(kind);
  const WordVec a = random_keys(n, 1 << 20, 34);
  const WordVec b = random_keys(n, 1 << 20, 35);
  for (auto _ : state) {
    benchmark::DoNotOptimize(m.lt(a, b));
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(n));
}
BENCHMARK_CAPTURE(BM_PrimCmpLt, serial, BackendKind::kSerial)->Arg(1 << 14);
BENCHMARK_CAPTURE(BM_PrimCmpLt, simd, BackendKind::kSimd)->Arg(1 << 14);

void BM_PrimSelect(benchmark::State& state, BackendKind kind) {
  const auto n = static_cast<std::size_t>(state.range(0));
  VectorMachine m = backend_machine(kind);
  const WordVec a = random_keys(n, 1 << 20, 36);
  const WordVec b = random_keys(n, 1 << 20, 37);
  const auto mask_words = random_keys(n, 2, 38);
  folvec::vm::Mask mask(n);
  for (std::size_t i = 0; i < n; ++i) {
    mask[i] = static_cast<std::uint8_t>(mask_words[i]);
  }
  WordVec out;
  for (auto _ : state) {
    m.select_into(out, mask, a, b);
    benchmark::DoNotOptimize(out.data());
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(n));
}
BENCHMARK_CAPTURE(BM_PrimSelect, serial, BackendKind::kSerial)->Arg(1 << 14);
BENCHMARK_CAPTURE(BM_PrimSelect, simd, BackendKind::kSimd)->Arg(1 << 14);

void BM_PrimGather(benchmark::State& state, BackendKind kind) {
  const auto n = static_cast<std::size_t>(state.range(0));
  VectorMachine m = backend_machine(kind);
  const WordVec table = m.iota(n);
  const WordVec idx = random_keys(n, static_cast<Word>(n), 39);
  WordVec out;
  for (auto _ : state) {
    m.gather_into(out, table, idx);
    benchmark::DoNotOptimize(out.data());
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(n));
}
BENCHMARK_CAPTURE(BM_PrimGather, serial, BackendKind::kSerial)->Arg(1 << 14);
BENCHMARK_CAPTURE(BM_PrimGather, simd, BackendKind::kSimd)->Arg(1 << 14);

// Scatter rows take (lanes, table words). Besides the square 2^14 row, the
// 2^18-lane rows store into a 3*2^18-word table (6 MiB, past L2, where the
// SIMD kernels write-prefetch) and into a 2^10-word table (cache-resident,
// below the prefetch gate).
void scatter_args(benchmark::internal::Benchmark* b) {
  b->Args({1 << 14, 1 << 14})
      ->Args({1 << 18, 3 << 18})
      ->Args({1 << 18, 1 << 10});
}

void BM_PrimScatter(benchmark::State& state, BackendKind kind) {
  const auto n = static_cast<std::size_t>(state.range(0));
  const auto words = static_cast<std::size_t>(state.range(1));
  VectorMachine m = backend_machine(kind);
  WordVec table(words, 0);
  const WordVec idx = random_keys(n, static_cast<Word>(words), 40);
  const WordVec vals = m.iota(n);
  const folvec::vm::ConflictWindow window(
      m, table, folvec::vm::WindowKind::kDataRace, "simd scatter microbench");
  for (auto _ : state) {
    m.scatter(table, idx, vals);
    benchmark::DoNotOptimize(table.data());
    benchmark::ClobberMemory();
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(n));
}
BENCHMARK_CAPTURE(BM_PrimScatter, serial, BackendKind::kSerial)
    ->Apply(scatter_args);
BENCHMARK_CAPTURE(BM_PrimScatter, simd, BackendKind::kSimd)
    ->Apply(scatter_args);

void BM_PrimScatterGatherEq(benchmark::State& state, BackendKind kind) {
  const auto n = static_cast<std::size_t>(state.range(0));
  const auto words = static_cast<std::size_t>(state.range(1));
  VectorMachine m = backend_machine(kind);
  WordVec table(words, -1);
  const WordVec idx = random_keys(n, static_cast<Word>(words), 41);
  const WordVec labels = m.iota(n);
  const folvec::vm::ConflictWindow window(
      m, table, folvec::vm::WindowKind::kDataRace, "simd sge microbench");
  for (auto _ : state) {
    benchmark::DoNotOptimize(m.scatter_gather_eq(table, idx, labels));
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(n));
}
BENCHMARK_CAPTURE(BM_PrimScatterGatherEq, serial, BackendKind::kSerial)
    ->Apply(scatter_args);
BENCHMARK_CAPTURE(BM_PrimScatterGatherEq, simd, BackendKind::kSimd)
    ->Apply(scatter_args);

void BM_PrimCompress(benchmark::State& state, BackendKind kind) {
  const auto n = static_cast<std::size_t>(state.range(0));
  VectorMachine m = backend_machine(kind);
  const WordVec v = m.iota(n);
  const auto mask_words = random_keys(n, 2, 42);
  folvec::vm::Mask mask(n);
  for (std::size_t i = 0; i < n; ++i) {
    mask[i] = static_cast<std::uint8_t>(mask_words[i]);
  }
  WordVec out;
  for (auto _ : state) {
    m.compress_into(out, v, mask);
    benchmark::DoNotOptimize(out.data());
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(n));
}
BENCHMARK_CAPTURE(BM_PrimCompress, serial, BackendKind::kSerial)->Arg(1 << 14);
BENCHMARK_CAPTURE(BM_PrimCompress, simd, BackendKind::kSimd)->Arg(1 << 14);

void BM_PrimReduceSum(benchmark::State& state, BackendKind kind) {
  const auto n = static_cast<std::size_t>(state.range(0));
  VectorMachine m = backend_machine(kind);
  const WordVec v = random_keys(n, 1 << 20, 43);
  for (auto _ : state) {
    benchmark::DoNotOptimize(m.reduce_sum(v));
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(n));
}
BENCHMARK_CAPTURE(BM_PrimReduceSum, serial, BackendKind::kSerial)
    ->Arg(1 << 14);
BENCHMARK_CAPTURE(BM_PrimReduceSum, simd, BackendKind::kSimd)->Arg(1 << 14);

void BM_Fol1UniqueLanes(benchmark::State& state) {
  const auto n = static_cast<std::size_t>(state.range(0));
  WordVec targets(n);
  for (std::size_t i = 0; i < n; ++i) targets[i] = static_cast<Word>(i);
  WordVec work(n, 0);
  for (auto _ : state) {
    VectorMachine m;
    benchmark::DoNotOptimize(folvec::fol::fol1_decompose(m, targets, work));
  }
}
BENCHMARK(BM_Fol1UniqueLanes)->Arg(1 << 10)->Arg(1 << 14);

void BM_Fol1AllDuplicates(benchmark::State& state) {
  // The Theorem 6 worst case: quadratic in the lane count.
  const auto n = static_cast<std::size_t>(state.range(0));
  const WordVec targets(n, 0);
  WordVec work(1, 0);
  for (auto _ : state) {
    VectorMachine m;
    benchmark::DoNotOptimize(folvec::fol::fol1_decompose(m, targets, work));
  }
}
BENCHMARK(BM_Fol1AllDuplicates)->Arg(1 << 8)->Arg(1 << 10);

void BM_MultiHashOpen(benchmark::State& state) {
  const auto size = static_cast<std::size_t>(state.range(0));
  const auto keys = random_unique_keys(size / 2, 1 << 30, 4);
  for (auto _ : state) {
    VectorMachine m;
    std::vector<Word> table(size, folvec::hashing::kUnentered);
    folvec::hashing::multi_hash_open_insert(
        m, table, keys, folvec::hashing::ProbeVariant::kKeyDependent);
    benchmark::DoNotOptimize(table.data());
  }
}
BENCHMARK(BM_MultiHashOpen)->Arg(521)->Arg(4099);

void BM_AddressCalcSortVector(benchmark::State& state) {
  const auto n = static_cast<std::size_t>(state.range(0));
  const auto data = random_keys(n, 1 << 20, 5);
  for (auto _ : state) {
    VectorMachine m;
    auto copy = data;
    folvec::sorting::address_calc_sort_vector(m, copy, 1 << 20);
    benchmark::DoNotOptimize(copy.data());
  }
}
BENCHMARK(BM_AddressCalcSortVector)->Arg(1 << 10)->Arg(1 << 14);

void BM_DistCountSortVector(benchmark::State& state) {
  const auto n = static_cast<std::size_t>(state.range(0));
  const auto data = random_keys(n, 1 << 16, 6);
  for (auto _ : state) {
    VectorMachine m;
    auto copy = data;
    folvec::sorting::dist_count_sort_vector(m, copy, 1 << 16);
    benchmark::DoNotOptimize(copy.data());
  }
}
BENCHMARK(BM_DistCountSortVector)->Arg(1 << 10)->Arg(1 << 14);

void BM_BstBulkInsert(benchmark::State& state) {
  const auto ni = static_cast<std::size_t>(state.range(0));
  const auto initial = random_keys(ni, 1 << 30, 7);
  const auto batch = random_keys(512, 1 << 30, 8);
  for (auto _ : state) {
    VectorMachine m;
    folvec::tree::Bst t(ni + 513);
    for (Word k : initial) t.insert_scalar(k);
    t.insert_bulk(m, batch);
    benchmark::DoNotOptimize(t.size());
  }
}
BENCHMARK(BM_BstBulkInsert)->Arg(128)->Arg(2048);

// ---- disabled-path overhead guard ------------------------------------------
//
// The telemetry hooks ship inside every VectorMachine op, so the substrate
// must stay free when nothing is installed. The pre-telemetry baseline is
// not measurable at runtime, but two of its properties are checkable:
//
//   * chime neutrality — telemetry never issues machine instructions, so
//     the modeled instruction/element totals must be bit-identical with and
//     without a registry+tracer+profiler installed (stronger than the 2%
//     budget);
//   * disabled-path cost — the run with nothing installed must not be
//     slower than the run that actually records (interleaved min-of-k
//     walls, 25% slack to absorb shared-host noise), which bounds the
//     disabled hooks at "no costlier than the enabled ones", i.e. one
//     relaxed atomic load per record site.
//
// Set FOLVEC_SKIP_OVERHEAD_GUARD=1 to skip the wall check (sanitizer or
// emulated hosts, where timing is meaningless).

struct GuardSample {
  std::uint64_t instructions = 0;
  std::uint64_t elements = 0;
  double wall_seconds = 0;
};

GuardSample guard_workload() {
  const auto t0 = std::chrono::steady_clock::now();
  VectorMachine m;
  const WordVec keys = random_unique_keys(2048, 1 << 30, 99);
  std::vector<Word> table(4099, folvec::hashing::kUnentered);
  folvec::hashing::multi_hash_open_insert(
      m, table, keys, folvec::hashing::ProbeVariant::kKeyDependent);
  const WordVec targets = random_keys(1 << 14, 1 << 12, 17);
  WordVec work(std::size_t{1} << 12, 0);
  benchmark::DoNotOptimize(folvec::fol::fol1_decompose(m, targets, work));
  GuardSample s;
  s.instructions = m.cost().total_instructions();
  s.elements = m.cost().total_elements();
  s.wall_seconds =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
          .count();
  return s;
}

GuardSample run_overhead_guard() {
  constexpr int kReps = 7;
  guard_workload();  // warmup: page in code and key material

  // Interleave the disabled and enabled reps so ambient host load (CI
  // neighbors, background builds) drifts both measurements alike instead
  // of landing on one side of the comparison.
  folvec::telemetry::MetricsRegistry registry;
  folvec::telemetry::SpanTracer tracer;
  folvec::telemetry::Profiler profiler;
  GuardSample off;
  GuardSample on;
  for (int i = 0; i < kReps; ++i) {
    const GuardSample s = guard_workload();
    GuardSample t;
    {
      const folvec::telemetry::ScopedMetrics sm(registry);
      const folvec::telemetry::ScopedTracer st(tracer);
      const folvec::telemetry::ScopedProfiler sp(profiler);
      t = guard_workload();
    }
    if (i == 0) {
      off = s;
      on = t;
    } else {
      FOLVEC_CHECK(s.instructions == off.instructions &&
                       s.elements == off.elements,
                   "guard workload must be chime-deterministic across runs");
      off.wall_seconds = std::min(off.wall_seconds, s.wall_seconds);
      on.wall_seconds = std::min(on.wall_seconds, t.wall_seconds);
    }
    FOLVEC_CHECK(t.instructions == off.instructions &&
                     t.elements == off.elements,
                 "telemetry must not perturb the modeled instruction stream");
  }

  const auto skip_env = folvec::env_value("FOLVEC_SKIP_OVERHEAD_GUARD");
  if (!(skip_env && folvec::env_flag(*skip_env))) {
    FOLVEC_CHECK(off.wall_seconds <= on.wall_seconds * 1.25,
                 "disabled-path telemetry hooks cost more than the enabled "
                 "path: the no-registry fast path has regressed");
  }
  off.wall_seconds = on.wall_seconds > 0 ? off.wall_seconds / on.wall_seconds
                                         : 0;  // report the ratio
  return off;
}

// ---- fused-kernel chime accounting -----------------------------------------
//
// A fixed FOL1 workload (2^14 lanes, rare sharing, fixed seed) run twice:
// fused (scatter_gather_eq + partition) and unfused (the reference chains,
// MachineConfig::fuse = false). The modeled instruction/element totals are
// fully deterministic, so they land in the report notes where the CI
// chime-regression job diffs them against committed golden ceilings —
// google-benchmark's adaptive iteration counts make the timing numbers
// useless as goldens, but these are not timing numbers.

struct FusedCutSample {
  std::uint64_t fused_instructions = 0;
  std::uint64_t fused_elements = 0;
  std::uint64_t unfused_instructions = 0;
  std::uint64_t unfused_elements = 0;
  double chime_cut = 0;  // 1 - fused_us/unfused_us under the S-810 table
};

FusedCutSample run_fused_cut_probe() {
  const folvec::vm::CostParams params = folvec::vm::CostParams::s810_like();
  const std::size_t n = std::size_t{1} << 14;
  const WordVec targets = random_keys(n, static_cast<Word>(4 * n), 23);
  double us[2] = {0, 0};
  FusedCutSample s;
  for (const bool fuse : {true, false}) {
    folvec::vm::MachineConfig cfg;
    cfg.fuse = fuse;
    VectorMachine m(cfg);
    WordVec work(4 * n, 0);
    benchmark::DoNotOptimize(folvec::fol::fol1_decompose(m, targets, work));
    if (fuse) {
      s.fused_instructions = m.cost().total_instructions();
      s.fused_elements = m.cost().total_elements();
      us[0] = m.cost().microseconds(params);
    } else {
      s.unfused_instructions = m.cost().total_instructions();
      s.unfused_elements = m.cost().total_elements();
      us[1] = m.cost().microseconds(params);
    }
  }
  FOLVEC_CHECK(us[0] < us[1],
               "fused FOL1 must price below the unfused composition");
  s.chime_cut = 1.0 - us[0] / us[1];
  return s;
}

// ---- VectorHashMap upsert chime accounting ----------------------------------
//
// One batch of N = 2^12 lanes over N/2 keys (every key twice) into a fresh
// map: the growth rehash, the probe loop with its slot elections, and the
// ordered value write. Deterministic like the FOL1 probe above, so the
// chime-regression job holds its instruction count to a golden ceiling.

std::uint64_t run_map_upsert_probe() {
  const std::size_t n = std::size_t{1} << 12;
  const WordVec pool = random_unique_keys(n / 2, Word{1} << 30, 29);
  WordVec keys(n);
  WordVec values(n);
  for (std::size_t i = 0; i < n; ++i) {
    keys[i] = pool[i % pool.size()];
    values[i] = static_cast<Word>(i);
  }
  folvec::vm::MachineConfig cfg;
  cfg.fuse = true;
  cfg.scatter_order = folvec::vm::ScatterOrder::kForward;
  VectorMachine m(cfg);
  folvec::hashing::VectorHashMap map;
  map.upsert_batch(m, keys, values);
  FOLVEC_CHECK(map.size() == pool.size(),
               "the upsert probe must enter each distinct key once");
  return m.cost().total_instructions();
}

}  // namespace

int main(int argc, char** argv) {
  const GuardSample guard = run_overhead_guard();
  const FusedCutSample fused = run_fused_cut_probe();
  const std::uint64_t map_upsert_instructions = run_map_upsert_probe();

  folvec::bench::BenchReport report("micro_vm");
  report.config("guard_reps", 7);
  report.config("simd_level",
                folvec::vm::simd_level_name(folvec::vm::simd_resolve_level(
                    folvec::vm::MachineConfig::simd_level_default())));
  report.note("guard_chime_instructions", guard.instructions);
  report.note("guard_chime_elements", guard.elements);
  report.note("guard_disabled_over_enabled_wall", guard.wall_seconds);
  report.note("fused_fol1_chime_instructions", fused.fused_instructions);
  report.note("fused_fol1_chime_elements", fused.fused_elements);
  report.note("unfused_fol1_chime_instructions", fused.unfused_instructions);
  report.note("unfused_fol1_chime_elements", fused.unfused_elements);
  report.note("fol1_fused_chime_cut", fused.chime_cut);
  report.note("map_upsert_chime_instructions", map_upsert_instructions);

  benchmark::Initialize(&argc, argv);
  if (benchmark::ReportUnrecognizedArguments(argc, argv)) return 1;
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  return 0;
}
