// bulk_pipeline: one caller runs pipeline jobs back to back (a closed
// loop). Each job gets a fresh input of N = 2^18 lanes and makes five bulk
// library calls on one SIMD machine:
//
//   fol1_decompose           N lanes over N/4 areas (dense sharing)
//   multi_hash_open_insert   N unique keys into a prime table of >= 2N slots
//   address_calc_sort_vector N values below vmax = 4N
//   VectorHashMap::upsert    N lanes over N/2 distinct keys (last lane wins)
//   VectorHashMap::lookup    N lanes, half of them keys never written
//
// Vectors are thousands of lanes long, so time goes to VM kernels, FOL
// rounds, probing and sorting; per-instruction host cost and the serving
// layer are negligible here. A job touches > 10 MiB: more than a core's L2,
// less than the shared L3.
#include <algorithm>
#include <cstdio>
#include <exception>
#include <optional>
#include <string>
#include <vector>

#include "fol/fol1.h"
#include "fol/invariants.h"
#include "harness.h"
#include "hashing/hash_map.h"
#include "hashing/open_table.h"
#include "sorting/address_calc.h"
#include "telemetry/profile.h"

namespace folbench {

using folvec::vm::VectorMachine;
using folvec::vm::Word;
using folvec::vm::WordVec;

namespace {

constexpr std::size_t kCallsPerJob = 5;
constexpr Word kMissing = -1;
// A job slower than this does not count towards slo_rps (goodput).
constexpr double kJobDeadlineMs = 500;
constexpr Word kKeyMask = (Word{1} << 40) - 1;

struct Sizes {
  std::size_t n;
  std::size_t warmup_jobs;
  std::size_t timed_jobs;   // untraced run
  std::size_t traced_jobs;  // each of the traced run's two passes
  std::size_t setup_reps;
};

Sizes sizes_for(const Options& o) {
  if (o.smoke) return {std::size_t{1} << 12, 1, 12, 4, 2};
  // At ~0.1 s per job, ten jobs per requested second; at least 200.
  const auto timed = std::max<std::size_t>(
      200, static_cast<std::size_t>(o.seconds * 10));
  return {std::size_t{1} << 18, 3, timed, 30, 5};
}

bool is_prime(std::size_t v) {
  if (v < 2) return false;
  for (std::size_t d = 2; d * d <= v; ++d) {
    if (v % d == 0) return false;
  }
  return true;
}

/// Distinct non-negative keys: an odd multiplier is a bijection mod 2^40.
struct KeyFamily {
  Word mul;
  Word add;
  Word at(std::size_t i) const {
    return (mul * static_cast<Word>(i) + add) & kKeyMask;
  }
};

KeyFamily key_family(Rng& r) {
  return {static_cast<Word>(r.next() & static_cast<std::uint64_t>(kKeyMask)) |
              1,
          static_cast<Word>(r.next() & static_cast<std::uint64_t>(kKeyMask))};
}

/// One job's inputs plus the reference answers the checks compare with.
struct Job {
  WordVec fol_index, fol_work;
  WordVec hash_keys, table;
  WordVec sort_in, sorted;
  WordVec map_keys, map_values, queries;
  WordVec expected_lookup;
};

void make_job(Job& j, std::size_t n, std::size_t table_size,
              std::uint64_t seed) {
  Rng r(seed);
  const std::size_t areas = n / 4, pool = n / 2;
  j.fol_index.resize(n);
  for (auto& v : j.fol_index) v = static_cast<Word>(r.below(areas));
  j.fol_work.assign(areas, 0);

  const KeyFamily hk = key_family(r);
  j.hash_keys.resize(n);
  for (std::size_t i = 0; i < n; ++i) j.hash_keys[i] = hk.at(i);
  j.table.assign(table_size, folvec::hashing::kUnentered);

  j.sort_in.resize(n);
  for (auto& v : j.sort_in) v = static_cast<Word>(r.below(4 * n));
  j.sorted = j.sort_in;

  // Keys pool_key.at(0..pool) are written; pool..2*pool are never written.
  const KeyFamily pool_key = key_family(r);
  std::vector<Word> last(pool, kMissing);
  j.map_keys.resize(n);
  j.map_values.resize(n);
  for (std::size_t i = 0; i < n; ++i) {
    const std::size_t p = r.below(pool);
    j.map_keys[i] = pool_key.at(p);
    j.map_values[i] = static_cast<Word>(r.next() >> 24);
    last[p] = j.map_values[i];
  }
  j.queries.resize(n);
  j.expected_lookup.resize(n);
  for (std::size_t i = 0; i < n; ++i) {
    const std::size_t p = r.below(pool);
    const bool written = (r.next() & 1) != 0;
    j.queries[i] = pool_key.at(written ? p : pool + p);
    j.expected_lookup[i] = written ? last[p] : kMissing;
  }
}

struct JobOutcome {
  folvec::fol::Decomposition decomp;
  folvec::hashing::MultiHashStats hash_stats;
  WordVec found;
  std::size_t steps_done = 0;
};

/// Times `f` as one library call: a span under `job_span` and one
/// client-observed call latency (a closed loop makes each call due when
/// the previous one returns).
template <typename F>
void call(SpanLog& spans, int job_span, const char* name,
          std::vector<double>& call_ms, JobOutcome& out, F&& f) {
  const int s = spans.open(name, job_span);
  const auto t0 = Clock::now();
  f();
  call_ms.push_back(ms_between(t0, Clock::now()));
  spans.close(s);
  ++out.steps_done;
}

/// Fills `out` call by call, so a call that throws leaves the count of
/// completed steps behind.
void run_job(VectorMachine& m, Job& j, SpanLog& spans,
             std::vector<double>& call_ms, JobOutcome& out) {
  const int job = spans.open("bulk.job");
  call(spans, job, "fol.fol1_decompose", call_ms, out, [&] {
    out.decomp = folvec::fol::fol1_decompose(m, j.fol_index, j.fol_work);
  });
  call(spans, job, "hashing.multi_hash_open_insert", call_ms, out, [&] {
    out.hash_stats = folvec::hashing::multi_hash_open_insert(
        m, j.table, j.hash_keys, folvec::hashing::ProbeVariant::kKeyDependent);
  });
  call(spans, job, "sorting.address_calc_sort_vector", call_ms, out, [&] {
    folvec::sorting::address_calc_sort_vector(
        m, j.sorted, static_cast<Word>(4 * j.sorted.size()));
  });
  folvec::hashing::VectorHashMap map;
  call(spans, job, "hashing.map_upsert_batch", call_ms, out,
       [&] { map.upsert_batch(m, j.map_keys, j.map_values); });
  call(spans, job, "hashing.map_lookup_batch", call_ms, out,
       [&] { out.found = map.lookup_batch(m, j.queries, kMissing); });
  spans.close(job);
}

/// Scalar walk of Figure 8's key-dependent probe sequence.
bool findable(const WordVec& table, Word key) {
  const auto size = static_cast<Word>(table.size());
  Word h = key % size;
  for (Word step = 0; step < size; ++step) {
    if (table[static_cast<std::size_t>(h)] == key) return true;
    if (table[static_cast<std::size_t>(h)] == folvec::hashing::kUnentered) {
      return false;
    }
    h = (h + (key & 31) + 1) % size;
  }
  return false;
}

void check_job(const Job& j, const JobOutcome& out, Result& r) {
  if (!folvec::fol::satisfies_all_theorems(out.decomp, j.fol_index)) {
    r.fail_check("fol1_decompose violates the paper's theorems");
  }
  for (const Word k : j.hash_keys) {
    if (!findable(j.table, k)) {
      r.fail_check("inserted key " + std::to_string(k) + " is not findable");
      break;
    }
  }
  const std::size_t vmax = 4 * j.sort_in.size();
  std::vector<int> balance(vmax, 0);
  for (const Word v : j.sort_in) ++balance[static_cast<std::size_t>(v)];
  bool permutation = j.sorted.size() == j.sort_in.size();
  for (const Word v : j.sorted) {
    if (v < 0 || static_cast<std::size_t>(v) >= vmax ||
        --balance[static_cast<std::size_t>(v)] < 0) {
      permutation = false;
      break;
    }
  }
  if (!permutation || !std::is_sorted(j.sorted.begin(), j.sorted.end())) {
    r.fail_check("address_calc_sort_vector output is not a sorted permutation");
  }
  if (out.found != j.expected_lookup) {
    r.fail_check("VectorHashMap lookups differ from the reference");
  }
}

struct Pass {
  std::vector<double> job_ms;
  std::vector<double> call_ms;
  double wall_s = 0;  // sum of job walls
  double rounds = 0, drained = 0, hash_iters = 0;
};

/// Job `k` of the seed's job sequence: fresh input, timed run, check.
void run_one_job(VectorMachine& m, Job& j, const Sizes& z,
                 std::size_t table_size, const Options& o, std::size_t k,
                 bool corrupt, SpanLog& spans, Pass& p, Result& r) {
  make_job(j, z.n, table_size, derive_seed(o.seed, k));
  if (corrupt) j.expected_lookup[0] ^= 1;
  r.attempted += kCallsPerJob;
  const auto t0 = Clock::now();
  JobOutcome out;
  try {
    run_job(m, j, spans, p.call_ms, out);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "folbench: job %zu failed: %s\n", k, e.what());
    r.failed += kCallsPerJob - out.steps_done;
    return;
  }
  const double ms = ms_between(t0, Clock::now());
  p.job_ms.push_back(ms);
  p.wall_s += ms / 1e3;
  p.rounds += static_cast<double>(out.decomp.rounds());
  p.drained += static_cast<double>(out.decomp.drained_lanes);
  p.hash_iters += static_cast<double>(out.hash_stats.iterations);
  check_job(j, out, r);
}

}  // namespace

Result run_bulk(const Options& o) {
  const Sizes z = sizes_for(o);
  std::size_t table_size = 2 * z.n + 1;
  while (!is_prime(table_size)) table_size += 2;

  Result r;
  // Set-up: build the machine and the first job's input, several times.
  std::vector<double> setup_s;
  Job job;
  std::optional<VectorMachine> machine;
  for (std::size_t i = 0; i < z.setup_reps; ++i) {
    const auto t0 = Clock::now();
    job = Job{};
    machine.emplace(machine_config());
    make_job(job, z.n, table_size, derive_seed(o.seed, 0));
    setup_s.push_back(seconds_between(t0, Clock::now()));
  }
  VectorMachine& m = *machine;
  const CpuRotation cpus;
  SpanLog no_spans(false);
  Pass warm;  // checked, not timed
  for (std::size_t k = 0; k < z.warmup_jobs; ++k) {
    run_one_job(m, job, z, table_size, o, k, false, no_spans, warm, r);
  }
  const std::size_t first = z.warmup_jobs;

  if (!o.trace) {
    Pass p;
    for (std::size_t k = first; k < first + z.timed_jobs; ++k) {
      cpus.pin(k);
      run_one_job(m, job, z, table_size, o, k,
                  o.corrupt_reference && k == first, no_spans, p, r);
    }
    const double jobs = static_cast<double>(p.job_ms.size());
    std::size_t on_time = 0;
    for (const double ms : p.job_ms) on_time += ms <= kJobDeadlineMs ? 1 : 0;
    const double n = static_cast<double>(z.n);
    r.metrics["setup_s"] = median(setup_s);
    r.metrics["job_ms_p50"] = median(p.job_ms);
    r.metrics["job_ms_p90"] = quantile(p.job_ms, 0.90);
    r.metrics["sat_rps"] = p.wall_s > 0 ? n * jobs / p.wall_s : 0;
    r.metrics["slo_rps"] =
        p.wall_s > 0 ? n * static_cast<double>(on_time) / p.wall_s : 0;
    r.metrics["p50_ms"] = median(p.call_ms);
    r.metrics["p90_ms"] = quantile(p.call_ms, 0.90);
    r.metrics["peak_rss_mib"] = peak_rss_mib();
    return r;
  }

  // Traced run: every job twice on the same CPU, untraced and traced
  // (which goes first alternates, as the first after a CPU change runs
  // colder), so the difference is the tracing overhead.
  SpanLog spans(true);
  folvec::telemetry::Profiler prof;
  Pass plain, traced;
  for (std::size_t k = first; k < first + z.traced_jobs; ++k) {
    const bool corrupt = o.corrupt_reference && k == first;
    cpus.pin(k);
    auto traced_job = [&] {
      const folvec::telemetry::ScopedProfiler on(prof);
      run_one_job(m, job, z, table_size, o, k, corrupt, spans, traced, r);
    };
    if (k % 2 == 1) traced_job();
    run_one_job(m, job, z, table_size, o, k, corrupt, no_spans, plain, r);
    if (k % 2 == 0) traced_job();
  }
  const VmProfile vm = read_vm_profile(prof);
  const double jobs = static_cast<double>(traced.job_ms.size());
  const double per_job = jobs > 0 ? 1.0 / jobs : 0;
  double call_wall_s = 0;
  for (const char* name :
       {"fol.fol1_decompose", "hashing.multi_hash_open_insert",
        "sorting.address_calc_sort_vector", "hashing.map_upsert_batch",
        "hashing.map_lookup_batch"}) {
    call_wall_s += spans.total_seconds(name);
  }
  r.metrics["fol.fol1_ms"] = median(spans.durations_ms("fol.fol1_decompose"));
  r.metrics["fol.fol1_rounds"] = traced.rounds * per_job;
  r.metrics["fol.drained_lanes"] = traced.drained * per_job;
  r.metrics["hashing.open_insert_ms"] =
      median(spans.durations_ms("hashing.multi_hash_open_insert"));
  r.metrics["hashing.open_insert_iters"] = traced.hash_iters * per_job;
  r.metrics["hashing.map_upsert_ms"] =
      median(spans.durations_ms("hashing.map_upsert_batch"));
  r.metrics["hashing.map_lookup_ms"] =
      median(spans.durations_ms("hashing.map_lookup_batch"));
  r.metrics["sorting.addr_calc_ms"] =
      median(spans.durations_ms("sorting.address_calc_sort_vector"));
  put_vm_metrics(r, vm, "vm.vinstr_per_job", jobs, call_wall_s, traced.wall_s);
  r.metrics["client.tracing_overhead_frac"] =
      plain.wall_s > 0 ? traced.wall_s / plain.wall_s - 1.0 : 0;
  r.metrics["client.p99_ms"] = quantile(plain.call_ms, 0.99);
  r.metrics["client.ops_failed_frac"] =
      static_cast<double>(r.failed) / static_cast<double>(r.attempted);
  spans.write(o.spans_path, "{\"workload\":\"bulk_pipeline\",\"seed\":" +
                                std::to_string(o.seed) +
                                ",\"host\":" + host_facts_json() + "}");
  return r;
}

}  // namespace folbench
