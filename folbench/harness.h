// Shared pieces of the folbench binary: options, the metric schema, the
// deterministic input generator, timing helpers, the in-memory span log
// and the result line.
//
// The benchmark times every layer from outside, around calls to its
// public functions; nothing here reaches into the library's internals.
#pragma once

#include <chrono>
#include <cstddef>
#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "telemetry/profile.h"
#include "vm/machine.h"

namespace folbench {

using Clock = std::chrono::steady_clock;

struct Options {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 20;
  bool trace = false;
  /// Tiny sizes for the self-test; every code path still runs.
  bool smoke = false;
  /// Self-test only: flip one expected answer so the check must fail.
  bool corrupt_reference = false;
  /// Where the traced pass writes its spans (JSON lines); empty = nowhere.
  std::string spans_path;
};

/// The benchmark's own input generator (SplitMix64). Kept here rather
/// than borrowed from the library so a library change cannot change the
/// inputs a seed stands for.
class Rng {
 public:
  explicit Rng(std::uint64_t seed) : state_(seed) {}
  std::uint64_t next() {
    std::uint64_t z = (state_ += 0x9e3779b97f4a7c15ULL);
    z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
    z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
    return z ^ (z >> 31);
  }
  /// Uniform in [0, bound); the modulo bias is irrelevant at these bounds.
  std::uint64_t below(std::uint64_t bound) { return next() % bound; }
  double unit() { return static_cast<double>(next() >> 11) * 0x1.0p-53; }

 private:
  std::uint64_t state_;
};

/// Sub-seed for one stream of one workload, so streams are independent.
std::uint64_t derive_seed(std::uint64_t seed, std::uint64_t stream);

inline double seconds_between(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double>(b - a).count();
}
inline double ms_between(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double, std::milli>(b - a).count();
}

/// Nearest-rank quantile of `v` (copied, so callers keep their order).
double quantile(std::vector<double> v, double q);
inline double median(const std::vector<double>& v) { return quantile(v, 0.5); }

/// Every machine the benchmark builds: SIMD backend at the host's best
/// level, audit and static analysis off.
folvec::vm::MachineConfig machine_config();

double peak_rss_mib();

/// Pins the calling thread to one CPU of the set the process may use,
/// chosen round-robin by a pass or job index. On a shared host one vCPU
/// can run 10-20% slower than its neighbours for minutes; rotating the
/// benchmark's jobs and windows over every allowed CPU keeps one slow vCPU
/// from deciding a whole run. Restores the original mask on destruction.
class CpuRotation {
 public:
  CpuRotation();
  ~CpuRotation();
  CpuRotation(const CpuRotation&) = delete;
  CpuRotation& operator=(const CpuRotation&) = delete;
  /// Pins to the `k mod n`-th of the n allowed CPUs.
  void pin(std::size_t k) const;
  /// Back to every allowed CPU.
  void unpin() const;

 private:
  std::vector<std::size_t> cpus_;
};

/// A named interval on the benchmark's own clock, with the span that
/// caused it (-1 for a root).
struct Span {
  const char* name;
  Clock::time_point start;
  Clock::time_point end;
  int parent;
};

/// In-memory span log for the traced pass; written out once, at the end.
class SpanLog {
 public:
  explicit SpanLog(bool enabled) : enabled_(enabled) {
    if (enabled_) spans_.reserve(1 << 16);
  }
  /// Opens a span and returns its id (-1 when disabled).
  int open(const char* name, int parent = -1) {
    if (!enabled_) return -1;
    spans_.push_back(Span{name, Clock::now(), {}, parent});
    return static_cast<int>(spans_.size() - 1);
  }
  void close(int id) {
    if (id >= 0) spans_[static_cast<std::size_t>(id)].end = Clock::now();
  }
  /// Summed duration of every span called `name`, in seconds.
  double total_seconds(const std::string& name) const;
  /// Durations of every span called `name`, in milliseconds.
  std::vector<double> durations_ms(const std::string& name) const;
  /// JSON lines, times in microseconds from the first span's start.
  void write(const std::string& path, const std::string& header_json) const;

 private:
  bool enabled_;
  std::vector<Span> spans_;
};

/// Per-op-class VM totals of a traced pass, read from the installed
/// telemetry::Profiler (which sees every machine, including ones the
/// serving layer keeps private).
struct VmProfile {
  std::uint64_t vector_instr = 0;
  std::uint64_t vector_lanes = 0;
  double vector_wall_s = 0;
  double all_wall_s = 0;  // every timed instruction, scalar classes too
  std::map<std::string, std::pair<std::uint64_t, double>> per_class;
};
/// Totals of everything `prof` recorded; every vector class is present.
VmProfile read_vm_profile(const folvec::telemetry::Profiler& prof);

/// Outcome of one run: the result line's fields.
struct Result {
  bool correct = true;
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::map<std::string, double> metrics;
  /// Reason for the first correctness failure, for stderr.
  std::string why_incorrect;
  void fail_check(const std::string& why) {
    if (correct) why_incorrect = why;
    correct = false;
  }
};

/// Fills the vm.* per-layer metrics from a profile; `per_unit_name` is
/// vm.vinstr_per_req or vm.vinstr_per_job and `units` its denominator.
void put_vm_metrics(Result& r, const VmProfile& p, const char* per_unit_name,
                    double units, double layer_call_wall_s,
                    double traced_wall_s);

/// Host facts printed with every result, so runs on unlike hosts are not
/// compared.
std::string host_facts_json();

/// Prints the result line: exactly the end-to-end metrics (untraced) or
/// exactly the per-layer metrics (traced), each with its unit. A metric
/// of the schema the workload did not set is a bug and aborts, except
/// per-layer metrics of layers the workload does not exercise, which
/// read 0.
void print_result(const Result& r, bool trace);

Result run_bulk(const Options& o);
Result run_serve(const Options& o);

}  // namespace folbench
