#include "harness.h"

#include <sched.h>
#include <sys/resource.h>
#include <unistd.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <sstream>
#include <thread>
#include <utility>

#include "vm/cost_model.h"
#include "vm/simd_backend.h"

namespace folbench {

using folvec::vm::OpClass;

namespace {

struct MetricDef {
  std::string name;
  const char* unit;
};

// The vector op classes and the names their per-class metrics use.
const std::vector<std::pair<OpClass, const char*>>& vector_classes() {
  static const std::vector<std::pair<OpClass, const char*>> classes = {
      {OpClass::kVectorArith, "arith"},
      {OpClass::kVectorCompare, "cmp"},
      {OpClass::kVectorDiv, "div"},
      {OpClass::kVectorMask, "mask"},
      {OpClass::kVectorLoad, "load"},
      {OpClass::kVectorStore, "store"},
      {OpClass::kVectorGather, "gather"},
      {OpClass::kVectorScatter, "scatter"},
      {OpClass::kVectorScatterOrdered, "scatter_ord"},
      {OpClass::kVectorCompress, "compress"},
      {OpClass::kVectorReduce, "reduce"},
      {OpClass::kVectorScatterGatherEq, "sge"},
      {OpClass::kVectorPartition, "partition"},
  };
  return classes;
}

// Must list exactly BENCHMARK.json's end_to_end metrics; the self-test
// (run.py --self-test) compares the two.
const std::vector<MetricDef>& end_to_end_schema() {
  static const std::vector<MetricDef> defs = {
      {"setup_s", "s"},       {"peak_rss_mib", "MiB"}, {"job_ms_p50", "ms"},
      {"job_ms_p90", "ms"},   {"sat_rps", "1/s"},      {"slo_rps", "1/s"},
      {"p50_ms", "ms"},       {"p90_ms", "ms"},
  };
  return defs;
}

// Must list exactly BENCHMARK.json's per_layer metrics.
const std::vector<MetricDef>& per_layer_schema() {
  static const std::vector<MetricDef> defs = [] {
    std::vector<MetricDef> d = {
        {"serve.batches_per_kreq", "1/kreq"},
        {"serve.pump_ms_p50", "ms"},
        {"serve.pump_ms_p99", "ms"},
        {"serve.server_latency_ms_p99", "ms"},
        {"serve.sat_rps_drift", "ratio"},
        {"map.bloom_skip_frac", "frac"},
        {"map.bloom_rebuilds_per_kreq", "1/kreq"},
        {"map.capacity_per_live_key", "ratio"},
        {"map.rehashes", "count"},
        {"hashing.open_insert_ms", "ms"},
        {"hashing.open_insert_iters", "count"},
        {"hashing.map_upsert_ms", "ms"},
        {"hashing.map_lookup_ms", "ms"},
        {"fol.fol1_ms", "ms"},
        {"fol.fol1_rounds", "count"},
        {"fol.drained_lanes", "count"},
        {"sorting.addr_calc_ms", "ms"},
        {"vm.vinstr_per_req", "count"},
        {"vm.vinstr_per_job", "count"},
        {"vm.lanes_per_vinstr", "count"},
        {"vm.ns_per_vinstr", "ns"},
        {"vm.busy_frac", "frac"},
    };
    for (const auto& [cls, name] : vector_classes()) {
      d.push_back({std::string("vm.") + name + ".vinstr", "count"});
      d.push_back({std::string("vm.") + name + ".wall_ms", "ms"});
    }
    d.push_back({"host.residual_frac", "frac"});
    d.push_back({"client.p99_ms", "ms"});
    d.push_back({"client.gen_lag_ms_p99", "ms"});
    d.push_back({"client.tracing_overhead_frac", "frac"});
    d.push_back({"client.ops_failed_frac", "frac"});
    return d;
  }();
  return defs;
}

std::string fmt_number(double v) {
  char buf[64];
  std::snprintf(buf, sizeof buf, "%.17g", v);
  return buf;
}

std::string json_escape(const std::string& s) {
  std::string out;
  for (const char c : s) {
    if (c == '"' || c == '\\') out.push_back('\\');
    out.push_back(c);
  }
  return out;
}

}  // namespace

std::uint64_t derive_seed(std::uint64_t seed, std::uint64_t stream) {
  Rng r(seed ^ (stream * 0xd1b54a32d192ed03ULL));
  return r.next();
}

double quantile(std::vector<double> v, double q) {
  if (v.empty()) return 0;
  std::sort(v.begin(), v.end());
  const double rank = std::ceil(q * static_cast<double>(v.size()));
  const auto i = static_cast<std::size_t>(std::max(rank, 1.0)) - 1;
  return v[std::min(i, v.size() - 1)];
}

folvec::vm::MachineConfig machine_config() {
  folvec::vm::MachineConfig c;
  c.backend = folvec::vm::BackendKind::kSimd;
  c.simd_level = folvec::vm::SimdLevel::kAuto;
  c.audit = false;
  c.analysis = false;
  return c;
}

double peak_rss_mib() {
  rusage u{};
  getrusage(RUSAGE_SELF, &u);
  return static_cast<double>(u.ru_maxrss) / 1024.0;  // ru_maxrss is KiB
}

CpuRotation::CpuRotation() {
  cpu_set_t set;
  CPU_ZERO(&set);
  if (sched_getaffinity(0, sizeof set, &set) != 0) return;
  for (std::size_t c = 0; c < CPU_SETSIZE; ++c) {
    if (CPU_ISSET(c, &set)) cpus_.push_back(c);
  }
}

CpuRotation::~CpuRotation() { unpin(); }

void CpuRotation::pin(std::size_t k) const {
  if (cpus_.size() < 2) return;
  cpu_set_t set;
  CPU_ZERO(&set);
  CPU_SET(cpus_[k % cpus_.size()], &set);
  sched_setaffinity(0, sizeof set, &set);
}

void CpuRotation::unpin() const {
  if (cpus_.size() < 2) return;
  cpu_set_t set;
  CPU_ZERO(&set);
  for (const std::size_t c : cpus_) CPU_SET(c, &set);
  sched_setaffinity(0, sizeof set, &set);
}

double SpanLog::total_seconds(const std::string& name) const {
  double t = 0;
  for (const Span& s : spans_) {
    if (name == s.name) t += seconds_between(s.start, s.end);
  }
  return t;
}

std::vector<double> SpanLog::durations_ms(const std::string& name) const {
  std::vector<double> out;
  for (const Span& s : spans_) {
    if (name == s.name) out.push_back(ms_between(s.start, s.end));
  }
  return out;
}

void SpanLog::write(const std::string& path,
                    const std::string& header_json) const {
  if (!enabled_ || path.empty() || spans_.empty()) return;
  std::ofstream out(path);
  if (!out) {
    std::fprintf(stderr, "folbench: cannot write spans to %s\n", path.c_str());
    return;
  }
  out << header_json << "\n";
  const Clock::time_point t0 = spans_.front().start;
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    out << "{\"id\":" << i << ",\"name\":\"" << s.name
        << "\",\"start_us\":" << fmt_number(ms_between(t0, s.start) * 1e3)
        << ",\"end_us\":" << fmt_number(ms_between(t0, s.end) * 1e3)
        << ",\"parent\":" << s.parent << "}\n";
  }
}

VmProfile read_vm_profile(const folvec::telemetry::Profiler& prof) {
  VmProfile p;
  const auto snap = prof.snapshot();
  for (const auto& [name, series] : snap) p.all_wall_s += series.sum_w * 1e-9;
  for (const auto& [cls, name] : vector_classes()) {
    p.per_class[name] = {0, 0.0};
    const auto it = snap.find(folvec::vm::op_class_name(cls));
    if (it == snap.end()) continue;
    const auto& s = it->second;
    p.vector_instr += s.samples;
    p.vector_lanes += s.elements;
    p.vector_wall_s += s.sum_w * 1e-9;
    p.per_class[name] = {s.samples, s.sum_w * 1e-9};
  }
  return p;
}

void put_vm_metrics(Result& r, const VmProfile& p, const char* per_unit_name,
                    double units, double layer_call_wall_s,
                    double traced_wall_s) {
  const double instr = static_cast<double>(p.vector_instr);
  r.metrics[per_unit_name] = units > 0 ? instr / units : 0;
  r.metrics["vm.lanes_per_vinstr"] =
      instr > 0 ? static_cast<double>(p.vector_lanes) / instr : 0;
  r.metrics["vm.ns_per_vinstr"] = instr > 0 ? p.vector_wall_s * 1e9 / instr : 0;
  r.metrics["vm.busy_frac"] =
      layer_call_wall_s > 0 ? p.all_wall_s / layer_call_wall_s : 0;
  r.metrics["host.residual_frac"] =
      traced_wall_s > 0 ? 1.0 - p.all_wall_s / traced_wall_s : 0;
  for (const auto& [name, v] : p.per_class) {
    r.metrics["vm." + name + ".vinstr"] = static_cast<double>(v.first);
    r.metrics["vm." + name + ".wall_ms"] = v.second * 1e3;
  }
}

std::string host_facts_json() {
  folvec::vm::VectorMachine m(machine_config());
  std::ostringstream os;
  os << "{\"nproc\":" << sysconf(_SC_NPROCESSORS_ONLN)
     << ",\"hardware_concurrency\":" << std::thread::hardware_concurrency()
     << ",\"simd_level\":\""
     << folvec::vm::simd_level_name(m.active_simd_level())
     << "\",\"backend\":\"" << m.backend_name() << "\",\"build_type\":\""
     << json_escape(FOLBENCH_BUILD_TYPE) << "\",\"compiler\":\""
     << json_escape(FOLBENCH_COMPILER) << "\"}";
  return os.str();
}

void print_result(const Result& r, bool trace) {
  const auto& schema = trace ? per_layer_schema() : end_to_end_schema();
  std::ostringstream os;
  os << "{\"correct\": " << (r.correct ? "true" : "false")
     << ", \"attempted\": " << r.attempted << ", \"failed\": " << r.failed
     << ", \"metrics\": {";
  for (std::size_t i = 0; i < schema.size(); ++i) {
    const auto it = r.metrics.find(schema[i].name);
    if (it == r.metrics.end() && !trace) {
      std::fprintf(stderr, "folbench: end-to-end metric %s was not measured\n",
                   schema[i].name.c_str());
      std::abort();
    }
    const double v = it == r.metrics.end() ? 0.0 : it->second;
    os << (i ? ", " : "") << "\"" << schema[i].name
       << "\": {\"value\": " << fmt_number(v) << ", \"unit\": \""
       << schema[i].unit << "\"}";
  }
  os << "}}";
  std::printf("%s\n", os.str().c_str());
  std::fflush(stdout);
}

}  // namespace folbench
