#include "bench_harness/report.h"

#include <algorithm>
#include <cstdio>
#include <fstream>
#include <utility>
#include <vector>

#include "support/env.h"
#include "vm/machine.h"
#include "vm/simd_backend.h"

namespace folvec::bench {

namespace {

/// The backend a default-config machine gets under the current environment
/// (FOLVEC_BACKEND / FOLVEC_SIMD_LEVEL), as a JSON object: its name and its
/// resolved SIMD level (null for the serial backend).
JsonObject probe_backend() {
  const vm::VectorMachine probe;
  const bool simd = probe.config().backend == vm::BackendKind::kSimd;
  return JsonObject{
      {"name", probe.backend_name()},
      {"simd_level", simd ? JsonValue(vm::simd_level_name(
                                probe.active_simd_level()))
                          : JsonValue(nullptr)},
  };
}

JsonValue snapshot_to_json_value(const telemetry::MetricsSnapshot& snap) {
  // Round-trip through the renderer so the report embeds exactly the object
  // MetricsSnapshot::to_json documents.
  return JsonValue::parse(snap.to_json(-1));
}

/// The model-fidelity section: every op class the session profiler saw,
/// with its least-squares wall_ns ~ elements fit, wall_ns percentiles, and
/// — when the series name matches a chime op class — the model's constants
/// (the fitted b_ns over chime_b_ns is the host-vs-model speed ratio).
JsonObject build_calibration(const telemetry::Profiler& prof) {
  const vm::CostParams model = vm::CostParams::s810_like();
  JsonObject ops;
  std::vector<std::pair<double, std::string>> residuals;
  for (const auto& [name, series] : prof.snapshot()) {
    const telemetry::OpFit fit = series.fit();
    JsonObject entry{
        {"samples", fit.samples},
        {"elements", series.elements},
        {"a_ns", fit.a_ns},
        {"b_ns", fit.b_ns},
        {"r2", fit.r2},
        {"rms_residual_ns", fit.rms_residual_ns},
        {"wall_ns_p50", series.wall_ns.p50()},
        {"wall_ns_p90", series.wall_ns.p90()},
        {"wall_ns_p99", series.wall_ns.p99()},
    };
    for (std::size_t c = 0; c < vm::kOpClassCount; ++c) {
      if (name != vm::op_class_name(static_cast<vm::OpClass>(c))) continue;
      entry.emplace_back("chime_startup_cycles", model.startup[c]);
      entry.emplace_back("chime_per_element_cycles", model.per_element[c]);
      entry.emplace_back("chime_b_ns",
                         model.per_element[c] / model.clock_hz * 1.0e9);
      break;
    }
    residuals.emplace_back(fit.rms_residual_ns, name);
    ops.emplace_back(name, std::move(entry));
  }
  std::sort(residuals.begin(), residuals.end(),
            [](const auto& a, const auto& b) {
              return a.first != b.first ? a.first > b.first
                                        : a.second < b.second;
            });
  JsonArray worst;
  for (std::size_t i = 0; i < residuals.size() && i < 3; ++i) {
    worst.push_back(residuals[i].second);
  }
  return JsonObject{
      {"model", "wall_ns ~ a_ns + b_ns * elements"},
      {"clock_hz", model.clock_hz},
      {"ops", std::move(ops)},
      {"worst_residual_ops", std::move(worst)},
  };
}

}  // namespace

BenchReport::BenchReport(std::string name)
    : name_(std::move(name)), start_(std::chrono::steady_clock::now()) {}

BenchReport::~BenchReport() {
  if (!written_) write();
}

void BenchReport::config(std::string_view key, JsonValue value) {
  config_.emplace_back(std::string(key), std::move(value));
}

void BenchReport::note(std::string_view key, JsonValue value) {
  notes_.emplace_back(std::string(key), std::move(value));
}

void BenchReport::add_table(std::string_view title,
                            const TablePrinter& table) {
  JsonArray headers;
  for (const std::string& h : table.headers()) headers.push_back(h);
  JsonArray rows;
  for (const auto& row : table.rows()) {
    JsonArray cells;
    for (const std::string& cell : row) cells.push_back(cell);
    rows.push_back(std::move(cells));
  }
  tables_.push_back(JsonObject{{"title", std::string(title)},
                               {"headers", std::move(headers)},
                               {"rows", std::move(rows)}});
}

std::string BenchReport::path() const {
  std::string dir = env_value("FOLVEC_BENCH_JSON_DIR").value_or(".");
  if (!dir.empty() && dir.back() == '/') dir.pop_back();
  return dir + "/BENCH_" + name_ + ".json";
}

bool BenchReport::write() {
  written_ = true;
  // Complete the trace / FOLVEC_METRICS files first: the report is the
  // last artifact, and its metrics snapshot must match what was flushed.
  session_.flush();
  // An injected-fault run is not comparable with a clean one; record the
  // plan so report consumers (and bench_schema_check) can tell them apart.
  if (const FaultPlan* plan = session_.fault_plan()) {
    config("fault_spec", plan->spec());
    config("fault_seed", static_cast<std::uint64_t>(plan->seed()));
  }
  const telemetry::MetricsSnapshot snap = session_.registry().snapshot();

  std::uint64_t chime_instructions = 0;
  std::uint64_t chime_elements = 0;
  for (const auto& [k, v] : snap.counters) {
    if (k.rfind("vm.op.", 0) != 0) continue;
    if (k.size() >= 13 && k.compare(k.size() - 13, 13, ".instructions") == 0) {
      chime_instructions += v;
    } else if (k.size() >= 9 && k.compare(k.size() - 9, 9, ".elements") == 0) {
      chime_elements += v;
    }
  }
  const std::chrono::duration<double> wall =
      std::chrono::steady_clock::now() - start_;

  const JsonValue doc(JsonObject{
      {"schema", "folvec-bench-report-v2"},
      {"bench", name_},
      {"config", std::move(config_)},
      {"backend", probe_backend()},
      {"chime", JsonObject{{"instructions", chime_instructions},
                           {"elements", chime_elements}}},
      {"wall", JsonObject{{"seconds", wall.count()}}},
      {"calibration", build_calibration(session_.session_profiler())},
      {"tables", std::move(tables_)},
      {"notes", std::move(notes_)},
      {"metrics", snapshot_to_json_value(snap)},
  });

  const std::string out_path = path();
  std::ofstream os(out_path);
  if (!os) {
    std::fprintf(stderr, "folvec: cannot write bench report %s\n",
                 out_path.c_str());
    return false;
  }
  os << doc.dump(2) << '\n';
  return os.good();
}

}  // namespace folvec::bench
