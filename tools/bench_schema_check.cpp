// bench_schema_check: validates machine-readable bench reports.
//
// Every bench binary writes a `BENCH_<name>.json` next to its stdout tables
// (schema "folvec-bench-report-v2", emitted by bench_harness/report.cpp).
// CI runs one bench per family and then feeds the resulting files through
// this checker, so a field rename, a malformed document, or a table whose
// rows drifted from its headers fails the build instead of silently
// producing artifacts nobody can load.
//
// Usage: bench_schema_check FILE...
// Exits 0 iff every file parses and conforms; prints one line per problem.
#include <cstdio>
#include <exception>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "support/json.h"

namespace {

using folvec::JsonValue;

/// Collects problems for one file; empty means the file conforms.
class Checker {
 public:
  explicit Checker(std::string path) : path_(std::move(path)) {}

  void fail(const std::string& what) { problems_.push_back(what); }

  /// Fetches `parent.key`, recording a problem when absent.
  const JsonValue* require(const JsonValue& parent, const std::string& key,
                           const std::string& where) {
    const JsonValue* v = parent.find(key);
    if (v == nullptr) fail("missing key \"" + key + "\" in " + where);
    return v;
  }

  const JsonValue* require_object(const JsonValue& parent,
                                  const std::string& key,
                                  const std::string& where) {
    const JsonValue* v = require(parent, key, where);
    if (v != nullptr && !v->is_object()) {
      fail("\"" + key + "\" in " + where + " must be an object");
      return nullptr;
    }
    return v;
  }

  void require_uint(const JsonValue& parent, const std::string& key,
                    const std::string& where) {
    const JsonValue* v = require(parent, key, where);
    if (v == nullptr) return;
    if (!v->is_number() || v->as_number() < 0) {
      fail("\"" + key + "\" in " + where + " must be a non-negative number");
    }
  }

  void check_table(const JsonValue& table, const std::string& where) {
    if (!table.is_object()) {
      fail(where + " must be an object");
      return;
    }
    const JsonValue* title = require(table, "title", where);
    if (title != nullptr && !title->is_string()) {
      fail(where + ".title must be a string");
    }
    const JsonValue* headers = require(table, "headers", where);
    std::size_t width = 0;
    if (headers != nullptr) {
      if (!headers->is_array() || headers->as_array().empty()) {
        fail(where + ".headers must be a non-empty array");
      } else {
        width = headers->as_array().size();
        for (const JsonValue& h : headers->as_array()) {
          if (!h.is_string()) fail(where + ".headers must hold strings");
        }
      }
    }
    const JsonValue* rows = require(table, "rows", where);
    if (rows == nullptr) return;
    if (!rows->is_array()) {
      fail(where + ".rows must be an array");
      return;
    }
    for (std::size_t r = 0; r < rows->as_array().size(); ++r) {
      const JsonValue& row = rows->as_array()[r];
      const std::string row_where =
          where + ".rows[" + std::to_string(r) + "]";
      if (!row.is_array()) {
        fail(row_where + " must be an array");
        continue;
      }
      if (width != 0 && row.as_array().size() != width) {
        fail(row_where + " has " + std::to_string(row.as_array().size()) +
             " cells, headers declare " + std::to_string(width));
      }
      for (const JsonValue& cell : row.as_array()) {
        if (!cell.is_string()) fail(row_where + " must hold strings");
      }
    }
  }

  void check_backend(const JsonValue& backend) {
    const JsonValue* name = require(backend, "name", "backend");
    const bool simd = name != nullptr && name->is_string() &&
                      name->as_string() == "simd";
    if (name != nullptr &&
        (!name->is_string() ||
         (name->as_string() != "serial" && name->as_string() != "simd"))) {
      fail("backend.name must be \"serial\" or \"simd\"");
    }
    const JsonValue* level = require(backend, "simd_level", "backend");
    // The level travels with the backend: a string exactly for simd.
    if (level != nullptr && simd && !level->is_string()) {
      fail("backend.simd_level must name the level of the simd backend");
    }
    if (level != nullptr && !simd && !level->is_null()) {
      fail("backend.simd_level must be null for the serial backend");
    }
  }

  void require_number(const JsonValue& parent, const std::string& key,
                      const std::string& where) {
    const JsonValue* v = require(parent, key, where);
    if (v != nullptr && !v->is_number()) {
      fail("\"" + key + "\" in " + where + " must be a number");
    }
  }

  /// The v2 model-fidelity section: a fit + percentiles per op class seen
  /// by the session profiler, plus the worst-residual ranking. `ops` may
  /// legitimately be empty (a bench that never ran a machine op).
  void check_calibration(const JsonValue& calibration) {
    const JsonValue* model = require(calibration, "model", "calibration");
    if (model != nullptr && !model->is_string()) {
      fail("calibration.model must be a string");
    }
    require_uint(calibration, "clock_hz", "calibration");
    const JsonValue* ops = require_object(calibration, "ops", "calibration");
    if (ops != nullptr) {
      for (const auto& [name, entry] : ops->as_object()) {
        const std::string where = "calibration.ops[\"" + name + "\"]";
        if (!entry.is_object()) {
          fail(where + " must be an object");
          continue;
        }
        require_uint(entry, "samples", where);
        require_uint(entry, "elements", where);
        // The fitted intercept/slope can be negative on noisy series; only
        // presence and numeric-ness are structural.
        require_number(entry, "a_ns", where);
        require_number(entry, "b_ns", where);
        const JsonValue* r2 = require(entry, "r2", where);
        if (r2 != nullptr &&
            (!r2->is_number() || r2->as_number() < 0.0 ||
             r2->as_number() > 1.0)) {
          fail(where + ".r2 must be a number in [0, 1]");
        }
        require_uint(entry, "rms_residual_ns", where);
        require_uint(entry, "wall_ns_p50", where);
        require_uint(entry, "wall_ns_p90", where);
        require_uint(entry, "wall_ns_p99", where);
      }
    }
    const JsonValue* worst =
        require(calibration, "worst_residual_ops", "calibration");
    if (worst != nullptr) {
      if (!worst->is_array()) {
        fail("calibration.worst_residual_ops must be an array");
      } else {
        for (const JsonValue& v : worst->as_array()) {
          if (!v.is_string()) {
            fail("calibration.worst_residual_ops must hold op-class names");
          } else if (ops != nullptr && ops->find(v.as_string()) == nullptr) {
            fail("calibration.worst_residual_ops names \"" + v.as_string() +
                 "\" which is absent from calibration.ops");
          }
        }
      }
    }
  }

  void check_metrics(const JsonValue& metrics) {
    for (const char* section :
         {"counters", "gauges", "histograms", "timings", "labels"}) {
      require_object(metrics, section, "metrics");
    }
    const JsonValue* counters = metrics.find("counters");
    if (counters != nullptr && counters->is_object()) {
      for (const auto& [key, value] : counters->as_object()) {
        if (!value.is_number() || value.as_number() < 0) {
          fail("metrics.counters[\"" + key +
               "\"] must be a non-negative number");
        }
      }
    }
  }

  /// An injected-fault run is not comparable with a clean one: any fault.*
  /// counter in the metrics requires the report to carry its FaultPlan
  /// (config.fault_spec / config.fault_seed, recorded by BenchReport) so
  /// report consumers can tell the two apart. One-directional on purpose —
  /// a declared plan whose sites never fired leaves no counters and is
  /// still a valid clean-looking run.
  void check_fault_provenance(const JsonValue& config,
                              const JsonValue& metrics) {
    const JsonValue* counters = metrics.find("counters");
    if (counters == nullptr || !counters->is_object()) return;
    std::string example;
    for (const auto& [key, value] : counters->as_object()) {
      if (key.rfind("fault.", 0) == 0) {
        example = key;
        break;
      }
    }
    if (example.empty()) return;
    const JsonValue* spec = config.find("fault_spec");
    if (spec == nullptr || !spec->is_string() || spec->as_string().empty()) {
      fail("metrics.counters[\"" + example +
           "\"] recorded but config.fault_spec is missing: injected-fault "
           "reports must carry their fault plan");
    }
    const JsonValue* seed = config.find("fault_seed");
    if (seed == nullptr || !seed->is_number()) {
      fail("metrics.counters[\"" + example +
           "\"] recorded but config.fault_seed is missing: injected-fault "
           "reports must carry their fault seed");
    }
  }

  void check_document(const JsonValue& doc) {
    if (!doc.is_object()) {
      fail("top level must be an object");
      return;
    }
    const JsonValue* schema = require(doc, "schema", "top level");
    if (schema != nullptr &&
        (!schema->is_string() ||
         schema->as_string() != "folvec-bench-report-v2")) {
      fail("schema must be the string \"folvec-bench-report-v2\"");
    }
    const JsonValue* bench = require(doc, "bench", "top level");
    if (bench != nullptr &&
        (!bench->is_string() || bench->as_string().empty())) {
      fail("bench must be a non-empty string");
    }
    const JsonValue* config = require_object(doc, "config", "top level");
    require_object(doc, "notes", "top level");

    if (const JsonValue* backend =
            require_object(doc, "backend", "top level")) {
      check_backend(*backend);
    }
    if (const JsonValue* chime = require_object(doc, "chime", "top level")) {
      require_uint(*chime, "instructions", "chime");
      require_uint(*chime, "elements", "chime");
    }
    if (const JsonValue* wall = require_object(doc, "wall", "top level")) {
      require_uint(*wall, "seconds", "wall");
    }
    if (const JsonValue* calibration =
            require_object(doc, "calibration", "top level")) {
      check_calibration(*calibration);
    }
    const JsonValue* tables = require(doc, "tables", "top level");
    if (tables != nullptr) {
      if (!tables->is_array()) {
        fail("tables must be an array");
      } else {
        for (std::size_t i = 0; i < tables->as_array().size(); ++i) {
          check_table(tables->as_array()[i],
                      "tables[" + std::to_string(i) + "]");
        }
      }
    }
    if (const JsonValue* metrics =
            require_object(doc, "metrics", "top level")) {
      check_metrics(*metrics);
      if (config != nullptr) check_fault_provenance(*config, *metrics);
    }
  }

  /// Reads, parses, and validates the file. Returns true on success.
  bool run() {
    std::ifstream in(path_);
    if (!in) {
      fail("cannot open file");
      return report();
    }
    std::stringstream buf;
    buf << in.rdbuf();
    try {
      check_document(JsonValue::parse(buf.str()));
    } catch (const std::exception& e) {
      fail(std::string("invalid JSON: ") + e.what());
    }
    return report();
  }

 private:
  bool report() const {
    if (problems_.empty()) {
      std::printf("ok      %s\n", path_.c_str());
      return true;
    }
    for (const std::string& p : problems_) {
      std::printf("FAIL    %s: %s\n", path_.c_str(), p.c_str());
    }
    return false;
  }

  std::string path_;
  std::vector<std::string> problems_;
};

}  // namespace

int main(int argc, char** argv) {
  if (argc < 2) {
    std::fprintf(stderr,
                 "usage: %s BENCH_report.json...\n"
                 "validates folvec-bench-report-v2 documents\n",
                 argv[0]);
    return 2;
  }
  int failures = 0;
  for (int i = 1; i < argc; ++i) {
    if (!Checker(argv[i]).run()) ++failures;
  }
  if (failures > 0) {
    std::printf("%d of %d report(s) failed schema validation\n", failures,
                argc - 1);
    return 1;
  }
  return 0;
}
