// folbench: the repository's benchmark binary. One process runs one
// workload for one seed and prints its result as the last line of stdout;
// see README.md for the workloads, the metrics and the traced pass.
//
//   folbench --workload <bulk_pipeline|serve_read_uniform|serve_write_zipf>
//            --seed <n> --seconds <s> --trace <0|1>
//            [--smoke] [--corrupt-reference] [--spans <file>]
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <exception>
#include <string>

#include "harness.h"

namespace {

int usage(const char* why) {
  std::fprintf(stderr,
               "folbench: %s\nusage: folbench --workload <name> --seed <n> "
               "--seconds <s> --trace <0|1> [--smoke] [--corrupt-reference] "
               "[--spans <file>]\n",
               why);
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  folbench::Options o;
  for (int i = 1; i < argc; ++i) {
    const std::string a = argv[i];
    const bool has_value = i + 1 < argc;
    if (a == "--smoke") {
      o.smoke = true;
    } else if (a == "--corrupt-reference") {
      o.corrupt_reference = true;
    } else if (!has_value) {
      return usage(("missing value for " + a).c_str());
    } else if (a == "--workload") {
      o.workload = argv[++i];
    } else if (a == "--seed") {
      o.seed = std::strtoull(argv[++i], nullptr, 10);
    } else if (a == "--seconds") {
      o.seconds = std::strtod(argv[++i], nullptr);
    } else if (a == "--trace") {
      o.trace = std::strcmp(argv[++i], "0") != 0;
    } else if (a == "--spans") {
      o.spans_path = argv[++i];
    } else {
      return usage(("unknown argument " + a).c_str());
    }
  }
  if (!(o.seconds > 0)) return usage("--seconds must be positive");

  folbench::Result r;
  try {
    if (o.workload == "bulk_pipeline") {
      r = folbench::run_bulk(o);
    } else if (o.workload == "serve_read_uniform" ||
               o.workload == "serve_write_zipf") {
      r = folbench::run_serve(o);
    } else {
      return usage(("unknown workload '" + o.workload + "'").c_str());
    }
  } catch (const std::exception& e) {
    std::fprintf(stderr, "folbench: %s failed: %s\n", o.workload.c_str(),
                 e.what());
    return 1;
  }
  if (!r.correct) {
    std::fprintf(stderr, "folbench: correctness check failed: %s\n",
                 r.why_incorrect.c_str());
  }
  std::printf("{\"host\": %s}\n", folbench::host_facts_json().c_str());
  folbench::print_result(r, o.trace);
  return r.correct ? 0 : 1;
}
