// The TARA benchmark driver:
//   tara_perfbench --workload explore|serve|ingest --seed N --seconds S
//                  --trace 0|1
//   tara_perfbench --selftest
// The last line of standard output is one JSON object: correct, attempted,
// failed and the metrics (end-to-end with --trace 0, per-layer with 1).

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <exception>
#include <string>

#include "bench.h"

namespace tara::perfbench {
namespace {

int Usage() {
  std::fprintf(stderr,
               "usage: tara_perfbench --workload explore|serve|ingest "
               "--seed N --seconds S --trace 0|1\n"
               "       tara_perfbench --selftest\n");
  return 2;
}

void PrintResult(const Outcome& out) {
  std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, "
              "\"metrics\": {",
              out.errors.empty() ? "true" : "false",
              static_cast<unsigned long long>(out.attempted),
              static_cast<unsigned long long>(out.failed));
  for (size_t i = 0; i < out.metrics.size(); ++i) {
    const Metric& m = out.metrics[i];
    std::printf("%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}",
                i == 0 ? "" : ", ", m.name.c_str(), m.value, m.unit.c_str());
  }
  std::printf("}}\n");
}

int Main(int argc, char** argv) {
  Args args;
  bool have_workload = false;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (flag == "--selftest") return RunCheckSelfTest();
    if (i + 1 >= argc) return Usage();
    const char* value = argv[++i];
    if (flag == "--workload") {
      args.workload = value;
      have_workload = true;
    } else if (flag == "--seed") {
      args.seed = std::strtoull(value, nullptr, 10);
    } else if (flag == "--seconds") {
      args.seconds = std::atof(value);
    } else if (flag == "--trace") {
      args.trace = std::strcmp(value, "0") != 0;
    } else {
      return Usage();
    }
  }
  if (!have_workload || !(args.seconds > 0)) return Usage();
  Tracer tracer;
  Tracer* spans = args.trace ? &tracer : nullptr;
  Outcome out;
  if (args.workload == "explore") {
    out = RunExplore(args, spans);
  } else if (args.workload == "serve") {
    out = RunServe(args, spans);
  } else if (args.workload == "ingest") {
    out = RunIngest(args, spans);
  } else {
    return Usage();
  }
  for (const std::string& error : out.errors) {
    std::fprintf(stderr, "check failed: %s\n", error.c_str());
  }
  if (args.trace) {
    const std::string path = ".bench_out/trace-" + args.workload + "-seed" +
                             std::to_string(args.seed) + ".jsonl";
    if (!tracer.WriteJsonl(path)) return 1;
    std::printf("spans: %zu written to %s\n", tracer.spans().size(),
                path.c_str());
  }
  PrintResult(out);
  return 0;
}

}  // namespace
}  // namespace tara::perfbench

int main(int argc, char** argv) {
  try {
    return tara::perfbench::Main(argc, argv);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "tara_perfbench: %s\n", e.what());
    return 1;
  }
}
