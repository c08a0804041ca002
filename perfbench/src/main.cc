// agl_perfbench: the end-to-end benchmark binary.
//
//   agl_perfbench gen --workload W --seed N --dir D
//       writes the seeded input tables D/nodes.csv and D/edges.csv;
//   agl_perfbench run --workload W --seed N --seconds T --trace 0|1 --dir D
//                     [--trace-out FILE]
//       reads them, runs the workload for T seconds, checks the outputs and
//       prints, as the last line of stdout, the operation counts, the
//       outcome of the checks and every metric the workload measured.
//
// perfbench/run.py builds this binary, drives both steps and turns the
// last line into the result object, completing and validating the
// metrics against BENCHMARK.json. The binary is also re-executed by the
// supervising driver as its shard and trainer worker processes.

#include <cstdio>
#include <cstdlib>
#include <string>

#include "bench_util.h"
#include "driver/driver.h"
#include "inputs.h"
#include "workloads.h"

namespace {

using perfbench::Metrics;

void PrintMetrics(const char* title, const Metrics& metrics) {
  std::fprintf(stderr, "%s\n", title);
  for (const auto& [name, m] : metrics) {
    std::fprintf(stderr, "  %-32s %16.6g %s\n", name.c_str(), m.value,
                 m.unit.c_str());
  }
}

int Usage() {
  std::fprintf(stderr,
               "usage: agl_perfbench gen --workload W --seed N --dir D\n"
               "       agl_perfbench run --workload W --seed N --seconds T "
               "--trace 0|1 --dir D [--trace-out FILE]\n"
               "workloads: pipeline_threads pipeline_processes serve_mixed\n");
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  if (auto code = agl::driver::RunWorkerIfSpawned(argc, argv)) return *code;
  if (argc < 2) return Usage();
  const std::string mode = argv[1];
  perfbench::RunOptions options;
  for (int i = 2; i + 1 < argc; i += 2) {
    const std::string flag = argv[i], value = argv[i + 1];
    if (flag == "--workload") {
      options.workload = value;
    } else if (flag == "--seed") {
      options.seed = std::strtoull(value.c_str(), nullptr, 10);
    } else if (flag == "--seconds") {
      options.seconds = std::strtod(value.c_str(), nullptr);
    } else if (flag == "--trace") {
      options.trace = value == "1";
    } else if (flag == "--dir") {
      options.dir = value;
    } else if (flag == "--trace-out") {
      options.trace_out = value;
    } else {
      return Usage();
    }
  }
  const bool pipeline = options.workload == "pipeline_threads" ||
                        options.workload == "pipeline_processes";
  if ((!pipeline && options.workload != "serve_mixed") || options.dir.empty()) {
    return Usage();
  }

  if (mode == "gen") {
    const perfbench::Graph graph = pipeline
                                       ? perfbench::MakePipelineGraph(options.seed)
                                       : perfbench::MakeServeGraph(options.seed);
    std::string error;
    if (!perfbench::WriteCsvTables(graph, options.dir + "/nodes.csv",
                                   options.dir + "/edges.csv", &error)) {
      std::fprintf(stderr, "gen: %s\n", error.c_str());
      return 1;
    }
    std::fprintf(stderr, "gen: %zu nodes, %zu edges, max in-degree %lld\n",
                 graph.ids.size(), graph.edges.size(),
                 static_cast<long long>(graph.MaxInDegree()));
    return 0;
  }
  if (mode != "run") return Usage();

  perfbench::Tracer tracer(options.trace);
  perfbench::RunResult result;
  std::string error;
  const bool reached_end =
      pipeline ? perfbench::RunPipeline(options,
                                        options.workload == "pipeline_processes",
                                        &tracer, &result, &error)
               : perfbench::RunServe(options, &tracer, &result, &error);
  if (!reached_end) {
    std::fprintf(stderr, "%s: %s\n", options.workload.c_str(), error.c_str());
    return 1;
  }
  for (const std::string& why : result.check_failures) {
    std::fprintf(stderr, "CHECK FAILED: %s\n", why.c_str());
  }
  PrintMetrics("end-to-end:", result.end_to_end);
  PrintMetrics("per-layer:", result.per_layer);
  PrintMetrics("workload figures:", result.extra);
  if (options.trace && !options.trace_out.empty()) {
    Metrics other = result.extra;
    for (const auto& [name, m] : result.end_to_end) other["e2e." + name] = m;
    if (!tracer.WriteChromeTrace(options.trace_out, other)) {
      std::fprintf(stderr, "cannot write %s\n", options.trace_out.c_str());
      return 1;
    }
    std::fprintf(stderr, "trace: %zu spans -> %s\n", tracer.num_events(),
                 options.trace_out.c_str());
  }
  std::printf("%s\n", perfbench::ResultJson(result).c_str());
  return 0;
}
