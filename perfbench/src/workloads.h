// The benchmark's workloads. Each one reads the CSV tables the `gen` step
// wrote into `dir`, runs for `seconds`, checks every output against the
// reference computations and fills a RunResult. The helpers below are the
// pieces both workloads share.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "bench_util.h"
#include "flat/csv_io.h"
#include "gnn/model.h"

namespace perfbench {

struct RunOptions {
  std::string workload;
  uint64_t seed = 0;
  double seconds = 0;
  bool trace = false;
  /// Private scratch directory of this run: the CSV tables and the DFS.
  std::string dir;
  /// Chrome trace-event file written at the end of a traced run.
  std::string trace_out;
};

/// `pipeline_threads` (processes = false) and `pipeline_processes`.
/// Returns false when the run could not reach its end (set-up failed).
bool RunPipeline(const RunOptions& options, bool processes, Tracer* tracer,
                 RunResult* result, std::string* error);

/// `serve_mixed`.
bool RunServe(const RunOptions& options, Tracer* tracer, RunResult* result,
              std::string* error);

// --- shared by the workloads ---------------------------------------------

/// Both workloads flatten 2-hop neighborhoods and run a 2-layer model.
constexpr int kHops = 2;

/// The 2-layer GraphSAGE both workloads train or serve.
agl::gnn::ModelConfig SageConfig(int64_t in_dim);

/// part / whole, 0 when there is no whole.
double Share(double part, double whole);

/// Reads `dir`/nodes.csv and `dir`/edges.csv through the program's CSV
/// reader, inside a span; `*seconds` is the time the two reads took.
bool ReadTables(const std::string& dir, Tracer* tracer,
                std::vector<agl::flat::NodeRecord>* nodes,
                std::vector<agl::flat::EdgeRecord>* edges, double* seconds,
                std::string* error);

}  // namespace perfbench
