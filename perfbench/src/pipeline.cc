// pipeline_threads / pipeline_processes: the paper's Figure 6 flow,
// repeated for the run's duration. One pass is
//
//   PageRank -> append the score as a node feature -> GraphFlat (2 hops,
//   uniform sampling, hub re-indexing, 4 shards) -> read the GraphFeatures
//   back off the DFS -> SSP training of a 2-layer GraphSAGE -> GraphInfer
//   over every node,
//
// in one process (threads, in-memory exchange, in-process PS) or through
// the supervising driver (shard processes over the DFS exchange, trainer
// worker processes over the PS socket). GraphInfer has no processes mode,
// so it runs in-process in both.

#include <cstdio>
#include <memory>

#include "agl/agl.h"
#include "analytics/programs.h"
#include "driver/driver.h"
#include "flat/csv_io.h"
#include "reference.h"
#include "workloads.h"

namespace perfbench {

namespace {

constexpr int64_t kSamplerCap = 10;
constexpr int64_t kHubThreshold = 100;
constexpr int kShards = 4;
constexpr int kMrWorkers = 1;  // per shard: 4 shards x 1 = nproc threads
constexpr int kTrainWorkers = 2;
constexpr int kEpochs = 4;
constexpr int kBatch = 32;
constexpr int64_t kStalenessBound = 1;
constexpr double kDamping = 0.85;
// PageRank runs a fixed number of supersteps (tolerance 0 keeps every
// changed vertex active), so its work does not depend on how fast a seed's
// graph converges.
constexpr double kPageRankTolerance = 0.0;
constexpr int kSupersteps = 30;
// Check tolerances. PageRank is compared with the converged power
// iteration: an iteration contracts the error by d, so 30 steps leave up to
// d^30 = 7.6e-3 of the start's error, and 1e-2 (relative) covers it while
// a value moved by 5% still fails. Scores are float forwards checked
// against a double one.
constexpr double kPageRankCheck = 1e-2;
constexpr double kScoreCheck = 1e-4;
constexpr double kAucFloor = 0.7;
constexpr int kOpsPerPass = 5;  // PageRank, GraphFlat, DFS read, train, infer
constexpr char kFeatures[] = "features";

using agl::flat::EdgeRecord;
using agl::flat::NodeRecord;

/// Everything one pass measured.
struct Pass {
  bool ok = false;
  int64_t failed_ops = 0;
  double pass_s = 0, pagerank_s = 0, flat_s = 0, load_s = 0, train_s = 0,
         infer_s = 0;
  agl::analytics::AnalyticsResult pagerank;
  agl::flat::GraphFlatStats flat;
  std::vector<agl::subgraph::GraphFeature> features;
  uint64_t feature_bytes = 0;
  agl::trainer::TrainReport train;
  int64_t train_samples = 0;
  agl::infer::InferResult infer;
  agl::driver::DriverStats pagerank_driver, flat_driver, train_driver;
};

agl::flat::GraphFlatConfig FlatConfig() {
  agl::flat::GraphFlatConfig c;
  c.hops = kHops;
  c.sampler = {agl::sampling::Strategy::kUniform, kSamplerCap};
  c.hub_threshold = kHubThreshold;
  c.targets = agl::flat::GraphFlatConfig::Targets::kLabeledNodes;
  c.num_shards = kShards;
  c.job.num_workers = kMrWorkers;
  return c;
}

agl::analytics::AnalyticsConfig AnalyticsConfig() {
  agl::analytics::AnalyticsConfig c;
  c.max_supersteps = kSupersteps;
  c.num_shards = kShards;
  c.job.num_workers = kMrWorkers;
  return c;
}

agl::trainer::TrainerConfig TrainConfig(int64_t in_dim) {
  agl::trainer::TrainerConfig c;
  c.model = SageConfig(in_dim);
  c.task = agl::trainer::TaskKind::kBinaryAuc;
  c.sync_mode = agl::trainer::SyncMode::kSsp;
  c.staleness_bound = kStalenessBound;
  c.num_workers = kTrainWorkers;
  c.epochs = kEpochs;
  c.batch_size = kBatch;
  c.adam.lr = 0.01f;
  return c;
}

/// Validation split: every fourth labeled target, by id.
bool IsValidation(uint64_t id) { return (id * 0x9e3779b97f4a7c15ULL) >> 62 == 0; }

/// One Figure 6 pass. Every pass attempts kOpsPerPass operations; a stage
/// that fails fails the stages after it too, so the share of failed
/// operations depends only on which stage broke.
Pass RunPass(bool processes, int pass_index, const std::vector<NodeRecord>& nodes,
             const std::vector<EdgeRecord>& edges, agl::mr::LocalDfs* dfs,
             Tracer* tracer) {
  Pass p;
  p.failed_ops = kOpsPerPass;
  Tracer::Span pass_span(tracer, "pipeline.pass", "pipeline");
  agl::driver::DriverOptions driver;
  driver.dfs = dfs;
  const std::string job = "p" + std::to_string(pass_index);
  const double t0 = Now();

  {  // PageRank.
    Tracer::Span s(tracer, "analytics.pagerank", "analytics");
    const double t = Now();
    agl::Result<agl::analytics::AnalyticsResult> r =
        agl::Status::Internal("not run");
    if (processes) {
      driver.job_prefix = job + "pr";
      agl::driver::ProgramSpec spec;
      spec.name = "pagerank";
      spec.damping = kDamping;
      spec.tolerance = kPageRankTolerance;
      r = agl::driver::RunAnalyticsProcesses(driver, AnalyticsConfig(), spec,
                                             nodes, edges, &p.pagerank_driver);
    } else {
      agl::analytics::PageRankProgram program(kDamping, kPageRankTolerance);
      r = agl::Run(AnalyticsConfig(), program, nodes, edges);
    }
    p.pagerank_s = Now() - t;
    if (!r.ok()) {
      std::fprintf(stderr, "pagerank failed: %s\n", r.status().ToString().c_str());
      return p;
    }
    p.pagerank = std::move(r).value();
    s.Arg("supersteps", p.pagerank.stats.supersteps);
    s.Arg("shuffled_records",
          static_cast<double>(p.pagerank.stats.job_stats.shuffled_records));
  }
  p.failed_ops--;

  auto augmented = agl::analytics::AugmentNodeTable(nodes, p.pagerank);
  {  // GraphFlat.
    Tracer::Span s(tracer, "flat.graphflat", "flat");
    const double t = Now();
    agl::Result<agl::flat::GraphFlatStats> r = agl::Status::Internal("not run");
    if (!augmented.ok()) {
      r = augmented.status();
    } else if (processes) {
      driver.job_prefix = job + "gf";
      r = agl::driver::RunGraphFlatProcesses(driver, FlatConfig(), *augmented,
                                             edges, dfs, kFeatures,
                                             &p.flat_driver);
    } else {
      r = agl::Run(FlatConfig(), *augmented, edges, dfs, kFeatures);
    }
    p.flat_s = Now() - t;
    if (!r.ok()) {
      std::fprintf(stderr, "graphflat failed: %s\n", r.status().ToString().c_str());
      return p;
    }
    p.flat = *r;
    s.Arg("features", static_cast<double>(p.flat.num_features));
    s.Arg("shuffled_records",
          static_cast<double>(p.flat.job_stats.shuffled_records));
  }
  p.failed_ops--;

  {  // GraphFeatures back off the DFS.
    Tracer::Span s(tracer, "mr.load_graph_features", "mr");
    const double t = Now();
    auto r = agl::LoadGraphFeatures(*dfs, kFeatures);
    p.load_s = Now() - t;
    auto bytes = dfs->DatasetBytes(kFeatures);
    if (!r.ok() || !bytes.ok()) {
      std::fprintf(stderr, "reading features failed: %s\n",
                   (r.ok() ? bytes.status() : r.status()).ToString().c_str());
      return p;
    }
    p.features = std::move(r).value();
    p.feature_bytes = *bytes;
    s.Arg("bytes", static_cast<double>(p.feature_bytes));
  }
  p.failed_ops--;

  std::vector<agl::subgraph::GraphFeature> train, val;
  for (const auto& f : p.features) {
    (IsValidation(f.target_id) ? val : train).push_back(f);
  }
  p.train_samples = static_cast<int64_t>(train.size()) * kEpochs;
  const int64_t in_dim =
      augmented.ok() && !augmented->empty()
          ? static_cast<int64_t>((*augmented)[0].features.size())
          : 0;
  {  // Training.
    Tracer::Span s(tracer, "trainer.train", "trainer");
    const double t = Now();
    agl::Result<agl::trainer::TrainReport> r = agl::Status::Internal("not run");
    if (processes) {
      driver.job_prefix = job + "tr";
      r = agl::driver::TrainProcesses(driver, TrainConfig(in_dim), train, val,
                                      &p.train_driver);
    } else {
      r = agl::Run(TrainConfig(in_dim), train, val);
    }
    p.train_s = Now() - t;
    if (!r.ok()) {
      std::fprintf(stderr, "training failed: %s\n", r.status().ToString().c_str());
      return p;
    }
    p.train = std::move(r).value();
    s.Arg("samples", static_cast<double>(p.train_samples));
    s.Arg("ps_pulls", static_cast<double>(p.train.ps_stats.pulls));
  }
  p.failed_ops--;

  {  // GraphInfer over every node (in-process in both modes).
    Tracer::Span s(tracer, "infer.graphinfer", "infer");
    agl::infer::InferConfig config;
    config.model = SageConfig(in_dim);
    config.job.num_workers = kMrWorkers;
    config.num_shards = kShards;
    const double t = Now();
    auto r = agl::Run(config, p.train.final_state, *augmented, edges);
    p.infer_s = Now() - t;
    if (!r.ok()) {
      std::fprintf(stderr, "graphinfer failed: %s\n", r.status().ToString().c_str());
      return p;
    }
    p.infer = std::move(r).value();
    s.Arg("embedding_evaluations",
          static_cast<double>(p.infer.costs.embedding_evaluations));
  }
  p.failed_ops--;
  p.pass_s = Now() - t0;
  p.ok = true;
  return p;
}

/// Reference checks of one pass (and, on the first, the self-tests that
/// prove each check rejects a corrupted output).
void CheckPass(const Pass& p, bool self_test, const Graph& graph,
               const std::vector<double>& pagerank, RunResult* result) {
  auto record = [&](const std::string& why) {
    if (!why.empty()) result->Fail(why);
  };
  const int64_t base_dims = static_cast<int64_t>(graph.features[0].size());
  if (p.pagerank.stats.supersteps != kSupersteps) {
    result->Fail("pagerank: ran " + std::to_string(p.pagerank.stats.supersteps) +
                 " supersteps, configured " + std::to_string(kSupersteps));
  }
  record(CheckPageRank(graph, pagerank, p.pagerank.values, kPageRankCheck));
  record(CheckGraphFeatures(graph, p.features, kHops, kSamplerCap, base_dims));
  int64_t labeled = 0;
  for (int64_t label : graph.labels) labeled += label >= 0;
  if (static_cast<int64_t>(p.features.size()) != labeled) {
    result->Fail("graphflat: " + std::to_string(p.features.size()) +
                 " features for " + std::to_string(labeled) +
                 " labeled nodes");
  }
  record(CheckTraining(p.train, kAucFloor, kStalenessBound));
  // GraphInfer's input: the table features plus the PageRank value the
  // pass computed (itself checked above).
  std::vector<std::vector<float>> augmented = graph.features;
  for (const auto& [id, value] : p.pagerank.values) {
    auto it = graph.index.find(id);
    if (it != graph.index.end()) {
      augmented[it->second].push_back(static_cast<float>(value));
    }
  }
  for (const auto& row : augmented) {
    if (row.size() != graph.features[0].size() + 1) {
      result->Fail("pagerank: a node has no value to append to its features");
      return;
    }
  }
  std::string error;
  const auto dense = DenseSageForward(graph, augmented, p.train.final_state,
                                      kHops, &error);
  if (!error.empty()) {
    result->Fail("dense forward: " + error);
    return;
  }
  if (p.infer.scores.size() != graph.ids.size()) {
    result->Fail("graphinfer: " + std::to_string(p.infer.scores.size()) +
                 " score rows for " + std::to_string(graph.ids.size()) +
                 " nodes");
  }
  record(CheckScores(graph, dense, p.infer.scores, kScoreCheck));
  if (self_test) {
    record(SelfTestPageRank(graph, pagerank, p.pagerank.values, kPageRankCheck));
    record(SelfTestGraphFeatures(graph, p.features, kHops, kSamplerCap,
                                 base_dims));
    record(SelfTestTraining(p.train, kAucFloor, kStalenessBound));
    record(SelfTestScores(graph, dense, p.infer.scores, kScoreCheck));
  }
}

}  // namespace

bool RunPipeline(const RunOptions& options, bool processes, Tracer* tracer,
                 RunResult* result, std::string* error) {
  // --- Set-up, timed from process start: DFS open, CSV table reads and
  // the first, cold pass (first stage calls: worker pools, first-touch
  // allocations). The warm passes after it make the measured window. ---
  std::vector<NodeRecord> nodes;
  std::vector<EdgeRecord> edges;
  double table_load_s = 0;
  auto dfs = agl::mr::LocalDfs::Open(options.dir + "/dfs");
  if (!dfs.ok()) {
    *error = "dfs: " + dfs.status().ToString();
    return false;
  }
  if (!ReadTables(options.dir, tracer, &nodes, &edges, &table_load_s, error)) {
    return false;
  }
  std::vector<Pass> passes;
  auto run_pass = [&] {
    Pass p = RunPass(processes, static_cast<int>(passes.size()), nodes, edges,
                     &*dfs, tracer);
    result->attempted += kOpsPerPass;
    result->failed += p.failed_ops;
    passes.push_back(std::move(p));
  };
  run_pass();
  const double setup_s = SecondsSinceProcessStart();

  // The benchmark's own copy of the inputs, for the reference checks.
  const Graph graph = MakePipelineGraph(options.seed);
  const std::vector<double> pagerank = ReferencePageRank(graph, kDamping);
  if (graph.MaxInDegree() <= kHubThreshold) {
    result->Fail("inputs: no hub above the re-index threshold");
  }
  auto check_last = [&] {
    Pass& p = passes.back();
    if (p.ok) CheckPass(p, passes.size() == 1, graph, pagerank, result);
    // The checks are done with the bulky outputs; keep the figures.
    p.features.clear();
    p.features.shrink_to_fit();
    p.pagerank.values.clear();
    p.infer.scores.clear();
    p.train.final_state.clear();
  };
  check_last();

  // --- Measured window: whole warm passes until the time is up. ---
  const double window_start = Now();
  while (passes.size() < 2 || Now() - window_start < options.seconds) {
    run_pass();
    check_last();
  }

  // --- Figures: medians over the passes that completed. ---
  std::vector<const Pass*> ok;
  for (std::size_t i = 1; i < passes.size(); ++i) {
    if (passes[i].ok) ok.push_back(&passes[i]);
  }
  auto med = [&](auto fn) {
    std::vector<double> v;
    for (const Pass* p : ok) v.push_back(static_cast<double>(fn(*p)));
    return Median(v);
  };
  const double n_nodes = static_cast<double>(graph.ids.size());

  Metrics& e2e = result->end_to_end;
  e2e["setup_s"] = {setup_s, "s"};
  e2e["peak_rss_mb"] = {PeakRssMb(), "MB"};
  e2e["e2e_p50_ms"] = {med([](const Pass& p) { return p.pass_s; }) * 1e3, "ms"};
  e2e["graphflat_targets_per_s"] = {
      med([](const Pass& p) {
        return static_cast<double>(p.flat.num_features) / p.flat_s;
      }),
      "targets/s"};
  e2e["infer_nodes_per_s"] = {med([&](const Pass& p) { return n_nodes / p.infer_s; }),
                              "nodes/s"};

  Metrics& pl = result->per_layer;
  auto flat_exchange = [&](const Pass& p) {
    return processes ? p.flat_driver.exchange : p.flat.exchange;
  };
  auto pagerank_exchange = [&](const Pass& p) {
    return processes ? p.pagerank_driver.exchange : p.pagerank.stats.exchange;
  };
  pl["mr.flat_shuffled_records"] = {
      med([](const Pass& p) { return p.flat.job_stats.shuffled_records; }), "count"};
  pl["mr.flat_max_task_records"] = {
      med([](const Pass& p) { return p.flat.job_stats.max_reduce_task_records; }),
      "count"};
  pl["mr.flat_task_attempts"] = {
      med([](const Pass& p) { return p.flat.job_stats.task_attempts; }), "count"};
  pl["mr.flat_task_s"] = {
      med([](const Pass& p) { return p.flat.job_stats.elapsed_seconds; }), "s"};
  pl["mr.pagerank_shuffled_records"] = {
      med([](const Pass& p) { return p.pagerank.stats.job_stats.shuffled_records; }),
      "count"};
  pl["mr.dfs_read_features_s"] = {med([](const Pass& p) { return p.load_s; }), "s"};
  pl["mr.dfs_feature_bytes"] = {med([](const Pass& p) { return p.feature_bytes; }),
                                "bytes"};
  pl["analytics.supersteps"] = {
      med([](const Pass& p) { return p.pagerank.stats.supersteps; }), "count"};
  pl["analytics.messages"] = {med([](const Pass& p) {
                                int64_t m = 0;
                                for (int64_t x : p.pagerank.stats.messages_per_round) m += x;
                                return m;
                              }),
                              "count"};
  pl["analytics.busy_share"] = {
      med([](const Pass& p) { return Share(p.pagerank_s, p.pass_s); }), "share"};
  pl["analytics.exchange_bytes"] = {
      med([&](const Pass& p) { return pagerank_exchange(p).bytes_published; }),
      "bytes"};
  pl["analytics.exchange_wait_share"] = {
      med([&](const Pass& p) {
        return Share(pagerank_exchange(p).wait_seconds, p.pagerank_s);
      }),
      "share"};
  pl["flat.table_load_s"] = {table_load_s, "s"};
  pl["flat.initial_flatten_s"] = {passes.front().flat_s, "s"};
  pl["flat.neighborhood_nodes"] = {
      med([](const Pass& p) { return p.flat.total_nodes; }), "count"};
  pl["flat.max_neighborhood_nodes"] = {
      med([](const Pass& p) { return p.flat.max_nodes; }), "count"};
  pl["flat.exchange_publishes"] = {
      med([&](const Pass& p) { return flat_exchange(p).publishes; }), "count"};
  pl["flat.exchange_bytes"] = {
      med([&](const Pass& p) { return flat_exchange(p).bytes_published; }), "bytes"};
  pl["flat.exchange_wait_s"] = {
      med([&](const Pass& p) { return flat_exchange(p).wait_seconds; }), "s"};
  pl["driver.spawns"] = {med([](const Pass& p) {
                           return p.pagerank_driver.spawns + p.flat_driver.spawns +
                                  p.train_driver.spawns;
                         }),
                         "count"};
  pl["driver.restarts"] = {med([](const Pass& p) {
                             return p.pagerank_driver.restarts +
                                    p.flat_driver.restarts + p.train_driver.restarts;
                           }),
                           "count"};
  auto stage_sum = [](const Pass& p, double agl::trainer::EpochRecord::*field) {
    double s = 0;
    for (const auto& e : p.train.epochs) s += e.*field;
    return s;
  };
  using agl::trainer::EpochRecord;
  pl["trainer.prep_share"] = {med([&](const Pass& p) {
                                return Share(stage_sum(p, &EpochRecord::prep_seconds),
                                             p.train_s);
                              }),
                              "share"};
  pl["trainer.compute_share"] = {
      med([&](const Pass& p) {
        return Share(stage_sum(p, &EpochRecord::compute_seconds), p.train_s);
      }),
      "share"};
  pl["trainer.comm_share"] = {med([&](const Pass& p) {
                                return Share(stage_sum(p, &EpochRecord::comm_seconds),
                                             p.train_s);
                              }),
                              "share"};
  pl["trainer.final_loss"] = {med([](const Pass& p) {
                                return p.train.epochs.empty()
                                           ? 0.0
                                           : p.train.epochs.back().mean_train_loss;
                              }),
                              "loss"};
  pl["trainer.samples_per_s"] = {
      med([](const Pass& p) { return p.train_samples / p.train_s; }), "samples/s"};
  pl["trainer.val_auc"] = {med([](const Pass& p) {
                             return p.train.epochs.empty()
                                        ? 0.0
                                        : p.train.epochs.back().val_metric;
                           }),
                           "AUC"};
  pl["ps.pulls"] = {med([](const Pass& p) { return p.train.ps_stats.pulls; }), "count"};
  pl["ps.pushes"] = {med([](const Pass& p) { return p.train.ps_stats.pushes; }),
                     "count"};
  pl["ps.bytes_moved"] = {med([](const Pass& p) {
                            return p.train.ps_stats.bytes_pulled +
                                   p.train.ps_stats.bytes_pushed;
                          }),
                          "bytes"};
  pl["ps.ssp_waits"] = {med([](const Pass& p) { return p.train.ps_stats.ssp_waits; }),
                        "count"};
  pl["ps.max_staleness"] = {
      med([](const Pass& p) { return p.train.ps_stats.max_staleness; }), "count"};
  pl["ps.socket_requests"] = {
      med([](const Pass& p) { return p.train_driver.ps_transport.requests; }),
      "count"};
  pl["ps.socket_bytes"] = {med([](const Pass& p) {
                             return p.train_driver.ps_transport.bytes_received +
                                    p.train_driver.ps_transport.bytes_sent;
                           }),
                           "bytes"};
  pl["infer.embedding_evaluations"] = {
      med([](const Pass& p) { return p.infer.costs.embedding_evaluations; }),
      "count"};
  pl["infer.cpu_core_min"] = {
      med([](const Pass& p) { return p.infer.costs.cpu_core_minutes; }), "core_min"};
  pl["infer.memory_gb_min"] = {
      med([](const Pass& p) { return p.infer.costs.memory_gb_minutes; }), "GB_min"};
  pl["infer.pass_ms"] = {
      med([](const Pass& p) { return p.infer_s * 1e3 / std::max(1, p.infer.num_slices); }),
      "ms"};

  Metrics& extra = result->extra;
  extra["warm_passes"] = {static_cast<double>(passes.size() - 1), "count"};
  extra["cold_pass_s"] = {passes.front().pass_s, "s"};
  extra["pipeline_s"] = {med([](const Pass& p) { return p.pass_s; }), "s"};
  extra["pagerank_s"] = {med([](const Pass& p) { return p.pagerank_s; }), "s"};
  extra["graphflat_s"] = {med([](const Pass& p) { return p.flat_s; }), "s"};
  extra["train_s"] = {med([](const Pass& p) { return p.train_s; }), "s"};
  extra["infer_s"] = {med([](const Pass& p) { return p.infer_s; }), "s"};
  extra["train_samples_per_s"] = pl["trainer.samples_per_s"];
  extra["train_val_auc"] = pl["trainer.val_auc"];
  return true;
}

}  // namespace perfbench
