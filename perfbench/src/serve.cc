// serve_mixed: the always-on InferenceService under a closed loop of
// kClients client threads. Request targets are popularity-skewed (Zipf
// over a seeded permutation), so store hits dominate but misses remain.
// Client 0 interleaves a mutation batch every kMutateEvery-th operation
// and a Persist every kPersistEvery-th.
//
// Mutations work on kSlots slots, one per node among the most popular: a
// slot's batches alternately add an edge into the node and set its
// feature row to an alternate row, then remove the edge and restore the
// base row. The graph thus moves between 2^kSlots states the benchmark
// can rebuild, and each state changes the scores of nodes that requests
// ask for often, so a stale store entry would be served and caught.
// Every request records the mutation batches applied before its Submit
// and started before its Wait returned; its scores must match the dense
// reference forward of one of the states in that range.

#include <algorithm>
#include <atomic>
#include <cmath>
#include <cstdio>
#include <map>
#include <memory>
#include <thread>

#include "agl/agl.h"
#include "reference.h"
#include "workloads.h"

namespace perfbench {

namespace {

constexpr int kShards = 2;
constexpr int kFlatWorkers = 2;  // per shard: 2 shards x 2 = nproc threads
constexpr int kInferWorkers = 1;
constexpr int kFlatRepeats = 16;  // post-run flattens joining the set-up one
constexpr int kClients = 3;
constexpr int kRoundOps = 40;  // one client round; the deadline is checked between rounds
constexpr int kMutateEvery = 20;
constexpr int kPersistEvery = 40;
constexpr int kSlots = 4;
constexpr int kTargetsPerRequest = 16;
constexpr double kZipfExponent = 1.0;
constexpr double kWarmupShare = 0.1;  // most popular nodes scored in set-up
constexpr std::size_t kWarmupChunk = 256;
constexpr double kScoreCheck = 1e-4;
constexpr char kFeatures[] = "serve_features";
constexpr char kColdFeatures[] = "serve_features_cold";

using agl::flat::EdgeRecord;
using agl::flat::NodeId;
using agl::flat::NodeRecord;
using agl::serve::Mutation;
using Dense = std::vector<std::vector<double>>;

bool HasPrefix(const std::string& s, const std::string& prefix) {
  return s.compare(0, prefix.size(), prefix) == 0;
}

struct Request {
  std::vector<NodeId> targets;
  agl::serve::InferenceService::Scores scores;
  /// Mutation batches applied before Submit / started before Wait returned.
  int64_t lo = 0, hi = 0;
};

struct ClientLog {
  std::vector<Request> requests;
  std::vector<double> score_ms, mutation_ms, persist_ms;
  int64_t attempted = 0;
  int64_t failed = 0;
};

agl::flat::GraphFlatConfig FlatConfig() {
  agl::flat::GraphFlatConfig c;
  c.hops = kHops;
  c.sampler = {agl::sampling::Strategy::kNone, 0};
  c.targets = agl::flat::GraphFlatConfig::Targets::kAllNodes;
  c.num_shards = kShards;
  c.job.num_workers = kFlatWorkers;
  return c;
}

/// Zipf-skewed target picker over a seeded popularity order.
class Popularity {
 public:
  Popularity(std::vector<NodeId> ids, uint64_t seed) : order_(std::move(ids)) {
    Rng rng(seed * 31 + 7);
    for (std::size_t i = order_.size(); i > 1; --i) {
      std::swap(order_[i - 1], order_[rng.Below(i)]);
    }
    double total = 0;
    for (std::size_t r = 0; r < order_.size(); ++r) {
      total += 1.0 / std::pow(static_cast<double>(r + 1), kZipfExponent);
      cdf_.push_back(total);
    }
    for (double& c : cdf_) c /= total;
  }
  NodeId Draw(Rng* rng) const {
    const double u = rng->Uniform();
    const auto it = std::lower_bound(cdf_.begin(), cdf_.end(), u);
    return order_[std::min<std::size_t>(it - cdf_.begin(), order_.size() - 1)];
  }
  /// The `count` most popular nodes.
  std::vector<NodeId> Head(std::size_t count) const {
    return {order_.begin(), order_.begin() + std::min(count, order_.size())};
  }

 private:
  std::vector<NodeId> order_;
  std::vector<double> cdf_;
};

/// A mutation slot: the edge src -> dst that its batches add and remove,
/// and the row they set dst's features to while the edge is in.
struct Slot {
  int64_t src = 0, dst = 0;  // indices into the graph
  std::vector<float> alt;
};

std::vector<Slot> MakeSlots(const Graph& graph, const Popularity& popularity,
                            uint64_t seed) {
  Rng rng(seed * 1000003 + 11);
  const uint64_t n = graph.ids.size();
  std::vector<Slot> slots;
  for (NodeId id : popularity.Head(kSlots)) {
    Slot s;
    s.dst = graph.index.at(id);
    do {
      s.src = static_cast<int64_t>(rng.Below(n));
    } while (s.src == s.dst || graph.edge_weight.count(Graph::EdgeKey(
                                   graph.ids[s.src], graph.ids[s.dst])));
    s.alt.resize(graph.features[s.dst].size());
    for (float& x : s.alt) x = static_cast<float>(2.0 * rng.Normal());
    slots.push_back(std::move(s));
  }
  return slots;
}

/// Mutation batch `k` of the run: slot k % kSlots; its even visits add
/// the edge and set the alternate row, its odd ones undo both.
std::vector<Mutation> MutationBatch(const Graph& graph,
                                    const std::vector<Slot>& slots, int64_t k) {
  const Slot& s = slots[k % kSlots];
  const bool on = (k / kSlots) % 2 == 0;
  std::vector<Mutation> batch(2);
  batch[0].type = on ? Mutation::Type::kAddEdge : Mutation::Type::kRemoveEdge;
  batch[0].edge.src = graph.ids[s.src];
  batch[0].edge.dst = graph.ids[s.dst];
  batch[0].edge.weight = 1.f;
  batch[1].type = Mutation::Type::kUpdateFeatures;
  batch[1].node = graph.ids[s.dst];
  batch[1].features = on ? s.alt : graph.features[s.dst];
  return batch;
}

/// Slots that are on after the first `k` batches, as a bit mask.
uint32_t OnMask(int64_t k) {
  uint32_t mask = 0;
  for (int64_t j = 0; j < kSlots && j < k; ++j) {
    if (((k - 1 - j) / kSlots) % 2 == 0) mask |= 1u << j;
  }
  return mask;
}

/// The benchmark's copy of the tables with the slots of `mask` on.
Graph StateGraph(const Graph& base, const std::vector<Slot>& slots,
                 uint32_t mask) {
  Graph g;
  g.ids = base.ids;
  g.labels = base.labels;
  g.features = base.features;
  g.edges = base.edges;
  for (int j = 0; j < kSlots; ++j) {
    if (!(mask >> j & 1u)) continue;
    g.edges.push_back({base.ids[slots[j].src], base.ids[slots[j].dst], 1.f});
    g.features[slots[j].dst] = slots[j].alt;
  }
  g.Index();
  return g;
}

/// The first `k` batches applied to the program's tables the way the
/// service applies them (an added edge is appended, a removed one erased).
void ApplyBatches(const Graph& graph, const std::vector<Slot>& slots,
                  int64_t k, std::vector<NodeRecord>* nodes,
                  std::vector<EdgeRecord>* edges) {
  for (int64_t b = 0; b < k; ++b) {
    for (const Mutation& m : MutationBatch(graph, slots, b)) {
      if (m.type == Mutation::Type::kAddEdge) {
        edges->push_back(m.edge);
      } else if (m.type == Mutation::Type::kRemoveEdge) {
        edges->erase(std::find_if(edges->begin(), edges->end(),
                                  [&](const EdgeRecord& e) {
                                    return e.src == m.edge.src &&
                                           e.dst == m.edge.dst;
                                  }));
      } else {
        (*nodes)[graph.index.at(m.node)].features = m.features;
      }
    }
  }
}

}  // namespace

bool RunServe(const RunOptions& options, Tracer* tracer, RunResult* result,
              std::string* error) {
  // --- Set-up: tables, initial GraphFlat, Start, cold warm-up pass. ---
  auto dfs = agl::mr::LocalDfs::Open(options.dir + "/dfs");
  if (!dfs.ok()) {
    *error = "dfs: " + dfs.status().ToString();
    return false;
  }
  std::vector<NodeRecord> nodes;
  std::vector<EdgeRecord> edges;
  double table_load_s = 0, flatten_s = 0, start_s = 0, warmup_s = 0;
  if (!ReadTables(options.dir, tracer, &nodes, &edges, &table_load_s, error)) {
    return false;
  }
  const int64_t in_dim = static_cast<int64_t>(nodes.at(0).features.size());
  agl::flat::GraphFlatStats flat;
  {
    Tracer::Span s(tracer, "flat.graphflat", "flat");
    const double t = Now();
    auto r = agl::Run(FlatConfig(), nodes, edges, &*dfs, kFeatures);
    flatten_s = Now() - t;
    if (!r.ok()) {
      *error = "initial graphflat: " + r.status().ToString();
      return false;
    }
    flat = *r;
    s.Arg("features", static_cast<double>(flat.num_features));
  }
  const auto state = agl::gnn::GnnModel(SageConfig(in_dim)).StateDict();
  agl::serve::ServeConfig config;
  config.infer.model = SageConfig(in_dim);
  config.infer.job.num_workers = kInferWorkers;
  config.features_dataset = kFeatures;
  config.flat = FlatConfig();
  std::unique_ptr<agl::serve::InferenceService> service;
  {
    Tracer::Span s(tracer, "serve.start", "serve");
    const double t = Now();
    auto r = agl::Run(config, state, nodes, edges, &*dfs);
    start_s = Now() - t;
    if (!r.ok()) {
      *error = "serve start: " + r.status().ToString();
      return false;
    }
    service = std::move(r).value();
  }
  std::vector<NodeId> ids;
  for (const auto& n : nodes) ids.push_back(n.id);
  const Popularity popularity(std::move(ids), options.seed);
  {
    Tracer::Span s(tracer, "serve.warmup", "serve");
    const double t = Now();
    const auto head = popularity.Head(static_cast<std::size_t>(
        kWarmupShare * static_cast<double>(nodes.size())));
    for (std::size_t i = 0; i < head.size(); i += kWarmupChunk) {
      std::vector<NodeId> chunk(
          head.begin() + i, head.begin() + std::min(head.size(), i + kWarmupChunk));
      auto r = service->Score(std::move(chunk));
      if (!r.ok()) {
        *error = "warm-up: " + r.status().ToString();
        return false;
      }
    }
    warmup_s = Now() - t;
  }
  const double setup_s = SecondsSinceProcessStart();
  // The benchmark's own copy of the inputs, for the mutations and checks.
  const Graph graph = MakeServeGraph(options.seed);
  const std::vector<Slot> slots = MakeSlots(graph, popularity, options.seed);

  // --- Measured window: kClients closed-loop clients, whole rounds. ---
  const agl::serve::ServeStats before = service->stats();
  std::vector<ClientLog> logs(kClients);
  std::atomic<int64_t> started{0}, applied{0};
  const double window_start = Now();
  auto client = [&](int c) {
    ClientLog& log = logs[c];
    Rng rng(options.seed * 7919 + static_cast<uint64_t>(c));
    while (Now() - window_start < options.seconds) {
      for (int i = 1; i <= kRoundOps; ++i) {
        log.attempted++;
        if (c == 0 && i % kPersistEvery == 0) {
          Tracer::Span s(tracer, "serve.persist", "serve");
          const double t = Now();
          const agl::Status st = service->Persist();
          log.persist_ms.push_back((Now() - t) * 1e3);
          if (!st.ok()) log.failed++;
        } else if (c == 0 && i % kMutateEvery == 0) {
          Tracer::Span s(tracer, "serve.apply_mutations", "serve");
          const int64_t k = applied.load();
          started.store(k + 1);
          const double t = Now();
          const agl::Status st =
              service->ApplyMutations(MutationBatch(graph, slots, k));
          log.mutation_ms.push_back((Now() - t) * 1e3);
          if (st.ok()) {
            applied.store(k + 1);
          } else {  // rolled back whole: the next batch retries slot k
            log.failed++;
          }
        } else {
          Request req;
          while (req.targets.size() < kTargetsPerRequest) {
            const NodeId id = popularity.Draw(&rng);
            if (std::find(req.targets.begin(), req.targets.end(), id) ==
                req.targets.end()) {
              req.targets.push_back(id);
            }
          }
          Tracer::Span s(tracer, "serve.score", "serve");
          s.Arg("request", static_cast<double>(c) * 1e6 +
                               static_cast<double>(log.requests.size()));
          req.lo = applied.load();
          const double t = Now();
          auto pending = service->Submit(req.targets);
          auto scores = pending.ok() ? (*pending)->Wait()
                                     : agl::Result<agl::serve::InferenceService::Scores>(
                                           pending.status());
          log.score_ms.push_back((Now() - t) * 1e3);
          req.hi = started.load();
          if (!scores.ok()) {
            log.failed++;
            continue;
          }
          req.scores = std::move(scores).value();
          log.requests.push_back(std::move(req));
        }
      }
    }
  };
  std::vector<std::thread> threads;
  for (int c = 0; c < kClients; ++c) threads.emplace_back(client, c);
  for (auto& t : threads) t.join();
  const double window_s = Now() - window_start;
  const agl::serve::ServeStats after = service->stats();
  if (agl::Status st = service->Shutdown(); !st.ok()) {
    result->Fail("serve shutdown: " + st.ToString());
  }
  service.reset();
  const int64_t batches = applied.load();

  // --- Checks: every served response against the states it may see. ---
  std::map<uint32_t, Dense> dense_by_mask;
  std::string dense_error;
  auto dense_of = [&](int64_t k) -> const Dense& {
    const uint32_t mask = OnMask(k);
    auto it = dense_by_mask.find(mask);
    if (it == dense_by_mask.end()) {
      const Graph g = StateGraph(graph, slots, mask);
      it = dense_by_mask
               .emplace(mask, DenseSageForward(g, g.features, state, kHops,
                                               &dense_error))
               .first;
    }
    return it->second;
  };
  // CheckScores of `scores` against the state after `k` batches.
  auto check_state = [&](int64_t k, const Request& req) -> std::string {
    const Dense& dense = dense_of(k);
    if (!dense_error.empty()) return "dense forward: " + dense_error;
    return CheckScores(graph, dense, req.scores, kScoreCheck);
  };
  std::vector<double> score_ms, mutation_ms, persist_ms;
  int64_t served = 0;
  const Request* stale_probe = nullptr;  // a response that tells k from k-1
  for (const ClientLog& log : logs) {
    result->attempted += log.attempted;
    result->failed += log.failed;
    score_ms.insert(score_ms.end(), log.score_ms.begin(), log.score_ms.end());
    mutation_ms.insert(mutation_ms.end(), log.mutation_ms.begin(),
                       log.mutation_ms.end());
    persist_ms.insert(persist_ms.end(), log.persist_ms.begin(),
                      log.persist_ms.end());
    served += static_cast<int64_t>(log.requests.size());
    for (const Request& req : log.requests) {
      std::vector<NodeId> want = req.targets, got;
      std::sort(want.begin(), want.end());
      for (const auto& [id, row] : req.scores) got.push_back(id);
      if (got != want) {
        result->Fail("serve: a response does not cover exactly its targets");
        break;
      }
      std::string why = "serve: no state to check against";
      for (int64_t k = req.lo; k <= req.hi && !why.empty(); ++k) {
        why = check_state(k, req);
      }
      if (!why.empty()) {
        result->Fail(why + " (after " + std::to_string(req.lo) + ".." +
                     std::to_string(req.hi) + " mutation batches)");
        break;
      }
      if (stale_probe == nullptr && req.lo == req.hi && req.lo > 0 &&
          HasPrefix(check_state(req.lo - 1, req), "score:")) {
        stale_probe = &req;
      }
    }
  }
  if (served == 0 || batches == 0) {
    result->Fail("serve: no served scores or no mutation batches to check");
  } else if (dense_error.empty()) {
    // Self-tests: a perturbed score and a row not summing to 1 are caught,
    // and so is a response checked against the state one batch earlier.
    const Request* first = nullptr;
    for (const ClientLog& log : logs) {
      for (const Request& req : log.requests) {
        if (req.lo == req.hi) {
          first = &req;
          break;
        }
      }
      if (first != nullptr) break;
    }
    if (first == nullptr) {
      result->Fail("self-test 'scores': no response with a fixed state");
    } else {
      const std::string why =
          SelfTestScores(graph, dense_of(first->lo), first->scores, kScoreCheck);
      if (!why.empty()) result->Fail(why);
    }
    if (stale_probe == nullptr) {
      result->Fail("self-test 'stale score': no response differs from the "
                   "state one mutation batch earlier");
    }
  }

  // The kept-fresh dataset: it must pass the GraphFeature checks over the
  // final state and equal a cold flatten of the mutated tables. The cold
  // flattens, repeated, also give GraphFlat's throughput more samples than
  // the one set-up flatten.
  const Graph final_graph = StateGraph(graph, slots, OnMask(batches));
  ApplyBatches(graph, slots, batches, &nodes, &edges);
  double load_s = 0;
  uint64_t feature_bytes = 0;
  std::vector<double> flatten_rates{
      static_cast<double>(flat.num_features) / flatten_s};
  agl::Result<std::vector<agl::subgraph::GraphFeature>> fresh =
      agl::Status::Internal("not read");
  {
    Tracer::Span s(tracer, "mr.load_graph_features", "mr");
    const double t = Now();
    fresh = agl::LoadGraphFeatures(*dfs, kFeatures);
    load_s = Now() - t;
  }
  auto bytes = dfs->DatasetBytes(kFeatures);
  if (!fresh.ok() || !bytes.ok()) {
    result->Fail("serve: reading the kept-fresh features failed");
  } else {
    feature_bytes = *bytes;
    const std::string why =
        CheckGraphFeatures(final_graph, *fresh, kHops, 0, in_dim);
    if (!why.empty()) result->Fail(why);
    if (fresh->size() != graph.ids.size()) {
      result->Fail("serve: features dataset does not hold every node");
    }
  }
  for (int i = 0; i < kFlatRepeats; ++i) {
    Tracer::Span f(tracer, "flat.graphflat", "flat");
    const double t0 = Now();
    auto cold = agl::Run(FlatConfig(), nodes, edges, &*dfs, kColdFeatures);
    const double cold_s = Now() - t0;
    if (!cold.ok()) {
      result->Fail("serve: cold graphflat failed: " + cold.status().ToString());
      break;
    }
    flatten_rates.push_back(static_cast<double>(cold->num_features) / cold_s);
  }
  auto cold = agl::LoadGraphFeatures(*dfs, kColdFeatures);
  if (fresh.ok() && (!cold.ok() || *fresh != *cold)) {
    result->Fail("serve: the kept-fresh features differ from a cold flatten");
  }

  // --- Figures. ---
  const double passes = static_cast<double>(after.batches - before.batches);
  const double infer_s = after.infer_seconds - before.infer_seconds;
  const double hits = static_cast<double>(after.store.hits - before.store.hits);
  const double misses =
      static_cast<double>(after.store.misses - before.store.misses);
  double mutation_total = 0, persist_total = 0;
  for (double x : mutation_ms) mutation_total += x / 1e3;
  for (double x : persist_ms) persist_total += x / 1e3;

  Metrics& e2e = result->end_to_end;
  e2e["setup_s"] = {setup_s, "s"};
  e2e["peak_rss_mb"] = {PeakRssMb(), "MB"};
  e2e["e2e_p50_ms"] = {Median(score_ms), "ms"};
  e2e["graphflat_targets_per_s"] = {Median(flatten_rates), "targets/s"};
  e2e["infer_nodes_per_s"] = {
      Share(static_cast<double>(after.batched_targets - before.batched_targets),
            infer_s),
      "nodes/s"};

  Metrics& pl = result->per_layer;
  pl["mr.flat_shuffled_records"] = {
      static_cast<double>(flat.job_stats.shuffled_records), "count"};
  pl["mr.flat_max_task_records"] = {
      static_cast<double>(flat.job_stats.max_reduce_task_records), "count"};
  pl["mr.flat_task_attempts"] = {static_cast<double>(flat.job_stats.task_attempts),
                                 "count"};
  pl["mr.flat_task_s"] = {flat.job_stats.elapsed_seconds, "s"};
  pl["mr.dfs_read_features_s"] = {load_s, "s"};
  pl["mr.dfs_feature_bytes"] = {static_cast<double>(feature_bytes), "bytes"};
  pl["flat.table_load_s"] = {table_load_s, "s"};
  pl["flat.initial_flatten_s"] = {flatten_s, "s"};
  pl["flat.neighborhood_nodes"] = {static_cast<double>(flat.total_nodes), "count"};
  pl["flat.max_neighborhood_nodes"] = {static_cast<double>(flat.max_nodes), "count"};
  pl["flat.exchange_publishes"] = {static_cast<double>(flat.exchange.publishes),
                                   "count"};
  pl["flat.exchange_bytes"] = {static_cast<double>(flat.exchange.bytes_published),
                               "bytes"};
  pl["flat.exchange_wait_s"] = {flat.exchange.wait_seconds, "s"};
  pl["infer.pass_ms"] = {Share(infer_s * 1e3, passes), "ms"};
  pl["serve.start_share"] = {Share(start_s, setup_s), "share"};
  pl["serve.warmup_share"] = {Share(warmup_s, setup_s), "share"};
  pl["serve.passes"] = {passes, "count"};
  pl["serve.requests_per_pass"] = {
      Share(static_cast<double>(after.served - before.served), passes), "req/pass"};
  pl["serve.infer_busy_share"] = {Share(infer_s, window_s), "share"};
  pl["serve.store_hits"] = {hits, "count"};
  pl["serve.store_misses"] = {misses, "count"};
  pl["serve.store_hit_ratio"] = {Share(hits, hits + misses), "ratio"};
  pl["serve.invalidated_nodes"] = {
      static_cast<double>(after.invalidated_nodes - before.invalidated_nodes),
      "count"};
  pl["serve.reflatten_dirty_targets"] = {
      static_cast<double>(after.reflatten_dirty_targets -
                          before.reflatten_dirty_targets),
      "count"};
  pl["serve.mutation_share"] = {Share(mutation_total, window_s), "share"};
  pl["serve.persist_share"] = {Share(persist_total, window_s), "share"};
  pl["serve.rps"] = {Share(static_cast<double>(served), window_s), "req/s"};
  pl["serve.p99_over_p50"] = {Share(Quantile(score_ms, 0.99), Median(score_ms)),
                              "ratio"};

  Metrics& extra = result->extra;
  extra["requests"] = {static_cast<double>(score_ms.size()), "count"};
  extra["mutation_batches"] = {static_cast<double>(batches), "count"};
  extra["serve_rps"] = pl["serve.rps"];
  extra["serve_p50_ms"] = {Median(score_ms), "ms"};
  extra["serve_p99_ms"] = {Quantile(score_ms, 0.99), "ms"};
  extra["mutation_p50_ms"] = {Median(mutation_ms), "ms"};
  extra["persist_p50_ms"] = {Median(persist_ms), "ms"};
  extra["start_s"] = {start_s, "s"};
  extra["warmup_s"] = {warmup_s, "s"};
  return true;
}

}  // namespace perfbench
