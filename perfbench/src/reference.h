// Reference checks: the benchmark's own computations that the program's
// outputs are compared against. Each check returns an empty string when
// the output passes and the first violation otherwise; SelfTest* corrupts
// a copy of a real output and demands that the check rejects it.
#pragma once

#include <cstdint>
#include <map>
#include <span>
#include <string>
#include <utility>
#include <vector>

#include "inputs.h"
#include "subgraph/graph_feature.h"
#include "tensor/tensor.h"
#include "trainer/trainer.h"

namespace perfbench {

using StateDict = std::map<std::string, agl::tensor::Tensor>;
using Scores = std::vector<std::pair<uint64_t, std::vector<float>>>;

/// PageRank by plain synchronous power iteration from the uniform start
/// 1/N, run until no value moves by more than 1e-12 (relatively):
/// rank_v = (1-d)/N + d * sum over in-edges u->v of rank_u / outdeg(u);
/// dangling mass dropped. Indexed like `graph.ids`.
std::vector<double> ReferencePageRank(const Graph& graph, double damping);

/// Every node's value within `tolerance` of the reference, relatively.
std::string CheckPageRank(const Graph& graph,
                          const std::vector<double>& reference,
                          const std::vector<std::pair<uint64_t, double>>& got,
                          double tolerance);

/// Every GraphFeature: the target is present (with its table label); every
/// node lies within `hops` in-hops of the target by BFS over the tables
/// and carries its table features in the first `base_dims` columns; every
/// edge is an input edge with its table weight; no node keeps more
/// in-edges than `cap` (cap <= 0: no cap).
std::string CheckGraphFeatures(
    const Graph& graph, std::span<const agl::subgraph::GraphFeature> features,
    int hops, int64_t cap, int64_t base_dims);

/// Dense K-layer GraphSAGE-mean forward over the whole graph in double
/// precision: h' = h Ws + bs + (sum_u w_uv/sum|w| h_u) Wn, ReLU between
/// layers, softmax on the last. `features` is indexed like `graph.ids`.
/// Returns one probability row per node.
std::vector<std::vector<double>> DenseSageForward(
    const Graph& graph, const std::vector<std::vector<float>>& features,
    const StateDict& state, int num_layers, std::string* error);

/// Each score row sums to 1 and matches the dense reference within
/// `tolerance` per entry.
std::string CheckScores(const Graph& graph,
                        const std::vector<std::vector<double>>& reference,
                        const Scores& got, double tolerance);

/// Training loss falls from the first epoch to the last, the last
/// validation AUC is at least `auc_floor`, and the PS never admitted a
/// pull more than `staleness_bound` ticks ahead.
std::string CheckTraining(const agl::trainer::TrainReport& report,
                          double auc_floor, int64_t staleness_bound);

// --- self-tests: each returns "" when the check caught the corruption ----

std::string SelfTestPageRank(const Graph& graph,
                             const std::vector<double>& reference,
                             std::vector<std::pair<uint64_t, double>> got,
                             double tolerance);
std::string SelfTestGraphFeatures(
    const Graph& graph, std::span<const agl::subgraph::GraphFeature> features,
    int hops, int64_t cap, int64_t base_dims);
std::string SelfTestScores(const Graph& graph,
                           const std::vector<std::vector<double>>& reference,
                           Scores got, double tolerance);
std::string SelfTestTraining(const agl::trainer::TrainReport& report,
                             double auc_floor, int64_t staleness_bound);

}  // namespace perfbench
