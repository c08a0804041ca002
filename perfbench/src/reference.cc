#include "reference.h"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <unordered_map>

namespace perfbench {

namespace {

using agl::subgraph::GraphFeature;

std::string Id(uint64_t id) { return std::to_string(id); }

/// Every node within `hops` in-hops of `target` (target included).
std::unordered_map<int64_t, int> InHopBall(const Graph& graph, int64_t target,
                                           int hops) {
  std::unordered_map<int64_t, int> dist{{target, 0}};
  std::vector<int64_t> frontier{target};
  for (int d = 1; d <= hops && !frontier.empty(); ++d) {
    std::vector<int64_t> next;
    for (int64_t v : frontier) {
      for (const auto& [u, w] : graph.in[v]) {
        (void)w;
        if (dist.emplace(u, d).second) next.push_back(u);
      }
    }
    frontier = std::move(next);
  }
  return dist;
}

bool HasTag(const std::string& why, const std::string& tag) {
  return why.compare(0, tag.size(), tag) == 0;
}

std::string Expect(const std::string& what, const std::string& why,
                   const std::string& tag) {
  if (HasTag(why, tag)) return "";
  return "self-test '" + what + "' expected a '" + tag + "' rejection, got '" +
         why + "'";
}

}  // namespace

std::vector<double> ReferencePageRank(const Graph& graph, double damping) {
  const int64_t n = static_cast<int64_t>(graph.ids.size());
  std::vector<double> rank(n, 1.0 / static_cast<double>(n)), next(n);
  for (double moved = 1; moved > 1e-12;) {
    moved = 0;
    for (int64_t v = 0; v < n; ++v) {
      double sum = 0;
      for (const auto& [u, w] : graph.in[v]) {
        (void)w;
        sum += rank[u] / static_cast<double>(graph.out_degree[u]);
      }
      next[v] = (1.0 - damping) / static_cast<double>(n) + damping * sum;
      moved = std::max(moved, std::abs(next[v] - rank[v]) / next[v]);
    }
    rank.swap(next);
  }
  return rank;
}

std::string CheckPageRank(const Graph& graph,
                          const std::vector<double>& reference,
                          const std::vector<std::pair<uint64_t, double>>& got,
                          double tolerance) {
  if (got.size() != graph.ids.size()) {
    return "pagerank: " + std::to_string(got.size()) + " values for " +
           std::to_string(graph.ids.size()) + " nodes";
  }
  for (const auto& [id, value] : got) {
    auto it = graph.index.find(id);
    if (it == graph.index.end()) return "pagerank: unknown node " + Id(id);
    const double want = reference[it->second];
    if (!(std::abs(value - want) <= tolerance * want)) {
      char buf[160];
      std::snprintf(buf, sizeof(buf),
                    "pagerank: node %llu has %.12g, reference %.12g",
                    static_cast<unsigned long long>(id), value, want);
      return buf;
    }
  }
  return "";
}

std::string CheckGraphFeatures(const Graph& graph,
                               std::span<const GraphFeature> features,
                               int hops, int64_t cap, int64_t base_dims) {
  for (const GraphFeature& f : features) {
    const std::string where = " (feature of " + Id(f.target_id) + ")";
    if (f.target_index < 0 || f.target_index >= f.num_nodes() ||
        f.node_ids[f.target_index] != f.target_id) {
      return "target: target missing from its own feature" + where;
    }
    auto tit = graph.index.find(f.target_id);
    if (tit == graph.index.end()) return "target: unknown target" + where;
    if (f.label != graph.labels[tit->second]) {
      return "target: label differs from the table" + where;
    }
    const auto ball = InHopBall(graph, tit->second, hops);
    if (f.node_features.rows() != f.num_nodes() ||
        f.node_features.cols() < base_dims) {
      return "features: node feature matrix has the wrong shape" + where;
    }
    for (int64_t i = 0; i < f.num_nodes(); ++i) {
      auto it = graph.index.find(f.node_ids[i]);
      if (it == graph.index.end() || !ball.count(it->second)) {
        return "foreign-node: node " + Id(f.node_ids[i]) + " is not within " +
               std::to_string(hops) + " in-hops" + where;
      }
      const std::vector<float>& row = graph.features[it->second];
      for (int64_t j = 0; j < base_dims; ++j) {
        if (f.node_features.at(i, j) != row[j]) {
          return "features: node " + Id(f.node_ids[i]) +
                 " carries other features than its table row" + where;
        }
      }
    }
    std::vector<int64_t> in_edges(f.num_nodes(), 0);
    for (const GraphFeature::EdgeRec& e : f.edges) {
      if (e.src < 0 || e.src >= f.num_nodes() || e.dst < 0 ||
          e.dst >= f.num_nodes()) {
        return "extra-edge: edge endpoint out of range" + where;
      }
      const uint64_t s = f.node_ids[e.src], d = f.node_ids[e.dst];
      auto it = graph.edge_weight.find(Graph::EdgeKey(s, d));
      if (it == graph.edge_weight.end()) {
        return "extra-edge: " + Id(s) + "->" + Id(d) +
               " is not an input edge" + where;
      }
      if (it->second != e.weight) {
        return "extra-edge: " + Id(s) + "->" + Id(d) +
               " has another weight than its table row" + where;
      }
      in_edges[e.dst]++;
    }
    if (cap > 0) {
      for (int64_t i = 0; i < f.num_nodes(); ++i) {
        if (in_edges[i] > cap) {
          return "cap: node " + Id(f.node_ids[i]) + " keeps " +
                 std::to_string(in_edges[i]) + " in-edges, cap " +
                 std::to_string(cap) + where;
        }
      }
    }
  }
  return "";
}

std::vector<std::vector<double>> DenseSageForward(
    const Graph& graph, const std::vector<std::vector<float>>& features,
    const StateDict& state, int num_layers, std::string* error) {
  const int64_t n = static_cast<int64_t>(graph.ids.size());
  std::vector<std::vector<double>> h(n);
  for (int64_t v = 0; v < n; ++v) {
    h[v].assign(features[v].begin(), features[v].end());
  }
  for (int k = 0; k < num_layers; ++k) {
    const std::string p = "layer" + std::to_string(k) + ".";
    auto ws = state.find(p + "self.weight");
    auto bs = state.find(p + "self.bias");
    auto wn = state.find(p + "neigh.weight");
    if (ws == state.end() || bs == state.end() || wn == state.end()) {
      *error = "state dict lacks the GraphSAGE parameters of layer " +
               std::to_string(k);
      return {};
    }
    const agl::tensor::Tensor& Ws = ws->second;
    const agl::tensor::Tensor& Bs = bs->second;
    const agl::tensor::Tensor& Wn = wn->second;
    const int64_t in_dim = Ws.rows(), out_dim = Ws.cols();
    if (static_cast<int64_t>(h[0].size()) != in_dim) {
      *error = "layer " + std::to_string(k) + " expects " +
               std::to_string(in_dim) + " inputs, features have " +
               std::to_string(h[0].size());
      return {};
    }
    std::vector<std::vector<double>> next(n, std::vector<double>(out_dim));
    std::vector<double> agg(in_dim);
    for (int64_t v = 0; v < n; ++v) {
      std::fill(agg.begin(), agg.end(), 0.0);
      double wsum = 0;
      for (const auto& [u, w] : graph.in[v]) wsum += std::abs(w);
      for (const auto& [u, w] : graph.in[v]) {
        const double a = static_cast<double>(w) / wsum;
        for (int64_t i = 0; i < in_dim; ++i) agg[i] += a * h[u][i];
      }
      for (int64_t j = 0; j < out_dim; ++j) {
        double s = Bs.at(0, j);
        for (int64_t i = 0; i < in_dim; ++i) {
          s += h[v][i] * Ws.at(i, j) + agg[i] * Wn.at(i, j);
        }
        next[v][j] = (k + 1 < num_layers) ? std::max(0.0, s) : s;
      }
    }
    h.swap(next);
  }
  for (auto& row : h) {
    const double mx = *std::max_element(row.begin(), row.end());
    double denom = 0;
    for (double& x : row) denom += (x = std::exp(x - mx));
    for (double& x : row) x /= denom;
  }
  return h;
}

std::string CheckScores(const Graph& graph,
                        const std::vector<std::vector<double>>& reference,
                        const Scores& got, double tolerance) {
  for (const auto& [id, row] : got) {
    auto it = graph.index.find(id);
    if (it == graph.index.end()) return "score: unknown node " + Id(id);
    const std::vector<double>& want = reference[it->second];
    double sum = 0;
    for (float x : row) sum += x;
    if (!(std::abs(sum - 1.0) <= 1e-4)) {
      return "rowsum: scores of node " + Id(id) + " sum to " +
             std::to_string(sum);
    }
    if (row.size() != want.size()) {
      return "score: node " + Id(id) + " has " + std::to_string(row.size()) +
             " classes, reference " + std::to_string(want.size());
    }
    for (std::size_t j = 0; j < row.size(); ++j) {
      if (!(std::abs(row[j] - want[j]) <= tolerance)) {
        char buf[160];
        std::snprintf(buf, sizeof(buf),
                      "score: node %llu class %zu is %.8g, reference %.8g",
                      static_cast<unsigned long long>(id), j, row[j], want[j]);
        return buf;
      }
    }
  }
  return "";
}

std::string CheckTraining(const agl::trainer::TrainReport& report,
                          double auc_floor, int64_t staleness_bound) {
  if (report.epochs.size() < 2) {
    return "loss: fewer than two epochs recorded";
  }
  const double first = report.epochs.front().mean_train_loss;
  const double last = report.epochs.back().mean_train_loss;
  if (!(last < first)) {
    return "loss: training loss did not fall (" + std::to_string(first) +
           " -> " + std::to_string(last) + ")";
  }
  const double auc = report.epochs.back().val_metric;
  if (!(auc >= auc_floor)) {
    return "auc: validation AUC " + std::to_string(auc) + " below floor " +
           std::to_string(auc_floor);
  }
  if (report.ps_stats.max_staleness > staleness_bound) {
    return "staleness: PS admitted a pull " +
           std::to_string(report.ps_stats.max_staleness) +
           " ticks ahead, bound " + std::to_string(staleness_bound);
  }
  return "";
}

std::string SelfTestPageRank(const Graph& graph,
                             const std::vector<double>& reference,
                             std::vector<std::pair<uint64_t, double>> got,
                             double tolerance) {
  if (got.empty()) return "self-test 'pagerank': no values";
  got[got.size() / 2].second *= 1.05;
  return Expect("pagerank value moved",
                CheckPageRank(graph, reference, got, tolerance), "pagerank:");
}

std::string SelfTestGraphFeatures(const Graph& graph,
                                  std::span<const GraphFeature> features,
                                  int hops, int64_t cap, int64_t base_dims) {
  if (features.empty()) return "self-test 'graphfeature': no features";
  auto check = [&](const GraphFeature& f) {
    return CheckGraphFeatures(graph, std::span<const GraphFeature>(&f, 1),
                              hops, cap, base_dims);
  };
  std::string out;
  {  // One extra edge: a self-loop at the target (inputs have none).
    GraphFeature f = features[0];
    f.edges.push_back({f.target_index, f.target_index, 1.f});
    out += Expect("extra edge", check(f), "extra-edge:");
  }
  {  // A node from outside the hop ball.
    GraphFeature f = features[0];
    const auto ball = InHopBall(graph, graph.index.at(f.target_id), hops);
    int64_t far = -1;
    for (int64_t v = 0; v < static_cast<int64_t>(graph.ids.size()); ++v) {
      if (!ball.count(v)) {
        far = v;
        break;
      }
    }
    if (far >= 0) {
      const int64_t rows = f.node_features.rows(),
                    cols = f.node_features.cols();
      std::vector<float> data(f.node_features.data(),
                              f.node_features.data() + rows * cols);
      data.resize((rows + 1) * cols, 0.f);
      for (int64_t j = 0; j < base_dims; ++j) {
        data[rows * cols + j] = graph.features[far][j];
      }
      f.node_ids.push_back(graph.ids[far]);
      f.node_features = agl::tensor::Tensor(rows + 1, cols, std::move(data));
      out += Expect("foreign node", check(f), "foreign-node:");
    }
  }
  {  // The target pointing at another node.
    GraphFeature f = features[0];
    f.target_id = f.target_id + 1 == graph.ids.size() ? 0 : f.target_id + 1;
    out += Expect("target missing", check(f), "target:");
  }
  if (cap > 0) {  // Cap + 1 genuine in-edges at the busiest node.
    int64_t hub = 0;
    for (int64_t v = 0; v < static_cast<int64_t>(graph.in.size()); ++v) {
      if (graph.in[v].size() > graph.in[hub].size()) hub = v;
    }
    if (static_cast<int64_t>(graph.in[hub].size()) > cap) {
      GraphFeature f;
      const int64_t cols = features[0].node_features.cols();
      std::vector<int64_t> rows{hub};
      for (int64_t i = 0; i <= cap; ++i) rows.push_back(graph.in[hub][i].first);
      std::vector<float> data(rows.size() * cols, 0.f);
      for (std::size_t r = 0; r < rows.size(); ++r) {
        f.node_ids.push_back(graph.ids[rows[r]]);
        for (int64_t j = 0; j < base_dims; ++j) {
          data[r * cols + j] = graph.features[rows[r]][j];
        }
        if (r > 0) {
          f.edges.push_back({static_cast<int64_t>(r), 0,
                             graph.in[hub][r - 1].second});
        }
      }
      f.target_id = graph.ids[hub];
      f.label = graph.labels[hub];
      f.node_features = agl::tensor::Tensor(static_cast<int64_t>(rows.size()),
                                            cols, std::move(data));
      out += Expect("over the sampler cap", check(f), "cap:");
    }
  }
  return out;
}

std::string SelfTestScores(const Graph& graph,
                           const std::vector<std::vector<double>>& reference,
                           Scores got, double tolerance) {
  if (got.empty() || got[0].second.size() < 2) {
    return "self-test 'scores': no score rows";
  }
  std::string out;
  Scores moved = got;
  moved[0].second[0] += 0.01f;  // keeps the row sum
  moved[0].second[1] -= 0.01f;
  out += Expect("perturbed score",
                CheckScores(graph, reference, moved, tolerance), "score:");
  for (float& x : got[0].second) x *= 1.5f;
  out += Expect("row not summing to 1",
                CheckScores(graph, reference, got, tolerance), "rowsum:");
  return out;
}

std::string SelfTestTraining(const agl::trainer::TrainReport& report,
                             double auc_floor, int64_t staleness_bound) {
  if (report.epochs.size() < 2) return "self-test 'training': no epochs";
  std::string out;
  agl::trainer::TrainReport r = report;
  r.epochs.back().mean_train_loss = r.epochs.front().mean_train_loss + 1.0;
  out += Expect("loss rising", CheckTraining(r, auc_floor, staleness_bound),
                "loss:");
  r = report;
  r.epochs.back().val_metric = auc_floor - 0.1;
  out += Expect("AUC under the floor",
                CheckTraining(r, auc_floor, staleness_bound), "auc:");
  r = report;
  r.ps_stats.max_staleness = staleness_bound + 1;
  out += Expect("staleness over the bound",
                CheckTraining(r, auc_floor, staleness_bound), "staleness:");
  return out;
}

}  // namespace perfbench
