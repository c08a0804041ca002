#include "inputs.h"

#include <algorithm>
#include <cstdio>
#include <unordered_set>

#include "bench_util.h"

namespace perfbench {

namespace {

// Pipeline inputs.
constexpr int64_t kPipelineNodes = 6000;
constexpr int64_t kPipelineFeatureDim = 16;
constexpr int64_t kAttach = 4;            // out-edges each new node attaches
constexpr double kBackEdgeProb = 0.5;     // chance an attachment is reciprocated
constexpr double kHomophily = 0.85;       // chance an attachment stays in-community
constexpr double kLabeledShare = 0.4;     // nodes carrying a label
constexpr double kSignal = 0.5;           // feature shift between the communities

// serve_mixed inputs.
constexpr int64_t kServeNodes = 3000;
constexpr int64_t kServeFeatureDim = 16;
constexpr int64_t kServeInDegree = 3;     // every node: exactly this many in-edges

}  // namespace

void Graph::Index() {
  const int64_t n = static_cast<int64_t>(ids.size());
  index.clear();
  index.reserve(ids.size());
  for (int64_t i = 0; i < n; ++i) index.emplace(ids[i], i);
  in.assign(n, {});
  out_degree.assign(n, 0);
  edge_weight.clear();
  edge_weight.reserve(edges.size());
  for (const Edge& e : edges) {
    const int64_t s = index.at(e.src), d = index.at(e.dst);
    in[d].emplace_back(s, e.weight);
    out_degree[s]++;
    edge_weight.emplace(EdgeKey(e.src, e.dst), e.weight);
  }
}

int64_t Graph::MaxInDegree() const {
  int64_t best = 0;
  for (const auto& list : in) {
    best = std::max<int64_t>(best, static_cast<int64_t>(list.size()));
  }
  return best;
}

Graph MakePipelineGraph(uint64_t seed) {
  Rng rng(seed * 0x100000001b3ULL + 17);
  Graph g;
  const int64_t n = kPipelineNodes;
  std::vector<int> community(n);
  for (int64_t v = 0; v < n; ++v) {
    community[v] = static_cast<int>(rng.Below(2));
    g.ids.push_back(static_cast<uint64_t>(v));
    g.labels.push_back(rng.Uniform() < kLabeledShare ? community[v] : -1);
    std::vector<float> x(kPipelineFeatureDim);
    for (auto& f : x) f = static_cast<float>(rng.Normal());
    const float shift = static_cast<float>(community[v] ? kSignal : -kSignal);
    x[0] += shift;
    x[1] += shift;
    g.features.push_back(std::move(x));
  }

  // Preferential attachment: a pool holds every node once plus once per
  // in-edge it received, so a uniform pick from it is proportional to
  // (in-degree + 1). One pool per community gives the homophily.
  std::vector<std::vector<uint64_t>> pool(2);
  auto add_edge = [&](uint64_t src, uint64_t dst) {
    g.edges.push_back({src, dst, static_cast<float>(0.5 + rng.Uniform())});
    pool[community[dst]].push_back(dst);
  };
  const int64_t seed_nodes = kAttach + 1;
  for (int64_t v = 0; v < seed_nodes; ++v) {
    pool[community[v]].push_back(static_cast<uint64_t>(v));
  }
  for (int64_t v = 0; v < seed_nodes; ++v) {
    add_edge(static_cast<uint64_t>(v),
             static_cast<uint64_t>((v + 1) % seed_nodes));
  }
  for (int64_t v = seed_nodes; v < n; ++v) {
    std::unordered_set<uint64_t> chosen;
    for (int tries = 0;
         static_cast<int64_t>(chosen.size()) < kAttach && tries < 64;
         ++tries) {
      int c = rng.Uniform() < kHomophily ? community[v]
                                              : 1 - community[v];
      if (pool[c].empty()) c = 1 - c;
      const uint64_t u = pool[c][rng.Below(pool[c].size())];
      chosen.insert(u);
    }
    std::vector<uint64_t> targets(chosen.begin(), chosen.end());
    std::sort(targets.begin(), targets.end());
    for (uint64_t u : targets) {
      add_edge(static_cast<uint64_t>(v), u);
      if (rng.Uniform() < kBackEdgeProb) {
        add_edge(u, static_cast<uint64_t>(v));
      }
    }
    pool[community[v]].push_back(static_cast<uint64_t>(v));
  }
  g.Index();
  return g;
}

Graph MakeServeGraph(uint64_t seed) {
  Rng rng(seed * 0x9e3779b97f4a7c15ULL + 29);
  Graph g;
  const int64_t n = kServeNodes;
  for (int64_t v = 0; v < n; ++v) {
    g.ids.push_back(static_cast<uint64_t>(v));
    g.labels.push_back(-1);
    std::vector<float> x(kServeFeatureDim);
    for (auto& f : x) f = static_cast<float>(rng.Normal());
    g.features.push_back(std::move(x));
  }
  for (int64_t v = 0; v < n; ++v) {
    std::unordered_set<uint64_t> sources;
    while (static_cast<int64_t>(sources.size()) < kServeInDegree) {
      const uint64_t u = rng.Below(static_cast<uint64_t>(n));
      if (u != static_cast<uint64_t>(v)) sources.insert(u);
    }
    std::vector<uint64_t> sorted(sources.begin(), sources.end());
    std::sort(sorted.begin(), sorted.end());
    for (uint64_t u : sorted) {
      g.edges.push_back({u, static_cast<uint64_t>(v),
                         static_cast<float>(0.5 + rng.Uniform())});
    }
  }
  g.Index();
  return g;
}

bool WriteCsvTables(const Graph& graph, const std::string& node_path,
                    const std::string& edge_path, std::string* error) {
  std::FILE* f = std::fopen(node_path.c_str(), "w");
  if (f == nullptr) {
    *error = "cannot write " + node_path;
    return false;
  }
  for (std::size_t i = 0; i < graph.ids.size(); ++i) {
    std::fprintf(f, "%llu,%lld,", static_cast<unsigned long long>(graph.ids[i]),
                 static_cast<long long>(graph.labels[i]));
    for (std::size_t j = 0; j < graph.features[i].size(); ++j) {
      std::fprintf(f, j == 0 ? "%.9g" : ";%.9g", graph.features[i][j]);
    }
    std::fputc('\n', f);
  }
  if (std::fclose(f) != 0) {
    *error = "cannot close " + node_path;
    return false;
  }
  f = std::fopen(edge_path.c_str(), "w");
  if (f == nullptr) {
    *error = "cannot write " + edge_path;
    return false;
  }
  for (const Edge& e : graph.edges) {
    std::fprintf(f, "%llu,%llu,%.9g\n", static_cast<unsigned long long>(e.src),
                 static_cast<unsigned long long>(e.dst), e.weight);
  }
  if (std::fclose(f) != 0) {
    *error = "cannot close " + edge_path;
    return false;
  }
  return true;
}

}  // namespace perfbench
