// The benchmark's own seeded inputs. They are generated here (not by the
// program's src/data), written as node/edge CSV tables, and read back by
// the program through its own CSV reader; the benchmark keeps its own
// in-memory copy for the reference checks.
#pragma once

#include <cstdint>
#include <string>
#include <unordered_map>
#include <utility>
#include <vector>

namespace perfbench {

struct Edge {
  uint64_t src = 0;
  uint64_t dst = 0;
  float weight = 1.f;
};

/// A node/edge table pair plus the adjacency views the checks need.
struct Graph {
  std::vector<uint64_t> ids;
  std::vector<int64_t> labels;  // -1 = unlabeled
  std::vector<std::vector<float>> features;
  std::vector<Edge> edges;

  // Derived by Index().
  std::unordered_map<uint64_t, int64_t> index;
  /// in[v] = (source index, weight) of every in-edge of node index v.
  std::vector<std::vector<std::pair<int64_t, float>>> in;
  std::vector<int64_t> out_degree;
  /// (src << 32 | dst) -> weight, for edge-membership checks.
  std::unordered_map<uint64_t, float> edge_weight;

  void Index();
  int64_t MaxInDegree() const;
  static uint64_t EdgeKey(uint64_t src, uint64_t dst) {
    return (src << 32) | dst;
  }
};

/// Power-law graph (preferential attachment) with a planted binary
/// community: label = community for the labeled share of nodes; features
/// carry a weak community signal; attachments prefer the same community.
/// Its sizes are constants of inputs.cc (listed in the README).
Graph MakePipelineGraph(uint64_t seed);

/// Low-skew graph: uniform random sources, fixed in-degree.
Graph MakeServeGraph(uint64_t seed);

/// Writes `graph` as the program's node and edge CSV tables.
bool WriteCsvTables(const Graph& graph, const std::string& node_path,
                    const std::string& edge_path, std::string* error);

}  // namespace perfbench
