#include "workloads.h"

namespace perfbench {

agl::gnn::ModelConfig SageConfig(int64_t in_dim) {
  agl::gnn::ModelConfig m;
  m.type = agl::gnn::ModelType::kGraphSage;
  m.num_layers = kHops;
  m.in_dim = in_dim;
  m.hidden_dim = 16;
  m.out_dim = 2;
  return m;
}

double Share(double part, double whole) { return whole > 0 ? part / whole : 0; }

bool ReadTables(const std::string& dir, Tracer* tracer,
                std::vector<agl::flat::NodeRecord>* nodes,
                std::vector<agl::flat::EdgeRecord>* edges, double* seconds,
                std::string* error) {
  Tracer::Span s(tracer, "flat.read_csv_tables", "flat");
  const double t = Now();
  auto n = agl::flat::ReadNodeCsv(dir + "/nodes.csv");
  auto e = agl::flat::ReadEdgeCsv(dir + "/edges.csv");
  *seconds = Now() - t;
  if (!n.ok() || !e.ok()) {
    *error = "tables: " + (n.ok() ? e.status() : n.status()).ToString();
    return false;
  }
  *nodes = std::move(n).value();
  *edges = std::move(e).value();
  s.Arg("nodes", static_cast<double>(nodes->size()));
  s.Arg("edges", static_cast<double>(edges->size()));
  return true;
}

}  // namespace perfbench
