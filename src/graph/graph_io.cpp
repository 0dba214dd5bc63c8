#include "graph/graph_io.h"

#include <fstream>
#include <sstream>
#include <unordered_map>
#include <unordered_set>

#include "common/types.h"

namespace tcsm {

DatasetStats TemporalDataset::ComputeStats() const {
  DatasetStats s;
  s.num_vertices = vertex_labels.size();
  s.num_edges = edges.size();
  std::unordered_set<Label> vlabels(vertex_labels.begin(),
                                    vertex_labels.end());
  s.num_vertex_labels = vlabels.size();
  std::unordered_set<Label> elabels;
  std::unordered_set<uint64_t> pairs;
  for (const TemporalEdge& e : edges) {
    elabels.insert(e.label);
    const VertexId a = std::min(e.src, e.dst);
    const VertexId b = std::max(e.src, e.dst);
    pairs.insert(PackPair(a, b));
  }
  s.num_edge_labels = elabels.size();
  if (s.num_vertices > 0) {
    s.avg_degree = 2.0 * static_cast<double>(s.num_edges) /
                   static_cast<double>(s.num_vertices);
  }
  if (!pairs.empty()) {
    s.avg_parallel_edges =
        static_cast<double>(s.num_edges) / static_cast<double>(pairs.size());
  }
  if (!edges.empty()) {
    s.min_ts = edges.front().ts;
    s.max_ts = edges.back().ts;
    if (edges.size() > 1) {
      s.window_unit = static_cast<double>(s.max_ts - s.min_ts) /
                      static_cast<double>(edges.size() - 1);
    }
  }
  return s;
}

StatusOr<TemporalDataset> ParseEdgeList(std::istream& in, bool directed) {
  TemporalDataset ds;
  ds.directed = directed;
  std::string line;
  size_t lineno = 0;
  VertexId max_vertex = 0;
  bool any = false;
  while (std::getline(in, line)) {
    ++lineno;
    if (line.empty() || line[0] == '#' || line[0] == '%') continue;
    std::istringstream ls(line);
    int64_t src, dst, ts;
    int64_t elabel = 0;
    if (!(ls >> src >> dst >> ts)) {
      return Status::CorruptInput("bad edge at line " + std::to_string(lineno));
    }
    ls >> elabel;  // optional
    if (src < 0 || dst < 0) {
      return Status::CorruptInput("negative vertex id at line " +
                                  std::to_string(lineno));
    }
    if (src == dst) continue;  // self loops never participate in matches
    TemporalEdge e;
    e.src = static_cast<VertexId>(src);
    e.dst = static_cast<VertexId>(dst);
    e.ts = ts;
    e.label = static_cast<Label>(elabel);
    ds.edges.push_back(e);
    max_vertex = std::max({max_vertex, e.src, e.dst});
    any = true;
  }
  ds.vertex_labels.assign(any ? max_vertex + 1 : 0, 0);
  ds.Normalize();
  return ds;
}

Status ParseVertexLabels(std::istream& in, TemporalDataset* dataset) {
  std::string line;
  size_t lineno = 0;
  while (std::getline(in, line)) {
    ++lineno;
    if (line.empty() || line[0] == '#' || line[0] == '%') continue;
    std::istringstream ls(line);
    int64_t v, label;
    if (!(ls >> v >> label) || v < 0) {
      return Status::CorruptInput("bad vertex label at line " +
                                  std::to_string(lineno));
    }
    if (static_cast<size_t>(v) >= dataset->vertex_labels.size()) {
      dataset->vertex_labels.resize(static_cast<size_t>(v) + 1, 0);
    }
    dataset->vertex_labels[static_cast<size_t>(v)] =
        static_cast<Label>(label);
  }
  return Status::Ok();
}

StatusOr<TemporalDataset> LoadEdgeListFile(const std::string& path,
                                           bool directed) {
  std::ifstream in(path);
  if (!in) return Status::NotFound("cannot open " + path);
  auto result = ParseEdgeList(in, directed);
  if (result.ok()) result.value().name = path;
  return result;
}

Status LoadVertexLabelFile(const std::string& path,
                           TemporalDataset* dataset) {
  std::ifstream in(path);
  if (!in) return Status::NotFound("cannot open " + path);
  return ParseVertexLabels(in, dataset);
}

}  // namespace tcsm
