// Text loaders for legacy temporal datasets (input of `tcsm convert`).
//
// Edge-list format (SNAP temporal style, '#' comments):
//   src dst ts [edge_label]
// Optional vertex-label file:
//   vertex_id label
#ifndef TCSM_GRAPH_GRAPH_IO_H_
#define TCSM_GRAPH_GRAPH_IO_H_

#include <iosfwd>
#include <string>

#include "common/status.h"
#include "graph/temporal_dataset.h"

namespace tcsm {

/// Parses an edge list from a stream. Vertices are labeled 0 unless a
/// label stream is supplied via ParseVertexLabels afterwards.
StatusOr<TemporalDataset> ParseEdgeList(std::istream& in, bool directed);

/// Parses "vertex label" lines into an existing dataset.
Status ParseVertexLabels(std::istream& in, TemporalDataset* dataset);

StatusOr<TemporalDataset> LoadEdgeListFile(const std::string& path,
                                           bool directed);
Status LoadVertexLabelFile(const std::string& path, TemporalDataset* dataset);

}  // namespace tcsm

#endif  // TCSM_GRAPH_GRAPH_IO_H_
