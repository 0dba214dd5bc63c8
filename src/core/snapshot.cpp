#include "core/snapshot.h"

#include "core/stream_driver.h"

namespace tcsm {
namespace {

Timestamp EffectiveSnapshotWindow(const TemporalDataset& dataset,
                                  Timestamp window) {
  if (window > 0) return window;
  if (dataset.edges.empty()) return 1;
  // Larger than the whole time span: nothing expires before the end.
  return dataset.edges.back().ts - dataset.edges.front().ts + 2;
}

/// Replays the whole dataset once through a TCM engine feeding `sink`
/// (null: the result's counters only).
StreamResult ReplayInto(const TemporalDataset& dataset,
                        const QueryGraph& query,
                        const SnapshotOptions& options, MatchSink* sink) {
  SingleQueryContext<TcmEngine> run(
      query, GraphSchema{dataset.directed, dataset.vertex_labels},
      options.engine_config);
  run.engine().set_sink(sink);
  StreamConfig config;
  config.window = EffectiveSnapshotWindow(dataset, options.window);
  config.time_limit_ms = options.time_limit_ms;
  return RunStream(dataset, config, &run);
}

}  // namespace

SnapshotResult FindAllMatches(const TemporalDataset& dataset,
                              const QueryGraph& query,
                              const SnapshotOptions& options) {
  SnapshotResult result;
  CollectingSink sink;
  const StreamResult stream = ReplayInto(dataset, query, options, &sink);
  result.completed = stream.completed;
  result.matches.reserve(stream.occurred);
  for (const auto& [embedding, kind] : sink.matches()) {
    if (kind == MatchKind::kOccurred) result.matches.push_back(embedding);
  }
  return result;
}

SnapshotCount CountAllMatches(const TemporalDataset& dataset,
                              const QueryGraph& query,
                              const SnapshotOptions& options) {
  const StreamResult stream = ReplayInto(dataset, query, options, nullptr);
  return SnapshotCount{stream.completed, stream.occurred};
}

}  // namespace tcsm
