// Experiment harness shared by the per-figure benchmark binaries: engine
// factory, query-set runner with per-query time limits, and the paper's
// aggregation rules (unsolved queries count as the time limit; averages
// exclude queries that *every* algorithm failed to solve).
#ifndef TCSM_BENCH_UTIL_EXPERIMENT_H_
#define TCSM_BENCH_UTIL_EXPERIMENT_H_

#include <memory>
#include <string>
#include <vector>

#include "core/engine.h"
#include "core/stream_driver.h"
#include "graph/temporal_dataset.h"
#include "query/query_graph.h"

namespace tcsm {

enum class EngineKind {
  kTcm,          // full TCM (filter + pruning)
  kTcmPruning,   // TC-matchable filter only, pruning disabled ("TCM-Pruning")
  kTcmNoFilter,  // pruning only, no TC filter (Table V comparison)
  kSymbiPost,    // SymBi + post-check
  kLocalEnum,    // index-free local enumeration + post-check (RapidFlow role)
  kTiming,       // materialized-prefix join engine
};

const char* EngineKindName(EngineKind kind);

/// Creates an engine of `kind` as a read-only view of `graph` (the shared
/// graph of the SharedStreamContext the caller attaches it to).
std::unique_ptr<ContinuousEngine> MakeEngine(EngineKind kind,
                                             const QueryGraph& query,
                                             const TemporalGraph& graph);

GraphSchema SchemaOf(const TemporalDataset& dataset);

struct QuerySetResult {
  std::vector<double> per_query_ms;       // capped at the limit if unsolved
  std::vector<uint8_t> per_query_solved;  // completed within the limit
  std::vector<uint64_t> per_query_matches;
  std::vector<size_t> per_query_peak_mem;

  size_t NumSolved() const;
  double AvgPeakMemory() const;
};

/// Streams `dataset` once per query through a fresh engine of `kind`,
/// running queries concurrently on up to `threads` workers (engines are
/// independent per query — the paper's "parallelizing our approach"
/// future work, applied at inter-query granularity). Per-query wall-clock
/// times are noisier under contention; results are positionally identical
/// at every thread count.
QuerySetResult RunQuerySet(const TemporalDataset& dataset,
                           const std::vector<QueryGraph>& queries,
                           EngineKind kind, Timestamp window,
                           double time_limit_ms, size_t threads = 1);

/// The paper's elapsed-time aggregation: average per-engine time over the
/// queries that at least one engine solved, counting unsolved runs as the
/// time limit. `results` holds one QuerySetResult per engine.
double AverageElapsedMs(const std::vector<QuerySetResult>& results,
                        size_t engine_idx, double time_limit_ms);

/// Scales the paper's window sizes (10k-50k "units" = live edges on the
/// full-scale datasets) down to a laptop-scale preset so the in-window
/// edge density matches the original: W_eff = units * |E| / |E_paper|.
/// Unknown dataset names fall back to min(units, |E|).
Timestamp EffectiveWindow(const TemporalDataset& dataset, Timestamp units);

/// Command-line options shared by the bench binaries. Defaults are sized
/// so the full per-figure suite finishes in tens of minutes on a laptop;
/// raise --queries/--limit_ms for tighter confidence intervals.
struct BenchArgs {
  std::vector<std::string> datasets;  // default: all six presets
  size_t queries_per_set = 4;
  double time_limit_ms = 800;
  double scale = 1.0;
  uint64_t seed = 7;
  /// --from=DIR: drivers that support it load `<DIR>/<dataset>.tel`
  /// instead of synthesizing the preset (docs/REPRODUCING.md), so the
  /// paper tables can be reproduced on real recorded streams.
  std::string from_dir;
};

BenchArgs ParseBenchArgs(int argc, char** argv);

}  // namespace tcsm

#endif  // TCSM_BENCH_UTIL_EXPERIMENT_H_
