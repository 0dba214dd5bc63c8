#include "bench_util/experiment.h"

#include <algorithm>
#include <atomic>
#include <cstring>
#include <sstream>
#include <thread>

#include "baselines/local_enum_engine.h"
#include "baselines/post_filter_engine.h"
#include "baselines/timing_engine.h"
#include "common/logging.h"
#include "core/tcm_engine.h"
#include "datasets/presets.h"

namespace tcsm {

const char* EngineKindName(EngineKind kind) {
  switch (kind) {
    case EngineKind::kTcm:
      return "TCM";
    case EngineKind::kTcmPruning:
      return "TCM-Pruning";
    case EngineKind::kTcmNoFilter:
      return "TCM-NoFilter";
    case EngineKind::kSymbiPost:
      return "SymBi";
    case EngineKind::kLocalEnum:
      return "RapidFlow*";
    case EngineKind::kTiming:
      return "Timing";
  }
  return "?";
}

std::unique_ptr<ContinuousEngine> MakeEngine(EngineKind kind,
                                             const QueryGraph& query,
                                             const TemporalGraph& graph) {
  switch (kind) {
    case EngineKind::kTcm:
      return std::make_unique<TcmEngine>(query, graph);
    case EngineKind::kTcmPruning: {
      TcmConfig config;
      config.prune_no_relation = false;
      config.prune_uniform = false;
      config.prune_failing_set = false;
      return std::make_unique<TcmEngine>(query, graph, config);
    }
    case EngineKind::kTcmNoFilter: {
      TcmConfig config;
      config.use_tc_filter = false;
      return std::make_unique<TcmEngine>(query, graph, config);
    }
    case EngineKind::kSymbiPost:
      return std::make_unique<PostFilterEngine>(query, graph);
    case EngineKind::kLocalEnum:
      return std::make_unique<LocalEnumEngine>(query, graph);
    case EngineKind::kTiming:
      return std::make_unique<TimingEngine>(query, graph);
  }
  TCSM_CHECK(false);
  return nullptr;
}

GraphSchema SchemaOf(const TemporalDataset& dataset) {
  return GraphSchema{dataset.directed, dataset.vertex_labels};
}

size_t QuerySetResult::NumSolved() const {
  size_t n = 0;
  for (const uint8_t s : per_query_solved) n += s;
  return n;
}

double QuerySetResult::AvgPeakMemory() const {
  if (per_query_peak_mem.empty()) return 0;
  double sum = 0;
  for (const size_t m : per_query_peak_mem) sum += static_cast<double>(m);
  return sum / static_cast<double>(per_query_peak_mem.size());
}

QuerySetResult RunQuerySet(const TemporalDataset& dataset,
                           const std::vector<QueryGraph>& queries,
                           EngineKind kind, Timestamp window,
                           double time_limit_ms, size_t threads) {
  const GraphSchema schema = SchemaOf(dataset);
  const size_t n = queries.size();
  QuerySetResult out;
  out.per_query_ms.assign(n, 0);
  out.per_query_solved.assign(n, 0);
  out.per_query_matches.assign(n, 0);
  out.per_query_peak_mem.assign(n, 0);

  // Each query replays the dataset alone on its own context.
  std::atomic<size_t> next{0};
  auto worker = [&]() {
    for (size_t q = next.fetch_add(1); q < n; q = next.fetch_add(1)) {
      SharedStreamContext ctx(schema);
      auto engine = MakeEngine(kind, queries[q], ctx.graph());
      ctx.Attach(engine.get());
      StreamConfig config;
      config.window = window;
      config.time_limit_ms = time_limit_ms;
      const StreamResult res = RunStream(dataset, config, &ctx);
      out.per_query_solved[q] = res.completed ? 1 : 0;
      out.per_query_ms[q] =
          res.completed ? res.elapsed_ms
                        : std::max(res.elapsed_ms, time_limit_ms);
      out.per_query_matches[q] = res.occurred + res.expired;
      out.per_query_peak_mem[q] = res.peak_memory_bytes;
    }
  };
  const size_t workers = std::min(threads, n);
  if (workers <= 1) {
    worker();  // serial: in the caller's thread, in query order
    return out;
  }
  std::vector<std::thread> pool;
  pool.reserve(workers);
  for (size_t t = 0; t < workers; ++t) pool.emplace_back(worker);
  for (auto& t : pool) t.join();
  return out;
}

double AverageElapsedMs(const std::vector<QuerySetResult>& results,
                        size_t engine_idx, double time_limit_ms) {
  TCSM_CHECK(engine_idx < results.size());
  const size_t n = results[engine_idx].per_query_ms.size();
  double sum = 0;
  size_t counted = 0;
  for (size_t q = 0; q < n; ++q) {
    bool any_solved = false;
    for (const QuerySetResult& r : results) {
      if (q < r.per_query_solved.size() && r.per_query_solved[q]) {
        any_solved = true;
        break;
      }
    }
    if (!any_solved) continue;  // excluded, as in the paper
    ++counted;
    const QuerySetResult& r = results[engine_idx];
    sum += r.per_query_solved[q] ? r.per_query_ms[q] : time_limit_ms;
  }
  return counted == 0 ? 0 : sum / static_cast<double>(counted);
}

Timestamp EffectiveWindow(const TemporalDataset& dataset, Timestamp units) {
  // Full-scale edge counts from Table III.
  double paper_edges = 0;
  if (dataset.name == "netflow") paper_edges = 15.96e6;
  if (dataset.name == "wikitalk") paper_edges = 7.83e6;
  if (dataset.name == "superuser") paper_edges = 1.44e6;
  if (dataset.name == "stackoverflow") paper_edges = 63.5e6;
  if (dataset.name == "yahoo") paper_edges = 3.18e6;
  if (dataset.name == "lsbench") paper_edges = 21.04e6;
  const auto n = static_cast<double>(dataset.NumEdges());
  if (paper_edges <= 0) {
    return std::min<Timestamp>(units, static_cast<Timestamp>(n));
  }
  double scaled = static_cast<double>(units) * n / paper_edges;
  // Volume floor: a window that preserves the paper's per-vertex density
  // on a ~100x smaller vertex set can hold only tens of live edges, which
  // makes every search trivial. When the ratio-scaled window drops below
  // units/75 live edges, lift it to units/30 (2k for the default 30k
  // window) so search cost, not per-event index overhead, dominates.
  // Windows already in a meaningful range (yahoo, superuser) are left at
  // the paper-faithful value — see DESIGN.md §5 "Scale".
  if (scaled < static_cast<double>(units) / 75.0) {
    scaled = static_cast<double>(units) / 30.0;
  }
  scaled = std::min(scaled, n / 4.0);
  return std::max<Timestamp>(64, static_cast<Timestamp>(scaled));
}

BenchArgs ParseBenchArgs(int argc, char** argv) {
  BenchArgs args;
  args.datasets = PresetNames();
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    auto value_of = [&](const char* prefix) -> const char* {
      const size_t len = std::strlen(prefix);
      return arg.compare(0, len, prefix) == 0 ? arg.c_str() + len : nullptr;
    };
    if (const char* v = value_of("--datasets=")) {
      args.datasets.clear();
      std::istringstream ss(v);
      std::string item;
      while (std::getline(ss, item, ',')) {
        if (!item.empty()) args.datasets.push_back(item);
      }
    } else if (const char* v = value_of("--queries=")) {
      args.queries_per_set = static_cast<size_t>(std::stoul(v));
    } else if (const char* v = value_of("--limit_ms=")) {
      args.time_limit_ms = std::stod(v);
    } else if (const char* v = value_of("--scale=")) {
      args.scale = std::stod(v);
    } else if (const char* v = value_of("--seed=")) {
      args.seed = std::stoull(v);
    } else if (const char* v = value_of("--from=")) {
      args.from_dir = v;
    }
  }
  return args;
}

}  // namespace tcsm
