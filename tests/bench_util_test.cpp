#include <gtest/gtest.h>

#include <sstream>
#include <thread>

#include "bench_util/experiment.h"
#include "bench_util/table_printer.h"
#include "datasets/presets.h"
#include "datasets/synthetic.h"
#include "querygen/query_generator.h"

namespace tcsm {
namespace {

TEST(TablePrinter, AlignsColumns) {
  TablePrinter t({"name", "value"});
  t.AddRow({"x", "1"});
  t.AddRow({"longer-name", "223344"});
  std::ostringstream os;
  t.Print(os);
  const std::string s = os.str();
  EXPECT_NE(s.find("name"), std::string::npos);
  EXPECT_NE(s.find("longer-name"), std::string::npos);
  EXPECT_NE(s.find("---"), std::string::npos);
  // Four lines: header, rule, two rows.
  EXPECT_EQ(std::count(s.begin(), s.end(), '\n'), 4);
}

TEST(Formatting, Doubles) {
  EXPECT_EQ(FormatDouble(1.23456, 2), "1.23");
  EXPECT_EQ(FormatDouble(2.0, 0), "2");
  EXPECT_EQ(FormatMegabytes(3 * 1024 * 1024), "3.00");
}

TEST(BenchArgs, Defaults) {
  const char* argv[] = {"bench"};
  const BenchArgs args = ParseBenchArgs(1, const_cast<char**>(argv));
  EXPECT_EQ(args.datasets.size(), 6u);
  EXPECT_GT(args.queries_per_set, 0u);
  EXPECT_GT(args.time_limit_ms, 0);
}

TEST(BenchArgs, ParsesFlags) {
  const char* argv[] = {"bench", "--datasets=yahoo,netflow", "--queries=9",
                        "--limit_ms=123.5", "--scale=0.5", "--seed=77"};
  const BenchArgs args = ParseBenchArgs(6, const_cast<char**>(argv));
  ASSERT_EQ(args.datasets.size(), 2u);
  EXPECT_EQ(args.datasets[0], "yahoo");
  EXPECT_EQ(args.datasets[1], "netflow");
  EXPECT_EQ(args.queries_per_set, 9u);
  EXPECT_DOUBLE_EQ(args.time_limit_ms, 123.5);
  EXPECT_DOUBLE_EQ(args.scale, 0.5);
  EXPECT_EQ(args.seed, 77u);
}

TEST(EffectiveWindow, ScalesByPaperRatioWithFloorAndCap) {
  TemporalDataset ds = MakePreset("superuser", 1.0);  // 48k edges, 1.44M
  const Timestamp w = EffectiveWindow(ds, 30000);
  EXPECT_NEAR(static_cast<double>(w), 30000.0 * 48000 / 1.44e6, 2.0);
  // Floor: sparse ratio datasets get at least units/30 live edges.
  TemporalDataset nf = MakePreset("netflow", 1.0);  // ratio would give ~81
  EXPECT_EQ(EffectiveWindow(nf, 30000), 1000);
  // Cap: never more than a quarter of the stream.
  TemporalDataset tiny = MakePreset("superuser", 0.02);
  EXPECT_LE(EffectiveWindow(tiny, 50000),
            static_cast<Timestamp>(tiny.NumEdges() / 4 + 1));
  // Unknown datasets: min(units, |E|).
  TemporalDataset unknown = tiny;
  unknown.name = "custom";
  EXPECT_EQ(EffectiveWindow(unknown, 100), 100);
}

TEST(Engines, FactoryProducesAllKinds) {
  QueryGraph q;
  q.AddVertex(0);
  q.AddVertex(0);
  q.AddEdge(0, 1);
  const GraphSchema schema{false, {0, 0, 0}};
  SharedStreamContext ctx(schema);
  for (const EngineKind kind :
       {EngineKind::kTcm, EngineKind::kTcmPruning, EngineKind::kTcmNoFilter,
        EngineKind::kSymbiPost, EngineKind::kLocalEnum,
        EngineKind::kTiming}) {
    auto engine = MakeEngine(kind, q, ctx.graph());
    ASSERT_NE(engine, nullptr);
    EXPECT_FALSE(engine->name().empty());
    EXPECT_STRNE(EngineKindName(kind), "?");
  }
}

TEST(AverageElapsedMs, ExcludesUniversallyUnsolved) {
  QuerySetResult a;
  a.per_query_ms = {10, 100, 100};
  a.per_query_solved = {1, 0, 0};
  QuerySetResult b;
  b.per_query_ms = {20, 100, 50};
  b.per_query_solved = {1, 0, 1};
  const std::vector<QuerySetResult> results{a, b};
  // Query 1 unsolved by all -> excluded. Engine a: (10 + limit)/2.
  EXPECT_DOUBLE_EQ(AverageElapsedMs(results, 0, 100), (10 + 100) / 2.0);
  EXPECT_DOUBLE_EQ(AverageElapsedMs(results, 1, 100), (20 + 50) / 2.0);
}

TEST(RunQuerySet, SequentialAndParallelAgree) {
  SyntheticSpec spec;
  spec.num_vertices = 40;
  spec.num_edges = 600;
  spec.num_vertex_labels = 2;
  spec.avg_parallel_edges = 2.0;
  spec.seed = 31;
  const TemporalDataset ds = GenerateSynthetic(spec);
  QueryGenOptions opt;
  opt.num_edges = 3;
  opt.density = 0.5;
  opt.window = 150;
  const auto queries = GenerateQuerySet(ds, opt, 4, 3);
  ASSERT_FALSE(queries.empty());

  const QuerySetResult seq =
      RunQuerySet(ds, queries, EngineKind::kTcm, 150, 0);
  const QuerySetResult par = RunQuerySet(
      ds, queries, EngineKind::kTcm, 150, 0,
      std::max(2u, std::thread::hardware_concurrency()));
  ASSERT_EQ(seq.per_query_matches.size(), par.per_query_matches.size());
  for (size_t i = 0; i < seq.per_query_matches.size(); ++i) {
    EXPECT_EQ(seq.per_query_matches[i], par.per_query_matches[i]) << i;
    EXPECT_EQ(seq.per_query_solved[i], par.per_query_solved[i]) << i;
  }
  EXPECT_EQ(seq.NumSolved(), queries.size());
}

TEST(RunQuerySet, ReportsPeakMemory) {
  SyntheticSpec spec;
  spec.num_vertices = 30;
  spec.num_edges = 300;
  spec.seed = 5;
  const TemporalDataset ds = GenerateSynthetic(spec);
  QueryGenOptions opt;
  opt.num_edges = 3;
  opt.window = 100;
  const auto queries = GenerateQuerySet(ds, opt, 2, 7);
  ASSERT_FALSE(queries.empty());
  const QuerySetResult r =
      RunQuerySet(ds, queries, EngineKind::kTiming, 100, 0);
  EXPECT_GT(r.AvgPeakMemory(), 0.0);
}

}  // namespace
}  // namespace tcsm
