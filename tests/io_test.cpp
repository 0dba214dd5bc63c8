#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>
#include <sstream>

#include "graph/graph_io.h"
#include "query/query_io.h"
#include "testlib/running_example.h"

namespace tcsm {
namespace {

TEST(GraphIo, ParseEdgeList) {
  std::istringstream in(
      "# comment\n"
      "0 1 5\n"
      "1 2 3 9\n"
      "4 4 6\n"  // self loop: silently dropped on ingest
      "\n"
      "0 2 7\n");
  auto result = ParseEdgeList(in, /*directed=*/false);
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  const TemporalDataset& ds = result.value();
  ASSERT_EQ(ds.NumEdges(), 3u);
  EXPECT_EQ(ds.NumVertices(), 3u);
  // Normalized by timestamp: 3, 5, 7.
  EXPECT_EQ(ds.edges[0].ts, 3);
  EXPECT_EQ(ds.edges[0].label, 9u);
  EXPECT_EQ(ds.edges[1].ts, 5);
  EXPECT_EQ(ds.edges[2].ts, 7);
  EXPECT_EQ(ds.edges[1].id, 1u);
}

TEST(GraphIo, ParseRejectsGarbage) {
  std::istringstream in("0 x 5\n");
  auto result = ParseEdgeList(in, false);
  EXPECT_FALSE(result.ok());
  EXPECT_EQ(result.status().code(), StatusCode::kCorruptInput);

  std::istringstream neg("-1 2 5\n");
  EXPECT_FALSE(ParseEdgeList(neg, false).ok());
}

TEST(GraphIo, VertexLabels) {
  std::istringstream in("0 1 5\n2 3 6\n");
  auto result = ParseEdgeList(in, false);
  ASSERT_TRUE(result.ok());
  TemporalDataset ds = std::move(result).value();
  std::istringstream labels("0 4\n3 2\n");
  ASSERT_TRUE(ParseVertexLabels(labels, &ds).ok());
  EXPECT_EQ(ds.vertex_labels[0], 4u);
  EXPECT_EQ(ds.vertex_labels[3], 2u);
  EXPECT_EQ(ds.vertex_labels[1], 0u);
}

TEST(GraphIo, LoadFileMatchesWrittenEdges) {
  const TemporalDataset ds = testlib::RunningExampleDataset();
  const std::string path = ::testing::TempDir() + "/tcsm_io_test.edges";
  {
    std::ofstream out(path);
    out << "# src dst ts label\n";
    for (const TemporalEdge& e : ds.edges) {
      out << e.src << ' ' << e.dst << ' ' << e.ts << ' ' << e.label << '\n';
    }
  }
  auto loaded = LoadEdgeListFile(path, false);
  ASSERT_TRUE(loaded.ok());
  ASSERT_EQ(loaded.value().NumEdges(), ds.NumEdges());
  for (size_t i = 0; i < ds.edges.size(); ++i) {
    EXPECT_EQ(loaded.value().edges[i].src, ds.edges[i].src);
    EXPECT_EQ(loaded.value().edges[i].dst, ds.edges[i].dst);
    EXPECT_EQ(loaded.value().edges[i].ts, ds.edges[i].ts);
  }
  std::remove(path.c_str());
}

TEST(GraphIo, MissingFileIsNotFound) {
  EXPECT_EQ(LoadEdgeListFile("/no/such/file", false).status().code(),
            StatusCode::kNotFound);
}

TEST(QueryIo, SerializeParseRoundTrip) {
  const QueryGraph q = testlib::RunningExampleQuery();
  const std::string text = SerializeQuery(q);
  auto parsed = ParseQueryString(text);
  ASSERT_TRUE(parsed.ok()) << parsed.status().ToString();
  const QueryGraph& p = parsed.value();
  ASSERT_EQ(p.NumVertices(), q.NumVertices());
  ASSERT_EQ(p.NumEdges(), q.NumEdges());
  for (VertexId v = 0; v < q.NumVertices(); ++v) {
    EXPECT_EQ(p.VertexLabel(v), q.VertexLabel(v));
  }
  for (EdgeId e = 0; e < q.NumEdges(); ++e) {
    EXPECT_EQ(p.Edge(e).u, q.Edge(e).u);
    EXPECT_EQ(p.Edge(e).v, q.Edge(e).v);
    EXPECT_EQ(p.Before(e), q.Before(e));
    EXPECT_EQ(p.After(e), q.After(e));
  }
  EXPECT_EQ(p.directed(), q.directed());
}

TEST(QueryIo, ParseValidatesStructure) {
  // Header counts must match.
  EXPECT_FALSE(ParseQueryString("t 2 1\nv 0 0\n").ok());
  // Cyclic order rejected.
  const char* cyclic =
      "t 3 3\nv 0 0\nv 1 0\nv 2 0\n"
      "e 0 0 1\ne 1 1 2\ne 2 2 0\n"
      "o 0 1\no 1 2\no 2 0\n";
  EXPECT_FALSE(ParseQueryString(cyclic).ok());
  // Disconnected query rejected.
  const char* disconnected =
      "t 4 2\nv 0 0\nv 1 0\nv 2 0\nv 3 0\n"
      "e 0 0 1\ne 1 2 3\n";
  EXPECT_FALSE(ParseQueryString(disconnected).ok());
  // Unknown tag rejected.
  EXPECT_FALSE(ParseQueryString("t 1 0\nv 0 0\nx 1 2\n").ok());
}

TEST(QueryIo, ParseDirectedHeader) {
  const char* text =
      "t 2 1 directed\n"
      "v 0 0\nv 1 1\n"
      "e 0 0 1 3\n";
  auto parsed = ParseQueryString(text);
  ASSERT_TRUE(parsed.ok());
  EXPECT_TRUE(parsed.value().directed());
  EXPECT_EQ(parsed.value().Edge(0).elabel, 3u);
}

TEST(QueryIo, FileRoundTrip) {
  const QueryGraph q = testlib::RunningExampleQuery();
  const std::string path = ::testing::TempDir() + "/tcsm_query_test.q";
  ASSERT_TRUE(SaveQueryFile(q, path).ok());
  auto loaded = LoadQueryFile(path);
  ASSERT_TRUE(loaded.ok());
  EXPECT_EQ(loaded.value().NumEdges(), q.NumEdges());
  std::remove(path.c_str());
  EXPECT_EQ(LoadQueryFile("/no/such/query").status().code(),
            StatusCode::kNotFound);
}

}  // namespace
}  // namespace tcsm
