// Unit tests for the binary `.tel` v2 framing (io/tel_binary.h): wire
// layout, both block encodings, the index footer and O(1) seek, the
// flight-recorder ring, and the ingest-side observability counters. The
// match-stream equivalence of binary replay is covered by
// io_roundtrip_test.cpp; the hostile-input matrix by io_errors_test.cpp.
#include <gtest/gtest.h>

#include <cstring>
#include <sstream>
#include <string>
#include <vector>

#include "graph/temporal_dataset.h"
#include "io/flight_recorder.h"
#include "io/stream_reader.h"
#include "io/stream_writer.h"
#include "io/tel_binary.h"
#include "obs/observability.h"

namespace tcsm {
namespace {

TemporalEdge Edge(VertexId src, VertexId dst, Timestamp ts, Label label = 0) {
  TemporalEdge e;
  e.src = src;
  e.dst = dst;
  e.ts = ts;
  e.label = label;
  return e;
}

/// A small dataset exercising labels, duplicate timestamps, and a
/// negative start.
TemporalDataset SmallDataset() {
  TemporalDataset ds;
  ds.directed = true;
  ds.vertex_labels = {0, 1, 2, 0, 1};
  ds.edges = {Edge(0, 1, -5, 7), Edge(1, 2, -5), Edge(2, 3, 0, 1),
              Edge(3, 4, 3),     Edge(4, 0, 3),  Edge(0, 2, 12, 2)};
  for (size_t i = 0; i < ds.edges.size(); ++i) {
    ds.edges[i].id = static_cast<EdgeId>(i);
  }
  return ds;
}

std::string Serialize(const TemporalDataset& ds, const TelWriteOptions& opts) {
  std::ostringstream out;
  const Status s = WriteTel(ds, opts, out);
  EXPECT_TRUE(s.ok()) << s.ToString();
  return out.str();
}

TelWriteOptions BinaryOptions(bool varint, size_t block_records = 0,
                              Timestamp window = 20) {
  TelWriteOptions opts;
  opts.binary = true;
  opts.varint_timestamps = varint;
  opts.block_records = block_records;
  opts.window = window;
  return opts;
}

TEST(TelBinaryWire, MagicHeaderAndTrailerLayout) {
  const TemporalDataset ds = SmallDataset();
  const std::string tel = Serialize(ds, BinaryOptions(/*varint=*/true));
  ASSERT_GE(tel.size(), 8 + kTelBinaryHeaderBytes + kTelTrailerBytes);
  EXPECT_EQ(std::memcmp(tel.data(), kTelBinaryMagic, 8), 0);
  // Header: version 2, directed flag, 5 vertices, window 20 (all LE).
  const unsigned char* h =
      reinterpret_cast<const unsigned char*>(tel.data()) + 8;
  EXPECT_EQ(h[0] | (h[1] << 8), kTelBinaryVersion);
  EXPECT_EQ(h[2] | (h[3] << 8), kTelBinaryFlagDirected);
  EXPECT_EQ(h[8], 5u);   // num_vertices low byte
  EXPECT_EQ(h[16], 20u); // window low byte
  // Trailer ends in the footer magic.
  EXPECT_EQ(std::memcmp(tel.data() + tel.size() - 8, kTelBinaryFooterMagic, 8),
            0);
}

TEST(TelBinaryWire, SniffDispatchesOnFirstByte) {
  const std::string tel =
      Serialize(SmallDataset(), BinaryOptions(/*varint=*/true));
  std::istringstream in(tel);
  StreamReader reader(in, "wire.tel");
  ASSERT_TRUE(reader.Init().ok());
  EXPECT_TRUE(reader.binary());
  EXPECT_TRUE(reader.has_vertex_universe());
  EXPECT_EQ(reader.header().window, 20);
  EXPECT_TRUE(reader.header().directed);
  EXPECT_EQ(reader.vertex_labels(), SmallDataset().vertex_labels);
  EXPECT_EQ(reader.line(), 0u);  // binary diagnostics carry byte offsets
}

class TelBinaryRoundTrip : public ::testing::TestWithParam<bool> {};

TEST_P(TelBinaryRoundTrip, DatasetSurvivesBothEncodings) {
  const bool varint = GetParam();
  const TemporalDataset ds = SmallDataset();
  for (const size_t block_records : {size_t{0}, size_t{1}, size_t{2}}) {
    SCOPED_TRACE("block_records " + std::to_string(block_records));
    const std::string tel = Serialize(ds, BinaryOptions(varint, block_records));
    std::istringstream in(tel);
    TelHeader header;
    auto parsed = ReadTelDataset(in, "rt.tel", &header);
    ASSERT_TRUE(parsed.ok()) << parsed.status().ToString();
    EXPECT_EQ(header.window, 20);
    EXPECT_EQ(parsed.value().directed, ds.directed);
    EXPECT_EQ(parsed.value().vertex_labels, ds.vertex_labels);
    ASSERT_EQ(parsed.value().NumEdges(), ds.NumEdges());
    for (size_t i = 0; i < ds.edges.size(); ++i) {
      EXPECT_EQ(parsed.value().edges[i].id, ds.edges[i].id);
      EXPECT_EQ(parsed.value().edges[i].src, ds.edges[i].src);
      EXPECT_EQ(parsed.value().edges[i].dst, ds.edges[i].dst);
      EXPECT_EQ(parsed.value().edges[i].ts, ds.edges[i].ts);
      EXPECT_EQ(parsed.value().edges[i].label, ds.edges[i].label);
    }
  }
}

TEST_P(TelBinaryRoundTrip, ExplicitExpirySurvives) {
  const bool varint = GetParam();
  TelWriteOptions opts = BinaryOptions(varint, /*block_records=*/2);
  opts.explicit_expiry = true;
  const std::string tel = Serialize(SmallDataset(), opts);

  // Record-by-record, the binary stream must replay the exact schedule
  // the text writer would have produced.
  TelWriteOptions text = opts;
  text.binary = false;
  const std::string text_tel = Serialize(SmallDataset(), text);

  std::istringstream bin_in(tel);
  std::istringstream text_in(text_tel);
  StreamReader bin_reader(bin_in, "bin.tel");
  StreamReader text_reader(text_in, "text.tel");
  ASSERT_TRUE(bin_reader.Init().ok());
  ASSERT_TRUE(text_reader.Init().ok());
  EXPECT_TRUE(bin_reader.header().explicit_expiry);
  while (true) {
    StreamRecord a, b;
    bool a_done = false, b_done = false;
    ASSERT_TRUE(bin_reader.Next(&a, &a_done).ok());
    ASSERT_TRUE(text_reader.Next(&b, &b_done).ok());
    ASSERT_EQ(a_done, b_done);
    if (a_done) break;
    EXPECT_EQ(a.kind, b.kind);
    EXPECT_EQ(a.edge.src, b.edge.src);
    EXPECT_EQ(a.edge.dst, b.edge.dst);
    EXPECT_EQ(a.edge.ts, b.edge.ts);
    EXPECT_EQ(a.edge.label, b.edge.label);
  }
}

INSTANTIATE_TEST_SUITE_P(Encodings, TelBinaryRoundTrip, ::testing::Bool(),
                         [](const ::testing::TestParamInfo<bool>& info) {
                           return info.param ? "varint" : "fixed";
                         });

TEST(TelBinaryWire, VarintSurvivesExtremeValues) {
  // Large timestamp deltas (10-byte varints), max-ish vertex ids, and
  // labels with high bits all round-trip.
  TemporalDataset ds;
  ds.directed = false;
  ds.vertex_labels.assign(1u << 16, 0);
  ds.vertex_labels.back() = 0x7fffffff;
  ds.edges = {Edge(0, (1u << 16) - 1, -kMaxStreamTimestamp, 0x7fffffff),
              Edge(1, 2, 0), Edge(2, 3, kMaxStreamTimestamp)};
  for (size_t i = 0; i < ds.edges.size(); ++i) {
    ds.edges[i].id = static_cast<EdgeId>(i);
  }
  const std::string tel =
      Serialize(ds, BinaryOptions(/*varint=*/true, 0, /*window=*/0));
  std::istringstream in(tel);
  auto parsed = ReadTelDataset(in, "extreme.tel");
  ASSERT_TRUE(parsed.ok()) << parsed.status().ToString();
  ASSERT_EQ(parsed.value().NumEdges(), 3u);
  EXPECT_EQ(parsed.value().edges[0].ts, -kMaxStreamTimestamp);
  EXPECT_EQ(parsed.value().edges[0].dst, (1u << 16) - 1);
  EXPECT_EQ(parsed.value().edges[0].label, 0x7fffffffu);
  EXPECT_EQ(parsed.value().edges[2].ts, kMaxStreamTimestamp);
}

TEST(TelBinaryWire, EmptyStreamRoundTrips) {
  TemporalDataset ds;
  ds.vertex_labels = {0, 0};
  const std::string tel = Serialize(ds, BinaryOptions(/*varint=*/true));
  std::istringstream in(tel);
  StreamReader reader(in, "empty.tel");
  ASSERT_TRUE(reader.Init().ok());
  StreamRecord rec;
  bool done = false;
  ASSERT_TRUE(reader.Next(&rec, &done).ok());
  EXPECT_TRUE(done);
  // Seeking an empty stream is a clean end, not an error.
  std::istringstream in2(tel);
  StreamReader seeker(in2, "empty.tel");
  ASSERT_TRUE(seeker.Init().ok());
  ASSERT_TRUE(seeker.SeekToTimestamp(100).ok());
  done = false;
  ASSERT_TRUE(seeker.Next(&rec, &done).ok());
  EXPECT_TRUE(done);
}

TEST(TelBinaryWire, SelfLoopsDroppedNotFatal) {
  // Loops cannot pass StreamWriter, so splice a fixed-encoding record in
  // by hand: write a 2-edge fixed stream and corrupt the first record's
  // dst to equal src.
  TemporalDataset ds;
  ds.vertex_labels = {0, 0, 0};
  ds.edges = {Edge(0, 1, 5), Edge(1, 2, 6)};
  ds.edges[0].id = 0;
  ds.edges[1].id = 1;
  std::string tel =
      Serialize(ds, BinaryOptions(/*varint=*/false, 0, /*window=*/0));
  // Layout: magic(8) header(24) labels(u64 count = 8, no entries)
  // block_header(32) then record 0: kind(4) src(4) dst(4)...
  const size_t dst_off = 8 + kTelBinaryHeaderBytes + 8 + kTelBlockHeaderBytes +
                         8;
  ASSERT_EQ(tel[dst_off], 1);  // record 0's dst
  tel[dst_off] = 0;            // now a self loop
  std::istringstream in(tel);
  auto parsed = ReadTelDataset(in, "loop.tel");
  ASSERT_TRUE(parsed.ok()) << parsed.status().ToString();
  ASSERT_EQ(parsed.value().NumEdges(), 1u);
  EXPECT_EQ(parsed.value().edges[0].id, 0u);  // dropped loop takes no id
  EXPECT_EQ(parsed.value().edges[0].src, 1u);
}

// --- Seek -----------------------------------------------------------------

/// 40 arrivals at ts = 10*i, 4 records per block: block b covers
/// timestamps [40b*10 .. (4b+3)*10] with first_arrival_index 4b.
TemporalDataset SeekDataset() {
  TemporalDataset ds;
  ds.directed = false;
  ds.vertex_labels.assign(50, 0);
  for (int i = 0; i < 40; ++i) {
    TemporalEdge e = Edge(static_cast<VertexId>(i), static_cast<VertexId>(i + 1),
                          10 * i);
    e.id = static_cast<EdgeId>(i);
    ds.edges.push_back(e);
  }
  return ds;
}

TEST(TelBinarySeek, LandsOnCoveringBlockWithArrivalIndex) {
  const std::string tel =
      Serialize(SeekDataset(), BinaryOptions(/*varint=*/true,
                                             /*block_records=*/4));
  struct Case {
    Timestamp t;
    Timestamp first_record_ts;  // first record the seeked reader returns
    uint64_t first_arrival_index;
  };
  // Block b holds ts {40b, 40b+10, 40b+20, 40b+30}. Seeking to t lands on
  // the first block with last_ts >= t.
  const Case cases[] = {
      {-100, 0, 0},  // before the stream: block 0
      {0, 0, 0},     {10, 0, 0},   {30, 0, 0},
      {31, 40, 4},   // block 0 ends at 30; next block covers 31
      {40, 40, 4},   {200, 200, 20},
      {390, 360, 36},  // last block
  };
  for (const Case& c : cases) {
    SCOPED_TRACE("seek to " + std::to_string(c.t));
    std::istringstream in(tel);
    StreamReader reader(in, "seek.tel");
    ASSERT_TRUE(reader.Init().ok());
    ASSERT_TRUE(reader.SeekToTimestamp(c.t).ok());
    EXPECT_EQ(reader.first_arrival_index(), c.first_arrival_index);
    StreamRecord rec;
    bool done = false;
    ASSERT_TRUE(reader.Next(&rec, &done).ok());
    ASSERT_FALSE(done);
    EXPECT_EQ(rec.edge.ts, c.first_record_ts);
    // The remainder of the stream reads out clean.
    size_t rest = 1;
    while (true) {
      const Status s = reader.Next(&rec, &done);
      ASSERT_TRUE(s.ok()) << s.ToString();
      if (done) break;
      ++rest;
    }
    EXPECT_EQ(rest, 40 - c.first_arrival_index);
  }
}

TEST(TelBinarySeek, PastEndIsCleanDone) {
  const std::string tel =
      Serialize(SeekDataset(), BinaryOptions(/*varint=*/true, 4));
  std::istringstream in(tel);
  StreamReader reader(in, "seek.tel");
  ASSERT_TRUE(reader.Init().ok());
  ASSERT_TRUE(reader.SeekToTimestamp(391).ok());
  EXPECT_EQ(reader.first_arrival_index(), 40u);
  StreamRecord rec;
  bool done = false;
  ASSERT_TRUE(reader.Next(&rec, &done).ok());
  EXPECT_TRUE(done);
}

TEST(TelBinarySeek, RefusedForTextAndExplicitAndPipes) {
  // Text framing has no index.
  std::istringstream text("tel 1 undirected vertices=2\ne 0 1 5\n");
  StreamReader text_reader(text, "t.tel");
  ASSERT_TRUE(text_reader.Init().ok());
  Status s = text_reader.SeekToTimestamp(5);
  EXPECT_EQ(s.code(), StatusCode::kInvalidArgument);
  EXPECT_NE(s.message().find("binary"), std::string::npos);

  // Explicit-expiry streams cannot resume mid-file.
  TelWriteOptions opts = BinaryOptions(/*varint=*/true, 4);
  opts.explicit_expiry = true;
  const std::string explicit_tel = Serialize(SeekDataset(), opts);
  std::istringstream ein(explicit_tel);
  StreamReader ereader(ein, "e.tel");
  ASSERT_TRUE(ereader.Init().ok());
  s = ereader.SeekToTimestamp(5);
  EXPECT_EQ(s.code(), StatusCode::kInvalidArgument);
  EXPECT_NE(s.message().find("explicit-expiry"), std::string::npos);

  // A non-seekable stream (a pipe) is refused up front, not mid-read.
  class PipeBuf : public std::streambuf {
   public:
    explicit PipeBuf(const std::string& s) : data_(s) {
      char* p = data_.data();
      setg(p, p, p + data_.size());
    }
    // No seekoff/seekpos overrides: seeks fail, as on a real pipe.

   private:
    std::string data_;
  };
  PipeBuf buf(Serialize(SeekDataset(), BinaryOptions(true, 4)));
  std::istream pin(&buf);
  StreamReader preader(pin, "<pipe>");
  ASSERT_TRUE(preader.Init().ok());
  s = preader.SeekToTimestamp(5);
  EXPECT_EQ(s.code(), StatusCode::kInvalidArgument);
  EXPECT_NE(s.message().find("seekable"), std::string::npos) << s.ToString();
  // The pipe reader still streams fine sequentially.
  StreamRecord rec;
  bool done = false;
  ASSERT_TRUE(preader.Next(&rec, &done).ok());
  EXPECT_FALSE(done);
}

// --- Flight recorder ------------------------------------------------------

TEST(FlightRecorder, RingRetainsLastNInOrder) {
  GraphSchema schema;
  schema.directed = false;
  schema.vertex_labels.assign(100, 0);
  FlightRecorder rec(schema, /*window=*/7, /*capacity=*/4);
  EXPECT_EQ(rec.capacity(), 4u);
  EXPECT_EQ(rec.size(), 0u);
  for (int i = 0; i < 10; ++i) {
    rec.Record(Edge(static_cast<VertexId>(i), static_cast<VertexId>(i + 1), i));
    EXPECT_EQ(rec.size(), std::min<size_t>(i + 1, 4));
  }
  EXPECT_EQ(rec.total_recorded(), 10u);

  std::ostringstream out;
  ASSERT_TRUE(rec.DumpTel(out, /*binary=*/false).ok());
  std::istringstream in(out.str());
  TelHeader header;
  auto ds = ReadTelDataset(in, "dump.tel", &header);
  ASSERT_TRUE(ds.ok()) << ds.status().ToString();
  EXPECT_EQ(header.window, 7);
  ASSERT_EQ(ds.value().NumEdges(), 4u);
  for (size_t i = 0; i < 4; ++i) {  // oldest retained first: ts 6,7,8,9
    EXPECT_EQ(ds.value().edges[i].ts, static_cast<Timestamp>(6 + i));
    EXPECT_EQ(ds.value().edges[i].src, 6 + i);
  }
}

TEST(FlightRecorder, BinaryDumpMatchesTextDump) {
  GraphSchema schema;
  schema.directed = true;
  schema.vertex_labels = {0, 1, 0};
  FlightRecorder rec(schema, /*window=*/5, /*capacity=*/8);
  rec.Record(Edge(0, 1, 3, 2));
  rec.Record(Edge(1, 2, 4));
  std::ostringstream text_out, bin_out;
  ASSERT_TRUE(rec.DumpTel(text_out, /*binary=*/false).ok());
  ASSERT_TRUE(rec.DumpTel(bin_out, /*binary=*/true).ok());
  std::istringstream tin(text_out.str()), bin(bin_out.str());
  TelHeader th, bh;
  auto tds = ReadTelDataset(tin, "t.tel", &th);
  auto bds = ReadTelDataset(bin, "b.tel", &bh);
  ASSERT_TRUE(tds.ok());
  ASSERT_TRUE(bds.ok()) << bds.status().ToString();
  EXPECT_EQ(th.window, bh.window);
  EXPECT_EQ(tds.value().directed, bds.value().directed);
  EXPECT_EQ(tds.value().vertex_labels, bds.value().vertex_labels);
  ASSERT_EQ(tds.value().NumEdges(), bds.value().NumEdges());
  for (size_t i = 0; i < tds.value().edges.size(); ++i) {
    EXPECT_EQ(tds.value().edges[i].src, bds.value().edges[i].src);
    EXPECT_EQ(tds.value().edges[i].dst, bds.value().edges[i].dst);
    EXPECT_EQ(tds.value().edges[i].ts, bds.value().edges[i].ts);
    EXPECT_EQ(tds.value().edges[i].label, bds.value().edges[i].label);
  }
}

// --- Ingest observability -------------------------------------------------

TEST(TelIngestMetrics, CountersReconcileWithTheStream) {
  const TemporalDataset ds = SmallDataset();
  TelWriteOptions text_opts;
  text_opts.window = 20;
  const std::string text_tel = Serialize(ds, text_opts);
  const std::string bin_tel = Serialize(ds, BinaryOptions(/*varint=*/true));

  for (const bool binary : {false, true}) {
    SCOPED_TRACE(binary ? "binary" : "text");
    const std::string& tel = binary ? bin_tel : text_tel;
    Observability obs;
    std::istringstream in(tel);
    StreamReader reader(in, "metrics.tel");
    reader.set_stage_metrics(&obs.stages());
    ASSERT_TRUE(reader.Init().ok());
    uint64_t records = 0;
    StreamRecord rec;
    bool done = false;
    while (true) {
      ASSERT_TRUE(reader.Next(&rec, &done).ok());
      if (done) break;
      ++records;
    }
    EXPECT_EQ(records, ds.NumEdges());
    const MetricsSnapshot snap = obs.Snapshot();
    EXPECT_EQ(snap.CounterValue("io.ingest_records"), records);
    // Every byte the reader pulled is accounted to io.ingest_bytes. Text
    // reads the whole stream; a sequential binary read stops at the
    // sentinel and never touches the index footer or trailer.
    const uint64_t expected_bytes =
        binary ? tel.size() - kTelTrailerBytes - 8 - kTelIndexEntryBytes
               : tel.size();
    EXPECT_EQ(snap.CounterValue("io.ingest_bytes"), expected_bytes);
    const HistogramSnapshot* parse = snap.FindHistogram("stage.parse_ns");
    ASSERT_NE(parse, nullptr);
    EXPECT_GT(parse->count, 0u);
  }
}

}  // namespace
}  // namespace tcsm
