// Error-handling contract of the `.tel` / query parsers (DESIGN.md §8):
// malformed input of any shape returns a Status carrying a line-numbered
// diagnostic — never a crash, never a silently wrong dataset.
#include <gtest/gtest.h>

#include <cstring>
#include <sstream>
#include <string>

#include "core/tcm_engine.h"
#include "graph/temporal_dataset.h"
#include "io/replay.h"
#include "io/stream_reader.h"
#include "io/stream_writer.h"
#include "io/tel_binary.h"
#include "query/query_io.h"
#include "testlib/running_example.h"

namespace tcsm {
namespace {

/// Parses `text` as a whole `.tel` stream and expects a CorruptInput
/// status whose message carries "<source>:<line>:" and `what`.
void ExpectTelError(const std::string& text, size_t line,
                    const std::string& what) {
  std::istringstream in(text);
  auto result = ReadTelDataset(in, "test.tel");
  ASSERT_FALSE(result.ok()) << "parsed: " << text;
  EXPECT_EQ(result.status().code(), StatusCode::kCorruptInput) << text;
  const std::string& msg = result.status().message();
  EXPECT_NE(msg.find("test.tel:" + std::to_string(line) + ":"),
            std::string::npos)
      << "no line " << line << " diagnostic in: " << msg;
  EXPECT_NE(msg.find(what), std::string::npos)
      << "'" << what << "' not in: " << msg;
}

TEST(TelErrors, HeaderProblems) {
  ExpectTelError("", 0, "missing tel header");
  ExpectTelError("# only comments\n\n", 2, "missing tel header");
  ExpectTelError("telx 1 undirected\n", 1, "bad header");
  ExpectTelError("tel\n", 1, "bad header");
  ExpectTelError("tel 2 undirected\n", 1, "unsupported tel version");
  ExpectTelError("tel 1 sideways\n", 1, "bad directedness");
  ExpectTelError("tel 1 undirected vertices\n", 1, "key=value");
  ExpectTelError("tel 1 undirected vertices=-3\n", 1, "bad vertices");
  ExpectTelError("tel 1 undirected window=0\n", 1, "bad window");
  ExpectTelError("tel 1 undirected window=abc\n", 1, "bad window");
  ExpectTelError("tel 1 undirected window=9000000000000000000\n", 1,
                 "bad window");
  ExpectTelError("tel 1 undirected expiry=sometimes\n", 1,
                 "bad expiry mode");
  ExpectTelError("tel 1 undirected frobnicate=1\n", 1,
                 "unknown header key");
  // A hostile universe size is corrupt input, not an allocation attempt.
  ExpectTelError("tel 1 directed vertices=9000000000000000000\n", 1,
                 "bad vertices");
  ExpectTelError("tel 1 undirected\nv 9000000000000000000 1\n", 2,
                 "bad vertex label");
}

TEST(TelErrors, VertexRecordProblems) {
  ExpectTelError("tel 1 undirected\nv 0\n", 2, "bad vertex label");
  ExpectTelError("tel 1 undirected\nv -1 0\n", 2, "bad vertex label");
  ExpectTelError("tel 1 undirected\nv 0 0 junk\n", 2, "bad vertex label");
  ExpectTelError("tel 1 undirected vertices=2\nv 2 0\n", 2,
                 "out of declared range");
  ExpectTelError("tel 1 undirected\nv 0 1\nv 0 2\n", 3,
                 "duplicate vertex label");
  // v records must form a prefix of the stream.
  ExpectTelError("tel 1 undirected vertices=3\ne 0 1 5\nv 2 1\n", 3,
                 "after the first data record");
}

TEST(TelErrors, EdgeRecordProblems) {
  const std::string h = "tel 1 undirected vertices=4\n";
  ExpectTelError(h + "e 0 1\n", 2, "bad edge record");         // truncated
  ExpectTelError(h + "e 0 x 5\n", 2, "bad edge record");       // garbage
  ExpectTelError(h + "e 0 1 5 2 9\n", 2, "trailing garbage");
  ExpectTelError(h + "e 0 1 5 foo\n", 2, "bad edge label");
  ExpectTelError(h + "e 0 1 5 -2\n", 2, "bad edge label");
  // int64 overflow consumes the digits; it must not read back as "no
  // label" (or, for the mandatory fields, as a bad-record false match).
  ExpectTelError(h + "e 0 1 5 99999999999999999999\n", 2,
                 "bad edge label");
  ExpectTelError(h + "e -1 2 5\n", 2, "negative vertex id");
  ExpectTelError(h + "e 0 7 5\n", 2, "out of range");
  ExpectTelError(h + "e 0 9999999999 5\n", 2, "out of range");
  // |ts| is capped below 2^61 so ts + window can never overflow.
  ExpectTelError(h + "e 0 1 9000000000000000000\n", 2,
                 "timestamp out of range");
  ExpectTelError(h + "e 0 1 5\ne 0 2 4\n", 3, "non-decreasing");
  ExpectTelError(h + "q 0 1 5\n", 2, "unknown record tag");
}

TEST(TelErrors, ExpiryRecordProblems) {
  ExpectTelError("tel 1 undirected vertices=2\ne 0 1 5\nx 6\n", 3,
                 "derived-expiry stream");
  const std::string h =
      "tel 1 undirected vertices=3 window=4 expiry=explicit\n";
  ExpectTelError(h + "x 1\n", 2, "no live edge");
  ExpectTelError(h + "e 0 1 5\nx 9\nx 10\n", 4, "no live edge");
  ExpectTelError(h + "e 0 1 5\nx 4\n", 3, "non-decreasing");
  ExpectTelError(h + "e 0 1 5\nx\n", 3, "bad expiry record");
  ExpectTelError(h + "e 0 1 5\nx 9 junk\n", 3, "bad expiry record");
}

TEST(TelErrors, SelfLoopsDroppedNotFatal) {
  std::istringstream in(
      "tel 1 undirected vertices=3\n"
      "e 1 1 4\n"
      "e 0 1 5\n");
  auto result = ReadTelDataset(in, "test.tel");
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  EXPECT_EQ(result.value().NumEdges(), 1u);
  EXPECT_EQ(result.value().edges[0].id, 0u);  // dropped loop takes no id
}

TEST(TelErrors, LoadFileNotFound) {
  EXPECT_EQ(LoadTelFile("/no/such/stream.tel").status().code(),
            StatusCode::kNotFound);
  EXPECT_FALSE(SniffTelFile("/no/such/stream.tel"));
}

TEST(TelErrors, ReplayRequiresResolvableWindow) {
  // A derived-expiry stream with no header window and no option window is
  // an InvalidArgument at replay time, not a crash.
  std::istringstream in(
      "tel 1 undirected vertices=7\n"
      "e 0 1 1\n");
  StreamReader reader(in, "test.tel");
  ASSERT_TRUE(reader.Init().ok());
  SingleQueryContext<TcmEngine> run(testlib::RunningExampleQuery(),
                                    reader.schema());
  auto result = ReplayStream(&reader, ReplayOptions{}, &run);
  ASSERT_FALSE(result.ok());
  EXPECT_EQ(result.status().code(), StatusCode::kInvalidArgument);
  EXPECT_NE(result.status().message().find("window"), std::string::npos);
}

TEST(TelErrors, ReplaySurfacesMidStreamCorruption) {
  // The replay driver stops at the corrupt line and reports it; events
  // before the corruption were already delivered (streaming has no
  // lookahead), which is exactly the "never abort" contract.
  std::istringstream in(
      "tel 1 undirected vertices=7 window=10\n"
      "e 0 1 1\n"
      "e 0 3 oops\n");
  StreamReader reader(in, "test.tel");
  ASSERT_TRUE(reader.Init().ok());
  SingleQueryContext<TcmEngine> run(testlib::RunningExampleQuery(),
                                    reader.schema());
  auto result = ReplayStream(&reader, ReplayOptions{}, &run);
  ASSERT_FALSE(result.ok());
  EXPECT_NE(result.status().message().find("test.tel:3:"),
            std::string::npos)
      << result.status().message();
}

TEST(TelErrors, WriterValidates) {
  std::ostringstream out;
  {
    StreamWriter w(out);
    EXPECT_FALSE(w.RecordArrival(TemporalEdge{}).ok());  // before Begin
    TelWriteOptions opts;
    opts.explicit_expiry = true;  // explicit mode needs a window
    EXPECT_FALSE(w.BeginStream(false, {0, 0}, opts).ok());
  }
  {
    StreamWriter w(out);
    ASSERT_TRUE(w.BeginStream(false, {0, 0, 0}, {}).ok());
    TemporalEdge e;
    e.src = 0;
    e.dst = 0;
    e.ts = 1;
    EXPECT_FALSE(w.RecordArrival(e).ok());  // self loop
    e.dst = 9;
    EXPECT_FALSE(w.RecordArrival(e).ok());  // outside universe
    e.dst = 1;
    ASSERT_TRUE(w.RecordArrival(e).ok());
    e.ts = 0;
    EXPECT_FALSE(w.RecordArrival(e).ok());  // time went backwards
    EXPECT_FALSE(w.RecordExpiry(5).ok());   // derived-mode stream
  }
}

// --- Binary v2 framing ----------------------------------------------------
//
// The same contract as the text parser, with byte offsets instead of line
// numbers: corruption of any shape returns CorruptInput carrying
// "<source>:<offset>:" — never a crash, never a silently wrong dataset.
// Tests corrupt writer-produced streams by byte surgery at offsets pinned
// by the wire constants in io/tel_binary.h.

/// A 4-arrival binary stream over an 8-vertex all-zero-label universe, so
/// the label section is just its count and the layout is fully
/// deterministic: magic (8) + header (24) + label count (8) = data at 40.
std::string BinaryTel(bool varint, size_t block_records = 0) {
  TemporalDataset ds;
  ds.vertex_labels.assign(8, 0);
  for (int i = 0; i < 4; ++i) {
    TemporalEdge e;
    e.id = static_cast<EdgeId>(i);
    e.src = static_cast<VertexId>(i);
    e.dst = static_cast<VertexId>(i + 1);
    e.ts = 5 + i;
    ds.edges.push_back(e);
  }
  TelWriteOptions opts;
  opts.binary = true;
  opts.varint_timestamps = varint;
  opts.block_records = block_records;
  opts.window = 10;
  std::ostringstream out;
  const Status s = WriteTel(ds, opts, out);
  EXPECT_TRUE(s.ok()) << s.ToString();
  return out.str();
}

constexpr size_t kDataStart = 8 + kTelBinaryHeaderBytes + 8;
constexpr size_t kPayload0 = kDataStart + kTelBlockHeaderBytes;

/// Parses a (corrupted) binary stream and expects CorruptInput with a
/// "test.tel:<offset>:" diagnostic and `what`.
void ExpectBinaryTelError(const std::string& tel, uint64_t offset,
                          const std::string& what) {
  std::istringstream in(tel);
  auto result = ReadTelDataset(in, "test.tel");
  ASSERT_FALSE(result.ok()) << "parsed a corrupt binary stream";
  EXPECT_EQ(result.status().code(), StatusCode::kCorruptInput);
  const std::string& msg = result.status().message();
  EXPECT_NE(msg.find("test.tel:" + std::to_string(offset) + ":"),
            std::string::npos)
      << "no offset " << offset << " diagnostic in: " << msg;
  EXPECT_NE(msg.find(what), std::string::npos)
      << "'" << what << "' not in: " << msg;
}

TEST(TelBinaryErrors, HeaderProblems) {
  {
    std::string tel = BinaryTel(true);
    tel[1] ^= 0x20;  // first byte still sniffs binary; signature broken
    ExpectBinaryTelError(tel, 0, "bad binary magic");
  }
  {
    std::string tel = BinaryTel(true);
    tel[8] = 3;  // version u16 at offset 8
    ExpectBinaryTelError(tel, 8, "unsupported tel version 3");
  }
  {
    std::string tel = BinaryTel(true);
    tel[10] |= 0x04;  // flags u16 at offset 10: an undefined bit
    ExpectBinaryTelError(tel, 10, "unknown header flag bits");
  }
  {
    std::string tel = BinaryTel(true);
    std::memset(tel.data() + 16, 0, 8);  // num_vertices u64 at offset 16
    ExpectBinaryTelError(tel, 16, "bad vertices count 0");
  }
  {
    std::string tel = BinaryTel(true);
    tel[31] = '\x40';  // window i64 at 24: top byte set -> negative/huge
    ExpectBinaryTelError(tel, 24, "bad window");
  }
}

TEST(TelBinaryErrors, TruncatedStream) {
  const std::string tel = BinaryTel(/*varint=*/false);
  // Cut mid-payload: the payload read at kPayload0 wants 4 * 24 bytes.
  ExpectBinaryTelError(tel.substr(0, kPayload0 + 10), kPayload0,
                       "stream ended after 10");
  // Cut mid-block-header: the reader pulls the record count (4 bytes,
  // succeeds), then the header remainder (28 bytes, 3 left).
  ExpectBinaryTelError(tel.substr(0, kDataStart + 7), kDataStart + 4,
                       "stream ended after 3");
  // Cut before the sentinel: a clean block then a dangling 0-byte tail
  // reads as a truncated next block header, not a clean end.
  ExpectBinaryTelError(tel.substr(0, kPayload0 + 4 * 24 + 2),
                       kPayload0 + 4 * 24, "stream ended after 2");
}

TEST(TelBinaryErrors, BlockHeaderProblems) {
  {
    std::string tel = BinaryTel(false);
    tel[kDataStart + 4] = 7;  // encoding u32 at block offset +4
    ExpectBinaryTelError(tel, kDataStart + 4, "bad block encoding 7");
  }
  {
    std::string tel = BinaryTel(false);
    tel[kDataStart] += 1;  // record_count no longer matches payload size
    ExpectBinaryTelError(tel, kDataStart + 8,
                         "block payload size does not match its record count");
  }
  {
    // Two blocks; rewrite block 1's first_ts (i64 at block offset +16) to
    // land before block 0's last record.
    std::string tel = BinaryTel(false, /*block_records=*/2);
    const size_t block1 = kPayload0 + 2 * kTelFixedRecordBytes;
    std::memset(tel.data() + block1 + 16, 0, 8);
    ExpectBinaryTelError(tel, block1 + 16, "block timestamps regress");
  }
}

TEST(TelBinaryErrors, RecordProblems) {
  {
    std::string tel = BinaryTel(false);
    tel[kPayload0] = 9;  // fixed record kind u32
    ExpectBinaryTelError(tel, kPayload0, "bad record kind 9");
  }
  {
    std::string tel = BinaryTel(false);
    tel[kPayload0 + 8] = 100;  // dst u32: beyond the 8-vertex universe
    ExpectBinaryTelError(tel, kPayload0, "vertex id out of range");
  }
  {
    // All-0xFF continuation bytes after the first record's kind: the
    // timestamp-delta varint never terminates.
    std::string tel = BinaryTel(true);
    uint32_t payload_bytes = 0;
    std::memcpy(&payload_bytes, tel.data() + kDataStart + 8, 4);
    for (size_t i = 1; i < payload_bytes; ++i) {
      tel[kPayload0 + i] = '\xFF';
    }
    ExpectBinaryTelError(tel, kPayload0, "corrupt varint");
  }
  {
    std::string tel = BinaryTel(true);
    tel[kPayload0] = 1;  // arrival -> expiry in a derived-expiry stream
    ExpectBinaryTelError(tel, kPayload0, "explicit expiry record");
  }
}

/// Corrupts `tel` in place via `mutate`, then expects SeekToTimestamp to
/// fail with CorruptInput carrying "test.tel:" and `what`. Sequential
/// reads never touch the index footer, so these only surface on seek.
template <typename Fn>
void ExpectSeekError(Fn mutate, const std::string& what) {
  std::string tel = BinaryTel(/*varint=*/true, /*block_records=*/2);
  mutate(&tel);
  std::istringstream in(tel);
  StreamReader reader(in, "test.tel");
  ASSERT_TRUE(reader.Init().ok());
  const Status s = reader.SeekToTimestamp(6);
  ASSERT_FALSE(s.ok()) << "seek succeeded on a corrupt index";
  EXPECT_EQ(s.code(), StatusCode::kCorruptInput);
  EXPECT_NE(s.message().find("test.tel:"), std::string::npos)
      << s.ToString();
  EXPECT_NE(s.message().find(what), std::string::npos) << s.ToString();
}

TEST(TelBinaryErrors, IndexFooterProblems) {
  ExpectSeekError([](std::string* tel) { tel->back() ^= 0xFF; },
                  "missing or corrupt index footer");
  ExpectSeekError(
      [](std::string* tel) {
        // num_blocks u64, second trailer field: the index no longer spans
        // the file tail.
        (*tel)[tel->size() - kTelTrailerBytes + 8] += 1;
      },
      "index/footer mismatch");
  ExpectSeekError(
      [](std::string* tel) {
        // First index entry's block offset (u64 right after the index's
        // own count) no longer points at the data start.
        uint64_t index_offset = 0;
        std::memcpy(&index_offset, tel->data() + tel->size() - kTelTrailerBytes,
                    8);
        (*tel)[index_offset + 8] += 1;
      },
      "first block offset is not the data start");
}

TEST(TelBinaryErrors, ReplaySurfacesBinaryCorruption) {
  // Same contract as the text mid-stream test: the replay driver delivers
  // everything before the corruption, then stops with the offset.
  std::string tel = BinaryTel(/*varint=*/false, /*block_records=*/2);
  const size_t block1 = kPayload0 + 2 * kTelFixedRecordBytes;
  std::memset(tel.data() + block1 + 16, 0, 8);  // block 1 first_ts regress
  std::istringstream in(tel);
  StreamReader reader(in, "test.tel");
  ASSERT_TRUE(reader.Init().ok());
  SingleQueryContext<TcmEngine> run(testlib::RunningExampleQuery(),
                                    reader.schema());
  auto result = ReplayStream(&reader, ReplayOptions{}, &run);
  ASSERT_FALSE(result.ok());
  EXPECT_EQ(result.status().code(), StatusCode::kCorruptInput);
  EXPECT_NE(result.status().message().find(
                "test.tel:" + std::to_string(block1 + 16) + ":"),
            std::string::npos)
      << result.status().message();
}

TEST(QueryIoErrors, WindowRecord) {
  const char* base =
      "t 2 1\nv 0 0\nv 1 0\ne 0 0 1\n";
  EXPECT_FALSE(ParseQueryString("w 5\n" + std::string(base)).ok());
  EXPECT_FALSE(ParseQueryString(std::string(base) + "w 0\n").ok());
  EXPECT_FALSE(ParseQueryString(std::string(base) + "w -4\n").ok());
  EXPECT_FALSE(ParseQueryString(std::string(base) + "w x\n").ok());
  EXPECT_FALSE(  // same 2^61 cap as .tel: ts + window must not overflow
      ParseQueryString(std::string(base) + "w 9223372036854775806\n").ok());
  EXPECT_FALSE(ParseQueryString(std::string(base) + "w 5\nw 6\n").ok());
  auto ok = ParseQueryString(std::string(base) + "w 7\n");
  ASSERT_TRUE(ok.ok()) << ok.status().ToString();
  EXPECT_EQ(ok.value().window_hint(), 7);
  // The error message carries the line number of the bad record.
  auto bad = ParseQueryString(std::string(base) + "w 0\n");
  EXPECT_NE(bad.status().message().find("line 5"), std::string::npos)
      << bad.status().message();
}

/// Three vertices on a directed triangle — enough structure for order
/// chains and gap/absence records. Appended records start at line 8.
std::string TriangleQuery() {
  return "t 3 3\nv 0 0\nv 1 0\nv 2 0\ne 0 0 1\ne 1 1 2\ne 2 2 0\n";
}

/// Hostile records must produce a line-numbered Status, never abort.
void ExpectQueryParseError(const std::string& text, const std::string& what,
                           int line) {
  auto r = ParseQueryString(text);
  ASSERT_FALSE(r.ok()) << "parse succeeded on:\n" << text;
  EXPECT_EQ(r.status().code(), StatusCode::kCorruptInput)
      << r.status().ToString();
  EXPECT_NE(r.status().message().find(what), std::string::npos)
      << r.status().ToString();
  EXPECT_NE(r.status().message().find("line " + std::to_string(line)),
            std::string::npos)
      << r.status().ToString();
}

TEST(QueryIoErrors, OrderRecordHostile) {
  const std::string base = TriangleQuery();
  ExpectQueryParseError(base + "o 0\n", "bad order", 8);
  ExpectQueryParseError(base + "o 0 9\n", "order references unknown edge", 8);
  ExpectQueryParseError(base + "o -1 1\n", "order references unknown edge",
                        8);
  ExpectQueryParseError(base + "o 1 1\n", "order must be irreflexive", 8);
  // A cyclic order chain: the closing record carries the error.
  ExpectQueryParseError(base + "o 0 1\no 1 2\no 2 0\n",
                        "order would create a cycle", 10);
}

TEST(QueryIoErrors, GapRecordHostile) {
  const std::string base = TriangleQuery();
  ExpectQueryParseError("g 0 1 1 2\n" + base, "gap before header", 1);
  ExpectQueryParseError(base + "g 0\n", "bad gap", 8);
  ExpectQueryParseError(base + "g 0 1 x 2\n", "bad gap", 8);
  ExpectQueryParseError(base + "g 0 9 1 2\n", "gap references unknown edge",
                        8);
  ExpectQueryParseError(base + "g -1 1 1 2\n", "gap references unknown edge",
                        8);
  ExpectQueryParseError(base + "g 0 0 1 2\n",
                        "gap must relate two distinct edges", 8);
  ExpectQueryParseError(base + "g 0 1 5 2\n",
                        "gap bounds must satisfy min <= max", 8);
  ExpectQueryParseError(base + "g 0 1 -3 4\n",
                        "gap bounds must be non-negative", 8);
  ExpectQueryParseError(base + "g 0 1 0 9223372036854775806\n",
                        "gap bound exceeds the timestamp range", 8);
  ExpectQueryParseError(base + "g 0 1 1 2\ng 0 1 3 4\n",
                        "duplicate gap for edge pair", 9);
  // A gap with min >= 1 folds into the order relation; clashing with a
  // declared reverse order is a cycle, caught on the gap's line.
  ExpectQueryParseError(base + "o 1 0\ng 0 1 1 5\n",
                        "order would create a cycle", 9);
}

TEST(QueryIoErrors, AbsenceRecordHostile) {
  const std::string base = TriangleQuery();
  ExpectQueryParseError("n 0 1 0 5\n" + base, "absence before header", 1);
  ExpectQueryParseError(base + "n 0\n", "bad absence", 8);
  ExpectQueryParseError(base + "n 0 9 0 5\n",
                        "absence references unknown vertex", 8);
  ExpectQueryParseError(base + "n -1 1 0 5\n",
                        "absence references unknown vertex", 8);
  ExpectQueryParseError(base + "n 1 1 0 5\n",
                        "absence endpoints must be distinct", 8);
  ExpectQueryParseError(base + "n 0 1 0 -2\n",
                        "absence delta must be non-negative", 8);
  ExpectQueryParseError(base + "n 0 1 0 9223372036854775806\n",
                        "absence delta exceeds the timestamp range", 8);
  // No label alphabet is declared in a .tq file, so "undeclared" means
  // outside the representable Label range (negative or > 2^32-1).
  ExpectQueryParseError(base + "n 0 1 -1 5\n",
                        "absence references undeclared label", 8);
  ExpectQueryParseError(base + "n 0 1 4294967296 5\n",
                        "absence references undeclared label", 8);
}

TEST(QueryIoErrors, PredicateRoundTrip) {
  // parse -> serialize -> parse is stable, including the skip of `o`
  // pairs implied by a gap with min >= 1.
  const std::string text = TriangleQuery() +
                           "w 40\no 2 0\ng 0 1 3 9\ng 1 2 0 5\n"
                           "n 0 2 7 11\nn 2 1 0 0\n";
  auto q1 = ParseQueryString(text);
  ASSERT_TRUE(q1.ok()) << q1.status().ToString();
  EXPECT_EQ(q1.value().gaps().size(), 2u);
  EXPECT_EQ(q1.value().absences().size(), 2u);
  const std::string ser1 = SerializeQuery(q1.value());
  // The gap with min=3 implies o 0 1, which must not be re-emitted.
  EXPECT_EQ(ser1.find("o 0 1"), std::string::npos) << ser1;
  EXPECT_NE(ser1.find("o 2 0"), std::string::npos) << ser1;
  auto q2 = ParseQueryString(ser1);
  ASSERT_TRUE(q2.ok()) << q2.status().ToString();
  EXPECT_EQ(SerializeQuery(q2.value()), ser1);
  for (EdgeId e = 0; e < 3; ++e) {
    EXPECT_EQ(q1.value().After(e), q2.value().After(e));
    EXPECT_EQ(q1.value().GapRelated(e), q2.value().GapRelated(e));
  }
}

}  // namespace
}  // namespace tcsm
