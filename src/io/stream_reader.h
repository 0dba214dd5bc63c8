// Incremental `.tel` stream parser. A StreamReader pulls one record at a
// time off an istream in O(1) memory — it never buffers the stream — so a
// multi-GB capture can feed a SharedStreamContext without ever being
// resident (the replay driver in io/replay.h adds the O(window) live-edge
// queue needed to deliver expirations). Init() sniffs the framing by the
// stream's first byte and dispatches: text v1 is parsed line by line here,
// binary v2 (io/tel_binary.h) through a block-buffered decoder — callers
// never see the difference. Every parse error is a Status carrying
// "<source>:<line>: <what>" (text) or "<source>:<byte-offset>: <what>"
// (binary); malformed input never aborts.
#ifndef TCSM_IO_STREAM_READER_H_
#define TCSM_IO_STREAM_READER_H_

#include <iosfwd>
#include <memory>
#include <string>
#include <vector>

#include "common/status.h"
#include "core/engine.h"
#include "graph/temporal_dataset.h"
#include "graph/temporal_edge.h"
#include "io/tel_format.h"

namespace tcsm {

class BinaryTelReader;  // io/tel_binary.h
struct StageMetrics;    // obs/metrics.h

class StreamReader {
 public:
  /// Reads from `in`, which must outlive the reader (open files in binary
  /// mode — harmless for text, required for v2). `source` names the
  /// stream in diagnostics ("g.tel:12: bad edge record").
  explicit StreamReader(std::istream& in, std::string source = "<stream>");
  ~StreamReader();

  /// Sniffs the framing, then parses the header and the label prefix (so
  /// the schema is known before any engine is built). Must be called
  /// once, before Next().
  Status Init();

  const TelHeader& header() const { return header_; }
  const std::string& source() const { return source_; }

  /// True when Init() found the binary v2 framing.
  bool binary() const { return binary_ != nullptr; }

  /// Vertex labels of the declared universe (label 0 where no `v` record
  /// overrides it). Valid after Init().
  const std::vector<Label>& vertex_labels() const { return vertex_labels_; }

  /// True when the stream declared its vertex universe (`vertices=N`
  /// and/or `v` records; always true for binary v2) — required for
  /// streaming replay, where engines bind to the schema before the first
  /// edge is read.
  bool has_vertex_universe() const { return has_universe_; }

  /// Schema of the stream. Valid after Init(); requires
  /// has_vertex_universe().
  GraphSchema schema() const;

  /// Pulls the next data record. On clean end of stream sets *done and
  /// returns Ok without touching *record. Self loops are dropped (they
  /// can never participate in a match; see DESIGN.md §2), so a returned
  /// arrival is always usable. Validates monotone timestamps, vertex
  /// ranges, and the expiry-mode discipline of the header.
  Status Next(StreamRecord* record, bool* done);

  /// Repositions the reader at the first block whose last timestamp is
  /// >= t, using the binary v2 index footer — O(1) file reads, no
  /// record-by-record skipping. Binary, derived-expiry, seekable streams
  /// only (InvalidArgument otherwise); call after Init(), before the
  /// first Next(). With t past the stream's end, the next Next() reports
  /// a clean end of stream.
  Status SeekToTimestamp(Timestamp t);

  /// Arrival index of the next arrival Next() will return: 0, unless
  /// SeekToTimestamp() skipped blocks — then the count of arrivals
  /// before the seek target, so the replay driver can keep EdgeId
  /// assignment identical to a full replay's suffix.
  uint64_t first_arrival_index() const;

  /// Attaches the observability handle bundle (null = metrics off): the
  /// reader then records io.ingest_bytes / io.ingest_records counters
  /// and the stage.parse_ns histogram (per record for text, per block
  /// load for binary). Bytes consumed before the call (the header) are
  /// credited on the first Next().
  void set_stage_metrics(const StageMetrics* stages);

  /// 1-based line number of the last line consumed (text framing; 0 for
  /// binary, whose diagnostics carry byte offsets instead).
  size_t line() const { return lineno_; }

 private:
  Status Fail(const std::string& what) const;
  Status ParseHeader(const std::string& body);
  Status NextText(StreamRecord* record, bool* done);
  /// Reads the next significant (non-blank, non-comment) line into
  /// *body; false on EOF.
  bool NextSignificantLine(std::string* body);
  void FlushIngestMetrics(uint64_t records);

  std::istream& in_;
  std::string source_;
  TelHeader header_;
  std::vector<Label> vertex_labels_;
  std::vector<bool> label_declared_;
  std::unique_ptr<BinaryTelReader> binary_;
  const StageMetrics* stages_ = nullptr;
  bool has_universe_ = false;
  bool init_done_ = false;
  size_t lineno_ = 0;
  uint64_t bytes_consumed_ = 0;  // text framing; binary_ counts its own
  uint64_t bytes_reported_ = 0;
  /// First data line read ahead by Init() while scanning the v-prefix.
  std::string pending_;
  bool has_pending_ = false;
  Timestamp last_ts_ = kMinusInfinity;
  size_t arrivals_ = 0;
  size_t expiries_ = 0;
};

/// Loads a whole `.tel` stream (either framing) into a TemporalDataset
/// (arrivals become the edge list; explicit expirations are validated and
/// dropped — a dataset models arrivals, expiry is reconstructed from the
/// window at replay time). The header's window, if any, is returned
/// through *header_out (may be null).
StatusOr<TemporalDataset> ReadTelDataset(std::istream& in,
                                         const std::string& source,
                                         TelHeader* header_out = nullptr);

StatusOr<TemporalDataset> LoadTelFile(const std::string& path,
                                      TelHeader* header_out = nullptr);

/// True when `path` starts with the binary v2 magic byte or its first
/// significant line carries the text `.tel` magic token (`tcsm convert`
/// tells `.tel` input from a legacy edge list this way).
bool SniffTelFile(const std::string& path);

}  // namespace tcsm

#endif  // TCSM_IO_STREAM_READER_H_
