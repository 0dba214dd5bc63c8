// The one stream driver: replays Algorithm 1's event list L against a
// SharedStreamContext. Edge e with timestamp t yields (e, t, +) and
// (e, t + delta, -), in chronological order with expirations before
// arrivals on ties, so an embedding can never use an edge that expires
// exactly when a new edge arrives (Example II.2). The context applies each
// event to the shared graph once and fans it out to every attached engine.
//
// Records come from an EventSource — an in-memory dataset
// (DatasetEventSource) or a `.tel` StreamReader (ReaderEventSource,
// io/replay.h), which also stores the live window. DriveStream does
// everything else once, for both: expirations, coalescing, the arrival
// cap, memory sampling, stats and the StreamResult (DESIGN.md §8).
#ifndef TCSM_CORE_STREAM_DRIVER_H_
#define TCSM_CORE_STREAM_DRIVER_H_

#include <cstdint>
#include <iosfwd>
#include <span>

#include "common/status.h"
#include "core/shared_context.h"
#include "graph/temporal_dataset.h"
#include "io/tel_format.h"

namespace tcsm {

class FlightRecorder;  // io/flight_recorder.h
class Observability;   // obs/observability.h

/// Micro-batch cap used when a driver's max_batch knob is 0. Large enough
/// to amortize the per-event fan-out cost, small enough that drivers
/// still check deadlines and overflow flags frequently.
inline constexpr size_t kDefaultMaxBatch = 64;

/// Memory-sampling cadence, in events, of a source whose length is unknown
/// up front; one that knows it is sampled ~32 times across the run.
inline constexpr size_t kUnknownLengthSampleEvery = 64;

struct StreamConfig {
  /// Time window delta; edges with ts <= now - delta are expired. File
  /// replay reads 0 as the `.tel` header's window; explicit-expiry streams
  /// ignore it.
  Timestamp window = 0;
  /// Per-run wall-clock limit; 0 = unlimited. A run that exceeds it is
  /// reported as not completed ("unsolved" in the paper's terms).
  double time_limit_ms = 0;
  /// Stop after this many arrivals (0 = all). Expirations of
  /// already-arrived edges are still delivered, so the run ends on an
  /// empty window. This is the CLI's --max-events rate control.
  size_t max_arrivals = 0;
  /// Largest micro-batch handed to the context in one
  /// OnEdgeArrivalBatch/OnEdgeExpiryBatch call (consecutive events of one
  /// kind sharing a timestamp; DESIGN.md §9). 0 = default (64); 1 =
  /// unbatched, exactly the historical one-call-per-event behavior. The
  /// match stream is identical for every setting; the cap only bounds how
  /// long the driver goes between deadline/overflow checks.
  size_t max_batch = 0;
  /// Observability bundle (obs/observability.h); null = metrics off, the
  /// driver and context then skip every metrics/trace site (DESIGN.md
  /// §11's no-op contract). The driver installs it on the context before
  /// the first event and publishes the run's engine counter deltas into
  /// the registry at the end.
  Observability* obs = nullptr;
  /// Emit one StatsReporter line to `stats_out` every `stats_every`
  /// delivered events (0 = never; requires `obs`). `stats_json` selects
  /// the JSON line form over the text form.
  size_t stats_every = 0;
  bool stats_json = false;
  std::ostream* stats_out = nullptr;
  /// Optional flight recorder (io/flight_recorder.h): every delivered
  /// arrival is recorded before it reaches the context, so a dump taken
  /// after a mid-replay failure still holds the event that triggered it.
  FlightRecorder* recorder = nullptr;
};

struct StreamResult {
  bool completed = true;
  /// Why RunStream refused to start (completed == false, zero events): no
  /// window, or magnitudes that could overflow ts + window (see
  /// kMaxStreamTimestamp). Runs that merely hit the time limit or
  /// overflow an engine keep an OK status.
  Status error = Status::Ok();
  double elapsed_ms = 0;
  /// Summed over all engines attached to the context.
  uint64_t occurred = 0;
  uint64_t expired = 0;
  size_t events = 0;
  /// Peak of the context estimate: shared graph once + per-query state.
  size_t peak_memory_bytes = 0;
  /// Event count (result.events at observation time) when the memory
  /// peak was sampled, so a spike is attributable to a stream position.
  size_t peak_memory_event_index = 0;
  /// Scan-selectivity totals over this run (see EngineCounters): adjacency
  /// entries visited vs. entries passing all static checks. The gap is the
  /// work the label-partitioned storage avoids.
  uint64_t adj_entries_scanned = 0;
  uint64_t adj_entries_matched = 0;
  /// Fan-out width of the context that was driven (1 for serial contexts,
  /// the pool width for a ParallelStreamContext) — recorded so bench/CLI
  /// output always states how a measurement was produced.
  size_t num_threads = 1;
};

/// A run's records in stream order — arrivals and, for streams that carry
/// them, explicit expiry records — and its live window: the delivered
/// edges that have not expired yet, oldest first and contiguous, so the
/// driver hands batches of either kind to the context straight from it.
class EventSource {
 public:
  virtual ~EventSource() = default;
  /// Validates the run's options and returns the window expirations
  /// derive from (0 = the source carries its own expiry records). Called
  /// once, before the first Read().
  virtual StatusOr<Timestamp> Start(const StreamConfig& config) = 0;
  /// Events the run will deliver, if known after Start (0 = unknown).
  virtual size_t expected_events() const { return 0; }
  /// Reads the next record and reports its kind and timestamp; sets *done
  /// at the end of the stream. An arrival that was read is Take()n before
  /// the next Read().
  virtual Status Read(StreamRecord::Kind* kind, Timestamp* ts,
                      bool* done) = 0;
  /// Appends the arrival just read to the live window.
  virtual void Take() = 0;
  /// The live window; valid until the next Read() or Take().
  virtual std::span<const TemporalEdge> live() const = 0;
  /// Drops the `count` oldest live edges.
  virtual void Expire(size_t count) = 0;
};

/// An in-memory dataset as an event source: its edges arrive in order and
/// expire at ts + the options' window (which must be > 0). The live window
/// is the dataset's own range [expired, arrived), so no edge is copied.
/// Magnitudes that could overflow ts + window are refused up front. The
/// dataset must outlive the source.
class DatasetEventSource : public EventSource {
 public:
  explicit DatasetEventSource(const TemporalDataset& dataset)
      : dataset_(dataset) {}

  StatusOr<Timestamp> Start(const StreamConfig& config) override;
  size_t expected_events() const override { return 2 * arrivals_; }
  Status Read(StreamRecord::Kind* kind, Timestamp* ts, bool* done) override;
  void Take() override { ++arrived_; }
  std::span<const TemporalEdge> live() const override {
    return {dataset_.edges.data() + expired_, arrived_ - expired_};
  }
  void Expire(size_t count) override { expired_ += count; }

 private:
  const TemporalDataset& dataset_;
  size_t arrivals_ = 0;  // arrivals the run delivers (the cap applied)
  size_t arrived_ = 0;
  size_t expired_ = 0;
};

/// Drives `source` into `context` until the schedule ends, the time limit
/// passes or an engine overflows. Returns a Status for options the source
/// refuses and for malformed input.
StatusOr<StreamResult> DriveStream(EventSource* source,
                                   const StreamConfig& config,
                                   SharedStreamContext* context);

/// Replays an in-memory dataset. Options the dataset refuses (no window,
/// magnitudes that could overflow ts + window) come back as
/// completed == false with `error` set and zero events.
StreamResult RunStream(const TemporalDataset& dataset,
                       const StreamConfig& config,
                       SharedStreamContext* context);

}  // namespace tcsm

#endif  // TCSM_CORE_STREAM_DRIVER_H_
