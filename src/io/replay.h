// File-driven replay: a StreamReader as the one stream driver's event
// source (core/stream_driver.h), in O(window) memory — besides the
// reader's current record, the source keeps only the FIFO of live edges.
#ifndef TCSM_IO_REPLAY_H_
#define TCSM_IO_REPLAY_H_

#include <vector>

#include "common/status.h"
#include "core/shared_context.h"
#include "core/stream_driver.h"
#include "io/stream_reader.h"

namespace tcsm {

using ReplayOptions = StreamConfig;

/// A `.tel` stream as an event source. Its window is the options' window,
/// else the header's; explicit-expiry streams bring their own x records.
/// Arrivals get dense EdgeIds from the reader's first_arrival_index(), so
/// a seeked replay keeps the ids of the full replay's suffix. Its length
/// is unknown up front.
class ReaderEventSource : public EventSource {
 public:
  /// `reader` must be Init()ed, positioned before the first data record,
  /// and outlive the source.
  explicit ReaderEventSource(StreamReader* reader) : reader_(reader) {}

  StatusOr<Timestamp> Start(const StreamConfig& config) override;
  Status Read(StreamRecord::Kind* kind, Timestamp* ts, bool* done) override;
  void Take() override;
  std::span<const TemporalEdge> live() const override {
    return {live_.data() + expired_, live_.size() - expired_};
  }
  void Expire(size_t count) override { expired_ += count; }

 private:
  StreamReader* reader_;
  EdgeId next_id_ = 0;
  StreamRecord record_;  // the record last read
  // The live window is live_[expired_..]; Take() compacts the expired
  // prefix once it is at least half the vector, so each edge moves at
  // most once on average.
  std::vector<TemporalEdge> live_;
  size_t expired_ = 0;
};

/// Replays `reader` (already Init()ed by the caller, who needed its
/// schema to build the engines) into `context`. Returns the same
/// StreamResult as RunStream, or a Status for malformed input / an
/// unresolvable window. The reader must be positioned before the first
/// data record, i.e. Next() must not have been called yet.
StatusOr<StreamResult> ReplayStream(StreamReader* reader,
                                    const ReplayOptions& options,
                                    SharedStreamContext* context);

}  // namespace tcsm

#endif  // TCSM_IO_REPLAY_H_
