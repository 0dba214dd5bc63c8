#include "io/replay.h"

#include <cstddef>

#include "obs/observability.h"

namespace tcsm {

StatusOr<Timestamp> ReaderEventSource::Start(const StreamConfig& config) {
  reader_->set_stage_metrics(config.obs != nullptr ? &config.obs->stages()
                                                   : nullptr);
  // After SeekToTimestamp the index supplies the count of skipped
  // arrivals, so ids in the suffix match the full replay's exactly.
  next_id_ = static_cast<EdgeId>(reader_->first_arrival_index());
  live_.clear();
  expired_ = 0;
  if (reader_->header().explicit_expiry) return Timestamp{0};
  const Timestamp window =
      config.window > 0 ? config.window : reader_->header().window;
  if (window <= 0) {
    return Status::InvalidArgument(
        reader_->source() +
        ": no expiry window (pass one explicitly or record window= in the "
        "header)");
  }
  return window;
}

Status ReaderEventSource::Read(StreamRecord::Kind* kind, Timestamp* ts,
                               bool* done) {
  const Status s = reader_->Next(&record_, done);
  *kind = record_.kind;
  *ts = record_.edge.ts;
  return s;
}

void ReaderEventSource::Take() {
  if (expired_ > 0 && 2 * expired_ >= live_.size()) {
    live_.erase(live_.begin(),
                live_.begin() + static_cast<std::ptrdiff_t>(expired_));
    expired_ = 0;
  }
  record_.edge.id = next_id_++;
  live_.push_back(record_.edge);
}

StatusOr<StreamResult> ReplayStream(StreamReader* reader,
                                    const ReplayOptions& options,
                                    SharedStreamContext* context) {
  ReaderEventSource source(reader);
  return DriveStream(&source, options, context);
}

}  // namespace tcsm
