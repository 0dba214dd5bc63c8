#include "core/stream_driver.h"

#include <algorithm>

#include "common/logging.h"
#include "common/memory_meter.h"
#include "common/timer.h"
#include "io/flight_recorder.h"
#include "obs/observability.h"
#include "obs/stage_timer.h"
#include "obs/stats_reporter.h"

namespace tcsm {

StatusOr<Timestamp> DatasetEventSource::Start(const StreamConfig& config) {
  const Timestamp window = config.window;
  if (window <= 0) {
    return Status::InvalidArgument(
        (dataset_.name.empty() ? "" : dataset_.name + ": ") +
        "no expiry window (pass one explicitly or record window= in the "
        "header)");
  }
  const size_t n = dataset_.edges.size();
  arrivals_ = config.max_arrivals == 0 ? n : std::min(n, config.max_arrivals);
  // The .tel parser caps timestamps, but programmatically built and
  // synthetic datasets reach the driver unparsed; ts + window must not
  // overflow. Timestamps ascend, so checking the last arrival suffices.
  if (arrivals_ > 0 &&
      dataset_.edges[arrivals_ - 1].ts > kMaxStreamTimestamp) {
    return Status::InvalidArgument(
        "stream timestamp exceeds kMaxStreamTimestamp; ts + window could "
        "overflow");
  }
  arrived_ = expired_ = 0;
  return window;
}

Status DatasetEventSource::Read(StreamRecord::Kind* kind, Timestamp* ts,
                                bool* done) {
  if (arrived_ == dataset_.edges.size()) {
    *done = true;
  } else {
    *kind = StreamRecord::Kind::kArrival;
    *ts = dataset_.edges[arrived_].ts;
  }
  return Status::Ok();
}

StatusOr<StreamResult> DriveStream(EventSource* source,
                                   const StreamConfig& config,
                                   SharedStreamContext* context) {
  const StatusOr<Timestamp> started = source->Start(config);
  if (!started.ok()) return started.status();
  const Timestamp window = started.value();
  const bool explicit_mode = window == 0;
  if (window > kMaxStreamTimestamp) {
    // ts + window must not overflow, however the window reached us.
    return Status::InvalidArgument("window too large (must stay below 2^61)");
  }

  StreamResult result;
  Deadline deadline(config.time_limit_ms);
  context->set_deadline(config.time_limit_ms > 0 ? &deadline : nullptr);
  // Observability: install the bundle on the context (which fans the
  // stage-metric handles out to the engines) and cache the handles the
  // driver's own sites use. All of `stages`/`trace` stay null when
  // metrics are off, so each site below is one pointer test.
  context->set_observability(config.obs);
  const StageMetrics* const stages =
      config.obs != nullptr ? &config.obs->stages() : nullptr;
  TraceWriter* const trace =
      config.obs != nullptr ? config.obs->trace() : nullptr;
  StatsReporter reporter(config.obs, config.stats_every, config.stats_json,
                         config.stats_out);
  // A source that knows its length is sampled ~32 times across the run,
  // so sampling never dominates; one that does not (a file or a pipe)
  // every kUnknownLengthSampleEvery events.
  const size_t expected = source->expected_events();
  const size_t sample_every = expected > 0
                                  ? std::max<size_t>(1, expected / 32)
                                  : kUnknownLengthSampleEvery;
  const size_t max_batch =
      config.max_batch == 0 ? kDefaultMaxBatch : config.max_batch;
  const size_t cap = config.max_arrivals;

  PeakMeter peak;
  StopWatch watch;
  const EngineCounters base = context->AggregateCounters();

  // The record read ahead of delivery, if one is held.
  StreamRecord::Kind kind = StreamRecord::Kind::kArrival;
  Timestamp ts = 0;
  bool held = false;
  bool stopped = false;    // no further reads (end of stream or the cap)
  bool truncated = false;  // stopped by the cap, not by the stream ending
  size_t arrivals = 0;

  // Reads one record ahead, so `stopped` turns true as soon as the last
  // arrival is delivered. Nothing is read once the cap is reached. Returns
  // false once a read has failed, keeping the failure in `error`.
  Status error;
  const auto read = [&]() -> bool {
    if (held || stopped) return true;
    if (cap > 0 && arrivals >= cap) {
      // Rate control: stop consuming the stream; live edges still expire.
      stopped = truncated = true;
      return true;
    }
    bool done = false;
    Status s = source->Read(&kind, &ts, &done);
    if (!s.ok()) {
      error = std::move(s);
      return false;
    }
    stopped = done;
    held = !done;
    return true;
  };

  bool high_water_sampled = false;
  bool readable = read();
  while (readable) {
    if (deadline.ExpiredNow() || context->overflowed()) {
      result.completed = false;
      break;
    }
    if (stopped && !high_water_sampled) {
      // No more arrivals: the window is at its fullest right now, before
      // the remaining expirations shrink it. Sample the high-water point
      // explicitly rather than hoping the cadence lands on it.
      peak.Observe(context->EstimateMemoryBytes(), result.events);
      high_water_sampled = true;
    }
    const bool have_arrival = held && kind == StreamRecord::Kind::kArrival;
    const bool expiry_record = held && kind == StreamRecord::Kind::kExpiry;
    const std::span<const TemporalEdge> live = source->live();
    // Derived expiry: edge e expires at e.ts + window, expirations first
    // on ties. Explicit expiry: the stream carries its own schedule, and a
    // run cut short by the cap drains the live window so every delivered
    // arrival still expires.
    const bool expire =
        explicit_mode ? expiry_record || (truncated && !live.empty())
                      : !live.empty() &&
                            (!have_arrival || live.front().ts + window <= ts);
    if (!expire && !have_arrival) break;  // nothing left to deliver
    // Coalesce the run of consecutive same-timestamp events of one kind
    // into one batch call (DESIGN.md §9).
    size_t count = 1;
    const TemporalEdge* batch = live.data();
    if (expire) {
      TCSM_CHECK(!live.empty());
      // One explicit record is one expiry. Derived: the same arrival
      // timestamp means the same expiry time, so the front run of
      // equal-ts live edges expires together.
      while (!explicit_mode && count < max_batch && count < live.size() &&
             live[count].ts == live.front().ts) {
        ++count;
      }
      if (expiry_record) held = false;
    } else {
      // Read ahead for same-timestamp arrivals (an arrival batch never
      // needs an expiration between its members, as window > 0). Stops at
      // the batch cap, the arrival cap, a kind or timestamp change, or a
      // read error — the batch taken so far is delivered before the error
      // surfaces.
      const Timestamp t = ts;
      count = 0;
      do {
        source->Take();
        held = false;
        ++arrivals;
        if (++count == max_batch) break;
        readable = read();
      } while (readable && held && kind == StreamRecord::Kind::kArrival &&
               ts == t);
      batch = source->live().last(count).data();
      if (config.recorder != nullptr) {
        for (size_t i = 0; i < count; ++i) config.recorder->Record(batch[i]);
      }
    }
    {
      const ScopedStage span(
          stages == nullptr       ? nullptr
          : expire ? stages->expiry_batch_ns
                   : stages->arrival_batch_ns,
          trace, expire ? "expiry_batch" : "arrival_batch", "stream",
          "events", count);
      if (expire) {
        context->OnEdgeExpiryBatch(batch, count);
        source->Expire(count);
      } else {
        context->OnEdgeArrivalBatch(batch, count);
      }
    }
    if (stages != nullptr) {
      (expire ? stages->expirations : stages->arrivals)->Add(count);
      (expire ? stages->expiry_batches : stages->arrival_batches)->Add(1);
    }
    if (!readable) break;
    const size_t before = result.events;
    result.events += count;
    if (stages != nullptr) {
      stages->live_edges->Set(static_cast<int64_t>(source->live().size()));
    }
    if (result.events / sample_every != before / sample_every) {
      peak.Observe(context->EstimateMemoryBytes(), result.events);
    }
    if (reporter.Due(result.events)) {
      reporter.Tick(result.events, source->live().size(),
                    context->AggregateCounters());
    }
    readable = read();
  }
  context->set_deadline(nullptr);
  if (!error.ok()) return error;
  peak.Observe(context->EstimateMemoryBytes(), result.events);

  result.elapsed_ms = watch.ElapsedMs();
  const EngineCounters now = context->AggregateCounters();
  EngineCounters delta;  // this run's share of the engines' counters
  delta.occurred = now.occurred - base.occurred;
  delta.expired = now.expired - base.expired;
  delta.search_nodes = now.search_nodes - base.search_nodes;
  delta.adj_entries_scanned =
      now.adj_entries_scanned - base.adj_entries_scanned;
  delta.adj_entries_matched =
      now.adj_entries_matched - base.adj_entries_matched;
  result.occurred = delta.occurred;
  result.expired = delta.expired;
  result.adj_entries_scanned = delta.adj_entries_scanned;
  result.adj_entries_matched = delta.adj_entries_matched;
  result.peak_memory_bytes = peak.peak_bytes();
  result.peak_memory_event_index = peak.peak_event_index();
  result.num_threads = context->num_threads();
  if (stages != nullptr) {
    // Publish this run's deltas so a registry snapshot, --json, and
    // BENCH JSON all read one source of truth.
    config.obs->PublishEngineCounters(delta);
    stages->peak_bytes->Set(static_cast<int64_t>(result.peak_memory_bytes));
    stages->peak_event_index->Set(
        static_cast<int64_t>(result.peak_memory_event_index));
    stages->live_edges->Set(static_cast<int64_t>(source->live().size()));
  }
  return result;
}

StreamResult RunStream(const TemporalDataset& dataset,
                       const StreamConfig& config,
                       SharedStreamContext* context) {
  DatasetEventSource source(dataset);
  StatusOr<StreamResult> result = DriveStream(&source, config, context);
  if (result.ok()) return std::move(result).value();
  StreamResult refused;
  refused.completed = false;
  refused.error = result.status();
  return refused;
}

}  // namespace tcsm
