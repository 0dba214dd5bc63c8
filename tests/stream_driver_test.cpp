#include <gtest/gtest.h>

#include <sstream>

#include "core/stream_driver.h"
#include "core/tcm_engine.h"
#include "io/replay.h"
#include "io/stream_writer.h"
#include "testlib/running_example.h"

namespace tcsm {
namespace {

/// Records the exact event sequence an engine observes from the context.
/// Its memory estimate grows by 1 MiB per arrival and never shrinks (like
/// the real engines' pools), so the peak sits at the last arrival.
class RecordingEngine : public ContinuousEngine {
 public:
  struct Event {
    bool arrival;
    EdgeId id;
    bool operator==(const Event&) const = default;
  };

  std::string name() const override { return "recorder"; }
  void OnEdgeInserted(const TemporalEdge& ed) override {
    events.push_back(Event{true, ed.id});
    ++arrivals;
  }
  void OnEdgeExpiring(const TemporalEdge& ed) override {
    events.push_back(Event{false, ed.id});
  }
  size_t EstimateMemoryBytes() const override { return arrivals << 20; }

  std::vector<Event> events;
  size_t arrivals = 0;
};

/// Memory estimate proportional to the live-edge count: unlike the real
/// engines (whose pools never shrink), this makes the mid-stream window
/// high-water point genuinely larger than the end state.
class LiveWeightedEngine : public RecordingEngine {
 public:
  size_t EstimateMemoryBytes() const override {
    return (2 * arrivals - events.size()) << 20;
  }
};

/// Context that records the size of every batch the driver hands it. Its
/// memory estimate counts the engines only: the graph's own estimate moves
/// in the expiry tail, where the two sources' sampling cadences differ, so
/// it would tie the peak's position to the cadence, not the schedule.
class BatchRecordingContext : public SharedStreamContext {
 public:
  using SharedStreamContext::SharedStreamContext;
  size_t EstimateMemoryBytes() const override {
    size_t bytes = 0;
    for (const ContinuousEngine* e : engines()) {
      bytes += e->EstimateMemoryBytes();
    }
    return bytes;
  }
  void OnEdgeArrivalBatch(const TemporalEdge* edges, size_t count) override {
    arrival_batches.push_back(count);
    SharedStreamContext::OnEdgeArrivalBatch(edges, count);
  }
  void OnEdgeExpiryBatch(const TemporalEdge* edges, size_t count) override {
    expiry_batches.push_back(count);
    SharedStreamContext::OnEdgeExpiryBatch(edges, count);
  }
  std::vector<size_t> arrival_batches;
  std::vector<size_t> expiry_batches;
};

/// What one replay delivered, batch by batch.
struct ScheduleRun {
  StreamResult result;
  std::vector<size_t> arrival_batches;
  std::vector<size_t> expiry_batches;
  std::vector<RecordingEngine::Event> events;
};

/// Replays `ds` into a BatchRecordingContext with an `Engine` attached:
/// from memory (RunStream), or from the dataset as StreamWriter writes it,
/// read back by a StreamReader (ReplayStream).
template <typename Engine>
ScheduleRun ReplayFrom(bool file, const TemporalDataset& ds,
                       const StreamConfig& config) {
  BatchRecordingContext ctx(GraphSchema{ds.directed, ds.vertex_labels});
  Engine engine;
  ctx.Attach(&engine);
  ScheduleRun run;
  if (file) {
    std::stringstream tel;
    EXPECT_TRUE(WriteTel(ds, TelWriteOptions{}, tel).ok());
    StreamReader reader(tel, "schedule.tel");
    EXPECT_TRUE(reader.Init().ok());
    auto res = ReplayStream(&reader, config, &ctx);
    EXPECT_TRUE(res.ok()) << res.status().ToString();
    if (res.ok()) run.result = res.value();
  } else {
    run.result = RunStream(ds, config, &ctx);
  }
  run.arrival_batches = ctx.arrival_batches;
  run.expiry_batches = ctx.expiry_batches;
  run.events = engine.events;
  return run;
}

/// Replays `ds` through both event sources and checks they deliver one
/// schedule: the same batches, events and memory high-water position.
/// Returns the in-memory run.
template <typename Engine = RecordingEngine>
ScheduleRun ReplayBothSources(const TemporalDataset& ds,
                              const StreamConfig& config) {
  const ScheduleRun mem = ReplayFrom<Engine>(false, ds, config);
  const ScheduleRun file = ReplayFrom<Engine>(true, ds, config);
  EXPECT_EQ(file.arrival_batches, mem.arrival_batches);
  EXPECT_EQ(file.expiry_batches, mem.expiry_batches);
  EXPECT_EQ(file.events, mem.events);
  EXPECT_EQ(file.result.events, mem.result.events);
  EXPECT_EQ(file.result.completed, mem.result.completed);
  EXPECT_EQ(file.result.peak_memory_event_index,
            mem.result.peak_memory_event_index);
  return mem;
}

TemporalDataset ThreeEdges() {
  TemporalDataset ds;
  ds.vertex_labels = {0, 0};
  for (Timestamp t : {1, 5, 11}) {
    TemporalEdge e;
    e.id = static_cast<EdgeId>(ds.edges.size());
    e.src = 0;
    e.dst = 1;
    e.ts = t;
    ds.edges.push_back(e);
  }
  return ds;
}

GraphSchema TwoVertexSchema() { return GraphSchema{false, {0, 0}}; }

TEST(StreamDriver, ExpirationsBeforeArrivalsOnTies) {
  // Window 10: edge@1 expires at 11 — exactly when edge@11 arrives; the
  // expiration must be delivered first (Example II.2 semantics), from
  // memory and from a file alike.
  StreamConfig config;
  config.window = 10;
  const ScheduleRun run = ReplayBothSources(ThreeEdges(), config);
  ASSERT_TRUE(run.result.completed);
  const std::vector<RecordingEngine::Event>& events = run.events;
  ASSERT_EQ(events.size(), 6u);
  EXPECT_TRUE(events[0].arrival);   // +e0 @1
  EXPECT_TRUE(events[1].arrival);   // +e1 @5
  EXPECT_FALSE(events[2].arrival);  // -e0 @11 (before the arrival)
  EXPECT_EQ(events[2].id, 0u);
  EXPECT_TRUE(events[3].arrival);   // +e2 @11
  EXPECT_FALSE(events[4].arrival);  // -e1 @15
  EXPECT_FALSE(events[5].arrival);  // -e2 @21
  // The peak (three arrivals' worth) is sampled right after the last
  // arrival, before the expiry tail.
  EXPECT_EQ(run.result.peak_memory_event_index, 4u);
}

TEST(StreamDriver, AllEdgesEventuallyExpire) {
  SharedStreamContext ctx(TwoVertexSchema());
  RecordingEngine engine;
  ctx.Attach(&engine);
  StreamConfig config;
  config.window = 1000;
  const StreamResult res = RunStream(ThreeEdges(), config, &ctx);
  EXPECT_EQ(res.events, 6u);
  size_t arrivals = 0;
  for (const auto& e : engine.events) arrivals += e.arrival;
  EXPECT_EQ(arrivals, 3u);
}

TEST(StreamDriver, MaxArrivalsTruncates) {
  StreamConfig config;
  config.window = 1000;
  config.max_arrivals = 2;
  const ScheduleRun run = ReplayBothSources(ThreeEdges(), config);
  ASSERT_TRUE(run.result.completed);
  EXPECT_EQ(run.result.events, 4u);  // 2 arrivals + their 2 expirations
  size_t arrivals = 0;
  for (const auto& e : run.events) arrivals += e.arrival;
  EXPECT_EQ(arrivals, 2u);
  EXPECT_EQ(run.result.peak_memory_event_index, 2u);
}

TEST(StreamDriver, MaxArrivalsReadsNothingPastTheCap) {
  // The record after the cap is malformed. A capped replay never delivers
  // it, so it must not read it either; an uncapped one fails on it.
  std::stringstream written;
  ASSERT_TRUE(WriteTel(ThreeEdges(), TelWriteOptions{}, written).ok());
  const std::string tel = written.str() + "e 0 1 oops\n";
  for (const size_t cap : {size_t{3}, size_t{0}}) {
    std::istringstream in(tel);
    StreamReader reader(in, "cap.tel");
    ASSERT_TRUE(reader.Init().ok());
    SharedStreamContext ctx(TwoVertexSchema());
    RecordingEngine engine;
    ctx.Attach(&engine);
    StreamConfig config;
    config.window = 1000;
    config.max_arrivals = cap;
    const auto res = ReplayStream(&reader, config, &ctx);
    if (cap > 0) {
      ASSERT_TRUE(res.ok()) << res.status().ToString();
      EXPECT_EQ(res.value().events, 6u);
    } else {
      EXPECT_FALSE(res.ok());
    }
  }
}

TEST(StreamDriver, CountsMatchesFromEngineCounters) {
  const QueryGraph q = testlib::RunningExampleQuery();
  SingleQueryContext<TcmEngine> run(q, testlib::RunningExampleSchema());
  StreamConfig config;
  config.window = 10;
  // No sink attached: counters must still track matches.
  const StreamResult res =
      RunStream(testlib::RunningExampleDataset(), config, &run);
  ASSERT_TRUE(res.completed);
  EXPECT_EQ(res.occurred, 6u);
  EXPECT_EQ(res.expired, 6u);
  EXPECT_EQ(run.engine().counters().occurred, 6u);
  // The run's scan-selectivity totals surface on the result; nothing can
  // match more entries than were scanned.
  EXPECT_GE(res.adj_entries_scanned, res.adj_entries_matched);
  EXPECT_GT(res.adj_entries_scanned, 0u);
}

TEST(StreamDriver, PeakMemorySampled) {
  const QueryGraph q = testlib::RunningExampleQuery();
  SingleQueryContext<TcmEngine> run(q, testlib::RunningExampleSchema());
  StreamConfig config;
  config.window = 10;
  const StreamResult res =
      RunStream(testlib::RunningExampleDataset(), config, &run);
  EXPECT_GT(res.peak_memory_bytes, 0u);
}

TEST(StreamDriver, RejectsTimestampsThatCouldOverflowExpiry) {
  // Programmatically built datasets bypass the .tel parser's timestamp
  // cap, so the driver itself must refuse magnitudes where ts + window
  // would overflow signed 64-bit instead of computing UB.
  SharedStreamContext ctx(TwoVertexSchema());
  RecordingEngine engine;
  ctx.Attach(&engine);

  TemporalDataset ds;
  ds.vertex_labels = {0, 0};
  TemporalEdge e;
  e.id = 0;
  e.src = 0;
  e.dst = 1;
  e.ts = kMaxStreamTimestamp + 1;
  ds.edges.push_back(e);

  StreamConfig config;
  config.window = 10;
  const StreamResult res = RunStream(ds, config, &ctx);
  EXPECT_FALSE(res.completed);
  EXPECT_FALSE(res.error.ok());
  EXPECT_EQ(res.events, 0u);
  EXPECT_TRUE(engine.events.empty());

  // An oversized window is refused the same way, even with tame edges.
  StreamConfig huge_window;
  huge_window.window = kMaxStreamTimestamp + 1;
  const StreamResult res2 = RunStream(ThreeEdges(), huge_window, &ctx);
  EXPECT_FALSE(res2.completed);
  EXPECT_FALSE(res2.error.ok());
  EXPECT_EQ(res2.events, 0u);

  // Timestamps and windows at the cap itself are fine: the expiry sum
  // kMaxStreamTimestamp + kMaxStreamTimestamp stays below int64 max.
  SharedStreamContext ok_ctx(TwoVertexSchema());
  TemporalDataset ok_ds;
  ok_ds.vertex_labels = {0, 0};
  TemporalEdge near;
  near.id = 0;
  near.src = 0;
  near.dst = 1;
  near.ts = kMaxStreamTimestamp;
  ok_ds.edges.push_back(near);
  StreamConfig at_cap;
  at_cap.window = kMaxStreamTimestamp;
  const StreamResult res3 = RunStream(ok_ds, at_cap, &ok_ctx);
  EXPECT_TRUE(res3.completed);
  EXPECT_TRUE(res3.error.ok());
  EXPECT_EQ(res3.events, 2u);  // the arrival and its expiration
}

TEST(StreamDriver, PeakMemoryCatchesHighWaterBetweenSamples) {
  // 20 arrivals, then a pure-expiry tail: the peak (20 live edges) sits
  // between the adaptive sample points, and every sample the old cadence
  // took after the tail began would see a shrinking window. The driver
  // must sample the high-water point explicitly — and a file source, whose
  // fixed cadence never fires on so short a stream, at the same position.
  TemporalDataset ds;
  ds.vertex_labels = {0, 0};
  for (size_t i = 0; i < 20; ++i) {
    TemporalEdge e;
    e.id = static_cast<EdgeId>(i);
    e.src = 0;
    e.dst = 1;
    e.ts = static_cast<Timestamp>(i + 1);
    ds.edges.push_back(e);
  }
  StreamConfig config;
  config.window = 1000;  // nothing expires until the stream is exhausted
  const ScheduleRun run = ReplayBothSources<LiveWeightedEngine>(ds, config);
  ASSERT_TRUE(run.result.completed);
  EXPECT_GE(run.result.peak_memory_bytes, size_t{20} << 20);
  EXPECT_EQ(run.result.peak_memory_event_index, 20u);
}

TEST(StreamDriver, SamplingCadenceFollowsTheSource) {
  // Window 10 over edges at 1, 5, 11: the live count runs 1, 2, 1, 2, 1,
  // 0, so the live-weighted peak first appears at event 2. A dataset knows
  // its length and samples ~32 times per run (here every event); a file's
  // length is unknown, so it samples every 64 events plus the high-water
  // point after the last arrival (event 4) — and must keep doing so, or
  // binary-stream peak_bytes would move.
  StreamConfig config;
  config.window = 10;
  const ScheduleRun mem =
      ReplayFrom<LiveWeightedEngine>(false, ThreeEdges(), config);
  const ScheduleRun file =
      ReplayFrom<LiveWeightedEngine>(true, ThreeEdges(), config);
  EXPECT_EQ(mem.result.peak_memory_event_index, 2u);
  EXPECT_EQ(file.result.peak_memory_event_index, 4u);
  EXPECT_EQ(file.result.peak_memory_bytes, mem.result.peak_memory_bytes);
}

TEST(StreamDriver, CoalescesSameTimestampRuns) {
  TemporalDataset ds;
  ds.vertex_labels = {0, 0};
  const Timestamp times[] = {1, 1, 1, 2, 2, 9};
  for (size_t i = 0; i < 6; ++i) {
    TemporalEdge e;
    e.id = static_cast<EdgeId>(i);
    e.src = 0;
    e.dst = 1;
    e.ts = times[i];
    ds.edges.push_back(e);
  }
  StreamConfig config;
  config.window = 100;
  {
    const ScheduleRun run = ReplayBothSources(ds, config);
    ASSERT_TRUE(run.result.completed);
    EXPECT_EQ(run.result.events, 12u);
    EXPECT_EQ(run.arrival_batches, (std::vector<size_t>{3, 2, 1}));
    EXPECT_EQ(run.expiry_batches, (std::vector<size_t>{3, 2, 1}));
    ASSERT_EQ(run.events.size(), 12u);  // per-edge hooks, batched driver
  }
  {
    // The cap splits runs; 1 restores the one-call-per-event behavior.
    config.max_batch = 2;
    const ScheduleRun run = ReplayBothSources(ds, config);
    ASSERT_TRUE(run.result.completed);
    EXPECT_EQ(run.arrival_batches, (std::vector<size_t>{2, 1, 2, 1}));
    EXPECT_EQ(run.expiry_batches, (std::vector<size_t>{2, 1, 2, 1}));
  }
  {
    config.max_batch = 1;
    const ScheduleRun run = ReplayBothSources(ds, config);
    ASSERT_TRUE(run.result.completed);
    EXPECT_EQ(run.arrival_batches, std::vector<size_t>(6, 1));
    EXPECT_EQ(run.expiry_batches, std::vector<size_t>(6, 1));
  }
}

TEST(SharedStreamContext, OutOfOrderExpiryIsSupported) {
  // Out-of-order expiry (not produced by the stream driver, but allowed on
  // the context) is an O(1) unlink in the slot-recycled storage — no
  // linear-scan fallback exists anymore.
  SharedStreamContext ctx(GraphSchema{false, {0, 0, 0}});
  const TemporalDataset ds = [] {
    TemporalDataset d;
    d.vertex_labels = {0, 0, 0};
    const std::pair<VertexId, VertexId> ends[] = {{0, 1}, {0, 1}, {1, 2}};
    for (size_t i = 0; i < 3; ++i) {
      TemporalEdge e;
      e.id = static_cast<EdgeId>(i);
      e.src = ends[i].first;
      e.dst = ends[i].second;
      e.ts = static_cast<Timestamp>(i + 1);
      d.edges.push_back(e);
    }
    return d;
  }();
  for (const TemporalEdge& e : ds.edges) ctx.OnEdgeArrival(e);
  ctx.OnEdgeExpiry(ds.edges[1]);  // middle of vertex 0/1 adjacency
  EXPECT_FALSE(ctx.graph().Alive(1));
  EXPECT_TRUE(ctx.graph().Alive(0));
  EXPECT_EQ(ctx.graph().NumAliveEdges(), 2u);
  ctx.OnEdgeExpiry(ds.edges[0]);
  ctx.OnEdgeExpiry(ds.edges[2]);
  EXPECT_EQ(ctx.graph().NumAliveEdges(), 0u);
}

TEST(SharedStreamContext, OneGraphManyEngines) {
  // Two engines attached to one context see the same canonical graph and
  // the context accounts its bytes once.
  const QueryGraph q = testlib::RunningExampleQuery();
  SharedStreamContext ctx(testlib::RunningExampleSchema());
  TcmEngine a(q, ctx.graph());
  TcmEngine b(q, ctx.graph());
  ctx.Attach(&a);
  ctx.Attach(&b);
  EXPECT_EQ(&a.graph(), &ctx.graph());
  EXPECT_EQ(&b.graph(), &ctx.graph());

  const TemporalDataset ds = testlib::RunningExampleDataset();
  for (const TemporalEdge& e : ds.edges) ctx.OnEdgeArrival(e);
  EXPECT_EQ(ctx.graph().NumAliveEdges(), ds.edges.size());
  EXPECT_EQ(a.counters().occurred, b.counters().occurred);
  EXPECT_EQ(ctx.AggregateCounters().occurred, 2 * a.counters().occurred);
  EXPECT_EQ(ctx.EstimateMemoryBytes(),
            ctx.graph().EstimateMemoryBytes() + a.EstimateMemoryBytes() +
                b.EstimateMemoryBytes());
}

}  // namespace
}  // namespace tcsm
