// perfbench_replay: the C++ half of the end-to-end benchmark (run.py is
// the other half). It replays a generated `.tel` stream through the same
// path `tcsm replay` uses — StreamReader -> ReplayStream ->
// ParallelStreamContext -> one TcmEngine per query — and instruments it
// only from outside, through the program's public and virtual entry
// points:
//
//   * a ParallelStreamContext subclass that times the batch entry points
//     and EstimateMemoryBytes;
//   * a forwarding ContinuousEngine wrapper per engine, which hands the
//     inner engine whatever sink the context installed on the wrapper;
//   * standalone StreamReader and TemporalGraph passes over the same
//     event schedule.
//
// Modes (every result is one JSON object on stdout):
//
//   measure  Untraced rounds for --seconds (at least three). The only
//            instrumentation is the arrival-batch timer that defines the
//            arrival latencies, kept in one histogram over every round.
//   trace    Alternates traced and untraced rounds (plus rounds of the
//            --plain-queries, and untraced rounds at --parallel-threads,
//            when given) for --seconds, then runs the standalone reader
//            and graph passes: the per-layer ledger.
//   screen   Replays candidate queries one at a time with one engine
//            under a deterministic work budget (search nodes and sink
//            calls), and prints each one's outcome and counts.
//            `workloads.py --pick` uses it to choose the committed
//            queries of netflow_search and fanout: TCM within a band of
//            search nodes, then a reference engine that shares neither
//            the TC filter nor the pruning, whose counts become the
//            expected counts of every run.
//
// A round opens the stream, parses the queries, builds the context and
// engines (that span is the set-up time), replays, and reports per-query
// occurred/expired counts, events, arrivals and the live edges left at
// the end, which run.py checks.
#include <algorithm>
#include <array>
#include <chrono>
#include <cstdint>
#include <cstdlib>
#include <deque>
#include <fstream>
#include <iostream>
#include <map>
#include <memory>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include "baselines/local_enum_engine.h"
#include "baselines/post_filter_engine.h"
#include "core/tcm_engine.h"
#include "exec/parallel_context.h"
#include "graph/temporal_graph.h"
#include "io/replay.h"
#include "io/stream_reader.h"
#include "query/query_io.h"

namespace {

using tcsm::ContinuousEngine;
using tcsm::EngineCounters;
using tcsm::Embedding;
using tcsm::GraphSchema;
using tcsm::MatchKind;
using tcsm::MatchSink;
using tcsm::ParallelStreamContext;
using tcsm::QueryGraph;
using tcsm::StreamReader;
using tcsm::StreamRecord;
using tcsm::StreamResult;
using tcsm::TemporalEdge;
using tcsm::Timestamp;

using Clock = std::chrono::steady_clock;

int64_t NsSince(Clock::time_point t0) {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(Clock::now() -
                                                              t0)
      .count();
}

double Ms(int64_t ns) { return static_cast<double>(ns) / 1e6; }

[[noreturn]] void Die(const std::string& what) {
  std::cerr << "perfbench_replay: " << what << "\n";
  std::exit(1);
}

struct Flags {
  std::map<std::string, std::string> kv;

  std::string Str(const std::string& k, const std::string& dflt = "") const {
    auto it = kv.find(k);
    return it == kv.end() ? dflt : it->second;
  }
  int64_t Int(const std::string& k, int64_t dflt) const {
    auto it = kv.find(k);
    return it == kv.end() ? dflt : std::stoll(it->second);
  }
  double Dbl(const std::string& k, double dflt) const {
    auto it = kv.find(k);
    return it == kv.end() ? dflt : std::stod(it->second);
  }
  std::vector<std::string> List(const std::string& k) const {
    std::vector<std::string> out;
    std::stringstream ss(Str(k));
    std::string item;
    while (std::getline(ss, item, ',')) {
      if (!item.empty()) out.push_back(item);
    }
    return out;
  }
};

double Median(std::vector<double> v) {
  if (v.empty()) return 0;
  std::sort(v.begin(), v.end());
  const size_t n = v.size();
  return n % 2 == 1 ? v[n / 2] : (v[n / 2 - 1] + v[n / 2]) / 2;
}

/// Latency histogram of fixed size, so that keeping millions of samples
/// does not show in the process's resident set: 64 linear sub-buckets per
/// power of two of nanoseconds, i.e. at most 1.6% relative error.
class LatencyHistogram {
 public:
  void Add(int64_t ns) {
    ++counts_[Bucket(static_cast<uint64_t>(std::max<int64_t>(ns, 0)))];
    ++total_;
  }
  uint64_t total() const { return total_; }

  /// Nearest-rank percentile (p in (0, 100]) in microseconds: the middle
  /// of the bucket that holds the sample of that rank.
  double PercentileUs(double p) const {
    if (total_ == 0) return 0;
    const double want = std::max(1.0, p / 100.0 * static_cast<double>(total_));
    uint64_t seen = 0;
    for (size_t b = 0; b < counts_.size(); ++b) {
      seen += counts_[b];
      if (static_cast<double>(seen) >= want) {
        return (static_cast<double>(Low(b)) + static_cast<double>(Low(b + 1))) /
               2e3;
      }
    }
    return static_cast<double>(Low(counts_.size())) / 1e3;
  }

 private:
  static constexpr int kSubBits = 6;
  static constexpr uint64_t kSub = uint64_t{1} << kSubBits;

  static size_t Bucket(uint64_t ns) {
    if (ns < kSub) return static_cast<size_t>(ns);
    const int octave = 63 - __builtin_clzll(ns) - kSubBits + 1;
    return static_cast<size_t>(octave) * kSub +
           static_cast<size_t>((ns >> (octave - 1)) - kSub);
  }
  /// Smallest value of bucket b.
  static uint64_t Low(size_t b) {
    if (b < kSub) return b;
    const size_t octave = b / kSub;
    return (kSub + b % kSub) << (octave - 1);
  }

  std::array<uint64_t, kSub * 59> counts_{};  // octaves 0..58 cover 2^64
  uint64_t total_ = 0;
};

// ---------------------------------------------------------------------------
// Engines and sinks.

std::unique_ptr<ContinuousEngine> MakeEngine(const std::string& kind,
                                             const QueryGraph& q,
                                             const tcsm::TemporalGraph& g) {
  if (kind == "tcm") return std::make_unique<tcsm::TcmEngine>(q, g);
  if (kind == "symbi") return std::make_unique<tcsm::PostFilterEngine>(q, g);
  if (kind == "local") return std::make_unique<tcsm::LocalEnumEngine>(q, g);
  Die("unknown engine '" + kind + "'");
}

/// Counts OnMatch calls. Like the null sink of `tcsm replay`, it lets
/// engines report interchangeable parallel edges as one embedding with a
/// multiplicity, so match counts equal the untraced run's.
class CallCountingSink : public MatchSink {
 public:
  bool wants_each_embedding() const override { return false; }
  void OnMatch(const Embedding&, MatchKind, uint64_t) override { ++calls_; }
  uint64_t calls() const { return calls_; }

 private:
  uint64_t calls_ = 0;
};

/// Forwarding wrapper: times every hook of the wrapped engine. The context
/// sets (and may replace) the sink on the wrapper; before each call the
/// wrapper passes that sink and the run's deadline on to the engine, and
/// afterwards copies the engine's counters so the context's aggregates
/// read the engine's work.
class TimedEngine : public ContinuousEngine {
 public:
  explicit TimedEngine(std::unique_ptr<ContinuousEngine> inner)
      : inner_(std::move(inner)) {}

  std::string name() const override { return inner_->name(); }

  void OnEdgeInserted(const TemporalEdge& ed) override {
    Forward(&ContinuousEngine::OnEdgeInserted, ed, &insert_ns);
  }
  void OnEdgeExpiring(const TemporalEdge& ed) override {
    Forward(&ContinuousEngine::OnEdgeExpiring, ed, &expiring_ns);
  }
  void OnEdgeRemoved(const TemporalEdge& ed) override {
    Forward(&ContinuousEngine::OnEdgeRemoved, ed, &removed_ns);
  }

  size_t EstimateMemoryBytes() const override {
    const Clock::time_point t0 = Clock::now();
    last_bytes = inner_->EstimateMemoryBytes();
    mem_ns += NsSince(t0);
    return last_bytes;
  }

  bool overflowed() const override { return inner_->overflowed(); }

  int64_t insert_ns = 0;
  int64_t expiring_ns = 0;
  int64_t removed_ns = 0;
  uint64_t calls = 0;
  mutable int64_t mem_ns = 0;
  mutable size_t last_bytes = 0;

 private:
  void Forward(void (ContinuousEngine::*hook)(const TemporalEdge&),
               const TemporalEdge& ed, int64_t* ns) {
    inner_->set_sink(sink());
    inner_->set_deadline(deadline_);
    const Clock::time_point t0 = Clock::now();
    (inner_.get()->*hook)(ed);
    *ns += NsSince(t0);
    ++calls;
    counters_ = inner_->counters();
  }

  std::unique_ptr<ContinuousEngine> inner_;
};

// ---------------------------------------------------------------------------
// Contexts.

/// The untraced run's only instrumentation: the wall time of each arrival
/// batch, from handing it to the context until the call returns (by then
/// the batch's occurred matches are reported).
class ArrivalTimedContext : public ParallelStreamContext {
 public:
  using ParallelStreamContext::ParallelStreamContext;

  void OnEdgeArrivalBatch(const TemporalEdge* edges, size_t count) override {
    const Clock::time_point t0 = Clock::now();
    ParallelStreamContext::OnEdgeArrivalBatch(edges, count);
    latency->Add(NsSince(t0));
    arrivals += count;
  }

  LatencyHistogram* latency = nullptr;
  uint64_t arrivals = 0;
};

/// The traced run's context: times both batch entry points and the
/// memory estimate, and splits each estimate into graph and engine bytes
/// (the engines' part is what the wrapped engines returned inside it).
class TracedContext : public ParallelStreamContext {
 public:
  TracedContext(const GraphSchema& schema, size_t threads,
                const std::vector<TimedEngine*>* wrapped)
      : ParallelStreamContext(schema, threads), wrapped_(wrapped) {}

  void OnEdgeArrivalBatch(const TemporalEdge* edges, size_t count) override {
    const Clock::time_point t0 = Clock::now();
    ParallelStreamContext::OnEdgeArrivalBatch(edges, count);
    arrival_ns += NsSince(t0);
    arrivals += count;
    ++batches;
  }

  void OnEdgeExpiryBatch(const TemporalEdge* edges, size_t count) override {
    const Clock::time_point t0 = Clock::now();
    ParallelStreamContext::OnEdgeExpiryBatch(edges, count);
    expiry_ns += NsSince(t0);
    expiries += count;
    ++batches;
  }

  size_t EstimateMemoryBytes() const override {
    const Clock::time_point t0 = Clock::now();
    const size_t total = ParallelStreamContext::EstimateMemoryBytes();
    mem_ns += NsSince(t0);
    ++mem_calls;
    if (total > peak_total) {
      size_t engines = 0;
      for (const TimedEngine* e : *wrapped_) engines += e->last_bytes;
      peak_total = total;
      peak_engine = engines;
      peak_graph = total - std::min(total, engines);
    }
    return total;
  }

  int64_t arrival_ns = 0;
  int64_t expiry_ns = 0;
  uint64_t arrivals = 0;
  uint64_t expiries = 0;
  uint64_t batches = 0;
  mutable int64_t mem_ns = 0;
  mutable uint64_t mem_calls = 0;
  mutable size_t peak_total = 0;
  mutable size_t peak_graph = 0;
  mutable size_t peak_engine = 0;

 private:
  const std::vector<TimedEngine*>* wrapped_;
};

// ---------------------------------------------------------------------------
// One replay round.

struct Workload {
  std::string stream;
  std::vector<std::string> queries;
  Timestamp window = 0;
  size_t threads = 1;
};

Workload ReadWorkload(const Flags& f, const std::string& queries_key) {
  Workload w;
  w.stream = f.Str("stream");
  w.queries = f.List(queries_key);
  w.window = f.Int("window", 0);
  if (w.stream.empty() || w.queries.empty() || w.window <= 0) {
    Die("--stream, --window and --" + queries_key + " are required");
  }
  return w;
}

struct RoundResult {
  double setup_ms = 0;
  StreamResult res;
  uint64_t arrivals = 0;
  size_t live_end = 0;
  std::vector<EngineCounters> per_query;
};

struct TraceTotals {
  int64_t arrival_ns = 0, expiry_ns = 0, mem_ns = 0, mem_engine_ns = 0;
  uint64_t batches = 0, events = 0, mem_calls = 0, engine_calls = 0;
  int64_t insert_ns = 0, expiring_ns = 0, removed_ns = 0;
  uint64_t emit_calls = 0;
  size_t peak_graph = 0, peak_engine = 0;
  EngineCounters counters;
};

/// Runs one round. Untraced (trace == nullptr), the round's arrival-batch
/// latencies are added to *latency; traced, its ledger goes to *trace.
RoundResult RunRound(const Workload& w, LatencyHistogram* latency,
                     TraceTotals* trace) {
  RoundResult r;
  const Clock::time_point t0 = Clock::now();
  std::ifstream file(w.stream, std::ios::binary);
  if (!file) Die("cannot open " + w.stream);
  StreamReader reader(file, w.stream);
  tcsm::Status s = reader.Init();
  if (!s.ok()) Die(s.ToString());
  std::vector<QueryGraph> queries;
  for (const std::string& path : w.queries) {
    auto q = tcsm::LoadQueryFile(path);
    if (!q.ok()) Die(q.status().ToString());
    queries.push_back(std::move(q).value());
  }

  std::vector<std::unique_ptr<ContinuousEngine>> engines;
  std::vector<TimedEngine*> wrapped;
  std::vector<std::unique_ptr<CallCountingSink>> sinks;
  std::unique_ptr<ParallelStreamContext> ctx;
  ArrivalTimedContext* timed = nullptr;
  TracedContext* traced = nullptr;
  if (trace != nullptr) {
    auto c = std::make_unique<TracedContext>(reader.schema(), w.threads,
                                             &wrapped);
    traced = c.get();
    ctx = std::move(c);
  } else {
    auto c = std::make_unique<ArrivalTimedContext>(reader.schema(), w.threads);
    c->latency = latency;
    timed = c.get();
    ctx = std::move(c);
  }
  for (const QueryGraph& q : queries) {
    std::unique_ptr<ContinuousEngine> e = MakeEngine("tcm", q, ctx->graph());
    if (traced != nullptr) {
      auto te = std::make_unique<TimedEngine>(std::move(e));
      wrapped.push_back(te.get());
      sinks.push_back(std::make_unique<CallCountingSink>());
      te->set_sink(sinks.back().get());
      e = std::move(te);
    }
    ctx->Attach(e.get());
    engines.push_back(std::move(e));
  }
  r.setup_ms = Ms(NsSince(t0));

  tcsm::ReplayOptions opts;
  opts.window = w.window;
  auto res = tcsm::ReplayStream(&reader, opts, ctx.get());
  if (!res.ok()) Die(res.status().ToString());
  r.res = res.value();
  r.live_end = ctx->graph().NumAliveEdges();
  for (const auto& e : engines) r.per_query.push_back(e->counters());

  if (timed != nullptr) {
    r.arrivals = timed->arrivals;
  } else {
    r.arrivals = traced->arrivals;
    trace->arrival_ns = traced->arrival_ns;
    trace->expiry_ns = traced->expiry_ns;
    trace->batches = traced->batches;
    trace->events = traced->arrivals + traced->expiries;
    trace->mem_ns = traced->mem_ns;
    trace->mem_calls = traced->mem_calls;
    trace->peak_graph = traced->peak_graph;
    trace->peak_engine = traced->peak_engine;
    trace->counters = ctx->AggregateCounters();
    for (size_t i = 0; i < wrapped.size(); ++i) {
      trace->mem_engine_ns += wrapped[i]->mem_ns;
      trace->insert_ns += wrapped[i]->insert_ns;
      trace->expiring_ns += wrapped[i]->expiring_ns;
      trace->removed_ns += wrapped[i]->removed_ns;
      trace->engine_calls += wrapped[i]->calls;
      trace->emit_calls += sinks[i]->calls();
    }
  }
  return r;
}

void PrintRound(const RoundResult& r, std::ostream& out) {
  out << "{\"setup_ms\":" << r.setup_ms
      << ",\"elapsed_ms\":" << r.res.elapsed_ms
      << ",\"events\":" << r.res.events << ",\"arrivals\":" << r.arrivals
      << ",\"live_end\":" << r.live_end
      << ",\"completed\":" << (r.res.completed ? "true" : "false")
      << ",\"peak_bytes\":" << r.res.peak_memory_bytes << ",\"queries\":[";
  for (size_t i = 0; i < r.per_query.size(); ++i) {
    out << (i == 0 ? "" : ",") << "[" << r.per_query[i].occurred << ","
        << r.per_query[i].expired << "]";
  }
  out << "]}";
}

double Seconds(Clock::time_point t0) {
  return static_cast<double>(NsSince(t0)) / 1e9;
}

// ---------------------------------------------------------------------------
// measure

constexpr size_t kMinRounds = 3;

int Measure(const Flags& f) {
  const Workload w = ReadWorkload(f, "queries");
  const double seconds = f.Dbl("seconds", 10);
  std::vector<RoundResult> rounds;
  LatencyHistogram latency;  // every arrival batch of every round
  const Clock::time_point start = Clock::now();
  while (rounds.size() < kMinRounds || Seconds(start) < seconds) {
    rounds.push_back(RunRound(w, &latency, nullptr));
  }
  std::cout.precision(10);
  std::cout << "{\"mode\":\"measure\",\"latency_samples\":"
            << latency.total()
            << ",\"latency_p50_us\":" << latency.PercentileUs(50)
            << ",\"latency_p99_us\":" << latency.PercentileUs(99)
            << ",\"rounds\":[";
  for (size_t i = 0; i < rounds.size(); ++i) {
    if (i > 0) std::cout << ",";
    PrintRound(rounds[i], std::cout);
  }
  std::cout << "]}\n";
  return 0;
}

// ---------------------------------------------------------------------------
// trace: standalone passes and the ledger.

struct ReaderPass {
  double parse_ms = 0;
  uint64_t records = 0;
  std::vector<TemporalEdge> arrivals;
  GraphSchema schema;
};

/// Pulls every record through StreamReader::Next. Only the first pass is
/// timed; the arrivals are collected on a second, untimed pass.
ReaderPass RunReaderPass(const std::string& path) {
  ReaderPass p;
  for (int pass = 0; pass < 2; ++pass) {
    std::ifstream file(path, std::ios::binary);
    StreamReader reader(file, path);
    tcsm::Status s = reader.Init();
    if (!s.ok()) Die(s.ToString());
    p.schema = reader.schema();
    StreamRecord rec;
    bool done = false;
    const Clock::time_point t0 = Clock::now();
    while (true) {
      s = reader.Next(&rec, &done);
      if (!s.ok()) Die(s.ToString());
      if (done) break;
      if (pass == 0) {
        ++p.records;
      } else if (rec.kind == StreamRecord::Kind::kArrival) {
        p.arrivals.push_back(rec.edge);
      }
    }
    if (pass == 0) p.parse_ms = Ms(NsSince(t0));
  }
  return p;
}

struct GraphPass {
  double mutate_ms = 0;
  double event_ns_q1 = 0, event_ns_q4 = 0;
  size_t bytes_q1 = 0, bytes_q4 = 0;
};

/// Applies the replay's derived-expiry schedule (expirations at ts +
/// window, before arrivals on ties) to a bare TemporalGraph, timing each
/// quarter of the event sequence.
GraphPass RunGraphPass(const ReaderPass& rp, Timestamp window) {
  tcsm::TemporalGraph g(rp.schema.directed);
  g.EnsureVertices(rp.schema.vertex_labels.size());
  for (size_t v = 0; v < rp.schema.vertex_labels.size(); ++v) {
    g.SetVertexLabel(static_cast<tcsm::VertexId>(v),
                     rp.schema.vertex_labels[v]);
  }
  const size_t total = 2 * rp.arrivals.size();
  const size_t quarter = std::max<size_t>(1, total / 4);
  std::deque<std::pair<tcsm::EdgeId, Timestamp>> live;
  std::vector<int64_t> quarter_ns;
  std::vector<size_t> quarter_bytes;
  size_t events = 0;
  Clock::time_point mark = Clock::now();
  // Each quarter is timed on its own; the byte estimate taken at its end
  // stays outside every timed span.
  const auto tick = [&]() {
    if (++events % quarter != 0 || quarter_ns.size() >= 4) return;
    quarter_ns.push_back(NsSince(mark));
    quarter_bytes.push_back(g.EstimateMemoryBytes());
    mark = Clock::now();
  };
  for (const TemporalEdge& e : rp.arrivals) {
    while (!live.empty() && live.front().second + window <= e.ts) {
      g.RemoveEdge(live.front().first);
      live.pop_front();
      tick();
    }
    live.emplace_back(g.InsertEdge(e.src, e.dst, e.ts, e.label), e.ts);
    tick();
  }
  while (!live.empty()) {
    g.RemoveEdge(live.front().first);
    live.pop_front();
    tick();
  }
  int64_t mutate_ns = NsSince(mark);  // events after the last quarter
  for (int64_t ns : quarter_ns) mutate_ns += ns;
  GraphPass p;
  p.mutate_ms = Ms(mutate_ns);
  if (quarter_ns.size() == 4) {
    p.event_ns_q1 = static_cast<double>(quarter_ns[0]) / quarter;
    p.event_ns_q4 = static_cast<double>(quarter_ns[3]) / quarter;
    p.bytes_q1 = quarter_bytes[0];
    p.bytes_q4 = quarter_bytes[3];
  }
  return p;
}

int Trace(const Flags& f) {
  const Workload w = ReadWorkload(f, "queries");
  const bool has_plain = !f.List("plain-queries").empty();
  const Workload plain =
      has_plain ? ReadWorkload(f, "plain-queries") : Workload{};
  const double seconds = f.Dbl("seconds", 10);
  Workload parallel = w;
  parallel.threads =
      static_cast<size_t>(std::max<int64_t>(1, f.Int("parallel-threads", 1)));

  std::vector<RoundResult> rounds;  // every round is checked
  std::vector<double> traced_ms, untraced_ms, plain_ms, parallel_ms;
  // The untraced rounds keep the measure mode's arrival timer; only the
  // parallel rounds' latencies are reported.
  LatencyHistogram serial_latency, parallel_latency;
  std::vector<TraceTotals> totals;
  const Clock::time_point start = Clock::now();
  while (totals.empty() || Seconds(start) < seconds) {
    TraceTotals t;
    rounds.push_back(RunRound(w, nullptr, &t));
    traced_ms.push_back(rounds.back().res.elapsed_ms);
    totals.push_back(t);
    rounds.push_back(RunRound(w, &serial_latency, nullptr));
    untraced_ms.push_back(rounds.back().res.elapsed_ms);
    if (has_plain) {
      TraceTotals ignored;
      plain_ms.push_back(RunRound(plain, nullptr, &ignored).res.elapsed_ms);
    }
    if (parallel.threads > 1) {
      rounds.push_back(RunRound(parallel, &parallel_latency, nullptr));
      parallel_ms.push_back(rounds.back().res.elapsed_ms);
    }
  }
  const ReaderPass rp = RunReaderPass(w.stream);
  const GraphPass gp = RunGraphPass(rp, w.window);

  // The round whose traced elapsed time is the median stands for the run;
  // its parts are read from the same round so the ledger adds up.
  std::vector<size_t> order(totals.size());
  for (size_t i = 0; i < order.size(); ++i) order[i] = i;
  std::sort(order.begin(), order.end(), [&](size_t a, size_t b) {
    return traced_ms[a] < traced_ms[b];
  });
  const size_t mid = order[order.size() / 2];
  const TraceTotals& t = totals[mid];
  const double elapsed_ms = traced_ms[mid];
  const double arrival_ms = Ms(t.arrival_ns);
  const double expiry_ms = Ms(t.expiry_ns);
  const double mem_ms = Ms(t.mem_ns);
  const double busy_ms = Ms(t.insert_ns + t.expiring_ns + t.removed_ns);
  const double update_ms = Ms(static_cast<int64_t>(t.counters.update_ns));
  const double search_ms = Ms(static_cast<int64_t>(t.counters.search_ns));
  const double batch_ms = arrival_ms + expiry_ms;
  const double threads = static_cast<double>(w.threads);
  const double untraced = Median(untraced_ms);

  std::map<std::string, std::pair<double, std::string>> m;
  m["io.parse_ms"] = {rp.parse_ms, "ms"};
  m["io.records_per_s"] = {
      rp.parse_ms > 0 ? static_cast<double>(rp.records) / rp.parse_ms * 1e3
                      : 0,
      "rec/s"};
  m["replay.elapsed_ms"] = {elapsed_ms, "ms"};
  m["replay.mem_sample_ms"] = {mem_ms, "ms"};
  m["replay.mem_sample_calls"] = {static_cast<double>(t.mem_calls), "count"};
  m["replay.mem_sample_engine_ms"] = {Ms(t.mem_engine_ns), "ms"};
  m["replay.unattributed_ms"] = {
      elapsed_ms - batch_ms - mem_ms - rp.parse_ms, "ms"};
  m["trace.overhead_pct"] = {
      untraced > 0 ? (Median(traced_ms) - untraced) / untraced * 100 : 0,
      "%"};
  m["context.arrival_ms"] = {arrival_ms, "ms"};
  m["context.expiry_ms"] = {expiry_ms, "ms"};
  m["context.batches"] = {static_cast<double>(t.batches), "count"};
  m["context.mean_batch"] = {
      t.batches > 0 ? static_cast<double>(t.events) / t.batches : 0,
      "events"};
  m["graph.mutate_ms"] = {gp.mutate_ms, "ms"};
  m["graph.event_ns_q1"] = {gp.event_ns_q1, "ns/event"};
  m["graph.event_ns_q4"] = {gp.event_ns_q4, "ns/event"};
  m["graph.bytes_q1"] = {static_cast<double>(gp.bytes_q1), "bytes"};
  m["graph.bytes_q4"] = {static_cast<double>(gp.bytes_q4), "bytes"};
  m["exec.threads"] = {threads, "count"};
  m["exec.overhead_ms"] = {batch_ms - gp.mutate_ms - busy_ms / threads, "ms"};
  m["exec.efficiency"] = {
      batch_ms > 0 ? busy_ms / (threads * batch_ms) : 0, "ratio"};
  m["exec.parallel_speedup"] = {
      parallel_ms.empty() ? 0 : untraced / Median(parallel_ms), "ratio"};
  m["exec.parallel_p99_us"] = {parallel_latency.PercentileUs(99), "us"};
  m["engine.busy_ms"] = {busy_ms, "ms"};
  m["engine.insert_ms"] = {Ms(t.insert_ns), "ms"};
  m["engine.expiring_ms"] = {Ms(t.expiring_ns), "ms"};
  m["engine.removed_ms"] = {Ms(t.removed_ns), "ms"};
  m["engine.calls"] = {static_cast<double>(t.engine_calls), "count"};
  m["engine.other_ms"] = {busy_ms - update_ms - search_ms, "ms"};
  m["filter.update_ms"] = {update_ms, "ms"};
  m["search.ms"] = {search_ms, "ms"};
  m["search.nodes"] = {static_cast<double>(t.counters.search_nodes), "count"};
  m["adj.scanned"] = {static_cast<double>(t.counters.adj_entries_scanned),
                      "count"};
  m["adj.matched"] = {static_cast<double>(t.counters.adj_entries_matched),
                      "count"};
  m["emit.calls"] = {static_cast<double>(t.emit_calls), "count"};
  m["absence.cost_ms"] = {
      has_plain ? Median(traced_ms) - Median(plain_ms) : 0, "ms"};
  m["mem.graph_peak_bytes"] = {static_cast<double>(t.peak_graph), "bytes"};
  m["mem.engine_peak_bytes"] = {static_cast<double>(t.peak_engine), "bytes"};

  std::cout.precision(10);
  std::cout << "{\"mode\":\"trace\",\"traced_rounds\":" << totals.size()
            << ",\"metrics\":{";
  bool first = true;
  for (const auto& [name, vu] : m) {
    std::cout << (first ? "" : ",") << "\"" << name << "\":{\"value\":"
              << vu.first << ",\"unit\":\"" << vu.second << "\"}";
    first = false;
  }
  std::cout << "},\"rounds\":[";
  for (size_t i = 0; i < rounds.size(); ++i) {
    if (i > 0) std::cout << ",";
    PrintRound(rounds[i], std::cout);
  }
  std::cout << "]}\n";
  return 0;
}

// ---------------------------------------------------------------------------
// screen

struct BudgetExceeded {};

/// Counts sink calls and watches the engine's live search-node counter;
/// throws BudgetExceeded (unwinding out of the engine, whose state is then
/// discarded) once either passes its budget. Deterministic: it depends
/// only on the input, never on the clock.
class BudgetSink : public MatchSink {
 public:
  BudgetSink(const ContinuousEngine* engine, uint64_t max_nodes,
             uint64_t max_calls)
      : engine_(engine), max_nodes_(max_nodes), max_calls_(max_calls) {}
  bool wants_each_embedding() const override { return false; }
  void OnMatch(const Embedding&, MatchKind, uint64_t) override {
    if (++calls_ > max_calls_) throw BudgetExceeded{};
    Check();
  }
  void Check() const {
    if (engine_->counters().search_nodes > max_nodes_) throw BudgetExceeded{};
  }

 private:
  const ContinuousEngine* engine_;
  uint64_t max_nodes_;
  uint64_t max_calls_;
  uint64_t calls_ = 0;
};

/// Serial context that re-checks the budget after every batch, so a
/// search that visits many nodes without reporting is caught too.
class BudgetContext : public tcsm::SharedStreamContext {
 public:
  using SharedStreamContext::SharedStreamContext;
  void OnEdgeArrivalBatch(const TemporalEdge* edges, size_t count) override {
    SharedStreamContext::OnEdgeArrivalBatch(edges, count);
    budget->Check();
  }
  void OnEdgeExpiryBatch(const TemporalEdge* edges, size_t count) override {
    SharedStreamContext::OnEdgeExpiryBatch(edges, count);
    budget->Check();
  }
  const BudgetSink* budget = nullptr;
};

/// Last resort against a search that runs long between budget checks (one
/// batch whose search reports nothing). A candidate stopped by it counts as
/// over budget, as it would at the batch's end: at any rate above
/// budget / limit nodes per second it is over budget by then anyway.
constexpr double kScreenLimitMs = 5000;

struct SoloResult {
  bool finished = false;
  EngineCounters counters;
};

/// Replays one candidate query with one engine under a budget of search
/// nodes and sink calls.
SoloResult RunSolo(const std::string& stream, const std::string& query,
                   Timestamp window, const std::string& kind,
                   uint64_t max_nodes, uint64_t max_calls) {
  std::ifstream file(stream, std::ios::binary);
  if (!file) Die("cannot open " + stream);
  StreamReader reader(file, stream);
  tcsm::Status s = reader.Init();
  if (!s.ok()) Die(s.ToString());
  auto q = tcsm::LoadQueryFile(query);
  if (!q.ok()) Die(q.status().ToString());
  BudgetContext ctx(reader.schema());
  std::unique_ptr<ContinuousEngine> engine =
      MakeEngine(kind, q.value(), ctx.graph());
  BudgetSink sink(engine.get(), max_nodes, max_calls);
  engine->set_sink(&sink);
  ctx.budget = &sink;
  ctx.Attach(engine.get());
  tcsm::ReplayOptions opts;
  opts.window = window;
  opts.time_limit_ms = kScreenLimitMs;
  SoloResult r;
  try {
    auto res = tcsm::ReplayStream(&reader, opts, &ctx);
    if (!res.ok()) Die(res.status().ToString());
    r.finished = res.value().completed && ctx.graph().NumAliveEdges() == 0;
  } catch (const BudgetExceeded&) {
    r.finished = false;
  }
  r.counters = engine->counters();
  return r;
}

/// Replays every candidate with --engine=tcm|symbi|local under the budget
/// and prints, per candidate, whether it finished, the search nodes it
/// visited and its counts. workloads.py chooses from these.
int Screen(const Flags& f) {
  const std::string stream = f.Str("stream");
  const std::vector<std::string> candidates = f.List("candidates");
  const Timestamp window = f.Int("window", 0);
  const std::string kind = f.Str("engine");
  const uint64_t max_nodes = static_cast<uint64_t>(f.Int("max-nodes", 0));
  const uint64_t max_calls = static_cast<uint64_t>(f.Int("max-calls", 0));
  if (stream.empty() || window <= 0 || kind.empty() || max_nodes == 0 ||
      max_calls == 0) {
    Die("screen needs --stream, --window, --engine, --max-nodes and "
        "--max-calls");
  }
  std::cout << "{\"mode\":\"screen\",\"candidates\":[";
  for (size_t i = 0; i < candidates.size(); ++i) {
    const SoloResult r =
        RunSolo(stream, candidates[i], window, kind, max_nodes, max_calls);
    std::cerr << "screen " << candidates[i] << ": " << kind << " "
              << (r.finished ? "ok" : "over budget")
              << " nodes=" << r.counters.search_nodes << "\n";
    std::cout << (i == 0 ? "" : ",") << "{\"query\":\"" << candidates[i]
              << "\",\"finished\":" << (r.finished ? "true" : "false")
              << ",\"nodes\":" << r.counters.search_nodes
              << ",\"occurred\":" << r.counters.occurred
              << ",\"expired\":" << r.counters.expired << "}";
  }
  std::cout << "]}\n";
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  if (argc < 2) {
    std::cerr << "usage: perfbench_replay measure|trace|screen "
                 "--key=value...\n";
    return 2;
  }
  Flags f;
  for (int i = 2; i < argc; ++i) {
    const std::string a = argv[i];
    const size_t eq = a.find('=');
    if (a.rfind("--", 0) != 0 || eq == std::string::npos) {
      Die("bad argument '" + a + "' (expected --key=value)");
    }
    f.kv[a.substr(2, eq - 2)] = a.substr(eq + 1);
  }
  const std::string mode = argv[1];
  if (mode == "measure") return Measure(f);
  if (mode == "trace") return Trace(f);
  if (mode == "screen") return Screen(f);
  Die("unknown mode '" + mode + "'");
}
