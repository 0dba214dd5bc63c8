#include "cli/commands.h"

#include <charconv>
#include <cstdio>
#include <fstream>
#include <iostream>
#include <map>
#include <memory>
#include <optional>
#include <sstream>
#include <stdexcept>

#include "bench_util/experiment.h"
#include "bench_util/table_printer.h"
#include "core/automorphism.h"
#include "core/snapshot.h"
#include "core/stream_driver.h"
#include "exec/parallel_context.h"
#include "datasets/presets.h"
#include "datasets/synthetic.h"
#include "graph/graph_io.h"
#include "io/flight_recorder.h"
#include "io/replay.h"
#include "io/stream_reader.h"
#include "io/stream_writer.h"
#include "obs/observability.h"
#include "query/query_io.h"
#include "querygen/query_generator.h"
#include "shard/sharded_context.h"
#include "shard/sharded_engine.h"

namespace tcsm::cli {
namespace {

/// A numeric flag whose value does not parse in full (`--window=10x`).
class FlagError : public std::runtime_error {
 public:
  using std::runtime_error::runtime_error;
};

/// Tiny flag parser: positional arguments plus --key=value / --switch.
class FlagSet {
 public:
  explicit FlagSet(const Args& args) {
    for (const std::string& a : args) {
      if (a.rfind("--", 0) == 0) {
        const size_t eq = a.find('=');
        if (eq == std::string::npos) {
          flags_[a.substr(2)] = "";
        } else {
          flags_[a.substr(2, eq - 2)] = a.substr(eq + 1);
        }
      } else {
        positional_.push_back(a);
      }
    }
  }

  const std::vector<std::string>& positional() const { return positional_; }
  bool Has(const std::string& name) const { return flags_.count(name) > 0; }

  std::string GetString(const std::string& name,
                        const std::string& dflt = "") const {
    auto it = flags_.find(name);
    return it == flags_.end() ? dflt : it->second;
  }
  double GetDouble(const std::string& name, double dflt) const {
    return GetNumber(name, dflt, "a number");
  }
  int64_t GetInt(const std::string& name, int64_t dflt) const {
    return GetNumber(name, dflt, "an integer");
  }

 private:
  /// Parses the whole value of --name as a T; an empty or partial parse
  /// throws a FlagError naming the flag.
  template <typename T>
  T GetNumber(const std::string& name, T dflt, const char* expected) const {
    auto it = flags_.find(name);
    if (it == flags_.end()) return dflt;
    const std::string& v = it->second;
    const char* const last = v.data() + v.size();
    T value{};
    const auto [end, ec] = std::from_chars(v.data(), last, value);
    if (ec != std::errc() || end != last) {
      throw FlagError("--" + name + ": expected " + expected + ", got '" + v +
                      "'");
    }
    return value;
  }

  std::vector<std::string> positional_;
  std::map<std::string, std::string> flags_;
};

/// Unwraps a loader's result (LoadTelFile, LoadQueryFile); prints the
/// error and returns nullopt on failure.
template <typename T>
std::optional<T> Loaded(StatusOr<T> result, std::ostream& out) {
  if (!result.ok()) {
    out << "error: " << result.status().ToString() << "\n";
    return std::nullopt;
  }
  return std::move(result).value();
}

/// Engine factory of --engine; prints an error and returns null for
/// unknown kinds.
std::unique_ptr<ContinuousEngine> MakeCliEngine(const std::string& kind,
                                                const QueryGraph& query,
                                                const TemporalGraph& graph,
                                                std::ostream& out) {
  static const std::map<std::string, EngineKind> kKinds = {
      {"tcm", EngineKind::kTcm},
      {"timing", EngineKind::kTiming},
      {"symbi", EngineKind::kSymbiPost},
      {"local", EngineKind::kLocalEnum}};
  const auto it = kKinds.find(kind);
  if (it != kKinds.end()) return MakeEngine(it->second, query, graph);
  out << "error: unknown engine '" << kind << "'\n";
  return nullptr;
}

/// Builds the synthetic dataset named by `kind` ("random" or a preset);
/// prints an error and returns nullopt for unknown presets.
std::optional<TemporalDataset> BuildSynthetic(const FlagSet& flags,
                                              const std::string& kind,
                                              std::ostream& out) {
  if (kind == "random") {
    SyntheticSpec spec;
    spec.num_vertices = static_cast<size_t>(flags.GetInt("vertices", 1000));
    spec.num_edges = static_cast<size_t>(flags.GetInt("edges", 10000));
    spec.num_vertex_labels =
        static_cast<size_t>(flags.GetInt("vlabels", 1));
    spec.num_edge_labels = static_cast<size_t>(flags.GetInt("elabels", 1));
    spec.avg_parallel_edges = flags.GetDouble("parallel", 1.5);
    // Coalesced timestamps produce runs of same-instant events, the
    // shape that engages the micro-batched delivery paths downstream.
    const int64_t coalesce = flags.GetInt("coalesce", 1);
    if (coalesce < 1) {
      out << "error: --coalesce must be >= 1\n";
      return std::nullopt;
    }
    spec.ts_coalesce = static_cast<size_t>(coalesce);
    spec.directed = flags.Has("directed");
    spec.seed = static_cast<uint64_t>(flags.GetInt("seed", 42));
    return GenerateSynthetic(spec);
  }
  bool known = false;
  for (const auto& p : PresetNames()) known = known || p == kind;
  if (!known) {
    out << "error: unknown preset '" << kind << "'\n";
    return std::nullopt;
  }
  SyntheticSpec spec = PresetSpec(kind, flags.GetDouble("scale", 1.0));
  spec.seed = static_cast<uint64_t>(flags.GetInt("seed", spec.seed));
  return GenerateSynthetic(spec);
}

void PrintStats(const TemporalDataset& ds, std::ostream& out) {
  const DatasetStats s = ds.ComputeStats();
  TablePrinter table({"|V|", "|E|", "|Sv|", "|Se|", "davg", "mavg",
                      "span", "window-unit"});
  table.AddRow({std::to_string(s.num_vertices), std::to_string(s.num_edges),
                std::to_string(s.num_vertex_labels),
                std::to_string(s.num_edge_labels),
                FormatDouble(s.avg_degree, 2),
                FormatDouble(s.avg_parallel_edges, 2),
                std::to_string(s.max_ts - s.min_ts),
                FormatDouble(s.window_unit, 3)});
  table.Print(out);
}

class StreamPrintSink : public MatchSink {
 public:
  explicit StreamPrintSink(std::ostream& out, std::string prefix = "")
      : out_(out), prefix_(std::move(prefix)) {}
  void OnMatch(const Embedding& m, MatchKind kind, uint64_t) override {
    out_ << prefix_ << (kind == MatchKind::kOccurred ? "+" : "-");
    for (size_t u = 0; u < m.vertices.size(); ++u) {
      out_ << " u" << u << ":" << m.vertices[u];
    }
    out_ << " |";
    for (size_t e = 0; e < m.edges.size(); ++e) {
      out_ << " e" << e << ":" << m.edges[e];
    }
    out_ << "\n";
  }

 private:
  std::ostream& out_;
  std::string prefix_;
};

std::string JsonEscape(const std::string& s) {
  std::string out;
  out.reserve(s.size());
  for (const char c : s) {
    if (c == '"' || c == '\\') {
      out += '\\';
      out += c;
    } else if (static_cast<unsigned char>(c) < 0x20) {
      char buf[8];
      std::snprintf(buf, sizeof(buf), "\\u%04x", c);
      out += buf;
    } else {
      out += c;
    }
  }
  return out;
}

/// Observability surface of run/replay: --metrics[=on|off],
/// --stats-every=N, --trace-out=FILE (DESIGN.md §11).
struct ObsCliOptions {
  std::unique_ptr<Observability> obs;  // null = metrics off
  size_t stats_every = 0;
  std::string trace_path;
};

/// Parses the observability flags. --stats-every/--trace-out imply
/// metrics on; combining either with an explicit --metrics=off is a
/// contradiction. Returns false after printing an error.
bool ResolveObsFlags(const FlagSet& flags, std::ostream& out,
                     ObsCliOptions* o) {
  bool metrics_on = false;
  bool metrics_off = false;
  if (flags.Has("metrics")) {
    const std::string v = flags.GetString("metrics");
    if (v.empty() || v == "on") {
      metrics_on = true;
    } else if (v == "off") {
      metrics_off = true;
    } else {
      out << "error: bad --metrics (expected 'on' or 'off')\n";
      return false;
    }
  }
  const int64_t every = flags.GetInt("stats-every", 0);
  if (every < 0) {
    out << "error: --stats-every must be >= 0\n";
    return false;
  }
  o->stats_every = static_cast<size_t>(every);
  o->trace_path = flags.GetString("trace-out");
  if (metrics_off && (o->stats_every > 0 || !o->trace_path.empty())) {
    out << "error: --metrics=off contradicts --stats-every/--trace-out\n";
    return false;
  }
  if (metrics_on || o->stats_every > 0 || !o->trace_path.empty()) {
    o->obs = std::make_unique<Observability>();
    if (!o->trace_path.empty()) o->obs->EnableTrace();
  }
  return true;
}

/// The observability flags only make sense where a stream is driven;
/// reject them loudly on the other subcommands instead of silently
/// ignoring a typo'd invocation. Returns true (after printing an error)
/// when any such flag is present.
bool RejectObsFlags(const FlagSet& flags, const char* cmd,
                    std::ostream& out) {
  for (const char* f : {"metrics", "stats-every", "trace-out"}) {
    if (flags.Has(f)) {
      out << "error: --" << f
          << " only applies to streaming subcommands (run, replay), not '"
          << cmd << "'\n";
      return true;
    }
  }
  return false;
}

/// End-of-run observability output: writes the trace file (validated
/// offline by tools/check_trace.py) and, in text mode, the per-stage
/// latency table. Returns non-zero on trace write failure.
int FinishObs(const ObsCliOptions& o, bool json, std::ostream& out) {
  if (o.obs == nullptr) return 0;
  if (!o.trace_path.empty()) {
    std::ofstream tf(o.trace_path);
    if (!tf) {
      out << "error: cannot open " << o.trace_path << "\n";
      return 1;
    }
    o.obs->trace()->WriteJson(tf);
    tf.flush();
    if (!tf) {
      out << "error: failed writing " << o.trace_path << "\n";
      return 1;
    }
    if (!json) {
      out << "wrote trace: " << o.obs->trace()->NumSpans() << " spans to "
          << o.trace_path << "\n";
    }
  }
  if (!json) {
    const std::vector<StageSummaryRow> rows =
        SummarizeStages(o.obs->Snapshot());
    if (!rows.empty()) {
      TablePrinter table({"stage", "count", "p50_us", "p99_us", "total_ms"});
      for (const StageSummaryRow& r : rows) {
        table.AddRow({r.stage, std::to_string(r.count),
                      FormatDouble(r.p50_us, 2), FormatDouble(r.p99_us, 2),
                      FormatDouble(r.total_ms, 2)});
      }
      table.Print(out);
    }
  }
  return 0;
}

/// Parses the `.tel` framing flags shared by gen and convert:
/// --format=text|binary (default = `default_binary`), --varint[=on|off]
/// (binary only), --block-records=N (binary only). Returns false after
/// printing an error.
bool ResolveTelFormatFlags(const FlagSet& flags, bool default_binary,
                           TelWriteOptions* opts, std::ostream& out) {
  const std::string format = flags.GetString("format");
  if (format.empty() && !flags.Has("format")) {
    opts->binary = default_binary;
  } else if (format == "binary") {
    opts->binary = true;
  } else if (format == "text") {
    opts->binary = false;
  } else {
    out << "error: bad --format (expected 'text' or 'binary')\n";
    return false;
  }
  if (flags.Has("varint")) {
    const std::string v = flags.GetString("varint");
    if (v.empty() || v == "on") {
      opts->varint_timestamps = true;
    } else if (v == "off") {
      opts->varint_timestamps = false;
    } else {
      out << "error: bad --varint (expected 'on' or 'off')\n";
      return false;
    }
    if (!opts->binary) {
      out << "error: --varint only applies to --format=binary\n";
      return false;
    }
  }
  if (flags.Has("block-records")) {
    const int64_t n = flags.GetInt("block-records", 0);
    if (n <= 0) {
      out << "error: --block-records must be > 0\n";
      return false;
    }
    if (!opts->binary) {
      out << "error: --block-records only applies to --format=binary\n";
      return false;
    }
    opts->block_records = static_cast<size_t>(n);
  }
  return true;
}

/// The "stages" object of the replay --json line: per-stage count and
/// latency quantiles from the registry snapshot.
std::string StagesJson(const MetricsSnapshot& snap) {
  std::ostringstream os;
  os << "{";
  bool first = true;
  for (const StageSummaryRow& r : SummarizeStages(snap)) {
    if (!first) os << ",";
    first = false;
    os << "\"" << r.stage << "\":{\"count\":" << r.count
       << ",\"p50_us\":" << FormatDouble(r.p50_us, 3)
       << ",\"p99_us\":" << FormatDouble(r.p99_us, 3)
       << ",\"total_ms\":" << FormatDouble(r.total_ms, 3) << "}";
  }
  os << "}";
  return os.str();
}

/// Writes `ds` as a `.tel` stream to `path`, or straight to `out` with
/// `-` (`tcsm gen ... | tcsm replay - q.tq`); a file gets a summary.
int WriteDataset(const TemporalDataset& ds, const TelWriteOptions& opts,
                 const std::string& path, std::ostream& out) {
  const Status s =
      path == "-" ? WriteTel(ds, opts, out) : SaveTelFile(ds, opts, path);
  if (!s.ok()) {
    out << "error: " << s.ToString() << "\n";
    return 1;
  }
  if (path != "-") {
    out << "wrote " << ds.NumEdges() << " edges / " << ds.NumVertices()
        << " vertices to " << path << "\n";
    PrintStats(ds, out);
  }
  return 0;
}

/// Opens `path` (`-` = stdin) as a `.tel` stream that declares its vertex
/// universe up front, as `command` needs; null after printing an error.
std::unique_ptr<StreamReader> OpenStream(const std::string& path,
                                         const char* command,
                                         std::ifstream* file,
                                         std::ostream& out) {
  std::istream* in = &std::cin;
  if (path != "-") {
    file->open(path, std::ios::binary);
    if (!*file) {
      out << "error: cannot open " << path << "\n";
      return nullptr;
    }
    in = file;
  }
  auto reader =
      std::make_unique<StreamReader>(*in, path == "-" ? "<stdin>" : path);
  const Status s = reader->Init();
  if (!s.ok()) {
    out << "error: " << s.ToString() << "\n";
    return nullptr;
  }
  if (!reader->has_vertex_universe()) {
    out << "error: " << reader->source() << ": " << command
        << " needs the vertex universe declared up front (vertices=N in "
           "the header, or v records)\n";
    return nullptr;
  }
  return reader;
}

/// The stream `run` and `replay` match queries against: its `.tel`
/// header (directedness, window, expiry mode), schema and events.
struct StreamInput {
  std::string name;
  TelHeader header;
  GraphSchema schema;
  EventSource* events = nullptr;
};

/// The matching body shared by `run` and `replay`: loads the query files
/// named after the stream, attaches one engine per query, drives the
/// stream through the one stream driver and reports the result.
int MatchQueries(const FlagSet& flags, const StreamInput& in,
                 std::ostream& out) {
  std::vector<QueryGraph> queries;
  std::vector<std::string> query_paths(flags.positional().begin() + 1,
                                       flags.positional().end());
  for (const std::string& path : query_paths) {
    auto q = Loaded(LoadQueryFile(path), out);
    if (!q) return 1;
    if (q->directed() != in.header.directed) {
      out << "error: " << path
          << ": query and stream directedness differ\n";
      return 1;
    }
    if (flags.Has("seek-ts") && !q->absences().empty()) {
      // A seeked replay never sees the arrivals before the seek point, so
      // a violating edge there cannot kill a pending match born after it
      // (DESIGN.md §12): the result would not be comparable to a full
      // replay's.
      out << "error: " << path
          << ": --seek-ts cannot replay absence predicates (violations "
             "before the seek point would be missed); replay the whole "
             "stream\n";
      return 1;
    }
    queries.push_back(std::move(*q));
  }
  const bool json = flags.Has("json");
  // Absence predicates defer emission (DESIGN.md §12) — worth a header
  // line so a reordered match stream isn't mistaken for nondeterminism.
  for (size_t i = 0; i < queries.size(); ++i) {
    if (json) break;
    const size_t ng = queries[i].gaps().size();
    const size_t na = queries[i].absences().size();
    if (ng == 0 && na == 0) continue;
    out << "note: " << query_paths[i] << " carries " << ng
        << " gap bound(s), " << na
        << " absence predicate(s) (absence defers emission)\n";
  }
  const std::string kind = flags.GetString("engine", "tcm");
  const size_t shards =
      static_cast<size_t>(std::max<int64_t>(1, flags.GetInt("shards", 1)));
  if (shards > 1 && kind != "tcm") {
    out << "error: --shards=" << shards
        << " requires --engine=tcm (only the TCM engine reads through "
           "the sharded graph view)\n";
    return 1;
  }
  // One pool lane per shard by default, the serial 1 otherwise.
  const size_t threads = static_cast<size_t>(std::max<int64_t>(
      1, flags.GetInt("threads", static_cast<int64_t>(shards))));
  // --json promises machine-readable stdout: exactly one JSON line, so
  // the advisory chatter below is suppressed under it.
  if (threads > 1 && shards == 1 && queries.size() == 1 && !json) {
    // Fan-out shards *engines*; one query attaches exactly one, so the
    // run stays serial however many workers the pool has. (--shards=N is
    // different: it splits the graph maintenance itself.)
    out << "note: one query attaches a single engine; --threads=" << threads
        << " cannot speed up one engine (pass several query files)\n";
  }

  // The context owns the shared sliding-window graph — one canonical
  // graph, or a vertex-partitioned set of shard graphs under --shards.
  // Engines are read-only views attached to it. At --threads=1 (the
  // default) the parallel context spawns no workers and is the serial
  // context.
  std::unique_ptr<SharedStreamContext> context;
  ShardedStreamContext* sharded = nullptr;
  if (shards > 1) {
    auto c = std::make_unique<ShardedStreamContext>(in.schema, shards,
                                                    threads);
    sharded = c.get();
    context = std::move(c);
  } else {
    context = std::make_unique<ParallelStreamContext>(in.schema, threads);
  }
  std::vector<std::unique_ptr<ContinuousEngine>> engines;
  std::vector<std::unique_ptr<MatchSink>> owned_sinks;
  for (size_t i = 0; i < queries.size(); ++i) {
    std::unique_ptr<ContinuousEngine> engine =
        sharded != nullptr
            ? std::make_unique<ShardedTcmEngine>(queries[i], sharded->view())
            : MakeCliEngine(kind, queries[i], context->graph(), out);
    if (!engine) return 1;
    MatchSink* sink = nullptr;
    if (flags.Has("print")) {
      // Single-query output is one line per match; with several queries
      // each line is prefixed by its query index.
      const std::string prefix =
          queries.size() == 1 ? "" : "q" + std::to_string(i) + " ";
      owned_sinks.push_back(std::make_unique<StreamPrintSink>(out, prefix));
      sink = owned_sinks.back().get();
    }
    if (flags.Has("canonical")) {
      // Collapse automorphic mappings to one pattern instance (over a
      // counting sink when nothing is printed).
      if (sink == nullptr) {
        owned_sinks.push_back(std::make_unique<CountingSink>());
        sink = owned_sinks.back().get();
      }
      owned_sinks.push_back(
          std::make_unique<CanonicalSink>(queries[i], sink));
      sink = owned_sinks.back().get();
      if (!json) {
        out << "automorphism group size: "
            << static_cast<CanonicalSink*>(sink)->GroupSize() << "\n";
      }
    }
    if (sink != nullptr) engine->set_sink(sink);
    if (sharded != nullptr) {
      // Contiguous engine -> shard placement (shard-monotone in attach
      // order), so the global match stream keeps the serial attach order
      // (DESIGN.md §10).
      sharded->AttachToShard(i * shards / queries.size(), engine.get());
    } else {
      context->Attach(engine.get());
    }
    engines.push_back(std::move(engine));
  }

  // Window precedence: explicit flag, then the query files' `w` records,
  // then the stream's own (the `.tel` header). When no --window is
  // passed, two queries recording different windows is an error the user
  // must break explicitly, not a silent pick of the first file's value.
  const Timestamp window_flag = flags.GetInt("window", 0);
  Timestamp hint = 0;
  for (size_t i = 0; i < queries.size() && window_flag <= 0; ++i) {
    const Timestamp w = queries[i].window_hint();
    if (w <= 0) continue;
    if (hint == 0) {
      hint = w;
    } else if (hint != w) {
      out << "error: query files disagree on their recorded windows ("
          << hint << " vs " << w << " in " << query_paths[i]
          << "); pass --window=w explicitly\n";
      return 1;
    }
  }
  if (in.header.explicit_expiry && window_flag > 0 && !json) {
    out << "note: " << in.name
        << " carries its own expiry schedule (expiry=explicit); "
           "--window is ignored\n";
  }
  ObsCliOptions obs;
  if (!ResolveObsFlags(flags, out, &obs)) return 1;
  StreamConfig opts;
  opts.window = window_flag > 0 ? window_flag
                : hint > 0      ? hint
                                : in.header.window;

  // Flight recorder: retain the last N arrivals in memory and dump them
  // as a replayable .tel on exit — including the error exit, where the
  // dump is the reproducer.
  const int64_t flight_cap = flags.GetInt("flight-record", 0);
  const std::string flight_path = flags.GetString("flight-dump");
  if ((flight_cap > 0) != !flight_path.empty()) {
    out << "error: --flight-record=N and --flight-dump=FILE go together\n";
    return 1;
  }
  if (flags.Has("flight-record") && flight_cap <= 0) {
    out << "error: --flight-record must be > 0\n";
    return 1;
  }
  const std::string flight_format = flags.GetString("flight-format", "text");
  if (flight_format != "text" && flight_format != "binary") {
    out << "error: bad --flight-format (expected 'text' or 'binary')\n";
    return 1;
  }
  if (flags.Has("flight-format") && flight_cap <= 0) {
    out << "error: --flight-format requires --flight-record/--flight-dump\n";
    return 1;
  }
  std::unique_ptr<FlightRecorder> recorder;
  if (flight_cap > 0) {
    recorder = std::make_unique<FlightRecorder>(
        in.schema, opts.window, static_cast<size_t>(flight_cap));
    opts.recorder = recorder.get();
  }
  const auto dump_flight = [&]() -> bool {
    if (recorder == nullptr) return true;
    const Status ds =
        recorder->DumpTelFile(flight_path, flight_format == "binary");
    if (!ds.ok()) {
      out << "error: " << ds.ToString() << "\n";
      return false;
    }
    if (!json) {
      out << "flight recorder: dumped " << recorder->size() << " of "
          << recorder->total_recorded() << " arrivals to " << flight_path
          << "\n";
    }
    return true;
  };
  opts.time_limit_ms = flags.GetDouble("limit_ms", 0);
  opts.max_arrivals =
      static_cast<size_t>(std::max<int64_t>(0, flags.GetInt("max-events", 0)));
  opts.obs = obs.obs.get();
  opts.stats_every = obs.stats_every;
  // Under --json each stats tick is its own {"type":"stats",...} line
  // ahead of the final summary line, so stdout stays line-parseable.
  opts.stats_json = json;
  opts.stats_out = &out;
  auto res = DriveStream(in.events, opts, context.get());
  if (!res.ok()) {
    out << "error: " << res.status().ToString() << "\n";
    dump_flight();  // the retained window is the reproducer
    return 1;
  }
  const StreamResult& r = res.value();
  if (json) {
    out << "{\"stream\":\"" << JsonEscape(in.name)
        << "\",\"engine\":\"" << kind
        << "\",\"threads\":" << r.num_threads
        << ",\"shards\":" << r.num_shards << ",\"events\":" << r.events
        << ",\"occurred\":" << r.occurred << ",\"expired\":" << r.expired
        << ",\"elapsed_ms\":" << FormatDouble(r.elapsed_ms, 3)
        << ",\"peak_bytes\":" << r.peak_memory_bytes
        << ",\"peak_event_index\":" << r.peak_memory_event_index
        << ",\"adj_scanned\":" << r.adj_entries_scanned
        << ",\"adj_matched\":" << r.adj_entries_matched
        << ",\"completed\":" << (r.completed ? "true" : "false");
    if (obs.obs != nullptr) {
      out << ",\"stages\":" << StagesJson(obs.obs->Snapshot());
    }
    out << ",\"queries\":[";
    for (size_t i = 0; i < engines.size(); ++i) {
      const EngineCounters& c = engines[i]->counters();
      out << (i == 0 ? "" : ",") << "{\"file\":\""
          << JsonEscape(query_paths[i]) << "\",\"occurred\":" << c.occurred
          << ",\"expired\":" << c.expired
          << ",\"gaps\":" << queries[i].gaps().size()
          << ",\"absence\":" << queries[i].absences().size() << "}";
    }
    out << "]}\n";
  } else {
    out << "engine=" << engines[0]->name() << " threads=" << r.num_threads
        << " shards=" << r.num_shards << " events=" << r.events
        << " occurred=" << r.occurred << " expired=" << r.expired
        << " elapsed_ms=" << FormatDouble(r.elapsed_ms, 2)
        << " peak_bytes=" << r.peak_memory_bytes
        << " peak_at=" << r.peak_memory_event_index
        << " adj_scanned=" << r.adj_entries_scanned
        << " adj_matched=" << r.adj_entries_matched
        << (r.completed ? "" : " (INCOMPLETE: limit hit)") << "\n";
    if (engines.size() > 1) {
      for (size_t i = 0; i < engines.size(); ++i) {
        const EngineCounters& c = engines[i]->counters();
        out << "  q" << i << " " << query_paths[i]
            << " occurred=" << c.occurred << " expired=" << c.expired
            << " gaps=" << queries[i].gaps().size()
            << " absence=" << queries[i].absences().size() << "\n";
      }
    }
  }
  if (!dump_flight()) return 1;
  if (FinishObs(obs, json, out) != 0) return 1;
  return r.completed ? 0 : 3;
}

/// Flags of the matching body, shared by the run and replay usage lines.
constexpr const char* kMatchFlagsUsage =
    "[--window=w] [--threads=N] [--shards=N] [--max-events=N] "
    "[--limit_ms=T] [--engine=tcm|timing|symbi|local] [--print] "
    "[--canonical] [--json] [--flight-record=N --flight-dump=FILE "
    "[--flight-format=text|binary]] [--metrics[=on|off]] "
    "[--stats-every=N] [--trace-out=FILE]";

}  // namespace

int CmdStats(const Args& args, std::ostream& out) {
  const FlagSet flags(args);
  if (flags.positional().size() != 1) {
    out << "usage: tcsm stats <stream.tel>\n";
    return 2;
  }
  if (RejectObsFlags(flags, "stats", out)) return 2;
  const auto ds = Loaded(LoadTelFile(flags.positional()[0]), out);
  if (!ds) return 1;
  PrintStats(*ds, out);
  return 0;
}

int CmdGen(const Args& args, std::ostream& out) {
  const FlagSet flags(args);
  if (flags.positional().empty() || flags.positional().size() > 2) {
    out << "usage: tcsm gen <preset|random> [<out.tel>|-] [--scale=S] "
           "[--seed=K] [--window=D] [--expiry=explicit] "
           "[--format=text|binary] [--varint=on|off] [--block-records=N] "
           "[--vertices=N --edges=M --vlabels=a --elabels=b --parallel=p "
           "--coalesce=c --directed]\n"
           "   presets: ";
    for (const auto& p : PresetNames()) out << p << " ";
    out << "\n";
    return 2;
  }
  if (RejectObsFlags(flags, "gen", out)) return 2;
  const auto ds = BuildSynthetic(flags, flags.positional()[0], out);
  if (!ds) return 1;

  TelWriteOptions opts;
  if (!ResolveTelFormatFlags(flags, /*default_binary=*/false, &opts, out)) {
    return 1;
  }
  opts.window = flags.GetInt("window", 0);
  const std::string expiry = flags.GetString("expiry", "derived");
  if (expiry == "explicit") {
    opts.explicit_expiry = true;
  } else if (expiry != "derived") {
    out << "error: bad --expiry (expected 'derived' or 'explicit')\n";
    return 1;
  }
  return WriteDataset(
      *ds, opts,
      flags.positional().size() == 2 ? flags.positional()[1] : "-", out);
}

int CmdConvert(const Args& args, std::ostream& out) {
  const FlagSet flags(args);
  if (flags.positional().size() != 2) {
    out << "usage: tcsm convert <in|-> <out.tel|-> [--format=binary|text] "
           "[--varint=on|off] [--block-records=N] [--directed] "
           "[--labels=file]\n"
           "   <in> is a .tel stream (default --format: the opposite "
           "framing) or a legacy edge list `src dst ts [label]` (default "
           "--format: text; --directed and --labels=file apply to it)\n";
    return 2;
  }
  if (RejectObsFlags(flags, "convert", out)) return 2;
  const std::string in_path = flags.positional()[0];
  const std::string out_path = flags.positional()[1];
  if (in_path != "-" && !SniffTelFile(in_path)) {
    // A legacy edge list is loaded whole (it needs sorting) and written
    // the way `gen` writes a stream.
    auto ds = LoadEdgeListFile(in_path, flags.Has("directed"));
    Status s = ds.status();
    const std::string labels = flags.GetString("labels");
    if (s.ok() && !labels.empty()) {
      s = LoadVertexLabelFile(labels, &ds.value());
    }
    if (!s.ok()) {
      out << "error: " << s.ToString() << "\n";
      return 1;
    }
    TelWriteOptions opts;
    if (!ResolveTelFormatFlags(flags, /*default_binary=*/false, &opts, out)) {
      return 1;
    }
    return WriteDataset(ds.value(), opts, out_path, out);
  }
  if (flags.Has("directed") || flags.Has("labels")) {
    out << "error: --directed/--labels only apply to an edge-list input; "
           "a .tel stream carries its own\n";
    return 1;
  }
  std::ifstream in_file;
  const auto reader = OpenStream(in_path, "convert", &in_file, out);
  if (reader == nullptr) return 1;
  TelWriteOptions opts;
  if (!ResolveTelFormatFlags(flags, /*default_binary=*/!reader->binary(),
                             &opts, out)) {
    return 1;
  }
  // The header carries over wholesale: convert changes the framing, never
  // the stream it frames.
  opts.window = reader->header().window;
  opts.explicit_expiry = reader->header().explicit_expiry;

  std::ofstream out_file;
  std::ostream* sink = &out;
  if (out_path != "-") {
    out_file.open(out_path, std::ios::binary);
    if (!out_file) {
      out << "error: cannot write " << out_path << "\n";
      return 1;
    }
    sink = &out_file;
  }
  StreamWriter writer(*sink);
  Status s = writer.BeginStream(reader->header().directed,
                                reader->vertex_labels(), opts);
  uint64_t records = 0;
  while (s.ok()) {
    StreamRecord rec;
    bool done = false;
    s = reader->Next(&rec, &done);
    if (!s.ok() || done) break;
    ++records;
    s = rec.kind == StreamRecord::Kind::kArrival
            ? writer.RecordArrival(rec.edge)
            : writer.RecordExpiry(rec.edge.ts);
  }
  if (s.ok()) s = writer.Finish();
  if (!s.ok()) {
    out << "error: " << s.ToString() << "\n";
    return 1;
  }
  if (out_path != "-") {
    // Stdout output gets no summary: `convert - -` sits in pipelines and
    // its stdout is the stream itself.
    out << "converted " << records << " records ("
        << (reader->binary() ? "binary" : "text") << " -> "
        << (opts.binary ? "binary" : "text") << ") to " << out_path << "\n";
  }
  return 0;
}

int CmdGenQuery(const Args& args, std::ostream& out) {
  const FlagSet flags(args);
  if (flags.positional().size() != 2) {
    out << "usage: tcsm gen-query <stream.tel> <out-file> [--size=m] "
           "[--density=d] [--window=w] [--seed=K] [--gaps=p] "
           "[--gap-slack=s] [--absence=n] [--absence-delta=d]\n";
    return 2;
  }
  if (RejectObsFlags(flags, "gen-query", out)) return 2;
  const auto ds = Loaded(LoadTelFile(flags.positional()[0]), out);
  if (!ds) return 1;
  QueryGenOptions opt;
  opt.num_edges = static_cast<size_t>(flags.GetInt("size", 5));
  opt.density = flags.GetDouble("density", 0.5);
  opt.window = flags.GetInt("window", 0);
  opt.gap_probability = flags.GetDouble("gaps", 0.0);
  opt.gap_slack = flags.GetInt("gap-slack", 8);
  opt.num_absence = static_cast<size_t>(flags.GetInt("absence", 0));
  opt.absence_delta = flags.GetInt("absence-delta", 5);
  Rng rng(static_cast<uint64_t>(flags.GetInt("seed", 1)));
  QueryGraph q;
  if (!GenerateQuery(*ds, opt, &rng, &q)) {
    out << "error: could not extract a connected query of size "
        << opt.num_edges << "\n";
    return 1;
  }
  const Status s = SaveQueryFile(q, flags.positional()[1]);
  if (!s.ok()) {
    out << "error: " << s.ToString() << "\n";
    return 1;
  }
  out << "wrote query (|V|=" << q.NumVertices() << ", |E|=" << q.NumEdges()
      << ", density=" << FormatDouble(q.OrderDensity(), 2)
      << ", gaps=" << q.gaps().size() << ", absence=" << q.absences().size()
      << ") to " << flags.positional()[1] << "\n";
  return 0;
}

int CmdRun(const Args& args, std::ostream& out) {
  const FlagSet flags(args);
  if (flags.positional().size() < 2) {
    out << "usage: tcsm run <stream.tel> <query-file>... "
        << kMatchFlagsUsage << "\n";
    return 2;
  }
  if (flags.Has("seek-ts")) {
    out << "error: --seek-ts only applies to replay\n";
    return 1;
  }
  StreamInput in;
  const auto ds = Loaded(LoadTelFile(flags.positional()[0], &in.header), out);
  if (!ds) return 1;
  // A loaded dataset holds the arrivals only (x records are validated and
  // dropped), so its expirations derive from the window.
  in.header.explicit_expiry = false;
  DatasetEventSource events(*ds);
  in.name = ds->name;
  in.schema = GraphSchema{ds->directed, ds->vertex_labels};
  in.events = &events;
  return MatchQueries(flags, in, out);
}

int CmdReplay(const Args& args, std::ostream& out) {
  const FlagSet flags(args);
  if (flags.positional().size() < 2) {
    out << "usage: tcsm replay <stream.tel|-> <query-file>... "
        << kMatchFlagsUsage << " [--seek-ts=T]\n";
    return 2;
  }
  std::ifstream file;
  const auto reader =
      OpenStream(flags.positional()[0], "streaming replay", &file, out);
  if (reader == nullptr) return 1;
  if (flags.Has("seek-ts")) {
    // O(1) reposition off the binary index footer: replay then delivers
    // exactly the suffix of the full replay's event schedule (matches
    // included, once the window has refilled past the gap).
    const Status s = reader->SeekToTimestamp(flags.GetInt("seek-ts", 0));
    if (!s.ok()) {
      out << "error: " << s.ToString() << "\n";
      return 1;
    }
  }
  ReaderEventSource events(reader.get());
  return MatchQueries(flags,
                      StreamInput{reader->source(), reader->header(),
                                  reader->schema(), &events},
                      out);
}

int CmdSnapshot(const Args& args, std::ostream& out) {
  const FlagSet flags(args);
  if (flags.positional().size() != 2) {
    out << "usage: tcsm snapshot <stream.tel> <query-file> [--window=w] "
           "[--limit_ms=T] [--print]\n";
    return 2;
  }
  if (RejectObsFlags(flags, "snapshot", out)) return 2;
  const auto ds = Loaded(LoadTelFile(flags.positional()[0]), out);
  if (!ds) return 1;
  const auto q = Loaded(LoadQueryFile(flags.positional()[1]), out);
  if (!q) return 1;
  SnapshotOptions opt;
  opt.window = flags.GetInt("window", 0);
  opt.time_limit_ms = flags.GetDouble("limit_ms", 0);
  if (flags.Has("print")) {
    const SnapshotResult res = FindAllMatches(*ds, *q, opt);
    for (const Embedding& m : res.matches) {
      StreamPrintSink(out).OnMatch(m, MatchKind::kOccurred, 1);
    }
    out << res.matches.size() << " matches"
        << (res.completed ? "" : " (INCOMPLETE)") << "\n";
    return res.completed ? 0 : 3;
  }
  const SnapshotCount res = CountAllMatches(*ds, *q, opt);
  out << res.matches << " matches"
      << (res.completed ? "" : " (INCOMPLETE)") << "\n";
  return res.completed ? 0 : 3;
}

int Main(int argc, char** argv, std::ostream& out, std::ostream& err) {
  const auto usage = [&err]() {
    err << "tcsm — time-constrained continuous subgraph matching\n"
           "subcommands:\n"
           "  stats      dataset characteristics\n"
           "  gen        synthesize a stream as a .tel file (or stdout)\n"
           "  convert    re-frame a .tel stream (text <-> binary v2), or "
           "turn a legacy edge list into one\n"
           "  gen-query  extract a temporal query by random walk\n"
           "  run        continuous matching over a stream loaded into "
           "memory\n"
           "  replay     continuous matching read off a file or stdin\n"
           "  snapshot   one-shot matching over the full graph\n";
    return 2;
  };
  if (argc < 2) return usage();
  const std::string cmd = argv[1];
  Args rest;
  for (int i = 2; i < argc; ++i) rest.emplace_back(argv[i]);
  try {
    if (cmd == "stats") return CmdStats(rest, out);
    if (cmd == "gen") return CmdGen(rest, out);
    if (cmd == "convert") return CmdConvert(rest, out);
    if (cmd == "gen-query") return CmdGenQuery(rest, out);
    if (cmd == "run") return CmdRun(rest, out);
    if (cmd == "replay") return CmdReplay(rest, out);
    if (cmd == "snapshot") return CmdSnapshot(rest, out);
  } catch (const FlagError& e) {
    out << "error: " << e.what() << "\n";
    return 2;
  }
  return usage();
}

}  // namespace tcsm::cli
