// Multi-pattern network monitoring: one traffic stream, several attack
// patterns watched simultaneously (the Verizon report the paper cites
// finds ~10 recurring attack shapes). Demonstrates MultiQueryEngine for
// fan-out — spread across a worker pool via its num_threads knob, with
// deterministic alert order — and CanonicalSink semantics via
// interchangeable zombies.
//
// Patterns monitored:
//   0. DDoS star (Figure 1): attacker -> zombies -> victim, command
//      before attack per zombie.
//   1. Lateral movement chain: a -> b -> c -> d with strictly increasing
//      hop times (an intruder moving through hosts).
//   2. Beacon-and-exfiltrate: infected host beacons a C2 server twice,
//      then pushes data to a drop host, all in time order.
//
// Run with no arguments to synthesize traffic with one injected instance
// of each pattern; pass a `.tel` stream file (docs/FILE_FORMATS.md, e.g.
// from `tcsm gen` or a recorded capture) to monitor that traffic instead.
#include <algorithm>
#include <iostream>
#include <map>
#include <thread>

#include "core/multi_engine.h"
#include "core/stream_driver.h"
#include "datasets/synthetic.h"
#include "io/stream_reader.h"

using namespace tcsm;

namespace {

class AlertSink : public MultiMatchSink {
 public:
  explicit AlertSink(std::vector<std::string> names)
      : names_(std::move(names)) {}

  void OnMatch(size_t query_index, const Embedding& m, MatchKind kind,
               uint64_t) override {
    if (kind != MatchKind::kOccurred) return;
    ++counts_[query_index];
    if (counts_[query_index] <= 3) {  // don't flood the console
      std::cout << "  ALERT [" << names_[query_index] << "] hosts:";
      for (const VertexId v : m.vertices) std::cout << " " << v;
      std::cout << "\n";
    }
  }

  const std::map<size_t, uint64_t>& counts() const { return counts_; }

 private:
  std::vector<std::string> names_;
  std::map<size_t, uint64_t> counts_;
};

QueryGraph DdosStar(size_t zombies) {
  QueryGraph q(/*directed=*/true);
  const VertexId attacker = q.AddVertex(0);
  const VertexId victim = q.AddVertex(0);
  for (size_t i = 0; i < zombies; ++i) {
    const VertexId z = q.AddVertex(0);
    const EdgeId cmd = q.AddEdge(attacker, z);
    const EdgeId atk = q.AddEdge(z, victim);
    (void)q.AddOrder(cmd, atk);
  }
  return q;
}

QueryGraph LateralChain() {
  QueryGraph q(/*directed=*/true);
  for (int i = 0; i < 4; ++i) q.AddVertex(0);
  const EdgeId h1 = q.AddEdge(0, 1);
  const EdgeId h2 = q.AddEdge(1, 2);
  const EdgeId h3 = q.AddEdge(2, 3);
  (void)q.AddOrder(h1, h2);
  (void)q.AddOrder(h2, h3);
  return q;
}

QueryGraph BeaconExfil() {
  QueryGraph q(/*directed=*/true);
  const VertexId infected = q.AddVertex(0);
  const VertexId c2 = q.AddVertex(0);
  const VertexId drop = q.AddVertex(0);
  const EdgeId beacon1 = q.AddEdge(infected, c2);
  const EdgeId reply = q.AddEdge(c2, infected);
  const EdgeId exfil = q.AddEdge(infected, drop);
  (void)q.AddOrder(beacon1, reply);
  (void)q.AddOrder(reply, exfil);
  return q;
}

}  // namespace

int main(int argc, char** argv) {
  TemporalDataset ds;
  Timestamp window = 400;
  const bool from_file = argc > 1;
  if (from_file) {
    // Monitor a recorded stream instead of synthetic traffic.
    TelHeader header;
    auto loaded = LoadTelFile(argv[1], &header);
    if (!loaded.ok()) {
      std::cerr << "error: " << loaded.status().ToString() << "\n";
      return 1;
    }
    ds = std::move(loaded).value();
    if (!ds.directed) {
      std::cerr << "error: " << argv[1]
                << ": the attack patterns are directed; record the "
                   "stream as a directed .tel\n";
      return 1;
    }
    if (header.window <= 0) {
      // The synthetic default (400) is calibrated for rank-normalized
      // timestamps; on a real capture's raw clock it would silently
      // match nothing. Make the missing parameter loud instead.
      std::cerr << "error: " << argv[1]
                << ": no window= recorded in the header; re-export the "
                   "stream with a window (e.g. tcsm gen --window=D)\n";
      return 1;
    }
    window = header.window;
  } else {
    SyntheticSpec spec;
    spec.name = "traffic";
    spec.num_vertices = 1200;
    spec.num_edges = 5000;
    spec.num_vertex_labels = 1;
    spec.avg_parallel_edges = 1.2;
    spec.directed = true;
    spec.seed = 4242;
    ds = GenerateSynthetic(spec);

    // Inject one instance of each pattern.
    auto add = [&](VertexId s, VertexId d, Timestamp t) {
      TemporalEdge e;
      e.src = s;
      e.dst = d;
      e.ts = t;
      ds.edges.push_back(e);
    };
    // DDoS: attacker 5 -> zombies 60,61 -> victim 90.
    add(5, 60, 2000);
    add(5, 61, 2010);
    add(60, 90, 2100);
    add(61, 90, 2110);
    // Lateral movement: 10 -> 11 -> 12 -> 13.
    add(10, 11, 3000);
    add(11, 12, 3050);
    add(12, 13, 3100);
    // Beaconing: 20 <-> 30 then exfil to 40.
    add(20, 30, 4000);
    add(30, 20, 4040);
    add(20, 40, 4080);
    ds.RankTimestamps();
  }

  const std::vector<std::string> names = {"ddos-star", "lateral-movement",
                                          "beacon-exfil"};
  const std::vector<QueryGraph> patterns = {DdosStar(2), LateralChain(),
                                            BeaconExfil()};
  // Spread the per-pattern matching work of each event across a worker
  // pool (one engine is never split, so more threads than patterns is
  // pointless). The alert stream is merged deterministically — this
  // program prints byte-identical output at any thread count, including
  // the serial num_threads=1 (DESIGN.md §6).
  const size_t num_threads = std::min<size_t>(
      patterns.size(), std::max<size_t>(1, std::thread::hardware_concurrency()));
  MultiQueryEngine engine(patterns, GraphSchema{true, ds.vertex_labels},
                          TcmConfig{}, num_threads);
  AlertSink sink(names);
  engine.set_multi_sink(&sink);

  StreamConfig config;
  config.window = window;
  std::cout << "Monitoring " << patterns.size() << " patterns over "
            << ds.NumEdges() << " flows (" << num_threads << " threads)...\n";
  const StreamResult res = RunStream(ds, config, &engine);

  std::cout << "\nProcessed " << res.events << " events in "
            << res.elapsed_ms << " ms (" << res.occurred
            << " total pattern matches)\n";
  bool all_found = true;
  for (size_t i = 0; i < patterns.size(); ++i) {
    const auto it = sink.counts().find(i);
    const uint64_t n = it == sink.counts().end() ? 0 : it->second;
    std::cout << "  " << names[i] << ": " << n << " match(es)\n";
    all_found = all_found && n > 0;
  }
  if (from_file) return 0;  // nothing was injected; counts are the report
  std::cout << (all_found ? "All injected incidents detected.\n"
                          : "ERROR: some injected incidents were missed!\n");
  return all_found ? 0 : 1;
}
