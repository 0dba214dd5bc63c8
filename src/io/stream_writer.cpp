#include "io/stream_writer.h"

#include <fstream>
#include <ostream>

#include "io/tel_binary.h"

namespace tcsm {

StreamWriter::StreamWriter(std::ostream& out) : out_(out) {}

StreamWriter::~StreamWriter() = default;

Status StreamWriter::BeginStream(bool directed,
                                 const std::vector<Label>& vertex_labels,
                                 const TelWriteOptions& options) {
  if (begun_) return Status::InvalidArgument("stream already begun");
  if (options.explicit_expiry && options.window <= 0) {
    // A header window is what documents the schedule the x records were
    // derived from; require it so explicit files stay self-describing.
    return Status::InvalidArgument(
        "explicit-expiry streams require a positive window");
  }
  if (options.window > kMaxStreamTimestamp) {
    return Status::InvalidArgument("window too large (must stay below 2^61)");
  }
  if (options.binary) {
    auto binary = std::make_unique<BinaryTelWriter>(out_);
    const Status s = binary->Begin(directed, vertex_labels, options.window,
                                   options.explicit_expiry,
                                   options.varint_timestamps,
                                   options.block_records,
                                   options.all_vertex_labels);
    if (!s.ok()) return s;
    binary_ = std::move(binary);
    begun_ = true;
    explicit_expiry_ = options.explicit_expiry;
    num_vertices_ = vertex_labels.size();
    return Status::Ok();
  }
  begun_ = true;
  explicit_expiry_ = options.explicit_expiry;
  num_vertices_ = vertex_labels.size();
  out_ << kTelMagic << ' ' << kTelVersion << ' '
       << (directed ? "directed" : "undirected")
       << " vertices=" << vertex_labels.size();
  if (options.window > 0) out_ << " window=" << options.window;
  if (options.explicit_expiry) out_ << " expiry=explicit";
  out_ << '\n';
  for (size_t v = 0; v < vertex_labels.size(); ++v) {
    if (options.all_vertex_labels || vertex_labels[v] != 0) {
      out_ << "v " << v << ' ' << vertex_labels[v] << '\n';
    }
  }
  return Status::Ok();
}

Status StreamWriter::RecordArrival(const TemporalEdge& edge) {
  if (!begun_) return Status::InvalidArgument("BeginStream not called");
  if (edge.src == edge.dst) {
    return Status::InvalidArgument("self loop cannot be recorded");
  }
  if (edge.src >= num_vertices_ || edge.dst >= num_vertices_) {
    return Status::InvalidArgument(
        "edge endpoint outside the declared vertex universe");
  }
  if (edge.ts < -kMaxStreamTimestamp || edge.ts > kMaxStreamTimestamp) {
    return Status::InvalidArgument(
        "timestamp out of the recordable range (|ts| below 2^61)");
  }
  if (edge.ts < last_ts_) {
    return Status::InvalidArgument(
        "arrival timestamps must be non-decreasing");
  }
  last_ts_ = edge.ts;
  if (binary_ != nullptr) {
    binary_->AddArrival(edge);
  } else {
    out_ << "e " << edge.src << ' ' << edge.dst << ' ' << edge.ts;
    if (edge.label != 0) out_ << ' ' << edge.label;
    out_ << '\n';
  }
  ++arrivals_;
  return Status::Ok();
}

Status StreamWriter::RecordExpiry(Timestamp ts) {
  if (!begun_) return Status::InvalidArgument("BeginStream not called");
  if (!explicit_expiry_) {
    return Status::InvalidArgument(
        "expiry records require explicit-expiry mode");
  }
  if (expiries_ >= arrivals_) {
    return Status::InvalidArgument("expiry with no live edge");
  }
  if (ts < -kMaxStreamTimestamp || ts > kMaxStreamTimestamp) {
    // Keeps the one file-level rule (every recorded timestamp parses
    // back); reachable only with arrivals near the 2^61 cap plus a huge
    // window, where refusing beats writing a file the reader rejects.
    return Status::InvalidArgument(
        "timestamp out of the recordable range (|ts| below 2^61)");
  }
  if (ts < last_ts_) {
    return Status::InvalidArgument(
        "expiry timestamps must be non-decreasing");
  }
  last_ts_ = ts;
  if (binary_ != nullptr) {
    binary_->AddExpiry(ts);
  } else {
    out_ << "x " << ts << '\n';
  }
  ++expiries_;
  return Status::Ok();
}

Status StreamWriter::Finish() {
  if (binary_ != nullptr) return binary_->Finish();
  out_.flush();
  if (!out_) return Status::InvalidArgument("stream write failed");
  return Status::Ok();
}

Status WriteTel(const TemporalDataset& dataset,
                const TelWriteOptions& options, std::ostream& out) {
  StreamWriter writer(out);
  Status s = writer.BeginStream(dataset.directed, dataset.vertex_labels,
                                options);
  if (!s.ok()) return s;
  if (!options.explicit_expiry) {
    for (const TemporalEdge& e : dataset.edges) {
      s = writer.RecordArrival(e);
      if (!s.ok()) return s;
    }
    return writer.Finish();
  }
  // Materialize the replay schedule (expirations before arrivals on
  // equal timestamps — the tie rule of Example II.2 / RunStream).
  const size_t n = dataset.edges.size();
  size_t arr = 0;
  size_t exp = 0;
  while (arr < n || exp < arr) {
    const bool do_expire =
        exp < arr &&
        (arr >= n || dataset.edges[exp].ts + options.window <=
                         dataset.edges[arr].ts);
    if (do_expire) {
      s = writer.RecordExpiry(dataset.edges[exp].ts + options.window);
      ++exp;
    } else {
      s = writer.RecordArrival(dataset.edges[arr]);
      ++arr;
    }
    if (!s.ok()) return s;
  }
  return writer.Finish();
}

Status SaveTelFile(const TemporalDataset& dataset,
                   const TelWriteOptions& options, const std::string& path) {
  std::ofstream out(path, std::ios::binary);
  if (!out) return Status::InvalidArgument("cannot write " + path);
  return WriteTel(dataset, options, out);
}

}  // namespace tcsm
