#include "query/query_io.h"

#include <fstream>
#include <limits>
#include <sstream>

#include "io/tel_format.h"

namespace tcsm {

StatusOr<QueryGraph> ParseQuery(std::istream& in) {
  std::string line;
  size_t lineno = 0;
  bool have_header = false;
  size_t want_v = 0, want_e = 0;
  QueryGraph query;
  auto fail = [&](const std::string& what) {
    return Status::CorruptInput(what + " at line " + std::to_string(lineno));
  };
  while (std::getline(in, line)) {
    ++lineno;
    // Strip trailing comments.
    const size_t hash = line.find('#');
    if (hash != std::string::npos) line.resize(hash);
    std::istringstream ls(line);
    std::string tag;
    if (!(ls >> tag)) continue;
    if (tag == "t") {
      std::string mode;
      if (!(ls >> want_v >> want_e)) return fail("bad header");
      ls >> mode;
      query = QueryGraph(mode == "directed");
      have_header = true;
    } else if (tag == "v") {
      if (!have_header) return fail("vertex before header");
      int64_t id, label;
      if (!(ls >> id >> label)) return fail("bad vertex");
      if (static_cast<size_t>(id) != query.NumVertices()) {
        return fail("vertex ids must be dense and in order");
      }
      query.AddVertex(static_cast<Label>(label));
    } else if (tag == "e") {
      if (!have_header) return fail("edge before header");
      int64_t id, u, v, elabel = 0;
      if (!(ls >> id >> u >> v)) return fail("bad edge");
      ls >> elabel;
      if (static_cast<size_t>(id) != query.NumEdges()) {
        return fail("edge ids must be dense and in order");
      }
      if (static_cast<size_t>(u) >= query.NumVertices() ||
          static_cast<size_t>(v) >= query.NumVertices()) {
        return fail("edge endpoint out of range");
      }
      query.AddEdge(static_cast<VertexId>(u), static_cast<VertexId>(v),
                    static_cast<Label>(elabel));
    } else if (tag == "o") {
      int64_t a, b;
      if (!(ls >> a >> b)) return fail("bad order");
      if (a < 0 || b < 0) return fail("order references unknown edge");
      const Status s = query.AddOrder(static_cast<EdgeId>(a),
                                      static_cast<EdgeId>(b));
      if (!s.ok()) return fail(s.message());
    } else if (tag == "g") {
      if (!have_header) return fail("gap before header");
      int64_t a, b, min_gap, max_gap;
      if (!(ls >> a >> b >> min_gap >> max_gap)) return fail("bad gap");
      if (a < 0 || b < 0) return fail("gap references unknown edge");
      const Status s =
          query.AddGap(static_cast<EdgeId>(a), static_cast<EdgeId>(b),
                       min_gap, max_gap);
      if (!s.ok()) return fail(s.message());
    } else if (tag == "n") {
      if (!have_header) return fail("absence before header");
      int64_t u, v, label, delta;
      if (!(ls >> u >> v >> label >> delta)) return fail("bad absence");
      if (u < 0 || v < 0) return fail("absence references unknown vertex");
      if (label < 0 ||
          label > static_cast<int64_t>(std::numeric_limits<Label>::max())) {
        return fail("absence references undeclared label");
      }
      const Status s =
          query.AddAbsence(static_cast<VertexId>(u), static_cast<VertexId>(v),
                           static_cast<Label>(label), delta);
      if (!s.ok()) return fail(s.message());
    } else if (tag == "w") {
      if (!have_header) return fail("window before header");
      Timestamp w = 0;
      // Same bound as the .tel format: ts + window must never overflow,
      // and run/replay feed this hint straight into that sum.
      if (!(ls >> w) || w <= 0 || w > kMaxStreamTimestamp) {
        return fail("bad window (must be a positive integer below 2^61)");
      }
      if (query.window_hint() != 0) return fail("duplicate window record");
      query.set_window_hint(w);
    } else {
      return fail("unknown tag '" + tag + "'");
    }
  }
  if (!have_header) return Status::CorruptInput("missing query header");
  if (query.NumVertices() != want_v || query.NumEdges() != want_e) {
    return Status::CorruptInput("header counts do not match body");
  }
  const Status s = query.Validate();
  if (!s.ok()) return s;
  return query;
}

StatusOr<QueryGraph> ParseQueryString(const std::string& text) {
  std::istringstream in(text);
  return ParseQuery(in);
}

StatusOr<QueryGraph> LoadQueryFile(const std::string& path) {
  std::ifstream in(path);
  if (!in) return Status::NotFound("cannot open " + path);
  return ParseQuery(in);
}

std::string SerializeQuery(const QueryGraph& query) {
  std::ostringstream os;
  os << "t " << query.NumVertices() << ' ' << query.NumEdges()
     << (query.directed() ? " directed" : " undirected") << '\n';
  if (query.window_hint() > 0) os << "w " << query.window_hint() << '\n';
  for (size_t v = 0; v < query.NumVertices(); ++v) {
    os << "v " << v << ' ' << query.VertexLabel(static_cast<VertexId>(v))
       << '\n';
  }
  for (size_t e = 0; e < query.NumEdges(); ++e) {
    const QueryEdge& qe = query.Edge(static_cast<EdgeId>(e));
    os << "e " << e << ' ' << qe.u << ' ' << qe.v << ' ' << qe.elabel << '\n';
  }
  // Export the declared pairs; the closure is reconstructed on load. Pairs
  // implied by a gap with min >= 1 are skipped — reparsing the g record
  // re-declares them, so emitting both would not round-trip.
  for (size_t a = 0; a < query.NumEdges(); ++a) {
    for (uint32_t b : BitRange(query.DeclaredAfter(static_cast<EdgeId>(a)))) {
      bool implied_by_gap = false;
      for (const GapConstraint& gc : query.gaps()) {
        if (gc.e1 == a && gc.e2 == b && gc.min_gap >= 1) {
          implied_by_gap = true;
          break;
        }
      }
      if (!implied_by_gap) os << "o " << a << ' ' << b << '\n';
    }
  }
  for (const GapConstraint& gc : query.gaps()) {
    os << "g " << gc.e1 << ' ' << gc.e2 << ' ' << gc.min_gap << ' '
       << gc.max_gap << '\n';
  }
  for (const AbsencePredicate& p : query.absences()) {
    os << "n " << p.u << ' ' << p.v << ' ' << p.label << ' ' << p.delta
       << '\n';
  }
  return os.str();
}

Status SaveQueryFile(const QueryGraph& query, const std::string& path) {
  std::ofstream out(path);
  if (!out) return Status::InvalidArgument("cannot write " + path);
  out << SerializeQuery(query);
  return Status::Ok();
}

}  // namespace tcsm
