#include <gtest/gtest.h>

#include <cctype>
#include <cstdio>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "cli/commands.h"
#include "io/stream_reader.h"

namespace tcsm::cli {
namespace {

std::string TmpPath(const std::string& name) {
  return ::testing::TempDir() + "/" + name;
}

/// The match lines of a --print report: `+ ...` / `- ...`, or
/// `q<i> + ...` with several query files.
std::string MatchLines(const std::string& s) {
  std::string lines;
  std::istringstream in(s);
  std::string line;
  while (std::getline(in, line)) {
    const bool tagged = line.size() > 1 && line[0] == 'q' &&
                        std::isdigit(static_cast<unsigned char>(line[1]));
    if (tagged || (!line.empty() && (line[0] == '+' || line[0] == '-'))) {
      lines += line + "\n";
    }
  }
  return lines;
}

TEST(Cli, GenStatsRoundTrip) {
  const std::string tel = TmpPath("cli_data.tel");
  std::ostringstream out;
  ASSERT_EQ(CmdGen({"random", tel, "--vertices=50", "--edges=400",
                    "--vlabels=3", "--seed=5"},
                   out),
            0)
      << out.str();
  EXPECT_NE(out.str().find("wrote 400 edges"), std::string::npos);

  std::ostringstream stats;
  ASSERT_EQ(CmdStats({tel}, stats), 0);
  EXPECT_NE(stats.str().find("400"), std::string::npos);
  std::remove(tel.c_str());
}

TEST(Cli, GenPresets) {
  const std::string tel = TmpPath("cli_preset.tel");
  std::ostringstream out;
  ASSERT_EQ(CmdGen({"lsbench", tel, "--scale=0.05"}, out), 0);
  std::ostringstream bad;
  EXPECT_NE(CmdGen({"not-a-preset", tel}, bad), 0);
  EXPECT_NE(bad.str().find("unknown preset"), std::string::npos);
  std::remove(tel.c_str());
}

TEST(Cli, FullPipelineRunAndSnapshot) {
  const std::string tel = TmpPath("cli_pipe.tel");
  const std::string query = TmpPath("cli_pipe.query");
  std::ostringstream out;
  ASSERT_EQ(CmdGen({"random", tel, "--vertices=40", "--edges=500",
                    "--vlabels=2", "--parallel=2", "--seed=9"},
                   out),
            0);
  std::ostringstream qout;
  ASSERT_EQ(CmdGenQuery({tel, query, "--size=3", "--density=1",
                         "--window=200", "--seed=4"},
                        qout),
            0)
      << qout.str();

  std::ostringstream run;
  ASSERT_EQ(CmdRun({tel, query, "--window=200"}, run), 0) << run.str();
  EXPECT_NE(run.str().find("engine=TCM"), std::string::npos);
  EXPECT_NE(run.str().find("threads=1"), std::string::npos);
  EXPECT_NE(run.str().find("occurred="), std::string::npos);

  // --threads routes through the parallel context, is echoed in the run
  // header (with a note that a single-engine run cannot go faster), and
  // changes nothing about the reported match counts.
  std::ostringstream par;
  ASSERT_EQ(CmdRun({tel, query, "--window=200", "--threads=4"}, par), 0)
      << par.str();
  EXPECT_NE(par.str().find("threads=4"), std::string::npos);
  EXPECT_NE(par.str().find("note: one query attaches a single engine"),
            std::string::npos);
  const auto counts = [](const std::string& s) {
    const size_t begin = s.find("occurred=");
    return s.substr(begin, s.find(" elapsed_ms=") - begin);
  };
  EXPECT_EQ(counts(par.str()), counts(run.str()));

  // All engines accept the same pipeline.
  for (const std::string engine : {"timing", "symbi", "local"}) {
    std::ostringstream eout;
    ASSERT_EQ(CmdRun({tel, query, "--window=200", "--engine=" + engine},
                     eout),
              0)
        << engine << ": " << eout.str();
  }

  // run is replay over an in-memory source: several queries and --json
  // come with it.
  std::ostringstream multi;
  ASSERT_EQ(CmdRun({tel, query, query, "--json"}, multi), 0) << multi.str();
  EXPECT_EQ(multi.str().rfind("{\"stream\":", 0), 0u) << multi.str();
  EXPECT_NE(multi.str().find("\"queries\":[{"), std::string::npos);

  std::ostringstream snap;
  ASSERT_EQ(CmdSnapshot({tel, query}, snap), 0);
  EXPECT_NE(snap.str().find("matches"), std::string::npos);

  std::remove(tel.c_str());
  std::remove(query.c_str());
}

TEST(Cli, RunPrintsMatches) {
  const std::string tel = TmpPath("cli_print.tel");
  const std::string query = TmpPath("cli_print.query");
  std::ostringstream out;
  ASSERT_EQ(CmdGen({"random", tel, "--vertices=10", "--edges=60",
                    "--seed=3"},
                   out),
            0);
  ASSERT_EQ(CmdGenQuery({tel, query, "--size=2", "--density=0",
                         "--window=30"},
                        out),
            0);
  std::ostringstream run;
  ASSERT_EQ(CmdRun({tel, query, "--window=30", "--print"}, run), 0);
  EXPECT_NE(run.str().find("u0:"), std::string::npos);
  std::remove(tel.c_str());
  std::remove(query.c_str());
}

TEST(Cli, GenTelAndReplay) {
  const std::string tel = TmpPath("cli_gen.tel");
  const std::string query = TmpPath("cli_gen.tq");
  std::ostringstream out;
  ASSERT_EQ(CmdGen({"random", tel, "--vertices=40", "--edges=500",
                    "--vlabels=2", "--parallel=2", "--seed=9",
                    "--window=200"},
                   out),
            0)
      << out.str();
  EXPECT_NE(out.str().find("wrote 500 edges"), std::string::npos);

  // .tel files are sniffed by every dataset-consuming subcommand:
  // stats, gen-query (which records the window in the query file)...
  std::ostringstream stats;
  ASSERT_EQ(CmdStats({tel}, stats), 0) << stats.str();
  EXPECT_NE(stats.str().find("500"), std::string::npos);
  std::ostringstream qout;
  ASSERT_EQ(CmdGenQuery({tel, query, "--size=3", "--density=1",
                         "--seed=4", "--window=200"},
                        qout),
            0)
      << qout.str();

  // ...and run, which takes its window from the query's w record here.
  std::ostringstream run;
  ASSERT_EQ(CmdRun({tel, query, "--print"}, run), 0) << run.str();

  // replay must report the same matches in the same order as run.
  std::ostringstream replay;
  ASSERT_EQ(CmdReplay({tel, query, "--print"}, replay), 0) << replay.str();
  EXPECT_EQ(MatchLines(replay.str()), MatchLines(run.str()));
  EXPECT_NE(MatchLines(run.str()), "");

  // Several query files fan out across threads; summary is per query.
  std::ostringstream multi;
  ASSERT_EQ(CmdReplay({tel, query, query, "--threads=2"}, multi), 0)
      << multi.str();
  EXPECT_NE(multi.str().find("threads=2"), std::string::npos);
  EXPECT_NE(multi.str().find("q1"), std::string::npos);

  // --json emits one machine-readable line — and stays pure JSON even
  // with flags that otherwise print advisory lines first.
  std::ostringstream json;
  ASSERT_EQ(CmdReplay({tel, query, "--json"}, json), 0) << json.str();
  EXPECT_EQ(json.str().rfind("{\"stream\":", 0), 0u);
  EXPECT_NE(json.str().find("\"completed\":true"), std::string::npos);
  std::ostringstream json2;
  ASSERT_EQ(CmdReplay({tel, query, "--json", "--canonical", "--threads=4"},
                      json2),
            0);
  EXPECT_EQ(json2.str().rfind("{\"stream\":", 0), 0u) << json2.str();
  std::ostringstream json3;
  ASSERT_EQ(CmdReplay({tel, query, query, "--json", "--threads=2"}, json3),
            0);
  EXPECT_EQ(json3.str().rfind("{\"stream\":", 0), 0u) << json3.str();
  EXPECT_NE(json3.str().find("\"threads\":2"), std::string::npos);

  // --max-events caps the arrivals but still expires what arrived.
  std::ostringstream capped;
  ASSERT_EQ(CmdReplay({tel, query, "--max-events=100"}, capped), 0);
  EXPECT_NE(capped.str().find("events=200"), std::string::npos)
      << capped.str();

  // --canonical works without --print (as in run): group size reported.
  std::ostringstream canon;
  ASSERT_EQ(CmdReplay({tel, query, "--canonical"}, canon), 0);
  EXPECT_NE(canon.str().find("automorphism group size"), std::string::npos);

  // Query files recording different windows must not be silently run at
  // the first file's window.
  const std::string query2 = TmpPath("cli_gen2.tq");
  ASSERT_EQ(CmdGenQuery({tel, query2, "--size=3", "--density=1",
                         "--seed=4", "--window=150"},
                        out),
            0);
  std::ostringstream conflict;
  EXPECT_EQ(CmdReplay({tel, query, query2}, conflict), 1);
  EXPECT_NE(conflict.str().find("disagree"), std::string::npos);
  std::ostringstream forced;
  EXPECT_EQ(CmdReplay({tel, query, query2, "--window=200"}, forced), 0);

  std::remove(tel.c_str());
  std::remove(query.c_str());
  std::remove(query2.c_str());
}

std::string Slurp(const std::string& path) {
  std::ifstream f(path, std::ios::binary);
  std::ostringstream ss;
  ss << f.rdbuf();
  return ss.str();
}

TEST(Cli, ThreadedReplayOfExplicitExpiryPrintsEveryMatch) {
  // Coalesced arrivals of two queries go through the pooled pipeline,
  // which puts buffers in front of the engines' sinks; the explicit x
  // records then expire one edge per call. Every match reported there
  // must still reach the output, in the serial order.
  const std::string tel = TmpPath("cli_par_x.tel");
  const std::string query = TmpPath("cli_par_x.tq");
  const std::string query2 = TmpPath("cli_par_x2.tq");
  std::ostringstream out;
  ASSERT_EQ(CmdGen({"random", tel, "--vertices=60", "--edges=600",
                    "--vlabels=2", "--coalesce=4", "--seed=5",
                    "--window=100", "--expiry=explicit"},
                   out),
            0)
      << out.str();
  ASSERT_EQ(CmdGenQuery({tel, query, "--size=2", "--seed=3"}, out), 0)
      << out.str();
  ASSERT_EQ(CmdGenQuery({tel, query2, "--size=2", "--seed=4"}, out), 0)
      << out.str();
  std::ostringstream serial;
  ASSERT_EQ(CmdReplay({tel, query, query2, "--print"}, serial), 0)
      << serial.str();
  std::ostringstream threaded;
  ASSERT_EQ(CmdReplay({tel, query, query2, "--print", "--threads=2"},
                      threaded),
            0)
      << threaded.str();
  EXPECT_NE(threaded.str().find("threads=2"), std::string::npos);
  EXPECT_NE(MatchLines(serial.str()), "");
  EXPECT_EQ(MatchLines(threaded.str()), MatchLines(serial.str()));
  for (const std::string& f : {tel, query, query2}) std::remove(f.c_str());
}

TEST(Cli, ConvertAndBinaryReplay) {
  const std::string text_tel = TmpPath("cli_cv.tel");
  const std::string bin_tel = TmpPath("cli_cv_bin.tel");
  const std::string cv_bin = TmpPath("cli_cv_cv.tel");
  const std::string cv_text = TmpPath("cli_cv_back.tel");
  const std::string query = TmpPath("cli_cv.tq");
  const Args gen_common = {"random", "--vertices=30", "--edges=200",
                           "--vlabels=2", "--seed=11", "--window=60"};
  std::ostringstream out;
  Args gen_text = gen_common;
  gen_text.insert(gen_text.begin() + 1, text_tel);
  ASSERT_EQ(CmdGen(gen_text, out), 0) << out.str();
  Args gen_bin = gen_common;
  gen_bin.insert(gen_bin.begin() + 1, bin_tel);
  gen_bin.push_back("--format=binary");
  ASSERT_EQ(CmdGen(gen_bin, out), 0) << out.str();
  ASSERT_EQ(CmdGenQuery({text_tel, query, "--size=3", "--density=1",
                         "--seed=4", "--window=60"},
                        out),
            0)
      << out.str();

  // convert defaults to the opposite framing; text -> binary must be
  // byte-identical to generating binary directly.
  std::ostringstream cv1;
  ASSERT_EQ(CmdConvert({text_tel, cv_bin}, cv1), 0) << cv1.str();
  EXPECT_NE(cv1.str().find("converted 200 records"), std::string::npos);
  EXPECT_NE(cv1.str().find("(text -> binary)"), std::string::npos);
  EXPECT_EQ(Slurp(cv_bin), Slurp(bin_tel));

  // ...and binary -> text must restore the original file exactly.
  std::ostringstream cv2;
  ASSERT_EQ(CmdConvert({cv_bin, cv_text}, cv2), 0) << cv2.str();
  EXPECT_NE(cv2.str().find("(binary -> text)"), std::string::npos);
  EXPECT_EQ(Slurp(cv_text), Slurp(text_tel));

  // The replayed match stream is framing-independent.
  std::ostringstream text_replay, bin_replay;
  ASSERT_EQ(CmdReplay({text_tel, query, "--print"}, text_replay), 0);
  ASSERT_EQ(CmdReplay({bin_tel, query, "--print"}, bin_replay), 0);
  EXPECT_NE(MatchLines(text_replay.str()), "");
  EXPECT_EQ(MatchLines(bin_replay.str()), MatchLines(text_replay.str()));

  // Flag validation.
  std::ostringstream e1;
  EXPECT_EQ(CmdConvert({text_tel, cv_bin, "--format=msgpack"}, e1), 1);
  EXPECT_NE(e1.str().find("bad --format"), std::string::npos);
  std::ostringstream e2;
  EXPECT_EQ(CmdConvert({bin_tel, cv_text, "--varint=off"}, e2), 1);
  std::ostringstream e3;
  EXPECT_EQ(CmdConvert({text_tel, cv_bin, "--varint=maybe"}, e3), 1);
  EXPECT_NE(e3.str().find("bad --varint"), std::string::npos);
  std::ostringstream e4;
  EXPECT_EQ(CmdConvert({text_tel, cv_bin, "--block-records=0"}, e4), 1);
  std::ostringstream e5;
  EXPECT_EQ(CmdConvert({text_tel}, e5), 2);  // usage: two positionals

  std::remove(text_tel.c_str());
  std::remove(bin_tel.c_str());
  std::remove(cv_bin.c_str());
  std::remove(cv_text.c_str());
  std::remove(query.c_str());
}

TEST(Cli, ReplaySeekAndFlightRecorder) {
  const std::string tel = TmpPath("cli_seek.tel");
  const std::string text_tel = TmpPath("cli_seek_text.tel");
  const std::string query = TmpPath("cli_seek.tq");
  const std::string dump = TmpPath("cli_seek_dump.tel");
  std::ostringstream out;
  ASSERT_EQ(CmdGen({"random", tel, "--vertices=30", "--edges=200",
                    "--vlabels=2", "--seed=11", "--window=60",
                    "--format=binary", "--block-records=16"},
                   out),
            0)
      << out.str();
  ASSERT_EQ(CmdGenQuery({tel, query, "--size=3", "--density=1", "--seed=4",
                         "--window=60"},
                        out),
            0)
      << out.str();

  // Seeking to before the stream replays the whole stream.
  std::ostringstream full, seek0;
  ASSERT_EQ(CmdReplay({tel, query, "--print"}, full), 0);
  ASSERT_EQ(CmdReplay({tel, query, "--print", "--seek-ts=-100"}, seek0), 0)
      << seek0.str();
  EXPECT_EQ(MatchLines(seek0.str()), MatchLines(full.str()));

  // A mid-stream seek emits a (possibly empty) tail of the match stream
  // and must not crash; exact suffix equality at window-complete
  // positions is pinned by io_roundtrip_test.
  std::ostringstream mid;
  ASSERT_EQ(CmdReplay({tel, query, "--seek-ts=500"}, mid), 0) << mid.str();

  // Seek needs the binary index.
  ASSERT_EQ(CmdConvert({tel, text_tel}, out), 0);
  std::ostringstream noindex;
  EXPECT_EQ(CmdReplay({text_tel, query, "--seek-ts=5"}, noindex), 1);
  EXPECT_NE(noindex.str().find("binary"), std::string::npos);

  // Flight recorder: dump written, reports ring occupancy, replayable.
  std::ostringstream fl;
  ASSERT_EQ(CmdReplay({tel, query, "--flight-record=50",
                       "--flight-dump=" + dump},
                      fl),
            0)
      << fl.str();
  EXPECT_NE(fl.str().find("flight recorder: dumped 50 of 200 arrivals"),
            std::string::npos)
      << fl.str();
  std::ostringstream fromdump;
  EXPECT_EQ(CmdReplay({dump, query}, fromdump), 0) << fromdump.str();

  // Flag validation: the pair goes together, N must be positive, format
  // must be a known framing.
  std::ostringstream b1;
  EXPECT_EQ(CmdReplay({tel, query, "--flight-record=50"}, b1), 1);
  EXPECT_NE(b1.str().find("go together"), std::string::npos);
  std::ostringstream b2;
  EXPECT_EQ(CmdReplay({tel, query, "--flight-dump=" + dump}, b2), 1);
  std::ostringstream b3;
  EXPECT_EQ(CmdReplay({tel, query, "--flight-record=0",
                       "--flight-dump=" + dump},
                      b3),
            1);
  std::ostringstream b4;
  EXPECT_EQ(CmdReplay({tel, query, "--flight-format=binary"}, b4), 1);

  std::remove(tel.c_str());
  std::remove(text_tel.c_str());
  std::remove(query.c_str());
  std::remove(dump.c_str());
}

TEST(Cli, GenToStdoutIsParseableTel) {
  std::ostringstream out;
  ASSERT_EQ(CmdGen({"random", "-", "--vertices=20", "--edges=50",
                    "--seed=3", "--window=25"},
                   out),
            0);
  EXPECT_EQ(out.str().rfind("tel 1 ", 0), 0u) << out.str().substr(0, 40);
  EXPECT_NE(out.str().find("window=25"), std::string::npos);
}

TEST(Cli, ReplayErrors) {
  std::ostringstream usage;
  EXPECT_EQ(CmdReplay({"only-stream"}, usage), 2);
  std::ostringstream missing;
  EXPECT_EQ(CmdReplay({"/no/such.tel", "/no/such.tq"}, missing), 1);
  EXPECT_NE(missing.str().find("error"), std::string::npos);

  // A malformed stream surfaces its line-numbered diagnostic.
  const std::string tel = TmpPath("cli_bad.tel");
  {
    std::ofstream f(tel);
    f << "tel 1 undirected vertices=3 window=5\ne 0 1 nope\n";
  }
  const std::string query = TmpPath("cli_bad.tq");
  {
    std::ofstream f(query);
    f << "t 2 1\nv 0 0\nv 1 0\ne 0 0 1\n";
  }
  std::ostringstream bad;
  EXPECT_EQ(CmdReplay({tel, query}, bad), 1);
  EXPECT_NE(bad.str().find(":2:"), std::string::npos) << bad.str();
  std::remove(tel.c_str());
  std::remove(query.c_str());
}

TEST(Cli, UsageAndErrors) {
  std::ostringstream out;
  EXPECT_EQ(CmdStats({}, out), 2);
  EXPECT_NE(out.str().find("usage"), std::string::npos);
  std::ostringstream out2;
  EXPECT_EQ(CmdRun({"a"}, out2), 2);  // missing query + window
  std::ostringstream out3;
  EXPECT_NE(CmdStats({"/no/such/file"}, out3), 0);
  EXPECT_NE(out3.str().find("error"), std::string::npos);
}

TEST(Cli, MainDispatch) {
  std::ostringstream out;
  std::ostringstream err;
  const char* argv0[] = {"tcsm"};
  EXPECT_EQ(Main(1, const_cast<char**>(argv0), out, err), 2);
  EXPECT_NE(err.str().find("subcommands"), std::string::npos);

  const char* argv1[] = {"tcsm", "frobnicate"};
  std::ostringstream err2;
  EXPECT_EQ(Main(2, const_cast<char**>(argv1), out, err2), 2);
}


TEST(Cli, ObservabilityFlags) {
  const std::string tel = TmpPath("cli_obs.tel");
  const std::string query = TmpPath("cli_obs.tq");
  std::ostringstream out;
  ASSERT_EQ(CmdGen({"random", tel, "--vertices=40", "--edges=500",
                    "--vlabels=2", "--seed=9", "--window=200"},
                   out),
            0);
  ASSERT_EQ(CmdGenQuery({tel, query, "--size=3", "--density=1", "--seed=4",
                         "--window=200"},
                        out),
            0);

  // --stats-every emits periodic [stats] ticks and --metrics adds the
  // per-stage summary table to the text report.
  std::ostringstream stats;
  ASSERT_EQ(CmdReplay({tel, query, "--stats-every=100"}, stats), 0)
      << stats.str();
  EXPECT_NE(stats.str().find("[stats] events="), std::string::npos)
      << stats.str();
  EXPECT_NE(stats.str().find(" ev_per_s="), std::string::npos);
  EXPECT_NE(stats.str().find("arrival_batch"), std::string::npos)
      << "per-stage summary table missing";

  // The text report always carries the stream position of the memory
  // peak next to the peak itself.
  EXPECT_NE(stats.str().find(" peak_at="), std::string::npos);

  // --trace-out writes a chrome-trace file: well-formed header, spans
  // for the streaming stages (two queries at --threads=2 add the
  // pipelined fan-out's), and a confirmation line naming the file.
  const std::string trace = TmpPath("cli_obs_trace.json");
  std::ostringstream traced;
  ASSERT_EQ(CmdReplay({tel, query, query, "--threads=2",
                       "--trace-out=" + trace},
                      traced),
            0)
      << traced.str();
  EXPECT_NE(traced.str().find("wrote trace: "), std::string::npos);
  std::ifstream tf(trace);
  ASSERT_TRUE(tf.good()) << "trace file was not written";
  std::stringstream buf;
  buf << tf.rdbuf();
  const std::string json = buf.str();
  EXPECT_EQ(json.rfind("{\"displayTimeUnit\":\"ms\"", 0), 0u);
  EXPECT_NE(json.find("\"traceEvents\":["), std::string::npos);
  EXPECT_NE(json.find("\"thread_name\""), std::string::npos);
  EXPECT_NE(json.find("\"arrival_batch\""), std::string::npos);
  EXPECT_NE(json.find("\"insert_fanout\""), std::string::npos);
  EXPECT_NE(json.find("\"ph\":\"X\""), std::string::npos);

  // --json with metrics on stays one pure JSON line (plus opt-in stats
  // ticks) and reports the peak's event index and the stage summary.
  std::ostringstream js;
  ASSERT_EQ(CmdReplay({tel, query, "--json", "--metrics"}, js), 0)
      << js.str();
  EXPECT_EQ(js.str().rfind("{\"stream\":", 0), 0u) << js.str();
  EXPECT_NE(js.str().find("\"peak_event_index\":"), std::string::npos);
  EXPECT_NE(js.str().find("\"stages\":{"), std::string::npos);
  std::ostringstream js2;
  ASSERT_EQ(CmdReplay({tel, query, "--json", "--stats-every=100"}, js2), 0);
  EXPECT_EQ(js2.str().rfind("{\"type\":\"stats\",", 0), 0u) << js2.str();
  EXPECT_NE(js2.str().find("\n{\"stream\":"), std::string::npos);

  // Contradictory and malformed flag combinations are named errors.
  std::ostringstream contra;
  EXPECT_EQ(CmdReplay({tel, query, "--metrics=off", "--stats-every=10"},
                      contra),
            1);
  EXPECT_NE(contra.str().find("contradicts"), std::string::npos);
  std::ostringstream badv;
  EXPECT_EQ(CmdReplay({tel, query, "--metrics=sideways"}, badv), 1);
  EXPECT_NE(badv.str().find("bad --metrics"), std::string::npos);

  // Non-streaming subcommands reject the observability flags instead of
  // silently ignoring them.
  std::ostringstream rej;
  EXPECT_EQ(CmdStats({tel, "--metrics"}, rej), 2);
  EXPECT_NE(rej.str().find("unknown flag --metrics for 'stats'"),
            std::string::npos)
      << rej.str();
  std::ostringstream rej2;
  EXPECT_EQ(CmdGenQuery({tel, query, "--size=3", "--window=200",
                         "--trace-out=x.json"},
                        rej2),
            2);
  EXPECT_NE(rej2.str().find("unknown flag --trace-out for 'gen-query'"),
            std::string::npos)
      << rej2.str();
  std::ostringstream rej3;
  EXPECT_EQ(CmdSnapshot({tel, query, "--stats-every=5"}, rej3), 2);
  EXPECT_NE(rej3.str().find("unknown flag --stats-every for 'snapshot'"),
            std::string::npos)
      << rej3.str();

  std::remove(tel.c_str());
  std::remove(query.c_str());
  std::remove(trace.c_str());
}

TEST(Cli, CanonicalFlagReported) {
  const std::string tel = TmpPath("cli_canon.tel");
  const std::string query = TmpPath("cli_canon.query");
  std::ostringstream out;
  ASSERT_EQ(CmdGen({"random", tel, "--vertices=30", "--edges=300",
                    "--seed=8"},
                   out),
            0);
  ASSERT_EQ(CmdGenQuery({tel, query, "--size=3", "--density=0",
                         "--window=100"},
                        out),
            0);
  std::ostringstream run;
  ASSERT_EQ(CmdRun({tel, query, "--window=100", "--canonical"}, run), 0);
  EXPECT_NE(run.str().find("automorphism group size"), std::string::npos);
  std::remove(tel.c_str());
  std::remove(query.c_str());
}

TEST(Cli, ConvertLegacyEdgeList) {
  // The same stream as a generated .tel, and as a legacy edge list plus a
  // `vertex label` file: converted, it replays to the same matches.
  const std::string tel = TmpPath("cli_legacy.tel");
  const std::string edges = TmpPath("cli_legacy.edges");
  const std::string labels = TmpPath("cli_legacy.labels");
  const std::string converted = TmpPath("cli_legacy_cv.tel");
  const std::string query = TmpPath("cli_legacy.tq");
  std::ostringstream out;
  ASSERT_EQ(CmdGen({"random", tel, "--vertices=40", "--edges=400",
                    "--vlabels=3", "--elabels=2", "--seed=6"},
                   out),
            0);
  ASSERT_EQ(CmdGenQuery({tel, query, "--size=3", "--density=0.5",
                         "--window=80", "--seed=2"},
                        out),
            0)
      << out.str();
  {
    auto ds = LoadTelFile(tel);
    ASSERT_TRUE(ds.ok());
    std::ofstream ef(edges);
    ef << "# src dst ts label\n";
    for (const TemporalEdge& e : ds.value().edges) {
      ef << e.src << ' ' << e.dst << ' ' << e.ts << ' ' << e.label << '\n';
    }
    std::ofstream lf(labels);
    for (size_t v = 0; v < ds.value().vertex_labels.size(); ++v) {
      lf << v << ' ' << ds.value().vertex_labels[v] << '\n';
    }
  }
  std::ostringstream cv;
  ASSERT_EQ(CmdConvert({edges, converted, "--labels=" + labels}, cv), 0)
      << cv.str();
  EXPECT_NE(cv.str().find("wrote 400 edges"), std::string::npos) << cv.str();
  EXPECT_EQ(Slurp(converted).rfind("tel 1 undirected", 0), 0u);

  std::ostringstream direct, legacy;
  ASSERT_EQ(CmdReplay({tel, query, "--print"}, direct), 0) << direct.str();
  ASSERT_EQ(CmdReplay({converted, query, "--print"}, legacy), 0)
      << legacy.str();
  EXPECT_NE(MatchLines(direct.str()), "");
  EXPECT_EQ(MatchLines(legacy.str()), MatchLines(direct.str()));

  // Edge-list options on a .tel input are a contradiction, not a no-op.
  std::ostringstream bad;
  EXPECT_EQ(CmdConvert({tel, converted, "--directed"}, bad), 1);
  EXPECT_NE(bad.str().find("only apply to an edge-list input"),
            std::string::npos);

  for (const std::string& f : {tel, edges, labels, converted, query}) {
    std::remove(f.c_str());
  }
}

TEST(Cli, SeekRefusesAbsenceQueries) {
  // A seeked replay never sees the arrivals before the seek point, so an
  // absence predicate's verdict would depend on the skipped prefix.
  const std::string tel = TmpPath("cli_seek_abs.tel");
  const std::string query = TmpPath("cli_seek_abs.tq");
  std::ostringstream out;
  ASSERT_EQ(CmdGen({"random", tel, "--vertices=30", "--edges=200",
                    "--vlabels=2", "--seed=11", "--window=60",
                    "--format=binary", "--block-records=16"},
                   out),
            0);
  ASSERT_EQ(CmdGenQuery({tel, query, "--size=3", "--density=1", "--seed=4",
                         "--window=60", "--absence=1"},
                        out),
            0)
      << out.str();
  std::ostringstream full;
  EXPECT_EQ(CmdReplay({tel, query}, full), 0) << full.str();
  std::ostringstream seek;
  EXPECT_EQ(CmdReplay({tel, query, "--seek-ts=50", "--print"}, seek), 1);
  EXPECT_EQ(seek.str().rfind("error: " + query + ": --seek-ts", 0), 0u)
      << seek.str();
  EXPECT_EQ(MatchLines(seek.str()), "");
  std::remove(tel.c_str());
  std::remove(query.c_str());
}

TEST(Cli, MalformedNumericFlagsAreNamed) {
  const std::string tel = TmpPath("cli_flags.tel");
  const std::string query = TmpPath("cli_flags.tq");
  const std::string scratch = TmpPath("cli_flags_out");
  std::ostringstream out;
  ASSERT_EQ(CmdGen({"random", tel, "--vertices=20", "--edges=100",
                    "--seed=2", "--window=40"},
                   out),
            0);
  ASSERT_EQ(CmdGenQuery({tel, query, "--size=2", "--seed=1"}, out), 0)
      << out.str();
  struct Case {
    std::vector<std::string> argv;
    std::string error;
  };
  const Case cases[] = {
      {{"run", tel, query, "--window=abc"},
       "--window: expected an integer, got 'abc'"},
      {{"run", tel, query, "--window=10x"},
       "--window: expected an integer, got '10x'"},
      {{"run", tel, query, "--limit_ms=xyz"},
       "--limit_ms: expected a number, got 'xyz'"},
      {{"replay", tel, query, "--threads=2.5"},
       "--threads: expected an integer, got '2.5'"},
      {{"replay", tel, query, "--max-events"},
       "--max-events: expected an integer, got ''"},
      {{"gen", "random", scratch, "--edges=1e3"},
       "--edges: expected an integer, got '1e3'"},
      {{"gen", "random", scratch, "--parallel=two"},
       "--parallel: expected a number, got 'two'"},
      {{"gen-query", tel, scratch, "--density=0.5x"},
       "--density: expected a number, got '0.5x'"},
      {{"gen-query", tel, scratch, "--size= 3"},
       "--size: expected an integer, got ' 3'"},
  };
  for (const Case& c : cases) {
    std::vector<char*> argv = {const_cast<char*>("tcsm")};
    for (const std::string& a : c.argv) {
      argv.push_back(const_cast<char*>(a.c_str()));
    }
    std::ostringstream o, e;
    EXPECT_EQ(Main(static_cast<int>(argv.size()), argv.data(), o, e), 2)
        << c.argv[0] << " " << c.argv.back();
    EXPECT_EQ(o.str(), "error: " + c.error + "\n")
        << c.argv[0] << " " << c.argv.back();
  }
  // Nothing was written by the refused commands.
  EXPECT_FALSE(std::ifstream(scratch).good());
  std::remove(tel.c_str());
  std::remove(query.c_str());
}

TEST(Cli, UnknownFlagsAreRefused) {
  // Each subcommand accepts only its own flags: a typo, a removed flag or
  // another subcommand's flag exits 2 before any input is read (the
  // stream and query paths below do not exist), naming the flag and the
  // subcommand.
  struct Case {
    std::vector<std::string> argv;
    std::string error;
  };
  const Case cases[] = {
      {{"replay", "x.tel", "q.tq", "--shards=4"},
       "unknown flag --shards for 'replay'"},
      {{"run", "x.tel", "q.tq", "--shards=4"},
       "unknown flag --shards for 'run'"},
      {{"run", "x.tel", "q.tq", "--windw=50"},
       "unknown flag --windw for 'run'"},
      {{"run", "x.tel", "q.tq", "--labels=x"},
       "unknown flag --labels for 'run'"},
      {{"run", "x.tel", "q.tq", "--seek-ts=5"},
       "unknown flag --seek-ts for 'run'"},
  };
  for (const Case& c : cases) {
    std::vector<char*> argv = {const_cast<char*>("tcsm")};
    for (const std::string& a : c.argv) {
      argv.push_back(const_cast<char*>(a.c_str()));
    }
    std::ostringstream o, e;
    EXPECT_EQ(Main(static_cast<int>(argv.size()), argv.data(), o, e), 2)
        << c.argv[0] << " " << c.argv.back();
    EXPECT_EQ(o.str().rfind("error: " + c.error + " (accepted: --", 0), 0u)
        << o.str();
  }
}

}  // namespace
}  // namespace tcsm::cli
