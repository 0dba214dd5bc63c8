// Implementations of the `tcsm` command-line tool's subcommands, kept in
// the library so they are unit-testable. Each command takes its argument
// list (excluding the subcommand name) and an output stream, and returns
// a process exit code.
//
// Stream arguments are `.tel` files in either framing of
// docs/FILE_FORMATS.md; directedness and vertex labels come from the
// file. Legacy SNAP-style edge lists are an input of `convert` only.
// A numeric flag whose value does not parse in full (`--window=10x`)
// throws out of a command; Main reports it as a usage error naming the
// flag.
#ifndef TCSM_CLI_COMMANDS_H_
#define TCSM_CLI_COMMANDS_H_

#include <iosfwd>
#include <string>
#include <vector>

namespace tcsm::cli {

using Args = std::vector<std::string>;

// Each command's flags are listed by its usage line (run it without
// arguments) and in README.md.

/// tcsm stats <stream.tel>: Table III-style dataset characteristics.
int CmdStats(const Args& args, std::ostream& out);

/// tcsm gen <preset|random> [<out.tel>|-]: synthesizes a temporal stream
/// as a `.tel` file (stdout with `-`, the default, so `tcsm gen` pipes
/// into `tcsm replay -`).
int CmdGen(const Args& args, std::ostream& out);

/// tcsm convert <in|-> <out.tel|->: re-frames a `.tel` stream between the
/// text and binary v2 framings (by default into the other one) without
/// touching its contents, so it replays match-identically; or turns a
/// legacy `src dst ts [label]` edge list (--directed, vertex labels from
/// --labels=<file>) into a text `.tel` stream.
int CmdConvert(const Args& args, std::ostream& out);

/// tcsm gen-query <stream.tel> <out-file>: extracts a random-walk query
/// with a density-targeted temporal order; --window is recorded in the
/// query file as its suggested replay delta.
int CmdGenQuery(const Args& args, std::ostream& out);

/// tcsm run <stream.tel> <query-file>...: loads the stream into memory,
/// then matches exactly as `replay` does — same options, same output,
/// byte-identical match stream. Expirations derive from the window even
/// when the file carries x records.
int CmdRun(const Args& args, std::ostream& out);

/// tcsm replay <stream.tel|-> <query-file>...: continuous matching read
/// incrementally off disk (or stdin) in O(window) memory, one engine per
/// query file fanned out across --threads workers. The window falls back
/// to the query files' `w` records, then the `.tel` header. --seek-ts=T
/// starts at the first binary-v2 block covering T and is refused for
/// queries with absence predicates, whose verdicts would depend on the
/// skipped prefix; --flight-record keeps the last N arrivals and dumps
/// them as a replayable `.tel` at exit, error exits included.
int CmdReplay(const Args& args, std::ostream& out);

/// tcsm snapshot <stream.tel> <query-file>: one-shot matching over the
/// full graph (TOM's setting).
int CmdSnapshot(const Args& args, std::ostream& out);

/// Dispatches to a subcommand; prints usage on errors.
int Main(int argc, char** argv, std::ostream& out, std::ostream& err);

}  // namespace tcsm::cli

#endif  // TCSM_CLI_COMMANDS_H_
