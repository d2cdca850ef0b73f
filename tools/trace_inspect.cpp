// Inspector CLI for recorded trace files (either streaming format: JSONL
// or the compact binary format; auto-detected).
//
// Subcommands:
//   summary <trace>                  per-kind / per-type counts, time span,
//                                    record count and fingerprint
//   summary <config.json>            run the configured simulation and
//                                    print its outcome, attacker activity
//                                    counters, and run warnings
//   fingerprint <trace>              the 16-hex-digit trace fingerprint
//   filter <trace> [--kind K] [--node N] [--type T]
//                  [--from-ms X] [--to-ms Y] [--limit N]
//                                    print matching records, one per line
//   diff <a> <b>                     first differing record; exit 1 when
//                                    the traces differ
//   record <config.json> --out FILE [--sink jsonl|binary]
//                                    run the simulation and stream its
//                                    trace to FILE; prints the fingerprint
//
// `record` + `fingerprint`/`diff` is what the CI trace-determinism job
// uses: run the same seed twice through each sink backend and require
// identical fingerprints.
#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <exception>
#include <limits>
#include <map>
#include <string>
#include <vector>

#include "cli_args.hpp"
#include "core/json.hpp"
#include "core/trace.hpp"
#include "obs/trace_sink.hpp"
#include "runner/export.hpp"
#include "sim/simulation.hpp"

namespace {

using namespace bftsim;

[[noreturn]] void usage(const char* argv0) {
  std::fprintf(
      stderr,
      "usage: %s summary <trace|config.json>\n"
      "       %s fingerprint <trace>\n"
      "       %s filter <trace> [--kind K] [--node N] [--type T]\n"
      "                 [--from-ms X] [--to-ms Y] [--limit N]\n"
      "       %s diff <a> <b>\n"
      "       %s record <config.json> --out FILE [--sink jsonl|binary]\n",
      argv0, argv0, argv0, argv0, argv0);
  std::exit(2);
}

/// Streams a trace file once, returning (fingerprint, record count).
struct TraceDigest {
  std::uint64_t fingerprint = kTraceFingerprintSeed;
  std::uint64_t records = 0;
};

TraceDigest digest_file(const std::string& path) {
  obs::TraceReader reader(path);
  TraceDigest d;
  TraceRecord rec;
  while (reader.next(rec)) {
    d.fingerprint = hash_combine(d.fingerprint, rec.fingerprint());
    ++d.records;
  }
  return d;
}

/// Summary of a run executed from a config file: headline outcome plus the
/// attacker activity counters (how many messages the attack dropped,
/// delayed, modified, duplicated) and any structured run warnings.
int cmd_summary_config(const std::string& path, const json::Value& doc) {
  const SimConfig cfg = SimConfig::from_json(doc);
  const RunResult result = run_simulation(cfg);
  std::printf("config:      %s\n", path.c_str());
  std::printf("protocol:    %s (n=%u)\n", cfg.protocol.c_str(), cfg.n);
  std::printf("attack:      %s\n",
              cfg.attack.empty() ? "(none)" : cfg.attack.c_str());
  std::printf("terminated:  %s\n", result.terminated ? "yes" : "no");
  std::printf("records:     %llu\n",
              static_cast<unsigned long long>(result.trace_records));
  std::printf("fingerprint: %s\n",
              fingerprint_to_hex(result.trace_fingerprint).c_str());
  if (result.attacker_dropped != 0 || result.attacker_delayed != 0 ||
      result.attacker_modified != 0 || result.attacker_duplicated != 0) {
    std::printf("attacker activity:\n");
    std::printf("  dropped      %llu\n",
                static_cast<unsigned long long>(result.attacker_dropped));
    std::printf("  delayed      %llu\n",
                static_cast<unsigned long long>(result.attacker_delayed));
    std::printf("  modified     %llu\n",
                static_cast<unsigned long long>(result.attacker_modified));
    std::printf("  duplicated   %llu\n",
                static_cast<unsigned long long>(result.attacker_duplicated));
  }
  for (const RunWarning& warning : result.warnings) {
    std::printf("warning:     %s: %s\n", warning.code.c_str(),
                warning.detail.c_str());
  }
  return 0;
}

int cmd_summary(const std::string& path) {
  // A simulation config is also a valid summary target: run it and report
  // the outcome (incl. attacker activity). Trace files are never a single
  // JSON object with a "protocol" key, so sniffing is unambiguous.
  bool is_config = false;
  json::Value doc;
  try {
    doc = json::parse_file(path);
    is_config = doc.is_object() && doc.as_object().find("protocol") != nullptr;
  } catch (const std::exception&) {
    // not a single JSON document; fall through to the trace reader
  }
  // Outside the sniffing try: a config that fails to parse or run must
  // surface its own error, not a confusing trace-reader one.
  if (is_config) return cmd_summary_config(path, doc);
  obs::TraceReader reader(path);
  TraceDigest d;
  std::map<std::string, std::uint64_t> by_kind;
  std::map<std::string, std::uint64_t> by_type;
  Time first = 0, last = 0;
  NodeId max_node = 0;
  TraceRecord rec;
  while (reader.next(rec)) {
    if (d.records == 0) first = rec.at;
    last = rec.at;
    d.fingerprint = hash_combine(d.fingerprint, rec.fingerprint());
    ++d.records;
    ++by_kind[std::string(to_string(rec.kind))];
    if (!rec.type.empty()) ++by_type[rec.type];
    if (rec.a != kNoNode) max_node = std::max(max_node, rec.a);
    if (rec.b != kNoNode) max_node = std::max(max_node, rec.b);
  }
  std::printf("file:        %s\n", path.c_str());
  std::printf("format:      %s\n",
              std::string(to_string(reader.format())).c_str());
  std::printf("records:     %llu\n",
              static_cast<unsigned long long>(d.records));
  std::printf("fingerprint: %s\n", fingerprint_to_hex(d.fingerprint).c_str());
  if (d.records > 0) {
    std::printf("span:        %.3f ms .. %.3f ms\n", to_ms(first), to_ms(last));
    std::printf("max node id: %u\n", max_node);
    std::printf("by kind:\n");
    for (const auto& [kind, count] : by_kind) {
      std::printf("  %-12s %llu\n", kind.c_str(),
                  static_cast<unsigned long long>(count));
    }
    if (!by_type.empty()) {
      std::printf("by payload type:\n");
      for (const auto& [type, count] : by_type) {
        std::printf("  %-12s %llu\n", type.c_str(),
                    static_cast<unsigned long long>(count));
      }
    }
  }
  return 0;
}

int cmd_fingerprint(const std::string& path) {
  const TraceDigest d = digest_file(path);
  std::printf("%s %llu\n", fingerprint_to_hex(d.fingerprint).c_str(),
              static_cast<unsigned long long>(d.records));
  return 0;
}

struct Filter {
  std::string kind;
  std::string type;
  NodeId node = kNoNode;
  double from_ms = -1.0;
  double to_ms = -1.0;
  std::uint64_t limit = 0;  ///< 0 = unlimited

  [[nodiscard]] bool matches(const TraceRecord& rec) const {
    if (!kind.empty() && kind != to_string(rec.kind)) return false;
    if (!type.empty() && type != rec.type) return false;
    if (node != kNoNode && rec.a != node && rec.b != node) return false;
    if (from_ms >= 0.0 && bftsim::to_ms(rec.at) < from_ms) return false;
    if (to_ms >= 0.0 && bftsim::to_ms(rec.at) > to_ms) return false;
    return true;
  }
};

int cmd_filter(const std::string& path, const Filter& filter) {
  obs::TraceReader reader(path);
  TraceRecord rec;
  std::uint64_t printed = 0;
  while (reader.next(rec)) {
    if (!filter.matches(rec)) continue;
    std::printf("%s\n", rec.to_string().c_str());
    if (filter.limit != 0 && ++printed >= filter.limit) break;
  }
  return 0;
}

int cmd_diff(const std::string& path_a, const std::string& path_b) {
  obs::TraceReader a(path_a);
  obs::TraceReader b(path_b);
  TraceRecord ra, rb;
  std::uint64_t index = 0;
  for (;; ++index) {
    const bool more_a = a.next(ra);
    const bool more_b = b.next(rb);
    if (!more_a && !more_b) {
      std::printf("identical: %llu records\n",
                  static_cast<unsigned long long>(index));
      return 0;
    }
    if (more_a != more_b) {
      std::printf("length mismatch at record %llu: %s ended first\n",
                  static_cast<unsigned long long>(index),
                  (more_a ? path_b : path_a).c_str());
      return 1;
    }
    if (ra.fingerprint() != rb.fingerprint()) {
      std::printf("differ at record %llu:\n  a: %s\n  b: %s\n",
                  static_cast<unsigned long long>(index),
                  ra.to_string().c_str(), rb.to_string().c_str());
      return 1;
    }
  }
}

int cmd_record(const std::string& config_path, const std::string& out_path,
               const std::string& sink_name) {
  const json::Value doc = json::parse_file(config_path);
  SimConfig cfg = SimConfig::from_json(doc);
  cfg.obs.sink =
      sink_name == "binary" ? TraceSinkKind::kBinary : TraceSinkKind::kJsonl;
  cfg.obs.trace_path = out_path;
  const RunResult result = run_simulation(cfg);
  std::printf("%s %llu\n", fingerprint_to_hex(result.trace_fingerprint).c_str(),
              static_cast<unsigned long long>(result.trace_records));
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  if (argc < 3) usage(argv[0]);
  const std::string command = argv[1];
  try {
    if (command == "summary") {
      return cmd_summary(argv[2]);
    }
    if (command == "fingerprint") {
      return cmd_fingerprint(argv[2]);
    }
    if (command == "filter") {
      Filter filter;
      const std::string path = argv[2];
      for (int i = 3; i < argc; ++i) {
        const std::string arg = argv[i];
        const auto next = [&]() -> const char* {
          if (i + 1 >= argc) usage(argv[0]);
          return argv[++i];
        };
        if (arg == "--kind") {
          filter.kind = next();
        } else if (arg == "--node") {
          filter.node = static_cast<NodeId>(cli::arg<std::uint64_t>(
              "trace_inspect", arg, next(), 0, kNoNode - 1));
        } else if (arg == "--type") {
          filter.type = next();
        } else if (arg == "--from-ms") {
          filter.from_ms = cli::arg("trace_inspect", arg, next(), 0.0, 1e12);
        } else if (arg == "--to-ms") {
          filter.to_ms = cli::arg("trace_inspect", arg, next(), 0.0, 1e12);
        } else if (arg == "--limit") {
          filter.limit = cli::arg<std::uint64_t>(
              "trace_inspect", arg, next(), 0,
              std::numeric_limits<std::uint64_t>::max());
        } else {
          usage(argv[0]);
        }
      }
      return cmd_filter(path, filter);
    }
    if (command == "diff") {
      if (argc < 4) usage(argv[0]);
      return cmd_diff(argv[2], argv[3]);
    }
    if (command == "record") {
      const std::string config_path = argv[2];
      std::string out_path;
      std::string sink_name = "jsonl";
      for (int i = 3; i < argc; ++i) {
        const std::string arg = argv[i];
        const auto next = [&]() -> const char* {
          if (i + 1 >= argc) usage(argv[0]);
          return argv[++i];
        };
        if (arg == "--out") {
          out_path = next();
        } else if (arg == "--sink") {
          sink_name = next();
        } else {
          usage(argv[0]);
        }
      }
      if (out_path.empty()) usage(argv[0]);
      if (sink_name != "jsonl" && sink_name != "binary") usage(argv[0]);
      return cmd_record(config_path, out_path, sink_name);
    }
  } catch (const std::exception& e) {
    std::fprintf(stderr, "%s: %s\n", command.c_str(), e.what());
    return 2;
  }
  usage(argv[0]);
}
