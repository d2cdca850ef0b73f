// Bench regression gate for CI.
//
// Compares a fresh `micro_engine --json` report against the recorded
// reference in BENCH_engine.json, record by record. Faster-than-reference
// results always pass — the gate only guards against regressions. A record
// present in only one of the two files is not compared, except the
// run-length curve, which is gated on its own shape (below).
//
// When both files carry a "scaling" record (the n-scaling curve, see
// docs/SCALING.md: its own "hardware_threads" and a "points" array), each
// matched point is gated twice: events/sec must stay above the
// --tolerance floor (default 0.25, i.e. at most 25% below the reference),
// and bytes_per_node must stay below the --mem-tolerance ceiling (default
// 0.35). Memory points whose reference is under 4 KiB/node are skipped —
// at that size the reading is page-granularity noise, not a budget. The
// events/sec floor is likewise skipped for points whose reference run
// lasted under 0.1 s: a tens-of-milliseconds run flaps well past any sane
// tolerance on a busy machine, and small-n serial speed is gated by the
// layer ladder's base row (below). Memory stays gated at every size — the
// allocation sequence is deterministic, so bytes/node is stable even when
// the wall clock is not.
//
// The current file's curve is also gated on its own shape, per protocol
// (kFlatScaling gives each limit and its origin): at the largest n,
// events/sec may fall at most a set factor below the n=64 row, and
// bytes/node may rise at most a set factor above it. Both sides come from
// one run of one machine, so this holds under --allow-thread-mismatch
// too.
//
// Thread-count honesty: every micro_engine record carries the machine's
// actual "hardware_threads". When both files declare a thread count and
// they differ, the gate refuses to compare (exit 2) — events/sec and
// speedup figures from different machines are not comparable evidence.
// --allow-thread-mismatch downgrades the refusal to a warning and gates
// the rest: serial scaling events/sec, ratios, memory and bit-identity,
// plus the intra speedup and the ladder's base events/sec where their own
// record's thread count matches (below).
//
// When both files carry an "intra_speedup" record (the windowed-parallel
// driver vs its serial per-node-RNG baseline; see docs/PARALLELISM.md),
// each matched workload's run must have been bit-identical ("identical":
// true) — a divergent parallel run fails regardless of speed — and its
// speedup must stay above the --tolerance floor whenever the two intra
// records were taken with the same hardware thread count. That count is
// the record's own "hardware_threads" (a record may be re-taken on
// another machine than the rest of the file), falling back to the file's.
//
// When both files carry a "ladder" record (one fixed workload with one
// layer added per rung: attacker hook, WAN backend pieces, client
// workloads; see docs/RUNNING_EXPERIMENTS.md), one rule gates every
// matched rung: it fails if it was not deterministic (its aggregate
// changed between pairs), if the reference rung was "same_as_base" and
// the current one is not (a layer that may cost time but never
// semantics), or if its relative_throughput (rung events/sec over base
// events/sec, a same-moment ratio) falls below the --tolerance floor of
// the reference's. The base rung's events/sec is gated at --tolerance too
// when the two ladder records' thread counts match, like the intra
// speedup.
//
// When the current file carries a "run_length" record (pbft, hotstuff-ns
// and tendermint at n=16 for 1k and 4k decisions; see docs/SCALING.md,
// "Long runs"), every point must have decided, every protocol's
// wall(4k)/wall(1k) ratio must stay at or below 4.5 (4 is linear in run
// length; the ratio is a same-machine figure, so it is gated even without
// a reference), and its resident growth per decision must stay under the
// reference's per-protocol rss_per_decision_ceiling_b. A reference row may
// carry a wall_ratio_ceiling for a protocol whose per-decision cost is
// known to grow with run length; it replaces the 4.5 limit for that
// protocol only.
//
// Usage:
//   bench_gate --current micro.json --reference BENCH_engine.json
//              [--tolerance 0.25] [--mem-tolerance 0.35]
//              [--allow-thread-mismatch]
//
// Exit codes: 0 pass, 1 regression detected, 2 usage/input error.
#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <exception>
#include <string>
#include <vector>

#include "cli_args.hpp"
#include "core/json.hpp"

namespace {

using bftsim::json::Value;

[[noreturn]] void usage(const char* argv0) {
  std::fprintf(stderr,
               "usage: %s --current micro.json --reference BENCH_engine.json\n"
               "          [--tolerance 0.25] [--mem-tolerance 0.35]\n"
               "          [--allow-thread-mismatch]\n",
               argv0);
  std::exit(2);
}

/// One point of the n-scaling curve (reference or measured).
struct ScalePoint {
  std::string protocol;
  std::int64_t n = 0;
  double events_per_sec = 0.0;
  double bytes_per_node = 0.0;
  double wall_seconds = 0.0;
};

/// Memory references below this are page-granularity noise, not budgets.
constexpr double kMinGatedBytesPerNode = 4096.0;

/// Speed references from runs shorter than this are scheduling noise;
/// only their memory side is gated.
constexpr double kMinGatedWallSeconds = 0.1;

/// A flat-curve rule: at the protocol's largest n, events/sec may be at
/// most `max_slowdown` times below the n=64 row's, and bytes/node at most
/// `max_bytes_ratio` times above it.
struct FlatRule {
  const char* protocol;
  double max_slowdown;
  double max_bytes_ratio;
};
constexpr FlatRule kFlatScaling[] = {
    // Per-event cost and per-node memory independent of n.
    {"hotstuff-ns", 3.0, 1.0},
    // PBFT keeps O(n^2) copies in flight, so bytes/node grows with n. With
    // one heap entry per broadcast, n=4096 measured 2.1-4.0x below n=64's
    // events/sec and 18.7-22.5x its bytes/node over seven curves on a
    // 4-vCPU VM. The limits add about 25% to the worst of those. n=64 is a
    // 15-35 ms single shot, so the speed ratio is noisy: the one-heap-
    // entry-per-copy queue read 3.6-9.8x. Its 30.5-32.9x bytes/node is
    // what reliably trips this rule.
    {"pbft", 5.0, 28.0},
};
constexpr std::int64_t kFlatBaseN = 64;

/// Largest wall(4k)/wall(1k) a run-length curve may show unless the
/// reference says otherwise: 4 is a constant per-decision cost, the rest
/// absorbs cache effects and timer noise.
constexpr double kMaxRunLengthWallRatio = 4.5;

std::vector<ScalePoint> parse_scaling(const Value& doc) {
  std::vector<ScalePoint> points;
  const Value* scaling = doc.as_object().find("scaling");
  if (scaling == nullptr || !scaling->is_object()) return points;
  const Value* rows = scaling->as_object().find("points");
  if (rows == nullptr || !rows->is_array()) return points;
  for (const Value& row : rows->as_array()) {
    ScalePoint p;
    p.protocol = row.get_string("protocol", "");
    p.n = row.get_int("n", 0);
    p.events_per_sec = row.get_number("events_per_sec", 0.0);
    p.bytes_per_node = row.get_number("bytes_per_node", 0.0);
    p.wall_seconds = row.get_number("wall_seconds", 0.0);
    if (!p.protocol.empty() && p.n > 0) points.push_back(std::move(p));
  }
  return points;
}

/// Whether records `ref` and `cur` were taken with the same hardware
/// thread count: each record's own "hardware_threads", falling back to its
/// file's; an unknown count matches anything.
bool threads_match(const Value& ref, const Value& cur,
                   std::int64_t ref_file_threads,
                   std::int64_t cur_file_threads) {
  const std::int64_t r = ref.get_int("hardware_threads", ref_file_threads);
  const std::int64_t c = cur.get_int("hardware_threads", cur_file_threads);
  return r <= 0 || c <= 0 || r == c;
}

}  // namespace

int main(int argc, char** argv) {
  std::string current_path;
  std::string reference_path;
  double tolerance = 0.25;
  double mem_tolerance = 0.35;
  bool allow_thread_mismatch = false;

  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    const auto next = [&]() -> const char* {
      if (i + 1 >= argc) usage(argv[0]);
      return argv[++i];
    };
    if (arg == "--current") {
      current_path = next();
    } else if (arg == "--reference") {
      reference_path = next();
    } else if (arg == "--tolerance") {
      tolerance = bftsim::cli::arg("bench_gate", arg, next(), 0.0, 1.0);
    } else if (arg == "--mem-tolerance") {
      mem_tolerance = bftsim::cli::arg("bench_gate", arg, next(), 0.0, 1e6);
    } else if (arg == "--allow-thread-mismatch") {
      allow_thread_mismatch = true;
    } else {
      usage(argv[0]);
    }
  }
  if (current_path.empty() || reference_path.empty()) usage(argv[0]);
  if (tolerance <= 0.0 || tolerance >= 1.0) {
    std::fprintf(stderr, "tolerance must be in (0, 1)\n");
    return 2;
  }
  if (mem_tolerance <= 0.0) {
    std::fprintf(stderr, "mem-tolerance must be positive\n");
    return 2;
  }

  try {
    const Value reference_doc = bftsim::json::parse_file(reference_path);
    const Value current_doc = bftsim::json::parse_file(current_path);

    // Refuse cross-machine comparisons: a record's events/sec and speedup
    // figures only mean something against a reference taken with the same
    // hardware thread count.
    const std::int64_t ref_threads =
        reference_doc.get_int("hardware_threads", 0);
    const std::int64_t cur_threads = current_doc.get_int("hardware_threads", 0);
    if (ref_threads > 0 && cur_threads > 0 && ref_threads != cur_threads) {
      if (!allow_thread_mismatch) {
        std::fprintf(stderr,
                     "thread-count mismatch: reference recorded with %lld "
                     "hardware threads, current with %lld — results are not "
                     "comparable (pass --allow-thread-mismatch to gate only "
                     "thread-count-insensitive records)\n",
                     static_cast<long long>(ref_threads),
                     static_cast<long long>(cur_threads));
        return 2;
      }
      std::printf("WARN  thread-count mismatch (ref %lld, current %lld): "
                  "intra speedups and ladder events/sec gated only where "
                  "their own record's thread count matches\n",
                  static_cast<long long>(ref_threads),
                  static_cast<long long>(cur_threads));
    }

    int regressions = 0;

    // --- n-scaling curve: throughput floor + bytes/node ceiling ----------
    const std::vector<ScalePoint> scale_refs = parse_scaling(reference_doc);
    const std::vector<ScalePoint> scale_cur = parse_scaling(current_doc);
    int scale_compared = 0;
    if (!scale_refs.empty() && !scale_cur.empty()) {
      for (const ScalePoint& cur : scale_cur) {
        const auto ref = std::find_if(
            scale_refs.begin(), scale_refs.end(), [&](const ScalePoint& r) {
              return r.protocol == cur.protocol && r.n == cur.n;
            });
        if (ref == scale_refs.end()) {
          std::printf("SKIP  scale %-12s n=%-5lld (no reference)\n",
                      cur.protocol.c_str(), static_cast<long long>(cur.n));
          continue;
        }
        ++scale_compared;
        bool ok = true;
        const bool speed_gated = ref->events_per_sec > 0.0 &&
                                 ref->wall_seconds >= kMinGatedWallSeconds;
        if (speed_gated &&
            cur.events_per_sec < (1.0 - tolerance) * ref->events_per_sec) {
          ok = false;
          ++regressions;
          std::printf("FAIL  scale %-12s n=%-5lld %10.0f ev/s vs ref %.0f "
                      "(%.0f%%)\n",
                      cur.protocol.c_str(), static_cast<long long>(cur.n),
                      cur.events_per_sec, ref->events_per_sec,
                      100.0 * cur.events_per_sec / ref->events_per_sec);
        }
        if (ref->bytes_per_node >= kMinGatedBytesPerNode &&
            cur.bytes_per_node > (1.0 + mem_tolerance) * ref->bytes_per_node) {
          ok = false;
          ++regressions;
          std::printf("FAIL  scale %-12s n=%-5lld %10.0f bytes/node vs ref "
                      "%.0f (%.0f%%)\n",
                      cur.protocol.c_str(), static_cast<long long>(cur.n),
                      cur.bytes_per_node, ref->bytes_per_node,
                      100.0 * cur.bytes_per_node / ref->bytes_per_node);
        }
        if (ok) {
          std::printf("OK    scale %-12s n=%-5lld %10.0f ev/s%s, %8.0f "
                      "bytes/node\n",
                      cur.protocol.c_str(), static_cast<long long>(cur.n),
                      cur.events_per_sec,
                      speed_gated ? "" : " (ungated: ref run < 0.1 s)",
                      cur.bytes_per_node);
        }
      }
    }

    // --- flat curves: largest n against the same run's n=64 row -----------
    for (const FlatRule& rule : kFlatScaling) {
      const char* protocol = rule.protocol;
      const ScalePoint* base = nullptr;
      const ScalePoint* top = nullptr;
      for (const ScalePoint& p : scale_cur) {
        if (p.protocol != protocol) continue;
        if (p.n == kFlatBaseN) base = &p;
        if (top == nullptr || p.n > top->n) top = &p;
      }
      if (base == nullptr || top == base) continue;
      ++scale_compared;
      const double slowdown = top->events_per_sec > 0.0
                                  ? base->events_per_sec / top->events_per_sec
                                  : 0.0;
      const double bytes_limit = rule.max_bytes_ratio * base->bytes_per_node;
      bool ok = true;
      if (top->events_per_sec <= 0.0 || slowdown > rule.max_slowdown) {
        ok = false;
        ++regressions;
        std::printf("FAIL  flat  %-12s n=%-5lld %10.0f ev/s is %.2fx below "
                    "n=%lld (limit %.1fx)\n",
                    protocol, static_cast<long long>(top->n),
                    top->events_per_sec, slowdown,
                    static_cast<long long>(kFlatBaseN), rule.max_slowdown);
      }
      if (top->bytes_per_node > bytes_limit) {
        ok = false;
        ++regressions;
        std::printf("FAIL  flat  %-12s n=%-5lld %8.0f bytes/node above "
                    "%.1fx n=%lld's %.0f\n",
                    protocol, static_cast<long long>(top->n),
                    top->bytes_per_node, rule.max_bytes_ratio,
                    static_cast<long long>(kFlatBaseN), base->bytes_per_node);
      }
      if (ok) {
        std::printf("OK    flat  %-12s n=%-5lld %.2fx below n=%lld ev/s "
                    "(limit %.1fx), %.0f <= %.0f bytes/node\n",
                    protocol, static_cast<long long>(top->n), slowdown,
                    static_cast<long long>(kFlatBaseN), rule.max_slowdown,
                    top->bytes_per_node, bytes_limit);
      }
    }

    // --- windowed intra-run speedup: floor + bit-identity -----------------
    // Bit-identity is machine-independent and always gated; the speedup
    // floor only makes sense against a reference from the same hardware.
    int intra_compared = 0;
    const Value* intra_ref = reference_doc.as_object().find("intra_speedup");
    const Value* intra_cur = current_doc.as_object().find("intra_speedup");
    if (intra_ref != nullptr && intra_cur != nullptr &&
        intra_ref->is_object() && intra_cur->is_object()) {
      const bool intra_threads_match =
          threads_match(*intra_ref, *intra_cur, ref_threads, cur_threads);
      const Value* ref_rows = intra_ref->as_object().find("workloads");
      const Value* cur_rows = intra_cur->as_object().find("workloads");
      if (ref_rows != nullptr && cur_rows != nullptr && ref_rows->is_array() &&
          cur_rows->is_array()) {
        for (const Value& cur : cur_rows->as_array()) {
          const std::string protocol = cur.get_string("protocol", "");
          const std::int64_t n = cur.get_int("n", 0);
          const double measured = cur.get_number("speedup", 0.0);
          const bool identical = cur.get_bool("identical", false);
          const bftsim::json::Array& refs = ref_rows->as_array();
          const auto ref = std::find_if(
              refs.begin(), refs.end(), [&](const Value& r) {
                return r.get_string("protocol", "") == protocol &&
                       r.get_int("n", 0) == n;
              });
          if (ref == refs.end()) {
            std::printf("SKIP  intra %-12s n=%-5lld %.2fx (no reference)\n",
                        protocol.c_str(), static_cast<long long>(n), measured);
            continue;
          }
          ++intra_compared;
          const double ref_speedup = ref->get_number("speedup", 0.0);
          bool ok = true;
          if (!identical) {
            ok = false;
            ++regressions;
            std::printf("FAIL  intra %-12s n=%-5lld parallel run diverged "
                        "from serial baseline\n",
                        protocol.c_str(), static_cast<long long>(n));
          }
          if (intra_threads_match && ref_speedup > 0.0 &&
              measured < (1.0 - tolerance) * ref_speedup) {
            ok = false;
            ++regressions;
            std::printf("FAIL  intra %-12s n=%-5lld %.2fx vs ref %.2fx "
                        "(%.0f%%)\n",
                        protocol.c_str(), static_cast<long long>(n), measured,
                        ref_speedup, 100.0 * measured / ref_speedup);
          }
          if (ok) {
            std::printf("OK    intra %-12s n=%-5lld %.2fx vs ref %.2fx%s\n",
                        protocol.c_str(), static_cast<long long>(n), measured,
                        ref_speedup,
                        intra_threads_match
                            ? ""
                            : " (speedup ungated: thread-count mismatch; "
                              "identity checked)");
          }
        }
      }
    }

    // --- layer ladder: one rule for every rung ----------------------------
    // relative_throughput is a same-moment ratio of two serial sides, so it
    // is gated even under --allow-thread-mismatch; the base rung's absolute
    // events/sec only against a ladder taken with the same thread count.
    int ladder_compared = 0;
    const Value* ladder_ref = reference_doc.as_object().find("ladder");
    const Value* ladder_cur = current_doc.as_object().find("ladder");
    if (ladder_ref != nullptr && ladder_cur != nullptr &&
        ladder_ref->is_object() && ladder_cur->is_object()) {
      const bool ladder_threads_match =
          threads_match(*ladder_ref, *ladder_cur, ref_threads, cur_threads);
      const Value* ref_rows = ladder_ref->as_object().find("rungs");
      const Value* cur_rows = ladder_cur->as_object().find("rungs");
      if (ref_rows != nullptr && cur_rows != nullptr && ref_rows->is_array() &&
          cur_rows->is_array()) {
        for (const Value& cur : cur_rows->as_array()) {
          const std::string rung = cur.get_string("rung", "");
          const double measured = cur.get_number("relative_throughput", 0.0);
          const bftsim::json::Array& refs = ref_rows->as_array();
          const auto ref = std::find_if(
              refs.begin(), refs.end(),
              [&](const Value& r) { return r.get_string("rung", "") == rung; });
          if (ref == refs.end()) {
            std::printf("SKIP  rung  %-22s %.2fx base (no reference)\n",
                        rung.c_str(), measured);
            continue;
          }
          ++ladder_compared;
          const double ref_relative =
              ref->get_number("relative_throughput", 0.0);
          bool ok = true;
          if (!cur.get_bool("deterministic", false)) {
            ok = false;
            ++regressions;
            std::printf("FAIL  rung  %-22s aggregate changed between pairs\n",
                        rung.c_str());
          }
          if (ref->get_bool("same_as_base", false) &&
              !cur.get_bool("same_as_base", false)) {
            ok = false;
            ++regressions;
            std::printf("FAIL  rung  %-22s no longer equals the base\n",
                        rung.c_str());
          }
          if (ref_relative > 0.0 &&
              measured < (1.0 - tolerance) * ref_relative) {
            ok = false;
            ++regressions;
            std::printf("FAIL  rung  %-22s %.2fx base vs ref %.2fx (%.0f%%)\n",
                        rung.c_str(), measured, ref_relative,
                        100.0 * measured / ref_relative);
          }
          const double eps = cur.get_number("events_per_sec", 0.0);
          const double ref_eps = ref->get_number("events_per_sec", 0.0);
          const bool eps_gated = ladder_threads_match && ref_eps > 0.0;
          if (eps_gated && eps < (1.0 - tolerance) * ref_eps) {
            ok = false;
            ++regressions;
            std::printf("FAIL  rung  %-22s %.0f ev/s vs ref %.0f (%.0f%%)\n",
                        rung.c_str(), eps, ref_eps, 100.0 * eps / ref_eps);
          }
          if (ok) {
            std::printf("OK    rung  %-22s %.2fx base vs ref %.2fx",
                        rung.c_str(), measured, ref_relative);
            if (eps_gated) {
              std::printf(", %.0f ev/s vs ref %.0f", eps, ref_eps);
            } else if (ref_eps > 0.0) {
              std::printf(" (ev/s ungated: thread-count mismatch)");
            }
            std::printf("\n");
          }
        }
      }
    }

    // --- Run-length curve: linear wall time + bounded RSS growth --------
    int run_length_compared = 0;
    const Value* rl_cur = current_doc.as_object().find("run_length");
    if (rl_cur != nullptr && rl_cur->is_object()) {
      if (const Value* points = rl_cur->as_object().find("points");
          points != nullptr && points->is_array()) {
        for (const Value& p : points->as_array()) {
          const Value* terminated = p.as_object().find("terminated");
          if (terminated == nullptr || !terminated->as_bool()) {
            ++regressions;
            std::printf("FAIL  length %-12s d=%-5lld did not decide\n",
                        p.get_string("protocol", "").c_str(),
                        static_cast<long long>(p.get_int("decisions", 0)));
          }
        }
      }
      const Value* rl_ref = reference_doc.as_object().find("run_length");
      const Value* ref_rows = rl_ref != nullptr && rl_ref->is_object()
                                  ? rl_ref->as_object().find("protocols")
                                  : nullptr;
      const Value* cur_rows = rl_cur->as_object().find("protocols");
      if (cur_rows != nullptr && cur_rows->is_array()) {
        for (const Value& cur : cur_rows->as_array()) {
          const std::string protocol = cur.get_string("protocol", "");
          const double ratio = cur.get_number("wall_ratio", 0.0);
          const double per_decision = cur.get_number("rss_per_decision_b", 0.0);
          double ceiling = 0.0;
          double ratio_limit = kMaxRunLengthWallRatio;
          if (ref_rows != nullptr && ref_rows->is_array()) {
            for (const Value& r : ref_rows->as_array()) {
              if (r.get_string("protocol", "") == protocol) {
                ceiling = r.get_number("rss_per_decision_ceiling_b", 0.0);
                ratio_limit =
                    r.get_number("wall_ratio_ceiling", kMaxRunLengthWallRatio);
              }
            }
          }
          ++run_length_compared;
          bool ok = true;
          if (ratio <= 0.0 || ratio > ratio_limit) {
            ok = false;
            ++regressions;
            std::printf("FAIL  length %-12s wall(4k)/wall(1k) %.2f > %.2f\n",
                        protocol.c_str(), ratio, ratio_limit);
          }
          if (ceiling > 0.0 && per_decision > ceiling) {
            ok = false;
            ++regressions;
            std::printf("FAIL  length %-12s %.0f B/decision > ceiling %.0f\n",
                        protocol.c_str(), per_decision, ceiling);
          }
          if (ok) {
            std::printf("OK    length %-12s wall(4k)/wall(1k) %.2f <= %.2f, "
                        "%.0f B/decision%s\n",
                        protocol.c_str(), ratio, ratio_limit, per_decision,
                        ceiling > 0.0 ? "" : " (memory ungated: no reference "
                                             "ceiling)");
          }
        }
      }
    }

    if (scale_compared == 0 && intra_compared == 0 && ladder_compared == 0 &&
        run_length_compared == 0) {
      std::fprintf(stderr, "nothing matched between %s and %s\n",
                   current_path.c_str(), reference_path.c_str());
      return 2;
    }
    if (regressions > 0) {
      std::fprintf(stderr, "%d of %d comparisons regressed (>%.0f%% slower "
                   "or >%.0f%% more memory)\n",
                   regressions,
                   scale_compared + intra_compared + ladder_compared +
                       run_length_compared,
                   100.0 * tolerance, 100.0 * mem_tolerance);
      return 1;
    }
    std::printf("all %d scaling points, %d intra-speedup, %d ladder and %d "
                "run-length records within tolerance\n",
                scale_compared, intra_compared, ladder_compared,
                run_length_compared);
    return 0;
  } catch (const std::exception& e) {
    std::fprintf(stderr, "bench_gate: %s\n", e.what());
    return 2;
  }
}
