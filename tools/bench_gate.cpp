// Bench regression gate for CI.
//
// Compares a fresh `micro_engine --json` report against the recorded
// reference medians in BENCH_engine.json, workload by workload (matched on
// protocol + n). The reference value is the median of the recorded
// `new_samples` (falling back to `new_events_per_sec`); the gate fails
// when any measured events/sec drops more than --tolerance (default 0.25,
// i.e. 25%) below its reference. Faster-than-reference results always
// pass — the gate only guards against regressions.
//
// When both files carry a "scaling" array (the n-scaling curve, see
// docs/SCALING.md), each matched point is gated twice: events/sec must
// stay above the --tolerance floor, and bytes_per_node must stay below
// the --mem-tolerance ceiling (default 0.35). Memory points whose
// reference is under 4 KiB/node are skipped — at that size the reading is
// page-granularity noise, not a budget. The events/sec floor is likewise
// skipped for points whose reference run lasted under 0.1 s: a
// tens-of-milliseconds run flaps well past any sane tolerance on a busy
// machine, and small-n speed is already gated by the engine_throughput
// workloads (whose runs are repeated, not one-shot). Memory stays gated
// at every size — the allocation sequence is deterministic, so bytes/node
// is stable even when the wall clock is not. Files without a scaling
// section gate workloads only, so the two checks roll out independently.
//
// Thread-count honesty: every micro_engine record carries the machine's
// actual "hardware_threads". When both files declare a thread count and
// they differ, the gate refuses to compare (exit 2) — events/sec and
// speedup figures from different machines are not comparable evidence.
// --allow-thread-mismatch downgrades the refusal to a warning and gates
// only the thread-count-insensitive records (serial throughput, memory),
// skipping parallel speedup comparisons entirely.
//
// When both files carry an "intra_speedup" record (the windowed-parallel
// driver vs its serial per-node-RNG baseline; see docs/PARALLELISM.md),
// each matched workload's speedup must stay above the --tolerance floor,
// and the run must have been bit-identical ("identical": true) — a
// divergent parallel run fails regardless of speed.
//
// When both files carry an "attacker_hook" record (the passive fast path
// vs a no-op attack on the same workload), the current run must have been
// equivalent ("identical": true) and its overhead ratio must stay below
// (1 + tolerance) x max(reference ratio, 1.0).
//
// When both files carry a "wan_backend" record (the WAN transport backend
// vs direct broadcast on the same workload; see docs/NETWORKING.md), every
// matched mode must have been deterministic ("deterministic": true — two
// same-seed runs produced equivalent aggregates) and its
// relative_throughput (mode events/sec over direct events/sec, a
// machine-portable per-event-cost ratio) must stay above the --tolerance
// floor of the reference ratio.
//
// When both files carry a "client_workload" record (the request generator
// vs request-free runs on the same base config; see docs/WORKLOADS.md),
// every matched mode must have been deterministic ("deterministic": true)
// and its relative_throughput (mode events/sec over no-workload
// events/sec) must stay above the --tolerance floor of the reference
// ratio.
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
#include <cstring>
#include <exception>
#include <string>
#include <vector>

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

double median(std::vector<double> xs) {
  std::sort(xs.begin(), xs.end());
  const std::size_t n = xs.size();
  return n % 2 == 1 ? xs[n / 2] : 0.5 * (xs[n / 2 - 1] + xs[n / 2]);
}

struct Reference {
  std::string protocol;
  std::int64_t n = 0;
  double events_per_sec = 0.0;
};

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

/// Largest wall(4k)/wall(1k) a run-length curve may show unless the
/// reference says otherwise: 4 is a constant per-decision cost, the rest
/// absorbs cache effects and timer noise.
constexpr double kMaxRunLengthWallRatio = 4.5;

std::vector<ScalePoint> parse_scaling(const Value& doc) {
  std::vector<ScalePoint> points;
  const Value* rows = doc.as_object().find("scaling");
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
      tolerance = std::strtod(next(), nullptr);
    } else if (arg == "--mem-tolerance") {
      mem_tolerance = std::strtod(next(), nullptr);
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
    bool threads_match = true;
    if (ref_threads > 0 && cur_threads > 0 && ref_threads != cur_threads) {
      threads_match = false;
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
                  "skipping parallel speedup comparisons\n",
                  static_cast<long long>(ref_threads),
                  static_cast<long long>(cur_threads));
    }

    std::vector<Reference> references;
    const Value* workloads = reference_doc.as_object().find("workloads");
    if (workloads == nullptr) {
      std::fprintf(stderr, "%s: no \"workloads\" array\n",
                   reference_path.c_str());
      return 2;
    }
    for (const Value& w : workloads->as_array()) {
      Reference ref;
      ref.protocol = w.get_string("protocol", "");
      ref.n = w.get_int("n", 0);
      std::vector<double> samples;
      if (const Value* s = w.as_object().find("new_samples")) {
        for (const Value& x : s->as_array()) samples.push_back(x.as_number());
      }
      ref.events_per_sec = samples.empty()
                               ? w.get_number("new_events_per_sec", 0.0)
                               : median(std::move(samples));
      if (!ref.protocol.empty() && ref.events_per_sec > 0.0) {
        references.push_back(std::move(ref));
      }
    }

    // A current file may carry engine_throughput rows, a scaling curve, or
    // both (micro_engine --only-scaling records just the curve); gate
    // whatever is present and fail only when there is nothing to compare.
    const Value* rows = current_doc.as_object().find("engine_throughput");
    const bftsim::json::Array empty_rows;
    const bftsim::json::Array& throughput_rows =
        rows != nullptr ? rows->as_array() : empty_rows;

    int regressions = 0;
    int compared = 0;
    for (const Value& row : throughput_rows) {
      const std::string protocol = row.get_string("protocol", "");
      const std::int64_t n = row.get_int("n", 0);
      const double measured = row.get_number("events_per_sec", 0.0);
      const auto ref = std::find_if(
          references.begin(), references.end(), [&](const Reference& r) {
            return r.protocol == protocol && r.n == n;
          });
      if (ref == references.end()) {
        std::printf("SKIP  %-12s n=%-4lld %12.0f ev/s (no reference)\n",
                    protocol.c_str(), static_cast<long long>(n), measured);
        continue;
      }
      ++compared;
      const double floor = (1.0 - tolerance) * ref->events_per_sec;
      const double ratio = measured / ref->events_per_sec;
      if (measured < floor) {
        ++regressions;
        std::printf("FAIL  %-12s n=%-4lld %12.0f ev/s vs ref %.0f (%.0f%%)\n",
                    protocol.c_str(), static_cast<long long>(n), measured,
                    ref->events_per_sec, 100.0 * ratio);
      } else {
        std::printf("OK    %-12s n=%-4lld %12.0f ev/s vs ref %.0f (%.0f%%)\n",
                    protocol.c_str(), static_cast<long long>(n), measured,
                    ref->events_per_sec, 100.0 * ratio);
      }
    }

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

    // --- windowed intra-run speedup: floor + bit-identity -----------------
    // Bit-identity is machine-independent and always gated; the speedup
    // floor only makes sense against a reference from the same hardware.
    int intra_compared = 0;
    const Value* intra_ref = reference_doc.as_object().find("intra_speedup");
    const Value* intra_cur = current_doc.as_object().find("intra_speedup");
    if (intra_ref != nullptr && intra_cur != nullptr &&
        intra_ref->is_object() && intra_cur->is_object()) {
      const Value* ref_rows = intra_ref->as_object().find("workloads");
      const Value* cur_rows = intra_cur->as_object().find("workloads");
      if (ref_rows != nullptr && cur_rows != nullptr && ref_rows->is_array() &&
          cur_rows->is_array()) {
        for (const Value& cur : cur_rows->as_array()) {
          const std::string protocol = cur.get_string("protocol", "");
          const std::int64_t n = cur.get_int("n", 0);
          const double measured = cur.get_number("speedup", 0.0);
          const bool identical = cur.as_object().find("identical") != nullptr &&
                                 cur.as_object().at("identical").as_bool();
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
          if (threads_match && ref_speedup > 0.0 &&
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
                        threads_match ? "" : " (speedup ungated: thread-count "
                                             "mismatch; identity checked)");
          }
        }
      }
    }

    // --- attacker hook overhead: equivalence + overhead-ratio ceiling ------
    // The ratio (hooked/passive wall time on the same machine, back to
    // back) is largely thread-count-insensitive, so it is gated even under
    // --allow-thread-mismatch; equivalence is gated unconditionally.
    int hook_compared = 0;
    const Value* hook_ref = reference_doc.as_object().find("attacker_hook");
    const Value* hook_cur = current_doc.as_object().find("attacker_hook");
    if (hook_ref != nullptr && hook_cur != nullptr && hook_ref->is_object() &&
        hook_cur->is_object()) {
      ++hook_compared;
      const double ref_ratio = hook_ref->get_number("overhead_ratio", 0.0);
      const double cur_ratio = hook_cur->get_number("overhead_ratio", 0.0);
      const bool identical =
          hook_cur->as_object().find("identical") != nullptr &&
          hook_cur->as_object().at("identical").as_bool();
      bool ok = true;
      if (!identical) {
        ok = false;
        ++regressions;
        std::printf("FAIL  attacker-hook run diverged from the passive "
                    "baseline\n");
      }
      // Ratios below 1.0 are timer noise; the ceiling is anchored at the
      // reference ratio but never below parity.
      const double ceiling =
          (1.0 + tolerance) * std::max(ref_ratio, 1.0);
      if (ref_ratio > 0.0 && cur_ratio > ceiling) {
        ok = false;
        ++regressions;
        std::printf("FAIL  attacker-hook overhead %.2fx vs ref %.2fx "
                    "(ceiling %.2fx)\n",
                    cur_ratio, ref_ratio, ceiling);
      }
      if (ok) {
        std::printf("OK    attacker-hook overhead %.2fx vs ref %.2fx\n",
                    cur_ratio, ref_ratio);
      }
    }

    // --- WAN backend: per-mode determinism + relative-throughput floor ----
    // relative_throughput is a same-machine, same-moment ratio of two
    // serial runs, so it is gated even under --allow-thread-mismatch.
    int wan_compared = 0;
    const Value* wan_ref = reference_doc.as_object().find("wan_backend");
    const Value* wan_cur = current_doc.as_object().find("wan_backend");
    if (wan_ref != nullptr && wan_cur != nullptr && wan_ref->is_object() &&
        wan_cur->is_object()) {
      const Value* ref_rows = wan_ref->as_object().find("modes");
      const Value* cur_rows = wan_cur->as_object().find("modes");
      if (ref_rows != nullptr && cur_rows != nullptr && ref_rows->is_array() &&
          cur_rows->is_array()) {
        for (const Value& cur : cur_rows->as_array()) {
          const std::string mode = cur.get_string("mode", "");
          const double measured = cur.get_number("relative_throughput", 0.0);
          const bool deterministic =
              cur.as_object().find("deterministic") != nullptr &&
              cur.as_object().at("deterministic").as_bool();
          const bftsim::json::Array& refs = ref_rows->as_array();
          const auto ref = std::find_if(
              refs.begin(), refs.end(),
              [&](const Value& r) { return r.get_string("mode", "") == mode; });
          if (ref == refs.end()) {
            std::printf("SKIP  wan   %-9s %.2fx direct (no reference)\n",
                        mode.c_str(), measured);
            continue;
          }
          ++wan_compared;
          const double ref_relative = ref->get_number("relative_throughput", 0.0);
          bool ok = true;
          if (!deterministic) {
            ok = false;
            ++regressions;
            std::printf("FAIL  wan   %-9s same-seed runs diverged\n",
                        mode.c_str());
          }
          if (ref_relative > 0.0 &&
              measured < (1.0 - tolerance) * ref_relative) {
            ok = false;
            ++regressions;
            std::printf("FAIL  wan   %-9s %.2fx direct vs ref %.2fx (%.0f%%)\n",
                        mode.c_str(), measured, ref_relative,
                        100.0 * measured / ref_relative);
          }
          if (ok) {
            std::printf("OK    wan   %-9s %.2fx direct vs ref %.2fx\n",
                        mode.c_str(), measured, ref_relative);
          }
        }
      }
    }

    // --- Client workload: per-mode determinism + relative-throughput floor.
    // Like the WAN gate, relative_throughput compares two serial runs on
    // the same machine, so it holds under --allow-thread-mismatch too.
    int workload_compared = 0;
    const Value* wl_ref = reference_doc.as_object().find("client_workload");
    const Value* wl_cur = current_doc.as_object().find("client_workload");
    if (wl_ref != nullptr && wl_cur != nullptr && wl_ref->is_object() &&
        wl_cur->is_object()) {
      const Value* ref_rows = wl_ref->as_object().find("modes");
      const Value* cur_rows = wl_cur->as_object().find("modes");
      if (ref_rows != nullptr && cur_rows != nullptr && ref_rows->is_array() &&
          cur_rows->is_array()) {
        for (const Value& cur : cur_rows->as_array()) {
          const std::string mode = cur.get_string("mode", "");
          const double measured = cur.get_number("relative_throughput", 0.0);
          const bool deterministic =
              cur.as_object().find("deterministic") != nullptr &&
              cur.as_object().at("deterministic").as_bool();
          const bftsim::json::Array& refs = ref_rows->as_array();
          const auto ref = std::find_if(
              refs.begin(), refs.end(),
              [&](const Value& r) { return r.get_string("mode", "") == mode; });
          if (ref == refs.end()) {
            std::printf("SKIP  wload %-12s %.2fx baseline (no reference)\n",
                        mode.c_str(), measured);
            continue;
          }
          ++workload_compared;
          const double ref_relative =
              ref->get_number("relative_throughput", 0.0);
          bool ok = true;
          if (!deterministic) {
            ok = false;
            ++regressions;
            std::printf("FAIL  wload %-12s same-seed runs diverged\n",
                        mode.c_str());
          }
          if (ref_relative > 0.0 &&
              measured < (1.0 - tolerance) * ref_relative) {
            ok = false;
            ++regressions;
            std::printf(
                "FAIL  wload %-12s %.2fx baseline vs ref %.2fx (%.0f%%)\n",
                mode.c_str(), measured, ref_relative,
                100.0 * measured / ref_relative);
          }
          if (ok) {
            std::printf("OK    wload %-12s %.2fx baseline vs ref %.2fx\n",
                        mode.c_str(), measured, ref_relative);
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

    if (compared == 0 && scale_compared == 0 && intra_compared == 0 &&
        hook_compared == 0 && wan_compared == 0 && workload_compared == 0 &&
        run_length_compared == 0) {
      std::fprintf(stderr, "nothing matched between %s and %s\n",
                   current_path.c_str(), reference_path.c_str());
      return 2;
    }
    if (regressions > 0) {
      std::fprintf(stderr, "%d of %d comparisons regressed (>%.0f%% slower "
                   "or >%.0f%% more memory)\n",
                   regressions,
                   compared + scale_compared + intra_compared + hook_compared +
                       wan_compared + workload_compared + run_length_compared,
                   100.0 * tolerance, 100.0 * mem_tolerance);
      return 1;
    }
    std::printf("all %d workloads, %d scaling points, %d intra-speedup, "
                "%d attacker-hook, %d wan-backend, %d client-workload and "
                "%d run-length records within tolerance\n",
                compared, scale_compared, intra_compared, hook_compared,
                wan_compared, workload_compared, run_length_compared);
    return 0;
  } catch (const std::exception& e) {
    std::fprintf(stderr, "bench_gate: %s\n", e.what());
    return 2;
  }
}
