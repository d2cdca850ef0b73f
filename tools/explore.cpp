// The exploration CLI: fuzz campaigns, adversary searches, and replay
// of the findings both write. usage() below lists every flag.
//
//   explore fuzz     runs a campaign: scenarios drawn from the default space
//                    (every builtin protocol) or, with --canary, from the
//                    canary-hunt space (the deliberately unsound
//                    "pbft-canary", used to prove the pipeline finds and
//                    shrinks real violations). --config reads options from
//                    the "$.explore" clause of a JSON file. Every violation
//                    is shrunk into a finding; the JSON report goes to
//                    --out, or to stdout. Exit 1 when it found violations
//                    or crashes.
//   explore search   runs the worst-case attack search over every
//                    (protocol, attack space) cell and prints the ranked
//                    resilience table on stdout; the JSON report goes to
//                    --out. Exit 1 when a cell was refused (replay
//                    divergence, a determinism bug).
//   explore replay   replays findings: each FILE, and every *.json under
//                    each DIR. Every argument after `replay` is a path,
//                    even one that begins with '-'. Exit 1 unless every
//                    finding replays exactly.
//
// With --repro-dir, fuzz and search write each finding to DIR/<id>.json,
// with every '/' of the id replaced by '-'. Reports and tables are
// byte-identical for every --jobs value. Numeric flags take one whole
// decimal token in range. Exit 2 on usage or setup errors. See
// docs/FUZZING.md and docs/ADVERSARY.md.
#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <exception>
#include <filesystem>
#include <optional>
#include <sstream>
#include <string>
#include <string_view>
#include <vector>

#include "adversary/search.hpp"
#include "cli_args.hpp"
#include "core/json.hpp"
#include "explore/campaign.hpp"
#include "explore/finding.hpp"
#include "runner/export.hpp"

namespace {

using namespace bftsim;
using namespace bftsim::explore;
using adversary::SearchOptions;

[[noreturn]] void usage() {
  std::fputs(
      "usage: explore fuzz [--seed S] [--scenarios N] [--jobs J] [--canary]\n"
      "                    [--config FILE] [--out FILE] [--repro-dir DIR]\n"
      "       explore search [--seed S] [--jobs J] [--protocols a,b,c]\n"
      "                      [--n N] [--grid G] [--rounds R]\n"
      "                      [--shrink-runs K] [--max-events E]\n"
      "                      [--max-time-ms T] [--out FILE]\n"
      "                      [--repro-dir DIR]\n"
      "       explore replay FILE|DIR...\n",
      stderr);
  std::exit(2);
}

[[nodiscard]] std::string runs_text(const std::vector<RunPrint>& runs) {
  std::string out;
  for (const RunPrint& run : runs) {
    if (!out.empty()) out += ' ';
    out += fingerprint_to_hex(run.fingerprint) + "/" +
           std::to_string(run.records);
  }
  return out;
}

int replay(const std::vector<std::string>& paths) {
  std::vector<std::string> files;
  for (const std::string& path : paths) {
    if (!std::filesystem::is_directory(path)) {
      files.push_back(path);
      continue;
    }
    const std::size_t before = files.size();
    for (const auto& entry : std::filesystem::directory_iterator(path)) {
      if (entry.path().extension() == ".json") {
        files.push_back(entry.path().string());
      }
    }
    if (files.size() == before) {
      std::fprintf(stderr, "%s: no finding files\n", path.c_str());
      return 2;
    }
    std::sort(files.begin() + static_cast<std::ptrdiff_t>(before), files.end());
  }

  int bad = 0;
  for (const std::string& file : files) {
    try {
      const Finding finding = Finding::from_file(file);
      const Replay outcome = finding.replay();
      const std::string recorded = describe(finding.evidence.verdict);
      if (outcome.ok()) {
        std::fprintf(stderr, "OK   %s: %s reproduces, runs %s\n",
                     file.c_str(), recorded.c_str(),
                     runs_text(outcome.evidence.runs).c_str());
        continue;
      }
      ++bad;
      if (!outcome.verdict_matches) {
        std::fprintf(stderr, "FAIL %s: verdict %s, recorded %s\n",
                     file.c_str(),
                     describe(outcome.evidence.verdict).c_str(),
                     recorded.c_str());
      }
      if (!outcome.runs_match) {
        std::fprintf(stderr, "FAIL %s: runs %s, recorded %s\n", file.c_str(),
                     runs_text(outcome.evidence.runs).c_str(),
                     runs_text(finding.evidence.runs).c_str());
      }
    } catch (const std::exception& e) {
      ++bad;
      std::fprintf(stderr, "FAIL %s: %s\n", file.c_str(), e.what());
    }
  }
  std::fprintf(stderr, "replayed %zu finding(s), %d failure(s)\n",
               files.size(), bad);
  return bad == 0 ? 0 : 1;
}

void save_to_dir(const std::string& dir, const Finding& finding) {
  std::filesystem::create_directories(dir);
  std::string name = finding.id;
  std::replace(name.begin(), name.end(), '/', '-');
  const std::string file = dir + "/" + name + ".json";
  finding.save(file);
  std::fprintf(stderr, "  finding written to %s\n", file.c_str());
}

/// What a subcommand produced: its JSON report, findings and exit status.
struct Outcome {
  json::Value report;
  int status = 0;
  std::vector<Finding> findings;
};

Outcome fuzz(const CampaignOptions& options) {
  const CampaignReport report = run_campaign(options);
  std::fprintf(stderr,
               "campaign seed %llu: %llu scenarios (%zu decided, %zu "
               "horizon, %zu event-budget, %zu drained, %zu crashed), "
               "%zu finding(s)\n",
               static_cast<unsigned long long>(report.seed),
               static_cast<unsigned long long>(report.scenario_count),
               report.tally.decided, report.tally.horizon,
               report.tally.event_budget, report.tally.queue_drained,
               report.tally.failed, report.findings.size());
  Outcome outcome{report.to_json(), report.clean() ? 0 : 1, {}};
  for (const CampaignFinding& f : report.findings) {
    std::fprintf(stderr, "FINDING %s: %s (shrunk in %zu steps / %zu runs)\n",
                 f.finding.id.c_str(),
                 describe(f.finding.evidence.verdict).c_str(),
                 f.finding.shrink_steps, f.finding.shrink_runs);
    outcome.findings.push_back(f.finding);
  }
  for (const RunFailure& crash : report.crashes) {
    std::fprintf(stderr, "CRASH %s: %s\n", crash.label.c_str(),
                 crash.error.c_str());
  }
  return outcome;
}

Outcome search(const SearchOptions& options) {
  const adversary::SearchReport report = adversary::run_search(options);
  std::fputs(report.table().c_str(), stdout);
  Outcome outcome{report.to_json(), report.refused.empty() ? 0 : 1, {}};
  for (const adversary::WorstCase& w : report.worst) {
    if (w.finding) outcome.findings.push_back(*w.finding);
  }
  return outcome;
}

}  // namespace

int main(int argc, char** argv) {
  const std::string command = argc >= 2 ? argv[1] : "";
  if (command == "replay" && argc > 2) {
    try {
      return replay(std::vector<std::string>(argv + 2, argv + argc));
    } catch (const std::exception& e) {  // an unreadable directory
      std::fprintf(stderr, "explore replay: %s\n", e.what());
      return 2;
    }
  }
  if (command != "fuzz" && command != "search") usage();
  const bool is_fuzz = command == "fuzz";

  CampaignOptions campaign;
  SearchOptions adversarial;
  std::optional<std::uint64_t> seed;
  std::optional<std::uint64_t> scenarios;
  std::size_t jobs = 0;
  bool canary = false;
  std::string config_path;
  std::string out_path;
  std::string repro_dir;

  for (int i = 2; i < argc; ++i) {
    const std::string_view arg = argv[i];
    const auto next = [&]() -> std::string_view {
      if (i + 1 >= argc) usage();
      return argv[++i];
    };
    const auto whole = [&](std::uint64_t lo, std::uint64_t hi) {
      return cli::arg("explore", arg, next(), lo, hi);
    };
    if (arg == "--seed") {
      seed = whole(0, cli::kMaxSeed);
    } else if (arg == "--jobs") {
      jobs = whole(0, cli::kMaxJobs);
    } else if (arg == "--out") {
      out_path = next();
    } else if (arg == "--repro-dir") {
      repro_dir = next();
    } else if (is_fuzz && arg == "--scenarios") {
      scenarios = whole(kScenariosRange.lo, kScenariosRange.hi);
    } else if (is_fuzz && arg == "--canary") {
      canary = true;
    } else if (is_fuzz && arg == "--config") {
      config_path = next();
    } else if (!is_fuzz && arg == "--protocols") {
      std::stringstream csv{std::string(next())};
      adversarial.protocols.clear();
      for (std::string p; std::getline(csv, p, ',');) {
        if (!p.empty()) adversarial.protocols.push_back(p);
      }
      if (adversarial.protocols.empty()) usage();
    } else if (!is_fuzz && arg == "--n") {
      adversarial.n = static_cast<std::uint32_t>(whole(1, 1'000'000));
    } else if (!is_fuzz && arg == "--grid") {
      adversarial.grid = whole(1, 1'000'000);
    } else if (!is_fuzz && arg == "--rounds") {
      adversarial.rounds = whole(0, 1'000'000);
    } else if (!is_fuzz && arg == "--shrink-runs") {
      adversarial.shrink_runs = whole(kShrinkRunsRange.lo, kShrinkRunsRange.hi);
    } else if (!is_fuzz && arg == "--max-events") {
      adversarial.watchdog.max_events =
          whole(kMaxEventsRange.lo, kMaxEventsRange.hi);
    } else if (!is_fuzz && arg == "--max-time-ms") {
      adversarial.watchdog.max_time_ms =
          cli::arg("explore", arg, next(), 1e-6, 1e12);
    } else {
      std::fprintf(stderr, "unknown option for explore %s: %s\n",
                   command.c_str(), argv[i]);
      usage();
    }
  }

  try {
    if (!config_path.empty()) {  // a missing "explore" clause throws
      const json::Value doc = json::parse_file(config_path);
      campaign = CampaignOptions::from_json(doc.as_object().at("explore"),
                                            "$.explore");
    }
    if (canary) campaign.space = ScenarioSpace::canary();
    if (scenarios) campaign.scenario_count = *scenarios;
    if (seed) campaign.seed = adversarial.seed = *seed;
    campaign.jobs = adversarial.jobs = jobs;

    const Outcome outcome = is_fuzz ? fuzz(campaign) : search(adversarial);
    for (const Finding& finding : outcome.findings) {
      if (!repro_dir.empty()) save_to_dir(repro_dir, finding);
    }
    if (!out_path.empty()) {
      write_json_file(out_path, outcome.report);
      std::fprintf(stderr, "report written to %s\n", out_path.c_str());
    } else if (is_fuzz) {
      std::printf("%s\n", outcome.report.dump(2).c_str());
    }
    return outcome.status;
  } catch (const std::exception& e) {
    std::fprintf(stderr, "explore %s: %s\n", command.c_str(), e.what());
    return 2;
  }
}
