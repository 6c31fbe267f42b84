// cruz_explore: deterministic simulation explorer CLI.
//
//   cruz_explore --seeds 0..200           run a seed range, report failures
//   cruz_explore --seed 42                run one seed
//   cruz_explore --repro "<string>"       re-run an encoded scenario
//   cruz_explore --shrink                 minimize each failing scenario
//   cruz_explore --mutation NAME          inject a deliberate bug
//   cruz_explore --artifact-dir PATH      write repro_seed_<N>.txt on failure
//   cruz_explore --list-invariants        print the invariant catalog
//   cruz_explore --verdicts               print one baseline line per run
//   cruz_explore --baseline FILE          print only runs whose line
//                                         differs from FILE's
//
// A baseline is a saved --verdicts sweep (tests/goldens/
// explorer_sweep_seeds_0_199.txt is one). Exit status is 0 iff every run
// passed the oracle; with --baseline, 0 iff no run's line changed.
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <map>
#include <optional>
#include <string>
#include <vector>

#include "check/explorer.h"
#include "check/scenario.h"
#include "check/shrink.h"

namespace {

using cruz::check::Explorer;
using cruz::check::Mutation;
using cruz::check::MutationFromName;
using cruz::check::RunOptions;
using cruz::check::RunResult;
using cruz::check::Scenario;
using cruz::check::ScenarioGenerator;
using cruz::check::Shrinker;
using cruz::check::ShrinkResult;

// Baseline lines keyed by their first token ("seed=N"); other lines,
// such as the "explored ..." trailer, are skipped.
using Baseline = std::map<std::string, std::string>;

std::optional<Baseline> LoadBaseline(const std::string& path) {
  std::ifstream in(path);
  if (!in) return std::nullopt;
  Baseline baseline;
  for (std::string line; std::getline(in, line);) {
    if (line.rfind("seed=", 0) != 0) continue;
    baseline[line.substr(0, line.find(' '))] = line;
  }
  return baseline;
}

struct Args {
  bool has_range = false;
  std::uint64_t seed_begin = 0;
  std::uint64_t seed_end = 0;  // exclusive
  std::vector<std::uint64_t> seeds;
  std::vector<std::string> repros;
  bool shrink = false;
  std::size_t shrink_max_runs = 200;
  RunOptions options;
  std::string artifact_dir;
  bool list_invariants = false;
  bool verdicts = false;
  std::optional<Baseline> baseline;
};

void Usage(const char* argv0) {
  std::fprintf(
      stderr,
      "usage: %s [--seeds A..B] [--seed N] [--repro STR] [--shrink]\n"
      "          [--shrink-max-runs N] [--mutation NAME]\n"
      "          [--artifact-dir PATH] [--list-invariants]\n"
      "          [--verdicts] [--baseline FILE]\n",
      argv0);
}

bool ParseU64(const std::string& s, std::uint64_t& out) {
  if (s.empty()) return false;
  char* end = nullptr;
  unsigned long long v = std::strtoull(s.c_str(), &end, 10);
  if (end == nullptr || *end != '\0') return false;
  out = static_cast<std::uint64_t>(v);
  return true;
}

bool ParseArgs(int argc, char** argv, Args& args) {
  for (int i = 1; i < argc; ++i) {
    std::string flag = argv[i];
    auto next = [&](std::string& out) {
      if (i + 1 >= argc) return false;
      out = argv[++i];
      return true;
    };
    std::string value;
    if (flag == "--seeds") {
      if (!next(value)) return false;
      auto dots = value.find("..");
      if (dots == std::string::npos) return false;
      if (!ParseU64(value.substr(0, dots), args.seed_begin)) return false;
      if (!ParseU64(value.substr(dots + 2), args.seed_end)) return false;
      if (args.seed_end <= args.seed_begin) return false;
      args.has_range = true;
    } else if (flag == "--seed") {
      std::uint64_t seed = 0;
      if (!next(value) || !ParseU64(value, seed)) return false;
      args.seeds.push_back(seed);
    } else if (flag == "--repro") {
      if (!next(value)) return false;
      args.repros.push_back(value);
    } else if (flag == "--shrink") {
      args.shrink = true;
    } else if (flag == "--shrink-max-runs") {
      if (!next(value)) return false;
      std::uint64_t n = 0;
      if (!ParseU64(value, n) || n == 0) return false;
      args.shrink_max_runs = static_cast<std::size_t>(n);
    } else if (flag == "--mutation") {
      if (!next(value)) return false;
      if (!MutationFromName(value, args.options.mutation)) {
        std::fprintf(stderr, "unknown mutation: %s\n", value.c_str());
        return false;
      }
    } else if (flag == "--artifact-dir") {
      if (!next(value)) return false;
      args.artifact_dir = value;
    } else if (flag == "--list-invariants") {
      args.list_invariants = true;
    } else if (flag == "--verdicts") {
      args.verdicts = true;
    } else if (flag == "--baseline") {
      if (!next(value)) return false;
      args.baseline = LoadBaseline(value);
      if (!args.baseline.has_value()) {
        std::fprintf(stderr, "cannot read baseline: %s\n", value.c_str());
        return false;
      }
    } else {
      std::fprintf(stderr, "unknown flag: %s\n", flag.c_str());
      return false;
    }
  }
  return true;
}

void WriteArtifact(const Args& args, const std::string& tag,
                   const RunResult& run, const ShrinkResult* shrunk) {
  if (args.artifact_dir.empty()) return;
  std::string path = args.artifact_dir + "/repro_" + tag + ".txt";
  std::ofstream out(path);
  if (!out) {
    std::fprintf(stderr, "warning: cannot write artifact %s\n", path.c_str());
    return;
  }
  out << "scenario: " << run.scenario.Encode() << "\n";
  for (const auto& v : run.violations) {
    out << "violation: " << v.invariant << ": " << v.detail << "\n";
  }
  if (shrunk != nullptr) {
    out << "shrunk: " << shrunk->repro << "\n";
    out << "shrink_runs: " << shrunk->runs << "\n";
    for (const auto& v : shrunk->violations) {
      out << "shrunk_violation: " << v.invariant << ": " << v.detail << "\n";
    }
  }
  // Companions for offline analysis: the raw trace (cruz_analyze --trace)
  // and the flight-recorder snapshot of the pre-fault window.
  if (!run.trace_jsonl.empty()) {
    std::ofstream trace(args.artifact_dir + "/trace_" + tag + ".jsonl",
                        std::ios::binary);
    if (trace) trace << run.trace_jsonl;
  }
  if (!run.flight_record.empty()) {
    std::ofstream flight(args.artifact_dir + "/flight_" + tag + ".json",
                         std::ios::binary);
    if (flight) flight << run.flight_record;
  }
}

// Runs one scenario; returns true when it passes or, against a baseline,
// when its verdict line is unchanged. On failure prints the violations,
// optionally shrinks, and writes an artifact.
bool RunOne(Explorer& explorer, const Args& args, const Scenario& scenario,
            const std::string& tag) {
  RunResult run = explorer.RunScenario(scenario);
  if (args.baseline.has_value()) {
    std::string key = run.verdict.substr(0, run.verdict.find(' '));
    auto it = args.baseline->find(key);
    if (it != args.baseline->end() && it->second == run.verdict) return true;
    std::printf("changed: %s\n  baseline: %s\n  now:      %s\n",
                key.c_str(),
                it == args.baseline->end() ? "(none)" : it->second.c_str(),
                run.verdict.c_str());
    return false;
  }
  std::printf("%s\n", (args.verdicts ? run.verdict : run.summary).c_str());
  if (run.passed) return true;
  if (args.verdicts) return false;
  for (const auto& v : run.violations) {
    std::printf("  violation[%s]: %s\n", v.invariant.c_str(),
                v.detail.c_str());
  }
  std::printf("  repro: %s\n", run.scenario.Encode().c_str());
  if (args.shrink) {
    Shrinker shrinker(args.options);
    ShrinkResult shrunk = shrinker.Shrink(run.scenario, args.shrink_max_runs);
    std::printf("  shrunk (%zu runs): %s\n", shrunk.runs,
                shrunk.repro.c_str());
    WriteArtifact(args, tag, run, &shrunk);
  } else {
    WriteArtifact(args, tag, run, nullptr);
  }
  return false;
}

}  // namespace

int main(int argc, char** argv) {
  Args args;
  if (!ParseArgs(argc, argv, args)) {
    Usage(argv[0]);
    return 2;
  }

  Explorer explorer(args.options);

  if (args.list_invariants) {
    for (const auto& name : explorer.oracle().names()) {
      std::printf("%s\n", name.c_str());
    }
    if (!args.has_range && args.seeds.empty() && args.repros.empty()) {
      return 0;
    }
  }

  if (!args.has_range && args.seeds.empty() && args.repros.empty()) {
    Usage(argv[0]);
    return 2;
  }

  std::uint64_t total = 0;
  std::uint64_t failed = 0;

  auto account = [&](bool ok) {
    ++total;
    if (!ok) ++failed;
  };

  if (args.has_range) {
    for (std::uint64_t seed = args.seed_begin; seed < args.seed_end; ++seed) {
      account(RunOne(explorer, args, ScenarioGenerator::FromSeed(seed),
                     "seed_" + std::to_string(seed)));
    }
  }
  for (std::uint64_t seed : args.seeds) {
    account(RunOne(explorer, args, ScenarioGenerator::FromSeed(seed),
                   "seed_" + std::to_string(seed)));
  }
  std::size_t repro_index = 0;
  for (const auto& repro : args.repros) {
    std::optional<Scenario> scenario = Scenario::Decode(repro);
    if (!scenario.has_value()) {
      std::fprintf(stderr, "bad repro string: %s\n", repro.c_str());
      return 2;
    }
    account(RunOne(explorer, args, *scenario,
                   "repro_" + std::to_string(repro_index++)));
  }

  std::printf("explored %llu scenario(s): %llu %s\n",
              static_cast<unsigned long long>(total),
              static_cast<unsigned long long>(failed),
              args.baseline.has_value() ? "changed" : "failed");
  return failed == 0 ? 0 : 1;
}
