// The three benchmark workloads. Each is a cluster that is built once
// (set-up) and then driven through identical cycles; README.md says why
// each was chosen and which layers it loads or leaves idle.
//
// A workload records the simulated-time outcome of its first
// window_cycles() cycles into `window` (those numbers are a pure
// function of the seed) and counts every operation it attempts, and
// every one that failed or came out wrong, in `tally`.
#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "ckpt/live_migrate.h"
#include "coord/coordinator.h"
#include "cruz/cluster.h"
#include "obs/latency/histogram.h"
#include "spans.h"

namespace cruzbench {

// Operations attempted and failed, with a note for each failure.
struct Tally {
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::vector<std::string> errors;

  void Op(bool ok, const std::string& what) { Ops(1, ok ? 0 : 1, what); }
  void Ops(std::uint64_t n, std::uint64_t bad, const std::string& what) {
    attempted += n;
    failed += bad;
    if (bad != 0 && errors.size() < 20) errors.push_back(what);
  }
};

// Simulated-time results of the sim window (the first cycles).
struct SimWindow {
  std::vector<cruz::coord::Coordinator::OpStats> checkpoints;
  std::vector<cruz::coord::Coordinator::OpStats> restarts;
  std::vector<cruz::ckpt::LiveMigrateStats> migrations;
  cruz::obs::LatencyHistogram latency;  // kv requests
  std::uint64_t load_completed = 0;
  std::uint64_t load_expected = 0;
  std::uint64_t load_failures = 0;
  std::uint64_t load_late = 0;
  std::uint64_t cow_faults = 0;
  std::uint64_t slm_iterations = 0;  // all ranks, compute phases only
  cruz::DurationNs slm_compute = 0;  // simulated compute time per rank
};

class Workload {
 public:
  explicit Workload(std::uint64_t seed) : seed_(seed) {}
  virtual ~Workload() = default;
  Workload(const Workload&) = delete;
  Workload& operator=(const Workload&) = delete;

  // Set-up, in three timed phases; cruzbench ends the warm-up with one
  // unrecorded cycle.
  virtual void Construct() = 0;  // the Cluster
  virtual void Populate() = 0;   // pods and their programs
  virtual void WarmUp() = 0;     // start the load / let the app settle

  // One measured cycle. Only `record` cycles write to `window`.
  virtual void Cycle(SpanLog& spans, bool record, Tally& tally) = 0;
  // Checks too costly to time with the cycle; runs after each cycle.
  virtual void Check(Tally&) {}

  // Cycles whose simulated-time results are reported.
  virtual std::uint32_t window_cycles() const = 0;

  // The process whose memory the os::Memory probes time, and the latest
  // checkpoint image of it (read back for the codec probes).
  virtual cruz::os::Process* ProbeProcess() = 0;
  virtual bool ProbeImage(cruz::Bytes& out) = 0;
  virtual bool compress() const = 0;

  // Layer work of the last cycle that is not visible from cluster-wide
  // counters: slm iterations in its compute phase (0 elsewhere).
  std::uint64_t last_cycle_iterations() const { return last_iterations_; }

  cruz::Cluster& cluster() { return *cluster_; }
  SimWindow window;

 protected:
  std::uint64_t seed_;
  std::unique_ptr<cruz::Cluster> cluster_;
  std::uint64_t last_iterations_ = 0;
};

// Names accepted by MakeWorkload, in BENCHMARK.json order.
const std::vector<std::string>& WorkloadNames();
std::unique_ptr<Workload> MakeWorkload(const std::string& name,
                                       std::uint64_t seed);

}  // namespace cruzbench
