// Fig. 5(b): coordination overhead of the distributed checkpoint. The
// paper sweeps 2-8 nodes; the full (non-smoke) run here continues to 16
// to show the linear trend holds — cheap now that the event queue is an
// indexed heap rather than a tombstoned priority_queue.
//
// Paper result: 350-550 us total — negligible against the ~1 s local
// checkpoint — growing by roughly 50 us per node beyond 4 nodes (the
// coordinator's serialized processing of converging <done>/<continue-done>
// datagrams). Overhead = full operation latency minus the maxima of the
// local checkpoint and continue times, exactly as §6 computes it.
//
// Emits BENCH_fig5b.json for the regression gate (check_regression.py).
// CRUZ_BENCH_SMOKE=1 shrinks the sweep for CI.
#include <cstdio>
#include <string>
#include <vector>

#include "bench_gate.h"
#include "slm_sweep.h"

int main() {
  using namespace cruz;
  using namespace cruz::bench;

  const bool smoke = BenchSmoke();
  std::printf("== Fig. 5(b): coordination overhead (slm, checkpoints "
              "every 8 s)%s ==\n\n",
              smoke ? " [smoke]" : "");
  std::printf("%6s %20s %12s %10s\n", "nodes", "overhead (us)", "stddev",
              "samples");
  SweepOptions opt;
  if (smoke) {
    opt.max_nodes = 4;
    opt.app_duration = 16 * kSecond;
  } else {
    opt.max_nodes = 16;
  }
  std::vector<SweepResult> sweep;
  std::vector<double> overheads;
  for (std::uint32_t n = opt.min_nodes; n <= opt.max_nodes; ++n) {
    SweepResult r = RunSlmSweep(n, opt);
    std::printf("%6u %20.1f %12.2f %10u\n", r.nodes, r.mean_overhead_us,
                r.stddev_overhead_us, r.samples);
    overheads.push_back(r.mean_overhead_us);
    sweep.push_back(std::move(r));
  }
  std::printf("\npaper: 350-550 us total, increasing ~50 us per node "
              "beyond 4 nodes\n");
  double slope =
      (overheads.back() - overheads.front()) /
      static_cast<double>(opt.max_nodes - opt.min_nodes);
  bool microsecond_scale =
      overheads.front() > 100 && overheads.back() < 2000;
  bool grows_slowly = slope > 10 && slope < 200;
  std::printf("shape check: overhead is %s (sub-ms, vs ~1 s local "
              "checkpoint) and grows ~%.0f us/node (%s)\n",
              microsecond_scale ? "on the paper's scale" : "OFF SCALE",
              slope, grows_slowly ? "paper-like slope" : "UNEXPECTED");

  {
    bench::BenchGate gate("fig5b");
    for (const SweepResult& r : sweep) {
      gate.Metric("mean_overhead_us_n" + std::to_string(r.nodes),
                  r.mean_overhead_us, "us");
    }
    gate.Metric("overhead_slope_us_per_node", slope, "us");
    // The causally-attributed commit-wait is the piece of the overhead
    // the coordinator itself contributes; gate it alongside.
    for (const SweepResult& r : sweep) {
      gate.Metric("critical_path_commit_wait_us_n" + std::to_string(r.nodes),
                  r.cp_mean_commit_wait_us, "us");
    }
  }
  bool attribution_ok = true;
  for (const SweepResult& r : sweep) {
    attribution_ok = attribution_ok && r.cp_attribution_ok;
  }
  std::printf("attribution check: critical-path phase totals %s the "
              "coordinator wall time\n",
              attribution_ok ? "match" : "DO NOT MATCH");
  return (microsecond_scale && grows_slowly && attribution_ok) ? 0 : 1;
}
