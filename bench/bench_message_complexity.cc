// §5.2 message complexity: Cruz's coordinated checkpoint exchanges the
// minimum messages needed for atomicity — O(N) — while flush-based
// protocols (MPVM, CoCheck, LAM-MPI) exchange markers between every pair
// of nodes, O(N²). This bench counts actual protocol messages for Cruz,
// sweeping the node count, next to the flush protocols' marker count as
// a closed form (no flush protocol is implemented, so none is run), and
// checks the hierarchical coordinator's closed form (DESIGN.md §13) over
// the same sweep. It writes BENCH_message_complexity.json, exits non-zero
// on any count that deviates, and runs as a ctest.
#include <algorithm>
#include <cstdio>
#include <string>

#include "apps/programs.h"
#include "bench_gate.h"
#include "cruz/cluster.h"

namespace {

cruz::coord::Coordinator::OpStats RunOnce(std::uint32_t nodes,
                                          std::uint32_t fan_out) {
  using namespace cruz;
  ClusterConfig config;
  config.num_nodes = nodes;
  Cluster cluster(config);
  std::vector<coord::Coordinator::Member> members;
  for (std::uint32_t i = 0; i < nodes; ++i) {
    os::PodId pod = cluster.CreatePod(i, "p" + std::to_string(i));
    cluster.pods(i).SpawnInPod(pod, "cruz.counter",
                               apps::CounterArgs(1u << 30));
    members.push_back(cluster.MemberFor(i, pod));
  }
  cluster.sim().RunFor(10 * kMillisecond);
  coord::Coordinator::Options options;  // Fig. 2 blocking
  options.fan_out = fan_out;
  options.image_prefix = "/ckpt/msg";
  return cluster.RunCheckpoint(members, options);
}

}  // namespace

int main() {
  cruz::bench::BenchGate gate("message_complexity");

  std::printf("== Coordination message complexity: Cruz vs flush "
              "protocols ==\n\n");
  std::printf("%6s %12s %30s\n", "nodes", "cruz msgs",
              "flush markers 2N(N-1)");
  std::printf("%6s %12s %30s\n", "", "(run)", "(computed, not run)");
  bool ok = true;
  // The paper argues 2-8 nodes; the tail of the sweep goes well past
  // that to make the O(N) vs O(N^2) separation unmistakable.
  for (std::uint32_t n : {2u, 3u, 4u, 5u, 6u, 7u, 8u, 12u, 16u, 24u, 32u}) {
    auto stats = RunOnce(n, /*fan_out=*/0);
    const std::uint32_t cruz_msgs = stats.success ? stats.total_messages : 0;
    std::printf("%6u %12u %30u\n", n, cruz_msgs, 2 * n * (n - 1));
    // Exactly 4 messages per member (checkpoint/done/continue/
    // continue-done) — linear.
    if (cruz_msgs != 4 * n) ok = false;
    gate.Metric("messages_flat_n" + std::to_string(n), cruz_msgs, "msgs");
  }
  std::printf("\npaper: O(N) for Cruz (two-phase-commit minimum) vs "
              "O(N^2) for flush-based protocols\n");

  // Hierarchical coordination: the root runs the same exchange with
  // ceil(N/F) sub-coordinators, each of which runs it with its shard. Every
  // shard adds its own four messages (request, done, continue,
  // continue-done), and no endpoint addresses more than the larger of the
  // shard count and the largest shard.
  std::printf("\n== Hierarchical coordination (fan-out F) ==\n\n");
  std::printf("%6s %4s %8s %12s %14s %14s\n", "nodes", "F", "shards",
              "msgs", "4N+4*ceil(N/F)", "max fan-out");
  bool tree_ok = true;
  for (std::uint32_t f : {2u, 4u}) {
    for (std::uint32_t n :
         {2u, 3u, 4u, 5u, 6u, 7u, 8u, 12u, 16u, 24u, 32u}) {
      auto stats = RunOnce(n, f);
      const std::uint32_t shards = (n + f - 1) / f;
      const std::uint32_t want_msgs = 4 * n + 4 * shards;
      const std::uint32_t want_fanout = std::max(shards, std::min(f, n));
      std::printf("%6u %4u %8u %12u %14u %14u\n", n, f, stats.shard_count,
                  stats.total_messages, want_msgs,
                  stats.max_endpoint_fanout);
      if (!stats.success || stats.shard_count != shards ||
          stats.total_messages != want_msgs ||
          stats.max_endpoint_fanout != want_fanout) {
        tree_ok = false;
      }
      const std::string tag =
          "_f" + std::to_string(f) + "_n" + std::to_string(n);
      gate.Metric("messages_tree" + tag, stats.total_messages, "msgs");
      gate.Metric("max_endpoint_fanout_tree" + tag,
                  stats.max_endpoint_fanout, "dsts");
    }
  }
  std::printf("shape check: %s\n",
              ok ? "cruz = 4N exactly" : "UNEXPECTED COUNTS");
  std::printf("tree check: %s\n",
              tree_ok ? "total = 4N + 4*ceil(N/F) exactly; fan-out = "
                        "max(ceil(N/F), largest shard)"
                      : "UNEXPECTED COUNTS");
  return ok && tree_ok ? 0 : 1;
}
