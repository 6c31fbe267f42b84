// §5.2 message complexity: Cruz's coordinated checkpoint exchanges the
// minimum messages needed for atomicity — O(N) — while flush-based
// protocols (MPVM, CoCheck, LAM-MPI) exchange markers between every pair
// of nodes, O(N²). This bench counts actual protocol messages for both,
// sweeping the node count, and checks the hierarchical coordinator's
// closed form (DESIGN.md §13) over the same sweep. It exits non-zero on
// any count that deviates, and runs as a ctest.
#include <algorithm>
#include <cstdio>

#include "apps/programs.h"
#include "cruz/cluster.h"

namespace {

cruz::coord::Coordinator::OpStats RunOnce(
    std::uint32_t nodes, cruz::coord::ProtocolVariant variant,
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
  coord::Coordinator::Options options;
  options.variant = variant;
  options.fan_out = fan_out;
  options.image_prefix = "/ckpt/msg";
  return cluster.RunCheckpoint(members, options);
}

std::uint32_t CountMessages(std::uint32_t nodes,
                            cruz::coord::ProtocolVariant variant) {
  auto stats = RunOnce(nodes, variant, /*fan_out=*/0);
  return stats.success ? stats.total_messages : 0;
}

}  // namespace

int main() {
  using cruz::coord::ProtocolVariant;

  std::printf("== Coordination message complexity: Cruz vs flush "
              "baseline ==\n\n");
  std::printf("%6s %12s %18s %14s\n", "nodes", "cruz msgs",
              "flush-baseline", "flush extra");
  bool ok = true;
  std::uint32_t prev_extra = 0;
  // The paper argues 2-8 nodes; the tail of the sweep goes well past
  // that to make the O(N) vs O(N^2) separation unmistakable.
  for (std::uint32_t n : {2u, 3u, 4u, 5u, 6u, 7u, 8u, 12u, 16u, 24u, 32u}) {
    std::uint32_t cruz_msgs =
        CountMessages(n, ProtocolVariant::kBlocking);
    std::uint32_t flush_msgs =
        CountMessages(n, ProtocolVariant::kFlushBaseline);
    std::uint32_t extra = flush_msgs - cruz_msgs;
    std::printf("%6u %12u %18u %14u\n", n, cruz_msgs, flush_msgs, extra);
    // Cruz: exactly 4 messages per member (checkpoint/done/continue/
    // continue-done) — linear. Flush adds N*(N-1) marker+ack traffic.
    if (cruz_msgs != 4 * n) ok = false;
    if (extra != 2 * n * (n - 1)) ok = false;
    if (n > 2 && extra <= prev_extra) ok = false;
    prev_extra = extra;
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
      auto stats = RunOnce(n, ProtocolVariant::kBlocking, f);
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
    }
  }
  std::printf("shape check: %s\n",
              ok ? "cruz = 4N exactly; baseline adds 2*N*(N-1) marker "
                   "messages"
                 : "UNEXPECTED COUNTS");
  std::printf("tree check: %s\n",
              tree_ok ? "total = 4N + 4*ceil(N/F) exactly; fan-out = "
                        "max(ceil(N/F), largest shard)"
                      : "UNEXPECTED COUNTS");
  return ok && tree_ok ? 0 : 1;
}
