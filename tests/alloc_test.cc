// Allocation regression test for the TCP data path.
//
// Every global operator new in this binary bumps a counter and forwards to
// malloc (every delete to free), so sanitizers still see each byte. After
// a warm-up, steady-state slm iterations — one 4 KiB halo row each way
// over TCP per rank, through syscalls, send and receive buffers, the
// netstack, NIC and switch — must not allocate at all: buffers belong to
// the stack, the connection or the program object and are reused.
#include <cstdint>
#include <cstdlib>
#include <new>

#include <gtest/gtest.h>

#include "apps/slm.h"
#include "cruz/cluster.h"

namespace {
std::uint64_t g_allocations = 0;

void* CountedAlloc(std::size_t n) {
  ++g_allocations;
  return std::malloc(n == 0 ? 1 : n);
}
}  // namespace

void* operator new(std::size_t n) {
  if (void* p = CountedAlloc(n)) return p;
  throw std::bad_alloc();
}
void* operator new[](std::size_t n) {
  if (void* p = CountedAlloc(n)) return p;
  throw std::bad_alloc();
}
void* operator new(std::size_t n, const std::nothrow_t&) noexcept {
  return CountedAlloc(n);
}
void* operator new[](std::size_t n, const std::nothrow_t&) noexcept {
  return CountedAlloc(n);
}
void operator delete(void* p) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }
void operator delete(void* p, const std::nothrow_t&) noexcept { std::free(p); }
void operator delete[](void* p, const std::nothrow_t&) noexcept {
  std::free(p);
}

namespace cruz {
namespace {

TEST(Alloc, SteadyStateSlmRowsAllocateNothing) {
  apps::RegisterSlmProgram();
  ClusterConfig config;
  config.num_nodes = 2;
  Cluster c(config);
  apps::SlmConfig base;
  base.nranks = 2;
  base.rows = 16;
  base.cols = 512;  // a 4 KiB row: three segments each way
  base.iterations = 1u << 31;
  base.exit_when_done = false;
  std::vector<os::PodId> pods;
  for (std::uint32_t r = 0; r < 2; ++r) {
    pods.push_back(c.CreatePod(r, "slm" + std::to_string(r)));
    base.peers.push_back(c.pods(r).Find(pods.back())->ip);
  }
  std::vector<os::Pid> vpids;
  for (std::uint32_t r = 0; r < 2; ++r) {
    apps::SlmConfig cfg = base;
    cfg.rank = r;
    vpids.push_back(
        c.pods(r).SpawnInPod(pods[r], "cruz.slm_rank", apps::SlmArgs(cfg)));
  }
  auto iterations = [&] {
    os::Pid pid = c.pods(0).ToRealPid(pods[0], vpids[0]);
    return apps::ReadSlmStatus(*c.node(0).os().FindProcess(pid)).iterations;
  };
  // Warm-up: connections, ARP, buffer pools and vector capacities settle.
  c.sim().RunFor(500 * kMillisecond);
  const std::uint64_t iterations_before = iterations();
  ASSERT_GT(iterations_before, 0u);

  const std::uint64_t allocations_before = g_allocations;
  c.sim().RunFor(kSecond);
  const std::uint64_t allocations = g_allocations - allocations_before;
  const std::uint64_t steady = iterations() - iterations_before;

  ASSERT_GE(steady, 100u);
  EXPECT_EQ(allocations, 0u)
      << static_cast<double>(allocations) / static_cast<double>(steady)
      << " heap allocations per iteration (a row each way per rank) over "
      << steady << " iterations";
}

}  // namespace
}  // namespace cruz
