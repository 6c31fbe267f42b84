// Allocation regression tests for the TCP data path and the trace ring.
//
// Every global operator new in this binary bumps a counter and forwards to
// malloc (every delete to free), so sanitizers still see each byte. After
// a warm-up, steady-state slm iterations — one 4 KiB halo row each way
// over TCP per rank, through syscalls, send and receive buffers, the
// netstack, NIC and switch — must not allocate at all: buffers belong to
// the stack, the connection or the program object and are reused. The
// same holds for a full trace ring recording events.
#include <cstdint>
#include <cstdlib>
#include <new>
#include <string>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "apps/slm.h"
#include "cruz/cluster.h"
#include "obs/trace.h"

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

// Once the ring is full, recording allocates nothing inside the Tracer:
// neither the coordination message instants a control port records per
// datagram nor span pairs with args added at close. Attributes are built
// before the counted region and moved in, as a call site hands them over.
TEST(Alloc, FullTraceRingRecordsWithoutAllocating) {
  obs::Tracer tracer;
  TimeNs now = 0;
  tracer.SetClock([&now] { return now; });
  auto send = [](std::uint64_t i) {
    return obs::TraceAttrs{}
        .Op(i / 64 + 1)
        .Agent("node" + std::to_string(i % 512))
        .Arg("type", "checkpoint-done")
        .Arg("corr", std::to_string(i / 64 + 1) + ":checkpoint-done:10.0." +
                         std::to_string(i % 250) + ".7:" +
                         std::to_string(1000 + i % 9000))
        .Arg("dst", "10.0.1." + std::to_string(i % 250));
  };
  auto save = [](std::uint64_t i) {
    return obs::TraceAttrs{}
        .Op(i + 1)
        .Phase("save")
        .Agent("node" + std::to_string(i % 512))
        .Pod(i % 7 + 1)
        .Arg("mode", "stop-the-world");
  };
  using Args = std::vector<std::pair<std::string, std::string>>;
  auto outcome = [](std::uint64_t i) {
    return Args{{"bytes", std::to_string(4096 * (i % 300))}, {"outcome", "ok"}};
  };
  auto span_pair = [&](obs::TraceAttrs attrs, Args extra) {
    obs::SpanId id = tracer.BeginSpan("agent", "agent.save", std::move(attrs));
    ++now;
    tracer.EndSpan(id, std::move(extra));
  };

  // Warm-up: fill the ring twice over (and the open-span pool) with the
  // same shapes.
  for (std::uint64_t i = 0; i < 2 * tracer.capacity(); ++i) {
    ++now;
    if (i % 16 == 0) {
      span_pair(save(i), outcome(i));
    } else {
      tracer.Instant("coord", "coord.msg.send", send(i));
    }
  }
  ASSERT_GT(tracer.dropped(), 0u);

  constexpr std::size_t kInstants = 10000;
  constexpr std::size_t kSpans = 1000;
  std::vector<obs::TraceAttrs> sends;
  std::vector<obs::TraceAttrs> saves;
  std::vector<Args> outcomes;
  for (std::uint64_t i = 0; i < kInstants; ++i) sends.push_back(send(i));
  for (std::uint64_t i = 0; i < kSpans; ++i) {
    saves.push_back(save(i));
    outcomes.push_back(outcome(i));
  }

  const std::uint64_t allocations_before = g_allocations;
  for (std::size_t i = 0; i < kInstants; ++i) {
    ++now;
    tracer.Instant("coord", "coord.msg.send", std::move(sends[i]));
  }
  for (std::size_t i = 0; i < kSpans; ++i) {
    obs::SpanId id =
        tracer.BeginSpan("agent", "agent.save", std::move(saves[i]));
    ++now;
    tracer.EndSpan(id, std::move(outcomes[i]));
  }
  const std::uint64_t allocations = g_allocations - allocations_before;

  EXPECT_EQ(allocations, 0u)
      << allocations << " heap allocations for " << kInstants
      << " instants and " << kSpans << " span pairs into a full ring";
  EXPECT_EQ(tracer.events().size(), tracer.capacity());
  EXPECT_EQ(tracer.events().back().name, "agent.save");
}

}  // namespace
}  // namespace cruz
