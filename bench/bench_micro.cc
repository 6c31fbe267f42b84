// Micro-benchmarks (google-benchmark) for the substrates the experiments
// sit on: checkpoint image codec, TCP connection machinery, sparse
// memory, CRC32, the bystander cost of a flooded ARP, the event queue
// under timer churn, the trace ring, and single-node capture/restore.
#include <benchmark/benchmark.h>

#include "apps/programs.h"
#include "ckpt/engine.h"
#include "common/crc32_detail.h"
#include "cruz/cluster.h"
#include "common/rng.h"
#include "net/packet.h"
#include "obs/trace.h"
#include "os/node.h"
#include "sim/event_queue.h"
#include "tcp/connection.h"

namespace {

using namespace cruz;

// Each CRC-32 kernel at a journal record (64 B), a page (4 KiB) and an
// slm image (2 MiB). The CLMUL kernel reports an error where this CPU
// lacks PCLMULQDQ.
void RunCrc32Kernel(benchmark::State& state, detail::Crc32Kernel kernel) {
  if (kernel == nullptr) {
    state.SkipWithError("kernel not available on this CPU");
    return;
  }
  Bytes data(static_cast<std::size_t>(state.range(0)), 0xA5);
  for (auto _ : state) {
    benchmark::DoNotOptimize(kernel(0xFFFFFFFFu, data));
  }
  state.SetBytesProcessed(static_cast<std::int64_t>(state.iterations()) *
                          state.range(0));
}

void BM_Crc32Portable(benchmark::State& state) {
  RunCrc32Kernel(state, &detail::Crc32Portable);
}
BENCHMARK(BM_Crc32Portable)->Arg(64)->Arg(4096)->Arg(2 << 20);

void BM_Crc32Clmul(benchmark::State& state) {
  RunCrc32Kernel(state, detail::Crc32ClmulKernel());
}
BENCHMARK(BM_Crc32Clmul)->Arg(64)->Arg(4096)->Arg(2 << 20);

// One gratuitous ARP flooded from one of N idle nodes to the other N - 1.
// With held:0 no stack has talked to the announced address, so the
// switch's ARP filter index hands the frame to none of them. With held:1
// every stack holds an entry for it, so every port takes the frame: NIC
// filter, the in-place EtherType peek, ARP decode and a neighbour-cache
// refresh. `per_port` is host time per switch port.
void BM_ArpFlood(benchmark::State& state) {
  const auto n = static_cast<std::uint32_t>(state.range(0));
  const bool held = state.range(1) != 0;
  sim::Simulator sim(1);
  net::EthernetSwitch ethernet(sim, net::LinkParams{});
  os::NetworkFileSystem fs;
  std::vector<std::unique_ptr<os::Node>> nodes;
  nodes.reserve(n);
  for (std::uint32_t i = 0; i < n; ++i) {
    os::NodeConfig config;
    config.ip = net::Ipv4Address::FromOctets(
        10, 0, static_cast<std::uint8_t>((i + 1) >> 8),
        static_cast<std::uint8_t>(i + 1));
    nodes.push_back(std::make_unique<os::Node>(
        sim, ethernet, fs, "n" + std::to_string(i), i, config));
  }
  const net::Ipv4Address moved = net::Ipv4Address::Parse("10.0.250.1");
  const net::MacAddress mac = net::MacAddress::FromId(0xA4F);
  if (held) {
    // Every other stack starts resolving the address; the first
    // announcement completes them all.
    for (std::uint32_t i = 1; i < n; ++i) {
      net::Ipv4Packet pkt;
      pkt.src = nodes[i]->ip();
      pkt.dst = moved;
      pkt.proto = net::IpProto::kUdp;
      nodes[i]->stack().SendIpv4(std::move(pkt));
    }
    nodes.front()->stack().AnnounceAddress(moved, mac);
    sim.Run();
    if (!nodes.back()->stack().HasArpEntry(moved)) {
      state.SkipWithError("the stacks did not resolve the address");
    }
  }
  for (auto _ : state) {
    nodes.front()->stack().AnnounceAddress(moved, mac);
    sim.Run();
    benchmark::DoNotOptimize(sim.events_executed());
  }
  state.counters["per_port"] = benchmark::Counter(
      static_cast<double>(n - 1),
      benchmark::Counter::kIsIterationInvariantRate |
          benchmark::Counter::kInvert);
}
BENCHMARK(BM_ArpFlood)
    ->ArgNames({"nodes", "held"})
    ->Args({64, 0})
    ->Args({512, 0})
    ->Args({512, 1});

// N periodic timers pending at once, each re-arming itself when it fires,
// while one random timer per round is cancelled and re-armed early (an
// RTO pushed back by an ACK). One round is a pop, two schedules and a
// cancel; `per_op` is host time per queue operation, at the heap sizes
// of a small run (128) and of one that leaks a dead event per socket.
struct ChurnQueue {
  sim::EventQueue queue;
  Rng rng{7};
  TimeNs now = 0;
  std::vector<sim::EventId> ids;

  void Arm(std::uint32_t slot);
};

struct Rearm {
  ChurnQueue* churn;
  std::uint32_t slot;
  void operator()() const { churn->Arm(slot); }
};

void ChurnQueue::Arm(std::uint32_t slot) {
  ids[slot] = queue.ScheduleAt(now + 1 + rng.NextBelow(kMillisecond),
                               Rearm{this, slot});
}

void BM_EventQueueChurn(benchmark::State& state) {
  const auto n = static_cast<std::uint32_t>(state.range(0));
  ChurnQueue churn;
  churn.ids.resize(n);
  for (std::uint32_t slot = 0; slot < n; ++slot) churn.Arm(slot);
  for (auto _ : state) {
    sim::EventQueue::Callback fire = churn.queue.PopNext(&churn.now);
    fire();
    auto slot = static_cast<std::uint32_t>(churn.rng.NextBelow(n));
    churn.queue.Cancel(churn.ids[slot]);
    churn.Arm(slot);
  }
  benchmark::DoNotOptimize(churn.queue.size());
  state.counters["per_op"] = benchmark::Counter(
      4, benchmark::Counter::kIsIterationInvariantRate |
             benchmark::Counter::kInvert);
}
BENCHMARK(BM_EventQueueChurn)->Arg(128)->Arg(16384);

void BM_MemorySparseWrite(benchmark::State& state) {
  Bytes chunk(4096, 0x5A);
  for (auto _ : state) {
    os::Memory mem;
    for (int i = 0; i < state.range(0); ++i) {
      mem.WriteBytes(static_cast<std::uint64_t>(i) * os::kPageSize, chunk);
    }
    benchmark::DoNotOptimize(mem.PageCount());
  }
}
BENCHMARK(BM_MemorySparseWrite)->Arg(64)->Arg(512);

// One slm rank iteration's memory calls on a 515-page process in the slm
// layout (args page, status page, halo page, 512-row grid): the args
// read, three 4 KiB row reads, two row writes and the status counter's
// ReadU64/WriteU64. Consecutive calls land on different page-table
// leaves, as in the program. `per_op` is host time per Memory call.
void BM_MemoryRowAccess(benchmark::State& state) {
  constexpr std::uint64_t kArgs = 0x1000;
  constexpr std::uint64_t kStatus = 0x200000;
  constexpr std::uint64_t kHalo = 0x300000;
  constexpr std::uint64_t kGrid = 0x400000;
  constexpr std::size_t kCols = 512;
  constexpr std::uint64_t kRowBytes = kCols * sizeof(double);
  const auto rows = static_cast<std::uint64_t>(state.range(0));
  Rng rng(3);
  std::vector<double> row0(kCols), bottom(kCols), halo(kCols);
  for (double& v : row0) v = rng.NextDouble();
  os::Memory mem;
  mem.WriteBytes(kArgs, Bytes(64, 0x11));
  mem.WriteU64(kStatus, 0);
  mem.WriteF64s(kHalo, row0);
  for (std::uint64_t r = 0; r < rows; ++r) {
    mem.WriteF64s(kGrid + r * kRowBytes, row0);
  }
  const std::uint64_t bottom_addr = kGrid + (rows - 1) * kRowBytes;
  std::array<std::uint8_t, 64> args{};
  for (auto _ : state) {
    mem.ReadBytes(kArgs, args.data(), args.size());
    mem.ReadF64s(kGrid, row0);
    mem.ReadF64s(bottom_addr, bottom);
    mem.ReadF64s(kHalo, halo);
    mem.WriteF64s(kGrid, row0);
    mem.WriteF64s(bottom_addr, bottom);
    mem.WriteU64(kStatus, mem.ReadU64(kStatus) + args[0]);
    benchmark::DoNotOptimize(halo.data());
    benchmark::ClobberMemory();
  }
  benchmark::DoNotOptimize(mem.ReadU64(kStatus));
  state.counters["per_op"] = benchmark::Counter(
      8, benchmark::Counter::kIsIterationInvariantRate |
             benchmark::Counter::kInvert);
}
BENCHMARK(BM_MemoryRowAccess)->Arg(512);

// One coord.msg.send-shaped instant (op, agent and three args, as a
// control port records per datagram) into a full trace ring of the
// default capacity, so each event reuses the oldest one's record. The
// attributes are built once, outside the loop. `per_op` is host time per
// recorded event.
void BM_TraceInstantFullRing(benchmark::State& state) {
  obs::Tracer tracer;
  TimeNs now = 0;
  tracer.SetClock([&now] { return now; });
  std::vector<obs::TraceAttrs> sends;
  for (std::uint64_t i = 0; i < 512; ++i) {
    const std::string seq = std::to_string(1000 + i);
    sends.push_back(obs::TraceAttrs{}
                        .Op(7)
                        .Agent("node" + std::to_string(i))
                        .Arg("type", "checkpoint")
                        .Arg("corr", "7:checkpoint:10.0.0.1:" + seq)
                        .Arg("dst", "10.0.1." + std::to_string(i % 250)));
  }
  for (std::size_t i = 0; i <= tracer.capacity(); ++i) {
    tracer.Instant("coord", "coord.msg.send", sends[i % sends.size()]);
  }
  std::size_t i = 0;
  for (auto _ : state) {
    ++now;
    tracer.Instant("coord", "coord.msg.send", sends[i]);
    if (++i == sends.size()) i = 0;
  }
  benchmark::DoNotOptimize(tracer.dropped());
  state.counters["per_op"] = benchmark::Counter(
      1, benchmark::Counter::kIsIterationInvariantRate |
             benchmark::Counter::kInvert);
}
BENCHMARK(BM_TraceInstantFullRing);

// The TCP segment codec as the stack runs it: Ethernet, IPv4 and TCP
// headers plus the payload written into one reused frame buffer in one
// pass, then IPv4 and TCP parsed back as views over the frame.
void BM_TcpSegmentCodec(benchmark::State& state) {
  const Bytes payload(static_cast<std::size_t>(state.range(0)), 0x42);
  tcp::TcpSegment seg;
  seg.src_port = 1;
  seg.dst_port = 2;
  seg.seq = 12345;
  seg.ack = 67890;
  seg.ack_flag = true;
  seg.payload = payload;
  net::Ipv4Header ip;
  ip.src = net::Ipv4Address::Parse("10.0.0.1");
  ip.dst = net::Ipv4Address::Parse("10.0.0.2");
  ip.proto = net::IpProto::kTcp;
  Bytes frame;
  for (auto _ : state) {
    ByteWriter w(std::move(frame), net::kEthernetHeaderSize +
                                       net::kIpv4HeaderSize + seg.WireSize());
    net::EthernetFrame::EncodeHeader(w, net::MacAddress{}, net::MacAddress{},
                                     net::EtherType::kIpv4);
    ip.EncodeHeader(w, seg.WireSize());
    seg.EncodeInto(w);
    frame = w.Take();
    net::Ipv4View rx = net::Ipv4View::Parse(
        ByteSpan(frame).subspan(net::kEthernetHeaderSize));
    benchmark::DoNotOptimize(tcp::TcpSegment::Decode(rx.payload));
  }
  state.SetBytesProcessed(static_cast<std::int64_t>(state.iterations()) *
                          state.range(0));
}
BENCHMARK(BM_TcpSegmentCodec)->Arg(64)->Arg(1460);

// Simulated TCP throughput: how much simulated data the whole
// stack (program -> syscalls -> TCP -> switch) moves per wall-second.
void BM_SimulatedStreamTransfer(benchmark::State& state) {
  for (auto _ : state) {
    ClusterConfig config;
    config.num_nodes = 2;
    Cluster cluster(config);
    os::PodId rp = cluster.CreatePod(1, "r");
    net::Ipv4Address rip = cluster.pods(1).Find(rp)->ip;
    cluster.pods(1).SpawnInPod(rp, "cruz.stream_receiver",
                               apps::StreamReceiverArgs(9100));
    cluster.sim().RunFor(5 * kMillisecond);
    os::PodId sp = cluster.CreatePod(0, "s");
    cluster.pods(0).SpawnInPod(
        sp, "cruz.stream_sender",
        apps::StreamSenderArgs(
            rip, 9100, static_cast<std::uint64_t>(state.range(0))));
    cluster.sim().RunFor(30 * kSecond);
  }
  state.SetBytesProcessed(static_cast<std::int64_t>(state.iterations()) *
                          state.range(0));
}
BENCHMARK(BM_SimulatedStreamTransfer)->Arg(1 << 20)->Unit(
    benchmark::kMillisecond);

// Image serialize + deserialize for a pod with a grid-sized process.
void BM_CheckpointImageCodec(benchmark::State& state) {
  ClusterConfig config;
  config.num_nodes = 1;
  Cluster cluster(config);
  os::PodId pod = cluster.CreatePod(0, "job");
  cluster.pods(0).SpawnInPod(pod, "cruz.counter",
                             apps::CounterArgs(1u << 30));
  cluster.sim().RunFor(kMillisecond);
  // Give the process a multi-megabyte address space.
  os::Pid real = cluster.pods(0).ToRealPid(pod, 1);
  os::Process* proc = cluster.node(0).os().FindProcess(real);
  Bytes page(os::kPageSize, 0x3C);
  for (int i = 0; i < state.range(0); ++i) {
    proc->memory().InstallPage(0x1000 + static_cast<std::uint64_t>(i),
                               page);
  }
  ckpt::PodCheckpoint ck =
      ckpt::CheckpointEngine::CapturePod(cluster.pods(0), pod);
  for (auto _ : state) {
    Bytes image = ck.Serialize();
    benchmark::DoNotOptimize(ckpt::PodCheckpoint::Deserialize(image));
  }
  state.SetBytesProcessed(static_cast<std::int64_t>(state.iterations()) *
                          state.range(0) * os::kPageSize);
}
BENCHMARK(BM_CheckpointImageCodec)->Arg(256)->Arg(1024)->Unit(
    benchmark::kMillisecond);

// Full single-node capture+restore cycle.
void BM_CaptureRestoreCycle(benchmark::State& state) {
  for (auto _ : state) {
    ClusterConfig config;
    config.num_nodes = 1;
    Cluster cluster(config);
    os::PodId pod = cluster.CreatePod(0, "job");
    cluster.pods(0).SpawnInPod(pod, "cruz.counter",
                               apps::CounterArgs(1u << 30));
    cluster.sim().RunFor(10 * kMillisecond);
    ckpt::PodCheckpoint ck =
        ckpt::CheckpointEngine::CapturePod(cluster.pods(0), pod);
    cluster.pods(0).DestroyPod(pod);
    os::PodId restored =
        ckpt::CheckpointEngine::RestorePod(cluster.pods(0), ck);
    ckpt::CheckpointEngine::ResumePod(cluster.pods(0), restored);
    cluster.sim().RunFor(kMillisecond);
    benchmark::DoNotOptimize(restored);
  }
}
BENCHMARK(BM_CaptureRestoreCycle)->Unit(benchmark::kMicrosecond);

}  // namespace

BENCHMARK_MAIN();
