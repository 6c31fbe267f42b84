// Reusable application programs for tests, examples, and benchmarks.
//
// All programs follow the transparent-checkpoint contract (see
// os/program.h): state lives exclusively in process memory and thread
// registers, so any of them can be checkpointed at an arbitrary instant
// and restored on another node. Progress counters are written to a
// well-known memory address (kStatusAddr) so harnesses can observe
// progress from outside without perturbing the process.
//
// Registered program names:
//   cruz.counter          — CPU loop; args: u64 iterations
//   cruz.echo_server      — TCP echo server; args: u16 port
//   cruz.echo_client      — TCP echo client; args: u32 ip, u16 port,
//                           u32 messages, u32 msg_len, u64 interval_ns
//   cruz.stream_sender    — max-rate TCP sender; args: u32 ip, u16 port,
//                           u64 total_bytes (0 = unbounded)
//   cruz.stream_receiver  — TCP sink verifying the pattern; args: u16 port
//   cruz.sysbench         — syscall-intensive loop for the runtime-overhead
//                           bench; args: u64 iterations, u64 cpu_ns_per_iter,
//                           u32 syscalls_per_iter
#pragma once

#include <array>
#include <cstdint>
#include <span>

#include "common/bytes.h"
#include "common/error.h"
#include "net/address.h"
#include "os/program.h"

namespace cruz::apps {

// Where programs publish progress counters (see each program's layout).
constexpr std::uint64_t kStatusAddr = 0x200000;

// Deterministic byte pattern used by the streaming pair; both ends compute
// it independently from the absolute stream offset, which makes loss,
// duplication, or reordering across a checkpoint detectable.
constexpr std::uint64_t kPatternMultiplier = 0x9E3779B97F4A7C15ull;
inline std::uint8_t PatternByte(std::uint64_t offset) {
  std::uint64_t x = offset * kPatternMultiplier;
  return static_cast<std::uint8_t>(x >> 56);
}

// Bulk forms for stream endpoints: FillPattern sets out[k] =
// PatternByte(offset + k); CountPatternMismatches counts the k with
// data[k] != PatternByte(offset + k).
void FillPattern(std::uint64_t offset, std::span<std::uint8_t> out);
std::uint64_t CountPatternMismatches(std::uint64_t offset, cruz::ByteSpan data);

// Ensures the program factories above are registered (call once; idempotent).
void RegisterPrograms();

// Copies a program's fixed-size argument block (address in r1, length in
// r2) into a stack buffer. Programs that keep no parsed copy re-read
// their args on every step, so this stays off the allocator.
template <std::size_t N>
std::array<std::uint8_t, N> ReadFixedArgs(os::ProcessCtx& ctx) {
  CRUZ_CHECK(ctx.Reg(2) == N, "program args have the wrong length");
  std::array<std::uint8_t, N> args;
  ctx.Mem().ReadBytes(ctx.Reg(1), args.data(), N);
  return args;
}

// The argument block of the ring programs (cruz.slm_rank,
// cruz.allreduce_rank): u32 rank, u32 nranks, u16 port and a u32-counted
// list of u32 peer addresses, then the program's own fields. Like
// ReadFixedArgs it copies the block into a stack buffer with one read
// (room for 247 peers), so re-reading it on every step stays off the
// allocator; the peer list is read only by Peer().
class RingArgs {
 public:
  explicit RingArgs(os::ProcessCtx& ctx);

  std::uint32_t rank() const { return rank_; }
  std::uint32_t nranks() const { return nranks_; }
  std::uint16_t port() const { return port_; }
  // The pod address of rank `i`.
  net::Ipv4Address Peer(std::uint32_t i) const;
  // A reader over the program's own fields, after the peer list.
  cruz::ByteReader Fields() const;

 private:
  static constexpr std::size_t kMaxSize = 1024;
  static constexpr std::size_t kPeerListOffset = 4 + 4 + 2 + 4;

  std::size_t size_;
  std::uint32_t rank_ = 0;
  std::uint32_t nranks_ = 0;
  std::uint16_t port_ = 0;
  std::uint32_t peers_ = 0;
  std::array<std::uint8_t, kMaxSize> buf_;
};

// --- argument builders -------------------------------------------------------

cruz::Bytes CounterArgs(std::uint64_t iterations);
cruz::Bytes EchoServerArgs(std::uint16_t port);
cruz::Bytes EchoClientArgs(net::Ipv4Address server_ip, std::uint16_t port,
                           std::uint32_t messages, std::uint32_t msg_len,
                           DurationNs interval);
cruz::Bytes StreamSenderArgs(net::Ipv4Address server_ip, std::uint16_t port,
                             std::uint64_t total_bytes);
// burst_interval > 0 makes the receiver a bursty consumer: it drains up
// to burst_bytes, then sleeps for the interval. This leaves data in the
// TCP receive buffer at any instant — which is what produces the Fig. 6
// "pulse" of buffered data delivered right after a checkpoint completes.
cruz::Bytes StreamReceiverArgs(std::uint16_t port,
                               DurationNs burst_interval = 0,
                               std::uint32_t burst_bytes = 65536);
cruz::Bytes SysbenchArgs(std::uint64_t iterations,
                         DurationNs cpu_per_iteration,
                         std::uint32_t syscalls_per_iteration);

// --- status readers (harness side) ---------------------------------------------

struct EchoClientStatus {
  std::uint64_t messages_done = 0;
  std::uint64_t mismatches = 0;
};
EchoClientStatus ReadEchoClientStatus(const os::Process& proc);

struct StreamStatus {
  std::uint64_t bytes = 0;       // sent or received
  std::uint64_t mismatches = 0;  // receiver only
};
StreamStatus ReadStreamStatus(const os::Process& proc);

std::uint64_t ReadCounter(const os::Process& proc);

}  // namespace cruz::apps
