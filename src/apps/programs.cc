#include "apps/programs.h"

#include <algorithm>
#include <cstring>
#include <memory>

#include "common/sysresult.h"

namespace cruz::apps {

using os::Fd;
using os::ProcessCtx;

RingArgs::RingArgs(ProcessCtx& ctx) : size_(ctx.Reg(2)) {
  CRUZ_CHECK(size_ <= kMaxSize, "ring program args are too long");
  ctx.Mem().ReadBytes(ctx.Reg(1), buf_.data(), size_);
  cruz::ByteReader r(cruz::ByteSpan(buf_.data(), size_));
  rank_ = r.GetU32();
  nranks_ = r.GetU32();
  port_ = r.GetU16();
  peers_ = r.GetU32();
  r.Skip(4ull * peers_);
}

net::Ipv4Address RingArgs::Peer(std::uint32_t i) const {
  CRUZ_CHECK(i < peers_, "ring peer index out of range");
  cruz::ByteReader r(cruz::ByteSpan(buf_.data(), size_));
  r.Skip(kPeerListOffset + 4ull * i);
  return net::Ipv4Address{r.GetU32()};
}

cruz::ByteReader RingArgs::Fields() const {
  cruz::ByteReader r(cruz::ByteSpan(buf_.data(), size_));
  r.Skip(kPeerListOffset + 4ull * peers_);
  return r;
}

namespace {

// Register bank conventions shared by the programs below:
//   r0 = pc, r1 = args addr, r2 = args len, r3.. = program-specific.

Fd FdReg(ProcessCtx& ctx, int reg) { return static_cast<Fd>(ctx.Reg(reg)); }

// ---------------------------------------------------------------------------
// cruz.counter
// ---------------------------------------------------------------------------

class CounterProgram : public os::Program {
 public:
  void Step(ProcessCtx& ctx) override {
    if (ctx.Pc() == 0) {
      cruz::Bytes args = ctx.Mem().ReadBytes(ctx.Reg(1), ctx.Reg(2));
      cruz::ByteReader r(args);
      ctx.Reg(3) = r.GetU64();
      ctx.Pc() = 1;
      return;
    }
    std::uint64_t count = ctx.Mem().ReadU64(kStatusAddr);
    ctx.Mem().WriteU64(kStatusAddr, count + 1);
    ctx.ChargeCpu(10 * kMicrosecond);
    if (count + 1 >= ctx.Reg(3)) ctx.ExitProcess(0);
  }
};

// ---------------------------------------------------------------------------
// cruz.echo_server — loops forever, serving one connection at a time.
// ---------------------------------------------------------------------------

class EchoServerProgram : public os::Program {
 public:
  void Step(ProcessCtx& ctx) override {
    enum : std::uint64_t { kInit, kAccept, kEcho };
    switch (ctx.Pc()) {
      case kInit: {
        cruz::Bytes args = ctx.Mem().ReadBytes(ctx.Reg(1), ctx.Reg(2));
        cruz::ByteReader r(args);
        std::uint16_t port = r.GetU16();
        SysResult fd = ctx.SocketTcp();
        if (!SysOk(fd) ||
            !SysOk(ctx.Bind(static_cast<Fd>(fd),
                            net::Endpoint{net::kAnyAddress, port})) ||
            !SysOk(ctx.Listen(static_cast<Fd>(fd), 16))) {
          ctx.ExitProcess(1);
          return;
        }
        ctx.Reg(3) = static_cast<std::uint64_t>(fd);
        ctx.Pc() = kAccept;
        break;
      }
      case kAccept: {
        SysResult conn = ctx.Accept(FdReg(ctx, 3));
        if (SysErrno(conn) == CRUZ_EAGAIN) {
          ctx.BlockOnReadable(FdReg(ctx, 3));
          return;
        }
        if (!SysOk(conn)) {
          ctx.ExitProcess(2);
          return;
        }
        ctx.Reg(4) = static_cast<std::uint64_t>(conn);
        ctx.Pc() = kEcho;
        break;
      }
      case kEcho: {
        cruz::Bytes buf;
        SysResult n = ctx.RecvTcp(FdReg(ctx, 4), buf, 8192);
        if (SysErrno(n) == CRUZ_EAGAIN) {
          ctx.BlockOnReadable(FdReg(ctx, 4));
          return;
        }
        if (n <= 0) {  // EOF or error: back to accepting
          ctx.Close(FdReg(ctx, 4));
          ctx.Pc() = kAccept;
          return;
        }
        ctx.SendTcp(FdReg(ctx, 4), buf);
        std::uint64_t echoed = ctx.Mem().ReadU64(kStatusAddr);
        ctx.Mem().WriteU64(kStatusAddr,
                           echoed + static_cast<std::uint64_t>(n));
        break;
      }
    }
  }
};

// ---------------------------------------------------------------------------
// cruz.echo_client — request/response loop with verification.
//
// Memory layout: kStatusAddr+0 = messages completed, +8 = mismatches.
// Registers: r3 = fd, r4 = message index, r5 = bytes echoed back so far
// for the current message, r6 = bytes sent for the current message.
// ---------------------------------------------------------------------------

class EchoClientProgram : public os::Program {
 public:
  void Step(ProcessCtx& ctx) override {
    enum : std::uint64_t { kInit, kConnect, kSend, kRecv, kPause };
    // ip, port, messages, msg_len, interval (EchoClientArgs).
    const auto args = ReadFixedArgs<4 + 2 + 4 + 4 + 8>(ctx);
    cruz::ByteReader r(args);
    net::Endpoint server{net::Ipv4Address{r.GetU32()}, r.GetU16()};
    std::uint32_t messages = r.GetU32();
    std::uint32_t msg_len = r.GetU32();
    DurationNs interval = r.GetU64();

    switch (ctx.Pc()) {
      case kInit: {
        SysResult fd = ctx.SocketTcp();
        if (!SysOk(fd)) {
          ctx.ExitProcess(1);
          return;
        }
        ctx.Reg(3) = static_cast<std::uint64_t>(fd);
        ctx.Pc() = kConnect;
        break;
      }
      case kConnect: {
        SysResult res = ctx.Connect(FdReg(ctx, 3), server);
        if (res == 0) {
          ctx.Pc() = kSend;
          ctx.Reg(5) = 0;
          ctx.Reg(6) = 0;
          return;
        }
        Errno e = SysErrno(res);
        if (e == CRUZ_EINPROGRESS || e == CRUZ_EALREADY) {
          ctx.BlockOnWritable(FdReg(ctx, 3));
          return;
        }
        ctx.ExitProcess(static_cast<int>(e));
        break;
      }
      case kSend: {
        // Message i's bytes are PatternByte(i * msg_len + k).
        std::uint64_t base = ctx.Reg(4) * msg_len;
        cruz::Bytes msg(msg_len - static_cast<std::size_t>(ctx.Reg(6)));
        FillPattern(base + ctx.Reg(6), msg);
        SysResult n = ctx.SendTcp(FdReg(ctx, 3), msg);
        if (SysErrno(n) == CRUZ_EAGAIN) {
          ctx.BlockOnWritable(FdReg(ctx, 3));
          return;
        }
        if (n < 0) {
          ctx.ExitProcess(static_cast<int>(SysErrno(n)));
          return;
        }
        ctx.Reg(6) += static_cast<std::uint64_t>(n);
        if (ctx.Reg(6) >= msg_len) ctx.Pc() = kRecv;
        break;
      }
      case kRecv: {
        cruz::Bytes buf;
        SysResult n = ctx.RecvTcp(FdReg(ctx, 3), buf, 8192);
        if (SysErrno(n) == CRUZ_EAGAIN) {
          ctx.BlockOnReadable(FdReg(ctx, 3));
          return;
        }
        if (n <= 0) {
          ctx.ExitProcess(n == 0 ? 10 : static_cast<int>(SysErrno(n)));
          return;
        }
        std::uint64_t base = ctx.Reg(4) * msg_len;
        std::uint64_t mismatches = ctx.Mem().ReadU64(kStatusAddr + 8);
        mismatches += CountPatternMismatches(base + ctx.Reg(5), buf);
        ctx.Mem().WriteU64(kStatusAddr + 8, mismatches);
        ctx.Reg(5) += buf.size();
        if (ctx.Reg(5) >= msg_len) {
          ctx.Reg(4) += 1;
          ctx.Mem().WriteU64(kStatusAddr, ctx.Reg(4));
          ctx.Reg(5) = 0;
          ctx.Reg(6) = 0;
          if (ctx.Reg(4) >= messages) {
            ctx.Close(FdReg(ctx, 3));
            ctx.ExitProcess(0);
            return;
          }
          ctx.Pc() = kPause;
        }
        break;
      }
      case kPause: {
        ctx.Pc() = kSend;
        if (interval > 0) {
          ctx.Sleep(interval);
          return;
        }
        break;
      }
    }
  }
};

// ---------------------------------------------------------------------------
// cruz.stream_sender — sends the deterministic pattern at maximum rate.
//
// Memory: kStatusAddr = bytes sent. Registers: r3 = fd.
// ---------------------------------------------------------------------------

class StreamSenderProgram : public os::Program {
 public:
  void Step(ProcessCtx& ctx) override {
    enum : std::uint64_t { kInit, kConnect, kStream };
    // ip, port, total bytes (StreamSenderArgs).
    const auto args = ReadFixedArgs<4 + 2 + 8>(ctx);
    cruz::ByteReader r(args);
    net::Endpoint server{net::Ipv4Address{r.GetU32()}, r.GetU16()};
    std::uint64_t total = r.GetU64();

    switch (ctx.Pc()) {
      case kInit: {
        SysResult fd = ctx.SocketTcp();
        if (!SysOk(fd)) {
          ctx.ExitProcess(1);
          return;
        }
        ctx.Reg(3) = static_cast<std::uint64_t>(fd);
        ctx.Pc() = kConnect;
        break;
      }
      case kConnect: {
        SysResult res = ctx.Connect(FdReg(ctx, 3), server);
        if (res == 0) {
          ctx.Pc() = kStream;
          return;
        }
        Errno e = SysErrno(res);
        if (e == CRUZ_EINPROGRESS || e == CRUZ_EALREADY) {
          ctx.BlockOnWritable(FdReg(ctx, 3));
          return;
        }
        ctx.ExitProcess(static_cast<int>(e));
        break;
      }
      case kStream: {
        std::uint64_t sent = ctx.Mem().ReadU64(kStatusAddr);
        if (total != 0 && sent >= total) {
          ctx.Close(FdReg(ctx, 3));
          ctx.ExitProcess(0);
          return;
        }
        std::size_t chunk = 8192;
        if (total != 0) {
          chunk = std::min<std::uint64_t>(chunk, total - sent);
        }
        // Pattern only what the socket takes now. A full send buffer
        // still gets a one-byte send, which reports EAGAIN.
        SysResult space = ctx.TcpSendSpace(FdReg(ctx, 3));
        if (SysOk(space)) {
          chunk = std::clamp<std::size_t>(static_cast<std::size_t>(space), 1,
                                          chunk);
        }
        cruz::Bytes buf(chunk);
        FillPattern(sent, buf);
        SysResult n = ctx.SendTcp(FdReg(ctx, 3), buf);
        if (SysErrno(n) == CRUZ_EAGAIN) {
          ctx.BlockOnWritable(FdReg(ctx, 3));
          return;
        }
        if (n < 0) {
          ctx.ExitProcess(static_cast<int>(SysErrno(n)));
          return;
        }
        ctx.Mem().WriteU64(kStatusAddr, sent + static_cast<std::uint64_t>(n));
        break;
      }
    }
  }
};

// ---------------------------------------------------------------------------
// cruz.stream_receiver — accepts one stream and verifies the pattern.
//
// Memory: kStatusAddr = bytes received, +8 = mismatches. Registers:
// r3 = listen fd, r4 = conn fd.
// ---------------------------------------------------------------------------

class StreamReceiverProgram : public os::Program {
 public:
  void Step(ProcessCtx& ctx) override {
    enum : std::uint64_t { kInit, kAccept, kDrain };
    // port, burst interval, burst bytes (StreamReceiverArgs).
    const auto args = ReadFixedArgs<2 + 8 + 4>(ctx);
    cruz::ByteReader args_reader(args);
    std::uint16_t port = args_reader.GetU16();
    DurationNs burst_interval = args_reader.GetU64();
    std::uint32_t burst_bytes = args_reader.GetU32();
    switch (ctx.Pc()) {
      case kInit: {
        SysResult fd = ctx.SocketTcp();
        if (!SysOk(fd) ||
            !SysOk(ctx.Bind(static_cast<Fd>(fd),
                            net::Endpoint{net::kAnyAddress, port})) ||
            !SysOk(ctx.Listen(static_cast<Fd>(fd), 4))) {
          ctx.ExitProcess(1);
          return;
        }
        ctx.Reg(3) = static_cast<std::uint64_t>(fd);
        ctx.Pc() = kAccept;
        break;
      }
      case kAccept: {
        SysResult conn = ctx.Accept(FdReg(ctx, 3));
        if (SysErrno(conn) == CRUZ_EAGAIN) {
          ctx.BlockOnReadable(FdReg(ctx, 3));
          return;
        }
        if (!SysOk(conn)) {
          ctx.ExitProcess(2);
          return;
        }
        ctx.Reg(4) = static_cast<std::uint64_t>(conn);
        ctx.Pc() = kDrain;
        break;
      }
      case kDrain: {
        // One drain burst: up to burst_bytes across multiple reads.
        std::uint32_t drained = 0;
        for (;;) {
          cruz::Bytes buf;
          std::size_t want = std::min<std::uint32_t>(
              65536, burst_bytes - drained);
          SysResult n = ctx.RecvTcp(FdReg(ctx, 4), buf, want);
          if (SysErrno(n) == CRUZ_EAGAIN) {
            if (burst_interval > 0) {
              ctx.Sleep(burst_interval);  // bursty consumer
            } else {
              ctx.BlockOnReadable(FdReg(ctx, 4));
            }
            return;
          }
          if (n == 0) {  // sender closed
            ctx.Close(FdReg(ctx, 4));
            ctx.ExitProcess(0);
            return;
          }
          if (n < 0) {
            ctx.ExitProcess(static_cast<int>(SysErrno(n)));
            return;
          }
          std::uint64_t received = ctx.Mem().ReadU64(kStatusAddr);
          std::uint64_t mismatches = ctx.Mem().ReadU64(kStatusAddr + 8);
          mismatches += CountPatternMismatches(received, buf);
          ctx.Mem().WriteU64(kStatusAddr,
                             received + static_cast<std::uint64_t>(n));
          ctx.Mem().WriteU64(kStatusAddr + 8, mismatches);
          drained += static_cast<std::uint32_t>(n);
          if (drained >= burst_bytes) {
            if (burst_interval > 0) {
              ctx.Sleep(burst_interval);
            }
            return;
          }
        }
      }
    }
  }
};

// ---------------------------------------------------------------------------
// cruz.sysbench — a loop mixing computation with getpid() syscalls, used
// to measure Zap's interposition overhead (paper §6: < 0.5%).
// ---------------------------------------------------------------------------

class SysbenchProgram : public os::Program {
 public:
  void Step(ProcessCtx& ctx) override {
    // iterations, cpu per iteration, syscalls per iteration (SysbenchArgs).
    const auto args = ReadFixedArgs<8 + 8 + 4>(ctx);
    cruz::ByteReader r(args);
    std::uint64_t iterations = r.GetU64();
    DurationNs cpu = r.GetU64();
    std::uint32_t syscalls = r.GetU32();
    std::uint64_t done = ctx.Mem().ReadU64(kStatusAddr);
    if (done >= iterations) {
      ctx.ExitProcess(0);
      return;
    }
    for (std::uint32_t i = 0; i < syscalls; ++i) {
      ctx.Getpid();
    }
    ctx.ChargeCpu(cpu);
    ctx.Mem().WriteU64(kStatusAddr, done + 1);
  }
};

}  // namespace

void FillPattern(std::uint64_t offset, std::span<std::uint8_t> out) {
  // PatternByte(offset + k) as a running product: consecutive offsets'
  // products differ by one multiplier, so one add per byte replaces the
  // multiply.
  std::uint64_t x = offset * kPatternMultiplier;
  for (std::uint8_t& byte : out) {
    byte = static_cast<std::uint8_t>(x >> 56);
    x += kPatternMultiplier;
  }
}

std::uint64_t CountPatternMismatches(std::uint64_t offset,
                                     cruz::ByteSpan data) {
  // Compare against the expected pattern a block at a time; a clean
  // block (the common case) costs one memcmp.
  std::uint8_t expect[1024];
  std::uint64_t mismatches = 0;
  for (std::size_t k = 0; k < data.size(); k += sizeof(expect)) {
    const std::size_t n = std::min(sizeof(expect), data.size() - k);
    FillPattern(offset + k, std::span(expect, n));
    if (std::memcmp(data.data() + k, expect, n) == 0) continue;
    for (std::size_t i = 0; i < n; ++i) mismatches += data[k + i] != expect[i];
  }
  return mismatches;
}

void RegisterPrograms() {
  static const bool done = [] {
    auto& reg = os::ProgramRegistry::Instance();
    reg.Register("cruz.counter",
                 [] { return std::make_unique<CounterProgram>(); });
    reg.Register("cruz.echo_server",
                 [] { return std::make_unique<EchoServerProgram>(); });
    reg.Register("cruz.echo_client",
                 [] { return std::make_unique<EchoClientProgram>(); });
    reg.Register("cruz.stream_sender",
                 [] { return std::make_unique<StreamSenderProgram>(); });
    reg.Register("cruz.stream_receiver",
                 [] { return std::make_unique<StreamReceiverProgram>(); });
    reg.Register("cruz.sysbench",
                 [] { return std::make_unique<SysbenchProgram>(); });
    return true;
  }();
  (void)done;
}

cruz::Bytes CounterArgs(std::uint64_t iterations) {
  cruz::ByteWriter w;
  w.PutU64(iterations);
  return w.Take();
}

cruz::Bytes EchoServerArgs(std::uint16_t port) {
  cruz::ByteWriter w;
  w.PutU16(port);
  return w.Take();
}

cruz::Bytes EchoClientArgs(net::Ipv4Address server_ip, std::uint16_t port,
                           std::uint32_t messages, std::uint32_t msg_len,
                           DurationNs interval) {
  cruz::ByteWriter w;
  w.PutU32(server_ip.value);
  w.PutU16(port);
  w.PutU32(messages);
  w.PutU32(msg_len);
  w.PutU64(interval);
  return w.Take();
}

cruz::Bytes StreamSenderArgs(net::Ipv4Address server_ip, std::uint16_t port,
                             std::uint64_t total_bytes) {
  cruz::ByteWriter w;
  w.PutU32(server_ip.value);
  w.PutU16(port);
  w.PutU64(total_bytes);
  return w.Take();
}

cruz::Bytes StreamReceiverArgs(std::uint16_t port,
                               DurationNs burst_interval,
                               std::uint32_t burst_bytes) {
  cruz::ByteWriter w;
  w.PutU16(port);
  w.PutU64(burst_interval);
  w.PutU32(burst_bytes);
  return w.Take();
}

cruz::Bytes SysbenchArgs(std::uint64_t iterations,
                         DurationNs cpu_per_iteration,
                         std::uint32_t syscalls_per_iteration) {
  cruz::ByteWriter w;
  w.PutU64(iterations);
  w.PutU64(cpu_per_iteration);
  w.PutU32(syscalls_per_iteration);
  return w.Take();
}

EchoClientStatus ReadEchoClientStatus(const os::Process& proc) {
  EchoClientStatus s;
  s.messages_done = proc.memory().ReadU64(kStatusAddr);
  s.mismatches = proc.memory().ReadU64(kStatusAddr + 8);
  return s;
}

StreamStatus ReadStreamStatus(const os::Process& proc) {
  StreamStatus s;
  s.bytes = proc.memory().ReadU64(kStatusAddr);
  s.mismatches = proc.memory().ReadU64(kStatusAddr + 8);
  return s;
}

std::uint64_t ReadCounter(const os::Process& proc) {
  return proc.memory().ReadU64(kStatusAddr);
}

}  // namespace cruz::apps
