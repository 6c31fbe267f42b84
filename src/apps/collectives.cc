#include "apps/collectives.h"

#include <memory>

#include "apps/minimsg.h"
#include "apps/programs.h"

namespace cruz::apps {

namespace {

// Memory layout (all state checkpointable):
//   kAccAddr + 0:  accumulator for the current all-reduce
//   kAccAddr + 8:  value being forwarded this ring step ("to_send")
//   kAccAddr + 16: receive scratch for the incoming value
constexpr std::uint64_t kAccAddr = 0x310000;

// AllreduceArgs' fields but the peer list, parsed on every step; kConnect
// looks its one peer up in the RingArgs.
struct Args {
  std::uint32_t rank = 0;
  std::uint32_t nranks = 0;
  std::uint16_t port = 0;
  std::uint32_t iterations = 0;
  DurationNs compute_per_iteration = 0;
  bool exit_when_done = false;
};

Args ParseArgs(const RingArgs& ring) {
  Args a;
  a.rank = ring.rank();
  a.nranks = ring.nranks();
  a.port = ring.port();
  cruz::ByteReader r = ring.Fields();
  a.iterations = r.GetU32();
  a.compute_per_iteration = r.GetU64();
  a.exit_when_done = r.GetBool();
  return a;
}

// Ring all-reduce for one 8-byte value: N-1 steps; in each step a rank
// sends what it received in the previous step (its own contribution in
// step 0), receives from the left, and accumulates.
class AllreduceRankProgram : public os::Program {
 public:
  // Registers: r3 listen fd, r4 right fd, r5 left fd, r6 io progress,
  // r7 ring step index.
  void Step(os::ProcessCtx& ctx) override {
    enum : std::uint64_t {
      kInit,
      kConnectStart,
      kConnect,
      kAccept,
      kBeginIteration,
      kSendStep,
      kRecvStep,
      kFinishStep,
      kVerify,
      kIdle,
    };
    const RingArgs ring(ctx);
    const Args cfg = ParseArgs(ring);

    switch (ctx.Pc()) {
      case kInit: {
        SysResult fd = ctx.SocketTcp();
        if (!SysOk(fd) ||
            !SysOk(ctx.Bind(static_cast<os::Fd>(fd),
                            net::Endpoint{net::kAnyAddress, cfg.port})) ||
            !SysOk(ctx.Listen(static_cast<os::Fd>(fd), 4))) {
          ctx.ExitProcess(10);
          return;
        }
        ctx.Reg(3) = static_cast<std::uint64_t>(fd);
        ctx.Pc() = kConnectStart;
        break;
      }
      case kConnectStart: {
        SysResult fd = ctx.SocketTcp();
        if (!SysOk(fd)) {
          ctx.ExitProcess(11);
          return;
        }
        ctx.Reg(4) = static_cast<std::uint64_t>(fd);
        ctx.Pc() = kConnect;
        break;
      }
      case kConnect: {
        net::Endpoint right{ring.Peer((cfg.rank + 1) % cfg.nranks),
                            cfg.port};
        switch (ConnectTo(ctx, static_cast<os::Fd>(ctx.Reg(4)), right)) {
          case IoStatus::kDone:
            ctx.Pc() = kAccept;
            break;
          case IoStatus::kBlocked:
            return;
          default:
            ctx.Close(static_cast<os::Fd>(ctx.Reg(4)));
            ctx.Pc() = kConnectStart;
            ctx.Sleep(10 * kMillisecond);
            return;
        }
        break;
      }
      case kAccept: {
        os::Fd left = -1;
        switch (AcceptOne(ctx, static_cast<os::Fd>(ctx.Reg(3)), &left)) {
          case IoStatus::kDone:
            ctx.Reg(5) = static_cast<std::uint64_t>(left);
            ctx.Pc() = kBeginIteration;
            break;
          case IoStatus::kBlocked:
            return;
          default:
            ctx.ExitProcess(12);
            return;
        }
        break;
      }
      case kBeginIteration: {
        std::uint64_t t = ctx.Mem().ReadU64(kStatusAddr);
        std::uint64_t contribution = AllreduceContribution(cfg.rank, t);
        ctx.Mem().WriteU64(kAccAddr, contribution);       // accumulator
        ctx.Mem().WriteU64(kAccAddr + 8, contribution);   // to_send
        ctx.Reg(7) = 0;  // ring step
        ctx.Reg(6) = 0;  // io progress
        ctx.Pc() = cfg.nranks > 1 ? kSendStep : kVerify;
        break;
      }
      case kSendStep: {
        std::uint64_t progress = ctx.Reg(6);
        IoStatus s = SendAll(ctx, static_cast<os::Fd>(ctx.Reg(4)),
                             kAccAddr + 8, 8, progress);
        ctx.Reg(6) = progress;
        if (s == IoStatus::kBlocked) return;
        if (s != IoStatus::kDone) {
          ctx.ExitProcess(13);
          return;
        }
        ctx.Reg(6) = 0;
        ctx.Pc() = kRecvStep;
        break;
      }
      case kRecvStep: {
        std::uint64_t progress = ctx.Reg(6);
        IoStatus s = RecvAll(ctx, static_cast<os::Fd>(ctx.Reg(5)),
                             kAccAddr + 16, 8, progress);
        ctx.Reg(6) = progress;
        if (s == IoStatus::kBlocked) return;
        if (s != IoStatus::kDone) {
          ctx.ExitProcess(14);
          return;
        }
        ctx.Reg(6) = 0;
        ctx.Pc() = kFinishStep;
        break;
      }
      case kFinishStep: {
        std::uint64_t incoming = ctx.Mem().ReadU64(kAccAddr + 16);
        ctx.Mem().WriteU64(kAccAddr, ctx.Mem().ReadU64(kAccAddr) +
                                         incoming);
        ctx.Mem().WriteU64(kAccAddr + 8, incoming);  // forward next step
        ctx.Reg(7) += 1;
        ctx.Pc() = (ctx.Reg(7) + 1 < cfg.nranks) ? kSendStep : kVerify;
        break;
      }
      case kVerify: {
        std::uint64_t t = ctx.Mem().ReadU64(kStatusAddr);
        std::uint64_t sum = ctx.Mem().ReadU64(kAccAddr);
        std::uint64_t mismatches = ctx.Mem().ReadU64(kStatusAddr + 8);
        if (sum != AllreduceExpected(cfg.nranks, t)) ++mismatches;
        ctx.Mem().WriteU64(kStatusAddr + 8, mismatches);
        ctx.Mem().WriteU64(kStatusAddr + 16, sum);
        ctx.ChargeCpu(cfg.compute_per_iteration);
        ctx.Mem().WriteU64(kStatusAddr, t + 1);
        if (t + 1 >= cfg.iterations) {
          ctx.Close(static_cast<os::Fd>(ctx.Reg(4)));
          ctx.Close(static_cast<os::Fd>(ctx.Reg(5)));
          ctx.Close(static_cast<os::Fd>(ctx.Reg(3)));
          if (cfg.exit_when_done) {
            ctx.ExitProcess(0);
          } else {
            ctx.Pc() = kIdle;
          }
          return;
        }
        ctx.Pc() = kBeginIteration;
        break;
      }
      case kIdle: {
        ctx.Sleep(kSecond);
        break;
      }
    }
  }
};

}  // namespace

std::uint64_t AllreduceContribution(std::uint32_t rank, std::uint64_t t) {
  return (static_cast<std::uint64_t>(rank) + 1) * 1000003ull + t * 17ull;
}

std::uint64_t AllreduceExpected(std::uint32_t nranks, std::uint64_t t) {
  std::uint64_t sum = 0;
  for (std::uint32_t r = 0; r < nranks; ++r) {
    sum += AllreduceContribution(r, t);
  }
  return sum;
}

cruz::Bytes AllreduceArgs(const AllreduceConfig& config) {
  cruz::ByteWriter w;
  w.PutU32(config.rank);
  w.PutU32(config.nranks);
  w.PutU16(config.port);
  w.PutU32(static_cast<std::uint32_t>(config.peers.size()));
  for (net::Ipv4Address peer : config.peers) w.PutU32(peer.value);
  w.PutU32(config.iterations);
  w.PutU64(config.compute_per_iteration);
  w.PutBool(config.exit_when_done);
  return w.Take();
}

AllreduceStatus ReadAllreduceStatus(const os::Process& proc) {
  AllreduceStatus s;
  s.iterations = proc.memory().ReadU64(kStatusAddr);
  s.mismatches = proc.memory().ReadU64(kStatusAddr + 8);
  s.last_sum = proc.memory().ReadU64(kStatusAddr + 16);
  return s;
}

void RegisterCollectivesProgram() {
  static const bool done = [] {
    os::ProgramRegistry::Instance().Register(
        "cruz.allreduce_rank",
        [] { return std::make_unique<AllreduceRankProgram>(); });
    return true;
  }();
  (void)done;
}

}  // namespace cruz::apps
