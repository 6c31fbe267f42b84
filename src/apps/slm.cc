#include "apps/slm.h"

#include <cstring>
#include <memory>

#include "apps/minimsg.h"
#include "apps/programs.h"

namespace cruz::apps {

namespace {

constexpr std::uint64_t kGridAddr = 0x400000;
constexpr std::uint64_t kHaloAddr = 0x300000;

double InitialCell(std::uint32_t rank, std::uint32_t row,
                   std::uint32_t col) {
  return static_cast<double>(rank + 1) * 1000.0 +
         static_cast<double>(row) * 2.0 + static_cast<double>(col) * 0.25;
}

std::uint64_t DoubleBits(double v) {
  std::uint64_t bits;
  std::memcpy(&bits, &v, 8);
  return bits;
}

// One relaxation step applied to the rank's boundary rows, given the left
// neighbour's (pre-update) bottom row. The interior of the grid is
// checkpoint payload; the dynamics live on the boundary, which keeps the
// computation cheap while still making every iteration depend on the
// halo exchange (a dropped or duplicated message would change the
// checksum).
void EdgeStep(double* row0, double* bottom, const double* halo,
              std::uint32_t cols) {
  for (std::uint32_t c = 0; c < cols; ++c) {
    row0[c] = 0.5 * (row0[c] + halo[c]);
  }
  for (std::uint32_t c = 0; c < cols; ++c) {
    bottom[c] = 0.5 * (bottom[c] + row0[c]);
  }
}

std::uint64_t RowChecksum(const double* row, std::uint32_t cols) {
  std::uint64_t sum = 0;
  for (std::uint32_t c = 0; c < cols; ++c) {
    sum += DoubleBits(row[c]) * (c + 1);
  }
  return sum;
}

// SlmArgs' fields but the peer list, parsed on every step; kConnect looks
// its one peer up in the RingArgs.
struct Args {
  std::uint32_t rank = 0;
  std::uint32_t nranks = 0;
  std::uint16_t port = 0;
  std::uint32_t rows = 0;
  std::uint32_t cols = 0;
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
  a.rows = r.GetU32();
  a.cols = r.GetU32();
  a.iterations = r.GetU32();
  a.compute_per_iteration = r.GetU64();
  a.exit_when_done = r.GetBool();
  return a;
}

class SlmRankProgram : public os::Program {
 public:
  // Registers: r3 listen fd, r4 right (outgoing) fd, r5 left (incoming)
  // fd, r6 transfer progress.
  void Step(os::ProcessCtx& ctx) override {
    enum : std::uint64_t {
      kInit,
      kConnectStart,
      kConnect,
      kAccept,
      kSend,
      kRecv,
      kCompute,
      kIdle,
    };
    const RingArgs ring(ctx);
    const Args cfg = ParseArgs(ring);
    const std::uint64_t row_bytes = cfg.cols * 8ull;
    const std::uint64_t bottom_addr =
        kGridAddr + static_cast<std::uint64_t>(cfg.rows - 1) * row_bytes;

    switch (ctx.Pc()) {
      case kInit: {
        // Materialize the grid (the checkpointable state), a row a call.
        std::vector<double> cells(cfg.cols);
        for (std::uint32_t row = 0; row < cfg.rows; ++row) {
          for (std::uint32_t col = 0; col < cfg.cols; ++col) {
            cells[col] = InitialCell(cfg.rank, row, col);
          }
          ctx.Mem().WriteF64s(kGridAddr + row * row_bytes, cells);
        }
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
            // Right neighbour not listening yet: back off and retry with
            // a fresh socket.
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
            ctx.Reg(6) = 0;
            ctx.Pc() = kSend;
            break;
          case IoStatus::kBlocked:
            return;
          default:
            ctx.ExitProcess(12);
            return;
        }
        break;
      }
      case kSend: {
        std::uint64_t progress = ctx.Reg(6);
        IoStatus s = SendAll(ctx, static_cast<os::Fd>(ctx.Reg(4)),
                             bottom_addr, row_bytes, progress);
        ctx.Reg(6) = progress;
        if (s == IoStatus::kBlocked) return;
        if (s != IoStatus::kDone) {
          ctx.ExitProcess(13);
          return;
        }
        ctx.Reg(6) = 0;
        ctx.Pc() = kRecv;
        break;
      }
      case kRecv: {
        std::uint64_t progress = ctx.Reg(6);
        IoStatus s = RecvAll(ctx, static_cast<os::Fd>(ctx.Reg(5)),
                             kHaloAddr, row_bytes, progress);
        ctx.Reg(6) = progress;
        if (s == IoStatus::kBlocked) return;
        if (s != IoStatus::kDone) {
          ctx.ExitProcess(14);
          return;
        }
        ctx.Reg(6) = 0;
        std::uint64_t moved = ctx.Mem().ReadU64(kStatusAddr + 16);
        ctx.Mem().WriteU64(kStatusAddr + 16, moved + 2 * row_bytes);
        ctx.Pc() = kCompute;
        break;
      }
      case kCompute: {
        // Whole-row transfers. While each row lies within one page (cols
        // a power of two <= 512) they touch pages in the same order as
        // a per-cell loop, so demand paging faults identically.
        row0_.resize(cfg.cols);
        bottom_.resize(cfg.cols);
        halo_.resize(cfg.cols);
        ctx.Mem().ReadF64s(kGridAddr, row0_);
        ctx.Mem().ReadF64s(bottom_addr, bottom_);
        ctx.Mem().ReadF64s(kHaloAddr, halo_);
        EdgeStep(row0_.data(), bottom_.data(), halo_.data(), cfg.cols);
        ctx.Mem().WriteF64s(kGridAddr, row0_);
        ctx.Mem().WriteF64s(bottom_addr, bottom_);
        ctx.ChargeCpu(cfg.compute_per_iteration);
        std::uint64_t iter = ctx.Mem().ReadU64(kStatusAddr) + 1;
        ctx.Mem().WriteU64(kStatusAddr, iter);
        ctx.Mem().WriteU64(kStatusAddr + 8,
                           RowChecksum(bottom_.data(), cfg.cols));
        if (iter >= cfg.iterations) {
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
        ctx.Pc() = kSend;
        break;
      }
      case kIdle: {
        ctx.Sleep(kSecond);  // finished; stay observable
        break;
      }
    }
  }

 private:
  // kCompute's rows. Scratch, not state: each compute step fills them
  // before reading them, so a restored process's fresh program object
  // computes the same.
  std::vector<double> row0_, bottom_, halo_;
};

}  // namespace

cruz::Bytes SlmArgs(const SlmConfig& config) {
  cruz::ByteWriter w;
  w.PutU32(config.rank);
  w.PutU32(config.nranks);
  w.PutU16(config.port);
  w.PutU32(static_cast<std::uint32_t>(config.peers.size()));
  for (net::Ipv4Address peer : config.peers) w.PutU32(peer.value);
  w.PutU32(config.rows);
  w.PutU32(config.cols);
  w.PutU32(config.iterations);
  w.PutU64(config.compute_per_iteration);
  w.PutBool(config.exit_when_done);
  return w.Take();
}

SlmStatus ReadSlmStatus(const os::Process& proc) {
  SlmStatus s;
  s.iterations = proc.memory().ReadU64(kStatusAddr);
  s.edge_checksum = proc.memory().ReadU64(kStatusAddr + 8);
  s.bytes_exchanged = proc.memory().ReadU64(kStatusAddr + 16);
  return s;
}

void RegisterSlmProgram() {
  static const bool done = [] {
    os::ProgramRegistry::Instance().Register(
        "cruz.slm_rank", [] { return std::make_unique<SlmRankProgram>(); });
    return true;
  }();
  (void)done;
}

std::uint64_t SlmReferenceChecksum(const SlmConfig& config,
                                   std::uint32_t iterations) {
  // Replays the boundary dynamics of ALL ranks in lockstep and returns
  // the checksum of `config.rank`'s bottom row.
  std::uint32_t n = config.nranks;
  std::vector<std::vector<double>> row0(n), bottom(n);
  for (std::uint32_t r = 0; r < n; ++r) {
    row0[r].resize(config.cols);
    bottom[r].resize(config.cols);
    for (std::uint32_t c = 0; c < config.cols; ++c) {
      row0[r][c] = InitialCell(r, 0, c);
      bottom[r][c] = InitialCell(r, config.rows - 1, c);
    }
  }
  std::vector<std::vector<double>> sent(n);
  for (std::uint32_t t = 0; t < iterations; ++t) {
    for (std::uint32_t r = 0; r < n; ++r) sent[r] = bottom[r];
    for (std::uint32_t r = 0; r < n; ++r) {
      const std::vector<double>& halo = sent[(r + n - 1) % n];
      EdgeStep(row0[r].data(), bottom[r].data(), halo.data(), config.cols);
    }
  }
  return RowChecksum(bottom[config.rank].data(), config.cols);
}

}  // namespace cruz::apps
