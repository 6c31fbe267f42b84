#include "load/loadgen.h"

#include <array>
#include <memory>

#include "apps/kvstore.h"
#include "apps/minimsg.h"
#include "apps/programs.h"
#include "common/error.h"

namespace cruz::load {

namespace {

using apps::IoStatus;
using apps::kKvRequestSize;
using apps::kKvResponseSize;
using apps::kStatusAddr;

// Request/response staging buffer (response at +64).
constexpr std::uint64_t kIoAddr = 0x380000;
// Per-key GET-verification mirror: [known][value] stride 16.
constexpr std::uint64_t kMirrorAddr = kStatusAddr + 16;

// Server ip, port, conn, base, interarrival, offset, requests, seed,
// key base, key count (KvLoadConnArgs).
constexpr std::size_t kKvLoadConnArgsSize = 4 + 2 + 4 + 8 + 8 + 8 + 4 + 8 + 4 + 4;

// splitmix-style mixer; independent of the server's hash (the mirror
// lives client-side, nothing needs to agree across the wire).
std::uint64_t Mix(std::uint64_t x) {
  x += 0x9E3779B97F4A7C15ull;
  x = (x ^ (x >> 30)) * 0xBF58476D1CE4E5B9ull;
  x = (x ^ (x >> 27)) * 0x94D049BB133111EBull;
  return x ^ (x >> 31);
}

// ---------------------------------------------------------------------------
// cruz.kv_loadconn — one open-loop connection.
// ---------------------------------------------------------------------------

class KvLoadConnProgram : public os::Program {
 public:
  // Registers: r3 fd, r6 io progress. The request index lives in status
  // memory so the connection is checkpoint-safe like every program here.
  void Step(os::ProcessCtx& ctx) override {
    enum : std::uint64_t {
      kInit,
      kConnect,
      kWait,
      kIssue,
      kSendRequest,
      kRecvResponse,
      kVerify,
    };
    const auto args = apps::ReadFixedArgs<kKvLoadConnArgsSize>(ctx);
    cruz::ByteReader r(args);
    net::Endpoint server{net::Ipv4Address{r.GetU32()}, r.GetU16()};
    std::uint32_t conn = r.GetU32();
    TimeNs base = r.GetU64();
    DurationNs interarrival = r.GetU64();
    DurationNs offset = r.GetU64();
    std::uint32_t requests = r.GetU32();
    std::uint64_t seed = r.GetU64();
    std::uint32_t key_base = r.GetU32();
    std::uint32_t key_count = r.GetU32();

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
        switch (apps::ConnectTo(ctx, static_cast<os::Fd>(ctx.Reg(3)),
                                server)) {
          case IoStatus::kDone:
            ctx.Pc() = kWait;
            break;
          case IoStatus::kBlocked:
            return;
          default:
            ctx.Close(static_cast<os::Fd>(ctx.Reg(3)));
            ctx.Pc() = kInit;
            ctx.Sleep(10 * kMillisecond);
            return;
        }
        break;
      }
      case kWait: {
        std::uint64_t index = ctx.Mem().ReadU64(kStatusAddr);
        if (index >= requests) {
          ctx.Close(static_cast<os::Fd>(ctx.Reg(3)));
          ctx.ExitProcess(0);
          return;
        }
        // The intended send time is a pure function of the schedule; a
        // late response never shifts it, it only makes `now` later.
        TimeNs intended = base + offset + index * interarrival;
        if (ctx.Now() < intended) {
          ctx.Sleep(intended - ctx.Now());
          return;
        }
        ctx.Pc() = kIssue;
        break;
      }
      case kIssue: {
        std::uint64_t index = ctx.Mem().ReadU64(kStatusAddr);
        std::uint64_t h = Mix(seed ^ Mix(index));
        bool is_put = (h & 1) != 0;
        std::uint32_t key = key_base + static_cast<std::uint32_t>(h >> 8) %
                                           (key_count == 0 ? 1 : key_count);
        std::uint64_t value = Mix(h);
        cruz::ByteWriter w;
        w.PutU8(is_put ? 1 : 2);
        w.PutU32(key);
        w.PutU64(is_put ? value : 0);
        ctx.Mem().WriteBytes(kIoAddr, w.data());
        ctx.Reg(6) = 0;
        ctx.Pc() = kSendRequest;
        break;
      }
      case kSendRequest: {
        std::uint64_t progress = ctx.Reg(6);
        IoStatus s = apps::SendAll(ctx, static_cast<os::Fd>(ctx.Reg(3)),
                                   kIoAddr, kKvRequestSize, progress);
        ctx.Reg(6) = progress;
        if (s == IoStatus::kBlocked) return;
        if (s != IoStatus::kDone) {
          ctx.ExitProcess(2);
          return;
        }
        ctx.Reg(6) = 0;
        ctx.Pc() = kRecvResponse;
        break;
      }
      case kRecvResponse: {
        std::uint64_t progress = ctx.Reg(6);
        IoStatus s = apps::RecvAll(ctx, static_cast<os::Fd>(ctx.Reg(3)),
                                   kIoAddr + 64, kKvResponseSize, progress);
        ctx.Reg(6) = progress;
        if (s == IoStatus::kBlocked) return;
        if (s != IoStatus::kDone) {
          ctx.ExitProcess(3);
          return;
        }
        ctx.Reg(6) = 0;
        ctx.Pc() = kVerify;
        break;
      }
      case kVerify: {
        std::uint64_t index = ctx.Mem().ReadU64(kStatusAddr);
        std::uint64_t h = Mix(seed ^ Mix(index));
        bool is_put = (h & 1) != 0;
        std::uint32_t j = static_cast<std::uint32_t>(h >> 8) %
                          (key_count == 0 ? 1 : key_count);
        std::uint64_t value = Mix(h);
        std::uint64_t mirror = kMirrorAddr + j * 16;
        std::array<std::uint8_t, kKvResponseSize> resp;
        ctx.Mem().ReadBytes(kIoAddr + 64, resp.data(), resp.size());
        cruz::ByteReader rr(resp);
        std::uint8_t status = rr.GetU8();
        std::uint64_t result = rr.GetU64();
        std::uint64_t failures = ctx.Mem().ReadU64(kStatusAddr + 8);
        if (is_put) {
          if (status != 1 || result != value) ++failures;
          ctx.Mem().WriteU64(mirror, 1);
          ctx.Mem().WriteU64(mirror + 8, value);
        } else if (ctx.Mem().ReadU64(mirror) == 1) {
          if (status != 1 || result != ctx.Mem().ReadU64(mirror + 8)) {
            ++failures;
          }
        } else if (status != 0) {
          ++failures;
        }
        ctx.Mem().WriteU64(kStatusAddr + 8, failures);
        ctx.Mem().WriteU64(kStatusAddr, index + 1);
        ctx.ReportOpLatency(conn, base + offset + index * interarrival);
        ctx.Pc() = kWait;
        break;
      }
    }
  }
};

}  // namespace

LoadGen::LoadGen(os::Os& client_os, const LoadGenOptions& options)
    : os_(client_os),
      options_(options),
      recorder_(options.base, options.window),
      expected_(static_cast<std::uint64_t>(options.connections) *
                options.requests_per_conn) {}

void LoadGen::Start() {
  CRUZ_CHECK(options_.connections * options_.keys_per_conn <= 2048,
             "keyspace exceeds half the server table (4096 slots)");
  RegisterLoadPrograms();
  os_.set_op_latency_sink(
      [this](std::uint64_t, TimeNs intended, TimeNs completed) {
        ++completed_;
        recorder_.Record(completed, completed - intended);
      });
  for (std::uint32_t c = 0; c < options_.connections; ++c) {
    // Spread connection phases uniformly across one interarrival period
    // so the aggregate arrival process is smooth, not a thundering herd.
    DurationNs offset = options_.connections == 0
                            ? 0
                            : options_.interarrival * c / options_.connections;
    cruz::Bytes args = KvLoadConnArgs(
        options_.server_ip, options_.port, c, options_.base,
        options_.interarrival, offset, options_.requests_per_conn,
        options_.seed + c, c * options_.keys_per_conn,
        options_.keys_per_conn);
    pids_.push_back(os_.Spawn("cruz.kv_loadconn", args));
  }
}

std::uint64_t LoadGen::VerificationFailures() const {
  std::uint64_t total = 0;
  for (os::Pid pid : pids_) {
    if (const os::Process* proc = os_.FindProcess(pid)) {
      total += ReadLoadConnStatus(*proc).verification_failures;
    }
  }
  return total;
}

cruz::Bytes KvLoadConnArgs(net::Ipv4Address server_ip, std::uint16_t port,
                           std::uint32_t conn, TimeNs base,
                           DurationNs interarrival, DurationNs offset,
                           std::uint32_t requests, std::uint64_t seed,
                           std::uint32_t key_base, std::uint32_t key_count) {
  cruz::ByteWriter w;
  w.PutU32(server_ip.value);
  w.PutU16(port);
  w.PutU32(conn);
  w.PutU64(base);
  w.PutU64(interarrival);
  w.PutU64(offset);
  w.PutU32(requests);
  w.PutU64(seed);
  w.PutU32(key_base);
  w.PutU32(key_count);
  return w.Take();
}

LoadConnStatus ReadLoadConnStatus(const os::Process& proc) {
  LoadConnStatus s;
  s.requests_done = proc.memory().ReadU64(kStatusAddr);
  s.verification_failures = proc.memory().ReadU64(kStatusAddr + 8);
  return s;
}

void RegisterLoadPrograms() {
  static const bool done = [] {
    os::ProgramRegistry::Instance().Register(
        "cruz.kv_loadconn",
        [] { return std::make_unique<KvLoadConnProgram>(); });
    return true;
  }();
  (void)done;
}

}  // namespace cruz::load
