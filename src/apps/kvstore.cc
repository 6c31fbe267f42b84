#include "apps/kvstore.h"

#include <memory>

#include "apps/minimsg.h"
#include "apps/programs.h"

namespace cruz::apps {

namespace {

// Open-addressed hash table in process memory: 4096 slots of 16 bytes
// ([key+1 (0 = empty)][value]). No deletion (the workload never needs it).
constexpr std::uint64_t kTableAddr = 0x500000;
constexpr std::uint64_t kTableSlots = 4096;
// Request/response staging buffer.
constexpr std::uint64_t kIoAddr = 0x380000;

std::uint64_t Mix(std::uint64_t x) {
  x += 0x9E3779B97F4A7C15ull;
  x = (x ^ (x >> 30)) * 0xBF58476D1CE4E5B9ull;
  x = (x ^ (x >> 27)) * 0x94D049BB133111EBull;
  return x ^ (x >> 31);
}

std::uint64_t SlotAddr(std::uint64_t slot) {
  return kTableAddr + (slot % kTableSlots) * 16;
}

// Looks up `key`; returns the slot address holding it or the first empty
// slot (insert position). The table is sized so it never fills.
std::uint64_t FindSlot(os::ProcessCtx& ctx, std::uint32_t key) {
  std::uint64_t slot = Mix(key) % kTableSlots;
  for (std::uint64_t probe = 0; probe < kTableSlots; ++probe) {
    std::uint64_t addr = SlotAddr(slot + probe);
    std::uint64_t stored = ctx.Mem().ReadU64(addr);
    if (stored == 0 || stored == key + 1ull) return addr;
  }
  return SlotAddr(slot);  // full (cannot happen with this workload)
}

// Decodes the request staged at `io_addr`, executes it against the table
// and stages the response at the same address. Shared by the serial loop
// and the per-connection worker threads (the table is process-global; the
// single-threaded simulation makes each Step burst atomic).
void ServeRequest(os::ProcessCtx& ctx, std::uint64_t io_addr) {
  cruz::Bytes req = ctx.Mem().ReadBytes(io_addr, kKvRequestSize);
  cruz::ByteReader r(req);
  std::uint8_t op = r.GetU8();
  std::uint32_t key = r.GetU32();
  std::uint64_t value = r.GetU64();
  std::uint8_t status = 0;
  std::uint64_t result = 0;
  std::uint64_t slot = FindSlot(ctx, key);
  if (op == 1) {  // PUT
    ctx.Mem().WriteU64(slot, key + 1ull);
    ctx.Mem().WriteU64(slot + 8, value);
    status = 1;
    result = value;
  } else {  // GET
    if (ctx.Mem().ReadU64(slot) == key + 1ull) {
      status = 1;
      result = ctx.Mem().ReadU64(slot + 8);
    }
  }
  cruz::ByteWriter w;
  w.PutU8(status);
  w.PutU64(result);
  ctx.Mem().WriteBytes(io_addr, w.data());
  std::uint64_t served = ctx.Mem().ReadU64(kStatusAddr);
  ctx.Mem().WriteU64(kStatusAddr, served + 1);
  ctx.ChargeCpu(20 * kMicrosecond);  // request processing
}

// ---------------------------------------------------------------------------
// cruz.kv_server
// ---------------------------------------------------------------------------

class KvServerProgram : public os::Program {
 public:
  // Registers (main thread): r3 listen fd, r4 conn fd, r5 threaded flag,
  // r6 io progress. Worker threads (threaded mode): r3 conn fd, r6 io
  // progress; each worker stages io at kIoAddr + tid * 64.
  void Step(os::ProcessCtx& ctx) override {
    enum : std::uint64_t {
      kInit,
      kAccept,
      kReadRequest,
      kWriteResponse,
      // Thread-per-connection mode (r5 != 0): the main thread stays in
      // kAccept and spawns one worker per accepted connection.
      kWorkerInit,
      kWorkerRead,
      kWorkerWrite,
    };
    switch (ctx.Pc()) {
      case kInit: {
        cruz::Bytes args = ctx.Mem().ReadBytes(ctx.Reg(1), ctx.Reg(2));
        cruz::ByteReader r(args);
        std::uint16_t port = r.GetU16();
        // Optional trailing byte (absent in legacy args): serve each
        // connection on its own thread instead of serially.
        bool threaded = !r.AtEnd() && r.GetU8() != 0;
        SysResult fd = ctx.SocketTcp();
        if (!SysOk(fd) ||
            !SysOk(ctx.Bind(static_cast<os::Fd>(fd),
                            net::Endpoint{net::kAnyAddress, port})) ||
            !SysOk(ctx.Listen(static_cast<os::Fd>(fd), threaded ? 4096 : 8))) {
          ctx.ExitProcess(10);
          return;
        }
        ctx.Reg(3) = static_cast<std::uint64_t>(fd);
        ctx.Reg(5) = threaded ? 1 : 0;
        ctx.Pc() = kAccept;
        break;
      }
      case kAccept: {
        os::Fd conn = -1;
        switch (AcceptOne(ctx, static_cast<os::Fd>(ctx.Reg(3)), &conn)) {
          case IoStatus::kDone:
            if (ctx.Reg(5) != 0) {  // threaded: hand off, keep accepting
              ctx.SpawnThread(kWorkerInit, static_cast<std::uint64_t>(conn));
              break;
            }
            ctx.Reg(4) = static_cast<std::uint64_t>(conn);
            ctx.Reg(6) = 0;
            ctx.Pc() = kReadRequest;
            break;
          case IoStatus::kBlocked:
            return;
          default:
            ctx.ExitProcess(11);
            return;
        }
        break;
      }
      case kReadRequest: {
        std::uint64_t progress = ctx.Reg(6);
        IoStatus s = RecvAll(ctx, static_cast<os::Fd>(ctx.Reg(4)), kIoAddr,
                             kKvRequestSize, progress);
        ctx.Reg(6) = progress;
        if (s == IoStatus::kBlocked) return;
        if (s == IoStatus::kEof) {  // client disconnected: next client
          ctx.Close(static_cast<os::Fd>(ctx.Reg(4)));
          ctx.Reg(6) = 0;
          ctx.Pc() = kAccept;
          return;
        }
        if (s != IoStatus::kDone) {
          ctx.ExitProcess(12);
          return;
        }
        ServeRequest(ctx, kIoAddr);
        ctx.Reg(6) = 0;
        ctx.Pc() = kWriteResponse;
        break;
      }
      case kWriteResponse: {
        std::uint64_t progress = ctx.Reg(6);
        IoStatus s = SendAll(ctx, static_cast<os::Fd>(ctx.Reg(4)), kIoAddr,
                             kKvResponseSize, progress);
        ctx.Reg(6) = progress;
        if (s == IoStatus::kBlocked) return;
        if (s != IoStatus::kDone) {
          ctx.ExitProcess(13);
          return;
        }
        ctx.Reg(6) = 0;
        ctx.Pc() = kReadRequest;
        break;
      }
      case kWorkerInit: {
        ctx.Reg(3) = ctx.Reg(1);  // conn fd passed as the thread arg
        ctx.Reg(6) = 0;
        ctx.Pc() = kWorkerRead;
        break;
      }
      case kWorkerRead: {
        std::uint64_t io = kIoAddr + ctx.tid() * 64;
        std::uint64_t progress = ctx.Reg(6);
        IoStatus s = RecvAll(ctx, static_cast<os::Fd>(ctx.Reg(3)), io,
                             kKvRequestSize, progress);
        ctx.Reg(6) = progress;
        if (s == IoStatus::kBlocked) return;
        if (s != IoStatus::kDone) {  // disconnect or reset: retire worker
          ctx.Close(static_cast<os::Fd>(ctx.Reg(3)));
          ctx.ExitThread();
          return;
        }
        ServeRequest(ctx, io);
        ctx.Reg(6) = 0;
        ctx.Pc() = kWorkerWrite;
        break;
      }
      case kWorkerWrite: {
        std::uint64_t io = kIoAddr + ctx.tid() * 64;
        std::uint64_t progress = ctx.Reg(6);
        IoStatus s = SendAll(ctx, static_cast<os::Fd>(ctx.Reg(3)), io,
                             kKvResponseSize, progress);
        ctx.Reg(6) = progress;
        if (s == IoStatus::kBlocked) return;
        if (s != IoStatus::kDone) {
          ctx.Close(static_cast<os::Fd>(ctx.Reg(3)));
          ctx.ExitThread();
          return;
        }
        ctx.Reg(6) = 0;
        ctx.Pc() = kWorkerRead;
        break;
      }
    }
  }
};

// ---------------------------------------------------------------------------
// cruz.kv_client — issues a deterministic op stream and verifies GETs
// against its own mirror of the table (also in checkpointable memory).
// ---------------------------------------------------------------------------

class KvClientProgram : public os::Program {
 public:
  // Registers: r3 fd, r6 io progress. The op index lives in status memory
  // so the whole client is checkpoint-safe.
  void Step(os::ProcessCtx& ctx) override {
    enum : std::uint64_t {
      kInit,
      kConnect,
      kIssue,
      kSendRequest,
      kRecvResponse,
      kVerify,
    };
    // ip, port, operations, seed, think time (KvClientArgs).
    const auto args = ReadFixedArgs<4 + 2 + 4 + 8 + 8>(ctx);
    cruz::ByteReader r(args);
    net::Endpoint server{net::Ipv4Address{r.GetU32()}, r.GetU16()};
    std::uint32_t operations = r.GetU32();
    std::uint64_t seed = r.GetU64();
    DurationNs think = r.GetU64();

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
        switch (ConnectTo(ctx, static_cast<os::Fd>(ctx.Reg(3)), server)) {
          case IoStatus::kDone:
            ctx.Reg(6) = 0;
            ctx.Pc() = kIssue;
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
      case kIssue: {
        std::uint64_t index = ctx.Mem().ReadU64(kStatusAddr);
        std::uint64_t h = Mix(seed ^ Mix(index));
        bool is_put = (h & 3) != 0;  // 75% puts so GETs usually hit
        std::uint32_t key = static_cast<std::uint32_t>(h >> 8) % 512;
        std::uint64_t value = Mix(h);
        cruz::ByteWriter w;
        w.PutU8(is_put ? 1 : 2);
        w.PutU32(key);
        w.PutU64(is_put ? value : 0);
        ctx.Mem().WriteBytes(kIoAddr, w.data());
        // Issue timestamp for the latency sample reported in kVerify;
        // lives in status memory so it survives a checkpoint/restore.
        // The client is closed-loop, so intended send time == issue
        // time (open-loop intended schedules live in load::LoadGen).
        ctx.Mem().WriteU64(kStatusAddr + 16, ctx.Now());
        ctx.Reg(6) = 0;
        ctx.Pc() = kSendRequest;
        break;
      }
      case kSendRequest: {
        std::uint64_t progress = ctx.Reg(6);
        IoStatus s = SendAll(ctx, static_cast<os::Fd>(ctx.Reg(3)), kIoAddr,
                             kKvRequestSize, progress);
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
        IoStatus s = RecvAll(ctx, static_cast<os::Fd>(ctx.Reg(3)),
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
        bool is_put = (h & 3) != 0;
        std::uint32_t key = static_cast<std::uint32_t>(h >> 8) % 512;
        std::uint64_t value = Mix(h);
        cruz::Bytes resp = ctx.Mem().ReadBytes(kIoAddr + 64,
                                               kKvResponseSize);
        cruz::ByteReader rr(resp);
        std::uint8_t status = rr.GetU8();
        std::uint64_t result = rr.GetU64();
        std::uint64_t failures = ctx.Mem().ReadU64(kStatusAddr + 8);
        std::uint64_t slot = FindSlot(ctx, key);  // client-side mirror
        if (is_put) {
          if (status != 1 || result != value) ++failures;
          ctx.Mem().WriteU64(slot, key + 1ull);
          ctx.Mem().WriteU64(slot + 8, value);
        } else {
          bool known = ctx.Mem().ReadU64(slot) == key + 1ull;
          if (known) {
            if (status != 1 || result != ctx.Mem().ReadU64(slot + 8)) {
              ++failures;
            }
          } else if (status != 0) {
            ++failures;
          }
        }
        ctx.Mem().WriteU64(kStatusAddr + 8, failures);
        ctx.Mem().WriteU64(kStatusAddr, index + 1);
        // Same measurement path as LoadGen: a sampled kv.op instant on
        // the trace plus the node's latency sink (no-op during replay).
        ctx.ReportOpLatency(seed, ctx.Mem().ReadU64(kStatusAddr + 16));
        if (index + 1 >= operations) {
          ctx.Close(static_cast<os::Fd>(ctx.Reg(3)));
          ctx.ExitProcess(0);
          return;
        }
        ctx.Pc() = kIssue;
        if (think > 0) {
          ctx.Sleep(think);
          return;
        }
        break;
      }
    }
  }
};

}  // namespace

cruz::Bytes KvServerArgs(std::uint16_t port, bool threaded) {
  cruz::ByteWriter w;
  w.PutU16(port);
  // Legacy args stay byte-identical: the mode byte is only appended when
  // set, so serial-mode images and goldens are unchanged.
  if (threaded) w.PutU8(1);
  return w.Take();
}

cruz::Bytes KvClientArgs(net::Ipv4Address server_ip, std::uint16_t port,
                         std::uint32_t operations, std::uint64_t seed,
                         DurationNs think_time) {
  cruz::ByteWriter w;
  w.PutU32(server_ip.value);
  w.PutU16(port);
  w.PutU32(operations);
  w.PutU64(seed);
  w.PutU64(think_time);
  return w.Take();
}

KvClientStatus ReadKvClientStatus(const os::Process& proc) {
  KvClientStatus s;
  s.operations_done = proc.memory().ReadU64(kStatusAddr);
  s.verification_failures = proc.memory().ReadU64(kStatusAddr + 8);
  return s;
}

std::uint64_t ReadKvServerRequests(const os::Process& proc) {
  return proc.memory().ReadU64(kStatusAddr);
}

void RegisterKvPrograms() {
  static const bool done = [] {
    auto& reg = os::ProgramRegistry::Instance();
    reg.Register("cruz.kv_server",
                 [] { return std::make_unique<KvServerProgram>(); });
    reg.Register("cruz.kv_client",
                 [] { return std::make_unique<KvClientProgram>(); });
    return true;
  }();
  (void)done;
}

}  // namespace cruz::apps
