// A small in-memory key-value database served over TCP.
//
// The paper's motivation names databases among the "complex applications"
// the enhanced Zap can checkpoint and restart (§1, §2). This is that
// workload class in miniature: a request/response server whose entire
// table lives in checkpointable process memory (open-addressed hash
// table), and a client that mirrors the expected contents and verifies
// every GET. A checkpoint can land between a request and its response;
// transparency means the client still sees exactly-once, consistent
// semantics.
//
// Wire protocol (fixed size, binary):
//   request : u8 op (1=PUT, 2=GET), u32 key, u64 value (PUT only; 0 for GET)
//   response: u8 status (1=ok, 0=missing), u64 value
//
// Programs:
//   cruz.kv_server — args: u16 port [, u8 threaded]. Serial by default
//                    (one connection at a time, as the original tests
//                    assume); with the threaded byte set, each accepted
//                    connection is served by its own thread so an
//                    open-loop load generator can hold many connections
//                    concurrently.
//   cruz.kv_client — args: u32 ip, u16 port, u32 operations, u64 seed,
//                    u64 think_time_ns. Checks every GET against a
//                    private mirror of keys 0..511, so it must be its
//                    server's only writer: several clients on one server
//                    overwrite each other's keys and report verification
//                    failures with no fault injected. The load generator
//                    (load/loadgen.h) gives each connection a disjoint
//                    key range instead.
//
// Status (kStatusAddr): server: +0 requests served;
// client: +0 operations done, +8 verification failures.
#pragma once

#include <cstdint>

#include "common/bytes.h"
#include "net/address.h"
#include "os/program.h"

namespace cruz::apps {

constexpr std::size_t kKvRequestSize = 13;
constexpr std::size_t kKvResponseSize = 9;

cruz::Bytes KvServerArgs(std::uint16_t port, bool threaded = false);
cruz::Bytes KvClientArgs(net::Ipv4Address server_ip, std::uint16_t port,
                         std::uint32_t operations, std::uint64_t seed,
                         DurationNs think_time);

struct KvClientStatus {
  std::uint64_t operations_done = 0;
  std::uint64_t verification_failures = 0;
};
KvClientStatus ReadKvClientStatus(const os::Process& proc);
std::uint64_t ReadKvServerRequests(const os::Process& proc);

// Registers both programs (idempotent).
void RegisterKvPrograms();

}  // namespace cruz::apps
