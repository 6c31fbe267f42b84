// Checkpoint image data model and serialization.
//
// A PodCheckpoint captures everything §2-§4 of the paper lists for the
// enhanced Zap: process virtual memory (non-zero pages only), CPU state
// (per-thread register files), file descriptors (including shared
// descriptions from dup), pipes with buffered data, SysV shared memory
// and semaphores, listening sockets with their accept queues, established
// TCP connections (via tcp::TcpConnCheckpoint, §4.1), UDP sockets, and
// the pod's identity: name, virtual pids, VIF IP/MAC and the fake MAC.
//
// The wire format is: magic "CRUZIMG1", version, length-prefixed payload,
// CRC-32 trailer. Deserialization validates all of it and throws
// CodecError on corruption.
//
// Two on-disk versions coexist (the header is self-describing):
//   version 1 — raw pages (fixed kPageSize bytes per page record). The
//     original format; still written by default and always readable.
//   version 2 — compressed pages: the header gains a codec id byte and
//     each page record is a length-prefixed blob encoded by
//     ckpt::EncodePage (per-page codec tag + raw-page CRC + payload).
// Readers dispatch on the version field, so images written by the
// uncompressed codec load unchanged and compressed images are rejected
// with CodecError on any per-page corruption.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "ckpt/page_codec.h"
#include "common/bytes.h"
#include "net/address.h"
#include "os/file.h"
#include "os/memory.h"
#include "os/process.h"
#include "os/types.h"
#include "tcp/checkpoint_state.h"

namespace cruz::ckpt {

struct ThreadRecord {
  os::Tid tid = 0;
  os::Registers regs;
};

struct PageRecord {
  std::uint64_t page_index = 0;
  // kPageSize bytes, shared and never written through: the same handle
  // the capture's MemorySnapshot, a merged image chain and, after a
  // restore, the pod's os::Memory hold.
  os::SharedPage content;
};

// One open file description (possibly shared by several fds via dup).
struct DescRecord {
  std::uint64_t ref = 0;  // identity within the image
  os::FileDescription::Kind kind = os::FileDescription::Kind::kFile;
  std::string path;            // kFile
  std::uint64_t offset = 0;    // kFile
  os::PipeId pipe_id = 0;      // kPipe*
  std::uint64_t socket_ref = 0;  // sockets: original SocketId
};

struct FdRecord {
  os::Fd fd = 0;
  std::uint64_t desc_ref = 0;
};

struct ShmAttachRecord {
  std::int32_t key = 0;  // original (pre-virtualization) key
  std::uint64_t addr = 0;
};

struct ProcessRecord {
  os::Pid vpid = 0;
  std::string program;
  std::vector<ThreadRecord> threads;
  std::vector<PageRecord> pages;
  std::vector<FdRecord> fds;
  std::vector<ShmAttachRecord> shm_attachments;
};

struct PipeRecord {
  os::PipeId id = 0;
  cruz::Bytes buffer;
};

struct ShmRecord {
  os::ShmId virtual_id = 0;  // id the pod's processes hold
  std::int32_t key = 0;      // original (pre-virtualization) key
  cruz::Bytes data;
};

struct SemRecord {
  os::SemId virtual_id = 0;
  std::int32_t key = 0;
  std::int32_t value = 0;
};

struct ConnRecord {
  std::uint64_t socket_ref = 0;
  // recv_pending holds alternate-buffer data + peeked receive-buffer data,
  // concatenated in delivery order (paper §4.1).
  tcp::TcpConnCheckpoint conn;
};

struct ListenerRecord {
  std::uint64_t socket_ref = 0;
  std::uint16_t port = 0;
  int backlog = 0;
  std::vector<std::uint64_t> accept_queue;  // socket refs of pending children
};

struct UdpRecord {
  std::uint64_t socket_ref = 0;
  std::uint16_t port = 0;
  std::vector<std::pair<net::Endpoint, cruz::Bytes>> rx;
};

// A TCP socket that existed but had no connection yet (fresh or bound).
struct FreshSocketRecord {
  std::uint64_t socket_ref = 0;
  bool bound = false;
  std::uint16_t port = 0;
};

struct PodCheckpoint {
  // Pod identity (paper §4.2): preserved across restore so external peers
  // see the same addresses.
  os::PodId pod_id = os::kNoPod;
  std::string pod_name;
  net::Ipv4Address ip;
  net::MacAddress vif_mac;
  net::MacAddress fake_mac;
  os::Pid next_vpid = 1;

  // Incremental checkpointing (paper §5.2): an incremental image carries
  // only the memory pages dirtied since its parent image was taken; all
  // other state (sockets, pipes, IPC, fds, registers) is small and always
  // captured in full. Restore resolves the parent chain from the shared
  // filesystem and overlays pages oldest-to-newest.
  bool incremental = false;
  std::uint32_t generation = 0;
  std::string parent_image;

  std::vector<ShmRecord> shm;
  std::vector<SemRecord> sems;
  std::vector<PipeRecord> pipes;
  std::vector<DescRecord> descs;
  std::vector<ConnRecord> conns;
  std::vector<ListenerRecord> listeners;
  std::vector<UdpRecord> udp;
  std::vector<FreshSocketRecord> fresh_sockets;
  std::vector<ProcessRecord> processes;

  // Bytes of state that dominate disk time (memory pages + buffers).
  std::uint64_t StateBytes() const;

  // `compress == false` emits the version-1 format byte-for-byte;
  // `compress == true` emits version 2 with RLE-compressed pages. A size
  // pass comes first, so the image is written once, in place, into a
  // buffer of exactly its size (capacity() == size()).
  cruz::Bytes Serialize(bool compress = false) const;
  // Checks the frame (magic, version, codec id, body length and the
  // CRC-32 trailer) and decodes the body, whose per-page CRCs are
  // checked too; each page is decoded straight from `image` into its
  // own handle. Throws CodecError.
  static PodCheckpoint Deserialize(cruz::ByteSpan image);
  // The frame check alone: returns the body the trailer covers and sets
  // `compressed` for a version-2 image. Throws CodecError.
  static cruz::ByteSpan CheckFrame(cruz::ByteSpan image,
                                   bool* compressed = nullptr);
  // The CRC-32 the frame trailer records: the image's last four bytes,
  // read without checking them; 0 for a file too short to hold one.
  static std::uint32_t FrameTrailer(cruz::ByteSpan image);

  // Overlays this (incremental) image's pages and current state onto
  // `base`, producing the full state at this image's generation. Every
  // field except memory pages comes from *this; pages are base pages
  // updated with this image's dirty pages, per process (matched by vpid).
  // Page handles are shared, not copied.
  PodCheckpoint MergeOnto(const PodCheckpoint& base) const;
};

// Page bytes (pages × kPageSize) that Serialize encoded and Deserialize
// decoded since process start, over all threads. Host-side work
// counters, like Crc32BytesTotal(): they never enter a trace or an
// export.
std::uint64_t PageBytesSerializedTotal();
std::uint64_t PageBytesDeserializedTotal();

}  // namespace cruz::ckpt
