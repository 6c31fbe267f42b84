#include "ckpt/image.h"

#include <atomic>
#include <map>

#include "common/crc32.h"
#include "common/error.h"

namespace cruz::ckpt {

namespace {

constexpr char kMagic[8] = {'C', 'R', 'U', 'Z', 'I', 'M', 'G', '1'};
constexpr std::uint32_t kVersionRaw = 1;         // raw fixed-size pages
constexpr std::uint32_t kVersionCompressed = 2;  // per-page codec blobs

std::atomic<std::uint64_t> g_page_bytes_serialized{0};
std::atomic<std::uint64_t> g_page_bytes_deserialized{0};

void PutMac(cruz::ByteWriter& w, net::MacAddress mac) {
  w.PutBytes(mac.octets.data(), 6);
}

net::MacAddress GetMac(cruz::ByteReader& r) {
  net::MacAddress mac;
  cruz::ByteSpan s = r.GetSpan(6);
  std::copy(s.begin(), s.end(), mac.octets.begin());
  return mac;
}

}  // namespace

std::uint64_t PodCheckpoint::StateBytes() const {
  std::uint64_t n = 0;
  for (const ProcessRecord& p : processes) {
    n += p.pages.size() * os::kPageSize;
  }
  for (const ShmRecord& s : shm) n += s.data.size();
  for (const PipeRecord& p : pipes) n += p.buffer.size();
  for (const ConnRecord& c : conns) n += c.conn.TotalBytes();
  for (const UdpRecord& u : udp) {
    for (const auto& [src, payload] : u.rx) n += payload.size();
  }
  return n;
}

cruz::Bytes PodCheckpoint::Serialize(bool compress) const {
  cruz::ByteWriter body;
  body.PutU32(pod_id);
  body.PutString(pod_name);
  body.PutU32(ip.value);
  PutMac(body, vif_mac);
  PutMac(body, fake_mac);
  body.PutU32(static_cast<std::uint32_t>(next_vpid));
  body.PutBool(incremental);
  body.PutU32(generation);
  body.PutString(parent_image);

  body.PutU32(static_cast<std::uint32_t>(shm.size()));
  for (const ShmRecord& s : shm) {
    body.PutU32(static_cast<std::uint32_t>(s.virtual_id));
    body.PutU32(static_cast<std::uint32_t>(s.key));
    body.PutBlob(s.data);
  }
  body.PutU32(static_cast<std::uint32_t>(sems.size()));
  for (const SemRecord& s : sems) {
    body.PutU32(static_cast<std::uint32_t>(s.virtual_id));
    body.PutU32(static_cast<std::uint32_t>(s.key));
    body.PutU32(static_cast<std::uint32_t>(s.value));
  }
  body.PutU32(static_cast<std::uint32_t>(pipes.size()));
  for (const PipeRecord& p : pipes) {
    body.PutU64(p.id);
    body.PutBlob(p.buffer);
  }
  body.PutU32(static_cast<std::uint32_t>(descs.size()));
  for (const DescRecord& d : descs) {
    body.PutU64(d.ref);
    body.PutU8(static_cast<std::uint8_t>(d.kind));
    body.PutString(d.path);
    body.PutU64(d.offset);
    body.PutU64(d.pipe_id);
    body.PutU64(d.socket_ref);
  }
  body.PutU32(static_cast<std::uint32_t>(conns.size()));
  for (const ConnRecord& c : conns) {
    body.PutU64(c.socket_ref);
    c.conn.Serialize(body);
  }
  body.PutU32(static_cast<std::uint32_t>(listeners.size()));
  for (const ListenerRecord& l : listeners) {
    body.PutU64(l.socket_ref);
    body.PutU16(l.port);
    body.PutU32(static_cast<std::uint32_t>(l.backlog));
    body.PutU32(static_cast<std::uint32_t>(l.accept_queue.size()));
    for (std::uint64_t ref : l.accept_queue) body.PutU64(ref);
  }
  body.PutU32(static_cast<std::uint32_t>(udp.size()));
  for (const UdpRecord& u : udp) {
    body.PutU64(u.socket_ref);
    body.PutU16(u.port);
    body.PutU32(static_cast<std::uint32_t>(u.rx.size()));
    for (const auto& [src, payload] : u.rx) {
      body.PutU32(src.ip.value);
      body.PutU16(src.port);
      body.PutBlob(payload);
    }
  }
  body.PutU32(static_cast<std::uint32_t>(fresh_sockets.size()));
  for (const FreshSocketRecord& f : fresh_sockets) {
    body.PutU64(f.socket_ref);
    body.PutBool(f.bound);
    body.PutU16(f.port);
  }
  body.PutU32(static_cast<std::uint32_t>(processes.size()));
  for (const ProcessRecord& p : processes) {
    body.PutU32(static_cast<std::uint32_t>(p.vpid));
    body.PutString(p.program);
    body.PutU32(static_cast<std::uint32_t>(p.threads.size()));
    for (const ThreadRecord& t : p.threads) {
      body.PutU32(static_cast<std::uint32_t>(t.tid));
      for (int i = 0; i < os::kNumRegisters; ++i) body.PutU64(t.regs.r[i]);
    }
    body.PutU32(static_cast<std::uint32_t>(p.pages.size()));
    for (const PageRecord& page : p.pages) {
      body.PutU64(page.page_index);
      if (compress) {
        body.PutBlob(EncodePage(page.content, PageCodec::kRle));
      } else {
        body.PutBytes(page.content);
      }
    }
    g_page_bytes_serialized.fetch_add(p.pages.size() * os::kPageSize,
                                      std::memory_order_relaxed);
    body.PutU32(static_cast<std::uint32_t>(p.fds.size()));
    for (const FdRecord& f : p.fds) {
      body.PutU32(static_cast<std::uint32_t>(f.fd));
      body.PutU64(f.desc_ref);
    }
    body.PutU32(static_cast<std::uint32_t>(p.shm_attachments.size()));
    for (const ShmAttachRecord& a : p.shm_attachments) {
      body.PutU32(static_cast<std::uint32_t>(a.key));
      body.PutU64(a.addr);
    }
  }

  cruz::ByteWriter out(body.size() + 25);
  out.PutBytes(reinterpret_cast<const std::uint8_t*>(kMagic), 8);
  if (compress) {
    // Self-describing header: version 2 carries the preferred codec id so
    // tools can identify the page encoding without parsing the body.
    out.PutU32(kVersionCompressed);
    out.PutU8(static_cast<std::uint8_t>(PageCodec::kRle));
  } else {
    out.PutU32(kVersionRaw);
  }
  out.PutBlob(body.data());
  out.PutU32(cruz::Crc32(body.data()));
  return out.Take();
}

cruz::ByteSpan PodCheckpoint::CheckFrame(cruz::ByteSpan image,
                                        bool* compressed) {
  cruz::ByteReader outer(image);
  cruz::ByteSpan magic = outer.GetSpan(8);
  if (!std::equal(magic.begin(), magic.end(),
                  reinterpret_cast<const std::uint8_t*>(kMagic))) {
    throw cruz::CodecError("not a Cruz checkpoint image");
  }
  std::uint32_t version = outer.GetU32();
  if (version != kVersionRaw && version != kVersionCompressed) {
    throw cruz::CodecError("unsupported image version " +
                           std::to_string(version));
  }
  if (version == kVersionCompressed) {
    std::uint8_t codec = outer.GetU8();
    if (codec > static_cast<std::uint8_t>(PageCodec::kRle)) {
      throw cruz::CodecError("unsupported image page codec " +
                             std::to_string(codec));
    }
  }
  cruz::ByteSpan body = outer.GetSpan(outer.GetU32());
  std::uint32_t crc = outer.GetU32();
  if (crc != cruz::Crc32(body)) {
    throw cruz::CodecError("checkpoint image CRC mismatch");
  }
  if (compressed != nullptr) *compressed = version == kVersionCompressed;
  return body;
}

std::uint32_t PodCheckpoint::FrameTrailer(cruz::ByteSpan image) {
  if (image.size() < 4) return 0;
  cruz::ByteReader r(image.last(4));
  return r.GetU32();
}

PodCheckpoint PodCheckpoint::Deserialize(cruz::ByteSpan image) {
  bool compressed = false;
  cruz::ByteReader r(CheckFrame(image, &compressed));
  PodCheckpoint ck;
  ck.pod_id = r.GetU32();
  ck.pod_name = r.GetString();
  ck.ip.value = r.GetU32();
  ck.vif_mac = GetMac(r);
  ck.fake_mac = GetMac(r);
  ck.next_vpid = static_cast<os::Pid>(r.GetU32());
  ck.incremental = r.GetBool();
  ck.generation = r.GetU32();
  ck.parent_image = r.GetString();

  std::uint32_t n = r.GetU32();
  for (std::uint32_t i = 0; i < n; ++i) {
    ShmRecord s;
    s.virtual_id = static_cast<os::ShmId>(r.GetU32());
    s.key = static_cast<std::int32_t>(r.GetU32());
    s.data = r.GetBlob();
    ck.shm.push_back(std::move(s));
  }
  n = r.GetU32();
  for (std::uint32_t i = 0; i < n; ++i) {
    SemRecord s;
    s.virtual_id = static_cast<os::SemId>(r.GetU32());
    s.key = static_cast<std::int32_t>(r.GetU32());
    s.value = static_cast<std::int32_t>(r.GetU32());
    ck.sems.push_back(s);
  }
  n = r.GetU32();
  for (std::uint32_t i = 0; i < n; ++i) {
    PipeRecord p;
    p.id = r.GetU64();
    p.buffer = r.GetBlob();
    ck.pipes.push_back(std::move(p));
  }
  n = r.GetU32();
  for (std::uint32_t i = 0; i < n; ++i) {
    DescRecord d;
    d.ref = r.GetU64();
    std::uint8_t kind = r.GetU8();
    if (kind > static_cast<std::uint8_t>(
                   os::FileDescription::Kind::kUdpSocket)) {
      throw cruz::CodecError("invalid fd kind in image");
    }
    d.kind = static_cast<os::FileDescription::Kind>(kind);
    d.path = r.GetString();
    d.offset = r.GetU64();
    d.pipe_id = r.GetU64();
    d.socket_ref = r.GetU64();
    ck.descs.push_back(std::move(d));
  }
  n = r.GetU32();
  for (std::uint32_t i = 0; i < n; ++i) {
    ConnRecord c;
    c.socket_ref = r.GetU64();
    c.conn = tcp::TcpConnCheckpoint::Deserialize(r);
    ck.conns.push_back(std::move(c));
  }
  n = r.GetU32();
  for (std::uint32_t i = 0; i < n; ++i) {
    ListenerRecord l;
    l.socket_ref = r.GetU64();
    l.port = r.GetU16();
    l.backlog = static_cast<int>(r.GetU32());
    std::uint32_t m = r.GetU32();
    for (std::uint32_t j = 0; j < m; ++j) {
      l.accept_queue.push_back(r.GetU64());
    }
    ck.listeners.push_back(std::move(l));
  }
  n = r.GetU32();
  for (std::uint32_t i = 0; i < n; ++i) {
    UdpRecord u;
    u.socket_ref = r.GetU64();
    u.port = r.GetU16();
    std::uint32_t m = r.GetU32();
    for (std::uint32_t j = 0; j < m; ++j) {
      net::Endpoint src;
      src.ip.value = r.GetU32();
      src.port = r.GetU16();
      u.rx.emplace_back(src, r.GetBlob());
    }
    ck.udp.push_back(std::move(u));
  }
  n = r.GetU32();
  for (std::uint32_t i = 0; i < n; ++i) {
    FreshSocketRecord f;
    f.socket_ref = r.GetU64();
    f.bound = r.GetBool();
    f.port = r.GetU16();
    ck.fresh_sockets.push_back(f);
  }
  n = r.GetU32();
  for (std::uint32_t i = 0; i < n; ++i) {
    ProcessRecord p;
    p.vpid = static_cast<os::Pid>(r.GetU32());
    p.program = r.GetString();
    std::uint32_t threads = r.GetU32();
    for (std::uint32_t j = 0; j < threads; ++j) {
      ThreadRecord t;
      t.tid = static_cast<os::Tid>(r.GetU32());
      for (int k = 0; k < os::kNumRegisters; ++k) t.regs.r[k] = r.GetU64();
      p.threads.push_back(t);
    }
    std::uint32_t pages = r.GetU32();
    for (std::uint32_t j = 0; j < pages; ++j) {
      PageRecord page;
      page.page_index = r.GetU64();
      if (compressed) {
        page.content = DecodePage(r.GetBlob());
      } else {
        page.content = r.GetBytes(os::kPageSize);
      }
      p.pages.push_back(std::move(page));
    }
    g_page_bytes_deserialized.fetch_add(pages * os::kPageSize,
                                        std::memory_order_relaxed);
    std::uint32_t fds = r.GetU32();
    for (std::uint32_t j = 0; j < fds; ++j) {
      FdRecord f;
      f.fd = static_cast<os::Fd>(r.GetU32());
      f.desc_ref = r.GetU64();
      p.fds.push_back(f);
    }
    std::uint32_t atts = r.GetU32();
    for (std::uint32_t j = 0; j < atts; ++j) {
      ShmAttachRecord a;
      a.key = static_cast<std::int32_t>(r.GetU32());
      a.addr = r.GetU64();
      p.shm_attachments.push_back(a);
    }
    ck.processes.push_back(std::move(p));
  }
  if (!r.AtEnd()) {
    throw cruz::CodecError("trailing bytes in checkpoint image");
  }
  return ck;
}

PodCheckpoint PodCheckpoint::MergeOnto(const PodCheckpoint& base) const {
  CRUZ_CHECK(base.pod_id == pod_id, "MergeOnto: pod mismatch");
  PodCheckpoint merged = *this;  // newest non-page state wins
  merged.incremental = false;
  merged.parent_image.clear();
  // Per-process page overlay: base pages first, then this image's dirty
  // pages. Processes that did not exist in the base keep only their own
  // pages (everything they ever touched is dirty since creation).
  for (ProcessRecord& proc : merged.processes) {
    const ProcessRecord* base_proc = nullptr;
    for (const ProcessRecord& bp : base.processes) {
      if (bp.vpid == proc.vpid) {
        base_proc = &bp;
        break;
      }
    }
    if (base_proc == nullptr) continue;
    std::map<std::uint64_t, const cruz::Bytes*> by_index;
    for (const PageRecord& page : base_proc->pages) {
      by_index[page.page_index] = &page.content;
    }
    for (const PageRecord& page : proc.pages) {
      by_index[page.page_index] = &page.content;
    }
    std::vector<PageRecord> combined;
    combined.reserve(by_index.size());
    for (const auto& [index, content] : by_index) {
      combined.push_back(PageRecord{index, *content});
    }
    proc.pages = std::move(combined);
  }
  return merged;
}

std::uint64_t PageBytesSerializedTotal() {
  return g_page_bytes_serialized.load(std::memory_order_relaxed);
}

std::uint64_t PageBytesDeserializedTotal() {
  return g_page_bytes_deserialized.load(std::memory_order_relaxed);
}

}  // namespace cruz::ckpt
