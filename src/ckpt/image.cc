#include "ckpt/image.h"

#include <atomic>
#include <map>
#include <memory>

#include "common/crc32.h"
#include "common/error.h"

namespace cruz::ckpt {

namespace {

constexpr char kMagic[8] = {'C', 'R', 'U', 'Z', 'I', 'M', 'G', '1'};
constexpr std::uint32_t kVersionRaw = 1;         // raw fixed-size pages
constexpr std::uint32_t kVersionCompressed = 2;  // per-page codec blobs

std::atomic<std::uint64_t> g_page_bytes_serialized{0};
std::atomic<std::uint64_t> g_page_bytes_deserialized{0};

template <typename Writer>
void PutMac(Writer& w, net::MacAddress mac) {
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

namespace {

// The image body's one field list, for a ByteCounter (the size pass) or
// a ByteWriter (the write pass). `put_page(w, bytes)` emits one page
// record's payload after its index; the passes differ only there.
template <typename Writer, typename PutPage>
void PutBody(const PodCheckpoint& ck, Writer& w, PutPage&& put_page) {
  w.PutU32(ck.pod_id);
  w.PutString(ck.pod_name);
  w.PutU32(ck.ip.value);
  PutMac(w, ck.vif_mac);
  PutMac(w, ck.fake_mac);
  w.PutU32(static_cast<std::uint32_t>(ck.next_vpid));
  w.PutBool(ck.incremental);
  w.PutU32(ck.generation);
  w.PutString(ck.parent_image);

  w.PutU32(static_cast<std::uint32_t>(ck.shm.size()));
  for (const ShmRecord& s : ck.shm) {
    w.PutU32(static_cast<std::uint32_t>(s.virtual_id));
    w.PutU32(static_cast<std::uint32_t>(s.key));
    w.PutBlob(s.data);
  }
  w.PutU32(static_cast<std::uint32_t>(ck.sems.size()));
  for (const SemRecord& s : ck.sems) {
    w.PutU32(static_cast<std::uint32_t>(s.virtual_id));
    w.PutU32(static_cast<std::uint32_t>(s.key));
    w.PutU32(static_cast<std::uint32_t>(s.value));
  }
  w.PutU32(static_cast<std::uint32_t>(ck.pipes.size()));
  for (const PipeRecord& p : ck.pipes) {
    w.PutU64(p.id);
    w.PutBlob(p.buffer);
  }
  w.PutU32(static_cast<std::uint32_t>(ck.descs.size()));
  for (const DescRecord& d : ck.descs) {
    w.PutU64(d.ref);
    w.PutU8(static_cast<std::uint8_t>(d.kind));
    w.PutString(d.path);
    w.PutU64(d.offset);
    w.PutU64(d.pipe_id);
    w.PutU64(d.socket_ref);
  }
  w.PutU32(static_cast<std::uint32_t>(ck.conns.size()));
  for (const ConnRecord& c : ck.conns) {
    w.PutU64(c.socket_ref);
    c.conn.Serialize(w);
  }
  w.PutU32(static_cast<std::uint32_t>(ck.listeners.size()));
  for (const ListenerRecord& l : ck.listeners) {
    w.PutU64(l.socket_ref);
    w.PutU16(l.port);
    w.PutU32(static_cast<std::uint32_t>(l.backlog));
    w.PutU32(static_cast<std::uint32_t>(l.accept_queue.size()));
    for (std::uint64_t ref : l.accept_queue) w.PutU64(ref);
  }
  w.PutU32(static_cast<std::uint32_t>(ck.udp.size()));
  for (const UdpRecord& u : ck.udp) {
    w.PutU64(u.socket_ref);
    w.PutU16(u.port);
    w.PutU32(static_cast<std::uint32_t>(u.rx.size()));
    for (const auto& [src, payload] : u.rx) {
      w.PutU32(src.ip.value);
      w.PutU16(src.port);
      w.PutBlob(payload);
    }
  }
  w.PutU32(static_cast<std::uint32_t>(ck.fresh_sockets.size()));
  for (const FreshSocketRecord& f : ck.fresh_sockets) {
    w.PutU64(f.socket_ref);
    w.PutBool(f.bound);
    w.PutU16(f.port);
  }
  w.PutU32(static_cast<std::uint32_t>(ck.processes.size()));
  for (const ProcessRecord& p : ck.processes) {
    w.PutU32(static_cast<std::uint32_t>(p.vpid));
    w.PutString(p.program);
    w.PutU32(static_cast<std::uint32_t>(p.threads.size()));
    for (const ThreadRecord& t : p.threads) {
      w.PutU32(static_cast<std::uint32_t>(t.tid));
      for (int i = 0; i < os::kNumRegisters; ++i) w.PutU64(t.regs.r[i]);
    }
    w.PutU32(static_cast<std::uint32_t>(p.pages.size()));
    for (const PageRecord& page : p.pages) {
      w.PutU64(page.page_index);
      put_page(w, *page.content);
    }
    w.PutU32(static_cast<std::uint32_t>(p.fds.size()));
    for (const FdRecord& f : p.fds) {
      w.PutU32(static_cast<std::uint32_t>(f.fd));
      w.PutU64(f.desc_ref);
    }
    w.PutU32(static_cast<std::uint32_t>(p.shm_attachments.size()));
    for (const ShmAttachRecord& a : p.shm_attachments) {
      w.PutU32(static_cast<std::uint32_t>(a.key));
      w.PutU64(a.addr);
    }
  }
}

}  // namespace

cruz::Bytes PodCheckpoint::Serialize(bool compress) const {
  // Size pass: the body's exact length, and each compressed page's
  // encoded size (which also names the codec the page will use).
  std::vector<std::uint32_t> page_sizes;
  cruz::ByteCounter counter;
  PutBody(*this, counter, [&](cruz::ByteCounter& w, cruz::ByteSpan page) {
    if (compress) {
      page_sizes.push_back(static_cast<std::uint32_t>(
          EncodedPageSize(page, PageCodec::kRle)));
      w.PutU32(page_sizes.back());
      w.PutBytes(nullptr, page_sizes.back());  // counted, not written
    } else {
      w.PutBytes(page);
    }
  });
  const std::size_t body_size = counter.size();
  CRUZ_CHECK(body_size <= UINT32_MAX,
             "Serialize: body exceeds its u32 length field");
  // Frame: magic, version, [codec id], body length, body, CRC-32.
  const std::size_t header = 8 + 4 + (compress ? 1 : 0) + 4;

  // Write pass, into a buffer of exactly the image's size.
  cruz::ByteWriter out(header + body_size + 4);
  out.PutBytes(reinterpret_cast<const std::uint8_t*>(kMagic), 8);
  if (compress) {
    // Self-describing header: version 2 carries the preferred codec id so
    // tools can identify the page encoding without parsing the body.
    out.PutU32(kVersionCompressed);
    out.PutU8(static_cast<std::uint8_t>(PageCodec::kRle));
  } else {
    out.PutU32(kVersionRaw);
  }
  out.PutU32(static_cast<std::uint32_t>(body_size));
  std::size_t next_page = 0;
  std::uint64_t pages = 0;
  PutBody(*this, out, [&](cruz::ByteWriter& w, cruz::ByteSpan page) {
    ++pages;
    if (compress) {
      const std::uint32_t size = page_sizes[next_page++];
      w.PutU32(size);
      EncodePageInto(w, page, size);
    } else {
      w.PutBytes(page);
    }
  });
  CRUZ_CHECK(out.size() == header + body_size,
             "Serialize: size pass and write pass disagree");
  g_page_bytes_serialized.fetch_add(pages * os::kPageSize,
                                    std::memory_order_relaxed);
  out.PutU32(cruz::Crc32(cruz::ByteSpan(out.data()).subspan(header)));
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
        page.content =
            std::make_shared<os::Page>(DecodePage(r.GetSpan(r.GetU32())));
      } else {
        cruz::ByteSpan raw = r.GetSpan(os::kPageSize);
        page.content = std::make_shared<os::Page>(raw.begin(), raw.end());
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
    std::map<std::uint64_t, os::SharedPage> by_index;
    for (const PageRecord& page : base_proc->pages) {
      by_index[page.page_index] = page.content;
    }
    for (const PageRecord& page : proc.pages) {
      by_index[page.page_index] = page.content;
    }
    std::vector<PageRecord> combined;
    combined.reserve(by_index.size());
    for (auto& [index, content] : by_index) {
      combined.push_back(PageRecord{index, std::move(content)});
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
