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

// The image body's one field list, for a ByteCounter (the size pass),
// a ByteWriter (the write pass) or a ByteReader. `page(io, record)`
// handles one page record's payload after its index; the passes differ
// only there.
template <typename Io, typename PageFn>
void BodyFields(Io& io, cruz::FieldRef<Io, PodCheckpoint> ck, PageFn&& page) {
  io.U32(ck.pod_id);
  io.String(ck.pod_name);
  io.U32(ck.ip.value);
  io.Octets(ck.vif_mac.octets);
  io.Octets(ck.fake_mac.octets);
  io.U32(ck.next_vpid);
  io.Bool(ck.incremental);
  io.U32(ck.generation);
  io.String(ck.parent_image);

  io.Seq(ck.shm, [&](auto& s) {
    io.U32(s.virtual_id);
    io.U32(s.key);
    io.Blob(s.data);
  });
  io.Seq(ck.sems, [&](auto& s) {
    io.U32(s.virtual_id);
    io.U32(s.key);
    io.U32(s.value);
  });
  io.Seq(ck.pipes, [&](auto& p) {
    io.U64(p.id);
    io.Blob(p.buffer);
  });
  io.Seq(ck.descs, [&](auto& d) {
    io.U64(d.ref);
    io.Enum(d.kind,
            [](os::FileDescription::Kind k) {
              return k <= os::FileDescription::Kind::kUdpSocket;
            },
            "invalid fd kind in image");
    io.String(d.path);
    io.U64(d.offset);
    io.U64(d.pipe_id);
    io.U64(d.socket_ref);
  });
  io.Seq(ck.conns, [&](auto& c) {
    io.U64(c.socket_ref);
    tcp::Fields(io, c.conn);
  });
  io.Seq(ck.listeners, [&](auto& l) {
    io.U64(l.socket_ref);
    io.U16(l.port);
    io.U32(l.backlog);
    io.Seq(l.accept_queue, [&](auto& ref) { io.U64(ref); });
  });
  io.Seq(ck.udp, [&](auto& u) {
    io.U64(u.socket_ref);
    io.U16(u.port);
    io.Seq(u.rx, [&](auto& datagram) {
      io.U32(datagram.first.ip.value);
      io.U16(datagram.first.port);
      io.Blob(datagram.second);
    });
  });
  io.Seq(ck.fresh_sockets, [&](auto& f) {
    io.U64(f.socket_ref);
    io.Bool(f.bound);
    io.U16(f.port);
  });
  io.Seq(ck.processes, [&](auto& p) {
    io.U32(p.vpid);
    io.String(p.program);
    io.Seq(p.threads, [&](auto& t) {
      io.U32(t.tid);
      for (auto& reg : t.regs.r) io.U64(reg);
    });
    io.Seq(p.pages, [&](auto& record) {
      io.U64(record.page_index);
      page(io, record);
    });
    io.Seq(p.fds, [&](auto& f) {
      io.U32(f.fd);
      io.U64(f.desc_ref);
    });
    io.Seq(p.shm_attachments, [&](auto& a) {
      io.U32(a.key);
      io.U64(a.addr);
    });
  });
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
  // Size pass: the body's exact length, and each compressed page's
  // encoded size (which also names the codec the page will use).
  std::vector<std::uint32_t> page_sizes;
  cruz::ByteCounter counter;
  BodyFields(counter, *this, [&](cruz::ByteCounter& w, const PageRecord& r) {
    const os::Page& page = *r.content;
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
  BodyFields(out, *this, [&](cruz::ByteWriter& w, const PageRecord& r) {
    const os::Page& page = *r.content;
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
  cruz::ByteReader body(CheckFrame(image, &compressed));
  PodCheckpoint ck;
  std::uint64_t pages = 0;
  BodyFields(body, ck, [&](cruz::ByteReader& r, PageRecord& record) {
    ++pages;
    if (compressed) {
      record.content =
          std::make_shared<os::Page>(DecodePage(r.GetSpan(r.GetU32())));
    } else {
      cruz::ByteSpan raw = r.GetSpan(os::kPageSize);
      record.content = std::make_shared<os::Page>(raw.begin(), raw.end());
    }
  });
  if (!body.AtEnd()) {
    throw cruz::CodecError("trailing bytes in checkpoint image");
  }
  g_page_bytes_deserialized.fetch_add(pages * os::kPageSize,
                                      std::memory_order_relaxed);
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
