// Byte-identity pins for the checkpoint image codec. Fixed PodCheckpoints
// are serialized in both on-disk versions and each image's size and
// CRC-32 is pinned, so any change to how an image is encoded — field
// order, page codec choice, framing — shows up here before it reaches a
// trace or a benchmark. A second test pins that the copy-on-write path
// (SnapshotPod, then Materialize) encodes exactly the bytes of a
// stop-the-world capture of the same pod at the same instant.
#include <gtest/gtest.h>

#include <algorithm>
#include <memory>

#include "apps/programs.h"
#include "ckpt/engine.h"
#include "ckpt/image.h"
#include "common/crc32.h"
#include "cruz/cluster.h"

namespace cruz::ckpt {
namespace {

PageRecord MakePage(std::uint64_t index, cruz::Bytes content) {
  return PageRecord{index,
                    std::make_shared<cruz::Bytes>(std::move(content))};
}

// Long runs: RLE wins.
cruz::Bytes RunsPage() {
  cruz::Bytes page(os::kPageSize, 0);
  std::fill(page.begin() + 1000, page.begin() + 1096, 0x7f);
  std::fill(page.begin() + 3000, page.begin() + 3001, 0x01);
  return page;
}

// No two neighbouring bytes equal: RLE loses, the page is stored raw.
cruz::Bytes NoRunsPage() {
  cruz::Bytes page(os::kPageSize);
  for (std::size_t i = 0; i < page.size(); ++i) {
    page[i] = static_cast<std::uint8_t>(i * 131 + 7);
  }
  return page;
}

// One record of every kind the image carries.
PodCheckpoint FixedCheckpoint() {
  PodCheckpoint ck;
  ck.pod_id = 1001;
  ck.pod_name = "pinned";
  ck.ip = net::Ipv4Address::Parse("10.0.0.100");
  ck.vif_mac = net::MacAddress::FromId(0x200001);
  ck.fake_mac = net::MacAddress::FromId(0xFA0001);
  ck.next_vpid = 3;
  ck.shm.push_back(ShmRecord{1, 7, cruz::Bytes(300, 0xAB)});
  ck.sems.push_back(SemRecord{2, 8, -1});
  ck.pipes.push_back(PipeRecord{3, {1, 2, 3, 4, 5}});
  DescRecord file;
  file.ref = 1;
  file.kind = os::FileDescription::Kind::kFile;
  file.path = "/data/log";
  file.offset = 4242;
  ck.descs.push_back(file);
  DescRecord pipe;
  pipe.ref = 2;
  pipe.kind = os::FileDescription::Kind::kPipeWrite;
  pipe.pipe_id = 3;
  ck.descs.push_back(pipe);
  DescRecord sock;
  sock.ref = 3;
  sock.kind = os::FileDescription::Kind::kTcpSocket;
  sock.socket_ref = 10;
  ck.descs.push_back(sock);
  DescRecord usock;
  usock.ref = 4;
  usock.kind = os::FileDescription::Kind::kUdpSocket;
  usock.socket_ref = 12;
  ck.descs.push_back(usock);
  ConnRecord conn;
  conn.socket_ref = 10;
  conn.conn.tuple.local = {ck.ip, 9000};
  conn.conn.tuple.remote = {net::Ipv4Address::Parse("10.0.0.2"), 4000};
  conn.conn.state = tcp::TcpState::kEstablished;
  conn.conn.iss = 1000;
  conn.conn.irs = 2000;
  conn.conn.snd_una = 1101;
  conn.conn.rcv_nxt = 2051;
  conn.conn.snd_wnd = 8192;
  conn.conn.cwnd_bytes = 14600;
  conn.conn.ssthresh_bytes = 65535;
  conn.conn.send_packets.push_back(cruz::Bytes(100, 1));
  conn.conn.send_packets.push_back(cruz::Bytes(37, 6));
  conn.conn.recv_pending = cruz::Bytes(50, 2);
  ck.conns.push_back(conn);
  ck.listeners.push_back(ListenerRecord{11, 9000, 8, {10}});
  UdpRecord u;
  u.socket_ref = 12;
  u.port = 5353;
  u.rx.emplace_back(net::Endpoint{net::Ipv4Address::Parse("10.0.0.3"), 99},
                    cruz::Bytes{9, 9, 8});
  ck.udp.push_back(u);
  ck.fresh_sockets.push_back(FreshSocketRecord{13, true, 7000});
  ProcessRecord p;
  p.vpid = 1;
  p.program = "cruz.counter";
  ThreadRecord t;
  t.tid = 0;
  for (int i = 0; i < os::kNumRegisters; ++i) {
    t.regs.r[i] = 0x0102030405060708ull * static_cast<std::uint64_t>(i + 1);
  }
  p.threads.push_back(t);
  p.pages.push_back(MakePage(16, RunsPage()));
  p.pages.push_back(MakePage(17, NoRunsPage()));
  p.pages.push_back(MakePage(40, cruz::Bytes(os::kPageSize, 0)));
  p.fds.push_back(FdRecord{3, 1});
  p.fds.push_back(FdRecord{4, 2});
  p.fds.push_back(FdRecord{5, 3});
  p.fds.push_back(FdRecord{6, 4});
  p.shm_attachments.push_back(ShmAttachRecord{7, 0x700000});
  ck.processes.push_back(p);
  ProcessRecord q;
  q.vpid = 2;
  q.program = "cruz.echo";
  q.threads.push_back(ThreadRecord{1, {}});
  q.pages.push_back(MakePage(5, cruz::Bytes(os::kPageSize, 0xEE)));
  ck.processes.push_back(q);
  return ck;
}

struct Pin {
  std::size_t size;
  std::uint32_t crc;
};

void ExpectPinned(const cruz::Bytes& image, Pin pin) {
  EXPECT_EQ(image.size(), pin.size);
  EXPECT_EQ(cruz::Crc32(image), pin.crc);
  // Stores keep the serializer's buffer itself, on every tier and for
  // every generation they retain, so it carries no slack.
  EXPECT_EQ(image.capacity(), image.size());
}

TEST(ImageCodecPin, RawV1Image) {
  ExpectPinned(FixedCheckpoint().Serialize(/*compress=*/false),
               Pin{17724, 722138257u});
}

TEST(ImageCodecPin, CompressedV2ImageWithRleRawAndZeroPages) {
  ExpectPinned(FixedCheckpoint().Serialize(/*compress=*/true),
               Pin{5494, 3377916781u});
}

TEST(ImageCodecPin, IncrementalImageWithParentLink) {
  PodCheckpoint ck = FixedCheckpoint();
  ck.incremental = true;
  ck.generation = 7;
  ck.parent_image = "/ckpt/gens/gen_000006/pod_1001.img";
  ck.processes.at(0).pages.resize(1);
  ck.processes.at(1).pages.clear();
  ExpectPinned(ck.Serialize(/*compress=*/true), Pin{1375, 3935203588u});
  ExpectPinned(ck.Serialize(/*compress=*/false), Pin{5446, 2050416419u});
}

TEST(ImageCodecPin, EmptyCheckpoint) {
  ExpectPinned(PodCheckpoint{}.Serialize(false), Pin{93, 2676245714u});
  ExpectPinned(PodCheckpoint{}.Serialize(true), Pin{94, 572129054u});
}

// Two identical clusters reach the same instant; one pod is captured
// stop-the-world, its twin through the copy-on-write split. Both encode
// the same bytes in both versions, and those bytes are pinned too.
TEST(ImageCodecPin, SnapshotMaterializeMatchesStopTheWorldCapture) {
  auto make = [](Cluster& c) {
    os::PodId id = c.CreatePod(0, "job");
    os::Pid vpid =
        c.pods(0).SpawnInPod(id, "cruz.counter", apps::CounterArgs(1u << 30));
    os::Process* proc =
        c.node(0).os().FindProcess(c.pods(0).ToRealPid(id, vpid));
    proc->memory().InstallPage(0x900, RunsPage());
    proc->memory().InstallPage(0x901, NoRunsPage());
    c.sim().RunFor(10 * kMillisecond);
    return id;
  };
  Cluster stw_cluster;
  Cluster cow_cluster;
  os::PodId stw_id = make(stw_cluster);
  os::PodId cow_id = make(cow_cluster);
  PodCheckpoint stw = CheckpointEngine::CapturePod(stw_cluster.pods(0), stw_id);
  PodSnapshot snap =
      CheckpointEngine::SnapshotPod(cow_cluster.pods(0), cow_id, {});
  for (bool compress : {false, true}) {
    cruz::Bytes expected = stw.Serialize(compress);
    cruz::Bytes actual = snap.Materialize().Serialize(compress);
    EXPECT_EQ(actual, expected) << "compress=" << compress;
    ExpectPinned(expected, compress ? Pin{4462, 4117739159u}
                                    : Pin{16680, 2243677392u});
  }
}

// Every strict prefix of a pinned image fails as CodecError, and so does
// every strict prefix of its body inside an intact frame; no other
// exception type escapes the decoder.
TEST(ImageCodec, EveryTruncationIsACodecError) {
  for (bool compress : {false, true}) {
    const cruz::Bytes image = FixedCheckpoint().Serialize(compress);
    const cruz::ByteSpan all(image);
    for (std::size_t n = 0; n < image.size(); ++n) {
      EXPECT_THROW(PodCheckpoint::Deserialize(all.first(n)),
                   cruz::CodecError)
          << "compress=" << compress << " prefix " << n;
    }
    const std::size_t header = compress ? 17 : 16;
    const cruz::ByteSpan body = all.subspan(header, image.size() - header - 4);
    for (std::size_t n = 0; n < body.size(); ++n) {
      // Frame the body prefix in place of the full body, keeping the
      // header (and a version-2 codec byte) as written.
      cruz::ByteWriter w;
      w.PutBytes(all.first(header - 4));
      w.PutU32(static_cast<std::uint32_t>(n));
      w.PutBytes(body.first(n));
      w.PutU32(cruz::Crc32(body.first(n)));
      EXPECT_THROW(PodCheckpoint::Deserialize(w.Take()), cruz::CodecError)
          << "compress=" << compress << " body prefix " << n;
    }
    EXPECT_NO_THROW(PodCheckpoint::Deserialize(image));
  }
}

// A send-packet count far beyond what the image holds, under a valid
// CRC, fails on the short read: the decoder never reserves from it.
TEST(ImageCodec, HugeSendPacketCountIsACodecError) {
  PodCheckpoint ck;
  ConnRecord conn;
  conn.conn.ssthresh_bytes = 0xA1B2C3D4;  // marks the record's position
  ck.conns.push_back(conn);
  cruz::Bytes image = ck.Serialize(false);
  const std::uint8_t mark[] = {0xA1, 0xB2, 0xC3, 0xD4};
  auto at = std::search(image.begin(), image.end(), std::begin(mark),
                        std::end(mark));
  ASSERT_NE(at, image.end());
  // ssthresh, then app_closed and fin_acked, then the u32 packet count.
  const std::size_t count = static_cast<std::size_t>(at - image.begin()) + 6;
  ASSERT_EQ(image[count + 3], 0);
  image[count] = 0x7F;
  image[count + 1] = image[count + 2] = image[count + 3] = 0xFF;
  // Re-seal the frame: the body CRC in the trailer.
  const std::uint32_t crc =
      cruz::Crc32(cruz::ByteSpan(image).subspan(16, image.size() - 20));
  for (std::size_t i = 0; i < 4; ++i) {
    image[image.size() - 4 + i] =
        static_cast<std::uint8_t>(crc >> (24 - 8 * i));
  }
  EXPECT_THROW(PodCheckpoint::Deserialize(image), cruz::CodecError);
}

}  // namespace
}  // namespace cruz::ckpt
