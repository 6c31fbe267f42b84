// The agent's local save pipeline: snapshot → serialize → store → done.
//
// Stop-the-world (STW) and copy-on-write (COW) saves share one pipeline
// and differ only in when the pod may resume and which bytes the
// serialize window bills. These tests pin the save timeline of both
// modes exactly, in both storage configurations, and check that a
// disk-write error surfaces at the same instant in both: the write-done
// instant, capture + serialize + disk after the save begins.
#include <gtest/gtest.h>

#include <memory>
#include <ostream>
#include <stdexcept>
#include <string>
#include <vector>

#include "apps/programs.h"
#include "ckpt/generation.h"
#include "ckpt/image.h"
#include "cruz/cluster.h"
#include "fault/fault.h"
#include "obs/trace_query.h"

namespace cruz {
namespace {

using obs::TraceEvent;
using obs::TraceQuery;

os::PodId SpawnCounterPod(Cluster& c, std::size_t node,
                          const std::string& name) {
  os::PodId id = c.CreatePod(node, name);
  c.pods(node).SpawnInPod(id, "cruz.counter", apps::CounterArgs(1u << 30));
  return id;
}

os::Process& PodProcess(Cluster& c, std::size_t node, os::PodId pod) {
  os::Process* proc =
      c.node(node).os().FindProcess(c.pods(node).ToRealPid(pod, 1));
  if (proc == nullptr) throw std::logic_error("pod has no process 1");
  return *proc;
}

bool PodProcessLive(Cluster& c, std::size_t node, os::PodId pod) {
  os::Pid real = c.pods(node).ToRealPid(pod, 1);
  if (real == os::kNoPid) return false;
  os::Process* proc = c.node(node).os().FindProcess(real);
  return proc != nullptr && proc->state() == os::ProcessState::kLive;
}

// Writes `count` pages of `fill` starting at page `first`.
void FillPages(os::Process& proc, std::uint64_t first, std::uint64_t count,
               std::uint8_t fill) {
  Bytes page(os::kPageSize, fill);
  for (std::uint64_t i = 0; i < count; ++i) {
    proc.memory().InstallPage(first + i, page);
  }
}

// The image stored at `path`, decoded from the best copy on any tier.
ckpt::PodCheckpoint StoredImage(Cluster& c, const std::string& path) {
  Bytes raw;
  EXPECT_TRUE(SysOk(c.tiered().Resolve(nullptr, path, raw))) << path;
  return ckpt::PodCheckpoint::Deserialize(raw);
}

std::string ArgOf(const TraceEvent& e, const std::string& key) {
  for (const auto& [k, v] : e.attrs.args) {
    if (k == key) return v;
  }
  return {};
}

const TraceEvent* OnlySpan(const TraceQuery& q, const char* name,
                           std::uint64_t op, const std::string& agent) {
  std::vector<const TraceEvent*> spans =
      q.Select(TraceQuery::Filter{}.Name(name).Op(op).Agent(agent));
  EXPECT_EQ(spans.size(), 1u) << name << " op " << op << " " << agent;
  return spans.empty() ? nullptr : spans.front();
}

coord::Coordinator::Options SaveOptions(bool cow, bool tiered) {
  coord::Coordinator::Options options;
  options.variant = coord::ProtocolVariant::kOptimized;
  options.copy_on_write = cow;
  options.tiered = tiered;
  options.compress = tiered;  // one-tier raw, tiered compressed
  return options;
}

// --- save timeline pin -----------------------------------------------------

// One member's save, as the coordinator, the trace and the metrics see
// it. The op has one member, so the coordinator's max_local and
// max_downtime are that member's <done> local_duration and downtime.
struct SaveTimeline {
  DurationNs local, downtime, checkpoint_latency, full_latency;
  TimeNs save_begin;
  DurationNs save_dur;
  std::string save_image_bytes;  // empty: not known when the save began
  TimeNs downtime_begin;
  DurationNs downtime_dur;
  std::uint64_t images_written, image_bytes_total;
};

bool operator==(const SaveTimeline& a, const SaveTimeline& b) {
  return a.local == b.local && a.downtime == b.downtime &&
         a.checkpoint_latency == b.checkpoint_latency &&
         a.full_latency == b.full_latency && a.save_begin == b.save_begin &&
         a.save_dur == b.save_dur &&
         a.save_image_bytes == b.save_image_bytes &&
         a.downtime_begin == b.downtime_begin &&
         a.downtime_dur == b.downtime_dur &&
         a.images_written == b.images_written &&
         a.image_bytes_total == b.image_bytes_total;
}

std::ostream& operator<<(std::ostream& os, const SaveTimeline& t) {
  return os << "{" << t.local << ", " << t.downtime << ", "
            << t.checkpoint_latency << ", " << t.full_latency << ", "
            << t.save_begin << ", "
            << t.save_dur << ", \"" << t.save_image_bytes << "\", "
            << t.downtime_begin << ", " << t.downtime_dur << ", "
            << t.images_written << ", " << t.image_bytes_total << "}";
}

// A full first generation, then an incremental second one after the pod
// dirtied part of its working set.
std::vector<SaveTimeline> RunSaveTimeline(bool cow, bool tiered) {
  ClusterConfig config;
  config.seed = 2026;
  config.num_nodes = 2;
  config.node_template.disk_write_bytes_per_sec = 16 * kMiB;
  Cluster c(config);
  os::PodId pod = SpawnCounterPod(c, 0, "job");
  FillPages(PodProcess(c, 0, pod), 0x100, 96, 0x42);
  c.sim().RunFor(20 * kMillisecond);

  std::vector<SaveTimeline> rows;
  for (int gen = 0; gen < 2; ++gen) {
    if (gen == 1) FillPages(PodProcess(c, 0, pod), 0x100, 24, 0x17);
    coord::Coordinator::Options options = SaveOptions(cow, tiered);
    options.incremental = true;
    options.image_prefix = "/ckpt/timeline_g" + std::to_string(gen);
    auto stats = c.RunCheckpoint({c.MemberFor(0, pod)}, options);
    EXPECT_TRUE(stats.success);
    c.sim().RunFor(500 * kMillisecond);

    TraceQuery q(c.sim().tracer());
    const TraceEvent* save =
        OnlySpan(q, "agent.save", stats.op_id, c.node(0).name());
    const TraceEvent* down =
        OnlySpan(q, "agent.downtime", stats.op_id, c.node(0).name());
    if (save == nullptr || down == nullptr) return rows;
    obs::MetricsRegistry& m = c.sim().metrics();
    rows.push_back(SaveTimeline{
        stats.max_local, stats.max_downtime, stats.checkpoint_latency,
        stats.full_latency, save->ts, save->dur,
        ArgOf(*save, "image_bytes"), down->ts, down->dur,
        m.counter("ckpt.images_written_total").value(),
        m.counter("ckpt.image_bytes_total").value()});
  }
  return rows;
}

TEST(AgentSave, TimelinePinned) {
  struct Case {
    bool cow, tiered;
    std::vector<SaveTimeline> want;
  };
  // {local, downtime, checkpoint_latency, full_latency, save begin,
  //  save dur, save image_bytes, downtime begin, downtime dur,
  //  images written, image bytes total}
  const std::vector<Case> cases = {
      {false, false,
       {{29393062, 29393062, 29426886, 29446886, 20024824, 29393062,
         "402456", 20024824, 29393062, 1, 402456},
        {11258787, 11258787, 11277267, 11297267, 549456366, 11258787,
         "102894", 549456366, 11258787, 2, 505350}}},
      {false, true,
       {{5165418, 5165418, 5199786, 5219242, 20024824, 5165418, "2237",
         20024824, 5165418, 1, 2237},
        {5078488, 5078488, 5097512, 5116968, 525228722, 5078488, "801",
         525228722, 5078488, 2, 3038}}},
      {true, false,
       {{29392086, 30000, 29425910, 29425910, 20024824, 29392086, "",
         20024824, 30000, 1, 402456},
        {11258327, 30000, 11276807, 11276807, 549435390, 11258327, "",
         549435390, 30000, 2, 505350}}},
      {true, true,
       {{5537175, 30000, 5571543, 5571543, 20024824, 5537175, "", 20024824,
         30000, 1, 2237},
        {5173110, 30000, 5192134, 5192134, 525581023, 5173110, "",
         525581023, 30000, 2, 3038}}},
  };
  for (const Case& k : cases) {
    SCOPED_TRACE(std::string(k.cow ? "copy-on-write" : "stop-the-world") +
                 (k.tiered ? ", tiered compressed" : ", one-tier raw"));
    EXPECT_EQ(RunSaveTimeline(k.cow, k.tiered), k.want);
  }
}

// --- serialization work ----------------------------------------------------

// Each mode serializes the snapshot once: stop-the-world at the snapshot,
// copy-on-write at the write instant. Every page the save span counts is
// encoded exactly once, in both storage configurations.
TEST(AgentSave, EachModeSerializesEveryPageOnce) {
  for (bool cow : {false, true}) {
    for (bool tiered : {false, true}) {
      SCOPED_TRACE(std::string(cow ? "copy-on-write" : "stop-the-world") +
                   (tiered ? ", tiered compressed" : ", one-tier raw"));
      ClusterConfig config;
      config.num_nodes = 2;
      Cluster c(config);
      os::PodId pod = SpawnCounterPod(c, 0, "job");
      FillPages(PodProcess(c, 0, pod), 0x100, 40, 0x42);
      c.sim().RunFor(20 * kMillisecond);

      const std::uint64_t before = ckpt::PageBytesSerializedTotal();
      auto stats =
          c.RunCheckpoint({c.MemberFor(0, pod)}, SaveOptions(cow, tiered));
      ASSERT_TRUE(stats.success);
      const std::uint64_t serialized =
          ckpt::PageBytesSerializedTotal() - before;

      TraceQuery q(c.sim().tracer());
      const TraceEvent* save =
          OnlySpan(q, "agent.save", stats.op_id, c.node(0).name());
      ASSERT_NE(save, nullptr);
      const std::uint64_t pages = std::stoull(ArgOf(*save, "pages"));
      EXPECT_GE(pages, 40u);
      EXPECT_EQ(serialized, pages * os::kPageSize);
    }
  }
}

// --- the single fault instant ----------------------------------------------

// Two members; node2's pod carries enough state that its save takes
// real (simulated) time. Generation 1 commits; generation 2 runs with a
// disk-write failure armed on node2 when `fail` is set.
struct FailedSave {
  fault::FaultPlan plan{17};
  std::unique_ptr<Cluster> c;
  std::vector<coord::Coordinator::Member> members;
  coord::Coordinator::Options options;
  Cluster::GenerationOpResult g1, g2;

  FailedSave(bool cow, bool fail) {
    ClusterConfig config;
    config.seed = 2027;
    config.num_nodes = 2;
    config.node_template.disk_write_bytes_per_sec = 16 * kMiB;
    c = std::make_unique<Cluster>(config);
    c->ArmFaults(plan);
    for (std::size_t i = 0; i < 2; ++i) {
      os::PodId pod = SpawnCounterPod(*c, i, "p" + std::to_string(i));
      members.push_back(c->MemberFor(i, pod));
    }
    FillPages(PodProcess(*c, 1, members[1].pod), 0x100, 128, 0x42);
    c->sim().RunFor(20 * kMillisecond);
    options = SaveOptions(cow, /*tiered=*/true);
    options.incremental = true;
    g1 = c->RunGenerationCheckpoint(members, options);
    EXPECT_TRUE(g1.stats.success);
    c->sim().RunFor(20 * kMillisecond);
    if (fail) plan.ArmDiskWriteFailure(c->node(1).name());
    g2 = c->RunGenerationCheckpoint(members, options);
  }

  const TraceEvent* Save(const TraceQuery& q) const {
    return OnlySpan(q, "agent.save", g2.stats.op_id, c->node(1).name());
  }
};

TEST(AgentSave, DiskWriteErrorSurfacesAtWriteDoneInBothModes) {
  for (bool cow : {false, true}) {
    SCOPED_TRACE(cow ? "copy-on-write" : "stop-the-world");
    // The fault-free twin runs the same save to completion: its save
    // span is capture + serialize + disk long.
    FailedSave clean(cow, /*fail=*/false);
    ASSERT_TRUE(clean.g2.stats.success);
    TraceQuery clean_q(clean.c->sim().tracer());
    const TraceEvent* clean_save = clean.Save(clean_q);
    ASSERT_NE(clean_save, nullptr);

    FailedSave f(cow, /*fail=*/true);
    Cluster& c = *f.c;
    EXPECT_FALSE(f.g2.stats.success);
    EXPECT_EQ(f.g2.latest_committed, f.g1.generation);
    EXPECT_EQ(f.plan.CountEvents(fault::FaultKind::kDiskWriteFail), 1u);
    TraceQuery q(c.sim().tracer());
    const TraceEvent* save = f.Save(q);
    std::vector<const TraceEvent*> failed = q.Select(
        TraceQuery::Filter{}.Name("agent.failed").Op(f.g2.stats.op_id));
    ASSERT_NE(save, nullptr);
    ASSERT_EQ(failed.size(), 1u);
    EXPECT_EQ(failed[0]->attrs.agent, c.node(1).name());
    EXPECT_EQ(ArgOf(*failed[0], "why"), "image write I/O error");
    EXPECT_EQ(save->ts, clean_save->ts);
    EXPECT_EQ(failed[0]->ts, save->ts + clean_save->dur);

    // Both pods run again, and no copy of the failed generation is left
    // on any tier, pending flushes included.
    c.sim().RunFor(2 * kSecond);
    EXPECT_TRUE(PodProcessLive(c, 0, f.members[0].pod));
    EXPECT_TRUE(PodProcessLive(c, 1, f.members[1].pod));
    const std::string failed_gen =
        ckpt::GenerationStore(c.tiered()).Prefix(f.g2.allocated) + "/";
    EXPECT_EQ(c.tiered().BytesUnderPrefix(failed_gen), 0u);
    EXPECT_TRUE(c.fs().List(failed_gen).empty());
    EXPECT_EQ(c.tiered().PendingFlushCount(), 0u);

    // The failed save consumed node2's dirty bits, so its next capture
    // is full (node1's too: the abort discarded its generation-2 image).
    // The capture after that is incremental again.
    auto g3 = c.RunGenerationCheckpoint(f.members, f.options);
    ASSERT_TRUE(g3.stats.success);
    for (const std::string& path : g3.stats.image_paths) {
      EXPECT_FALSE(StoredImage(c, path).incremental) << path;
    }

    // An armed corruption fires once; the next restart falls back past
    // the corrupt generation to generation 3.
    f.plan.ArmImageCorruption(c.node(1).name());
    auto g4 = c.RunGenerationCheckpoint(f.members, f.options);
    ASSERT_TRUE(g4.stats.success);
    EXPECT_EQ(f.plan.CountEvents(fault::FaultKind::kImageCorrupt), 1u);
    EXPECT_TRUE(StoredImage(c, g4.stats.image_paths.at(0)).incremental);
    c.sim().RunFor(2 * kSecond);
    for (std::size_t i = 0; i < 2; ++i) {
      c.pods(i).DestroyPod(f.members[i].pod);
    }
    c.sim().RunFor(10 * kMillisecond);
    auto rs = c.RunGenerationRestart(f.members, f.options);
    EXPECT_TRUE(rs.stats.success);
    EXPECT_TRUE(rs.fell_back);
    EXPECT_EQ(rs.generation, g3.generation);
    EXPECT_TRUE(PodProcessLive(c, 1, f.members[1].pod));
  }
}

// An op that aborts while a member is still inside its serialize window:
// the member's snapshot has already consumed its dirty bits, so its next
// capture must be full in both modes. An incremental one would miss the
// pages dirtied before the aborted snapshot.
TEST(AgentSave, AbortInSerializeWindowDropsIncrementalBaseline) {
  constexpr std::uint64_t kDirtyPage = 0x1000;  // clear of kStatusAddr
  for (bool cow : {false, true}) {
    SCOPED_TRACE(cow ? "copy-on-write" : "stop-the-world");
    ClusterConfig config;
    config.num_nodes = 2;
    Cluster c(config);
    fault::FaultPlan plan(19);
    c.ArmFaults(plan);
    std::vector<coord::Coordinator::Member> members;
    for (std::size_t i = 0; i < 2; ++i) {
      os::PodId pod = SpawnCounterPod(c, i, "p" + std::to_string(i));
      members.push_back(c.MemberFor(i, pod));
    }
    FillPages(PodProcess(c, 0, members[0].pod), kDirtyPage, 2048, 0x42);
    c.sim().RunFor(20 * kMillisecond);
    coord::Coordinator::Options options = SaveOptions(cow, /*tiered=*/true);
    options.incremental = true;
    options.compress = false;  // stop-the-world bills the image's size
    auto g1 = c.RunGenerationCheckpoint(members, options);
    ASSERT_TRUE(g1.stats.success);

    // node1 dirties 8 MiB: its serialize window (~8 ms) outlasts node2's
    // whole save (~5 ms), so node2's failure aborts node1 inside it.
    FillPages(PodProcess(c, 0, members[0].pod), kDirtyPage, 2048, 0x17);
    plan.ArmDiskWriteFailure(c.node(1).name());
    obs::Counter& written =
        c.sim().metrics().counter("ckpt.images_written_total");
    const std::uint64_t before = written.value();
    auto g2 = c.RunGenerationCheckpoint(members, options);
    ASSERT_FALSE(g2.stats.success);
    c.sim().RunFor(200 * kMillisecond);  // node1's <abort> lands
    EXPECT_EQ(written.value() - before, 1u);  // node2's; node1 never wrote
    TraceQuery q(c.sim().tracer());
    const TraceEvent* save =
        OnlySpan(q, "agent.save", g2.stats.op_id, c.node(0).name());
    ASSERT_NE(save, nullptr);
    EXPECT_EQ(ArgOf(*save, "outcome"), "aborted");

    auto g3 = c.RunGenerationCheckpoint(members, options);
    ASSERT_TRUE(g3.stats.success);
    EXPECT_FALSE(StoredImage(c, g3.stats.image_paths.at(0)).incremental);

    // Generation 3 restores the pages written before the aborted save.
    for (std::size_t i = 0; i < 2; ++i) c.pods(i).DestroyPod(members[i].pod);
    c.sim().RunFor(10 * kMillisecond);
    auto rs = c.RunGenerationRestart(members, options);
    ASSERT_TRUE(rs.stats.success);
    EXPECT_EQ(rs.generation, g3.generation);
    EXPECT_EQ(PodProcess(c, 0, members[0].pod)
                  .memory()
                  .ReadU64(kDirtyPage * os::kPageSize),
              0x1717171717171717u);
  }
}

}  // namespace
}  // namespace cruz
