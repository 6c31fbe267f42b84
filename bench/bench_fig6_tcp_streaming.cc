// Fig. 6: effect of dropped packets on a TCP stream's flow rate across a
// coordinated checkpoint.
//
// Paper result (gigabit ethernet, two nodes): the receive rate drops to
// zero when the checkpoint starts at t=0 (the agents' packet filters
// silently drop all pod traffic); the checkpoint completes after ~120 ms;
// a short pulse appears as the receiver drains data that arrived before
// the checkpoint; the sender stays quiet until its retransmission timer
// recovers the dropped packets (~100 ms after communication resumes);
// then the flow returns to the full pre-checkpoint rate.
//
// The stall-and-recover timeline is read from the trace, not from rate
// thresholds: the stall begins at the coord.phase.freeze span (filter
// install), communication returns at the last agent.resume instant, and
// recovery completes at the sender's tcp.recovered instant (first
// cumulative ACK advance after the RTO episode). The sampled rate table
// remains the paper's figure; the spans explain it. The full trace is
// written to BENCH_fig6_trace.json and gate metrics to BENCH_fig6.json.
#include <cstdio>
#include <vector>

#include "apps/programs.h"
#include "bench_gate.h"
#include "cruz/cluster.h"
#include "obs/trace_query.h"

int main() {
  using namespace cruz;

  std::printf("== Fig. 6: TCP stream rate across a coordinated "
              "checkpoint ==\n\n");

  ClusterConfig config;
  config.num_nodes = 2;
  // Checkpoint duration calibrated to the paper's ~120 ms: the streaming
  // pod's state is small, so a modest disk rate gives a 100-150 ms write.
  config.node_template.disk_write_bytes_per_sec = 4 * kMiB;
  // The paper's stack recovered the dropped packets ~100 ms after
  // communication resumed. The sender's silence ends one retransmission
  // timeout after its last timer restart; a 75 ms minimum RTO reproduces
  // the paper's ~100 ms effective recovery delay under this timing.
  config.node_template.tcp.min_rto = 75 * kMillisecond;
  Cluster cluster(config);

  os::PodId recv_pod = cluster.CreatePod(1, "recv");
  net::Ipv4Address recv_ip = cluster.pods(1).Find(recv_pod)->ip;
  // Bursty consumer (drains every 200 us): the receive buffer holds data
  // at any instant, so the checkpoint captures undelivered bytes and the
  // restored/resumed receiver drains them in one burst — the paper's
  // short "pulse" right after the checkpoint completes.
  os::Pid recv_vpid = cluster.pods(1).SpawnInPod(
      recv_pod, "cruz.stream_receiver",
      apps::StreamReceiverArgs(9100, 200 * kMicrosecond, 32 * 1024));
  cluster.sim().RunFor(5 * kMillisecond);
  os::PodId send_pod = cluster.CreatePod(0, "send");
  os::Pid send_vpid = cluster.pods(0).SpawnInPod(
      send_pod, "cruz.stream_sender",
      apps::StreamSenderArgs(recv_ip, 9100, 0));

  // Ballast: give each process a realistic working set (~460 KiB) so the
  // local checkpoint (write to disk) takes the paper's ~120 ms.
  cruz::Bytes ballast_page(os::kPageSize, 0x77);
  auto add_ballast = [&](std::size_t node, os::PodId pod, os::Pid vpid) {
    os::Pid real = cluster.pods(node).ToRealPid(pod, vpid);
    os::Process* proc = cluster.node(node).os().FindProcess(real);
    for (std::uint64_t i = 0; i < 115; ++i) {
      proc->memory().InstallPage(0x2000 + i, ballast_page);
    }
  };
  add_ballast(0, send_pod, send_vpid);
  add_ballast(1, recv_pod, recv_vpid);

  auto delivered = [&] {
    os::Pid real = cluster.pods(1).ToRealPid(recv_pod, recv_vpid);
    os::Process* proc = cluster.node(1).os().FindProcess(real);
    return proc != nullptr ? apps::ReadStreamStatus(*proc).bytes : 0ull;
  };
  auto mismatches = [&] {
    os::Pid real = cluster.pods(1).ToRealPid(recv_pod, recv_vpid);
    os::Process* proc = cluster.node(1).os().FindProcess(real);
    return proc != nullptr ? apps::ReadStreamStatus(*proc).mismatches
                           : ~0ull;
  };

  cluster.sim().RunWhile([&] { return delivered() > 4 * kMiB; },
                         cluster.sim().Now() + 60 * kSecond);

  // Sample delivered bytes every 1 ms from t=-50 ms to t=+450 ms around
  // the checkpoint; report the 10 ms sliding-window rate as the paper
  // does.
  struct Sample {
    double t_ms;
    std::uint64_t bytes;
  };
  std::vector<Sample> samples;
  TimeNs t0 = cluster.sim().Now() + 50 * kMillisecond;
  for (TimeNs t = t0 - 50 * kMillisecond; t <= t0 + 450 * kMillisecond;
       t += kMillisecond) {
    cluster.sim().ScheduleAt(t, [&, t] {
      samples.push_back(
          Sample{(static_cast<double>(t) - static_cast<double>(t0)) / 1e6,
                 delivered()});
    });
  }
  coord::Coordinator::OpStats stats;
  bool done = false;
  cluster.sim().ScheduleAt(t0, [&] {
    cluster.coordinator().Checkpoint(
        {cluster.MemberFor(0, send_pod), cluster.MemberFor(1, recv_pod)},
        {}, [&](const coord::Coordinator::OpStats& s) {
          stats = s;
          done = true;
        });
  });
  cluster.sim().RunFor(600 * kMillisecond);

  std::printf("%10s %14s\n", "t (ms)", "rate (Mb/s)");
  auto window_rate = [&](std::size_t i) {
    double bytes = static_cast<double>(samples[i].bytes) -
                   static_cast<double>(samples[i - 10].bytes);
    return bytes * 8.0 / 10e-3 / 1e6;
  };
  for (std::size_t i = 10; i < samples.size(); i += 5) {
    std::printf("%10.0f %14.1f\n", samples[i].t_ms, window_rate(i));
  }

  // --- span-derived timeline ----------------------------------------------
  obs::TraceQuery query(cluster.sim().tracer());
  auto rel_ms = [&](TimeNs ts) {
    return (static_cast<double>(ts) - static_cast<double>(t0)) / 1e6;
  };
  const obs::TraceEvent* freeze = query.First(
      obs::TraceQuery::Filter{}.Name("coord.phase.freeze").Op(
          stats.op_id));
  const obs::TraceEvent* resume = query.Last(
      obs::TraceQuery::Filter{}.Name("agent.resume").Op(stats.op_id));
  // The sender's loss episode: RTO expirations while the filters were
  // up, then the first advancing ACK after communication returned.
  std::size_t rto_count = 0;
  const obs::TraceEvent* recovered = nullptr;
  if (freeze != nullptr) {
    rto_count = query.CountBetween(
        obs::TraceQuery::Filter{}.Name("tcp.rto"), freeze->ts,
        cluster.sim().Now());
    for (const obs::TraceEvent* e :
         query.Named("tcp.recovered")) {
      if (e->ts >= freeze->ts) {
        recovered = e;
        break;
      }
    }
  }

  double stalled_at = freeze != nullptr ? rel_ms(freeze->ts) : -1;
  double resumed_at = resume != nullptr ? rel_ms(resume->ts) : -1;
  double recovered_at = recovered != nullptr ? rel_ms(recovered->ts) : -1;

  // Post-recovery rate from the sampled curve, bracketed by the trace.
  double pre_rate = 0, post_rate = 0;
  int pre_count = 0, post_count = 0;
  for (std::size_t i = 10; i < samples.size(); ++i) {
    double t = samples[i].t_ms;
    if (t < 0) {
      pre_rate += window_rate(i);
      ++pre_count;
    }
    if (recovered_at > 0 && t > recovered_at + 50) {
      post_rate += window_rate(i);
      ++post_count;
    }
  }
  if (pre_count > 0) pre_rate /= pre_count;
  if (post_count > 0) post_rate /= post_count;

  std::printf("\ncheckpoint latency: %.0f ms (paper: ~120 ms)\n",
              ToMillis(stats.checkpoint_latency));
  std::printf("rate before checkpoint: %.0f Mb/s\n", pre_rate);
  std::printf("trace timeline: filters up (freeze) at t=%.1f ms; pods "
              "resumed at t=%.1f ms; %zu sender RTOs; recovered "
              "(first advancing ACK) at t=%.1f ms (~%.0f ms after "
              "checkpoint completion; paper: ~100 ms, set by TCP's "
              "retransmission backoff)\n",
              stalled_at, resumed_at, rto_count, recovered_at,
              recovered_at - ToMillis(stats.checkpoint_latency));
  std::printf("rate after recovery: %.0f Mb/s; corrupted bytes: %llu\n",
              post_rate, static_cast<unsigned long long>(mismatches()));

  std::string trace = cluster.sim().tracer().ExportChromeJson();
  if (std::FILE* f = std::fopen("BENCH_fig6_trace.json", "w")) {
    std::fwrite(trace.data(), 1, trace.size(), f);
    std::fclose(f);
    std::printf("wrote BENCH_fig6_trace.json (%zu bytes)\n",
                trace.size());
  }
  {
    bench::BenchGate gate("fig6");
    gate.Metric("checkpoint_latency_ms", ToMillis(stats.checkpoint_latency),
                "ms");
    gate.Metric("recovery_after_completion_ms",
                recovered_at - ToMillis(stats.checkpoint_latency), "ms");
    gate.Metric("post_recovery_rate_mbps", post_rate, "Mb/s", "higher");
  }

  bool ok = done && stalled_at >= 0 && resumed_at > stalled_at &&
            recovered_at > stalled_at && rto_count > 0 &&
            post_rate > 0.8 * pre_rate && mismatches() == 0 &&
            recovered_at - ToMillis(stats.checkpoint_latency) < 400;
  std::printf("\nshape check: %s\n", ok ? "matches Fig. 6" : "MISMATCH");
  return ok ? 0 : 1;
}
