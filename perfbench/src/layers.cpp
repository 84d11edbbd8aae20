// The traced per-layer battery: counts what each layer did per packet in
// the workload's own scenarios, then times each layer in isolation on
// inputs shaped like the workload (its captured schedule deltas, pending
// level, window size and ACK streams), so that
//
//   e2e ns/packet  ~=  sum over layers of (ns per call x calls per packet)
//
// can be checked; run.py reports the remainder as
// closure.unexplained_ns_per_packet.
#include <algorithm>

#include "check/invariants.hpp"
#include "obs/flight.hpp"
#include "obs/sink.hpp"
#include "obs/telemetry.hpp"
#include "sim/jitter.hpp"
#include "sim/link.hpp"
#include "sim/scoreboard.hpp"
#include "sim/warp/warp.hpp"
#include "sweep/spec_parse.hpp"
#include "util/rng.hpp"
#include "workloads.hpp"

namespace perfbench {

namespace {

constexpr TimeNs kSlice = TimeNs::millis(100);
// Schedule deltas kept per case, and in total, for the replay case.
constexpr size_t kDeltaCapPerCase = 400000;
// Events beyond the timer wheel's ~67 ms horizon go to the far heap.
constexpr int64_t kWheelHorizonNs = int64_t{4096} << 14;
// Flight-ring slots across all flows of one case in the isolated case.
constexpr size_t kFlightSlotBudget = size_t{1} << 21;

double median(std::vector<double> v) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const size_t n = v.size();
  return n % 2 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

struct NullSink final : PacketHandler {
  uint64_t n = 0;
  void handle(Packet) override { ++n; }
};

// Telemetry sink that renders nothing anywhere: counts bytes only.
struct CountingLineSink final : obs::TelemetrySink {
  uint64_t bytes = 0;
  void line(const std::string& l) override { bytes += l.size() + 1; }
};

// bench_simcore's self-perpetuating replay chain: each dispatched event
// takes the next captured delay and re-schedules itself; `chains` chains
// keep the workload's pending level.
struct ReplayChain {
  Simulator* sim;
  const std::vector<int64_t>* deltas;
  size_t* next;
  void operator()() const {
    if (*next >= deltas->size()) return;
    const int64_t d = (*deltas)[(*next)++];
    sim->schedule_in(TimeNs::nanos(d), *this);
  }
};

double replay_ns_per_event(const std::vector<int64_t>& deltas,
                           size_t pending, uint64_t* events) {
  Simulator sim;
  size_t next = 0;
  const size_t chains = std::clamp<size_t>(pending, 1, deltas.size());
  const double t0 = now_s();
  for (size_t c = 0; c < chains && next < deltas.size(); ++c) {
    sim.schedule_in(TimeNs::nanos(deltas[next++]),
                    ReplayChain{&sim, &deltas, &next});
  }
  while (sim.run_next()) {
  }
  const double dt = now_s() - t0;
  *events = sim.events_processed();
  return dt * 1e9 / static_cast<double>(std::max<uint64_t>(*events, 1));
}

// arm + disarm of an owned node, with `pending` other events queued
// (spread over the next second, so both the wheel and the far heap hold
// some). The node is armed RTO-far, as the sender's re-arm-earlier path
// does.
double disarm_ns(size_t pending) {
  Simulator sim;
  Rng rng(12345);
  for (size_t i = 0; i < pending; ++i) {
    sim.schedule_in(TimeNs::nanos(1'000'000 + static_cast<int64_t>(
                                                  rng.next_below(999'000'000))),
                    [] {});
  }
  Event node;
  node.fn.emplace([] {});
  const int reps = pending > 20000 ? 400 : 4000;
  const double t0 = now_s();
  for (int i = 0; i < reps; ++i) {
    const int64_t at =
        200'000'000 + static_cast<int64_t>(rng.next_below(800'000'000));
    sim.arm(&node, TimeNs::nanos(at));
    sim.disarm(&node);
  }
  return (now_s() - t0) * 1e9 / reps;
}

double link_ns_per_packet() {
  Simulator sim;
  NullSink sink;
  BottleneckLink::Config cfg;
  cfg.rate = Rate::mbps(10000);
  BottleneckLink link(sim, cfg, sink);
  Packet pkt;
  const int batches = 4000, burst = 64;
  const double t0 = now_s();
  for (int b = 0; b < batches; ++b) {
    for (int i = 0; i < burst; ++i) {
      pkt.seq += kMss;
      link.handle(pkt);
    }
    sim.run_until(sim.now() + TimeNs::millis(1));
  }
  return (now_s() - t0) * 1e9 / (static_cast<double>(batches) * burst);
}

double jitter_ns_per_packet(std::unique_ptr<JitterPolicy> policy,
                            TimeNs drain) {
  Simulator sim;
  NullSink sink;
  JitterBox box(sim, std::move(policy), TimeNs::infinite(), sink);
  Packet pkt;
  const int batches = 4000, burst = 64;
  const double t0 = now_s();
  for (int b = 0; b < batches; ++b) {
    for (int i = 0; i < burst; ++i) {
      pkt.seq += kMss;
      box.handle(pkt);
    }
    sim.run_until(sim.now() + drain);
  }
  return (now_s() - t0) * 1e9 / (static_cast<double>(batches) * burst);
}

// Insert at the head, erase the oldest, advance the floor: one sliding
// window step of `window` packets, three scoreboard operations.
double scoreboard_ns_per_op(size_t window) {
  Scoreboard sb(kMss);
  uint64_t head = 0, tail = 0;
  const SentInfo info{TimeNs::zero(), kMss, 0};
  for (; head < window; ++head) sb.insert_or_assign(head * kMss, info);
  const int steps = 1'000'000;
  const double t0 = now_s();
  for (int i = 0; i < steps; ++i) {
    sb.insert_or_assign(head++ * kMss, info);
    sb.erase(tail * kMss);
    ++tail;
    sb.advance_floor(tail * kMss);
  }
  const double dt = now_s() - t0;
  if (sb.size() != window) return -1;
  return dt * 1e9 / (3.0 * steps);
}

// Replays a captured ACK stream through fresh instances of the CCA until
// at least `min_calls` on_ack calls were timed.
double on_ack_ns(const std::string& name, const AckTape& tape) {
  if (tape.samples.empty()) return 0.0;
  const size_t min_calls = 200000;
  uint64_t calls = 0;
  double dt = 0;
  while (calls < min_calls) {
    auto cca = sweep::make_cca(name, tape.seed);
    size_t li = 0;
    const double t0 = now_s();
    for (size_t i = 0; i < tape.samples.size(); ++i) {
      while (li < tape.loss_at.size() && tape.loss_at[li] == i) {
        cca->on_loss(tape.losses[li++]);
      }
      cca->on_ack(tape.samples[i]);
    }
    dt += now_s() - t0;
    calls += tape.samples.size();
  }
  return dt * 1e9 / static_cast<double>(calls);
}

void attach_all(Case& c, obs::FlowTelemetry* tel, obs::FlightRecorder* fr,
                check::InvariantChecker* ck) {
  if (Scenario* sc = c.scenario()) {
    if (tel) tel->attach(*sc);
    if (fr) fr->attach(*sc);
    if (ck) ck->attach(*sc);
  } else {
    if (tel) tel->attach(c.sim(), c.flows());
    if (fr) fr->attach(c.sim(), c.flows());
    if (ck) ck->attach(c.sim());
  }
}

}  // namespace

const std::vector<std::string>& cca_names() {
  static const std::vector<std::string> kNames = {
      "allegro", "bbr",     "copa",   "copa-default", "cubic",
      "ecn-reno", "fast",   "jitter-aware", "ledbat", "newreno",
      "vegas",   "verus",   "vivace"};
  return kNames;
}

const std::vector<std::string>& per_layer_names() {
  static const std::vector<std::string> kNames = [] {
    std::vector<std::string> n = {
        "sim.core.events_per_packet",
        "sim.core.coalesced_per_packet",
        "sim.core.replay_ns_per_event",
        "sim.core.disarm_ns",
        "sim.core.far_schedule_frac",
        "sim.link.ns_per_packet",
        "sim.link.drops_per_packet",
        "sim.link.queue_pkts_p50",
        "sim.jitter.zero_ns_per_packet",
        "sim.jitter.policy_ns_per_packet",
        "sim.jitter.admits_per_packet",
        "sim.sender.scoreboard_ns_per_op",
        "sim.sender.retx_per_packet",
        "sim.sender.rto_per_kpkt",
        "sim.sender.acks_per_packet",
        "cc.on_ack_per_packet",
        "sim.stats.bytes_per_flow_sim_s",
        "obs.telemetry_ns_per_packet",
        "obs.flight_ns_per_packet",
        "check.invariants_ns_per_packet",
        "obs.jsonl_bytes_per_packet",
        "obs.flight_ring_mb",
        "sweep.worker_busy_frac",
        "sweep.point_wall_s_max",
        "warp.warped_frac",
        "warp.attempts",
        "warp.refused.structural",
        "warp.refused.no_model",
        "warp.refused.jitter",
        "warp.refused.window",
        "warp.refused.disagree",
        "warp.refused.snapshot",
        "warp.snapshot_ms",
        "warp.shift_ms",
        "warp.fork_ms",
        "serve.lines_per_job",
        "serve.queue_wait_ms",
        "serve.subscriber_dropped",
        "trace.overhead_frac",
    };
    for (const std::string& c : cca_names()) {
      n.push_back("cc." + c + ".on_ack_ns");
    }
    return n;
  }();
  return kNames;
}

void record_setup(double seconds, Report& rep) {
  rep.setup_s.push_back(seconds);
  rep.setup_ref_s.push_back(reference_s(rep));
}

void time_setup(int n, const std::function<std::shared_ptr<void>()>& setup,
                Report& rep) {
  for (int i = 0; i < n; ++i) {
    const double t0 = now_s();
    std::shared_ptr<void> built = setup();
    const double dt = now_s() - t0;
    built.reset();
    record_setup(dt, rep);
  }
}

void timed_reps(double seconds, int min_reps,
                const std::function<Rep()>& rep_fn, Report& rep) {
  const double start = now_s();
  while (static_cast<int>(rep.reps.size()) < min_reps ||
         now_s() - start < seconds) {
    rep.reps.push_back(rep_fn());
  }
}

void run_layer_battery(const Options& opt, const std::vector<CaseSpec>& cases,
                       TimeNs probe_cap, Spans& spans, Report& rep) {
  // 1. Untraced reference: the same cases, run-only wall time.
  double ref_wall = 0, ref_packets = 0;
  for (const CaseSpec& cs : cases) {
    auto c = cs.build(nullptr);
    const double t0 = now_s();
    c->run_until(cs.end);
    ref_wall += now_s() - t0;
    ref_packets += static_cast<double>(c->packets());
  }

  // 2. Counted pass: spans, counting probe, CCA decorator, schedule deltas.
  TapeSet tapes;
  CountingProbe probe;
  double events = 0, coalesced = 0, packets = 0, timeouts = 0;
  double stats_bytes = 0, flow_sim_s = 0, traced_wall = 0;
  double window_pkts = 0, window_flows = 0;
  size_t pending_max = 0;
  uint64_t far = 0, deltas_total = 0;
  struct Capture {
    std::vector<int64_t> deltas;
    size_t pending = 0;
  };
  std::vector<Capture> captures;
  {
    SpanScope pass(&spans, "counted pass", "layer");
    for (const CaseSpec& cs : cases) {
      SpanScope case_span(&spans, "case " + cs.name, "case");
      std::unique_ptr<Case> c;
      {
        SpanScope b(&spans, "build", "setup");
        c = cs.build(&tapes);
      }
      Capture cap;
      TraceRecorder recorder;
      recorder.collect_schedule_deltas(&cap.deltas);
      c->sim().set_tracer(&recorder);
      c->sim().set_telemetry(&probe);
      const double t0 = now_s();
      for (TimeNs t = c->sim().now(); t < cs.end;) {
        t = std::min(t + kSlice, cs.end);
        SpanScope s(&spans, "slice", "sim");
        c->run_until(t);
        if (cap.deltas.size() >= kDeltaCapPerCase) {
          recorder.collect_schedule_deltas(nullptr);
        }
      }
      traced_wall += now_s() - t0;
      c->sim().set_telemetry(nullptr);
      c->sim().set_tracer(nullptr);
      const Counts got{c->sim().events_processed(), c->packets(),
                       c->delivered_bytes()};
      if (cs.expect != nullptr) {
        rep.check(got == *cs.expect,
                  "traced " + cs.name + ": decorated run differs from the "
                                        "verify pass");
      }
      events += static_cast<double>(got.events);
      coalesced += static_cast<double>(c->sim().events_coalesced());
      packets += static_cast<double>(got.packets);
      timeouts += static_cast<double>(c->timeouts());
      stats_bytes += static_cast<double>(c->stats_bytes());
      flow_sim_s += static_cast<double>(c->flows()) * cs.end.to_seconds();
      if (Scenario* sc = c->scenario()) {
        try {
          cap.pending = sc->snapshot().events.size();
        } catch (const std::exception&) {
          cap.pending = 0;
        }
        for (size_t i = 0; i < sc->flow_count(); ++i) {
          window_pkts += static_cast<double>(sc->sender(i).inflight_bytes()) /
                         kMss;
          window_flows += 1;
        }
      }
      pending_max = std::max(pending_max, cap.pending);
      for (int64_t d : cap.deltas) far += d >= kWheelHorizonNs;
      deltas_total += cap.deltas.size();
      captures.push_back(std::move(cap));
    }
  }
  const double pkts = std::max(packets, 1.0);
  auto& L = rep.layer;
  L["trace.overhead_frac"] = traced_wall / ref_wall - 1.0;
  L["sim.core.events_per_packet"] = events / pkts;
  L["sim.core.coalesced_per_packet"] = coalesced / pkts;
  L["sim.core.far_schedule_frac"] =
      deltas_total ? static_cast<double>(far) / deltas_total : 0.0;
  L["sim.link.drops_per_packet"] = probe.link_drops / pkts;
  L["sim.link.queue_pkts_p50"] = probe.queue_pkts_p50();
  L["sim.jitter.admits_per_packet"] = probe.jitter_admits / pkts;
  L["sim.sender.retx_per_packet"] = probe.retx / pkts;
  L["sim.sender.rto_per_kpkt"] = timeouts * 1000.0 / pkts;
  L["sim.sender.acks_per_packet"] = probe.acks / pkts;
  double on_ack_calls = 0;
  for (const auto& [name, tape] : tapes.by_name) on_ack_calls += tape.calls;
  L["cc.on_ack_per_packet"] = on_ack_calls / pkts;
  L["sim.stats.bytes_per_flow_sim_s"] =
      flow_sim_s > 0 ? stats_bytes / flow_sim_s : 0.0;

  // 3. Isolated layer cases on workload-shaped inputs.
  SpanScope iso(&spans, "isolated layers", "layer");
  {
    SpanScope s(&spans, "sim.core replay", "layer");
    double ns_total = 0, ev_total = 0;
    for (const Capture& cap : captures) {
      if (cap.deltas.empty()) continue;
      uint64_t ev = 0;
      const double ns = replay_ns_per_event(cap.deltas, cap.pending, &ev);
      ns_total += ns * static_cast<double>(ev);
      ev_total += static_cast<double>(ev);
    }
    L["sim.core.replay_ns_per_event"] = ev_total ? ns_total / ev_total : 0.0;
  }
  {
    SpanScope s(&spans, "sim.core disarm", "layer");
    L["sim.core.disarm_ns"] = disarm_ns(pending_max);
  }
  {
    SpanScope s(&spans, "sim.link", "layer");
    L["sim.link.ns_per_packet"] = link_ns_per_packet();
  }
  {
    SpanScope s(&spans, "sim.jitter", "layer");
    L["sim.jitter.zero_ns_per_packet"] = jitter_ns_per_packet(
        std::make_unique<ZeroJitter>(), TimeNs::millis(1));
    L["sim.jitter.policy_ns_per_packet"] = jitter_ns_per_packet(
        std::make_unique<UniformJitter>(TimeNs::zero(), TimeNs::millis(5), 7),
        TimeNs::millis(10));
  }
  {
    SpanScope s(&spans, "sim.sender scoreboard", "layer");
    const size_t window = static_cast<size_t>(std::clamp(
        window_flows > 0 ? window_pkts / window_flows : 8.0, 2.0, 4096.0));
    L["sim.sender.scoreboard_ns_per_op"] = scoreboard_ns_per_op(window);
  }
  std::map<std::string, double> cc_ns;
  {
    SpanScope s(&spans, "cc on_ack replay", "layer");
    for (const auto& [name, tape] : tapes.by_name) {
      cc_ns[name] = on_ack_ns(name, tape);
      L["cc." + name + ".on_ack_ns"] = cc_ns[name];
    }
  }
  {
    SpanScope s(&spans, "snapshot/shift/fork", "layer");
    std::vector<double> snap_ms, shift_ms, fork_ms;
    for (const CaseSpec& cs : cases) {
      auto c = cs.build(nullptr);
      Scenario* sc = c->scenario();
      if (sc == nullptr) continue;
      c->run_until(std::min(TimeNs(cs.end.ns() / 2), TimeNs::seconds(5)));
      try {
        double t0 = now_s();
        ScenarioSnapshot snap = sc->snapshot();
        snap_ms.push_back((now_s() - t0) * 1e3);
        t0 = now_s();
        warp::shift_snapshot(snap, TimeNs::seconds(1),
                             std::vector<uint64_t>(sc->flow_count(), 0));
        shift_ms.push_back((now_s() - t0) * 1e3);
        t0 = now_s();
        auto forked = Scenario::fork(snap);
        fork_ms.push_back((now_s() - t0) * 1e3);
      } catch (const std::exception& e) {
        rep.notes.push_back("snapshot/fork skipped for " + cs.name + ": " +
                            e.what());
      }
    }
    L["warp.snapshot_ms"] = median(snap_ms);
    L["warp.shift_ms"] = median(shift_ms);
    L["warp.fork_ms"] = median(fork_ms);
  }
  {
    // Each observer attached alone, against the bare run, interleaved per
    // case so drift hits every variant alike.
    SpanScope s(&spans, "observers alone", "layer");
    double wall[4] = {0, 0, 0, 0};
    double probe_packets = 0, jsonl_bytes = 0, ring_mb = 0;
    for (const CaseSpec& cs : cases) {
      const TimeNs end = std::min(cs.end, probe_cap);
      for (int v = 0; v < 5; ++v) {
        const int kind = v % 4;  // 0 bare (twice), 1 telemetry, 2 flight,
                                 // 3 checker
        auto c = cs.build(nullptr);
        CountingLineSink sink;
        obs::TelemetryConfig tc;
        tc.sink = &sink;
        obs::FlowTelemetry tel(std::move(tc));
        obs::FlightConfig fc;
        fc.events_per_flow =
            std::min<size_t>(4096, kFlightSlotBudget / c->flows());
        obs::FlightRecorder fr(fc);
        check::InvariantChecker ck;
        attach_all(*c, kind == 1 ? &tel : nullptr, kind == 2 ? &fr : nullptr,
                   kind == 3 ? &ck : nullptr);
        const double t0 = now_s();
        c->run_until(end);
        if (kind == 1) tel.finish(end);
        const double dt = now_s() - t0;
        wall[kind] += kind == 0 ? dt / 2 : dt;
        if (kind == 0 && v == 0) {
          probe_packets += static_cast<double>(c->packets());
        }
        if (kind == 1) jsonl_bytes += static_cast<double>(sink.bytes);
        if (kind == 2) {
          ring_mb = std::max(
              ring_mb, static_cast<double>((c->flows() * fc.events_per_flow +
                                            fc.global_events) *
                                           sizeof(FlightEvent)) /
                           (1024.0 * 1024.0));
        }
        if (kind == 3) {
          ck.checkpoint();
          rep.check(ck.ok(), "traced " + cs.name + ": invariant violation");
        }
      }
    }
    const double pp = std::max(probe_packets, 1.0);
    L["obs.telemetry_ns_per_packet"] = (wall[1] - wall[0]) * 1e9 / pp;
    L["obs.flight_ns_per_packet"] = (wall[2] - wall[0]) * 1e9 / pp;
    L["check.invariants_ns_per_packet"] = (wall[3] - wall[0]) * 1e9 / pp;
    L["obs.jsonl_bytes_per_packet"] = jsonl_bytes / pp;
    L["obs.flight_ring_mb"] = ring_mb;
  }

  // Closure terms: isolated ns per call x calls per packet.
  rep.e2e_ns_per_packet = ref_wall * 1e9 / std::max(ref_packets, 1.0);
  rep.closure.push_back({"sim.core", L["sim.core.replay_ns_per_event"],
                         L["sim.core.events_per_packet"]});
  rep.closure.push_back({"sim.link", L["sim.link.ns_per_packet"],
                         probe.link_enqueues / pkts});
  rep.closure.push_back({"sim.jitter", L["sim.jitter.zero_ns_per_packet"],
                         L["sim.jitter.admits_per_packet"]});
  rep.closure.push_back({"sim.sender", L["sim.sender.scoreboard_ns_per_op"],
                         2.0 + L["sim.sender.acks_per_packet"]});
  for (const auto& [name, tape] : tapes.by_name) {
    rep.closure.push_back({"cc." + name, cc_ns[name], tape.calls / pkts});
  }

  rep.trace_path = opt.out_dir + "/" + opt.workload + "-seed" +
                   std::to_string(opt.seed) + ".trace.json";
  rep.check(spans.write_chrome(rep.trace_path),
            "trace: cannot write " + rep.trace_path);
}

}  // namespace perfbench
