// `cohort`: one large Copa cohort in bench_manyflow's shape (1 Mbit/s of
// share per flow, 40 ms RTT, 2 BDP drop-tail, starts staggered over the
// first second), no probes, one thread. Pending events, RTO re-arm
// disarms, scoreboard/in-flight state and flow-table footprint all grow
// with the flow count while the CCA's share of the work stays small.
#include "workloads.hpp"

namespace perfbench {

namespace {

constexpr size_t kFlows = 2000;
constexpr double kHorizonS = 3.0;
// Smoke mode: the same shape at a tenth of the size.
constexpr size_t kSmokeFlows = 200;
constexpr double kSmokeHorizonS = 1.5;

}  // namespace

void run_cohort(const Options& opt, Report& rep) {
  const size_t flows = opt.smoke ? kSmokeFlows : kFlows;
  const double horizon_s = opt.smoke ? kSmokeHorizonS : kHorizonS;
  const TimeNs end = TimeNs::seconds(horizon_s);
  const uint64_t seed = opt.seed;

  time_setup(opt.smoke ? 1 : 9, [&] {
    return std::shared_ptr<void>(build_cohort_case(flows, seed, nullptr));
  }, rep);

  // Verify pass: the trace digest pins the cohort's exact event order.
  Counts expect;
  {
    auto c = build_cohort_case(flows, seed, nullptr);
    TraceRecorder recorder;
    c->sim().set_tracer(&recorder);
    c->run_until(end);
    expect = {c->sim().events_processed(), c->packets(), c->delivered_bytes()};
    rep.outputs.emplace_back(
        "copa*" + std::to_string(flows),
        "fnv1a64=" + recorder.digest_hex() +
            " records=" + std::to_string(recorder.records()) +
            " events=" + std::to_string(expect.events));
  }

  timed_reps(opt.seconds, opt.smoke ? 1 : 3, [&] {
    Rep r;
    const double s0 = now_s();
    auto c = build_cohort_case(flows, seed, nullptr);
    record_setup(now_s() - s0, rep);
    // Sliced so the host-speed reference is sampled every 100 ms of sim
    // time, outside the timed slices; slicing changes no event.
    for (TimeNs t = TimeNs::zero(); t < end;) {
      t = std::min(t + TimeNs::millis(100), end);
      const double t0 = now_s();
      c->run_until(t);
      r.parts_s.push_back(now_s() - t0);
      r.wall_s += r.parts_s.back();
      r.ref_s.push_back(reference_s(rep));
    }
    r.unit_wall_s.push_back(r.wall_s);
    r.sim_s = horizon_s;
    r.packets = static_cast<double>(c->packets());
    r.units = 1;
    const Counts got{c->sim().events_processed(), c->packets(),
                     c->delivered_bytes()};
    rep.check(got == expect, "cohort: counts differ from the verify pass");
    return r;
  }, rep);

  if (!opt.trace) return;
  std::vector<CaseSpec> cases;
  cases.push_back({"copa*" + std::to_string(flows),
                   [flows, seed](TapeSet* t) {
                     return build_cohort_case(flows, seed, t);
                   },
                   end, &expect});
  Spans spans;
  run_layer_battery(opt, cases, TimeNs::seconds(opt.smoke ? 1.0 : 1.5), spans,
                    rep);
}

}  // namespace perfbench
