// `paper`: the 21 golden_specs() scenarios at their pinned seeds, links and
// durations, no probes attached, run as whole passes on one thread. The
// workload seed only fixes the order of the scenarios within a pass, so
// every run can be checked against the committed tests/golden digests.
#include "workloads.hpp"

namespace perfbench {

namespace {

std::vector<golden::GoldenSpec> paper_specs(uint64_t seed) {
  std::vector<golden::GoldenSpec> specs = golden::golden_specs();
  shuffle_by_seed(specs, seed);
  return specs;
}

Counts counts_of(Case& c) {
  return {c.sim().events_processed(), c.packets(), c.delivered_bytes()};
}

}  // namespace

void run_paper(const Options& opt, Report& rep) {
  const std::vector<golden::GoldenSpec> specs = paper_specs(opt.seed);
  auto build_all = [&specs] {
    auto cases = std::make_shared<std::vector<std::unique_ptr<Case>>>();
    for (const auto& s : specs) cases->push_back(build_golden_case(s, nullptr));
    return cases;
  };
  time_setup(opt.smoke ? 1 : 15, [&] { return build_all(); }, rep);

  // Verify pass: digests over the full packet event stream, compared by
  // run.py against tests/golden/<name>.digest.
  std::vector<Counts> expect(specs.size());
  for (size_t i = 0; i < specs.size(); ++i) {
    auto c = build_golden_case(specs[i], nullptr);
    TraceRecorder recorder;
    c->sim().set_tracer(&recorder);
    c->run_until(TimeNs::seconds(specs[i].duration_s));
    expect[i] = counts_of(*c);
    rep.outputs.emplace_back(specs[i].name,
                             "fnv1a64=" + recorder.digest_hex() +
                                 " records=" +
                                 std::to_string(recorder.records()));
  }

  timed_reps(opt.seconds, opt.smoke ? 1 : 3, [&] {
    Rep r;
    const double s0 = now_s();
    auto cases = build_all();
    record_setup(now_s() - s0, rep);
    for (size_t i = 0; i < specs.size(); ++i) {
      Case& c = *(*cases)[i];
      const double t0 = now_s();
      c.run_until(TimeNs::seconds(specs[i].duration_s));
      const double dt = now_s() - t0;
      r.parts_s.push_back(dt);
      r.wall_s += dt;
      r.sim_s += specs[i].duration_s;
      r.packets += static_cast<double>(c.packets());
      r.units += 1;
      rep.check(counts_of(c) == expect[i], "paper/" + specs[i].name +
                                               ": counts differ from the "
                                               "verify pass");
      r.ref_s.push_back(reference_s(rep));
    }
    // A batch user's job is the whole pass.
    r.unit_wall_s.push_back(r.wall_s);
    return r;
  }, rep);

  if (!opt.trace) return;
  std::vector<CaseSpec> cases;
  for (size_t i = 0; i < specs.size(); ++i) {
    const golden::GoldenSpec spec = specs[i];
    cases.push_back({spec.name,
                     [spec](TapeSet* t) { return build_golden_case(spec, t); },
                     TimeNs::seconds(spec.duration_s), &expect[i]});
  }
  Spans spans;
  run_layer_battery(opt, cases, TimeNs::seconds(60), spans, rep);
}

}  // namespace perfbench
