// The four perfbench workloads and the traced per-layer battery they share.
//
// A workload run has three phases, all in one process:
//   1. set-up, repeated several times (its median is setup_s);
//   2. an untimed verify pass that computes every unit's output
//      fingerprint (digest, canonical record, payload hash) and its exact
//      event/packet/delivered-byte counts;
//   3. timed repetitions until --seconds have elapsed, each unit of which
//      must reproduce the verify pass's counts or outputs.
// A traced run (--trace 1) then adds the per-layer battery (layers.cpp).
// perfbench/run.py turns the raw report into metrics.
#pragma once

#include <functional>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "harness.hpp"

namespace perfbench {

struct Options {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  bool smoke = false;          // one repetition, reduced sizes
  std::string out_dir = ".";   // where the traced run writes its trace
  int cpu = -1;                // the vCPU the run is pinned to, or -1
};

// One repetition of the timed operation.
struct Rep {
  double wall_s = 0;
  double sim_s = 0;       // simulated seconds covered
  double packets = 0;     // data segments sent
  double units = 0;       // scenarios / runs / points / jobs completed
  // Wall time of each unit, in the same unit order in every repetition.
  std::vector<double> unit_wall_s;
  // Wall time of each timed part (a scenario, a 100 ms sim-time slice of
  // the cohort, a sweep point, a job); they sum to wall_s.
  std::vector<double> parts_s;
  // Host-speed reference sample taken right after each part
  // (reference.cpp); run.py states each part's wall time at the nominal
  // host speed by it.
  std::vector<double> ref_s;
};

// One term of the closure sum: ns per call of an isolated layer case times
// that layer's calls per packet in the workload.
struct ClosureTerm {
  std::string layer;
  double ns_per_call = 0;
  double calls_per_packet = 0;
};

struct Report {
  std::vector<double> setup_s;
  std::vector<Rep> reps;
  // Host-speed reference sample taken right after each set-up sample.
  std::vector<double> setup_ref_s;
  uint64_t ref_checksum = 0;  // the reference kernel's result
  uint64_t attempted = 0;
  uint64_t failed = 0;
  std::vector<std::string> failures;
  // Verify-pass output fingerprint per unit, compared against the pinned
  // expectations by run.py.
  std::vector<std::pair<std::string, std::string>> outputs;
  std::vector<std::string> notes;

  // --- traced run only ---
  std::map<std::string, double> layer;
  double e2e_ns_per_packet = 0;
  std::vector<ClosureTerm> closure;
  std::string trace_path;

  // Records one unit's check; returns `ok`.
  bool check(bool ok, const std::string& what) {
    ++attempted;
    if (!ok) {
      ++failed;
      if (failures.size() < 20) failures.push_back(what);
    }
    return ok;
  }
};

// Exact per-unit counts a timed run must reproduce.
struct Counts {
  uint64_t events = 0;
  uint64_t packets = 0;
  uint64_t delivered = 0;
  bool operator==(const Counts&) const = default;
};

// A packet-path case of the traced battery: builds one scenario (with the
// CCA decorator when `tapes` is set) and names its end time.
struct CaseSpec {
  std::string name;
  std::function<std::unique_ptr<Case>(TapeSet*)> build;
  TimeNs end;
  // Expected counts from the verify pass when the case runs to the same
  // end time as the workload does (the decorator must not change them).
  const Counts* expect = nullptr;
};

void run_paper(const Options& opt, Report& rep);
void run_cohort(const Options& opt, Report& rep);
void run_horizon(const Options& opt, Report& rep);
void run_served(const Options& opt, Report& rep);

// Runs the traced per-layer battery over `cases`, filling rep.layer,
// rep.closure and rep.e2e_ns_per_packet, then writes `spans` to
// <out_dir>/<workload>-seed<N>.trace.json. `probe_cap` bounds the sim time
// of the isolated-probe cases.
void run_layer_battery(const Options& opt, const std::vector<CaseSpec>& cases,
                       TimeNs probe_cap, Spans& spans, Report& rep);

// Per-layer metric names every traced run reports (zero where the workload
// does not exercise the layer); keeps the four workloads' outputs uniform.
const std::vector<std::string>& per_layer_names();

// The CCA families of the golden registry, for cc.<name>.on_ack_ns.
const std::vector<std::string>& cca_names();

// Runs the host-speed reference kernel once and returns its wall time,
// checking that its result is the same on every call.
double reference_s(Report& rep);

// Appends one set-up time to rep.setup_s and a reference sample taken
// right after it to rep.setup_ref_s.
void record_setup(double seconds, Report& rep);

// Times `setup` `n` times and records each sample. What it builds is
// destroyed outside the timed region.
void time_setup(int n, const std::function<std::shared_ptr<void>()>& setup,
                Report& rep);

// Repeats `rep_fn` until `seconds` of wall time have passed (at least
// `min_reps` times), reference samples between parts included.
void timed_reps(double seconds, int min_reps,
                const std::function<Rep()>& rep_fn, Report& rep);

}  // namespace perfbench
