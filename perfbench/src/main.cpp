// perfbench_bin: runs one workload and writes its raw report (timings,
// counts, checks, per-layer numbers) as one JSON object. perfbench/run.py
// is the command users run; it builds this binary, turns the report into
// metrics and prints the result line.
//
// Usage: perfbench_bin --workload paper|cohort|horizon|served --seed N
//                      --seconds S --trace 0|1 --report PATH
//                      [--out-dir DIR] [--smoke]
#include <sched.h>

#include <cstdio>
#include <fstream>
#include <sstream>
#include <string>

#include "workloads.hpp"

#ifndef PERFBENCH_BUILD_TYPE
#define PERFBENCH_BUILD_TYPE "unknown"
#endif
#ifndef PERFBENCH_CXX_FLAGS
#define PERFBENCH_CXX_FLAGS "unknown"
#endif

namespace {

using namespace perfbench;

int usage(const char* argv0) {
  std::fprintf(stderr,
               "usage: %s --workload paper|cohort|horizon|served --seed N "
               "--seconds S --trace 0|1 --report PATH [--out-dir DIR] "
               "[--smoke]\n",
               argv0);
  return 2;
}

// Whole-string numeric parse of a command-line value.
template <typename T>
bool parse_number(const std::string& s, T* out) {
  std::istringstream is(s);
  T v{};
  if (!(is >> v) || !is.eof()) return false;
  *out = v;
  return true;
}

// Pins the process to the vCPU it is running on; threads started later
// inherit the pin (served's subscriber then moves itself to the others).
// The host's speed changes in phases that differ from vCPU to vCPU, and a
// host sample (reference.cpp) describes the vCPU it ran on, so the timed
// work must run there too: unpinned, `served`'s job times rescaled by the
// samples spread 0.13-0.22 within a run, worse than not rescaling them.
// Returns the vCPU, or -1 when the process cannot be pinned.
int pin_to_current_cpu() {
  const int cpu = sched_getcpu();
  if (cpu < 0) return -1;
  cpu_set_t set;
  CPU_ZERO(&set);
  CPU_SET(cpu, &set);
  return sched_setaffinity(0, sizeof(set), &set) == 0 ? cpu : -1;
}

std::string render(const Options& opt, const Report& rep) {
  std::vector<std::string> reps;
  for (const Rep& r : rep.reps) {
    reps.push_back(JsonObj()
                       .num("wall_s", r.wall_s)
                       .num("sim_s", r.sim_s)
                       .num("packets", r.packets)
                       .num("units", r.units)
                       .raw("unit_wall_s", jnums(r.unit_wall_s))
                       .raw("parts_s", jnums(r.parts_s))
                       .raw("ref_s", jnums(r.ref_s))
                       .done());
  }
  std::vector<std::string> outputs, failures, notes, closure;
  for (const auto& [unit, fp] : rep.outputs) {
    outputs.push_back(jarray({jstr(unit), jstr(fp)}));
  }
  for (const auto& f : rep.failures) failures.push_back(jstr(f));
  for (const auto& n : rep.notes) notes.push_back(jstr(n));
  for (const ClosureTerm& t : rep.closure) {
    closure.push_back(JsonObj()
                          .str("layer", t.layer)
                          .num("ns_per_call", t.ns_per_call)
                          .num("calls_per_packet", t.calls_per_packet)
                          .done());
  }
  JsonObj layer;
  if (opt.trace) {
    for (const std::string& name : per_layer_names()) {
      auto it = rep.layer.find(name);
      layer.num(name, it == rep.layer.end() ? 0.0 : it->second);
    }
  }
  return JsonObj()
      .str("workload", opt.workload)
      .num("seed", static_cast<double>(opt.seed))
      .raw("build", JsonObj()
                        .str("compiler", "g++ " __VERSION__)
                        .str("build_type", PERFBENCH_BUILD_TYPE)
                        .str("flags", PERFBENCH_CXX_FLAGS)
                        .done())
      .raw("setup_s", jnums(rep.setup_s))
      .num("cpu", static_cast<double>(opt.cpu))
      .raw("setup_ref_s", jnums(rep.setup_ref_s))
      .raw("reps", jarray(reps))
      .num("peak_rss_mb", peak_rss_mb())
      .num("attempted", static_cast<double>(rep.attempted))
      .num("failed", static_cast<double>(rep.failed))
      .raw("failures", jarray(failures))
      .raw("outputs", jarray(outputs))
      .raw("notes", jarray(notes))
      .raw("layer", layer.done())
      .num("e2e_ns_per_packet", rep.e2e_ns_per_packet)
      .raw("closure", jarray(closure))
      .str("trace_path", rep.trace_path)
      .done();
}

}  // namespace

int main(int argc, char** argv) {
#ifndef NDEBUG
  std::fprintf(stderr,
               "perfbench: refusing to report from a build with assertions "
               "enabled (NDEBUG is not defined)\n");
  return 3;
#endif
  Options opt;
  std::string report_path;
  for (int i = 1; i < argc; ++i) {
    const std::string a = argv[i];
    auto value = [&](std::string* out) {
      if (i + 1 >= argc) return false;
      *out = argv[++i];
      return true;
    };
    std::string v;
    if (a == "--smoke") {
      opt.smoke = true;
    } else if (a == "--workload" && value(&v)) {
      opt.workload = v;
    } else if (a == "--seed" && value(&v)) {
      if (!parse_number(v, &opt.seed)) return usage(argv[0]);
    } else if (a == "--seconds" && value(&v)) {
      if (!parse_number(v, &opt.seconds)) return usage(argv[0]);
    } else if (a == "--trace" && value(&v)) {
      opt.trace = v == "1";
    } else if (a == "--report" && value(&v)) {
      report_path = v;
    } else if (a == "--out-dir" && value(&v)) {
      opt.out_dir = v;
    } else {
      return usage(argv[0]);
    }
  }
  if (report_path.empty()) return usage(argv[0]);

  opt.cpu = pin_to_current_cpu();
  Report rep;
  try {
    if (opt.workload == "paper") {
      run_paper(opt, rep);
    } else if (opt.workload == "cohort") {
      run_cohort(opt, rep);
    } else if (opt.workload == "horizon") {
      run_horizon(opt, rep);
    } else if (opt.workload == "served") {
      run_served(opt, rep);
    } else {
      return usage(argv[0]);
    }
  } catch (const std::exception& e) {
    std::fprintf(stderr, "perfbench: %s failed: %s\n", opt.workload.c_str(),
                 e.what());
    return 1;
  }
  std::ofstream os(report_path);
  os << render(opt, rep) << "\n";
  if (!os) {
    std::fprintf(stderr, "perfbench: cannot write %s\n", report_path.c_str());
    return 1;
  }
  return 0;
}
