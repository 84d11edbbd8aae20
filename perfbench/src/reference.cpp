// The host-speed reference kernel. The hosts perfbench runs on are shared
// VMs whose speed changes in phases of seconds to minutes: the same `paper`
// pass takes 0.48 s in one phase and 1.08 s half a minute later, in user
// time, with no page faults or steal to show for it. A fixed piece of work
// that slows down with the emulator lets a run state its wall times at one
// nominal host speed (perfstats.nominal_parts).
//
// The kernel is standard-library code only, so no change to src/ can move
// it: number formatting and parsing (snprintf %.9g, strtod) into a
// string-keyed std::map, branchy and call-heavy like the emulator's packet
// path. perfbench/README.md ("Host-speed reference") tells how it was
// chosen over the other kernels tried.
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <map>
#include <string>

#include "workloads.hpp"

namespace perfbench {

namespace {

constexpr int kIterations = 6000;
constexpr int kKeys = 4096;

}  // namespace

double reference_s(Report& rep) {
  const double t0 = now_s();
  std::map<std::string, double> table;
  uint64_t x = 3;
  auto next = [&x] {
    x = x * 6364136223846793005ull + 1442695040888963407ull;
    return x >> 33;
  };
  char buf[64];
  for (int i = 0; i < kIterations; ++i) {
    const double v = static_cast<double>(next() % 1000000) / 7.0;
    std::snprintf(buf, sizeof(buf), "k%llu:%.9g",
                  static_cast<unsigned long long>(next() % kKeys), v);
    table[buf] += std::strtod(std::strchr(buf, ':') + 1, nullptr);
  }
  uint64_t sum = 0;
  for (const auto& [k, v] : table) {
    sum = fnv1a(k, sum) ^ static_cast<uint64_t>(v * 1e3);
  }
  const double dt = now_s() - t0;
  if (rep.ref_checksum == 0) rep.ref_checksum = sum;
  rep.check(sum == rep.ref_checksum,
            "reference kernel: result differs between calls");
  return dt;
}

}  // namespace perfbench
