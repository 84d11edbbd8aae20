// Shared pieces of the perfbench harness: clocks, a minimal JSON writer,
// the span recorder behind the traced run, the read-only counting probe,
// the forwarding CCA decorator, and the scenario constructions every workload
// draws from.
//
// Everything here measures the emulator from outside: it calls the public
// functions of src/ and observes through the existing ObsProbe /
// TraceRecorder seams. Nothing under src/ is modified or subclassed beyond
// those public interfaces.
#pragma once

#include <chrono>
#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "cc/cca.hpp"
#include "check/scenarios.hpp"
#include "emu/trace.hpp"
#include "emu/trace_link.hpp"
#include "sim/obs_probe.hpp"
#include "sim/scenario.hpp"
#include "sim/trace_probe.hpp"
#include "sweep/grid.hpp"
#include "util/rng.hpp"

namespace perfbench {

using namespace ccstarve;

// Monotonic wall clock in seconds.
inline double now_s() {
  return std::chrono::duration<double>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

// Peak resident set size of this process so far, in MB.
double peak_rss_mb();

// Fisher-Yates shuffle driven by the workload seed (base = seed*1000).
template <typename T>
void shuffle_by_seed(std::vector<T>& v, uint64_t seed) {
  Rng rng(seed * 1000 + 400);
  for (size_t i = v.size(); i > 1; --i) {
    std::swap(v[i - 1], v[rng.next_below(i)]);
  }
}

// FNV-1a over a byte string, continuing from `h`.
uint64_t fnv1a(const std::string& s, uint64_t h = 14695981039346656037ull);
std::string hex64(uint64_t v);

// --- JSON output -------------------------------------------------------

std::string jstr(const std::string& s);
std::string jnum(double v);

// Writes `key: value` pairs into one flat object; nested values are
// passed pre-rendered.
class JsonObj {
 public:
  JsonObj& raw(const std::string& k, const std::string& rendered);
  JsonObj& num(const std::string& k, double v) { return raw(k, jnum(v)); }
  JsonObj& str(const std::string& k, const std::string& v) {
    return raw(k, jstr(v));
  }
  std::string done() const { return "{" + body_ + "}"; }

 private:
  std::string body_;
};

std::string jarray(const std::vector<std::string>& rendered);
std::string jnums(const std::vector<double>& v);

// --- spans -------------------------------------------------------------

// In-memory span log of the traced run, written out once at the end as
// Chrome trace-event JSON (loads in Perfetto). Spans nest by call order on
// one thread: each records its parent, so self time is the span's duration
// minus the time its children cover.
class Spans {
 public:
  // Opens a span; returns its id (ids start at 1, 0 = no parent).
  uint64_t begin(const std::string& name, const std::string& cat);
  void end(uint64_t id);
  // A span whose bounds were measured elsewhere (e.g. around a callback).
  void add(const std::string& name, const std::string& cat, double start_s,
           double end_s);
  bool write_chrome(const std::string& path) const;

 private:
  struct Span {
    std::string name, cat;
    double start_s = 0, end_s = 0;
    uint64_t id = 0, parent = 0;
  };
  std::vector<Span> spans_;
  std::vector<uint64_t> open_;
};

// RAII span; a null Spans* makes it free.
class SpanScope {
 public:
  SpanScope(Spans* s, const std::string& name, const std::string& cat)
      : s_(s), id_(s ? s->begin(name, cat) : 0) {}
  ~SpanScope() {
    if (s_) s_->end(id_);
  }
  SpanScope(const SpanScope&) = delete;
  SpanScope& operator=(const SpanScope&) = delete;

 private:
  Spans* s_;
  uint64_t id_;
};

// --- counting probe ----------------------------------------------------

// Read-only ObsProbe that only counts: what each layer did per packet.
class CountingProbe final : public ObsProbe {
 public:
  void on_segment_sent(TimeNs, const Packet& pkt) override {
    ++sent;
    if (pkt.is_retransmit) ++retx;
  }
  void on_ack_sample(TimeNs, uint32_t, TimeNs, uint64_t, Rate,
                     uint64_t) override {
    ++acks;
  }
  void on_link_enqueue(TimeNs, const Packet&, uint64_t queued_after) override;
  void on_link_drop(TimeNs, const Packet&) override { ++link_drops; }
  void on_jitter_admit(TimeNs, TimeNs, const Packet&, bool, TimeNs) override {
    ++jitter_admits;
  }

  // Median bottleneck occupancy (packets, including the arriving one)
  // over all enqueues.
  double queue_pkts_p50() const;

  uint64_t sent = 0, retx = 0, acks = 0;
  uint64_t link_enqueues = 0, link_drops = 0, jitter_admits = 0;
  std::vector<uint64_t> queue_hist;  // index = packets queued
};

// --- forwarding CCA decorator -------------------------------------------

// Captured on_ack inputs of one CCA family, for replay in isolation.
struct AckTape {
  uint64_t calls = 0;
  uint64_t seed = 0;  // seed of the first instance captured
  std::vector<AckSample> samples;
  std::vector<LossSample> losses;  // interleaving kept by `loss_at`
  std::vector<size_t> loss_at;     // samples.size() when each loss arrived
};

// Forwards every call to the wrapped CCA unchanged, counting on_ack calls
// and capturing up to kCap samples per family. Used only in packet-only
// runs: the warp engine maps CCAs to fluid models by their concrete type,
// which a decorator hides.
class RecordingCca final : public Cca {
 public:
  static constexpr size_t kCap = 200000;

  RecordingCca(std::unique_ptr<Cca> inner, AckTape* tape)
      : inner_(std::move(inner)), tape_(tape) {}

  void on_packet_sent(TimeNs now, uint64_t seq, uint32_t bytes,
                      uint64_t inflight, bool retransmit) override {
    inner_->on_packet_sent(now, seq, bytes, inflight, retransmit);
  }
  void on_ack(const AckSample& ack) override {
    ++tape_->calls;
    if (tape_->samples.size() < kCap) tape_->samples.push_back(ack);
    inner_->on_ack(ack);
  }
  void on_loss(const LossSample& loss) override {
    if (tape_->samples.size() < kCap) {
      tape_->losses.push_back(loss);
      tape_->loss_at.push_back(tape_->samples.size());
    }
    inner_->on_loss(loss);
  }
  uint64_t cwnd_bytes() const override { return inner_->cwnd_bytes(); }
  Rate pacing_rate() const override { return inner_->pacing_rate(); }
  std::string name() const override { return inner_->name(); }
  void rebase_time(TimeNs d) override { inner_->rebase_time(d); }
  void rebase_progress(uint64_t d) override { inner_->rebase_progress(d); }
  std::unique_ptr<Cca> clone() const override {
    return std::make_unique<RecordingCca>(inner_->clone(), tape_);
  }
  CcaSanity sanity() const override { return inner_->sanity(); }

 private:
  std::unique_ptr<Cca> inner_;
  AckTape* tape_;  // owned by the TapeSet, which outlives the scenario
};

// Tapes keyed by the spec-grammar CCA name ("copa-default", "ecn-reno").
struct TapeSet {
  std::map<std::string, AckTape> by_name;
};

// Makes the CCA the spec names, seeded as the library does; wraps it in a
// RecordingCca when `tapes` is set.
std::unique_ptr<Cca> make_cca(const std::string& name, uint64_t seed,
                              TapeSet* tapes);

// --- scenarios ---------------------------------------------------------

// One runnable scenario: a Scenario topology, or the single-flow
// trace-driven link the golden registry also pins.
class Case {
 public:
  virtual ~Case() = default;
  virtual Simulator& sim() = 0;
  virtual void run_until(TimeNs t) = 0;
  virtual uint64_t packets() const = 0;
  virtual uint64_t delivered_bytes() const = 0;
  virtual size_t flows() const = 0;
  // Retained FlowStats series bytes across all flows.
  virtual uint64_t stats_bytes() const = 0;
  // Retransmission timeouts across all flows.
  virtual uint64_t timeouts() const = 0;
  // Null for the trace-driven link.
  virtual Scenario* scenario() { return nullptr; }
};

std::unique_ptr<Case> wrap_scenario(std::unique_ptr<Scenario> sc);

// Golden spec -> Case, mirroring check/scenarios.hpp (canonical
// base = seed*1000 seeding). `tapes` wraps every CCA in a RecordingCca;
// with tapes == null the scenario comes from golden::build_golden itself.
std::unique_ptr<Case> build_golden_case(const golden::GoldenSpec& spec,
                                        TapeSet* tapes);

// Sweep point -> Case, mirroring sweep::build_point_scenario. With
// tapes == null the scenario comes from the library function itself.
std::unique_ptr<Case> build_point_case(const sweep::SweepPoint& pt,
                                       TapeSet* tapes);

// The cohort workload's scenario: `flows` Copa flows, 1 Mbit/s of share
// each, 40 ms RTT, 2 BDP drop-tail, starts staggered over the first second
// with a seed-derived offset inside each flow's stagger slot.
std::unique_ptr<Case> build_cohort_case(size_t flows, uint64_t seed,
                                        TapeSet* tapes);

}  // namespace perfbench
