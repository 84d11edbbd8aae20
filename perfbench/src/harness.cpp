#include "harness.hpp"

#include <sys/resource.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <fstream>

#include "sim/aqm.hpp"
#include "sweep/engine.hpp"
#include "sweep/spec_parse.hpp"
#include "util/rng.hpp"

namespace perfbench {

double peak_rss_mb() {
  struct rusage ru {};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // ru_maxrss is KiB
}

uint64_t fnv1a(const std::string& s, uint64_t h) {
  for (unsigned char c : s) {
    h ^= c;
    h *= 1099511628211ull;
  }
  return h;
}

std::string hex64(uint64_t v) {
  char buf[17];
  std::snprintf(buf, sizeof(buf), "%016llx",
                static_cast<unsigned long long>(v));
  return buf;
}

std::string jstr(const std::string& s) {
  std::string out = "\"";
  for (char c : s) {
    switch (c) {
      case '"': out += "\\\""; break;
      case '\\': out += "\\\\"; break;
      case '\n': out += "\\n"; break;
      case '\t': out += "\\t"; break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof(buf), "\\u%04x", c);
          out += buf;
        } else {
          out += c;
        }
    }
  }
  return out + "\"";
}

std::string jnum(double v) {
  if (!std::isfinite(v)) return "null";
  char buf[32];
  std::snprintf(buf, sizeof(buf), "%.17g", v);
  return buf;
}

JsonObj& JsonObj::raw(const std::string& k, const std::string& rendered) {
  if (!body_.empty()) body_ += ",";
  body_ += jstr(k) + ":" + rendered;
  return *this;
}

std::string jarray(const std::vector<std::string>& rendered) {
  std::string out = "[";
  for (size_t i = 0; i < rendered.size(); ++i) {
    if (i) out += ",";
    out += rendered[i];
  }
  return out + "]";
}

std::string jnums(const std::vector<double>& v) {
  std::vector<std::string> r;
  r.reserve(v.size());
  for (double x : v) r.push_back(jnum(x));
  return jarray(r);
}

// --- spans -------------------------------------------------------------

uint64_t Spans::begin(const std::string& name, const std::string& cat) {
  Span s;
  s.name = name;
  s.cat = cat;
  s.start_s = now_s();
  s.id = spans_.size() + 1;
  s.parent = open_.empty() ? 0 : open_.back();
  spans_.push_back(std::move(s));
  open_.push_back(spans_.back().id);
  return spans_.back().id;
}

void Spans::end(uint64_t id) {
  spans_[id - 1].end_s = now_s();
  if (!open_.empty() && open_.back() == id) open_.pop_back();
}

void Spans::add(const std::string& name, const std::string& cat,
                double start_s, double end_s) {
  Span s;
  s.name = name;
  s.cat = cat;
  s.start_s = start_s;
  s.end_s = end_s;
  s.id = spans_.size() + 1;
  s.parent = open_.empty() ? 0 : open_.back();
  spans_.push_back(std::move(s));
}

bool Spans::write_chrome(const std::string& path) const {
  std::ofstream os(path);
  if (!os) return false;
  const double t0 = spans_.empty() ? 0.0 : spans_.front().start_s;
  os << "{\"displayTimeUnit\":\"ms\",\"traceEvents\":[\n";
  for (size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    os << JsonObj()
              .str("name", s.name)
              .str("cat", s.cat)
              .str("ph", "X")
              .num("ts", (s.start_s - t0) * 1e6)
              .num("dur", (s.end_s - s.start_s) * 1e6)
              .num("pid", 1)
              .num("tid", 1)
              .raw("args", JsonObj()
                               .num("id", static_cast<double>(s.id))
                               .num("parent", static_cast<double>(s.parent))
                               .done())
              .done()
       << (i + 1 < spans_.size() ? ",\n" : "\n");
  }
  os << "]}\n";
  return static_cast<bool>(os);
}

// --- counting probe ----------------------------------------------------

void CountingProbe::on_link_enqueue(TimeNs, const Packet&,
                                    uint64_t queued_after) {
  ++link_enqueues;
  const size_t pkts = static_cast<size_t>(
      std::min<uint64_t>(queued_after / kMss, uint64_t{1} << 20));
  if (pkts >= queue_hist.size()) queue_hist.resize(pkts + 1, 0);
  ++queue_hist[pkts];
}

double CountingProbe::queue_pkts_p50() const {
  uint64_t total = 0;
  for (uint64_t n : queue_hist) total += n;
  if (total == 0) return 0.0;
  uint64_t seen = 0;
  for (size_t i = 0; i < queue_hist.size(); ++i) {
    seen += queue_hist[i];
    if (2 * seen >= total) return static_cast<double>(i);
  }
  return static_cast<double>(queue_hist.size() - 1);
}

std::unique_ptr<Cca> make_cca(const std::string& name, uint64_t seed,
                              TapeSet* tapes) {
  auto cca = sweep::make_cca(name, seed);
  if (tapes == nullptr) return cca;
  AckTape& tape = tapes->by_name[name];
  if (tape.calls == 0 && tape.samples.empty()) tape.seed = seed;
  return std::make_unique<RecordingCca>(std::move(cca), &tape);
}

// --- cases -------------------------------------------------------------

namespace {

uint64_t series_bytes(const FlowStats& st) {
  const size_t n = st.rtt_seconds.samples().capacity() +
                   st.delivered_bytes.samples().capacity() +
                   st.cwnd_bytes.samples().capacity() +
                   st.pacing_mbps.samples().capacity();
  return n * sizeof(TimeSeries::Sample);
}

class ScenarioCase final : public Case {
 public:
  explicit ScenarioCase(std::unique_ptr<Scenario> sc) : sc_(std::move(sc)) {}
  Simulator& sim() override { return sc_->sim(); }
  void run_until(TimeNs t) override { sc_->run_until(t); }
  uint64_t packets() const override {
    uint64_t n = 0;
    for (size_t i = 0; i < sc_->flow_count(); ++i) {
      n += sc_->sender(i).packets_sent();
    }
    return n;
  }
  uint64_t delivered_bytes() const override {
    uint64_t n = 0;
    for (size_t i = 0; i < sc_->flow_count(); ++i) {
      n += sc_->sender(i).delivered_bytes();
    }
    return n;
  }
  size_t flows() const override { return sc_->flow_count(); }
  uint64_t stats_bytes() const override {
    uint64_t n = 0;
    for (size_t i = 0; i < sc_->flow_count(); ++i) {
      n += series_bytes(sc_->stats(i));
    }
    return n;
  }
  uint64_t timeouts() const override {
    uint64_t n = 0;
    for (size_t i = 0; i < sc_->flow_count(); ++i) {
      n += sc_->stats(i).timeouts;
    }
    return n;
  }
  Scenario* scenario() override { return sc_.get(); }

 private:
  std::unique_ptr<Scenario> sc_;
};

// The golden registry's trace-driven-link topology (golden::
// run_trace_link_golden), held as an object so it can be timed, sliced
// and observed like a Scenario: sender -> trace link -> propagation ->
// data jitter -> receiver -> ack jitter -> sender.
class TraceLinkCase final : public Case {
 public:
  TraceLinkCase(const golden::GoldenSpec& spec, TapeSet* tapes)
      : ack_jitter_(sim_, std::make_unique<ZeroJitter>(), TimeNs::infinite(),
                    relay_),
        receiver_(sim_, AckPolicy{}, ack_jitter_),
        data_jitter_(sim_, std::make_unique<ZeroJitter>(), TimeNs::infinite(),
                     receiver_),
        prop_(sim_, TimeNs::millis(spec.rtt_ms), data_jitter_),
        link_(sim_,
              DeliveryTrace::sawtooth(Rate::mbps(5), Rate::mbps(40),
                                      TimeNs::seconds(2), TimeNs::seconds(4)),
              link_config(), prop_) {
    const auto flows = sweep::parse_flow_set(spec.flow_set);
    Sender::Config sc;
    sc.flow_id = 0;
    sc.stats_interval = TimeNs::millis(10);
    sender_ = std::make_unique<Sender>(
        sim_, sc, make_cca(flows[0].cca, spec.seed * 1000 + 7, tapes), link_);
    relay_.target = sender_.get();
    sender_->start(TimeNs::zero());
  }
  Simulator& sim() override { return sim_; }
  void run_until(TimeNs t) override { sim_.run_until(t); }
  uint64_t packets() const override { return sender_->packets_sent(); }
  uint64_t delivered_bytes() const override {
    return sender_->delivered_bytes();
  }
  size_t flows() const override { return 1; }
  uint64_t stats_bytes() const override {
    return series_bytes(sender_->stats());
  }
  uint64_t timeouts() const override { return sender_->stats().timeouts; }

 private:
  static TraceDrivenLink::Config link_config() {
    TraceDrivenLink::Config lc;
    lc.buffer_bytes = 120 * kMss;
    return lc;
  }
  struct AckRelay final : PacketHandler {
    Sender* target = nullptr;
    void handle(Packet pkt) override { target->handle(pkt); }
  };

  Simulator sim_;
  AckRelay relay_;
  JitterBox ack_jitter_;
  Receiver receiver_;
  JitterBox data_jitter_;
  PropagationDelay prop_;
  TraceDrivenLink link_;
  std::unique_ptr<Sender> sender_;
};

}  // namespace

std::unique_ptr<Case> wrap_scenario(std::unique_ptr<Scenario> sc) {
  return std::make_unique<ScenarioCase>(std::move(sc));
}

std::unique_ptr<Case> build_golden_case(const golden::GoldenSpec& spec,
                                        TapeSet* tapes) {
  if (spec.trace_link) return std::make_unique<TraceLinkCase>(spec, tapes);
  if (tapes == nullptr) return wrap_scenario(golden::build_golden(spec));
  // golden::build_golden with the CCA wrapped; the verify pass proves the
  // two constructions agree (identical digests and counts).
  const auto flows = sweep::parse_flow_set(spec.flow_set);
  ScenarioConfig cfg;
  cfg.link_rate = Rate::mbps(spec.link_mbps);
  cfg.buffer_bytes =
      sweep::parse_buffer_bytes(spec.buffer, cfg.link_rate, spec.rtt_ms);
  cfg.prefill_bytes = spec.prefill_bytes;
  if (spec.jitter_budget_ms > 0) {
    cfg.jitter_budget = TimeNs::millis(spec.jitter_budget_ms);
  }
  if (spec.ecn_threshold_pkts > 0) {
    cfg.aqm = std::make_unique<ThresholdEcn>(
        static_cast<uint64_t>(spec.ecn_threshold_pkts) * kMss);
  }
  if (spec.delay_server_amp_ms > 0) {
    const TimeNs amp = TimeNs::millis(spec.delay_server_amp_ms);
    const TimeNs period = TimeNs::seconds(spec.delay_server_period_s);
    cfg.delay_server = [amp, period](TimeNs arrival) {
      return golden::triangle_delay(arrival, amp, period);
    };
  }
  auto sc = std::make_unique<Scenario>(std::move(cfg));
  const uint64_t base = spec.seed * 1000;
  for (size_t i = 0; i < flows.size(); ++i) {
    const sweep::FlowArgs& fa = flows[i];
    FlowSpec fs;
    fs.cca = make_cca(fa.cca, base + 7 + i, tapes);
    fs.min_rtt = TimeNs::millis(fa.rtt_ms.value_or(spec.rtt_ms));
    fs.start_at = TimeNs::seconds(fa.start_s);
    fs.loss_rate = fa.loss;
    fs.loss_seed = base + 77 + i;
    if (auto j = sweep::make_jitter(fa.ack_jitter, base + 100 + i)) {
      fs.ack_jitter = std::move(j);
    }
    if (auto j = sweep::make_jitter(fa.data_jitter, base + 200 + i)) {
      fs.data_jitter = std::move(j);
    }
    fs.recv = sweep::make_recv_config(fa);
    fs.stats_interval = TimeNs::millis(10);
    sc->add_flow(std::move(fs));
  }
  return wrap_scenario(std::move(sc));
}

std::unique_ptr<Case> build_point_case(const sweep::SweepPoint& pt,
                                       TapeSet* tapes) {
  if (tapes == nullptr) {
    return wrap_scenario(sweep::build_point_scenario(pt, nullptr));
  }
  // sweep::build_point_scenario with the CCA wrapped.
  const auto flows = sweep::parse_flow_set(pt.flow_set);
  ScenarioConfig cfg;
  cfg.link_rate = Rate::mbps(pt.link_mbps);
  cfg.buffer_bytes =
      sweep::parse_buffer_bytes(pt.buffer, cfg.link_rate, pt.rtt_ms);
  auto sc = std::make_unique<Scenario>(std::move(cfg));
  const uint64_t base = pt.seed * 1000;
  for (size_t i = 0; i < flows.size(); ++i) {
    const sweep::FlowArgs& fa = flows[i];
    FlowSpec spec;
    spec.cca = make_cca(fa.cca, base + 7 + i, tapes);
    spec.min_rtt = TimeNs::millis(fa.rtt_ms.value_or(pt.rtt_ms));
    spec.start_at = TimeNs::seconds(fa.start_s);
    spec.loss_rate = fa.loss;
    spec.loss_seed = base + 77 + i;
    std::string data_jitter = fa.data_jitter;
    if (i == 0 && data_jitter.empty()) data_jitter = pt.jitter;
    if (auto j = sweep::make_jitter(fa.ack_jitter, base + 100 + i)) {
      spec.ack_jitter = std::move(j);
    }
    if (auto j = sweep::make_jitter(data_jitter, base + 200 + i)) {
      spec.data_jitter = std::move(j);
    }
    spec.recv = sweep::make_recv_config(fa);
    spec.stats_interval = TimeNs::millis(10);
    sc->add_flow(std::move(spec));
  }
  return wrap_scenario(std::move(sc));
}

std::unique_ptr<Case> build_cohort_case(size_t flows, uint64_t seed,
                                        TapeSet* tapes) {
  const double link_mbps = static_cast<double>(flows);
  ScenarioConfig cfg;
  cfg.link_rate = Rate::mbps(link_mbps);
  cfg.buffer_bytes = static_cast<uint64_t>(
      2.0 * Rate::mbps(link_mbps).bytes_per_second() * 0.040);
  auto sc = std::make_unique<Scenario>(std::move(cfg));
  const uint64_t base = seed * 1000;
  Rng start_rng(base + 300);
  const int64_t slot = 1'000'000'000 / static_cast<int64_t>(flows);
  for (size_t i = 0; i < flows; ++i) {
    FlowSpec f;
    f.cca = make_cca("copa", base + 7 + i, tapes);
    f.min_rtt = TimeNs::millis(40);
    f.start_at = TimeNs(static_cast<int64_t>(i) * slot +
                        static_cast<int64_t>(start_rng.next_below(
                            static_cast<uint64_t>(slot))));
    f.stats_interval = TimeNs::millis(10);
    sc->add_flow(std::move(f));
  }
  return wrap_scenario(std::move(sc));
}

}  // namespace perfbench
