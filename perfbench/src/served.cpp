// `served`: a closed loop with one client against an in-process
// serve::JobManager (one executor). Each golden flow set a run job can
// express (no ECN, prefill, delay server or trace link) is submitted as a
// `run` job with check=1 flight=1; one subscriber thread drains each job's
// channel, and the next job is submitted only after the previous job's
// job_done line arrived. It is the only workload with observers attached
// (telemetry JSONL, flight rings, the invariant checker and hub fan-out);
// `paper` runs the same flow sets bare, so the two isolate observer cost.
#include <sched.h>
#include <unistd.h>

#include <condition_variable>
#include <mutex>
#include <sstream>
#include <thread>

#include "obs/flight.hpp"
#include "obs/flight_export.hpp"
#include "obs/sink.hpp"
#include "obs/telemetry.hpp"
#include "serve/hub.hpp"
#include "serve/jobs.hpp"
#include "serve/protocol.hpp"
#include "sweep/engine.hpp"
#include "sweep/spec_parse.hpp"
#include "workloads.hpp"

namespace perfbench {

namespace {

// Hub sizing, as `ccstarve_serve --backlog=65536 --queue-cap=1048576`. A
// flight dump rides the reliable tier in one burst; the daemon's default
// 8192-line queue kills a subscriber that is keeping up whenever a dump is
// longer than that (bbr_rtt_asym's is ~13k lines), so the queue is sized
// to hold the largest dump of this job set.
constexpr size_t kBacklogLines = 65536;
constexpr size_t kQueueLines = size_t{1} << 20;

struct JobPlan {
  std::string name;
  serve::JobSpec spec;
};

// The jobs run at the golden registry's pinned seeds, in registry order, so
// the workload seed changes nothing here. Both were tried and measured:
// single jobs' cost swings with their seed (allegro_loss takes ~3x longer
// at seed 11 than at seed 12 for the same packet count), and a seeded
// submission order moved the median job's time by ~25% between seeds,
// which would make the workload's cost a property of the seed.
std::vector<JobPlan> served_jobs(bool smoke) {
  std::vector<JobPlan> jobs;
  for (const golden::GoldenSpec& g : golden::golden_specs()) {
    if (g.trace_link || g.ecn_threshold_pkts > 0 || g.prefill_bytes > 0 ||
        g.delay_server_amp_ms > 0 || g.jitter_budget_ms > 0) {
      continue;
    }
    JobPlan j;
    j.name = g.name;
    j.spec.kind = serve::JobKind::run;
    j.spec.point.flow_set = g.flow_set;
    j.spec.point.link_mbps = g.link_mbps;
    j.spec.point.rtt_ms = g.rtt_ms;
    j.spec.point.jitter = "none";
    j.spec.point.buffer = g.buffer;
    j.spec.point.seed = g.seed;
    j.spec.point.duration_s = smoke ? std::min(g.duration_s, 2.0)
                                    : g.duration_s;
    j.spec.interval_ms = 10;
    j.spec.check = true;
    j.spec.flight = true;
    jobs.push_back(std::move(j));
    if (smoke && jobs.size() == 4) break;
  }
  return jobs;
}

bool starts_with(const std::string& s, const char* prefix) {
  return s.rfind(prefix, 0) == 0;
}

// Lines a client capture keeps: telemetry payload and the flight dump,
// without the control lines and the job-id-bearing flight markers.
bool is_payload(const std::string& l) {
  return !serve::is_control_line(l) &&
         !starts_with(l, "{\"type\":\"flight_begin\"") &&
         !starts_with(l, "{\"type\":\"flight_end\"") &&
         !starts_with(l, "{\"type\":\"flight_skipped\"");
}

struct Payload {
  uint64_t hash = 14695981039346656037ull;
  uint64_t lines = 0;
  void add(const std::string& l) {
    hash = fnv1a(l + "\n", hash);
    ++lines;
  }
  bool operator==(const Payload&) const = default;
};

// The job's payload stream reproduced offline: the same scenario, probe
// configuration and 250 ms slicing as JobManager::run_single, with the
// telemetry lines landing in a MemorySink.
Payload offline_payload(const serve::JobSpec& js, Counts* counts) {
  const sweep::SweepPoint& pt = js.point;
  auto sc = sweep::build_point_scenario(pt, nullptr);
  obs::MemorySink sink(size_t{1} << 24);
  obs::TelemetryConfig tc;
  tc.interval = TimeNs::millis(js.interval_ms);
  tc.sink = &sink;
  for (const auto& fa : sweep::parse_flow_set(pt.flow_set)) {
    tc.flow_labels.push_back(fa.cca);
  }
  obs::FlightConfig fc;
  obs::parse_flight_trigger(js.flight_trigger, &fc.trigger);
  fc.window = TimeNs::seconds(js.flight_window_s);
  fc.events_per_flow = js.flight_events;
  fc.flow_labels = tc.flow_labels;
  obs::FlightRecorder flight(std::move(fc));
  tc.flight = &flight;
  obs::FlowTelemetry telemetry(std::move(tc));
  telemetry.attach(*sc);
  flight.attach(*sc);
  const TimeNs end = TimeNs::seconds(pt.duration_s);
  for (TimeNs t = TimeNs::zero(); t < end;) {
    t = std::min(t + TimeNs::millis(250), end);
    sc->run_until(t);
  }
  telemetry.finish(end);

  Payload p;
  for (const std::string& l : sink.lines()) p.add(l);
  if (sink.evicted() != 0) p.lines = 0;  // never matches a real capture
  if (flight.should_export()) {
    std::ostringstream os;
    obs::write_chrome_trace(os, flight);
    std::istringstream is(os.str());
    for (std::string l; std::getline(is, l);) p.add(l);
  }
  uint64_t packets = 0, delivered = 0;
  for (size_t i = 0; i < sc->flow_count(); ++i) {
    packets += sc->sender(i).packets_sent();
    delivered += sc->sender(i).delivered_bytes();
  }
  *counts = {sc->sim().events_processed(), packets, delivered};
  return p;
}

// What the subscriber saw of one job.
struct Capture {
  Payload payload;
  uint64_t all_lines = 0;
  uint64_t dropped = 0;
  bool lost = false;   // the queue overflowed or the drain failed
  double done_at = 0;  // job_done arrival, now_s()
};

// One hub + manager + subscriber thread; the client loop submits the next
// job only after the subscriber has seen the previous job's stream end.
class Service {
 public:
  Service() : hub_(kBacklogLines, kQueueLines), mgr_(hub_, {}) {
    sub_ = std::thread([this] { subscriber_loop(); });
  }
  ~Service() {
    {
      std::lock_guard<std::mutex> lock(mu_);
      stop_ = true;
    }
    cv_.notify_all();
    sub_.join();
    mgr_.shutdown();
  }
  Service(const Service&) = delete;
  Service& operator=(const Service&) = delete;

  struct JobResult {
    Capture cap;
    double submit_at = 0;
    double queue_wait_s = -1;
    bool state_ok = false;
  };

  JobResult run_job(const serve::JobSpec& spec, bool poll_queue_wait) {
    JobResult r;
    r.submit_at = now_s();
    const uint64_t id = mgr_.submit(spec);
    auto q = hub_.get(id)->subscribe();
    {
      std::lock_guard<std::mutex> lock(mu_);
      queue_ = q;
      have_result_ = false;
    }
    cv_.notify_all();
    if (poll_queue_wait) {
      for (;;) {
        auto st = mgr_.status(id);
        if (!st || st->state != serve::JobState::queued) break;
        std::this_thread::yield();
      }
      r.queue_wait_s = now_s() - r.submit_at;
    }
    {
      std::unique_lock<std::mutex> lock(mu_);
      cv_.wait(lock, [this] { return have_result_; });
      r.cap = result_;
    }
    auto st = mgr_.status(id);
    r.state_ok = st && st->state == serve::JobState::done && st->error.empty();
    return r;
  }

 private:
  static void drain(serve::SubscriberQueue& q, Capture& cap) {
    for (;;) {
      auto batch = q.pop_batch_for(std::chrono::milliseconds(250));
      if (batch.empty()) {
        if (q.drained()) return;
        continue;
      }
      for (const serve::StreamItem& item : batch) {
        const std::string& l = item.text();
        ++cap.all_lines;
        cap.dropped += item.dropped_before;
        if (is_payload(l)) cap.payload.add(l);
        if (starts_with(l, "{\"type\":\"job_done\"")) cap.done_at = now_s();
      }
    }
  }

  void subscriber_loop() {
    move_off_run_cpu();
    for (;;) {
      std::shared_ptr<serve::SubscriberQueue> q;
      {
        std::unique_lock<std::mutex> lock(mu_);
        cv_.wait(lock, [this] { return stop_ || queue_ != nullptr; });
        if (queue_ == nullptr) return;
        q = std::move(queue_);
        queue_ = nullptr;
      }
      Capture cap;
      try {
        drain(*q, cap);
      } catch (const std::exception&) {
        cap.lost = true;  // fails the job instead of ending the process
      }
      cap.lost = cap.lost || q->overflowed();
      cap.dropped = std::max(cap.dropped, q->dropped());
      // A killed subscriber never sees job_done; its job ends here.
      if (cap.done_at == 0) cap.done_at = now_s();
      {
        std::lock_guard<std::mutex> lock(mu_);
        result_ = cap;
        have_result_ = true;
      }
      cv_.notify_all();
    }
  }

  // The process is pinned to one vCPU, which the executor and the host
  // samples share; the subscriber drains on the others, as a client would.
  static void move_off_run_cpu() {
    const int run_cpu = sched_getcpu();
    const long cpus = sysconf(_SC_NPROCESSORS_ONLN);
    if (run_cpu < 0 || cpus < 2) return;
    cpu_set_t set;
    CPU_ZERO(&set);
    for (long c = 0; c < cpus && c < CPU_SETSIZE; ++c) {
      if (c != run_cpu) CPU_SET(static_cast<int>(c), &set);
    }
    sched_setaffinity(0, sizeof(set), &set);
  }

  serve::SubscriberHub hub_;
  serve::JobManager mgr_;
  std::mutex mu_;
  std::condition_variable cv_;
  std::shared_ptr<serve::SubscriberQueue> queue_;  // guarded by mu_
  Capture result_;                                 // guarded by mu_
  bool have_result_ = false;                       // guarded by mu_
  bool stop_ = false;                              // guarded by mu_
  std::thread sub_;  // last: uses every member above
};

}  // namespace

void run_served(const Options& opt, Report& rep) {
  const std::vector<JobPlan> jobs = served_jobs(opt.smoke);

  // Set-up: the hub, job manager and subscriber thread, plus each job's
  // scenario as the executor builds it before the job's first event.
  struct Setup {
    std::unique_ptr<Service> svc;
    std::vector<std::unique_ptr<Scenario>> scenarios;
  };
  auto setup = [&] {
    auto s = std::make_shared<Setup>();
    s->svc = std::make_unique<Service>();
    for (const JobPlan& j : served_jobs(opt.smoke)) {
      s->scenarios.push_back(
          sweep::build_point_scenario(j.spec.point, nullptr));
    }
    return s;
  };
  time_setup(opt.smoke ? 1 : 21,
             [&] { return std::shared_ptr<void>(setup()); }, rep);

  // Verify pass: offline MemorySink payload per job.
  std::vector<Payload> expect(jobs.size());
  std::vector<Counts> counts(jobs.size());
  double packets = 0, sim_s = 0;
  for (size_t i = 0; i < jobs.size(); ++i) {
    expect[i] = offline_payload(jobs[i].spec, &counts[i]);
    rep.outputs.emplace_back(jobs[i].name,
                             "payload=" + hex64(expect[i].hash) +
                                 " lines=" + std::to_string(expect[i].lines));
    packets += static_cast<double>(counts[i].packets);
    sim_s += jobs[i].spec.point.duration_s;
  }

  auto check_job = [&](size_t i, const Service::JobResult& jr) {
    const Capture& c = jr.cap;
    rep.check(jr.state_ok && c.dropped == 0 && !c.lost &&
                  c.payload == expect[i],
              "served/" + jobs[i].name + ": " +
                  (!jr.state_ok ? "job did not end done"
                   : c.dropped || c.lost
                       ? "subscriber lost lines"
                       : "payload differs from the offline run"));
  };

  timed_reps(opt.seconds, opt.smoke ? 1 : 3, [&] {
    const double s0 = now_s();
    std::shared_ptr<Setup> s = setup();
    record_setup(now_s() - s0, rep);
    s->scenarios.clear();
    Rep r;
    for (size_t i = 0; i < jobs.size(); ++i) {
      const Service::JobResult jr = s->svc->run_job(jobs[i].spec, false);
      const double dt = jr.cap.done_at - jr.submit_at;
      r.unit_wall_s.push_back(dt);
      r.parts_s.push_back(dt);
      r.wall_s += dt;
      check_job(i, jr);
      r.ref_s.push_back(reference_s(rep));
    }
    r.sim_s = sim_s;
    r.packets = packets;
    r.units = static_cast<double>(jobs.size());
    return r;
  }, rep);

  if (!opt.trace) return;
  Spans spans;
  {
    SpanScope pass(&spans, "served pass", "serve");
    Service svc;
    std::vector<double> waits;
    double lines = 0, dropped = 0;
    for (size_t i = 0; i < jobs.size(); ++i) {
      SpanScope job(&spans, "job " + jobs[i].name, "serve");
      const Service::JobResult jr = svc.run_job(jobs[i].spec, true);
      check_job(i, jr);
      waits.push_back(jr.queue_wait_s * 1e3);
      lines += static_cast<double>(jr.cap.all_lines);
      dropped += static_cast<double>(jr.cap.dropped);
    }
    std::sort(waits.begin(), waits.end());
    rep.layer["serve.lines_per_job"] =
        lines / static_cast<double>(jobs.size());
    rep.layer["serve.queue_wait_ms"] = waits[waits.size() / 2];
    rep.layer["serve.subscriber_dropped"] = dropped;
  }
  std::vector<CaseSpec> cases;
  for (size_t i = 0; i < jobs.size(); ++i) {
    const sweep::SweepPoint pt = jobs[i].spec.point;
    cases.push_back({jobs[i].name,
                     [pt](TapeSet* t) { return build_point_case(pt, t); },
                     TimeNs::seconds(pt.duration_s), &counts[i]});
  }
  run_layer_battery(opt, cases, TimeNs::seconds(60), spans, rep);
}

}  // namespace perfbench
