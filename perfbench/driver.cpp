// perfbench: host cost and simulated latency of the FD and GM atomic
// broadcast stacks on four fixed open-loop workloads.
//
//   perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//
// One single-threaded process runs one workload.  A repetition runs the
// workload's simulations for the FD stack and then for the GM stack: each
// simulation is one core::SimRun driven through its public API only
// (constructor, fd_model().start(), workload().start(), injector()->arm(),
// run_until, workload().stop(), then a drain), after which every process's
// delivery log is checked and the run's deterministic fingerprint taken.
// The simulations' seeds derive from --seed alone.  Repetitions continue
// while the next one is expected to end within --seconds of host time, and
// host times are reported as medians over repetitions.
//
// Host times are normalized to a reference machine speed.  Before every
// tenth run_until slice, outside the timed slices, the driver times a
// fixed probe: 200k dependent loads through a 64 KiB table, which stays
// in L2.  A repetition's host time is scaled by kProbeRefS over the median
// probe time of that repetition.  Other tenants of a shared machine slow
// the simulator by 15-30 % for seconds to minutes at a time, and the
// probe slows with it; the scaled figure varies about half as much from
// run to run as the raw one.  The summary prints the raw times too.
//
// --trace 0 prints the end-to-end metrics.  --trace 1 runs every
// repetition a second time with the observer armed and a timing proxy in
// front of each reachable protocol handler, and prints the per-layer
// metrics.  The proxies time calls from outside the stacks; no program
// code is instrumented.  Traced runs must reproduce the untraced
// fingerprints exactly, as must every repetition.
//
// The last line of standard output is one JSON object:
//   {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}
// `attempted` counts messages A-broadcast, `failed` those that fail the
// output check (their ratio is the fail_frac line of the summary).
#include <sys/resource.h>

#include <algorithm>
#include <array>
#include <cerrno>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <map>
#include <memory>
#include <set>
#include <string>
#include <unordered_set>
#include <utility>
#include <vector>

#include "abcast/fd_abcast.hpp"
#include "abcast/gm_abcast.hpp"
#include "core/experiment.hpp"
#include "fault/fault_schedule.hpp"
#include "obs/counters.hpp"
#include "obs/observer.hpp"

namespace {

using namespace fdgm;
using Clock = std::chrono::steady_clock;
using abcast::MsgId;

double seconds_since(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

// ----------------------------------------------------------------- probe

constexpr double kProbeRefS = 1e-3;  // probe time at the reference speed
constexpr int kProbeEvery = 10;      // slices between probes

/// Times 200k dependent loads through a 64 KiB table.
double probe_s() {
  static const std::vector<std::uint32_t> next = [] {
    std::vector<std::uint32_t> v(1u << 14);
    for (std::uint32_t i = 0; i < v.size(); ++i) v[i] = (i * 7919u + 1u) % v.size();
    return v;
  }();
  const auto t0 = Clock::now();
  std::uint32_t x = 0;
  for (int i = 0; i < 200000; ++i) x = next[x];
  const double dt = seconds_since(t0);
  if (x == next.size()) std::printf("unreachable\n");  // uses x: the loop stays
  return dt;
}

// ------------------------------------------------------------- workloads

/// One workload: `sims` simulations per stack and repetition, each with
/// Poisson arrivals at total rate T until `horizon_ms` (open loop in
/// simulated time), then a drain.  Anything not named here keeps the
/// program defaults: heap scheduler, batching off, observer off in the
/// untraced runs.
struct Spec {
  const char* name;
  int n;
  double throughput;  // T, messages per second over the whole group
  double horizon_ms;  // arrivals stop here
  int sims;           // simulations per stack and repetition, seeds seed*16+i
  double td_ms;       // failure-detection time TD; 0 keeps the default
  bool lossy;         // transport armed, loss kLoss for the whole run
  double tmr_ms;      // mean mistake recurrence TMR; 0 = no wrong suspicions
  double tm_ms;       // mean mistake duration TM
};

constexpr double kWarmupMs = 2000.0;       // latency samples: broadcast after this
constexpr double kSliceMs = 100.0;         // run_until granularity (pending() reads)
constexpr double kMaxDrainMs = 3600000.0;  // drain cap after the horizon
constexpr double kLoss = 0.05;
constexpr int kMaxSims = 16;

// Horizons and simulation counts are set so that a repetition costs a few
// seconds of host time at the parent commit and the simulated-latency
// percentiles, pooled over a repetition's simulations, vary little from
// seed to seed.  GM's per-message host cost grows with run length, so
// workloads that need many samples use several shorter simulations;
// paper_n7 keeps one long one so that the growth shows.
const std::array<Spec, 4> kSpecs{{
    {"paper_n7", 7, 300.0, 90000.0, 1, 0.0, false, 0.0, 0.0},
    {"lossy_n32", 32, 50.0, 30000.0, 10, 30.0, true, 0.0, 0.0},
    // TMR scaled by n(n-1): one wrong suspicion per 5 s system-wide.
    {"scale_n128", 128, 100.0, 15000.0, 4, 30.0, false, 128.0 * 127.0 * 5000.0, 50.0},
    {"suspicion_n7", 7, 300.0, 15000.0, 8, 30.0, false, 1000.0, 10.0},
}};

core::SimConfig make_config(const Spec& s, core::Algorithm algo, std::uint64_t seed,
                            bool traced) {
  core::SimConfig cfg;
  cfg.algorithm = algo;
  cfg.n = s.n;
  cfg.seed = seed;
  if (s.td_ms > 0.0) cfg.fd_params.detection_time = s.td_ms;
  if (s.tmr_ms > 0.0) {
    cfg.fd_params.wrong_suspicions = true;
    cfg.fd_params.mistake_recurrence = s.tmr_ms;
    cfg.fd_params.mistake_duration = s.tm_ms;
  }
  if (s.lossy) {
    cfg.transport.enabled = true;
    fault::FaultEvent e;
    e.kind = fault::FaultKind::kLoss;
    e.rate = kLoss;
    e.at = 0.0;
    e.until = s.horizon_ms + kMaxDrainMs;
    cfg.faults.add(e);
  }
  cfg.obs.enabled = traced;
  return cfg;
}

// ---------------------------------------------------------- output check

struct CheckResult {
  std::uint64_t failed = 0;      // distinct messages failing any property
  std::uint64_t order = 0;       // log positions out of the first log's order
  std::uint64_t missing = 0;     // (log, message) pairs never delivered
  std::uint64_t duplicates = 0;  // repeated ids within one log
};

/// Checks the delivery logs of the final view's members against the
/// atomic broadcast properties:
///  * integrity: no log repeats an id;
///  * validity: the logs together hold every A-broadcast message, i.e. the
///    ids (origin, 1..k_origin), `broadcast` of them in total;
///  * uniform agreement: every log holds the same ids;
///  * total order: the ids two logs share appear in the same order.
/// A message failing any property counts once; `shed` arrivals (refused
/// by flow control) count as failed too.
CheckResult check_logs(const std::vector<std::vector<MsgId>>& logs, std::uint64_t broadcast,
                       std::uint64_t shed) {
  CheckResult r;
  std::set<MsgId> bad;
  std::vector<std::unordered_set<MsgId, abcast::MsgIdHash>> sets(logs.size());
  std::set<MsgId> all;
  for (std::size_t i = 0; i < logs.size(); ++i)
    for (const MsgId& id : logs[i]) {
      all.insert(id);
      if (!sets[i].insert(id).second) {
        ++r.duplicates;
        bad.insert(id);
      }
    }

  // Validity.  Sequence numbers are dense per origin from 1, so a hole
  // below an origin's highest delivered seq is a message never delivered.
  std::map<net::ProcessId, std::pair<std::uint64_t, std::uint64_t>> per_origin;  // max, count
  for (const MsgId& id : all) {
    if (id.seq == 0) bad.insert(id);
    auto& [max_seq, count] = per_origin[id.origin];
    max_seq = std::max(max_seq, id.seq);
    ++count;
  }
  std::uint64_t holes = 0;
  for (const auto& [origin, mc] : per_origin) holes += mc.first - mc.second;
  const std::uint64_t undelivered =
      std::max<std::uint64_t>(holes, broadcast > all.size() ? broadcast - all.size() : 0);
  const std::uint64_t unknown = all.size() > broadcast ? all.size() - broadcast : 0;
  r.missing = undelivered * logs.size();

  // Agreement, then order over the ids both logs hold.
  for (std::size_t i = 0; i < logs.size(); ++i)
    for (const MsgId& id : all)
      if (sets[i].count(id) == 0) {
        ++r.missing;
        bad.insert(id);
      }
  for (std::size_t i = 1; i < logs.size(); ++i) {
    std::vector<MsgId> a;
    std::vector<MsgId> b;
    for (const MsgId& id : logs[0])
      if (sets[i].count(id) != 0) a.push_back(id);
    for (const MsgId& id : logs[i])
      if (sets[0].count(id) != 0) b.push_back(id);
    for (std::size_t k = 0; k < std::min(a.size(), b.size()); ++k)
      if (a[k] != b[k]) {
        ++r.order;
        bad.insert(a[k]);
        bad.insert(b[k]);
      }
  }
  r.failed = bad.size() + undelivered + unknown + shed;
  return r;
}

/// The check's own test: a log with two entries swapped and one dropped
/// must show both an order fault and a missing delivery, whichever of the
/// two logs comes first.
bool check_selftest() {
  std::vector<MsgId> good;
  for (std::uint64_t seq = 1; seq <= 4; ++seq)
    for (net::ProcessId o = 0; o < 3; ++o) good.push_back({o, seq});
  std::vector<MsgId> faulty = good;
  std::swap(faulty[3], faulty[4]);
  faulty.erase(faulty.begin() + 8);
  if (check_logs({good, good}, good.size(), 0).failed != 0) return false;
  for (const CheckResult& r : {check_logs({good, faulty}, good.size(), 0),
                               check_logs({faulty, good}, good.size(), 0)})
    if (r.order == 0 || r.missing == 0 || r.failed != 3) return false;
  return true;
}

// ------------------------------------------------------- traced handlers

enum Traced : std::size_t { kRbcast, kConsensus, kAbcast, kMembership, kLayerCount };
constexpr std::array<const char*, kLayerCount> kLayerNames{"rbcast", "consensus", "abcast", "gm"};

/// Self time and call counts of the proxied handlers.  A handler's self
/// time is its duration minus the time of proxied handlers nested in it.
struct HandlerTimes {
  std::array<double, kLayerCount> self_ns{};
  std::array<std::uint64_t, kLayerCount> calls{};
  std::vector<double> nested_ns;  // per open call: time of nested proxied calls
};

/// A net::Layer registered in front of a protocol handler: times the call
/// and forwards it unchanged.
class HandlerProxy final : public net::Layer {
 public:
  HandlerProxy(HandlerTimes& times, Traced layer, net::Layer& inner)
      : times_(&times), layer_(layer), inner_(&inner) {}

  void on_message(const net::Message& m) override {
    times_->nested_ns.push_back(0.0);
    const auto t0 = Clock::now();
    inner_->on_message(m);
    const double total = std::chrono::duration<double, std::nano>(Clock::now() - t0).count();
    const double nested = times_->nested_ns.back();
    times_->nested_ns.pop_back();
    times_->self_ns[layer_] += total - nested;
    ++times_->calls[layer_];
    if (!times_->nested_ns.empty()) times_->nested_ns.back() += total;
  }

 private:
  HandlerTimes* times_;
  Traced layer_;
  net::Layer* inner_;
};

// ------------------------------------------------------- one repetition

/// Outputs that must repeat exactly across repetitions and between the
/// untraced and traced runs; sums over a repetition's simulations, with
/// latency percentiles over their pooled samples.
struct Fingerprint {
  std::uint64_t events = 0;
  std::uint64_t broadcast = 0;
  std::uint64_t deliveries = 0;
  std::uint64_t retransmits = 0;
  std::uint64_t view_changes = 0;
  std::uint64_t suspicions = 0;
  std::uint64_t pending_peak = 0;  // max over the simulations
  double lat_p50_ms = 0.0;
  double lat_p99_ms = 0.0;
  double end_ms = 0.0;  // simulated time

  friend bool operator==(const Fingerprint&, const Fingerprint&) = default;
};

/// One stack's share of one repetition.
struct StackRep {
  std::vector<double> setup_s;     // per simulation: construction .. end of start
  std::vector<double> fd_start_s;  // per simulation: fd_model().start() alone
  double host_s = 0.0;             // run_until slices from start to drained, summed
  std::vector<double> probe_s;     // probe times taken between slices
  std::uint64_t msgs = 0;          // messages A-broadcast
  std::uint64_t shed = 0;
  Fingerprint fp;
  CheckResult check;
  std::vector<double> lat;  // L(m) of messages broadcast after warm-up
  // Deterministic layer counts.
  std::uint64_t wire_jobs = 0;
  std::uint64_t cpu_jobs = 0;
  double wire_busy_ms = 0.0;
  std::uint64_t lost = 0;
  std::uint64_t nacks = 0;
  std::uint64_t dups = 0;
  std::uint64_t retx_origin0 = 0;
  std::uint64_t instances = 0;  // consensus instances decided, summed over processes
  // Traced runs only.
  std::uint64_t rounds = 0;          // observer kConsensusRounds
  std::uint64_t obs_suspicions = 0;  // observer kSuspicions
  HandlerTimes handlers;
};

const abcast::FdAbcastProcess& fd_proc(core::SimRun& run, net::ProcessId p) {
  return static_cast<const abcast::FdAbcastProcess&>(run.proc(p));
}
const abcast::GmAbcastProcess& gm_proc(core::SimRun& run, net::ProcessId p) {
  return static_cast<const abcast::GmAbcastProcess&>(run.proc(p));
}

/// FD: every process.  GM: the view of the member with the latest view.
std::vector<net::ProcessId> final_members(core::SimRun& run, core::Algorithm algo, int n) {
  std::vector<net::ProcessId> members;
  if (algo == core::Algorithm::kFd) {
    for (int p = 0; p < n; ++p) members.push_back(p);
    return members;
  }
  const abcast::GmAbcastProcess* latest = nullptr;
  for (int p = 0; p < n; ++p) {
    const auto& gp = gm_proc(run, p);
    if (gp.membership().is_member() && (latest == nullptr || gp.view().id > latest->view().id))
      latest = &gp;
  }
  if (latest != nullptr) members = latest->view().members;
  return members;
}

const std::vector<abcast::AppMessagePtr>& log_of(core::SimRun& run, core::Algorithm algo,
                                                 net::ProcessId p) {
  return algo == core::Algorithm::kFd ? fd_proc(run, p).log() : gm_proc(run, p).log();
}

bool drained(core::SimRun& run, core::Algorithm algo, int n) {
  const std::uint64_t total = run.recorder().total_broadcast();
  const auto members = final_members(run, algo, n);
  if (members.empty()) return false;
  for (net::ProcessId p : members)
    if (run.proc(p).delivered_count() != total) return false;
  return true;
}

double percentile(std::vector<double>& v, double q) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const auto rank = static_cast<std::size_t>(q * static_cast<double>(v.size() - 1) + 0.5);
  return v[std::min(rank, v.size() - 1)];
}

/// A constructed and started simulation with its set-up time (construction
/// to the end of start) and the time of fd_model().start() alone.
struct Started {
  std::unique_ptr<core::SimRun> run;
  double setup_s = 0.0;
  double fd_start_s = 0.0;
};

Started start_sim(const Spec& s, core::Algorithm algo, std::uint64_t seed, bool traced) {
  const core::SimConfig cfg = make_config(s, algo, seed, traced);
  Started st;
  const auto t0 = Clock::now();
  st.run = std::make_unique<core::SimRun>(cfg, core::WorkloadConfig{s.throughput});
  const auto t_fd = Clock::now();
  st.run->fd_model().start();
  st.fd_start_s = seconds_since(t_fd);
  st.run->workload().start();
  if (st.run->injector() != nullptr) st.run->injector()->arm();
  st.setup_s = seconds_since(t0);
  return st;
}

/// Runs one simulation and adds its results to `out`.
void run_sim(const Spec& s, core::Algorithm algo, std::uint64_t seed, bool traced,
             StackRep& out) {
  // Declared before the SimRun: its nodes point at the proxies until the
  // run is destroyed.
  std::vector<std::unique_ptr<HandlerProxy>> proxies;
  Started st = start_sim(s, algo, seed, traced);
  core::SimRun* run = st.run.get();
  out.setup_s.push_back(st.setup_s);
  out.fd_start_s.push_back(st.fd_start_s);

  if (traced) {
    auto add = [&](net::ProcessId p, net::ProtocolId proto, Traced layer, net::Layer& inner) {
      proxies.push_back(std::make_unique<HandlerProxy>(out.handlers, layer, inner));
      run->system().node(p).register_handler(proto, proxies.back().get());
    };
    for (int p = 0; p < s.n; ++p) {
      if (algo == core::Algorithm::kFd) {
        auto& fp = static_cast<abcast::FdAbcastProcess&>(run->proc(p));
        add(p, net::ProtocolId::kReliableBroadcast, kRbcast, fp.rb());
        add(p, net::ProtocolId::kConsensus, kConsensus, fp.consensus_dbg());
        add(p, net::ProtocolId::kAtomicBroadcast, kAbcast, fp);
      } else {
        // GM's reliable broadcast has no public accessor: its handler stays
        // unproxied and its time lands in the residual.
        auto& gp = static_cast<abcast::GmAbcastProcess&>(run->proc(p));
        add(p, net::ProtocolId::kConsensus, kConsensus, gp.consensus_dbg());
        add(p, net::ProtocolId::kAtomicBroadcast, kAbcast, gp);
        // membership() is a const view of a member the process owns
        // mutably; the proxy forwards messages to it as the Node would.
        add(p, net::ProtocolId::kMembership, kMembership,
            const_cast<gm::GroupMembership&>(gp.membership()));
      }
    }
  }

  auto& sched = run->system().scheduler();
  std::uint64_t pending_peak = sched.pending();
  int slices = 0;
  auto slice = [&](double until) {
    if (slices++ % kProbeEvery == 0) out.probe_s.push_back(probe_s());
    const auto t1 = Clock::now();
    run->run_until(until);
    pending_peak = std::max<std::uint64_t>(pending_peak, sched.pending());
    out.host_s += seconds_since(t1);
  };
  double t = 0.0;
  while (t < s.horizon_ms) {
    t = std::min(t + kSliceMs, s.horizon_ms);
    slice(t);
  }
  run->workload().stop();
  while (!drained(*run, algo, s.n) && t < s.horizon_ms + kMaxDrainMs) {
    t += kSliceMs;
    slice(t);
  }

  // ---- output check and simulated latency
  const auto members = final_members(*run, algo, s.n);
  std::vector<std::vector<MsgId>> logs;
  for (net::ProcessId p : members) {
    std::vector<MsgId> ids;
    for (const abcast::AppMessagePtr m : log_of(*run, algo, p)) ids.push_back(m->id);
    logs.push_back(std::move(ids));
  }
  const std::uint64_t shed = run->workload().shed();
  const CheckResult c = check_logs(logs, run->recorder().total_broadcast(), shed);
  out.check.failed += c.failed;
  out.check.order += c.order;
  out.check.missing += c.missing;
  out.check.duplicates += c.duplicates;
  out.msgs += run->workload().generated();
  out.shed += shed;
  if (!members.empty())
    for (const abcast::AppMessagePtr m : log_of(*run, algo, members.front()))
      if (m->sent_at >= kWarmupMs) out.lat.push_back(run->recorder().latency_of(m->id));

  // ---- fingerprint and layer counts
  auto& net = run->system().network();
  const transport::Transport* tr = run->system().transport();
  Fingerprint& fp = out.fp;
  fp.events += sched.executed();
  fp.broadcast += run->recorder().total_broadcast();
  for (int p = 0; p < s.n; ++p) fp.deliveries += run->proc(p).delivered_count();
  fp.pending_peak = std::max(fp.pending_peak, pending_peak);
  fp.end_ms += run->system().now();
  for (int p = 0; p < s.n; ++p) fp.suspicions += run->fd_model().at(p).suspicion_edges();
  if (algo == core::Algorithm::kGm && !members.empty())
    fp.view_changes += gm_proc(*run, members.front()).view().id;

  out.wire_jobs += net.network_uses();
  for (int p = 0; p < s.n; ++p) out.cpu_jobs += net.cpu_uses(p);
  out.wire_busy_ms += net.network_busy_time();
  out.lost += net.lost_deliveries();
  if (tr != nullptr) {
    fp.retransmits += tr->stats().retransmits;
    out.nacks += tr->stats().nacks;
    out.dups += tr->stats().duplicates;
    out.retx_origin0 += tr->retx_from(0);
  }
  for (int p = 0; p < s.n; ++p)
    out.instances += algo == core::Algorithm::kFd
                         ? fd_proc(*run, p).decided_instances()
                         : gm_proc(*run, p).membership().views_installed();
  if (const obs::Observer* o = run->observer()) {
    out.rounds += o->total(obs::Counter::kConsensusRounds);
    out.obs_suspicions += o->total(obs::Counter::kSuspicions);
  }
}

std::uint64_t sim_seed(std::uint64_t seed, int i) {
  return seed * kMaxSims + static_cast<std::uint64_t>(i);
}

StackRep run_rep(const Spec& s, core::Algorithm algo, std::uint64_t seed, bool traced) {
  StackRep rep;
  for (int i = 0; i < s.sims; ++i) run_sim(s, algo, sim_seed(seed, i), traced, rep);
  rep.fp.lat_p50_ms = percentile(rep.lat, 0.50);
  rep.fp.lat_p99_ms = percentile(rep.lat, 0.99);
  return rep;
}

// ------------------------------------------------------------- output

double median(std::vector<double> v) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const std::size_t h = v.size() / 2;
  return v.size() % 2 == 1 ? v[h] : 0.5 * (v[h - 1] + v[h]);
}

double ratio(double num, double den) { return den > 0.0 ? num / den : 0.0; }

/// A repetition's host time scaled to the reference probe speed.
double norm_host_s(const StackRep& r) { return r.host_s * kProbeRefS / median(r.probe_s); }

struct Metric {
  std::string name;
  double value;
  const char* unit;
};

std::string json_number(double v) {
  char buf[64];
  std::snprintf(buf, sizeof buf, "%.17g", v);
  return buf;
}

[[noreturn]] void usage(const std::string& msg) {
  std::fprintf(stderr,
               "perfbench: %s\nusage: perfbench --workload <%s|%s|%s|%s> --seed <n> "
               "--seconds <s> --trace <0|1>\n",
               msg.c_str(), kSpecs[0].name, kSpecs[1].name, kSpecs[2].name, kSpecs[3].name);
  std::exit(2);
}

std::uint64_t parse_uint(const std::string& flag, const char* text, std::uint64_t max) {
  char* end = nullptr;
  errno = 0;
  const unsigned long long v = std::strtoull(text, &end, 10);
  if (errno != 0 || end == text || *end != '\0' || text[0] == '-' || v > max)
    usage("bad value for " + flag + ": " + text);
  return v;
}

}  // namespace

int main(int argc, char** argv) {
  const Spec* spec = nullptr;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (i + 1 >= argc) usage("missing value for " + flag);
    const char* value = argv[++i];
    if (flag == "--workload") {
      for (const Spec& s : kSpecs)
        if (std::strcmp(s.name, value) == 0) spec = &s;
      if (spec == nullptr) usage(std::string("unknown workload: ") + value);
    } else if (flag == "--seed") {
      seed = parse_uint(flag, value, UINT64_MAX / kMaxSims);
    } else if (flag == "--seconds") {
      seconds = static_cast<double>(parse_uint(flag, value, 3600));
      if (seconds < 1) usage("--seconds must be at least 1");
    } else if (flag == "--trace") {
      trace = parse_uint(flag, value, 1) == 1;
    } else {
      usage("unknown flag: " + flag);
    }
  }
  if (spec == nullptr) usage("--workload is required");

  bool correct = true;
  if (!check_selftest()) {
    std::printf("FAIL output check self-test: injected faults not caught\n");
    correct = false;
  }

  constexpr std::array<core::Algorithm, 2> kAlgos{core::Algorithm::kFd, core::Algorithm::kGm};
  constexpr std::array<const char*, 2> kStack{"fd", "gm"};
  std::array<std::vector<StackRep>, 2> plain;
  std::array<std::vector<StackRep>, 2> traced;
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;

  auto record = [&](std::size_t k, StackRep r, bool is_traced) {
    attempted += r.msgs + r.shed;
    failed += r.check.failed;
    auto& reps = is_traced ? traced[k] : plain[k];
    const Fingerprint& first = plain[k].empty() ? r.fp : plain[k].front().fp;
    if (!(r.fp == first)) {
      std::printf("FAIL %s %s repetition %zu: deterministic outputs differ from the first\n",
                  kStack[k], is_traced ? "traced" : "untraced", reps.size() + 1);
      correct = false;
    }
    reps.push_back(std::move(r));
  };

  // Set-up time per simulation, FD + GM of the same seed: each
  // repetition's own set-ups plus set-up-only samples (construct, start,
  // destroy) taken after every repetition, so that the samples spread over
  // the whole run.
  std::vector<double> setups;
  auto sample_setups = [&](double budget_s) {
    const auto t0 = Clock::now();
    for (int i = 0; i < 3 || (i < 50 && seconds_since(t0) < budget_s); ++i) {
      double pair_s = 0.0;
      for (core::Algorithm algo : kAlgos)
        pair_s += start_sim(*spec, algo, sim_seed(seed, i % spec->sims), false).setup_s;
      setups.push_back(pair_s);
    }
  };

  // Another repetition starts only if it is expected to end in time.
  const auto t_start = Clock::now();
  double rep_s = 0.0;
  do {
    const auto t_rep = Clock::now();
    for (std::size_t k = 0; k < 2; ++k) record(k, run_rep(*spec, kAlgos[k], seed, false), false);
    if (trace) {
      for (std::size_t k = 0; k < 2; ++k) record(k, run_rep(*spec, kAlgos[k], seed, true), true);
    } else {
      const StackRep& fd = plain[0].back();
      const StackRep& gm = plain[1].back();
      for (std::size_t i = 0; i < fd.setup_s.size(); ++i)
        setups.push_back(fd.setup_s[i] + gm.setup_s[i]);
      sample_setups(0.02 * seconds_since(t_rep));
    }
    rep_s = seconds_since(t_rep);
  } while (seconds_since(t_start) + rep_s <= seconds);

  const auto med_of = [](const std::vector<StackRep>& reps, auto per_rep) {
    std::vector<double> v;
    for (const StackRep& r : reps) v.push_back(per_rep(r));
    return median(v);
  };
  // Mean simulated drain per simulation: the time after the horizon.
  const auto drain_ms = [spec](const StackRep& r) {
    return r.fp.end_ms / spec->sims - spec->horizon_ms;
  };
  std::vector<Metric> metrics;

  if (!trace) {
    for (std::size_t k = 0; k < 2; ++k) {
      const std::string sfx = std::string(".") + kStack[k];
      metrics.push_back({"us_per_msg" + sfx, med_of(plain[k], [](const StackRep& r) {
                           return norm_host_s(r) / static_cast<double>(r.msgs) * 1e6;
                         }), "us"});
      metrics.push_back({"ns_per_event" + sfx, med_of(plain[k], [](const StackRep& r) {
                           return norm_host_s(r) / static_cast<double>(r.fp.events) * 1e9;
                         }), "ns"});
    }
    std::vector<double> probes;
    for (const StackRep& r : plain[0]) probes.insert(probes.end(), r.probe_s.begin(), r.probe_s.end());
    for (const StackRep& r : plain[1]) probes.insert(probes.end(), r.probe_s.begin(), r.probe_s.end());
    metrics.push_back({"setup_s", median(setups) * kProbeRefS / median(probes), "s"});
    rusage ru{};
    getrusage(RUSAGE_SELF, &ru);
    metrics.push_back({"peak_rss_mb", static_cast<double>(ru.ru_maxrss) / 1024.0, "MB"});
    for (std::size_t k = 0; k < 2; ++k)
      metrics.push_back({std::string("sim_lat_p50_ms.") + kStack[k],
                         plain[k].front().fp.lat_p50_ms, "ms"});
    for (std::size_t k = 0; k < 2; ++k)
      metrics.push_back({std::string("sim_lat_p99_ms.") + kStack[k],
                         plain[k].front().fp.lat_p99_ms, "ms"});
  } else {
    for (std::size_t k = 0; k < 2; ++k) {
      const std::string sfx = std::string(".") + kStack[k];
      const std::vector<StackRep>& reps = traced[k];
      const StackRep& r0 = reps.front();
      const double msgs = static_cast<double>(r0.msgs);
      const double events = static_cast<double>(r0.fp.events);
      const auto per_msg = [msgs](std::uint64_t count) { return static_cast<double>(count) / msgs; };

      // Handler self times are medians over the traced repetitions; the
      // residual is the median host time minus their sum, so the split
      // adds up to the traced host time by construction.  The check below
      // recomputes the sum from the reported per-message figures.
      const double host_ns = med_of(reps, [](const StackRep& r) { return r.host_s * 1e9; });
      std::array<double, kLayerCount> self_ns{};
      double proxied_ns = 0.0;
      for (std::size_t l = 0; l < kLayerCount; ++l) {
        self_ns[l] = med_of(reps, [l](const StackRep& r) { return r.handlers.self_ns[l]; });
        proxied_ns += self_ns[l];
      }
      const double residual_per_event = (host_ns - proxied_ns) / events;

      metrics.push_back({"sim.events_per_msg" + sfx, events / msgs, "count"});
      metrics.push_back(
          {"sim.pending_peak" + sfx, static_cast<double>(r0.fp.pending_peak), "count"});
      metrics.push_back({"sim.residual_ns_per_event" + sfx, residual_per_event, "ns"});
      metrics.push_back({"sim.drain_ms" + sfx, drain_ms(r0), "ms"});
      metrics.push_back({"net.wire_jobs_per_msg" + sfx, per_msg(r0.wire_jobs), "count"});
      metrics.push_back({"net.cpu_jobs_per_msg" + sfx, per_msg(r0.cpu_jobs), "count"});
      metrics.push_back(
          {"net.wire_busy_frac" + sfx, ratio(r0.wire_busy_ms, r0.fp.end_ms), "ratio"});
      metrics.push_back({"net.lost_per_msg" + sfx, per_msg(r0.lost), "count"});
      metrics.push_back({"transport.retx_per_msg" + sfx, per_msg(r0.fp.retransmits), "count"});
      metrics.push_back({"transport.nacks_per_msg" + sfx, per_msg(r0.nacks), "count"});
      metrics.push_back({"transport.dups_per_msg" + sfx, per_msg(r0.dups), "count"});
      metrics.push_back({"transport.seq_retx_share" + sfx,
                         ratio(static_cast<double>(r0.retx_origin0),
                               static_cast<double>(r0.fp.retransmits)),
                         "ratio"});
      double rebuilt_ns = residual_per_event * events;
      for (std::size_t l = 0; l < kLayerCount; ++l) {
        // FD has no membership layer; GM's rbcast is not reachable.
        if (k == 0 ? l == kMembership : l == kRbcast) continue;
        const std::string layer = kLayerNames[l];
        metrics.push_back({layer + ".handler_ns_per_msg" + sfx, self_ns[l] / msgs, "ns"});
        rebuilt_ns += metrics.back().value * msgs;
        if (l != kMembership)
          metrics.push_back({layer + ".calls_per_msg" + sfx, per_msg(r0.handlers.calls[l]),
                             "count"});
      }
      if (std::abs(rebuilt_ns - host_ns) > 1e-9 * host_ns) {
        std::printf("FAIL %s: handler times + residual do not add up to the traced host time\n",
                    kStack[k]);
        correct = false;
      }
      metrics.push_back({"consensus.rounds_per_instance" + sfx,
                         ratio(static_cast<double>(r0.rounds), static_cast<double>(r0.instances)),
                         "count"});
      if (k == 1)
        metrics.push_back(
            {"gm.view_changes" + sfx, static_cast<double>(r0.fp.view_changes), "count"});
      std::vector<double> fd_start;
      for (const StackRep& r : reps) fd_start.insert(fd_start.end(), r.fd_start_s.begin(), r.fd_start_s.end());
      metrics.push_back({"fd.start_s" + sfx, median(fd_start), "s"});
      metrics.push_back({"fd.suspicions_per_s" + sfx,
                         ratio(static_cast<double>(r0.obs_suspicions), r0.fp.end_ms / 1000.0),
                         "1/s"});
      metrics.push_back({"obs.trace_overhead_frac" + sfx,
                         med_of(reps, norm_host_s) / med_of(plain[k], norm_host_s) - 1.0,
                         "ratio"});
    }
  }

  // Human-readable summary, then the result line.
  std::printf("workload %s  seed %llu  simulations %d  repetitions %zu  trace %d\n", spec->name,
              static_cast<unsigned long long>(seed), spec->sims, plain[0].size(), trace ? 1 : 0);
  for (std::size_t k = 0; k < 2; ++k) {
    const StackRep& r = plain[k].front();
    std::printf(
        "  %s: msgs %llu  events %llu  deliveries %llu  retx %llu  views %llu  suspicions %llu"
        "  drain %.1f ms/sim  check: failed %llu order %llu missing %llu dup %llu\n",
        kStack[k], static_cast<unsigned long long>(r.msgs),
        static_cast<unsigned long long>(r.fp.events),
        static_cast<unsigned long long>(r.fp.deliveries),
        static_cast<unsigned long long>(r.fp.retransmits),
        static_cast<unsigned long long>(r.fp.view_changes),
        static_cast<unsigned long long>(r.fp.suspicions), drain_ms(r),
        static_cast<unsigned long long>(r.check.failed),
        static_cast<unsigned long long>(r.check.order),
        static_cast<unsigned long long>(r.check.missing),
        static_cast<unsigned long long>(r.check.duplicates));
  }
  for (std::size_t k = 0; k < 2; ++k) {
    std::printf("  %s raw host s (probe ms) per repetition:", kStack[k]);
    for (const StackRep& r : plain[k]) std::printf(" %.3f (%.3f)", r.host_s, median(r.probe_s) * 1e3);
    if (trace) {
      std::printf("  traced:");
      for (const StackRep& r : traced[k]) std::printf(" %.3f (%.3f)", r.host_s, median(r.probe_s) * 1e3);
    }
    std::printf("\n");
  }
  if (failed != 0) correct = false;
  std::printf("  %-36s %14.6g %s\n", "fail_frac",
              ratio(static_cast<double>(failed), static_cast<double>(attempted)), "ratio");
  for (const Metric& m : metrics)
    std::printf("  %-36s %14.6g %s\n", m.name.c_str(), m.value, m.unit);

  std::string json = std::string("{\"correct\": ") + (correct ? "true" : "false") +
                     ", \"attempted\": " + std::to_string(attempted) +
                     ", \"failed\": " + std::to_string(failed) + ", \"metrics\": {";
  for (std::size_t i = 0; i < metrics.size(); ++i) {
    if (i != 0) json += ", ";
    json += "\"" + metrics[i].name + "\": {\"value\": " + json_number(metrics[i].value) +
            ", \"unit\": \"" + metrics[i].unit + "\"}";
  }
  json += "}}";
  std::printf("%s\n", json.c_str());
  return 0;
}
