// The two fleet workloads: fleet_steady (closed loop, no control ops in the
// timed phase) and fleet_churn_durable (open loop packets plus a fixed
// control schedule on a durable store). See ../README.md.
#include <algorithm>
#include <atomic>
#include <filesystem>
#include <iostream>
#include <map>
#include <memory>
#include <numeric>
#include <random>
#include <span>
#include <thread>

#include "common.h"
#include "probes.h"
#include "scenarios/fleet.h"
#include "scenarios/nf.h"

namespace e2e {

namespace {

namespace fs = std::filesystem;
using scenarios::NfKind;
using scenarios::ScenarioFleet;

constexpr std::size_t kDepth = 3;
constexpr std::size_t kWorkers = 2;
constexpr std::size_t kSteadyTenants = 100;
constexpr std::size_t kChurnTenants = 32;
// Open-loop rates, about a fifth of the interpreted capacity and half the
// control thread's: near saturation, host noise turns into queueing and
// the figures stop repeating (README.md).
constexpr double kChurnPps = 1000;
constexpr double kCtlPerSecond = 5;       // 4 churn txns + 1 hot swap
constexpr std::size_t kChurnOps = 8;      // churn_tenant(i, 8)
constexpr std::size_t kSwapEvery = 5;     // every fifth control op a hot swap
// Churn entries each chain position keeps (FleetOptions::churn_window, a
// size, not a code path), and the churn rounds per position that
// fleet_churn_durable's warm-up runs on every tenant to fill them. From
// then on a churn adds as many entries as it expires, so the persona
// stays about the same size through the run; with the default window of
// 64 it grew by two thirds over a 30-s run and every latency climbed with
// it (README.md).
constexpr std::size_t kChurnWindow = 8;
// fleet_steady's control probe: a block of five ops on the idle fleet
// between two waves every second, spread over the whole run. Each op's
// tenant is restored afterwards, so the packets always meet the fleet as
// built.
constexpr std::size_t kSteadyCtlBlock = 5;
constexpr std::uint64_t kSteadyCtlEveryNs = 1'000'000'000;

void sleep_until_ns(std::uint64_t t) {
  std::this_thread::sleep_until(
      Clock::time_point(std::chrono::nanoseconds(t)));
}

// The built fleet plus the benchmark's own copy of each tenant's inputs.
struct FleetRun {
  std::unique_ptr<ScenarioFleet> fleet;
  std::vector<engine::InjectItem> flows;  // per tenant: in port + packet
  std::vector<std::uint16_t> out_port;    // per tenant
  std::vector<std::size_t> order;         // seeded tenant order
  Samples setup_s;
};

std::unique_ptr<ScenarioFleet> make_fleet(std::size_t tenants,
                                          const Args& a,
                                          const std::string& durable_dir) {
  scenarios::FleetOptions fo;
  fo.tenants = tenants;
  fo.chain_depth = kDepth;
  fo.engine_workers = kWorkers;
  fo.seed = a.seed;
  fo.churn_window = kChurnWindow;
  fo.durable_dir = durable_dir;
  if (!durable_dir.empty()) fs::remove_all(durable_dir);
  return std::make_unique<ScenarioFleet>(fo);
}

// Times the set-ups (time_setups; untraced runs only), then builds the
// fleet the run measures.
void build(FleetRun& fr, std::size_t tenants, const Args& a, bool durable) {
  if (!a.trace) {
    fr.setup_s = time_setups([&](int k) {
      const std::string dir =
          durable ? a.work_dir + "/setup" + std::to_string(k) : "";
      const std::uint64_t t0 = now_ns();
      auto f = make_fleet(tenants, a, dir);
      const double s = static_cast<double>(now_ns() - t0) / 1e9;
      f.reset();
      if (durable) fs::remove_all(dir);
      return s;
    });
  }
  fr.fleet = make_fleet(tenants, a, durable ? a.work_dir + "/fleet" : "");
  for (std::size_t i = 0; i < fr.fleet->tenants(); ++i) {
    const auto& t = fr.fleet->tenant(i);
    fr.flows.push_back(engine::InjectItem{t.in_port, t.flow_packet});
    fr.out_port.push_back(t.out_port);
  }
  fr.order.resize(fr.fleet->tenants());
  std::iota(fr.order.begin(), fr.order.end(), 0);
  std::mt19937_64 rng(a.seed);
  std::shuffle(fr.order.begin(), fr.order.end(), rng);
}

// Planted fault for the self-test: restore the first tenant in order from
// a snapshot that lacks the flow rules of its last chain position.
void plant_fault(FleetRun& fr) {
  const std::size_t t = fr.order.front();
  auto snap = fr.fleet->snapshot_tenant(t);
  auto& rules = snap.rules.back();
  std::erase_if(rules, [](const auto& sr) { return sr.flow; });
  fr.fleet->restore_tenant(t, snap);
}

bool egress_ok(const bm::ProcessResult& pr, std::uint16_t out) {
  return pr.outputs.size() == 1 && pr.outputs.front().port == out;
}

struct PktStats {
  explicit PktStats(std::uint64_t t0) : lat_us(t0, kWindowS) {}
  Windowed lat_us;  // by completion time
  Samples gen_lag_us;
  std::uint64_t packets = 0, failed = 0;
  double pps() const { return lat_us.rate(); }
};

struct CtlStats {
  explicit CtlStats(std::uint64_t t0) : lat_ms(t0, kWindowS) {}
  Windowed lat_ms;  // by completion time
  Samples wait_ms, churn_ms, swap_ms;
  std::uint64_t ops = 0, failed = 0, churns = 0, rule_ops = 0;
  std::uint64_t restores = 0;  // untimed restore_tenant calls (one epoch each)
};

// Control-op targets. Op j goes to a tenant whose chain starts with the
// ((j / kSwapEvery) mod kinds)-th NF kind, so every run has the same mix of
// chain kinds and op kinds; the seed orders each kind's tenants, which are
// taken in turn.
class Targets {
 public:
  Targets(const ScenarioFleet& f, std::uint64_t seed) {
    std::map<NfKind, std::vector<std::size_t>> by_kind;
    for (std::size_t i = 0; i < f.tenants(); ++i)
      by_kind[f.tenant(i).chain.front()].push_back(i);
    std::mt19937_64 rng(seed);
    for (auto& [kind, tenants] : by_kind) {
      std::shuffle(tenants.begin(), tenants.end(), rng);
      groups_.push_back({std::move(tenants), 0});
    }
  }
  std::size_t next(std::size_t j) {
    Group& g = groups_[(j / kSwapEvery) % groups_.size()];
    return g.tenants[g.taken++ % g.tenants.size()];
  }

 private:
  struct Group {
    std::vector<std::size_t> tenants;
    std::size_t taken = 0;
  };
  std::vector<Group> groups_;
};

// Control op j of the schedule (every fifth a hot swap, else a churn
// transaction) on `tenant`, timed from its due time.
void control_op(ScenarioFleet& f, std::size_t j, std::size_t tenant,
                std::uint64_t due, SpanLog& spans, CtlStats& c) {
  const bool swap = j % kSwapEvery == kSwapEvery - 1;
  const std::uint64_t t0 = now_ns();
  const std::uint32_t root = spans.open("ctl.op", due, 0, j + 1);
  try {
    if (swap) {
      f.hot_swap(tenant);
    } else {
      c.rule_ops += f.churn_tenant(tenant, kChurnOps);
      ++c.churns;
    }
  } catch (const std::exception& e) {
    std::cerr << "hp4_e2e: control op " << j << " failed: " << e.what() << "\n";
    ++c.failed;
  }
  const std::uint64_t t1 = now_ns();
  spans.add(swap ? "scenarios.hot_swap" : "scenarios.churn_tenant", t0, t1,
            root, j + 1);
  spans.close(root, t1);
  ++c.ops;
  c.lat_ms.add(t1, static_cast<double>(t1 - due) / 1e6);
  c.wait_ms.add(static_cast<double>(t0 - due) / 1e6);
  (swap ? c.swap_ms : c.churn_ms).add(static_cast<double>(t1 - t0) / 1e6);
}

struct FleetPhase {
  explicit FleetPhase(std::uint64_t t0) : pkt(t0), ctl(t0) {}
  PktStats pkt;
  CtlStats ctl;
};

// Closed loop: one wave of every tenant's canonical flow packet in seeded
// order through inject_batch, results taken through collect_ready. With
// `probe`, every kSteadyCtlEveryNs a block of kSteadyCtlBlock control ops
// on seeded tenants runs between two waves, on the drained (idle) fleet,
// each followed by an untimed restore_tenant; the block's time is left out
// of the packet rate.
FleetPhase steady_phase(FleetRun& fr, double seconds, SpanLog& spans,
                        const StealMonitor* steal, bool probe,
                        std::uint64_t seed = 0) {
  engine::TrafficEngine& eng = fr.fleet->engine();
  std::vector<engine::InjectItem> wave;
  for (std::size_t t : fr.order) wave.push_back(fr.flows[t]);
  Targets targets(*fr.fleet, seed ^ 0x5eedc0deULL);  // probe targets
  const std::uint64_t start = now_ns();
  FleetPhase out(start);
  PktStats& s = out.pkt;
  const auto end = start + static_cast<std::uint64_t>(seconds * 1e9);
  std::uint64_t last_done = 0, wave_no = 0;
  std::uint64_t next_ctl = start + kSteadyCtlEveryNs;
  while (now_ns() < end) {
    const std::uint64_t t_inj = now_ns();
    if (last_done) s.gen_lag_us.add(static_cast<double>(t_inj - last_done) / 1e3);
    ++wave_no;
    const std::uint32_t root = spans.open("fleet.wave", t_inj, 0, wave_no);
    eng.inject_batch(wave);
    spans.add("engine.inject_batch", t_inj, now_ns(), root, wave_no);
    std::size_t taken = 0;
    while (taken < wave.size()) {
      const std::uint64_t c0 = now_ns();
      const engine::MergedResult m = eng.collect_ready();
      const std::uint64_t c1 = now_ns();
      spans.add("engine.collect_ready", c0, c1, root, wave_no);
      for (const auto& pr : m.per_packet) {
        s.lat_us.add(c1, static_cast<double>(c1 - t_inj) / 1e3);
        if (taken >= wave.size() ||
            !egress_ok(pr, fr.out_port[fr.order[taken]]))
          ++s.failed;
        ++taken;
      }
    }
    const std::uint64_t d0 = now_ns();
    eng.drain();
    last_done = now_ns();
    spans.add("engine.drain", d0, last_done, root, wave_no);
    spans.close(root, last_done);
    s.packets += taken;
    if (probe && last_done >= next_ctl) {
      for (std::size_t k = 0; k < kSteadyCtlBlock; ++k) {
        const std::size_t t = targets.next(out.ctl.ops);
        const auto snap = fr.fleet->snapshot_tenant(t);
        control_op(*fr.fleet, out.ctl.ops, t, now_ns(), spans, out.ctl);
        fr.fleet->restore_tenant(t, snap);
        ++out.ctl.restores;
      }
      const std::uint64_t b1 = now_ns();
      s.lat_us.exclude(last_done, b1);
      last_done = b1;
      next_ctl += kSteadyCtlEveryNs;
    }
  }
  s.lat_us.close(end, steal);
  out.ctl.lat_ms.close(end, steal, /*keep_partial=*/true);
  return out;
}

// Open loop: one generator thread offers evenly spaced canonical-flow
// packets at kChurnPps, a collector takes results through collect_ready,
// and this thread runs the control schedule at kCtlPerSecond. Every
// latency is timed from its due time.
FleetPhase churn_phase(FleetRun& fr, double seconds, std::uint64_t seed,
                       SpanLog& spans, const StealMonitor* steal) {
  engine::TrafficEngine& eng = fr.fleet->engine();
  const auto gap = static_cast<std::uint64_t>(1e9 / kChurnPps);
  const auto ctl_gap = static_cast<std::uint64_t>(1e9 / kCtlPerSecond);
  const std::size_t n_max = static_cast<std::size_t>(seconds * kChurnPps) + 1;
  std::vector<std::uint64_t> due(n_max);
  std::vector<std::uint32_t> tenant(n_max), root(n_max);
  std::atomic<std::uint64_t> injected{0};
  std::atomic<bool> gen_done{false};
  const std::uint64_t t0 = now_ns() + 2'000'000;
  const auto t_end = t0 + static_cast<std::uint64_t>(seconds * 1e9);
  FleetPhase out(t0);

  std::thread gen([&] {
    for (std::size_t k = 0; k < n_max; ++k) {
      const std::uint64_t d = t0 + k * gap;
      if (d >= t_end) break;
      sleep_until_ns(d);
      const std::size_t t = fr.order[k % fr.order.size()];
      due[k] = d;
      tenant[k] = static_cast<std::uint32_t>(t);
      const std::uint64_t i0 = now_ns();
      root[k] = spans.open("pkt", d, 0, k + 1);
      eng.inject_batch(std::span<const engine::InjectItem>(&fr.flows[t], 1));
      spans.add("engine.inject_batch", i0, now_ns(), root[k], k + 1);
      out.pkt.gen_lag_us.add(static_cast<double>(i0 - d) / 1e3);
      injected.store(k + 1, std::memory_order_release);
    }
    gen_done.store(true, std::memory_order_release);
  });

  std::thread col([&] {
    std::uint64_t taken = 0;
    for (;;) {
      if (taken < injected.load(std::memory_order_acquire)) {
        const engine::MergedResult m = eng.collect_ready();
        const std::uint64_t c1 = now_ns();
        for (const auto& pr : m.per_packet) {
          const std::uint64_t k = taken++;
          if (k >= n_max) {
            ++out.pkt.failed;
            continue;
          }
          out.pkt.lat_us.add(c1, static_cast<double>(c1 - due[k]) / 1e3);
          if (!egress_ok(pr, fr.out_port[tenant[k]])) ++out.pkt.failed;
          spans.close(root[k], c1);
        }
      } else if (gen_done.load(std::memory_order_acquire)) {
        if (taken >= injected.load(std::memory_order_acquire)) break;
      } else {
        std::this_thread::sleep_for(std::chrono::microseconds(50));
      }
    }
    out.pkt.packets = taken;
  });

  Targets targets(*fr.fleet, seed ^ 0xc4a2e5ULL);  // churn targets
  for (std::size_t j = 0;; ++j) {
    const std::uint64_t d = t0 + j * ctl_gap;
    if (d >= t_end) break;
    const std::size_t target = targets.next(j);
    sleep_until_ns(d);
    control_op(*fr.fleet, j, target, d, spans, out.ctl);
  }
  gen.join();
  col.join();
  out.pkt.lat_us.close(t_end, steal);
  out.ctl.lat_ms.close(t_end, steal, /*keep_partial=*/true);
  return out;
}

// Engine epoch must advance by exactly one per successful control op and
// per restore (one transaction = one epoch).
void check_epochs(std::uint64_t before, std::uint64_t after, const CtlStats& c,
                  Report& r) {
  r.check("fleet.epoch_per_txn", 1,
          after - before == c.ops - c.failed + c.restores ? 0 : 1);
}

void report_e2e(const FleetRun& fr, const PktStats& p, const CtlStats& c,
                Report& r) {
  r.metric("setup_s", fr.setup_s.median(), "s");
  r.metric("pps", p.pps(), "pkt/s");
  r.metric("pkt_latency_p50_us", p.lat_us.pct(50), "us");
  r.metric("pkt_latency_p99_us", p.lat_us.tail(), "us");
  const Samples ctl = c.lat_ms.all();
  r.metric("ctl_latency_p50_ms", ctl.median(), "ms");
  r.metric("ctl_latency_p99_ms", ctl.tail(), "ms");
  r.detail("setup_s", json_samples(fr.setup_s));
  r.detail("pkt_latency_us", json_samples(p.lat_us.all()));
  r.detail("pkt_windows", p.lat_us.windows_json());
  r.detail("ctl_latency_ms", json_samples(ctl));
  r.detail("ctl_windows", c.lat_ms.windows_json());
}

// The median control op split by layer: time waiting for its due slot,
// scenarios self time (its span minus the layers below, which are estimated
// from the probes and exact per-op counts), state, hp4 and engine; what
// they leave of ctl_latency_p50_ms is reported as unaccounted.
void report_ledger(const CtlStats& c, const ProbeTimes& p, bool durable,
                   Report& r) {
  const double ops = static_cast<double>(std::max<std::uint64_t>(c.ops, 1));
  const double churns = static_cast<double>(std::max<std::uint64_t>(c.churns, 1));
  const double total = c.lat_ms.all().median();
  const double wait = c.wait_ms.median();
  const double engine = p.sync_from_ms;  // one epoch per transaction
  const double hp4 = static_cast<double>(c.rule_ops) / churns * p.hp4_add_rule_ms;
  const double state = durable ? p.snapshot_ms + p.digest_ms : 0;
  const double scen = c.churn_ms.median() - engine - hp4 - state;
  const double unaccounted = total - wait - scen - state - hp4 - engine;
  r.metric("bench.ctl_unaccounted_ms", unaccounted, "ms");
  r.detail("ctl_ledger_ms",
           "{\"op\": \"churn_tenant\", \"ctl_latency_p50\": " + json_num(total) +
               ", \"bench.wait\": " + json_num(wait) +
               ", \"scenarios.self\": " + json_num(scen) +
               ", \"state.self\": " + json_num(state) +
               ", \"hp4.self\": " + json_num(hp4) +
               ", \"engine.self\": " + json_num(engine) +
               ", \"unaccounted\": " + json_num(unaccounted) +
               ", \"rule_ops_per_churn\": " +
               json_num(static_cast<double>(c.rule_ops) / churns) +
               ", \"ops\": " + json_num(ops) + "}");
}

// A churn-style stranger rule for tenant `t`'s first chain position.
std::function<hp4::VirtualRule(std::uint32_t)> stranger_rule_for(
    const ScenarioFleet::Tenant& t) {
  const NfKind k = t.chain.front();
  const scenarios::TenantPlan p = t.plan;
  return [k, p](std::uint32_t f) {
    const std::string ip = "192.168." + std::to_string((f >> 8) & 0xFF) + "." +
                           std::to_string(f & 0xFF);
    const auto sport = static_cast<std::uint16_t>(1000 + (f % 19000));
    const auto prio = static_cast<std::int32_t>(100 + (f % 100000));
    switch (k) {
      case NfKind::kNat:
        return scenarios::to_virtual_rule(
            scenarios::nat_snat(ip, sport, p.nat_ip, sport));
      case NfKind::kBalancer:
        return scenarios::to_virtual_rule(
            scenarios::lb_conn(ip, sport, p.backend_ip, p.backend_mac));
      case NfKind::kAcl:
        return scenarios::to_virtual_rule(
            scenarios::acl_deny_src(ip, "255.255.255.255", prio));
      case NfKind::kLimiter:
        return scenarios::to_virtual_rule(scenarios::limiter_drop(ip, prio));
      case NfKind::kTagger:
        break;
    }
    return scenarios::to_virtual_rule(
        scenarios::tagger_tag(ip, static_cast<std::uint16_t>(f)));
  };
}

ProbeTimes fleet_probes(FleetRun& fr, SpanLog& spans, Report& r) {
  const auto& t0 = fr.fleet->tenant(fr.order.front());
  ProbeInput in;
  in.ctl = &fr.fleet->controller();
  in.eng = &fr.fleet->engine();
  in.store = fr.fleet->store();
  in.vdev = t0.vdevs.front();
  in.stranger_rule = stranger_rule_for(t0);
  in.load_name = scenarios::nf_name(t0.chain.front());
  in.load_prog = scenarios::nf_program(t0.chain.front());
  in.packets = fr.flows;
  return layer_probes(in, spans, r);
}

// Per-layer metrics of layers the fleet workloads do not run.
const std::vector<std::pair<std::string, std::string>> kFabricOnly = {
    {"fabric.forwards_per_pkt", "count/pkt"}, {"fabric.acks_per_op", "count/op"},
    {"fabric.replica_lag_lsn", "count"},      {"fabric.apply_ratio", "ratio"},
    {"fabric.gap_events", "count"}};

void report_common_trace(const PktStats& base, const PktStats& traced,
                         const CtlStats& c, const SpanLog& spans, Report& r) {
  const auto times = spans.times();
  const auto span_p50 = [&](const char* n) {
    const auto it = times.find(n);
    return it == times.end() ? 0.0 : it->second.total_ms.median();
  };
  r.metric("scenarios.churn_txn_ms", span_p50("scenarios.churn_tenant"), "ms");
  r.metric("scenarios.hot_swap_ms", span_p50("scenarios.hot_swap"), "ms");
  r.metric("bench.gen_lag_p99_us", traced.gen_lag_us.tail(), "us");
  r.metric("bench.trace_overhead_pct",
           base.pps() > 0 ? 100.0 * (base.pps() - traced.pps()) / base.pps() : 0,
           "%");
  r.detail("spans", json_span_times(spans));
  r.detail("gen_lag_us", json_samples(traced.gen_lag_us));
  r.detail("traced_ctl_latency_ms", json_samples(c.lat_ms.all()));
  r.detail("pps_untraced_traced",
           "[" + json_num(base.pps()) + ", " + json_num(traced.pps()) + "]");
}

}  // namespace

void run_fleet_steady(const Args& a, Report& r) {
  FleetRun fr;
  build(fr, kSteadyTenants, a, /*durable=*/false);
  if (a.fault == "drop-flow-rule") plant_fault(fr);
  const StealMonitor steal;
  SpanLog off(false);
  steady_phase(fr, 0.5, off, nullptr, /*probe=*/false);  // warm-up

  auto& eng = fr.fleet->engine();
  if (!a.trace) {
    const std::uint64_t e0 = eng.epoch();
    const FleetPhase p = steady_phase(fr, a.seconds, off, &steal, true, a.seed);
    check_epochs(e0, eng.epoch(), p.ctl, r);
    r.check("fleet.egress", p.pkt.packets, p.pkt.failed);
    r.check("fleet.ctl_op", p.ctl.ops, p.ctl.failed);
    report_e2e(fr, p.pkt, p.ctl, r);
    report_outcome(r);
    return;
  }

  // Traced run: an untraced and a traced phase of half the run each.
  SpanLog spans(true);
  const double half = a.seconds / 2;
  const std::uint64_t eb = eng.epoch();
  const FleetPhase base = steady_phase(fr, half, off, &steal, true, a.seed);
  check_epochs(eb, eng.epoch(), base.ctl, r);
  const EngineSnap s0 = EngineSnap::take(eng);
  const FleetPhase p = steady_phase(fr, half, spans, &steal, true, a.seed);
  const EngineSnap s1 = EngineSnap::take(eng);
  check_epochs(s0.epoch, s1.epoch, p.ctl, r);
  r.check("fleet.egress", p.pkt.packets + base.pkt.packets,
          p.pkt.failed + base.pkt.failed);
  r.check("fleet.ctl_op", p.ctl.ops + base.ctl.ops,
          p.ctl.failed + base.ctl.failed);
  report_engine_layers(s0, s1, eng.workers(), s0, s1,
                       p.ctl.ops + p.ctl.restores, r);
  const ProbeTimes pt = fleet_probes(fr, spans, r);
  report_ledger(p.ctl, pt, /*durable=*/false, r);
  report_common_trace(base.pkt, p.pkt, p.ctl, spans, r);
  r.metric("state.records_per_op", 0, "count/op");
  r.metric("state.journal_bytes_per_op", 0, "B/op");
  report_absent(kFabricOnly, r);
  if (!a.trace_file.empty()) spans.write(a.trace_file);
}

void run_fleet_churn_durable(const Args& a, Report& r) {
  FleetRun fr;
  build(fr, kChurnTenants, a, /*durable=*/true);
  if (a.fault == "drop-flow-rule") plant_fault(fr);
  for (std::size_t i = 0; i < fr.fleet->tenants(); ++i)  // warm-up: state
    fr.fleet->churn_tenant(i, kChurnWindow * kDepth);
  const StealMonitor steal;
  SpanLog off(false);
  steady_phase(fr, 0.3, off, nullptr, /*probe=*/false);  // warm-up: packets

  auto& eng = fr.fleet->engine();
  if (!a.trace) {
    const std::uint64_t e0 = eng.epoch();
    const FleetPhase o = churn_phase(fr, a.seconds, a.seed, off, &steal);
    check_epochs(e0, eng.epoch(), o.ctl, r);
    r.check("fleet.egress", o.pkt.packets, o.pkt.failed);
    r.check("fleet.ctl_op", o.ctl.ops, o.ctl.failed);
    report_e2e(fr, o.pkt, o.ctl, r);
    report_outcome(r);
    r.detail("gen_lag_us", json_samples(o.pkt.gen_lag_us));
    return;
  }

  // Traced run: an untraced and a traced phase of half the run each.
  SpanLog spans(true);
  const double half = a.seconds / 2;
  const std::uint64_t eb = eng.epoch();
  const FleetPhase base = churn_phase(fr, half, a.seed, off, &steal);
  check_epochs(eb, eng.epoch(), base.ctl, r);
  auto* store = fr.fleet->store();
  const std::uint64_t lsn0 = store->last_lsn();
  const std::uint64_t bytes0 = dir_bytes(store->dir());
  const EngineSnap s0 = EngineSnap::take(eng);
  const FleetPhase o = churn_phase(fr, half, a.seed, spans, &steal);
  const EngineSnap s1 = EngineSnap::take(eng);
  const double ops = static_cast<double>(std::max<std::uint64_t>(o.ctl.ops, 1));
  check_epochs(s0.epoch, s1.epoch, o.ctl, r);
  r.check("fleet.egress", o.pkt.packets + base.pkt.packets,
          o.pkt.failed + base.pkt.failed);
  r.check("fleet.ctl_op", o.ctl.ops + base.ctl.ops, o.ctl.failed + base.ctl.failed);
  r.metric("state.records_per_op",
           static_cast<double>(store->last_lsn() - lsn0) / ops, "count/op");
  r.metric("state.journal_bytes_per_op",
           static_cast<double>(dir_bytes(store->dir()) - bytes0) / ops, "B/op");
  report_engine_layers(s0, s1, eng.workers(), s0, s1, o.ctl.ops, r);
  const ProbeTimes pt = fleet_probes(fr, spans, r);
  report_ledger(o.ctl, pt, /*durable=*/true, r);
  report_common_trace(base.pkt, o.pkt, o.ctl, spans, r);
  report_absent(kFabricOnly, r);
  if (!a.trace_file.empty()) spans.write(a.trace_file);
}

}  // namespace e2e
