// The fabric_replicated workload: a FabricController over a three-node
// line running l2_sw, a closed-loop packet thread and an open-loop
// replicated control thread. See ../README.md.
#include <algorithm>
#include <atomic>
#include <deque>
#include <filesystem>
#include <iostream>
#include <memory>
#include <random>
#include <thread>
#include <unordered_map>

#include "apps/apps.h"
#include "bm/switch.h"
#include "common.h"
#include "fabric/fabric.h"
#include "fabric/topology.h"
#include "hp4/p4_emit.h"
#include "net/headers.h"
#include "probes.h"

namespace e2e {

namespace {

namespace fs = std::filesystem;

constexpr std::size_t kNodes = 3;
constexpr std::size_t kQuorum = 2;
constexpr std::size_t kWave = 256;
constexpr std::size_t kTemplates = 8;  // distinct seeded waves, cycled
constexpr std::size_t kPreload = 512;
constexpr double kCtlPerSecond = 20;
constexpr const char* kMacH1 = "02:00:00:00:00:01";
constexpr const char* kMacH2 = "02:00:00:00:00:02";
constexpr const char* kMacRelay = "02:00:00:00:00:aa";

void sleep_until_ns(std::uint64_t t) {
  std::this_thread::sleep_until(
      Clock::time_point(std::chrono::nanoseconds(t)));
}

hp4::VirtualRule vr(const apps::Rule& r) {
  return hp4::VirtualRule{r.table, r.action, r.keys, r.args, r.priority};
}

// A MAC no packet of the workload carries: 02:<tag>:<32-bit counter>.
std::string mac(std::uint8_t tag, std::uint32_t n) {
  char buf[32];
  std::snprintf(buf, sizeof buf, "02:%02x:%02x:%02x:%02x:%02x", tag,
                (n >> 24) & 0xFF, (n >> 16) & 0xFF, (n >> 8) & 0xFF, n & 0xFF);
  return buf;
}

net::Packet frame(const char* dst_mac, std::size_t payload) {
  net::EthHeader eth;
  eth.src = net::mac_from_string(kMacH1);
  eth.dst = net::mac_from_string(dst_mac);
  net::Ipv4Header ip;
  ip.src = net::ipv4_from_string("10.0.0.1");
  ip.dst = net::ipv4_from_string("10.0.0.2");
  net::TcpHeader tcp;
  tcp.src_port = 40000;
  return net::make_ipv4_tcp(eth, ip, tcp, payload);
}

struct FabricRun {
  std::unique_ptr<fabric::FabricController> ctl;
  hp4::VdevId vdev = 0;
  std::uint64_t h2_rule = 0;
  std::string dir;
  Samples setup_s;
};

// The fabric under `dir`: l2_sw on ports 1, 2, 100 and 101, host and relay
// rules, then kPreload extra entries committed in one transaction.
void make_fabric(FabricRun& fr, const std::string& dir) {
  fs::remove_all(dir);
  fabric::FabricOptions fo;
  fo.store_dir = dir;
  fo.topology = fabric::FabricTopology::line(kNodes);
  fo.quorum = kQuorum;
  fr.ctl = std::make_unique<fabric::FabricController>(fo);
  auto& c = *fr.ctl;
  fr.vdev =
      c.load_source("l2_sw", hp4::emit_p4(apps::program_by_name("l2_sw")));
  const std::vector<std::uint16_t> ports{1, 2, fabric::kTrunkBase,
                                         fabric::kTrunkBase + 1};
  c.attach_ports(fr.vdev, ports);
  for (const auto p : ports) c.bind(fr.vdev, p);
  c.add_rule(fr.vdev, vr(apps::l2_forward(kMacH1, 1)));
  fr.h2_rule = c.add_rule(fr.vdev, vr(apps::l2_forward(kMacH2, 2)));
  c.add_rule(fr.vdev, vr(apps::l2_forward(kMacRelay, fabric::kTrunkBase + 1)));
  c.txn_begin();
  for (std::uint32_t i = 0; i < kPreload; ++i)
    c.add_rule(fr.vdev, vr(apps::l2_forward(mac(0xdd, i), 2)));
  c.txn_commit();
}

// Times the set-ups (time_setups; untraced runs only), then builds the
// fabric the run measures.
void build(FabricRun& fr, const Args& a) {
  if (!a.trace) {
    fr.setup_s = time_setups([&](int k) {
      FabricRun tmp;
      const std::string dir = a.work_dir + "/setup" + std::to_string(k);
      const std::uint64_t t0 = now_ns();
      make_fabric(tmp, dir);
      const double s = static_cast<double>(now_ns() - t0) / 1e9;
      tmp.ctl.reset();
      fs::remove_all(dir);
      return s;
    });
  }
  fr.dir = a.work_dir + "/fabric";
  make_fabric(fr, fr.dir);
}

// One packet of a wave: host-local (h<i>a → h<i>b) or relayed from node 0
// down the trunk to the last node's unwired port.
struct Item {
  std::string host;
  std::string expect;  // delivery host; empty for relayed packets
  net::Packet packet;
};

// kTemplates seeded waves; payloads alternate 64 B and 1400 B. Half the
// packets of each size go host-local and half are relayed, at seeded
// positions; the local ones are spread evenly over the nodes in seeded
// order. Every wave thus carries the same mix, whatever the seed.
std::vector<std::vector<Item>> make_waves(std::uint64_t seed) {
  std::mt19937_64 rng(seed ^ 0xfab41cULL);
  std::vector<std::vector<Item>> waves(kTemplates);
  for (auto& w : waves) {
    // node + 1 for a local packet, 0 for a relayed one, per position.
    std::vector<std::size_t> dest(kWave, 0);
    std::vector<std::size_t> local;
    for (std::size_t parity = 0; parity < 2; ++parity) {
      std::vector<std::size_t> pos;
      for (std::size_t k = parity; k < kWave; k += 2) pos.push_back(k);
      std::shuffle(pos.begin(), pos.end(), rng);
      local.insert(local.end(), pos.begin(), pos.begin() + pos.size() / 2);
    }
    std::shuffle(local.begin(), local.end(), rng);
    for (std::size_t i = 0; i < local.size(); ++i)
      dest[local[i]] = 1 + i % kNodes;
    for (std::size_t k = 0; k < kWave; ++k) {
      const std::size_t payload = k % 2 ? 1400 : 64;
      if (dest[k]) {
        const std::string n = std::to_string(dest[k] - 1);
        w.push_back({"h" + n + "a", "h" + n + "b", frame(kMacH2, payload)});
      } else {
        w.push_back({"h0a", "", frame(kMacRelay, payload)});
      }
    }
  }
  return waves;
}

struct NodeSnap {
  std::vector<std::map<std::string, std::uint64_t>> c;
  static NodeSnap take(fabric::FabricController& ctl) {
    NodeSnap s;
    for (std::size_t i = 0; i < ctl.nodes(); ++i)
      s.c.push_back(ctl.node(i).counters());
    return s;
  }
  std::uint64_t get(std::size_t node, const std::string& k) const {
    const auto it = c[node].find(k);
    return it == c[node].end() ? 0 : it->second;
  }
  std::uint64_t delta(const NodeSnap& before, std::size_t node,
                      const std::string& k) const {
    return get(node, k) - before.get(node, k);
  }
  std::uint64_t sum_delta(const NodeSnap& before, const std::string& k) const {
    std::uint64_t n = 0;
    for (std::size_t i = 0; i < c.size(); ++i) n += delta(before, i, k);
    return n;
  }
};

struct Phase {
  explicit Phase(std::uint64_t t0)
      : lat_us(t0, kWindowS), done(t0, kWindowS), ctl_ms(t0, kWindowS) {}
  Windowed lat_us;  // local packets, by delivery time
  Windowed done;    // wave sizes, by the wave's completion time
  Windowed ctl_ms;  // by completion time
  Samples ctl_wait_us, lag_lsn;
  std::uint64_t packets = 0, local = 0, relayed = 0, local_failed = 0;
  std::uint64_t ops = 0, ops_failed = 0;
  double pps() const { return done.rate(/*sum=*/true); }
};

// The replicated control schedule: alternating add_rule / delete_rule of
// stranger MACs, every 10th op a 4-rule transaction.
class ControlSchedule {
 public:
  ControlSchedule(fabric::FabricController& ctl, hp4::VdevId vdev)
      : ctl_(ctl), vdev_(vdev) {}

  const char* run(std::size_t j) {
    if (j % 10 == 9) {
      ctl_.txn_begin();
      try {
        add();
        del();
        del();
        add();
        ctl_.txn_commit();
      } catch (...) {
        ctl_.txn_abort();
        throw;
      }
      return "fabric.txn";
    }
    if (j % 2 == 0 || live_.empty()) {
      add();
      return "fabric.add_rule";
    }
    del();
    return "fabric.delete_rule";
  }

 private:
  void add() {
    live_.push_back(ctl_.add_rule(vdev_, vr(apps::l2_forward(mac(0xee, next_++), 2))));
  }
  void del() {
    if (live_.empty()) return add();
    ctl_.delete_rule(vdev_, live_.front());
    live_.pop_front();
  }
  fabric::FabricController& ctl_;
  hp4::VdevId vdev_;
  std::deque<std::uint64_t> live_;
  std::uint32_t next_ = 0;
};

std::uint64_t min_acked(fabric::FabricController& ctl) {
  std::uint64_t m = ~0ull;
  for (std::size_t i = 0; i < ctl.nodes(); ++i)
    m = std::min(m, ctl.node_acked_lsn(i));
  return m;
}

// One phase: a packet thread sends closed-loop waves while this thread runs
// the open-loop control schedule.
Phase run_phase(FabricRun& fr, ControlSchedule& sched, std::size_t& ctl_j,
                const std::vector<std::vector<Item>>& waves, double seconds,
                SpanLog& spans, const StealMonitor* steal) {
  auto& ctl = *fr.ctl;
  const std::uint64_t t0 = now_ns() + 2'000'000;
  const auto t_end = t0 + static_cast<std::uint64_t>(seconds * 1e9);
  Phase ph(t0);

  std::thread pkt([&] {
    sleep_until_ns(t0);
    std::unordered_map<std::uint64_t, std::pair<std::uint64_t, std::size_t>> sent;
    for (std::uint64_t w = 0; now_ns() < t_end; ++w) {
      const auto& wave = waves[w % waves.size()];
      const std::uint64_t ws = now_ns();
      const std::uint32_t root = spans.open("fabric.wave", ws, 0, w + 1);
      sent.clear();
      std::size_t local = 0;
      for (std::size_t k = 0; k < wave.size(); ++k) {
        const std::uint64_t ti = now_ns();
        const std::uint64_t seq = ctl.inject(wave[k].host, wave[k].packet);
        if (!wave[k].expect.empty()) {
          sent[seq] = {ti, k};
          ++local;
        }
      }
      spans.add("fabric.inject", ws, now_ns(), root, w + 1);
      // Poll deliveries until every local packet arrived; when none arrive
      // for 200 ms, drain and count what is missing.
      std::size_t got = 0;
      std::uint64_t last_progress = now_ns();
      const auto take = [&] {
        const auto ds = ctl.take_deliveries();
        const std::uint64_t tn = now_ns();
        for (const auto& d : ds) {
          const auto it = sent.find(d.seq);
          if (it == sent.end() || wave[it->second.second].expect != d.host) {
            ++ph.local_failed;  // unexpected or misrouted delivery
            continue;
          }
          ph.lat_us.add(tn, static_cast<double>(tn - it->second.first) / 1e3);
          sent.erase(it);
          ++got;
        }
        if (!ds.empty()) last_progress = tn;
        return ds.size();
      };
      const std::uint64_t p0 = now_ns();
      while (got < local && now_ns() - last_progress < 200'000'000)
        if (!take()) std::this_thread::sleep_for(std::chrono::microseconds(100));
      spans.add("fabric.take_deliveries", p0, now_ns(), root, w + 1);
      const std::uint64_t d0 = now_ns();
      ctl.drain();
      take();
      const std::uint64_t d1 = now_ns();
      spans.add("fabric.drain", d0, d1, root, w + 1);
      spans.close(root, d1);
      ph.local_failed += local - std::min(local, got);
      ph.local += local;
      ph.relayed += wave.size() - local;
      ph.packets += wave.size();
      ph.done.add(d1, static_cast<double>(wave.size()));
      const std::uint64_t lead = ctl.committed_lsn(), low = min_acked(ctl);
      ph.lag_lsn.add(static_cast<double>(lead > low ? lead - low : 0));
    }
  });

  for (;; ++ctl_j) {
    const std::uint64_t d = t0 + ph.ops * static_cast<std::uint64_t>(1e9 / kCtlPerSecond);
    if (d >= t_end) break;
    sleep_until_ns(d);
    const std::uint64_t c0 = now_ns();
    const std::uint32_t root = spans.open("ctl.op", d, 0, ctl_j + 1);
    const char* what = "fabric.ctl";
    try {
      what = sched.run(ctl_j);
    } catch (const std::exception& e) {
      std::cerr << "hp4_e2e: control op " << ctl_j << " failed: " << e.what() << "\n";
      ++ph.ops_failed;
    }
    const std::uint64_t c1 = now_ns();
    spans.add(what, c0, c1, root, ctl_j + 1);
    spans.close(root, c1);
    ++ph.ops;
    ph.ctl_ms.add(c1, static_cast<double>(c1 - d) / 1e6);
    ph.ctl_wait_us.add(static_cast<double>(c0 - d) / 1e3);
  }
  pkt.join();
  ph.lat_us.close(t_end, steal);
  ph.done.close(t_end, steal);
  ph.ctl_ms.close(t_end, steal, /*keep_partial=*/true);
  return ph;
}

// Output checks: local deliveries, relay counters, and at the end every
// node's acked LSN and digest equal to the leader's.
void check_phase(const Phase& ph, const NodeSnap& a, const NodeSnap& b,
                 Report& r) {
  r.check("fabric.local_delivery", ph.local, ph.local_failed);
  r.check("fabric.ctl_op", ph.ops, ph.ops_failed);
  const std::uint64_t R = ph.relayed;
  const auto off = [&](std::uint64_t got, std::uint64_t want) {
    return got > want ? got - want : want - got;
  };
  std::uint64_t bad = 0;
  for (std::size_t i = 0; i < kNodes; ++i) {
    const bool last = i + 1 == kNodes;
    bad = std::max(bad, off(b.delta(a, i, "forwards"), last ? 0 : R));
    bad = std::max(bad, off(b.delta(a, i, "drops_unwired"), last ? R : 0));
  }
  r.check("fabric.relay_counters", R, std::min(bad, R));
}

void check_converged(fabric::FabricController& ctl, Report& r) {
  const std::uint64_t want_lsn = ctl.leader().last_lsn();
  const auto deadline = now_ns() + 10'000'000'000ull;
  while (min_acked(ctl) < want_lsn && now_ns() < deadline)
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
  const std::uint64_t want = ctl.leader_digest();
  std::uint64_t bad = 0;
  for (std::size_t i = 0; i < ctl.nodes(); ++i)
    if (ctl.node_acked_lsn(i) != want_lsn || ctl.node_acked_digest(i) != want)
      ++bad;
  r.check("fabric.converged", ctl.nodes(), bad);
}

// Per-layer metrics of layers this workload does not run: fabric nodes run
// in direct mode (no engine, no VM) and there is no scenario fleet.
const std::vector<std::pair<std::string, std::string>> kFleetOnly = {
    {"engine.busy_ns_per_pkt", "ns"},
    {"engine.worker_util", "ratio"},
    {"engine.consumer_waits_per_kpkt", "count/kpkt"},
    {"engine.arena_fresh_allocs", "count"},
    {"engine.merge_stall_ms", "ms"},
    {"engine.drain_wait_ms", "ms"},
    {"engine.epochs_per_ctl_op", "count/op"},
    {"engine.backpressure_waits", "count"},
    {"vm.fast_path_ratio", "ratio"},
    {"vm.fallbacks", "count"},
    {"vm.recompiles_per_ctl_op", "count/op"},
    {"scenarios.churn_txn_ms", "ms"},
    {"scenarios.hot_swap_ms", "ms"},
    {"bench.ctl_unaccounted_ms", "ms"}};

}  // namespace

void run_fabric_replicated(const Args& a, Report& r) {
  FabricRun fr;
  build(fr, a);
  auto& ctl = *fr.ctl;
  if (a.fault == "drop-flow-rule") ctl.delete_rule(fr.vdev, fr.h2_rule);
  const auto waves = make_waves(a.seed);
  ControlSchedule sched(ctl, fr.vdev);
  std::size_t ctl_j = 0;
  const StealMonitor steal;
  SpanLog off(false);

  // Warm-up: one wave of each template, no control ops.
  for (const auto& w : waves)
    for (const auto& it : w) ctl.inject(it.host, it.packet);
  ctl.drain();
  ctl.take_deliveries();

  if (!a.trace) {
    const NodeSnap n0 = NodeSnap::take(ctl);
    const Phase ph = run_phase(fr, sched, ctl_j, waves, a.seconds, off, &steal);
    ctl.drain();
    check_phase(ph, n0, NodeSnap::take(ctl), r);
    check_converged(ctl, r);
    r.metric("setup_s", fr.setup_s.median(), "s");
    r.metric("pps", ph.pps(), "pkt/s");
    r.metric("pkt_latency_p50_us", ph.lat_us.pct(50), "us");
    r.metric("pkt_latency_p99_us", ph.lat_us.tail(), "us");
    const Samples ctl_ms = ph.ctl_ms.all();
    r.metric("ctl_latency_p50_ms", ctl_ms.median(), "ms");
    r.metric("ctl_latency_p99_ms", ctl_ms.tail(), "ms");
    report_outcome(r);
    r.detail("setup_s", json_samples(fr.setup_s));
    r.detail("pkt_latency_us", json_samples(ph.lat_us.all()));
    r.detail("pps_windows", ph.done.windows_json(/*sum=*/true));
    r.detail("ctl_windows", ph.ctl_ms.windows_json());
    r.detail("ctl_latency_ms", json_samples(ctl_ms));
    r.detail("gen_lag_us", json_samples(ph.ctl_wait_us));
    return;
  }

  // Traced run: an untraced and a traced phase of half the run each.
  SpanLog spans(true);
  const double half = a.seconds / 2;
  NodeSnap n0 = NodeSnap::take(ctl);
  const Phase base = run_phase(fr, sched, ctl_j, waves, half, off, &steal);
  ctl.drain();
  NodeSnap n1 = NodeSnap::take(ctl);
  check_phase(base, n0, n1, r);
  const std::string leader_dir = fr.dir + "/leader";
  const std::uint64_t lsn0 = ctl.leader().last_lsn();
  const std::uint64_t bytes0 = dir_bytes(leader_dir);
  const Phase ph = run_phase(fr, sched, ctl_j, waves, half, spans, &steal);
  ctl.drain();
  const NodeSnap n2 = NodeSnap::take(ctl);
  check_phase(ph, n1, n2, r);
  check_converged(ctl, r);

  const double ops = static_cast<double>(std::max<std::uint64_t>(ph.ops, 1));
  const double pk = static_cast<double>(std::max<std::uint64_t>(ph.packets, 1));
  const double applied = static_cast<double>(n2.sum_delta(n1, "applied_records"));
  const double dups = static_cast<double>(n2.sum_delta(n1, "duplicate_records"));
  r.metric("fabric.forwards_per_pkt",
           static_cast<double>(n2.sum_delta(n1, "forwards")) / pk, "count/pkt");
  r.metric("fabric.acks_per_op",
           static_cast<double>(n2.sum_delta(n1, "acks")) / ops, "count/op");
  r.metric("fabric.replica_lag_lsn", ph.lag_lsn.mean(), "count");
  r.metric("fabric.apply_ratio",
           applied + dups > 0 ? applied / (applied + dups) : 1, "ratio");
  r.metric("fabric.gap_events",
           static_cast<double>(n2.sum_delta(n1, "gap_events")), "count");
  r.metric("state.records_per_op",
           static_cast<double>(ctl.leader().last_lsn() - lsn0) / ops, "count/op");
  r.metric("state.journal_bytes_per_op",
           static_cast<double>(dir_bytes(leader_dir) - bytes0) / ops, "B/op");
  r.metric("bench.gen_lag_p99_us", ph.ctl_wait_us.tail(), "us");
  r.metric("bench.trace_overhead_pct",
           base.pps() > 0 ? 100.0 * (base.pps() - ph.pps()) / base.pps() : 0,
           "%");

  // Probe phase on the leader's state (quiescent): bm, engine, state, hp4.
  auto& leader = ctl.leader();
  std::vector<engine::InjectItem> pkts;
  for (const auto& it : waves.front()) pkts.push_back({1, it.packet});
  {
    bm::Switch sw(leader.controller().dataplane().program());
    sw.sync_state_from(leader.controller().dataplane());
    std::uint64_t recirc = 0;
    for (const auto& it : pkts) recirc += sw.inject(it.port, it.packet).recirculations;
    r.metric("bm.recirculations_per_pkt",
             static_cast<double>(recirc) / static_cast<double>(pkts.size()),
             "count/pkt");
  }
  ProbeInput in;
  in.ctl = &leader.controller();
  in.store = &leader;
  in.vdev = fr.vdev;
  in.stranger_rule = [](std::uint32_t f) {
    return vr(apps::l2_forward(mac(0xcc, f), 2));
  };
  in.load_name = "l2_sw";
  in.load_prog = apps::program_by_name("l2_sw");
  in.packets = pkts;
  layer_probes(in, spans, r);
  report_absent(kFleetOnly, r);

  r.detail("spans", json_span_times(spans));
  r.detail("traced_ctl_latency_ms", json_samples(ph.ctl_ms.all()));
  r.detail("pps_untraced_traced",
           "[" + json_num(base.pps()) + ", " + json_num(ph.pps()) + "]");
  if (!a.trace_file.empty()) spans.write(a.trace_file);
}

}  // namespace e2e
