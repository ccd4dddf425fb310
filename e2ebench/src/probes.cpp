#include "probes.h"

#include <memory>

#include "bm/switch.h"
#include "state/checkpoint.h"
#include "state/digest.h"

namespace e2e {

namespace {

// Median wall milliseconds of `reps` calls of fn(k), each recorded as a
// span named `span`.
template <typename Fn>
double median_ms(SpanLog& spans, const char* span, int reps, Fn&& fn) {
  Samples s;
  for (int k = 0; k < reps; ++k) {
    const std::uint64_t t0 = now_ns();
    fn(k);
    const std::uint64_t t1 = now_ns();
    spans.add(span, t0, t1);
    s.add(static_cast<double>(t1 - t0) / 1e6);
  }
  return s.median();
}

std::uint64_t delta(const std::map<std::string, std::uint64_t>& a,
                    const std::map<std::string, std::uint64_t>& b,
                    const std::string& k) {
  const auto ia = a.find(k), ib = b.find(k);
  const std::uint64_t va = ia == a.end() ? 0 : ia->second;
  const std::uint64_t vb = ib == b.end() ? 0 : ib->second;
  return vb >= va ? vb - va : 0;
}

double ratio(double num, double den) { return den > 0 ? num / den : 0; }

}  // namespace

ProbeTimes layer_probes(const ProbeInput& in, SpanLog& spans, Report& r) {
  ProbeTimes t;
  hp4::Controller& ctl = *in.ctl;

  // bm: Switch::inject of the workload's packets on a standalone switch
  // mirrored from the controller's dataplane.
  {
    bm::Switch sw(ctl.dataplane().program());
    sw.sync_state_from(ctl.dataplane());
    for (const auto& it : in.packets) sw.inject(it.port, it.packet);
    Samples per_pkt;
    for (int rep = 0; rep < 5; ++rep) {
      const std::uint64_t t0 = now_ns();
      std::size_t n = 0;
      while (n < 256) {
        for (const auto& it : in.packets) sw.inject(it.port, it.packet);
        n += in.packets.size();
      }
      const std::uint64_t t1 = now_ns();
      spans.add("probe.bm.inject", t0, t1);
      per_pkt.add(static_cast<double>(t1 - t0) / static_cast<double>(n));
    }
    t.bm_inject_ns = per_pkt.median();
  }

  // engine: a full replica mirror, the cost every control op pays today.
  {
    std::unique_ptr<engine::TrafficEngine> own;
    engine::TrafficEngine* eng = in.eng;
    if (!eng) {
      engine::EngineOptions eo;
      eo.workers = 2;
      own = std::make_unique<engine::TrafficEngine>(ctl.dataplane().program(),
                                                    eo);
      eng = own.get();
      eng->sync_from(ctl.dataplane());
    }
    t.sync_from_ms = median_ms(spans, "probe.engine.sync_from", 5,
                               [&](int) { eng->sync_from(ctl.dataplane()); });
  }

  // state: whole-state digest and the transaction snapshot image.
  {
    t.digest_ms = median_ms(spans, "probe.state.digest", 5, [&](int) {
      (void)state::state_digest(ctl);
    });
    const std::map<hp4::VdevId, std::string> none;
    const auto& sources = in.store ? in.store->vdev_sources() : none;
    const std::uint64_t lsn = in.store ? in.store->last_lsn() : 0;
    t.snapshot_ms = median_ms(spans, "probe.state.snapshot", 3, [&](int) {
      (void)state::serialize_state(ctl, sources, lsn);
    });
  }
  std::uint32_t uniq = 0x40000000u;
  if (in.store) {
    // DurableController::add_rule: journal, digest, apply and engine sync.
    // Only the add is timed; the delete restores the table.
    Samples add_only;
    for (int k = 0; k < 5; ++k) {
      const std::uint64_t t0 = now_ns();
      const std::uint64_t vh =
          in.store->add_rule(in.vdev, in.stranger_rule(++uniq));
      const std::uint64_t t1 = now_ns();
      spans.add("probe.state.add_rule", t0, t1);
      add_only.add(static_cast<double>(t1 - t0) / 1e6);
      in.store->delete_rule(in.vdev, vh);
    }
    t.state_add_rule_ms = add_only.median();
  }

  // hp4: Controller::add_rule and load with engine refresh suspended, so
  // only the DPMU and persona work is timed. These bypass any durable
  // store, so they run last.
  ctl.suspend_engine_refresh();
  {
    Samples add_ms;
    for (int k = 0; k < 50; ++k) {
      const std::uint64_t t0 = now_ns();
      const std::uint64_t vh = ctl.add_rule(in.vdev, in.stranger_rule(++uniq));
      const std::uint64_t t1 = now_ns();
      spans.add("probe.hp4.add_rule", t0, t1);
      add_ms.add(static_cast<double>(t1 - t0) / 1e6);
      ctl.delete_rule(in.vdev, vh);
    }
    t.hp4_add_rule_ms = add_ms.median();
    Samples load_ms;
    for (int k = 0; k < 3; ++k) {
      const std::uint64_t t0 = now_ns();
      const hp4::VdevId id =
          ctl.load(in.load_name + "_probe" + std::to_string(k), in.load_prog);
      const std::uint64_t t1 = now_ns();
      spans.add("probe.hp4.load", t0, t1);
      load_ms.add(static_cast<double>(t1 - t0) / 1e6);
      ctl.unload(id);
    }
    t.hp4_load_ms = load_ms.median();
  }
  ctl.resume_engine_refresh();

  for (const auto& name : ctl.dataplane().table_names())
    t.persona_entries += ctl.dataplane().table(name).size();

  r.metric("bm.inject_ns", t.bm_inject_ns, "ns");
  r.metric("engine.sync_from_ms", t.sync_from_ms, "ms");
  r.metric("state.digest_ms", t.digest_ms, "ms");
  r.metric("state.snapshot_ms", t.snapshot_ms, "ms");
  r.metric("state.add_rule_ms", t.state_add_rule_ms, "ms");
  r.metric("hp4.add_rule_us", t.hp4_add_rule_ms * 1e3, "us");
  r.metric("hp4.load_ms", t.hp4_load_ms, "ms");
  r.metric("hp4.persona_entries", static_cast<double>(t.persona_entries),
           "count");
  return t;
}

EngineSnap EngineSnap::take(const engine::TrafficEngine& eng) {
  EngineSnap s;
  s.counters = eng.metrics().snapshot().counters;
  s.diag = eng.packet_path_diagnostics();
  for (std::size_t i = 0; i < eng.workers(); ++i) s.busy_s += eng.busy_seconds(i);
  s.epoch = eng.epoch();
  s.t_ns = now_ns();
  return s;
}

void report_engine_layers(const EngineSnap& a, const EngineSnap& b,
                          std::size_t workers, const EngineSnap& ctl_a,
                          const EngineSnap& ctl_b, std::uint64_t ctl_ops,
                          Report& r) {
  const double pk = static_cast<double>(delta(a.counters, b.counters, "packets"));
  const double busy = b.busy_s - a.busy_s;
  const double wall = static_cast<double>(b.t_ns - a.t_ns) / 1e9;
  r.metric("bm.recirculations_per_pkt",
           ratio(static_cast<double>(delta(a.counters, b.counters, "recirculates")), pk),
           "count/pkt");
  r.metric("engine.busy_ns_per_pkt", ratio(busy * 1e9, pk), "ns");
  r.metric("engine.worker_util",
           ratio(busy, static_cast<double>(workers) * wall), "ratio");
  r.metric("engine.consumer_waits_per_kpkt",
           ratio(1e3 * static_cast<double>(
                           delta(a.counters, b.counters, "consumer_waits")),
                 pk),
           "count/kpkt");
  r.metric("engine.arena_fresh_allocs",
           static_cast<double>(delta(a.counters, b.counters, "arena_fresh_allocs")),
           "count");
  r.metric("engine.merge_stall_ms",
           static_cast<double>(delta(a.counters, b.counters, "merge_stall_ns")) / 1e6,
           "ms");
  r.metric("engine.drain_wait_ms",
           static_cast<double>(delta(a.counters, b.counters, "drain_wait_ns")) / 1e6,
           "ms");
  r.metric("engine.backpressure_waits",
           static_cast<double>(delta(a.counters, b.counters, "backpressure_waits")),
           "count");
  const double ops = static_cast<double>(ctl_ops);
  r.metric("engine.epochs_per_ctl_op",
           ratio(static_cast<double>(ctl_b.epoch - ctl_a.epoch), ops), "count/op");
  r.metric("vm.fast_path_ratio",
           ratio(static_cast<double>(delta(a.diag, b.diag, "packets_bytecode")), pk),
           "ratio");
  r.metric("vm.fallbacks",
           static_cast<double>(delta(a.diag, b.diag, "packets_fallback")), "count");
  r.metric("vm.recompiles_per_ctl_op",
           ratio(static_cast<double>(delta(ctl_a.diag, ctl_b.diag, "recompiles")), ops),
           "count/op");
}

void report_absent(
    const std::vector<std::pair<std::string, std::string>>& names_units,
    Report& r) {
  for (const auto& [name, unit] : names_units)
    if (!r.has_metric(name)) r.metric(name, 0, unit);
}

}  // namespace e2e
