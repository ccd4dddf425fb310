// Probe phase of the traced run: each layer that is reachable only through
// another is timed by a direct public call on the same state, after the
// traced phase, so the traced phase itself stays the same program.
#pragma once

#include <cstdint>
#include <functional>
#include <map>
#include <string>
#include <vector>

#include "common.h"
#include "engine/engine.h"
#include "hp4/controller.h"
#include "p4/ir.h"
#include "state/store.h"

namespace e2e {

struct ProbeInput {
  hp4::Controller* ctl = nullptr;
  // The engine mirroring `ctl`; nullptr builds a two-worker probe engine
  // from the same persona program.
  engine::TrafficEngine* eng = nullptr;
  // The durable store over `ctl`; nullptr skips the state.add_rule probe.
  state::DurableController* store = nullptr;
  hp4::VdevId vdev = 0;
  // A rule for `vdev` that matches none of the workload's traffic; the
  // argument makes it unique.
  std::function<hp4::VirtualRule(std::uint32_t)> stranger_rule;
  std::string load_name;
  p4::Program load_prog;
  // The workload's packets, by ingress port, for the bm.inject probe.
  std::vector<engine::InjectItem> packets;
};

// Per-call times in milliseconds (medians), plus the persona entry count.
struct ProbeTimes {
  double bm_inject_ns = 0;
  double sync_from_ms = 0;
  double digest_ms = 0;
  double snapshot_ms = 0;
  double state_add_rule_ms = 0;
  double hp4_add_rule_ms = 0;
  double hp4_load_ms = 0;
  std::uint64_t persona_entries = 0;
};

// Runs every probe, records a "probe.*" span per call and reports the
// bm.*, engine.sync_from_ms, state.* and hp4.* probe metrics.
ProbeTimes layer_probes(const ProbeInput& in, SpanLog& spans, Report& r);

// Engine counters read before and after a phase.
struct EngineSnap {
  std::map<std::string, std::uint64_t> counters;
  std::map<std::string, std::uint64_t> diag;
  double busy_s = 0;
  std::uint64_t epoch = 0;
  std::uint64_t t_ns = 0;
  static EngineSnap take(const engine::TrafficEngine& eng);
};

// engine.* packet metrics, bm.recirculations_per_pkt and vm.* from two
// snapshots around a traced phase; `ctl_ops` control ops ran in the
// window `ctl_a`..`ctl_b` (vm.recompiles_per_ctl_op,
// engine.epochs_per_ctl_op).
void report_engine_layers(const EngineSnap& a, const EngineSnap& b,
                          std::size_t workers, const EngineSnap& ctl_a,
                          const EngineSnap& ctl_b, std::uint64_t ctl_ops,
                          Report& r);

// Zero-valued metrics for layers a workload does not run, so every run
// reports every named metric.
void report_absent(const std::vector<std::pair<std::string, std::string>>&
                       names_units,
                   Report& r);

}  // namespace e2e
