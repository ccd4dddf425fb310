// Shared harness for the repository benchmark: run arguments, timing
// samples, the in-memory span log of the traced run, and the report that
// becomes the benchmark's JSON output.
#pragma once

#include <algorithm>
#include <chrono>
#include <cmath>
#include <condition_variable>
#include <cstdint>
#include <functional>
#include <map>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

namespace hyper4 {}

namespace e2e {

using namespace hyper4;  // the library under test
using Clock = std::chrono::steady_clock;

inline std::uint64_t now_ns() {
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          Clock::now().time_since_epoch())
          .count());
}

struct Args {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  // "none" | "drop-flow-rule": delete a flow rule through the public API
  // after set-up (fleet: one tenant's last-position flow rules; fabric: the
  // h<i>b forwarding rule), so the output checks must report failures.
  std::string fault = "none";
  std::string work_dir;    // durable stores live here (removed at exit)
  std::string trace_file;  // traced run: spans are written here at exit
  std::string commit = "unknown";
};

// A set of timing samples (any unit).
class Samples {
 public:
  void add(double v) { v_.push_back(v); }
  std::size_t n() const { return v_.size(); }
  bool empty() const { return v_.empty(); }
  // Nearest-rank percentile, q in [0, 100].
  double pct(double q) const {
    if (v_.empty()) return 0;
    std::vector<double> s = v_;
    std::sort(s.begin(), s.end());
    const double rank = std::ceil(q / 100.0 * static_cast<double>(s.size()));
    const std::size_t i = rank < 1 ? 0 : static_cast<std::size_t>(rank) - 1;
    return s[std::min(i, s.size() - 1)];
  }
  double median() const { return pct(50); }
  void add_all(const Samples& o) { v_.insert(v_.end(), o.v_.begin(), o.v_.end()); }
  double sum() const {
    double t = 0;
    for (double x : v_) t += x;
    return t;
  }
  double mean() const {
    return v_.empty() ? 0 : sum() / static_cast<double>(v_.size());
  }
  // The highest percentile (capped at 99) with at least ten samples beyond
  // it; the median when there are fewer than twenty samples.
  double tail_q() const {
    const double n = static_cast<double>(v_.size());
    if (n < 20) return 50;
    return std::min(99.0, std::floor(100.0 * (1.0 - 10.0 / n)));
  }
  double tail() const { return pct(tail_q()); }

 private:
  std::vector<double> v_;
};

// Window length for per-window medians: long enough that the slowest open
// loop (1,000 pps) has 20 samples beyond each window's p99.
inline constexpr double kWindowS = 2.0;
// A window in which the hypervisor took more than this share of the VM's
// CPU time (steal) is dropped from the run's figures.
inline constexpr double kMaxStealShare = 0.01;

// Samples the steal share of all CPUs (/proc/stat) every 50 ms on its own
// thread while alive, so the windows of a phase in which the host took CPU
// time from this VM can be told apart. Start it after any fork.
class StealMonitor {
 public:
  StealMonitor();
  ~StealMonitor();
  StealMonitor(const StealMonitor&) = delete;
  StealMonitor& operator=(const StealMonitor&) = delete;

  // Steal share of CPU time over [a_ns, b_ns), from the samples around it.
  double share(std::uint64_t a_ns, std::uint64_t b_ns) const;

 private:
  struct Sample {
    std::uint64_t t_ns = 0, steal = 0, total = 0;
  };
  void sample();

  mutable std::mutex mu_;
  std::vector<Sample> samples_;  // guarded by mu_
  std::condition_variable cv_;
  bool stop_ = false;  // guarded by mu_
  std::thread th_;
};

// Samples of one phase bucketed into fixed windows by completion time.
// Rates and percentiles are medians over windows, so a short stall of the
// host moves one window, not the run's figure; windows the hypervisor
// disturbed (steal above kMaxStealShare) are left out. When fewer than a
// third of the windows are undisturbed, the third with the least steal is
// kept instead.
class Windowed {
 public:
  Windowed(std::uint64_t t0_ns, double window_s)
      : t0_(t0_ns), win_ns_(static_cast<std::uint64_t>(window_s * 1e9)) {}
  void add(std::uint64_t t_ns, double v) {
    const std::size_t w = slot(t_ns);
    grow(w);
    win_[w].add(v);
  }
  // Takes [a_ns, b_ns) out of the windows' length for rate(): time in which
  // the phase deliberately offered no work of this kind.
  void exclude(std::uint64_t a_ns, std::uint64_t b_ns) {
    for (std::size_t w = slot(a_ns); a_ns < b_ns; ++w) {
      const std::uint64_t w_end = t0_ + (w + 1) * win_ns_;
      const std::uint64_t e = std::min(b_ns, w_end);
      grow(w);
      excl_[w] += e - a_ns;
      a_ns = e;
    }
  }
  // Drops windows that had not ended by `end_ns` (a trailing partial one,
  // unless `keep_partial`) and marks the ones `steal` saw disturbed.
  void close(std::uint64_t end_ns, const StealMonitor* steal,
             bool keep_partial = false);
  // Every sample of the kept windows.
  Samples all() const {
    Samples s;
    for (std::size_t i = 0; i < win_.size(); ++i)
      if (kept(i)) s.add_all(win_[i]);
    return s;
  }
  // Median over kept windows of each window's samples per second, or with
  // `sum`, of each window's sum of values per second.
  double rate(bool sum = false) const {
    Samples r;
    for (std::size_t i = 0; i < win_.size(); ++i)
      if (kept(i) && excl_[i] < win_ns_) r.add(window_rate(i, sum));
    return r.median();
  }
  // Median over kept windows of each window's percentile q.
  double pct(double q) const {
    Samples r;
    for (std::size_t i = 0; i < win_.size(); ++i)
      if (kept(i) && !win_[i].empty()) r.add(win_[i].pct(q));
    return r.median();
  }
  // Median over kept windows of each window's tail (see Samples::tail_q).
  double tail() const {
    Samples r;
    for (std::size_t i = 0; i < win_.size(); ++i)
      if (kept(i) && !win_[i].empty()) r.add(win_[i].tail());
    return r.median();
  }
  // Per-window rates and steal shares plus the kept count, for the detail
  // line.
  std::string windows_json(bool sum = false) const;

 private:
  bool kept(std::size_t i) const {
    return i >= disturbed_.size() || !disturbed_[i];
  }
  std::size_t slot(std::uint64_t t_ns) const {
    return t_ns > t0_ ? (t_ns - t0_) / win_ns_ : 0;
  }
  void grow(std::size_t w) {
    if (w >= win_.size()) {
      win_.resize(w + 1);
      excl_.resize(w + 1, 0);
    }
  }
  double window_rate(std::size_t i, bool sum) const {
    const double v = sum ? win_[i].sum() : static_cast<double>(win_[i].n());
    const std::uint64_t len = win_ns_ - std::min(excl_[i], win_ns_ - 1);
    return v * 1e9 / static_cast<double>(len);
  }

  std::uint64_t t0_, win_ns_;
  std::vector<Samples> win_;
  std::vector<std::uint64_t> excl_;  // excluded ns per window
  std::vector<bool> disturbed_;  // set by close()
  std::vector<double> steal_;    // per-window steal share, set by close()
};

// Spans of the traced run: name, start, end, parent span and request id,
// kept in memory and written once at exit. Disabled logs record nothing.
class SpanLog {
 public:
  struct Span {
    const char* name = "";
    std::uint64_t start_ns = 0, end_ns = 0;
    std::uint32_t id = 0, parent = 0;  // 0 = no span / root
    std::uint64_t req = 0;
  };

  explicit SpanLog(bool enabled) : enabled_(enabled) {
    if (enabled_) spans_.reserve(1 << 16);
  }

  // Record a completed span; returns its id (0 when disabled).
  std::uint32_t add(const char* name, std::uint64_t start_ns,
                    std::uint64_t end_ns, std::uint32_t parent = 0,
                    std::uint64_t req = 0) {
    if (!enabled_) return 0;
    std::lock_guard<std::mutex> lk(mu_);
    const auto id = static_cast<std::uint32_t>(spans_.size() + 1);
    spans_.push_back(Span{name, start_ns, end_ns, id, parent, req});
    return id;
  }
  // Reserve an id for a parent whose end is not known yet; fill it with
  // close().
  std::uint32_t open(const char* name, std::uint64_t start_ns,
                     std::uint32_t parent = 0, std::uint64_t req = 0) {
    return add(name, start_ns, start_ns, parent, req);
  }
  void close(std::uint32_t id, std::uint64_t end_ns) {
    if (!enabled_ || id == 0) return;
    std::lock_guard<std::mutex> lk(mu_);
    spans_[id - 1].end_ns = end_ns;
  }

  // Per span name: durations and self times (duration minus the part of
  // the interval covered by the span's children), in milliseconds.
  struct Times {
    Samples total_ms, self_ms;
  };
  std::map<std::string, Times> times() const;

  // Chrome trace_event JSON ("X" events, parent and request id in args).
  void write(const std::string& path) const;

 private:
  bool enabled_;
  mutable std::mutex mu_;
  std::vector<Span> spans_;
};

// The benchmark result: metrics by name and unit, output checks by kind,
// and free-form detail lines printed before the final JSON line.
class Report {
 public:
  void metric(const std::string& name, double value, const std::string& unit) {
    metrics_[name] = {value, unit};
  }
  bool has_metric(const std::string& name) const {
    return metrics_.count(name) != 0;
  }
  // One output check of `kind`: `attempted` items, `failed` of them wrong.
  void check(const std::string& kind, std::uint64_t attempted,
             std::uint64_t failed) {
    auto& c = checks_[kind];
    c.first += attempted;
    c.second += failed;
  }
  // A JSON value (already encoded) printed under `key` in the detail line.
  void detail(const std::string& key, const std::string& json) {
    details_[key] = json;
  }

  std::uint64_t attempted() const;
  std::uint64_t failed() const;
  // Prints the detail line and then the final result line.
  void print() const;

 private:
  std::map<std::string, std::pair<double, std::string>> metrics_;
  std::map<std::string, std::pair<std::uint64_t, std::uint64_t>> checks_;
  std::map<std::string, std::string> details_;
};

// Tiny JSON helpers for detail values.
std::string json_num(double v);
std::string json_str(const std::string& s);
// {"n": .., "p50": .., "tail_q": .., "tail": ..} for a sample set.
std::string json_samples(const Samples& s);
// Per span name: count, median duration and median self time.
std::string json_span_times(const SpanLog& spans);

// Peak resident set of this process (VmHWM), in MiB.
double rss_peak_mb();
// success_ratio (1 - failed/attempted over every check so far) and
// rss_peak_mb, the end-to-end metrics every workload reports alike.
void report_outcome(Report& r);
// Bytes in the regular files under `dir`.
std::uint64_t dir_bytes(const std::string& dir);

// Workload entry points (fleet.cpp, fabric.cpp).
void run_fleet_steady(const Args& a, Report& r);
void run_fleet_churn_durable(const Args& a, Report& r);
void run_fabric_replicated(const Args& a, Report& r);

// Set-ups a measured run makes; setup_s is their median. At least
// kSetupReps, and more, up to kSetupMaxReps, while they have taken less
// than kSetupBudgetNs, so a cheap set-up's median rests on more samples.
inline constexpr int kSetupReps = 5;
inline constexpr int kSetupMaxReps = 25;
inline constexpr std::uint64_t kSetupBudgetNs = 2'000'000'000;

// Runs build_once(k) for the set-ups above, each in its own forked child,
// and returns the seconds each reported. A child builds, times and tears
// down, so every set-up and the measured process start from the same heap.
// Call before any thread exists. Throws when a child fails.
Samples time_setups(const std::function<double(int)>& build_once);

}  // namespace e2e
