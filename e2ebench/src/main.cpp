// hp4_e2e — the repository benchmark binary. One process runs one workload
// against the library's public API in-process and prints its metrics; see
// ../README.md for the workloads, metrics and output format.
//
//   hp4_e2e --workload fleet_steady --seed 1 --seconds 10 --trace 0
//           --work-dir DIR [--trace-file F] [--fault drop-flow-rule]
//           [--commit SHA]
#include <sys/prctl.h>
#include <sys/wait.h>
#include <unistd.h>

#include <csignal>
#include <cstdio>
#include <cstdlib>
#include <exception>
#include <filesystem>
#include <fstream>
#include <iostream>
#include <numeric>
#include <sstream>
#include <stdexcept>
#include <string>
#include <thread>

#include "common.h"

namespace e2e {

// --- span log -------------------------------------------------------------------

std::map<std::string, SpanLog::Times> SpanLog::times() const {
  std::lock_guard<std::mutex> lk(mu_);
  std::vector<std::vector<std::uint32_t>> kids(spans_.size() + 1);
  for (const Span& s : spans_)
    if (s.parent) kids[s.parent].push_back(s.id);
  std::map<std::string, Times> out;
  for (const Span& s : spans_) {
    // Union of the children's intervals, clipped to this span.
    std::vector<std::pair<std::uint64_t, std::uint64_t>> iv;
    for (std::uint32_t k : kids[s.id]) {
      const Span& c = spans_[k - 1];
      const std::uint64_t a = std::max(c.start_ns, s.start_ns);
      const std::uint64_t b = std::min(c.end_ns, s.end_ns);
      if (b > a) iv.emplace_back(a, b);
    }
    std::sort(iv.begin(), iv.end());
    std::uint64_t covered = 0, cur_a = 0, cur_b = 0;
    for (const auto& [a, b] : iv) {
      if (a > cur_b) {
        covered += cur_b - cur_a;
        cur_a = a;
        cur_b = b;
      } else {
        cur_b = std::max(cur_b, b);
      }
    }
    covered += cur_b - cur_a;
    const std::uint64_t dur = s.end_ns - s.start_ns;
    Times& t = out[s.name];
    t.total_ms.add(static_cast<double>(dur) / 1e6);
    t.self_ms.add(static_cast<double>(dur - std::min(dur, covered)) / 1e6);
  }
  return out;
}

void SpanLog::write(const std::string& path) const {
  std::lock_guard<std::mutex> lk(mu_);
  std::ofstream os(path);
  os << "{\"traceEvents\": [";
  const std::uint64_t t0 = spans_.empty() ? 0 : spans_.front().start_ns;
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    const std::uint64_t start = s.start_ns >= t0 ? s.start_ns - t0 : 0;
    os << (i ? ",\n" : "\n") << "{\"name\": \"" << s.name
       << "\", \"ph\": \"X\", \"pid\": 1, \"tid\": 1, \"ts\": "
       << json_num(static_cast<double>(start) / 1e3)
       << ", \"dur\": " << json_num(static_cast<double>(s.end_ns - s.start_ns) / 1e3)
       << ", \"args\": {\"id\": " << s.id << ", \"parent\": " << s.parent
       << ", \"req\": " << s.req << "}}";
  }
  os << "\n]}\n";
}

// --- report -----------------------------------------------------------------------

std::string json_num(double v) {
  if (!std::isfinite(v)) return "0";
  std::ostringstream os;
  os.precision(12);
  os << v;
  return os.str();
}

std::string json_str(const std::string& s) {
  std::string o = "\"";
  for (char c : s) {
    if (c == '"' || c == '\\') o += '\\';
    o += c;
  }
  return o + "\"";
}

std::string json_samples(const Samples& s) {
  return "{\"n\": " + std::to_string(s.n()) +
         ", \"p50\": " + json_num(s.median()) +
         ", \"tail_q\": " + json_num(s.tail_q()) +
         ", \"tail\": " + json_num(s.tail()) + "}";
}

namespace {

// Cumulative {steal, total} jiffies of all CPUs (/proc/stat "cpu" line).
std::pair<std::uint64_t, std::uint64_t> cpu_steal() {
  std::ifstream is("/proc/stat");
  std::string cpu;
  is >> cpu;
  std::uint64_t v = 0, total = 0, steal = 0;
  for (int i = 0; i < 8 && is >> v; ++i) {
    total += v;
    if (i == 7) steal = v;
  }
  return {steal, total};
}

}  // namespace

StealMonitor::StealMonitor() {
  sample();
  th_ = std::thread([this] {
    std::unique_lock<std::mutex> lk(mu_);
    while (!cv_.wait_for(lk, std::chrono::milliseconds(50),
                         [this] { return stop_; })) {
      lk.unlock();
      sample();
      lk.lock();
    }
  });
}

StealMonitor::~StealMonitor() {
  {
    std::lock_guard<std::mutex> lk(mu_);
    stop_ = true;
  }
  cv_.notify_all();
  th_.join();
}

void StealMonitor::sample() {
  const auto [steal, total] = cpu_steal();
  const std::uint64_t t = now_ns();
  std::lock_guard<std::mutex> lk(mu_);
  samples_.push_back(Sample{t, steal, total});
}

double StealMonitor::share(std::uint64_t a_ns, std::uint64_t b_ns) const {
  std::lock_guard<std::mutex> lk(mu_);
  // Last sample at or before a, first at or after b.
  std::size_t i = 0, j = samples_.size() - 1;
  while (i + 1 < samples_.size() && samples_[i + 1].t_ns <= a_ns) ++i;
  for (std::size_t k = i; k < samples_.size(); ++k) {
    if (samples_[k].t_ns >= b_ns) {
      j = k;
      break;
    }
  }
  const double dt = static_cast<double>(samples_[j].total - samples_[i].total);
  return dt > 0 ? static_cast<double>(samples_[j].steal - samples_[i].steal) / dt
                : 0;
}

void Windowed::close(std::uint64_t end_ns, const StealMonitor* steal,
                     bool keep_partial) {
  const std::size_t full = end_ns > t0_ ? (end_ns - t0_) / win_ns_ : 0;
  if (!keep_partial && win_.size() > full && full > 0) {
    win_.resize(full);
    excl_.resize(full);
  }
  const std::size_t n = win_.size();
  disturbed_.assign(n, false);
  steal_.assign(n, 0);
  if (!steal || n == 0) return;
  std::size_t kept_n = 0;
  for (std::size_t i = 0; i < n; ++i) {
    steal_[i] = steal->share(t0_ + i * win_ns_, t0_ + (i + 1) * win_ns_);
    disturbed_[i] = steal_[i] > kMaxStealShare;
    kept_n += disturbed_[i] ? 0 : 1;
  }
  if (3 * kept_n >= n) return;
  // Mostly disturbed: keep the third of the windows with the least steal.
  std::vector<std::size_t> by_steal(n);
  std::iota(by_steal.begin(), by_steal.end(), 0);
  std::stable_sort(
      by_steal.begin(), by_steal.end(),
      [&](std::size_t x, std::size_t y) { return steal_[x] < steal_[y]; });
  disturbed_.assign(n, true);
  for (std::size_t k = 0; k < (n + 2) / 3; ++k) disturbed_[by_steal[k]] = false;
}

std::string Windowed::windows_json(bool sum) const {
  std::string rates, p50, tail, steal;
  std::size_t kept_n = 0;
  for (std::size_t i = 0; i < win_.size(); ++i) {
    const char* sep = i ? ", " : "";
    rates += sep + json_num(window_rate(i, sum));
    p50 += sep + json_num(win_[i].median());
    tail += sep + json_num(win_[i].tail());
    steal += sep + json_num(i < steal_.size() ? 100.0 * steal_[i] : 0);
    kept_n += kept(i) ? 1 : 0;
  }
  return "{\"kept\": " + std::to_string(kept_n) +
         ", \"total\": " + std::to_string(win_.size()) + ", \"rates\": [" +
         rates + "], \"p50\": [" + p50 + "], \"tail\": [" + tail +
         "], \"steal_pct\": [" + steal + "]}";
}

std::string json_span_times(const SpanLog& spans) {
  std::string o = "{";
  for (const auto& [name, t] : spans.times()) {
    o += (o.size() > 1 ? ", " : "") + json_str(name) +
         ": {\"n\": " + std::to_string(t.total_ms.n()) +
         ", \"total_p50_ms\": " + json_num(t.total_ms.median()) +
         ", \"self_p50_ms\": " + json_num(t.self_ms.median()) + "}";
  }
  return o + "}";
}

std::uint64_t Report::attempted() const {
  std::uint64_t n = 0;
  for (const auto& [k, c] : checks_) n += c.first;
  return n;
}

std::uint64_t Report::failed() const {
  std::uint64_t n = 0;
  for (const auto& [k, c] : checks_) n += c.second;
  return n;
}

void Report::print() const {
  const std::uint64_t att = attempted(), fail = failed();
  std::ostringstream d;
  d << "{\"checks\": {";
  bool first = true;
  for (const auto& [k, c] : checks_) {
    d << (first ? "" : ", ") << json_str(k) << ": {\"attempted\": " << c.first
      << ", \"failed\": " << c.second << "}";
    first = false;
  }
  d << "}, \"fail_ratio\": "
    << json_num(att ? static_cast<double>(fail) / static_cast<double>(att) : 1);
  for (const auto& [k, v] : details_) d << ", " << json_str(k) << ": " << v;
  d << "}";
  std::cout << d.str() << "\n";

  std::ostringstream o;
  o << "{\"correct\": " << (fail == 0 && att > 0 ? "true" : "false")
    << ", \"attempted\": " << std::max<std::uint64_t>(att, 1)
    << ", \"failed\": " << fail << ", \"metrics\": {";
  first = true;
  for (const auto& [name, m] : metrics_) {
    o << (first ? "" : ", ") << json_str(name)
      << ": {\"value\": " << json_num(m.first)
      << ", \"unit\": " << json_str(m.second) << "}";
    first = false;
  }
  o << "}}";
  std::cout << o.str() << std::endl;
}

double rss_peak_mb() {
  std::ifstream is("/proc/self/status");
  std::string line;
  while (std::getline(is, line)) {
    if (line.rfind("VmHWM:", 0) == 0)
      return std::strtod(line.c_str() + 6, nullptr) / 1024.0;
  }
  return 0;
}

namespace {

// Runs build_once(k) in a forked child and returns the seconds it reported.
double time_one_setup(const std::function<double(int)>& build_once, int k) {
  int fds[2];
  if (::pipe(fds) != 0) throw std::runtime_error("set-up: pipe failed");
  const pid_t pid = ::fork();
  if (pid < 0) {
    ::close(fds[0]);
    ::close(fds[1]);
    throw std::runtime_error("set-up: fork failed");
  }
  if (pid == 0) {
    ::prctl(PR_SET_PDEATHSIG, SIGKILL);  // never outlive the measured run
    ::close(fds[0]);
    int code = 0;
    try {
      const double s = build_once(k);
      if (::write(fds[1], &s, sizeof s) != sizeof s) code = 3;
    } catch (const std::exception& e) {
      std::cerr << "hp4_e2e: set-up failed: " << e.what() << "\n";
      code = 2;
    }
    ::_exit(code);
  }
  ::close(fds[1]);
  double s = 0;
  const bool got = ::read(fds[0], &s, sizeof s) == sizeof s;
  ::close(fds[0]);
  int status = 0;
  ::waitpid(pid, &status, 0);
  if (!got || !WIFEXITED(status) || WEXITSTATUS(status) != 0)
    throw std::runtime_error("set-up child failed");
  return s;
}

}  // namespace

Samples time_setups(const std::function<double(int)>& build_once) {
  Samples out;
  const std::uint64_t t0 = now_ns();
  for (int k = 0; k < kSetupMaxReps; ++k) {
    if (k >= kSetupReps && now_ns() - t0 > kSetupBudgetNs) break;
    out.add(time_one_setup(build_once, k));
  }
  return out;
}

void report_outcome(Report& r) {
  const double att = static_cast<double>(std::max<std::uint64_t>(r.attempted(), 1));
  r.metric("success_ratio", 1.0 - static_cast<double>(r.failed()) / att, "ratio");
  r.metric("rss_peak_mb", rss_peak_mb(), "MiB");
}

std::uint64_t dir_bytes(const std::string& dir) {
  std::uint64_t n = 0;
  for (const auto& e : std::filesystem::recursive_directory_iterator(dir))
    if (e.is_regular_file()) n += e.file_size();
  return n;
}

namespace {

// nproc, build type, sanitizer, seed and commit. A sanitizer or
// unoptimised build is flagged (comparable=false), never silently compared.
std::string host_record(const Args& a, bool* comparable) {
#ifdef HP4_SANITIZER
  const std::string san = HP4_SANITIZER;
#else
  const std::string san = "none";
#endif
#ifdef __OPTIMIZE__
  const bool optimized = true;
#else
  const bool optimized = false;
#endif
  *comparable = optimized && san == "none";
  return std::string("{\"nproc\": ") +
         std::to_string(std::thread::hardware_concurrency()) +
         ", \"build_type\": " + json_str(HP4_BENCH_BUILD_TYPE) +
         ", \"optimized\": " + (optimized ? "true" : "false") +
         ", \"sanitizer\": " + json_str(san) +
         ", \"seed\": " + std::to_string(a.seed) +
         ", \"commit\": " + json_str(a.commit) +
         ", \"comparable\": " + (*comparable ? "true" : "false") + "}";
}

int usage(const char* msg) {
  std::cerr << "hp4_e2e: " << msg
            << "\nusage: hp4_e2e --workload fleet_steady|fleet_churn_durable|"
               "fabric_replicated --seed N --seconds S --trace 0|1 "
               "--work-dir DIR [--trace-file F] [--fault drop-flow-rule] "
               "[--commit SHA]\n";
  return 1;
}

}  // namespace
}  // namespace e2e

int main(int argc, char** argv) {
  using namespace e2e;
  Args a;
  for (int i = 1; i < argc; ++i) {
    const std::string k = argv[i];
    if (i + 1 >= argc) return usage(("missing value for " + k).c_str());
    const std::string v = argv[++i];
    if (k == "--workload") a.workload = v;
    else if (k == "--seed") a.seed = std::stoull(v);
    else if (k == "--seconds") a.seconds = std::stod(v);
    else if (k == "--trace") a.trace = v == "1";
    else if (k == "--fault") a.fault = v;
    else if (k == "--work-dir") a.work_dir = v;
    else if (k == "--trace-file") a.trace_file = v;
    else if (k == "--commit") a.commit = v;
    else return usage(("unknown option " + k).c_str());
  }
  if (a.work_dir.empty()) return usage("--work-dir is required");
  if (a.seconds <= 0) return usage("--seconds must be positive");
  if (a.fault != "none" && a.fault != "drop-flow-rule")
    return usage("unknown --fault");

  bool comparable = true;
  Report r;
  r.detail("host", host_record(a, &comparable));
  if (!comparable)
    std::cerr << "hp4_e2e: WARNING: sanitizer or unoptimised build — figures "
                 "are flagged comparable=false\n";
  const auto steal0 = cpu_steal();
  try {
    std::filesystem::create_directories(a.work_dir);
    if (a.workload == "fleet_steady") run_fleet_steady(a, r);
    else if (a.workload == "fleet_churn_durable") run_fleet_churn_durable(a, r);
    else if (a.workload == "fabric_replicated") run_fabric_replicated(a, r);
    else return usage(("unknown workload '" + a.workload + "'").c_str());
  } catch (const std::exception& e) {
    std::cerr << "hp4_e2e: " << a.workload << " failed: " << e.what() << "\n";
    std::filesystem::remove_all(a.work_dir);
    return 2;
  }
  std::filesystem::remove_all(a.work_dir);
  // Time the hypervisor took from this VM during the run: host noise that
  // no in-process statistic removes.
  const auto steal1 = cpu_steal();
  const double dt = static_cast<double>(steal1.second - steal0.second);
  r.detail("steal_pct",
           json_num(dt > 0 ? 100.0 * static_cast<double>(steal1.first - steal0.first) / dt
                           : 0));
  r.print();
  return 0;
}
