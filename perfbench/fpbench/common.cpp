#include "common.h"

#include <sched.h>
#include <sys/resource.h>

#include <algorithm>
#include <atomic>
#include <cmath>
#include <cstdio>
#include <thread>

namespace perfbench {

double median(std::vector<double> values) {
  if (values.empty()) return 0;
  const std::size_t mid = values.size() / 2;
  std::nth_element(values.begin(), values.begin() + static_cast<std::ptrdiff_t>(mid),
                   values.end());
  const double upper = values[mid];
  if (values.size() % 2 == 1) return upper;
  const double lower =
      *std::max_element(values.begin(), values.begin() + static_cast<std::ptrdiff_t>(mid));
  return (lower + upper) / 2;
}

namespace {
std::size_t rank_index(std::size_t n, double q) {
  const auto rank = static_cast<std::size_t>(std::ceil(q * static_cast<double>(n)));
  return std::min(n - 1, rank == 0 ? 0 : rank - 1);
}
}  // namespace

double quantile(std::vector<double> values, double q) {
  if (values.empty()) return 0;
  const std::size_t idx = rank_index(values.size(), q);
  std::nth_element(values.begin(), values.begin() + static_cast<std::ptrdiff_t>(idx),
                   values.end());
  return values[idx];
}

std::vector<double> window_quantiles(const std::vector<double>& samples, std::size_t window,
                                     double q) {
  std::vector<double> out;
  for (std::size_t i = 0; i + window <= samples.size(); i += window) {
    out.push_back(quantile({samples.begin() + static_cast<std::ptrdiff_t>(i),
                            samples.begin() + static_cast<std::ptrdiff_t>(i + window)},
                           q));
  }
  return out;
}

unsigned online_cpus() {
  cpu_set_t set;
  CPU_ZERO(&set);
  if (sched_getaffinity(0, sizeof(set), &set) == 0) {
    const int n = CPU_COUNT(&set);
    if (n > 0) return static_cast<unsigned>(n);
  }
  return std::max(1u, std::thread::hardware_concurrency());
}

unsigned mt_threads() { return std::min(kMtThreads, online_cpus()); }

void warm_up_cores(unsigned threads, double seconds) {
  std::atomic<bool> stop{false};
  std::vector<std::thread> spinners;
  for (unsigned i = 0; i < threads; ++i) {
    spinners.emplace_back([&stop] {
      volatile std::uint64_t sink = 0;
      // relaxed: a stop flag polled in a busy loop orders nothing.
      while (!stop.load(std::memory_order_relaxed)) sink = sink + 1;
    });
  }
  std::this_thread::sleep_for(std::chrono::duration<double>(seconds));
  stop.store(true, std::memory_order_relaxed);
  for (std::thread& t : spinners) t.join();
}

KeepAwake::KeepAwake() {
  const unsigned n = online_cpus();
  std::atomic<unsigned> refused{0};
  std::atomic<unsigned> started{0};
  for (unsigned i = 0; i < n; ++i) {
    spinners_.emplace_back([this, &refused, &started] {
      sched_param param{};
      const bool idle = sched_setscheduler(0, SCHED_IDLE, &param) == 0;
      if (!idle) refused.fetch_add(1);
      started.fetch_add(1);
      if (!idle) return;
      // No PAUSE in this loop: KVM's pause-loop exiting would deschedule
      // the vCPU, which is what the spinner is there to prevent.
      // relaxed: a stop flag polled in a busy loop orders nothing.
      while (!stop_.load(std::memory_order_relaxed)) {
      }
    });
  }
  while (started.load() < n) std::this_thread::yield();
  if (refused.load() > 0) {
    stop_.store(true);
    for (std::thread& t : spinners_) t.join();
    spinners_.clear();
    std::fprintf(stderr, "fpbench: warning: SCHED_IDLE refused; CPUs may idle during windows\n");
  }
}

KeepAwake::~KeepAwake() {
  stop_.store(true, std::memory_order_relaxed);
  for (std::thread& t : spinners_) t.join();
}

bool bimodal(const std::vector<double>& samples) {
  if (samples.size() < 8) return false;
  const std::size_t quarter = samples.size() / 4;
  const double first = median({samples.begin(), samples.begin() + static_cast<std::ptrdiff_t>(quarter)});
  const double last = median({samples.end() - static_cast<std::ptrdiff_t>(quarter), samples.end()});
  return first > 1.5 * last || last > 1.5 * first;
}

double peak_rss_mb() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // ru_maxrss is in KiB on Linux
}

void RunResult::keep_samples(const std::string& name, const std::vector<double>& samples) {
  raw.emplace_back(name, samples);
  if (bimodal(samples)) {
    notes.emplace_back("bimodal." + name, "true");
    std::fprintf(stderr, "fpbench: warning: samples of %s split into two modes\n", name.c_str());
  }
}

void refuse_mt_below_threads(RunResult& r) {
  if (online_cpus() < kMtThreads) {
    r.fail("solve_mt_s refused: " + std::to_string(online_cpus()) + " CPUs, fewer than the " +
           std::to_string(kMtThreads) + " threads it is measured at");
  }
}

std::string json_num(double v) {
  if (!std::isfinite(v)) return "null";
  char buf[40];
  std::snprintf(buf, sizeof(buf), "%.17g", v);
  return buf;
}

}  // namespace perfbench
