// Shared plumbing of fpbench: clocks, order statistics, host
// warm-up, the bimodality guard, and the result record every workload
// fills.
#pragma once

#include <chrono>
#include <cstdint>
#include <atomic>
#include <string>
#include <thread>
#include <vector>

namespace perfbench {

using Clock = std::chrono::steady_clock;

[[nodiscard]] inline double seconds_between(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double>(b - a).count();
}

/// Seconds elapsed since `start`.
[[nodiscard]] inline double since(Clock::time_point start) {
  return seconds_between(start, Clock::now());
}

[[nodiscard]] double median(std::vector<double> values);

/// Nearest-rank quantile (q in (0, 1]) of `values`.
[[nodiscard]] double quantile(std::vector<double> values, double q);

/// Samples per p99 window: 1000 leave ten beyond the nearest-rank p99,
/// the fewest a reported percentile may rest on.
inline constexpr std::size_t kP99Window = 1000;

/// Nearest-rank q-quantile of each run of `window` consecutive samples.
[[nodiscard]] std::vector<double> window_quantiles(const std::vector<double>& samples,
                                                   std::size_t window, double q);

/// Logical CPUs this process may run on.
[[nodiscard]] unsigned online_cpus();

/// The thread count solve_mt_s is defined at.
inline constexpr unsigned kMtThreads = 4;

/// The thread count of every multi-threaded measurement:
/// min(kMtThreads, nproc), so a small host is not oversubscribed (its
/// run is refused by refuse_mt_below_threads).
[[nodiscard]] unsigned mt_threads();

/// Keep `threads` threads spinning for `seconds`. Idle cores of a
/// virtualized host wake slowly: after a few idle seconds the first
/// second of multi-threaded work runs up to 3x slower. Every timed
/// window starts right after this, and its time is excluded from all
/// metrics.
void warm_up_cores(unsigned threads, double seconds);

/// While alive, keeps every CPU of the process busy with SCHED_IDLE
/// spinners. A halted vCPU takes milliseconds to wake (a thread sleeping
/// 1 ms oversleeps 3 ms at p99 on an idle 4-vCPU KVM guest, 0.08 ms with
/// these spinners), and every request wakes a sleeping server thread, so
/// without them the latency tail measures the hypervisor. The guest
/// scheduler runs a SCHED_IDLE thread only when nothing else wants the
/// CPU, so the measured work keeps the CPUs it needs.
class KeepAwake {
 public:
  KeepAwake();
  ~KeepAwake();
  KeepAwake(const KeepAwake&) = delete;
  KeepAwake& operator=(const KeepAwake&) = delete;

  /// False when the spinners could not be given the idle policy (they
  /// are then not started).
  [[nodiscard]] bool active() const { return !spinners_.empty(); }

 private:
  std::atomic<bool> stop_{false};
  std::vector<std::thread> spinners_;
};

/// True when the samples, in the order they were taken, split into two
/// modes: the median of the first quarter exceeds 1.5x the median of the
/// last quarter (or the reverse). Needs at least 8 samples.
[[nodiscard]] bool bimodal(const std::vector<double>& samples_in_order);

/// Peak resident set size of this process so far, in MiB.
[[nodiscard]] double peak_rss_mb();

struct Metric {
  std::string name;
  double value = 0;
  std::string unit;
};

/// Everything one run reports. `raw` collects named sample series and
/// notes for the samples file; the last stdout line carries the rest.
struct RunResult {
  bool correct = true;
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::vector<Metric> metrics;
  std::vector<std::string> problems;  ///< human-readable check failures
  std::vector<std::pair<std::string, std::vector<double>>> raw;
  std::vector<std::pair<std::string, std::string>> notes;  ///< key -> JSON value

  void add(std::string name, double value, std::string unit) {
    metrics.push_back({std::move(name), value, std::move(unit)});
  }
  void fail(std::string problem) {
    correct = false;
    problems.push_back(std::move(problem));
  }
  /// Record a sample series; flags it in the notes when it is bimodal.
  void keep_samples(const std::string& name, const std::vector<double>& samples);
};

/// Marks the run incorrect when the host has fewer CPUs than kMtThreads:
/// solve_mt_s would be measured at fewer threads than it is defined at.
void refuse_mt_below_threads(RunResult& result);

/// The run parameters every workload receives.
struct RunArgs {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  bool smoke = false;  ///< reduced-size self-test inputs
  double rate_rps = 0;      ///< service_mixed: the fixed-rate phase's offered load
  double p99_limit_ms = 0;  ///< service_mixed: the rate ladder's latency limit
};

/// Compact JSON number with every significant digit of a double.
[[nodiscard]] std::string json_num(double v);

/// Shuffle with the project's PCG32 stream (std::shuffle's algorithm is
/// not pinned by the standard; the inputs must repeat per seed).
template <typename T, typename Rng>
void seeded_shuffle(std::vector<T>& v, Rng& rng) {
  for (std::size_t i = v.size(); i > 1; --i) {
    const std::size_t j = rng.below(static_cast<std::uint32_t>(i));
    std::swap(v[i - 1], v[j]);
  }
}

}  // namespace perfbench
