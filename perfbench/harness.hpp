// Shared plumbing of the pulpclass benchmark (perfbench): arguments,
// seeded input generation, the percentile rule, the metric registry and
// result line, process resource usage, the committed reference, and the
// in-memory span recorder of traced runs.
//
// Every number the benchmark prints goes through Report, which accepts
// only names declared in the metric registry below; BENCHMARK.json at
// the repository root declares the same names (the test suite and
// run.py both cross-check them).
#pragma once

#include <atomic>
#include <chrono>
#include <cstdint>
#include <filesystem>
#include <map>
#include <mutex>
#include <optional>
#include <string>
#include <string_view>
#include <thread>
#include <vector>

#include "core/pipeline.hpp"

namespace perfbench {

using Clock = std::chrono::steady_clock;

[[nodiscard]] inline double seconds_between(Clock::time_point a,
                                            Clock::time_point b) {
  return std::chrono::duration<double>(b - a).count();
}

/// All load comes from one process with at most this many busy threads
/// (the 4-CPU benchmark host): build pools, CV workers, and for serving
/// the server worker, the shard batchers and the client together.
inline constexpr unsigned kThreads = 4;

// ---- arguments ------------------------------------------------------

struct Args {
  std::string workload;
  std::uint64_t seed = 0;
  double seconds = 10;
  bool trace = false;
  std::filesystem::path data_dir;  ///< holds ref/ (the committed reference)
  std::filesystem::path work_dir;  ///< scratch: stores and trace files
};

/// Parse `--workload W --seed N --seconds S --trace 0|1 --data-dir D
/// --work-dir W`. Returns an error message, empty on success.
[[nodiscard]] std::string parse_args(int argc, const char* const* argv,
                                     Args* out);

/// The benchmark entry point behind main(). `assertions_on` tells
/// whether the calling build keeps assert() live; such a build is
/// refused before anything is timed (exit code 3).
int run_main(int argc, const char* const* argv, bool assertions_on);

// ---- seeded inputs --------------------------------------------------

/// SplitMix64: the benchmark's only source of randomness, so one seed
/// always yields the same configurations and request sequences.
class Rng {
 public:
  explicit Rng(std::uint64_t seed) : s_(seed) {}
  std::uint64_t next() {
    std::uint64_t z = (s_ += 0x9e3779b97f4a7c15ULL);
    z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
    z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
    return z ^ (z >> 31);
  }
  /// Uniform in [0, n); n > 0.
  std::uint64_t below(std::uint64_t n) { return next() % n; }

 private:
  std::uint64_t s_;
};

// ---- statistics -----------------------------------------------------

/// A percentile is reported only when at least this many samples lie
/// beyond it.
inline constexpr std::size_t kMinBeyond = 10;

/// Nearest-rank percentile `p` (0 < p < 1) of `values`, or nullopt when
/// fewer than kMinBeyond samples lie above its rank.
[[nodiscard]] std::optional<double> percentile(std::vector<double> values,
                                               double p);

[[nodiscard]] double median(std::vector<double> values);

// ---- process resources ----------------------------------------------

/// User + system CPU seconds of the whole process so far.
[[nodiscard]] double process_cpu_seconds();
/// Peak resident set size of the process so far, MiB.
[[nodiscard]] double peak_rss_mib();

// ---- metrics and the result line ------------------------------------

struct MetricSpec {
  const char* name;
  const char* unit;
};

/// End-to-end metrics, printed by every untraced run.
[[nodiscard]] const std::vector<MetricSpec>& end_to_end_metrics();
/// Per-layer metrics, printed by every traced run (0 for a layer the
/// workload does not run).
[[nodiscard]] const std::vector<MetricSpec>& per_layer_metrics();
/// The workload names, in BENCHMARK.json order.
[[nodiscard]] const std::vector<std::string>& workload_names();

class Report {
 public:
  explicit Report(bool trace) : trace_(trace) {}
  /// Record a metric; throws std::logic_error for a name not declared
  /// for this mode.
  void set(const std::string& name, double value);
  /// Set every per-layer metric to 0, the value of a layer the workload
  /// does not run; a traced run then overwrites the layers it measures.
  void zero_layers();
  /// A wrong output: the run fails (and exits non-zero).
  void fail(const std::string& why);
  void attempt(std::uint64_t attempted, std::uint64_t failed) {
    attempted_ += attempted;
    failed_ += failed;
  }
  [[nodiscard]] bool correct() const noexcept { return errors_.empty(); }
  /// The final JSON line. Fails the run if a declared metric is missing.
  [[nodiscard]] std::string json();
  [[nodiscard]] const std::vector<std::string>& errors() const noexcept {
    return errors_;
  }

 private:
  bool trace_;
  std::uint64_t attempted_ = 0;
  std::uint64_t failed_ = 0;
  std::map<std::string, double> values_;
  std::vector<std::string> errors_;
};

// ---- the committed reference ----------------------------------------

/// One configuration of the seed-commit dataset (ref/labels.tsv).
struct RefSample {
  pulpc::core::SampleConfig cfg;
  int label = 0;
  std::vector<double> energy;  ///< fJ per core count
  std::vector<double> cycles;  ///< kernel-region cycles per core count
  /// Simulated kernel cycles over all core counts: the cost used to
  /// stratify samples.
  [[nodiscard]] double cost() const;
};

/// Load ref/labels.tsv (dataset_configs() order). Throws on a malformed
/// file.
[[nodiscard]] std::vector<RefSample> load_reference(
    const std::filesystem::path& data_dir);

/// Compare built rows against the reference: labels, energies and
/// cycles must match exactly. Returns the number of mismatching rows
/// and records the first few in the report.
std::size_t check_against_reference(const std::vector<pulpc::ml::Sample>& rows,
                                    const std::vector<const RefSample*>& ref,
                                    Report& report);

// ---- traced runs ----------------------------------------------------

/// In-memory span recorder. Each span has a name, start, end, the span
/// that caused it, and the id of the sample or request it belongs to.
/// Spans are written as Chrome trace-event JSON at the end of the run.
class Tracer {
 public:
  struct Span {
    const char* name = "";
    std::uint64_t id = 0;      ///< sample or request id
    std::uint64_t sid = 0;     ///< this span
    std::uint64_t parent = 0;  ///< causing span (0: none)
    Clock::time_point t0, t1;
    unsigned tid = 0;
  };

  /// RAII span: records [construction, destruction).
  class Scope {
   public:
    Scope(Tracer& tracer, const char* name, std::uint64_t id,
          std::uint64_t parent = 0)
        : tr_(tracer),
          name_(name),
          id_(id),
          parent_(parent),
          sid_(tracer.next_sid_.fetch_add(1, std::memory_order_relaxed)),
          t0_(Clock::now()) {}
    ~Scope() { tr_.record({name_, id_, sid_, parent_, t0_, Clock::now(), 0}); }
    Scope(const Scope&) = delete;
    Scope& operator=(const Scope&) = delete;
    [[nodiscard]] std::uint64_t sid() const noexcept { return sid_; }

   private:
    Tracer& tr_;
    const char* name_;
    std::uint64_t id_;
    std::uint64_t parent_;
    std::uint64_t sid_;
    Clock::time_point t0_;
  };

  void record(Span span);
  /// Record an already-timed span (client-side request spans).
  void record(const char* name, std::uint64_t id, Clock::time_point t0,
              Clock::time_point t1, std::uint64_t parent = 0);
  /// Self time (duration minus the time covered by child spans) summed
  /// per span name, in seconds.
  [[nodiscard]] std::map<std::string, double> self_seconds() const;
  /// Durations of every span with this name, in microseconds.
  [[nodiscard]] std::vector<double> durations_us(std::string_view name) const;
  [[nodiscard]] std::size_t size() const;
  /// Write every span as Chrome trace-event JSON ("X" events).
  void write_chrome_json(const std::filesystem::path& path) const;

 private:
  std::atomic<std::uint64_t> next_sid_{1};
  mutable std::mutex mu_;
  std::vector<Span> spans_;
  std::map<std::thread::id, unsigned> tids_;
  Clock::time_point origin_ = Clock::now();
};

/// Where a traced run writes its span file:
/// `<work dir>/traces/<workload>-seed<N>.json`.
[[nodiscard]] std::filesystem::path trace_path(const Args& args);

// ---- workloads ------------------------------------------------------

/// The seeded configuration sample one build-cold round builds.
[[nodiscard]] std::vector<pulpc::core::SampleConfig> build_cold_configs(
    const std::filesystem::path& data_dir, std::uint64_t seed);

/// One serve request: a registry (kernel, dtype) pair and a size.
struct RequestSpec {
  std::uint32_t pair = 0;  ///< index into the registry's pairs
  std::uint32_t size = 0;  ///< bytes
};

/// The first `n` requests of the seeded serve-hot sequence (every pair at
/// one size) or serve-cold sequence (one size per distinct program of
/// every pair), cycling over a seeded order of that space.
[[nodiscard]] std::vector<RequestSpec> request_sequence(bool hot,
                                                        std::uint64_t seed,
                                                        std::size_t n);

void run_build_cold(const Args& args, Report& report);
void run_iterate_warm(const Args& args, Report& report);
void run_serve(const Args& args, bool hot, Report& report);

}  // namespace perfbench
