#include "harness.hpp"

#include <sys/resource.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <sstream>
#include <stdexcept>

namespace perfbench {

namespace fs = std::filesystem;

std::string parse_args(int argc, const char* const* argv, Args* out) {
  bool have_workload = false, have_seed = false;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (i + 1 >= argc) return "missing value for " + arg;
    const std::string val = argv[++i];
    try {
      if (arg == "--workload") {
        out->workload = val;
        have_workload = true;
      } else if (arg == "--seed") {
        out->seed = std::stoull(val);
        have_seed = true;
      } else if (arg == "--seconds") {
        out->seconds = std::stod(val);
        if (!(out->seconds > 0 && out->seconds <= 120)) {
          return "--seconds wants a value in (0, 120]";
        }
      } else if (arg == "--trace") {
        if (val != "0" && val != "1") return "--trace wants 0 or 1";
        out->trace = val == "1";
      } else if (arg == "--data-dir") {
        out->data_dir = val;
      } else if (arg == "--work-dir") {
        out->work_dir = val;
      } else {
        return "unknown argument " + arg;
      }
    } catch (const std::exception&) {
      return "bad value for " + arg + ": " + val;
    }
  }
  if (!have_workload || !have_seed) return "--workload and --seed are required";
  const auto& names = workload_names();
  if (std::find(names.begin(), names.end(), out->workload) == names.end()) {
    return "unknown workload " + out->workload;
  }
  if (out->data_dir.empty() || out->work_dir.empty()) {
    return "--data-dir and --work-dir are required";
  }
  return {};
}

int run_main(int argc, const char* const* argv, bool assertions_on) {
  if (assertions_on) {
    std::fprintf(stderr,
                 "perfbench: refusing to time a build with assertions on "
                 "(NDEBUG unset); configure with CMAKE_BUILD_TYPE=Release\n");
    return 3;
  }
  Args args;
  if (const std::string err = parse_args(argc, argv, &args); !err.empty()) {
    std::fprintf(stderr, "perfbench: %s\n", err.c_str());
    return 2;
  }
  Report report(args.trace);
  try {
    fs::create_directories(args.work_dir);
    if (args.workload == "build-cold") {
      run_build_cold(args, report);
    } else if (args.workload == "iterate-warm") {
      run_iterate_warm(args, report);
    } else {
      run_serve(args, args.workload == "serve-hot", report);
    }
  } catch (const std::exception& e) {
    std::fprintf(stderr, "perfbench: %s failed: %s\n", args.workload.c_str(),
                 e.what());
    return 1;
  }
  const std::string line = report.json();
  for (const std::string& e : report.errors()) {
    std::fprintf(stderr, "perfbench: check failed: %s\n", e.c_str());
  }
  std::printf("%s\n", line.c_str());
  std::fflush(stdout);
  return report.correct() ? 0 : 1;
}

std::optional<double> percentile(std::vector<double> values, double p) {
  const std::size_t n = values.size();
  if (n == 0 || !(p > 0 && p < 1)) return std::nullopt;
  const auto rank = static_cast<std::size_t>(std::ceil(p * double(n)));
  if (n - rank < kMinBeyond) return std::nullopt;
  std::nth_element(values.begin(), values.begin() + long(rank - 1),
                   values.end());
  return values[rank - 1];
}

double median(std::vector<double> values) {
  if (values.empty()) return 0;
  const std::size_t mid = values.size() / 2;
  std::nth_element(values.begin(), values.begin() + long(mid), values.end());
  if (values.size() % 2 == 1) return values[mid];
  const double hi = values[mid];
  return (*std::max_element(values.begin(), values.begin() + long(mid)) + hi) /
         2;
}

double process_cpu_seconds() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  const auto tv = [](const timeval& t) {
    return double(t.tv_sec) + double(t.tv_usec) * 1e-6;
  };
  return tv(ru.ru_utime) + tv(ru.ru_stime);
}

double peak_rss_mib() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return double(ru.ru_maxrss) / 1024.0;  // ru_maxrss is KiB on Linux
}

const std::vector<MetricSpec>& end_to_end_metrics() {
  static const std::vector<MetricSpec> specs = {
      {"setup_s", "s"},     {"wall_s", "s"}, {"cpu_s", "s"},
      {"ops_per_s", "1/s"}, {"p50_us", "us"},
  };
  return specs;
}

const std::vector<MetricSpec>& per_layer_metrics() {
  static const std::vector<MetricSpec> specs = {
      {"dsl.lower_s", "s"},
      {"dsl.lower_us", "us"},
      {"kir.verify_s", "s"},
      {"sim.busy_s", "s"},
      {"sim.c1_busy_s", "s"},
      {"sim.cmulti_busy_s", "s"},
      {"sim.mcycles", "Mcyc"},
      {"sim.mcyc_per_s", "Mcyc/s"},
      {"sim.ff_share", "ratio"},
      {"core.store_write_s", "s"},
      {"core.store_records", "count"},
      {"core.store_read_s", "s"},
      {"core.hash_s", "s"},
      {"core.assemble_s", "s"},
      {"core.replayed_runs", "count"},
      {"core.simulated_runs", "count"},
      {"core.pool_wait_s", "s"},
      {"core.pool_idle_s", "s"},
      {"core.unattributed_s", "s"},
      {"core.coverage", "ratio"},
      {"energy.label_s", "s"},
      {"feat.featurize_s", "s"},
      {"feat.featurize_us", "us"},
      {"ml.fit_s", "s"},
      {"ml.cv_s", "s"},
      {"ml.cv_fits", "count"},
      {"ml.predict_ns_per_row", "ns"},
      {"serve.parse_ns", "ns"},
      {"serve.format_ns", "ns"},
      {"serve.route_ns", "ns"},
      {"serve.wire_us", "us"},
      {"serve.service_us", "us"},
      {"serve.queue_wait_us", "us"},
      {"serve.unattributed_us", "us"},
      {"serve.batch_mean", "count"},
      {"serve.batches", "count"},
      {"serve.router_hit_ratio", "ratio"},
      {"serve.router_lookups", "count"},
      {"serve.cache_hit_ratio", "ratio"},
      {"serve.cache_lookups", "count"},
      {"serve.cache_evictions", "count"},
      {"serve.shed", "count"},
      {"tail.p99_us", "us"},
      {"tail.samples", "count"},
      {"trace_overhead_ratio", "ratio"},
      {"trace.spans", "count"},
      {"proc.peak_rss_mib", "MiB"},
  };
  return specs;
}

const std::vector<std::string>& workload_names() {
  static const std::vector<std::string> names = {"build-cold", "iterate-warm",
                                                 "serve-hot", "serve-cold"};
  return names;
}

namespace {

const MetricSpec* find_spec(const std::vector<MetricSpec>& specs,
                            const std::string& name) {
  for (const MetricSpec& s : specs) {
    if (name == s.name) return &s;
  }
  return nullptr;
}

std::string json_number(double v) {
  if (!std::isfinite(v)) return "null";
  char buf[64];
  std::snprintf(buf, sizeof buf, "%.17g", v);
  return buf;
}

}  // namespace

void Report::set(const std::string& name, double value) {
  const auto& specs = trace_ ? per_layer_metrics() : end_to_end_metrics();
  if (find_spec(specs, name) == nullptr) {
    throw std::logic_error("metric " + name + " is not declared for " +
                           (trace_ ? "traced" : "untraced") + " runs");
  }
  values_[name] = value;
}

void Report::zero_layers() {
  for (const MetricSpec& m : per_layer_metrics()) set(m.name, 0);
}

void Report::fail(const std::string& why) { errors_.push_back(why); }

std::string Report::json() {
  const auto& specs = trace_ ? per_layer_metrics() : end_to_end_metrics();
  std::string metrics;
  for (const MetricSpec& s : specs) {
    const auto it = values_.find(s.name);
    if (it == values_.end() || !std::isfinite(it->second)) {
      fail(std::string("metric ") + s.name + " was not measured");
      continue;
    }
    if (!metrics.empty()) metrics += ", ";
    metrics += std::string("\"") + s.name + "\": {\"value\": " +
               json_number(it->second) + ", \"unit\": \"" + s.unit + "\"}";
  }
  return std::string("{\"correct\": ") + (correct() ? "true" : "false") +
         ", \"attempted\": " + std::to_string(attempted_) +
         ", \"failed\": " + std::to_string(failed_) + ", \"metrics\": {" +
         metrics + "}}";
}

double RefSample::cost() const {
  double c = 0;
  for (const double v : cycles) c += v;
  return c;
}

std::vector<RefSample> load_reference(const fs::path& data_dir) {
  const fs::path path = data_dir / "ref" / "labels.tsv";
  std::ifstream in(path);
  if (!in) throw std::runtime_error("cannot read " + path.string());
  std::string line;
  std::getline(in, line);  // header
  std::vector<RefSample> out;
  while (std::getline(in, line)) {
    std::istringstream row(line);
    RefSample r;
    std::string dtype;
    row >> r.cfg.kernel >> dtype >> r.cfg.size_bytes >> r.label;
    if (dtype != "i32" && dtype != "f32") {
      throw std::runtime_error(path.string() + ": bad dtype in: " + line);
    }
    r.cfg.dtype = dtype == "i32" ? pulpc::kir::DType::I32
                                 : pulpc::kir::DType::F32;
    r.energy.resize(8);
    r.cycles.resize(8);
    for (double& e : r.energy) row >> e;
    for (double& c : r.cycles) row >> c;
    if (!row) throw std::runtime_error(path.string() + ": bad row: " + line);
    out.push_back(std::move(r));
  }
  const auto configs = pulpc::core::dataset_configs();
  if (out.size() != configs.size()) {
    throw std::runtime_error(path.string() + ": expected " +
                             std::to_string(configs.size()) + " rows");
  }
  for (std::size_t i = 0; i < out.size(); ++i) {
    if (out[i].cfg.kernel != configs[i].kernel ||
        out[i].cfg.dtype != configs[i].dtype ||
        out[i].cfg.size_bytes != configs[i].size_bytes) {
      throw std::runtime_error(path.string() + ": row " + std::to_string(i) +
                               " is not dataset_configs()[" +
                               std::to_string(i) + "]");
    }
  }
  return out;
}

std::size_t check_against_reference(const std::vector<pulpc::ml::Sample>& rows,
                                    const std::vector<const RefSample*>& ref,
                                    Report& report) {
  if (rows.size() != ref.size()) {
    report.fail("built " + std::to_string(rows.size()) + " rows for " +
                std::to_string(ref.size()) + " configurations");
    return ref.size();
  }
  std::size_t bad = 0;
  for (std::size_t i = 0; i < rows.size(); ++i) {
    const pulpc::ml::Sample& s = rows[i];
    const RefSample& r = *ref[i];
    const bool same = s.kernel == r.cfg.kernel && s.dtype == r.cfg.dtype &&
                      s.size_bytes == r.cfg.size_bytes && s.label == r.label &&
                      s.energy == r.energy && s.cycles == r.cycles;
    if (!same && ++bad <= 3) {
      report.fail("output differs from ref/labels.tsv for " + r.cfg.kernel +
                  "/" + pulpc::kir::to_string(r.cfg.dtype) + "/" +
                  std::to_string(r.cfg.size_bytes) + " (label " +
                  std::to_string(s.label) + ", reference " +
                  std::to_string(r.label) + "; energies " +
                  (s.energy == r.energy ? "match" : "differ") + ", cycles " +
                  (s.cycles == r.cycles ? "match" : "differ") + ")");
    }
  }
  return bad;
}

void Tracer::record(Span span) {
  const std::lock_guard<std::mutex> lock(mu_);
  const auto [it, fresh] =
      tids_.try_emplace(std::this_thread::get_id(), unsigned(tids_.size()));
  span.tid = it->second;
  spans_.push_back(span);
}

void Tracer::record(const char* name, std::uint64_t id, Clock::time_point t0,
                    Clock::time_point t1, std::uint64_t parent) {
  record(Span{name, id, next_sid_.fetch_add(1, std::memory_order_relaxed),
              parent, t0, t1, 0});
}

std::map<std::string, double> Tracer::self_seconds() const {
  const std::lock_guard<std::mutex> lock(mu_);
  std::map<std::uint64_t, double> child_time;
  for (const Span& s : spans_) {
    if (s.parent != 0) child_time[s.parent] += seconds_between(s.t0, s.t1);
  }
  std::map<std::string, double> out;
  for (const Span& s : spans_) {
    const auto it = child_time.find(s.sid);
    out[s.name] += seconds_between(s.t0, s.t1) -
                   (it == child_time.end() ? 0.0 : it->second);
  }
  return out;
}

std::vector<double> Tracer::durations_us(std::string_view name) const {
  const std::lock_guard<std::mutex> lock(mu_);
  std::vector<double> out;
  for (const Span& s : spans_) {
    if (name == s.name) out.push_back(1e6 * seconds_between(s.t0, s.t1));
  }
  return out;
}

std::size_t Tracer::size() const {
  const std::lock_guard<std::mutex> lock(mu_);
  return spans_.size();
}

fs::path trace_path(const Args& args) {
  return args.work_dir / "traces" /
         (args.workload + "-seed" + std::to_string(args.seed) + ".json");
}

void Tracer::write_chrome_json(const fs::path& path) const {
  const std::lock_guard<std::mutex> lock(mu_);
  fs::create_directories(path.parent_path());
  std::ofstream out(path);
  if (!out) throw std::runtime_error("cannot write " + path.string());
  out << "{\"displayTimeUnit\":\"ms\",\"traceEvents\":[";
  char buf[320];
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    std::snprintf(
        buf, sizeof buf,
        "%s\n{\"name\":\"%s\",\"ph\":\"X\",\"pid\":1,\"tid\":%u,"
        "\"ts\":%.3f,\"dur\":%.3f,\"args\":{\"id\":%llu,\"span\":%llu,"
        "\"parent\":%llu}}",
        i == 0 ? "" : ",", s.name, s.tid,
        1e6 * seconds_between(origin_, s.t0),
        1e6 * seconds_between(s.t0, s.t1),
        static_cast<unsigned long long>(s.id),
        static_cast<unsigned long long>(s.sid),
        static_cast<unsigned long long>(s.parent));
    out << buf;
  }
  out << "\n]}\n";
  if (!out.flush()) throw std::runtime_error("cannot write " + path.string());
}

}  // namespace perfbench
