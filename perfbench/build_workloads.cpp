// build-cold and iterate-warm: the researcher's side of pulpclass.
//
// Untraced rounds call the library's own entry points (core::build_dataset,
// core::relabel, EnergyClassifier::train, ml::evaluate). Traced rounds run
// the same stages composed from the public stage functions, with a span
// around every call, because the library records no spans of its own.
#include <algorithm>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <map>
#include <mutex>
#include <optional>
#include <sstream>
#include <stdexcept>

#include "core/artifacts.hpp"
#include "core/classifier.hpp"
#include "core/parallel.hpp"
#include "feat/features.hpp"
#include "harness.hpp"
#include "kernels/registry.hpp"
#include "kir/verify.hpp"
#include "ml/cv.hpp"
#include "sim/cluster.hpp"

namespace perfbench {

namespace fs = std::filesystem;
using namespace pulpc;

namespace {

/// Configurations whose reference cost (simulated kernel cycles over the
/// eight core counts) exceeds this are left out of both build workloads:
/// 64 of the 448 configurations, mostly the 32768-byte instances, which
/// hold 96% of the simulated cycles of the full dataset (durbin at 32768
/// bytes alone 75%). Timed rounds then stay near a second, so a run
/// takes the median of many, and no single sample sets a round's wall
/// time through the parallel tail.
constexpr double kMaxCost = 2.0e6;
/// Configurations of the store-less warm-up build in build-cold's set-up:
/// enough work (about 0.07 s on 4 threads) that the set-up time repeats
/// within a tenth; 32 took 12-40 ms and moved by 70% between runs.
constexpr std::size_t kWarmUp = 128;
/// Cross-validation repetitions per iterate-warm round (the paper: 100).
constexpr unsigned kCvRepeats = 100;
constexpr unsigned kCvFolds = 10;

/// Committed CV accuracy at one tolerance (ref/cv.tsv): a seed's
/// accuracy must lie within `band` of `accuracy`.
struct CvReference {
  double tolerance = 0;
  double accuracy = 0;
  double band = 0;
};

std::vector<CvReference> load_cv_reference(const fs::path& data_dir) {
  const fs::path path = data_dir / "ref" / "cv.tsv";
  std::ifstream in(path);
  if (!in) throw std::runtime_error("cannot read " + path.string());
  std::string line;
  std::vector<CvReference> out;
  while (std::getline(in, line)) {
    if (line.empty() || line[0] == '#') continue;
    std::istringstream row(line);
    CvReference r;
    if (!(row >> r.tolerance >> r.accuracy >> r.band)) {
      throw std::runtime_error(path.string() + ": bad row: " + line);
    }
    out.push_back(r);
  }
  if (out.empty()) throw std::runtime_error(path.string() + ": no rows");
  return out;
}

void check_cv(const ml::EvalResult& cv, const std::vector<CvReference>& ref,
              Report& report) {
  for (const CvReference& r : ref) {
    const double got = cv.accuracy_at(r.tolerance);
    if (std::abs(got - r.accuracy) > r.band) {
      report.fail("CV accuracy at " + std::to_string(r.tolerance) + " is " +
                  std::to_string(got) + ", reference " +
                  std::to_string(r.accuracy) + " +- " +
                  std::to_string(r.band));
    }
  }
}

std::vector<const RefSample*> eligible(const std::vector<RefSample>& ref) {
  std::vector<const RefSample*> out;
  for (const RefSample& r : ref) {
    if (r.cost() <= kMaxCost) out.push_back(&r);
  }
  return out;
}

std::vector<core::SampleConfig> configs_of(
    const std::vector<const RefSample*>& refs) {
  std::vector<core::SampleConfig> out;
  out.reserve(refs.size());
  for (const RefSample* r : refs) out.push_back(r->cfg);
  return out;
}

/// The `n` configurations of lowest reference cost (set-up warm-up).
std::vector<core::SampleConfig> cheapest(const std::vector<RefSample>& ref,
                                         std::size_t n) {
  std::vector<const RefSample*> all;
  for (const RefSample& r : ref) all.push_back(&r);
  std::stable_sort(all.begin(), all.end(),
                   [](const RefSample* a, const RefSample* b) {
                     return a->cost() < b->cost();
                   });
  all.resize(n);
  return configs_of(all);
}

/// One timed round of a build workload.
struct Round {
  double wall = 0;
  double cpu = 0;
  std::vector<double> sample_us;  ///< per-sample latency (untraced rounds)
  core::StageReport stages;
  std::vector<ml::Sample> rows;
  std::optional<ml::EvalResult> cv;
};

/// Progress callback that turns completions into per-sample latencies.
/// build_dataset/relabel invoke it on the worker that finished the
/// sample, right after the sample's last stage, and a core::ThreadPool
/// worker takes its next sample as soon as it finishes one; so the time
/// since the same thread's previous completion (or since the round
/// started) is the latency of one sample. Calls are serialized by the
/// library.
class SampleClock {
 public:
  SampleClock(Clock::time_point start, std::vector<double>* out)
      : start_(start), out_(out) {}
  void operator()(std::size_t, std::size_t) {
    const Clock::time_point now = Clock::now();
    const auto [it, fresh] =
        last_.try_emplace(std::this_thread::get_id(), start_);
    out_->push_back(1e6 * seconds_between(it->second, now));
    it->second = now;
  }

 private:
  Clock::time_point start_;
  std::vector<double>* out_;
  std::map<std::thread::id, Clock::time_point> last_;
};

core::BuildOptions build_options() {
  core::BuildOptions opt;
  opt.threads = kThreads;
  // build_dataset never reads the dataset CSV cache; keep it disabled
  // explicitly so no run can be served from a cached file.
  opt.cache_path = std::string{};
  return opt;
}

/// Counters of a traced composition, merged under a mutex.
struct TraceCounts {
  std::uint64_t simulated_runs = 0;
  std::uint64_t replayed_runs = 0;
  std::uint64_t store_records = 0;
  std::uint64_t sim_cycles = 0;
  std::uint64_t ff_cycles = 0;
  double pool_wait_s = 0;
};

/// The stages of build_dataset/relabel composed from public functions,
/// with a span around each call. Returns the rows in `cfgs` order.
std::vector<ml::Sample> traced_rows(const core::ArtifactStore& store,
                                    const std::vector<core::SampleConfig>& cfgs,
                                    const core::BuildOptions& opt,
                                    Tracer& tr, std::uint64_t id_base,
                                    TraceCounts& counts) {
  std::vector<ml::Sample> rows(cfgs.size());
  std::mutex mu;
  core::ThreadPool pool(opt.threads);
  const Clock::time_point posted = Clock::now();
  pool.parallel_for(cfgs.size(), [&](std::size_t i) {
    const double waited = seconds_between(posted, Clock::now());
    const core::SampleConfig& cfg = cfgs[i];
    const std::uint64_t id = id_base + i;
    TraceCounts local;
    const Tracer::Scope task(tr, "core.task", id);
    const kir::Program prog = [&] {
      const Tracer::Scope s(tr, "dsl.lower", id, task.sid());
      return core::lower_sample(cfg);
    }();
    {
      kir::VerifyReport vr;
      {
        const Tracer::Scope s(tr, "kir.verify", id, task.sid());
        vr = kir::verify_program(prog);
      }
      if (!vr.ok()) throw std::runtime_error("verifier rejects " + cfg.kernel);
      const Tracer::Scope s(tr, "core.store_write", id, task.sid());
      store.save_diag(cfg, vr.diags.empty() ? std::string{} : vr.to_string());
    }
    const std::uint64_t phash = [&] {
      const Tracer::Scope s(tr, "core.hash", id, task.sid());
      return core::program_hash(prog);
    }();
    std::vector<sim::RunStats> runs;
    std::optional<sim::Cluster> cluster;
    for (unsigned c = 1; c <= opt.max_cores; ++c) {
      sim::RunStats replayed;
      bool hit = false;
      {
        const Tracer::Scope s(tr, "core.store_read", id, task.sid());
        hit = store.load(cfg, c, phash, &replayed);
      }
      if (hit) {
        ++local.replayed_runs;
        runs.push_back(std::move(replayed));
        continue;
      }
      if (!cluster) {
        const Tracer::Scope s(tr, "sim.load", id, task.sid());
        cluster.emplace(opt.cluster, opt.sim);
        cluster->load(prog);
      }
      sim::RunResult run;
      {
        const Tracer::Scope s(tr, c == 1 ? "sim.run_c1" : "sim.run_cmulti",
                              id, task.sid());
        run = cluster->run(c);
      }
      if (!run.ok) throw std::runtime_error(cfg.kernel + ": " + run.error);
      {
        const Tracer::Scope s(tr, "core.store_write", id, task.sid());
        store.save(cfg, c, phash, run.stats);
      }
      ++local.simulated_runs;
      ++local.store_records;
      local.sim_cycles += run.stats.total_cycles;
      local.ff_cycles += run.ff_cycles;
      runs.push_back(std::move(run.stats));
    }
    const core::SampleLabel label = [&] {
      const Tracer::Scope s(tr, "energy.label", id, task.sid());
      return core::label_sample(runs, opt.energy);
    }();
    std::vector<double> features = [&] {
      const Tracer::Scope s(tr, "feat.featurize", id, task.sid());
      return core::featurize_sample(prog, runs, opt.mca);
    }();
    ml::Sample row = [&] {
      const Tracer::Scope s(tr, "core.assemble", id, task.sid());
      return core::assemble_sample(cfg, kernels::kernel_info(cfg.kernel).suite,
                                   label, std::move(features));
    }();
    const std::lock_guard<std::mutex> lock(mu);
    rows[i] = std::move(row);
    counts.simulated_runs += local.simulated_runs;
    counts.replayed_runs += local.replayed_runs;
    counts.store_records += local.store_records;
    counts.sim_cycles += local.sim_cycles;
    counts.ff_cycles += local.ff_cycles;
    counts.pool_wait_s += waited;
  });
  {
    const Tracer::Scope s(tr, "core.store_write", id_base);
    store.flush();
  }
  return rows;
}

/// Layer metrics of the traced rounds (per-round means), shared by both
/// build workloads. `region_wall` is the summed wall time of the traced
/// build regions (store open .. flush) over all rounds. core.pool_wait_s
/// sums, over the samples of a round, the time each sample was queued
/// before a worker took it.
void report_build_layers(const Tracer& tr, const TraceCounts& counts,
                         std::size_t rounds, double region_wall,
                         Report& report) {
  std::map<std::string, double> self = tr.self_seconds();
  const double n = double(rounds);
  const auto per_round = [&](const char* name) { return self[name] / n; };
  const double sim_busy = per_round("sim.load") + per_round("sim.run_c1") +
                          per_round("sim.run_cmulti");
  report.set("dsl.lower_s", per_round("dsl.lower"));
  report.set("kir.verify_s", per_round("kir.verify"));
  report.set("sim.busy_s", sim_busy);
  report.set("sim.c1_busy_s", per_round("sim.run_c1"));
  report.set("sim.cmulti_busy_s", per_round("sim.run_cmulti"));
  report.set("sim.mcycles", double(counts.sim_cycles) / 1e6 / n);
  report.set("sim.mcyc_per_s",
             sim_busy > 0 ? double(counts.sim_cycles) / 1e6 / n / sim_busy : 0);
  report.set("sim.ff_share", counts.sim_cycles > 0
                                 ? double(counts.ff_cycles) /
                                       double(counts.sim_cycles)
                                 : 0);
  report.set("core.store_write_s", per_round("core.store_write"));
  report.set("core.store_records", double(counts.store_records) / n);
  report.set("core.store_read_s", per_round("core.store_read"));
  report.set("core.hash_s", per_round("core.hash"));
  report.set("core.assemble_s", per_round("core.assemble"));
  report.set("core.replayed_runs", double(counts.replayed_runs) / n);
  report.set("core.simulated_runs", double(counts.simulated_runs) / n);
  report.set("energy.label_s", per_round("energy.label"));
  report.set("feat.featurize_s", per_round("feat.featurize"));
  report.set("core.pool_wait_s", counts.pool_wait_s / n);

  // Coverage: every thread-second of the build region is inside a named
  // layer span, idle in the pool, or unattributed: the self time of
  // core.task, the bookkeeping between a sample's stage calls. The
  // unattributed share is reported, not spread over the layers, and may
  // not exceed a few percent.
  double named = 0;
  for (const auto& [name, secs] : self) {
    if (name != "core.task" && name.rfind("ml.", 0) != 0) named += secs;
  }
  const double unattributed = self["core.task"];
  const double capacity = double(kThreads) * region_wall;
  const double idle = capacity - named - unattributed;
  report.set("core.pool_idle_s", idle / n);
  report.set("core.unattributed_s", unattributed / n);
  report.set("core.coverage", (named + idle) / capacity);
  if (unattributed > 0.05 * capacity) {
    report.fail("traced build: " + std::to_string(100 * unattributed / capacity) +
                "% of threads x wall is unattributed");
  }
  report.set("trace.spans", double(tr.size()));
  report.set("proc.peak_rss_mib", peak_rss_mib());
}

void report_end_to_end(const std::vector<Round>& rounds, double setup_s,
                       Report& report) {
  std::vector<double> wall, cpu, lat;
  for (const Round& r : rounds) {
    wall.push_back(r.wall);
    cpu.push_back(r.cpu);
    lat.insert(lat.end(), r.sample_us.begin(), r.sample_us.end());
  }
  const double w = median(wall);
  report.set("setup_s", setup_s);
  report.set("wall_s", w);
  report.set("cpu_s", median(cpu));
  report.set("ops_per_s", double(rounds.front().rows.size()) / w);
  report.set("p50_us", median(lat));
}

/// The metrics every traced build run adds to its layers, and the span
/// file.
void finish_traced(const Args& args, const std::vector<Round>& rounds,
                   const std::vector<Round>& traced, const Tracer& tr,
                   Report& report) {
  std::vector<double> lat, untraced_wall, traced_wall;
  for (const Round& r : rounds) {
    lat.insert(lat.end(), r.sample_us.begin(), r.sample_us.end());
    untraced_wall.push_back(r.wall);
  }
  for (const Round& r : traced) traced_wall.push_back(r.wall);
  report.set("tail.p99_us", percentile(lat, 0.99).value_or(0));
  report.set("tail.samples", double(lat.size()));
  report.set("trace_overhead_ratio",
             median(traced_wall) / median(untraced_wall));
  tr.write_chrome_json(trace_path(args));
}

/// Rounds until `seconds` have elapsed; at least `min_rounds`.
template <typename Fn>
std::vector<Round> timed_rounds(double seconds, std::size_t min_rounds,
                                Fn&& round) {
  std::vector<Round> out;
  const Clock::time_point t0 = Clock::now();
  while (out.size() < min_rounds ||
         seconds_between(t0, Clock::now()) < seconds) {
    out.push_back(round(out.size()));
  }
  return out;
}

/// build-cold's seeded sample: for every (kernel, size) of the eligible
/// configurations, one element type drawn by the seed. The i32 and f32
/// instances of a kernel simulate nearly the same cycles, so every seed
/// builds about the same amount of work (201 of the 384 configurations).
std::vector<const RefSample*> build_cold_sample(
    const std::vector<RefSample>& ref, std::uint64_t seed) {
  std::map<std::pair<std::string, std::uint32_t>, std::vector<const RefSample*>>
      groups;
  for (const RefSample* r : eligible(ref)) {
    groups[{r->cfg.kernel, r->cfg.size_bytes}].push_back(r);
  }
  Rng rng(seed);
  std::vector<const RefSample*> out;
  for (const auto& [key, members] : groups) {
    out.push_back(members[rng.below(members.size())]);
  }
  // Registry order, as core::dataset_configs() lists them.
  std::sort(out.begin(), out.end());
  return out;
}

}  // namespace

std::vector<core::SampleConfig> build_cold_configs(
    const fs::path& data_dir, std::uint64_t seed) {
  const std::vector<RefSample> ref = load_reference(data_dir);
  return configs_of(build_cold_sample(ref, seed));
}

void run_build_cold(const Args& args, Report& report) {
  // Set-up: read the reference, draw the seeded sample, and warm the
  // allocator and code paths with one small throwaway build.
  // Repeated three times; the median is reported.
  std::vector<RefSample> ref;
  std::vector<const RefSample*> sample;
  std::vector<core::SampleConfig> cfgs;
  std::vector<double> setups;
  for (int rep = 0; rep < 3; ++rep) {
    const Clock::time_point t0 = Clock::now();
    ref = load_reference(args.data_dir);
    sample = build_cold_sample(ref, args.seed);
    cfgs = configs_of(sample);
    core::BuildOptions opt = build_options();
    opt.artifact_dir = std::string{};  // no store: keep disk flushes out
    (void)core::build_dataset(cheapest(ref, kWarmUp), opt);
    setups.push_back(seconds_between(t0, Clock::now()));
  }
  const double setup_s = median(setups);

  const auto untraced = [&](std::size_t k) {
    const fs::path dir = args.work_dir / ("store-" + std::to_string(k));
    fs::remove_all(dir);
    core::BuildOptions opt = build_options();
    opt.artifact_dir = dir.string();  // fresh and empty
    Round r;
    opt.stage_report = [&](const core::StageReport& s) { r.stages = s; };
    const double cpu0 = process_cpu_seconds();
    const Clock::time_point t0 = Clock::now();
    const ml::Dataset ds =
        core::build_dataset(cfgs, opt, SampleClock(t0, &r.sample_us));
    r.wall = seconds_between(t0, Clock::now());
    r.cpu = process_cpu_seconds() - cpu0;
    r.rows = ds.samples();
    fs::remove_all(dir);
    return r;
  };

  const double untraced_seconds = args.trace ? args.seconds / 2 : args.seconds;
  const std::vector<Round> rounds = timed_rounds(untraced_seconds, 2, untraced);
  std::uint64_t bad = 0;
  for (const Round& r : rounds) {
    bad += check_against_reference(r.rows, sample, report);
    // Path guard: a cold build simulates every run and replays none.
    if (r.stages.replayed_runs != 0 ||
        r.stages.simulated_runs != 8 * cfgs.size()) {
      report.fail("build-cold replayed " +
                  std::to_string(r.stages.replayed_runs) + " and simulated " +
                  std::to_string(r.stages.simulated_runs) + " runs");
    }
  }
  report.attempt(rounds.size() * cfgs.size(), bad);

  if (!args.trace) {
    report_end_to_end(rounds, setup_s, report);
    return;
  }

  report.zero_layers();
  Tracer tr;
  TraceCounts counts;
  double region_wall = 0;
  const auto traced = [&](std::size_t k) {
    const fs::path dir = args.work_dir / ("traced-store-" + std::to_string(k));
    fs::remove_all(dir);
    const core::BuildOptions opt = build_options();
    Round r;
    const Clock::time_point t0 = Clock::now();
    {
      std::optional<core::ArtifactStore> store;
      {
        const Tracer::Scope s(tr, "core.store_write", k << 32);
        store.emplace(dir.string(), opt.cluster);
      }
      r.rows = traced_rows(*store, cfgs, opt, tr, k << 32, counts);
    }
    r.wall = seconds_between(t0, Clock::now());
    region_wall += r.wall;
    fs::remove_all(dir);
    return r;
  };
  const std::vector<Round> traced_runs =
      timed_rounds(args.seconds / 2, 1, traced);
  for (const Round& r : traced_runs) {
    check_against_reference(r.rows, sample, report);
  }
  report_build_layers(tr, counts, traced_runs.size(), region_wall, report);
  finish_traced(args, rounds, traced_runs, tr, report);
}

void run_iterate_warm(const Args& args, Report& report) {
  const std::vector<RefSample> ref = load_reference(args.data_dir);
  const std::vector<const RefSample*> refs = eligible(ref);
  const std::vector<core::SampleConfig> cfgs = configs_of(refs);
  const std::vector<CvReference> cv_ref = load_cv_reference(args.data_dir);
  const std::vector<std::string> columns =
      feat::feature_set_columns(feat::FeatureSet::Agg);
  ml::EvalOptions eval;
  eval.folds = kCvFolds;
  eval.repeats = kCvRepeats;
  eval.seed = args.seed;
  eval.threads = kThreads;

  // Set-up: fill a fresh store by simulating every configuration (the
  // expensive step this workload's loop avoids). Repeated three times;
  // the median is reported.
  const fs::path dir = args.work_dir / "warm-store";
  std::vector<double> setups;
  std::optional<core::ArtifactStore> store;
  for (int rep = 0; rep < 3; ++rep) {
    store.reset();
    fs::remove_all(dir);
    const Clock::time_point t0 = Clock::now();
    store.emplace(dir.string(), build_options().cluster);
    (void)core::populate_store(*store, cfgs, build_options());
    setups.push_back(seconds_between(t0, Clock::now()));
  }
  const double setup_s = median(setups);

  const auto fit = [&](const ml::Dataset& ds) {
    core::EnergyClassifier::Options o;
    o.features = feat::FeatureSet::Agg;
    core::EnergyClassifier clf(o);
    clf.train(ds);
    return clf;
  };
  const auto untraced = [&](std::size_t) {
    core::BuildOptions opt = build_options();
    Round r;
    opt.stage_report = [&](const core::StageReport& st) { r.stages = st; };
    const double cpu0 = process_cpu_seconds();
    const Clock::time_point t0 = Clock::now();
    const ml::Dataset ds =
        core::relabel(*store, cfgs, opt, SampleClock(t0, &r.sample_us));
    (void)fit(ds);
    r.cv = ml::evaluate(ds, columns, eval);
    r.wall = seconds_between(t0, Clock::now());
    r.cpu = process_cpu_seconds() - cpu0;
    r.rows = ds.samples();
    return r;
  };
  const double untraced_seconds = args.trace ? args.seconds / 2 : args.seconds;
  const std::vector<Round> rounds = timed_rounds(untraced_seconds, 2, untraced);

  std::uint64_t bad = 0;
  for (const Round& r : rounds) {
    bad += check_against_reference(r.rows, refs, report);
    // Path guard: the loop replays every run and simulates none.
    if (r.stages.simulated_runs != 0 ||
        r.stages.replayed_runs != 8 * cfgs.size()) {
      report.fail("iterate-warm simulated " +
                  std::to_string(r.stages.simulated_runs) + " and replayed " +
                  std::to_string(r.stages.replayed_runs) + " runs");
    }
    if (r.cv->accuracy != rounds.front().cv->accuracy) {
      report.fail("iterate-warm: CV accuracy differs between rounds");
    }
  }
  check_cv(*rounds.front().cv, cv_ref, report);
  report.attempt(rounds.size() * cfgs.size(), bad);

  if (!args.trace) {
    report_end_to_end(rounds, setup_s, report);
    return;
  }

  report.zero_layers();
  Tracer tr;
  TraceCounts counts;
  double region_wall = 0;
  const auto traced = [&](std::size_t k) {
    const core::BuildOptions opt = build_options();
    Round r;
    const Clock::time_point t0 = Clock::now();
    r.rows = traced_rows(*store, cfgs, opt, tr, k << 32, counts);
    region_wall += seconds_between(t0, Clock::now());
    ml::Dataset ds(core::dataset_columns(opt.max_cores));
    for (const ml::Sample& s : r.rows) ds.add(s);
    {
      const Tracer::Scope s(tr, "ml.fit", k << 32);
      (void)fit(ds);
    }
    {
      const Tracer::Scope s(tr, "ml.cv", k << 32);
      r.cv = ml::evaluate(ds, columns, eval);
    }
    r.wall = seconds_between(t0, Clock::now());
    return r;
  };
  const std::vector<Round> traced_runs =
      timed_rounds(args.seconds / 2, 1, traced);
  for (const Round& r : traced_runs) {
    check_against_reference(r.rows, refs, report);
    if (r.cv->accuracy != rounds.front().cv->accuracy) {
      report.fail("iterate-warm: traced CV accuracy differs");
    }
  }
  report_build_layers(tr, counts, traced_runs.size(), region_wall, report);
  std::map<std::string, double> self = tr.self_seconds();
  report.set("ml.fit_s", self["ml.fit"] / double(traced_runs.size()));
  report.set("ml.cv_s", self["ml.cv"] / double(traced_runs.size()));
  report.set("ml.cv_fits", double(kCvFolds * kCvRepeats));
  finish_traced(args, rounds, traced_runs, tr, report);
}

}  // namespace perfbench
