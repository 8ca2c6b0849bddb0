// The benchmark's own tests: seeded inputs, the percentile rule, the
// declared metric names, and the refusal to time an assertion build.
#include <gtest/gtest.h>

#include <filesystem>
#include <fstream>
#include <regex>
#include <set>
#include <sstream>

#include "harness.hpp"

namespace perfbench {
namespace {

const std::filesystem::path kSourceDir = PERFBENCH_SOURCE_DIR;

TEST(Inputs, SameSeedSameBuildSample) {
  const auto a = build_cold_configs(kSourceDir, 7);
  const auto b = build_cold_configs(kSourceDir, 7);
  const auto c = build_cold_configs(kSourceDir, 8);
  ASSERT_EQ(a.size(), b.size());
  bool differs = false;
  for (std::size_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(a[i].kernel, b[i].kernel);
    EXPECT_EQ(a[i].dtype, b[i].dtype);
    EXPECT_EQ(a[i].size_bytes, b[i].size_bytes);
    differs |= a[i].kernel != c[i].kernel || a[i].dtype != c[i].dtype ||
               a[i].size_bytes != c[i].size_bytes;
  }
  EXPECT_TRUE(differs);
}

TEST(Inputs, SameSeedSameRequestSequence) {
  for (const bool hot : {true, false}) {
    const auto a = request_sequence(hot, 11, 5000);
    const auto b = request_sequence(hot, 11, 5000);
    const auto c = request_sequence(hot, 12, 5000);
    ASSERT_EQ(a.size(), 5000u);
    bool differs = false;
    for (std::size_t i = 0; i < a.size(); ++i) {
      EXPECT_EQ(a[i].pair, b[i].pair);
      EXPECT_EQ(a[i].size, b[i].size);
      differs |= a[i].pair != c[i].pair || a[i].size != c[i].size;
    }
    EXPECT_TRUE(differs);
  }
  // serve-hot cycles over all 112 pairs at one size.
  const auto hot = request_sequence(true, 3, 224);
  std::set<std::uint32_t> first, second;
  for (std::size_t i = 0; i < 112; ++i) {
    first.insert(hot[i].pair);
    second.insert(hot[i + 112].pair);
    EXPECT_EQ(hot[i].pair, hot[i + 112].pair);
    EXPECT_EQ(hot[i].size, hot[0].size);
  }
  EXPECT_EQ(first.size(), 112u);
}

TEST(Percentile, NeedsTenSamplesBeyond) {
  std::vector<double> v;
  for (int i = 1; i <= 999; ++i) v.push_back(i);
  EXPECT_FALSE(percentile(v, 0.99).has_value());  // 9 beyond rank 990
  v.push_back(1000);
  ASSERT_TRUE(percentile(v, 0.99).has_value());  // 10 beyond rank 990
  EXPECT_EQ(*percentile(v, 0.99), 990);
  EXPECT_EQ(*percentile(v, 0.5), 500);
  EXPECT_FALSE(percentile(std::vector<double>(19, 1.0), 0.5).has_value());
  EXPECT_TRUE(percentile(std::vector<double>(20, 1.0), 0.5).has_value());
  EXPECT_FALSE(percentile({}, 0.5).has_value());
}

/// Names listed in one top-level array of BENCHMARK.json.
std::set<std::string> declared(const std::string& json, const std::string& key) {
  const std::size_t at = json.find("\"" + key + "\"");
  EXPECT_NE(at, std::string::npos) << key;
  const std::size_t open = json.find('[', at);
  const std::size_t close = json.find(']', open);
  const std::string body = json.substr(open, close - open);
  std::set<std::string> names;
  const std::regex name_re("\"name\"\\s*:\\s*\"([^\"]*)\"");
  for (std::sregex_iterator it(body.begin(), body.end(), name_re), end;
       it != end; ++it) {
    names.insert((*it)[1]);
  }
  return names;
}

TEST(Names, EveryPrintedNameIsDeclared) {
  std::ifstream in(kSourceDir / ".." / "BENCHMARK.json");
  ASSERT_TRUE(in) << "BENCHMARK.json not found";
  std::stringstream ss;
  ss << in.rdbuf();
  const std::string json = ss.str();
  const std::regex ok("[A-Za-z0-9_.-]+");
  const auto check = [&](const std::set<std::string>& want,
                         const std::vector<std::string>& printed) {
    EXPECT_EQ(want, std::set<std::string>(printed.begin(), printed.end()));
    for (const std::string& n : printed) {
      EXPECT_TRUE(std::regex_match(n, ok)) << n;
    }
  };
  std::vector<std::string> e2e, layers;
  for (const MetricSpec& m : end_to_end_metrics()) e2e.push_back(m.name);
  for (const MetricSpec& m : per_layer_metrics()) layers.push_back(m.name);
  check(declared(json, "workloads"), workload_names());
  check(declared(json, "end_to_end"), e2e);
  check(declared(json, "per_layer"), layers);
}

TEST(Names, ReportRejectsUndeclaredMetric) {
  Report untraced(false);
  EXPECT_NO_THROW(untraced.set("wall_s", 1));
  EXPECT_THROW(untraced.set("sim.busy_s", 1), std::logic_error);
  Report traced(true);
  EXPECT_NO_THROW(traced.set("sim.busy_s", 1));
  EXPECT_THROW(traced.set("no_such_metric", 1), std::logic_error);
  // A run that misses a declared metric is not correct.
  (void)untraced.json();
  EXPECT_FALSE(untraced.correct());
}

TEST(BuildMode, RefusesAssertionBuild) {
  const std::filesystem::path work =
      std::filesystem::current_path() / "refuse-test-work";
  std::filesystem::remove_all(work);
  const std::string data = kSourceDir.string(), w = work.string();
  const char* argv[] = {"pulpc_perf", "--workload", "build-cold", "--seed", "1",
                        "--seconds", "1", "--trace", "0", "--data-dir",
                        data.c_str(), "--work-dir", w.c_str()};
  EXPECT_EQ(run_main(13, argv, /*assertions_on=*/true), 3);
  EXPECT_FALSE(std::filesystem::exists(work));  // nothing was run
}

TEST(BuildMode, RejectsBadArguments) {
  const char* argv[] = {"pulpc_perf", "--workload", "nope", "--seed", "1"};
  EXPECT_EQ(run_main(5, argv, false), 2);
}

}  // namespace
}  // namespace perfbench
