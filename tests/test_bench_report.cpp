#include <gtest/gtest.h>

#include <unistd.h>

#include <filesystem>
#include <fstream>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "../bench/bench_common.hpp"
#include "obs/bench_report.hpp"
#include "obs/json.hpp"

namespace taamr::obs {
namespace {

BenchReport sample_report() {
  BenchReport r;
  r.name = "table2_chr";
  r.scale = 0.004;
  r.seed = 42;
  r.threads = 8;
  r.git_sha = "abc1234";
  r.build_type = "Release";
  r.wall_seconds = 10.0;
  r.examples = 64.0;
  r.flops_total = 5e10;
  r.bytes_total = 2e9;
  r.kernels.push_back({"gemm", 4e10, 1e9});
  r.kernels.push_back({"reduction", 1e10, 1e9});
  r.peak_rss_bytes = 100 << 20;
  r.tensor_high_water_bytes = 50 << 20;
  r.metrics.push_back({"chr_after_source",
                       {{"dataset", "Amazon Men"}, {"model", "VBPR"}},
                       0.0436});
  r.metrics.push_back({"success_rate", {{"attack", "PGD"}}, 0.97});
  return r;
}

TEST(BenchReport, JsonRoundTrip) {
  const BenchReport r = sample_report();
  const json::Value doc = json::parse(r.to_json());
  EXPECT_TRUE(validate_bench_report(doc).empty())
      << "violations in: " << r.to_json();
  const BenchReport back = parse_bench_report(doc);
  EXPECT_EQ(back.name, r.name);
  EXPECT_DOUBLE_EQ(back.scale, r.scale);
  EXPECT_EQ(back.seed, r.seed);
  EXPECT_EQ(back.threads, r.threads);
  EXPECT_EQ(back.git_sha, r.git_sha);
  EXPECT_DOUBLE_EQ(back.wall_seconds, r.wall_seconds);
  EXPECT_DOUBLE_EQ(back.flops_total, r.flops_total);
  ASSERT_EQ(back.kernels.size(), r.kernels.size());
  EXPECT_EQ(back.kernels[0].kernel, "gemm");
  EXPECT_DOUBLE_EQ(back.kernels[0].flops, 4e10);
  ASSERT_EQ(back.metrics.size(), r.metrics.size());
  EXPECT_EQ(back.metrics[0].name, "chr_after_source");
  EXPECT_EQ(back.metrics[0].labels.size(), 2u);
  EXPECT_DOUBLE_EQ(back.metrics[0].value, 0.0436);
  EXPECT_DOUBLE_EQ(back.gflops(), r.gflops());
}

TEST(BenchReport, DerivedRatesGuardAgainstZeroWall) {
  BenchReport r;
  EXPECT_DOUBLE_EQ(r.gflops(), 0.0);
  EXPECT_DOUBLE_EQ(r.gib_per_sec(), 0.0);
  EXPECT_DOUBLE_EQ(r.examples_per_sec(), 0.0);
  r.wall_seconds = 2.0;
  r.flops_total = 4e9;
  EXPECT_DOUBLE_EQ(r.gflops(), 2.0);
}

TEST(BenchReport, ValidationCatchesMissingKeys) {
  EXPECT_FALSE(validate_bench_report(json::parse("{}")).empty());
  // Drop one required key at a time and expect a named violation.
  const std::string good = sample_report().to_json();
  for (const char* key : {"\"schema_version\"", "\"wall_seconds\"", "\"config\"",
                          "\"throughput\"", "\"memory\"", "\"metrics\""}) {
    const std::size_t pos = good.find(key);
    ASSERT_NE(pos, std::string::npos) << key;
    // Rename the key so it is "missing" while the JSON stays parseable.
    const std::string broken =
        good.substr(0, pos + 1) + "X" + good.substr(pos + 2);
    const auto violations = validate_bench_report(json::parse(broken));
    EXPECT_FALSE(violations.empty()) << "no violation after hiding " << key;
  }
}

TEST(BenchReport, ValidationCatchesWrongTypes) {
  const std::string good = sample_report().to_json();
  const std::size_t pos = good.find("\"wall_seconds\":");
  ASSERT_NE(pos, std::string::npos);
  const std::size_t value_at = pos + 15;
  const std::size_t comma = good.find(',', value_at);
  ASSERT_NE(comma, std::string::npos);
  // Quote the number so the key survives but carries the wrong type.
  const std::string doc = good.substr(0, value_at) + "\"" +
                          good.substr(value_at, comma - value_at) + "\"" +
                          good.substr(comma);
  EXPECT_FALSE(validate_bench_report(json::parse(doc)).empty());
}

TEST(BenchReport, ParseThrowsOnInvalid) {
  EXPECT_THROW(parse_bench_report(json::parse("{}")), std::runtime_error);
}

TEST(BenchReport, CompareIdenticalPasses) {
  const BenchReport r = sample_report();
  EXPECT_TRUE(compare_bench_reports(r, r, {}).empty());
}

TEST(BenchReport, CompareFlagsThroughputRegression) {
  const BenchReport baseline = sample_report();
  BenchReport current = baseline;
  // 9x less work per second than baseline claims -> GFLOP/s regression.
  current.flops_total = baseline.flops_total / 9.0;
  const auto regressions = compare_bench_reports(baseline, current, {});
  EXPECT_FALSE(regressions.empty());
}

TEST(BenchReport, CompareFlagsWallTimeRegression) {
  const BenchReport baseline = sample_report();
  BenchReport current = baseline;
  current.wall_seconds = baseline.wall_seconds * 1.5;
  // Slower wall AND lower GFLOP/s / examples/sec at equal totals.
  EXPECT_FALSE(compare_bench_reports(baseline, current, {}).empty());
}

TEST(BenchReport, CompareToleratesChangesUnderThreshold) {
  const BenchReport baseline = sample_report();
  BenchReport current = baseline;
  current.wall_seconds = baseline.wall_seconds * 1.05;  // 5% < 10% default
  CompareOptions opts;
  EXPECT_TRUE(compare_bench_reports(baseline, current, opts).empty());
}

TEST(BenchReport, CompareFlagsMetricDrift) {
  const BenchReport baseline = sample_report();
  BenchReport current = baseline;
  current.metrics[0].value = baseline.metrics[0].value * 2.0;
  const auto regressions = compare_bench_reports(baseline, current, {});
  ASSERT_FALSE(regressions.empty());
  EXPECT_NE(regressions[0].find("chr_after_source"), std::string::npos);
}

TEST(BenchReport, CompareFlagsMissingMetric) {
  const BenchReport baseline = sample_report();
  BenchReport current = baseline;
  current.metrics.pop_back();
  EXPECT_FALSE(compare_bench_reports(baseline, current, {}).empty());
}

TEST(BenchReport, CompareIgnoresFasterRuns) {
  const BenchReport baseline = sample_report();
  BenchReport current = baseline;
  current.wall_seconds = baseline.wall_seconds * 0.5;
  current.flops_total = baseline.flops_total;  // 2x the GFLOP/s
  EXPECT_TRUE(compare_bench_reports(baseline, current, {}).empty());
}

TEST(BenchReport, ReporterCreatesMissingNestedBenchDir) {
  const std::filesystem::path root = std::filesystem::path(::testing::TempDir()) /
                                     ("taamr_reporter_" + std::to_string(::getpid()));
  std::filesystem::remove_all(root);
  const std::filesystem::path dir = root / "a" / "b";
  ::setenv("TAAMR_BENCH_DIR", dir.c_str(), 1);
  // On its own thread: the Reporter names the thread it is built on. Its
  // destructor writes the artifact.
  std::thread([] {
    bench::Reporter reporter("reporter_unit");
    reporter.add_examples(1.0);
  }).join();
  ::unsetenv("TAAMR_BENCH_DIR");

  std::ifstream in(dir / "BENCH_reporter_unit.json");
  ASSERT_TRUE(in.good()) << "no artifact under " << dir;
  std::stringstream text;
  text << in.rdbuf();
  const BenchReport report = parse_bench_report(json::parse(text.str()));
  EXPECT_EQ(report.name, "reporter_unit");
  EXPECT_DOUBLE_EQ(report.examples, 1.0);
  std::filesystem::remove_all(root);
}

}  // namespace
}  // namespace taamr::obs
