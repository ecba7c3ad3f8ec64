// Tests of the benchmark itself: the percentile helper, the staged batch
// driver against CrowdRlFramework::Run, the layer ledger's wrappers
// (instrumented == uninstrumented, thread safety, agreement with the
// program's own trace spans) and the serve driver's output checks.
//
//   python3 perfbench/run.py --test
// (builds the target and runs it inside the build tree, where it keeps its
// scratch files).

#include <gtest/gtest.h>

#include <filesystem>
#include <fstream>
#include <map>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "bench/bench_common.h"
#include "core/crowdrl.h"
#include "data/workloads.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "perfbench/ledger.h"
#include "perfbench/stats.h"
#include "perfbench/workloads.h"
#include "tests/testing/mini_json.h"

namespace crowdrl::perfbench {
namespace {

namespace fs = std::filesystem;
using ledger::Layer;

std::vector<double> Range(int from, int to) {
  std::vector<double> values;
  for (int v = from; v <= to; ++v) values.push_back(v);
  return values;
}

TEST(StatsTest, QuantileInterpolatesBetweenClosestRanks) {
  EXPECT_DOUBLE_EQ(Quantile(Range(1, 100), 0.5), 50.5);
  EXPECT_DOUBLE_EQ(Quantile(Range(1, 100), 0.9), 90.1);
  EXPECT_DOUBLE_EQ(Quantile(Range(1, 100), 0.0), 1.0);
  EXPECT_DOUBLE_EQ(Quantile(Range(1, 100), 1.0), 100.0);
  EXPECT_DOUBLE_EQ(Quantile({4.0, 1.0}, 0.5), 2.5);
  EXPECT_DOUBLE_EQ(Quantile({}, 0.5), 0.0);
}

TEST(StatsTest, TailIsTheHighestPercentileWithTenSamplesBeyond) {
  // 100 samples: p90 (90.1) has 10 above it, p95 (95.05) only 5.
  TailSummary s = SummarizeTail(Range(1, 100));
  EXPECT_EQ(s.count, 100u);
  EXPECT_DOUBLE_EQ(s.median, 50.5);
  EXPECT_DOUBLE_EQ(s.tail_percentile, 90.0);
  EXPECT_DOUBLE_EQ(s.tail, 90.1);
  EXPECT_EQ(s.beyond_tail, 10u);

  // 1000 samples reach p99 (990.01, 10 beyond) but not p99.9.
  s = SummarizeTail(Range(1, 1000));
  EXPECT_DOUBLE_EQ(s.tail_percentile, 99.0);
  EXPECT_EQ(s.beyond_tail, 10u);

  // 20 samples: only the median itself has ten above it.
  s = SummarizeTail(Range(1, 20));
  EXPECT_DOUBLE_EQ(s.tail_percentile, 50.0);
  EXPECT_EQ(s.beyond_tail, 10u);

  // 15 samples: not even the median does; no tail is reported.
  s = SummarizeTail(Range(1, 15));
  EXPECT_DOUBLE_EQ(s.median, 8.0);
  EXPECT_DOUBLE_EQ(s.tail_percentile, 0.0);

  // Ties: 200 equal values have nothing strictly above any percentile.
  s = SummarizeTail(std::vector<double>(200, 7.0));
  EXPECT_DOUBLE_EQ(s.median, 7.0);
  EXPECT_DOUBLE_EQ(s.tail_percentile, 0.0);
  EXPECT_NE(s.ToString().find("n=200"), std::string::npos);
}

/// A small checkpointing batch campaign (a few seconds to run).
CampaignInput SmallCampaign(const std::string& ckpt_dir) {
  CampaignInput c;
  c.name = "S12CP";
  data::SpeechOptions options;
  options.num_objects = 400;
  options.seed = 77;
  c.dataset = data::MakeSpeech12(options);
  c.pool = bench::MakePoolFor("S12CP", c.dataset.num_classes, 78);
  c.budget = 1700.0;
  c.run_seed = 79;
  c.config.checkpoint_dir = ckpt_dir;
  c.config.checkpoint_every_n_iterations = 10;
  return c;
}

/// A fresh directory under the working directory (run.py runs the tests
/// inside the build tree).
fs::path ScratchDir(const std::string& name) {
  fs::path dir = fs::current_path() / ("perfbench-test-" + name);
  fs::remove_all(dir);
  return dir;
}

struct StagedRun {
  core::LabellingResult result;
  std::vector<core::AssignmentRecord> log;
  StagedTiming timing;
};

StagedRun RunStagedOnce(const CampaignInput& c) {
  if (!c.config.checkpoint_dir.empty()) {
    fs::remove_all(c.config.checkpoint_dir);
  }
  core::RunState rs(&c.config, &c.dataset, &c.pool, c.budget, c.run_seed);
  StagedRun run;
  Status s = RunStaged(&rs, &run.result, &run.log, &run.timing);
  EXPECT_TRUE(s.ok()) << s.ToString();
  return run;
}

void ExpectSameRun(const core::LabellingResult& a,
                   const std::vector<core::AssignmentRecord>& log_a,
                   const core::LabellingResult& b,
                   const std::vector<core::AssignmentRecord>& log_b) {
  EXPECT_EQ(a.labels, b.labels);
  EXPECT_EQ(a.sources, b.sources);
  EXPECT_EQ(a.budget_spent, b.budget_spent);
  EXPECT_EQ(a.iterations, b.iterations);
  EXPECT_EQ(a.human_answers, b.human_answers);
  EXPECT_EQ(a.final_log_likelihood, b.final_log_likelihood);
  ASSERT_EQ(log_a.size(), log_b.size());
  EXPECT_TRUE(log_a == log_b);
  EXPECT_EQ(Fingerprint(a, log_a), Fingerprint(b, log_b));
}

TEST(StagedDriverTest, ReproducesFrameworkRun) {
  const fs::path dir = ScratchDir("staged");
  CampaignInput c = SmallCampaign((dir / "staged").string());
  StagedRun staged = RunStagedOnce(c);
  EXPECT_FALSE(staged.timing.iter_ms.empty());
  EXPECT_EQ(staged.timing.iter_ms.size(), staged.result.iterations);
  EXPECT_FALSE(staged.timing.task_wait_ms.empty());

  core::CrowdRlConfig config = c.config;
  config.checkpoint_dir = (dir / "framework").string();
  core::CrowdRlFramework framework(config);
  core::LabellingResult reference;
  Status s = framework.Run(c.dataset, c.pool, c.budget, c.run_seed,
                           &reference);
  ASSERT_TRUE(s.ok()) << s.ToString();
  ExpectSameRun(staged.result, staged.log, reference,
                framework.last_assignment_log());
  fs::remove_all(dir);
}

TEST(LedgerTest, TracedRunMatchesUntracedAndCoversEveryBatchLayer) {
  const fs::path dir = ScratchDir("traced");
  CampaignInput c = SmallCampaign((dir / "ckpt").string());
  StagedRun plain = RunStagedOnce(c);

  ledger::Reset();
  ledger::SetDrivingThread(true);
  ledger::Enable(true);
  StagedRun traced = RunStagedOnce(c);
  ledger::Enable(false);
  ledger::SetDrivingThread(false);
  const ledger::Totals totals = ledger::Snapshot();

  ExpectSameRun(plain.result, plain.log, traced.result, traced.log);
  // Every wrapper a batch run reaches must have fired: a symbol missing
  // from wrapped_symbols.txt would leave its layer at zero calls.
  for (Layer layer : {Layer::kPlan, Layer::kSelect, Layer::kQForward,
                      Layer::kTrain, Layer::kTrainBatch, Layer::kReplaySample,
                      Layer::kTi, Layer::kClassifier, Layer::kEnrich,
                      Layer::kCrowdAnswer, Layer::kCkptWrite}) {
    EXPECT_GT(totals[layer].calls, 0u) << ledger::LayerName(layer);
    EXPECT_LE(totals[layer].exclusive_ns, totals[layer].inclusive_ns)
        << ledger::LayerName(layer);
  }
  EXPECT_EQ(totals[Layer::kSelect].calls, traced.result.iterations);
  EXPECT_EQ(totals[Layer::kSelect].call_ms.size(),
            totals[Layer::kSelect].calls);
  EXPECT_EQ(totals[Layer::kCrowdAnswer].units,
            traced.result.human_answers);
  EXPECT_GT(totals[Layer::kCkptWrite].units, 0u);  // Bytes written.
  EXPECT_GT(totals[Layer::kTi].units, 0u);  // EM iterations.
  // Plan contains selection: its exclusive time excludes select's.
  EXPECT_LT(totals[Layer::kPlan].exclusive_ns,
            totals[Layer::kPlan].inclusive_ns -
                totals[Layer::kSelect].inclusive_ns + 1);
  EXPECT_GT(totals.attributed_ns, 0u);
  fs::remove_all(dir);
}

TEST(LedgerTest, SpansFromManyThreadsAreCountedExactly) {
  ledger::Reset();
  ledger::Enable(true);
  constexpr int kThreads = 4;
  constexpr int kSpans = 20000;
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([] {
      for (int i = 0; i < kSpans; ++i) {
        ledger::Span outer(Layer::kTi);
        outer.AddUnits(1);
        ledger::Span inner(Layer::kClassifier);
        inner.AddUnits(2);
      }
    });
  }
  for (std::thread& t : threads) t.join();
  ledger::Enable(false);
  const ledger::Totals totals = ledger::Snapshot();
  EXPECT_EQ(totals[Layer::kTi].calls, uint64_t{kThreads * kSpans});
  EXPECT_EQ(totals[Layer::kTi].units, uint64_t{kThreads * kSpans});
  EXPECT_EQ(totals[Layer::kTi].call_ms.size(), size_t{kThreads * kSpans});
  EXPECT_EQ(totals[Layer::kClassifier].calls, uint64_t{kThreads * kSpans});
  EXPECT_EQ(totals[Layer::kClassifier].units, uint64_t{2 * kThreads * kSpans});
  // The outer layer's exclusive time is its inclusive time minus exactly
  // the inner spans nested in it.
  EXPECT_EQ(totals[Layer::kTi].inclusive_ns - totals[Layer::kTi].exclusive_ns,
            totals[Layer::kClassifier].inclusive_ns);
  // None of these threads is the driving thread.
  EXPECT_EQ(totals.attributed_ns, 0u);
  ledger::Reset();
}

/// Sums the durations (ms) of the named spans in a Chrome trace file.
std::map<std::string, double> SpanTotalsMs(const std::string& path) {
  std::ifstream in(path);
  std::stringstream text;
  text << in.rdbuf();
  testing::JsonValue root;
  EXPECT_TRUE(testing::MiniJsonParser::Parse(text.str(), &root));
  std::map<std::string, double> totals;
  for (const testing::JsonValue& event : root["traceEvents"].array) {
    totals[event["name"].str] += event["dur"].number / 1e3;
  }
  EXPECT_EQ(root["dropped_events"].number, 0.0);
  return totals;
}

TEST(LedgerTest, AgreesWithTheProgramsOwnSpans) {
  const fs::path dir = ScratchDir("spans");
  CampaignInput c = SmallCampaign("");
  c.dataset = data::MakeSpeech12([] {
    data::SpeechOptions options;
    options.num_objects = 1200;
    options.seed = 91;
    return options;
  }());
  c.budget = 5000.0;
  obs::SetEnabled(true);
  obs::SetTracing(true);
  obs::TraceRecorder::Get().Clear();
  ledger::Reset();
  ledger::Enable(true);
  StagedRun run = RunStagedOnce(c);
  ledger::Enable(false);
  obs::SetTracing(false);
  obs::SetEnabled(false);
  const ledger::Totals totals = ledger::Snapshot();
  fs::create_directories(dir);
  const std::string trace = (dir / "trace.json").string();
  ASSERT_TRUE(obs::TraceRecorder::Get().WriteChromeTrace(trace));
  obs::TraceRecorder::Get().Clear();
  const std::map<std::string, double> spans = SpanTotalsMs(trace);

  const double select_ms =
      static_cast<double>(totals[Layer::kSelect].inclusive_ns) / 1e6;
  const double ti_ms =
      static_cast<double>(totals[Layer::kTi].inclusive_ns) / 1e6;
  ASSERT_GT(spans.count("framework.select_assign"), 0u);
  ASSERT_GT(spans.count("joint.infer"), 0u);
  EXPECT_NEAR(select_ms, spans.at("framework.select_assign"),
              0.01 * spans.at("framework.select_assign"));
  EXPECT_NEAR(ti_ms, spans.at("joint.infer"), 0.01 * spans.at("joint.infer"));
  fs::remove_all(dir);
}

TEST(ServeDriverTest, TracedRepetitionPassesEveryCheck) {
  const fs::path dir = ScratchDir("serve");
  RepResult rep = RunRepetition(Workload::kServeAsync, 5, /*traced=*/true,
                                dir.string());
  for (const std::string& problem : rep.problems) ADD_FAILURE() << problem;
  EXPECT_EQ(rep.failed, 0u);
  EXPECT_GT(rep.attempted, 1000u);
  EXPECT_GT(rep.answers, 1000u);
  EXPECT_GT(rep.labels, 0u);
  EXPECT_FALSE(rep.task_wait_ms.empty());
  EXPECT_FALSE(rep.iter_ms.empty());
  EXPECT_FALSE(rep.driver_lag_ms.empty());
  ASSERT_TRUE(rep.traced);
  // Serve-only wrappers, and truth inference on the worker thread.
  for (Layer layer : {Layer::kPlan, Layer::kSelect, Layer::kTrain,
                      Layer::kTi, Layer::kTiSnapshot, Layer::kTiApply,
                      Layer::kCrowdAnswer}) {
    EXPECT_GT(rep.ledger[layer].calls, 0u) << ledger::LayerName(layer);
  }
  EXPECT_GT(rep.ti_swaps, 0u);
  fs::remove_all(dir);
}

}  // namespace
}  // namespace crowdrl::perfbench
