// The repository benchmark driver. Runs one workload for a fixed time and
// prints, as its last stdout line, one JSON object
//   {"correct": bool, "attempted": N, "failed": N, "metrics": {...}}
// with the end-to-end metrics (--trace 0) or the per-layer ledger
// (--trace 1). README.md in this directory documents every metric.
//
//   perfbench --workload paper_batch|wide_crowd|serve_async --seed N
//             --seconds S --trace 0|1 [--work-dir DIR]

#include <chrono>
#include <cinttypes>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <functional>
#include <string>
#include <vector>

#include "math/stats.h"
#include "perfbench/ledger.h"
#include "perfbench/stats.h"
#include "perfbench/workloads.h"

namespace crowdrl::perfbench {
namespace {

using Clock = std::chrono::steady_clock;

/// Set-up runs per invocation at least (extra set-up-only runs top up the
/// one every repetition makes), so setup_s is a median of several.
constexpr size_t kMinSetupSamples = 5;

struct Args {
  Workload workload = Workload::kPaperBatch;
  uint64_t seed = 0;
  double seconds = 0.0;
  bool trace = false;
  std::string work_dir = ".bench_build/perfbench-run";
};

[[noreturn]] void Usage(const char* why) {
  std::fprintf(stderr,
               "perfbench: %s\nusage: perfbench --workload "
               "paper_batch|wide_crowd|serve_async --seed N --seconds S "
               "--trace 0|1 [--work-dir DIR]\n",
               why);
  std::exit(2);
}

Args ParseArgs(int argc, char** argv) {
  Args args;
  bool have_workload = false, have_seed = false, have_seconds = false,
       have_trace = false;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (i + 1 >= argc) Usage(("missing value for " + flag).c_str());
    const std::string value = argv[++i];
    char* end = nullptr;
    if (flag == "--workload") {
      if (!ParseWorkload(value, &args.workload)) Usage("unknown workload");
      have_workload = true;
    } else if (flag == "--seed") {
      args.seed = std::strtoull(value.c_str(), &end, 10);
      if (*end != '\0' || value.empty()) Usage("bad --seed");
      have_seed = true;
    } else if (flag == "--seconds") {
      args.seconds = std::strtod(value.c_str(), &end);
      if (*end != '\0' || !(args.seconds > 0.0)) Usage("bad --seconds");
      have_seconds = true;
    } else if (flag == "--trace") {
      if (value != "0" && value != "1") Usage("--trace must be 0 or 1");
      args.trace = value == "1";
      have_trace = true;
    } else if (flag == "--work-dir") {
      args.work_dir = value;
    } else {
      Usage(("unknown flag " + flag).c_str());
    }
  }
  if (!have_workload || !have_seed || !have_seconds || !have_trace) {
    Usage("--workload, --seed, --seconds and --trace are required");
  }
  return args;
}

/// Every repetition's samples of one distribution, pooled.
std::vector<double> Pooled(const std::vector<const RepResult*>& reps,
                           std::vector<double> RepResult::*samples) {
  std::vector<double> pooled;
  for (const RepResult* rep : reps) {
    pooled.insert(pooled.end(), (rep->*samples).begin(),
                  (rep->*samples).end());
  }
  return pooled;
}

/// Median over repetitions of a per-repetition figure.
double MedianOf(const std::vector<const RepResult*>& reps,
                const std::function<double(const RepResult&)>& f) {
  std::vector<double> values;
  for (const RepResult* rep : reps) values.push_back(f(*rep));
  return Median(values);
}

class MetricsWriter {
 public:
  void Add(const char* name, double value, const char* unit) {
    char buf[256];
    std::snprintf(buf, sizeof(buf),
                  "%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}",
                  body_.empty() ? "" : ", ", name, value, unit);
    body_ += buf;
  }
  const std::string& body() const { return body_; }

 private:
  std::string body_;
};

void AddEndToEnd(const std::vector<const RepResult*>& reps,
                 const std::vector<double>& setup_samples,
                 MetricsWriter* out) {
  // run_s and answers_per_s average over the run's repetitions: each
  // labels a different input set, and a median of three or four unequal
  // inputs only picks one of them.
  double answers = 0.0, run_seconds = 0.0;
  for (const RepResult* rep : reps) {
    answers += static_cast<double>(rep->answers);
    run_seconds += rep->run_s;
  }
  out->Add("run_s", run_seconds / static_cast<double>(reps.size()), "s");
  // Distributions pool the run's repetitions: one quantile over every
  // round (or wait) of every input set, not a median of small-sample
  // quantiles.
  const std::vector<double> iter_ms = Pooled(reps, &RepResult::iter_ms);
  const std::vector<double> task_wait_ms =
      Pooled(reps, &RepResult::task_wait_ms);
  std::printf("pooled iter_ms %s\npooled task_wait_ms %s\n",
              SummarizeTail(iter_ms).ToString().c_str(),
              SummarizeTail(task_wait_ms).ToString().c_str());
  out->Add("iter_ms_p50", Quantile(iter_ms, 0.5), "ms");
  out->Add("iter_ms_p90", Quantile(iter_ms, 0.9), "ms");
  out->Add("answers_per_s", answers / run_seconds, "1/s");
  out->Add("task_wait_ms_p50", Quantile(task_wait_ms, 0.5), "ms");
  out->Add("task_wait_ms_p99", Quantile(task_wait_ms, 0.99), "ms");
  out->Add("label_accuracy", MedianOf(reps, [](const RepResult& r) {
             return r.labels == 0 ? 0.0
                                  : static_cast<double>(r.labels_correct) /
                                        static_cast<double>(r.labels);
           }),
           "ratio");
  out->Add("setup_s", Median(setup_samples), "s");
  // The first repetition's peak: a fresh process labelling one input set.
  // Later repetitions start from whatever the allocator kept, so a median
  // over them would depend on how many fitted in the run.
  out->Add("peak_rss_mb", reps.front()->peak_rss_mb, "MB");
}

void AddPerLayer(const std::vector<const RepResult*>& traced,
                 double overhead_pct, MetricsWriter* out) {
  using ledger::Layer;
  auto busy = [&](const char* name, Layer layer) {
    out->Add(name, MedianOf(traced, [layer](const RepResult& r) {
               return static_cast<double>(r.ledger[layer].inclusive_ns) / 1e6;
             }),
             "ms");
  };
  auto count = [&](const char* name,
                   const std::function<double(const RepResult&)>& f) {
    out->Add(name, MedianOf(traced, f), "count");
  };
  auto calls = [](Layer layer) {
    return [layer](const RepResult& r) {
      return static_cast<double>(r.ledger[layer].calls);
    };
  };
  auto units = [](Layer layer) {
    return [layer](const RepResult& r) {
      return static_cast<double>(r.ledger[layer].units);
    };
  };
  auto p50 = [&](const char* name, Layer layer) {
    out->Add(name, MedianOf(traced, [layer](const RepResult& r) {
               return Median(r.ledger[layer].call_ms);
             }),
             "ms");
  };

  busy("rl.select.busy_ms", Layer::kSelect);
  count("rl.select.calls", calls(Layer::kSelect));
  p50("rl.select.p50_ms", Layer::kSelect);
  busy("rl.q_forward.busy_ms", Layer::kQForward);
  count("rl.q_forward.rows", units(Layer::kQForward));
  out->Add("rl.prune.pass_ratio", MedianOf(traced, [](const RepResult& r) {
             const size_t total = r.pruned_selections + r.full_selections;
             return total == 0 ? 0.0
                               : static_cast<double>(r.pruned_selections) /
                                     static_cast<double>(total);
           }),
           "ratio");
  count("rl.prune.gate_fallbacks", [](const RepResult& r) {
    return static_cast<double>(r.gate_fallbacks);
  });
  count("rl.rows_featurized", [](const RepResult& r) {
    return static_cast<double>(r.rows_featurized);
  });
  busy("rl.train.busy_ms", Layer::kTrain);
  count("rl.train.batches", calls(Layer::kTrainBatch));
  p50("rl.train.batch_ms", Layer::kTrainBatch);
  busy("rl.replay.sample_ms", Layer::kReplaySample);
  busy("inference.ti.busy_ms", Layer::kTi);
  count("inference.ti.calls", calls(Layer::kTi));
  p50("inference.ti.p50_ms", Layer::kTi);
  count("inference.em_iterations", units(Layer::kTi));
  busy("classifier.predict.busy_ms", Layer::kClassifier);
  count("classifier.predict.rows", units(Layer::kClassifier));
  busy("core.enrich.busy_ms", Layer::kEnrich);
  count("core.enrich.labels", units(Layer::kEnrich));
  out->Add("core.residual_ms", MedianOf(traced, [](const RepResult& r) {
             return r.run_s * 1e3 -
                    static_cast<double>(r.ledger.attributed_ns) / 1e6;
           }),
           "ms");
  busy("crowd.answer.busy_ms", Layer::kCrowdAnswer);
  count("crowd.answers", units(Layer::kCrowdAnswer));
  count("crowd.refused", [](const RepResult& r) {
    return static_cast<double>(r.ledger[ledger::Layer::kCrowdAnswer].failed);
  });
  busy("io.ckpt_write.busy_ms", Layer::kCkptWrite);
  out->Add("io.ckpt_write.bytes", MedianOf(traced, units(Layer::kCkptWrite)),
           "bytes");
  out->Add("io.ckpt_read_ms", MedianOf(traced, [](const RepResult& r) {
             return r.ckpt_read_ms;
           }),
           "ms");
  busy("serve.plan.busy_ms", Layer::kPlan);
  busy("serve.ti_snapshot.busy_ms", Layer::kTiSnapshot);
  busy("serve.ti_apply.busy_ms", Layer::kTiApply);
  out->Add("serve.ti_stall_ms", MedianOf(traced, [](const RepResult& r) {
             return r.ti_stall_ms;
           }),
           "ms");
  count("serve.ti_swaps", [](const RepResult& r) {
    return static_cast<double>(r.ti_swaps);
  });
  count("serve.abandoned", [](const RepResult& r) {
    return static_cast<double>(r.abandoned);
  });
  out->Add("driver.lag_ms_p99", MedianOf(traced, [](const RepResult& r) {
             return Quantile(r.driver_lag_ms, 0.99);
           }),
           "ms");
  out->Add("trace.overhead_pct", overhead_pct, "%");
}

/// The ledger of one traced repetition: inclusive and exclusive time per
/// layer, and what no layer covers.
void PrintLedger(const RepResult& rep) {
  std::printf("ledger (one traced repetition, run_s %.3f s):\n", rep.run_s);
  std::printf("  %-20s %10s %12s %12s %12s\n", "layer", "calls",
              "incl_ms", "excl_ms", "units");
  for (size_t i = 0; i < ledger::kNumLayers; ++i) {
    const auto layer = static_cast<ledger::Layer>(i);
    const ledger::LayerTotals& t = rep.ledger[layer];
    std::printf("  %-20s %10" PRIu64 " %12.3f %12.3f %12" PRIu64 "\n",
                ledger::LayerName(layer), t.calls,
                static_cast<double>(t.inclusive_ns) / 1e6,
                static_cast<double>(t.exclusive_ns) / 1e6, t.units);
  }
  const double attributed = static_cast<double>(rep.ledger.attributed_ns) / 1e6;
  const double residual = rep.run_s * 1e3 - attributed;
  std::printf("  driving thread: attributed %.3f ms, residual %.3f ms "
              "(%.2f%% of run_s)\n",
              attributed, residual, 100.0 * residual / (rep.run_s * 1e3));
}

int Main(int argc, char** argv) {
  const Args args = ParseArgs(argc, argv);
  std::error_code ec;
  std::filesystem::create_directories(args.work_dir, ec);
  if (ec) {
    std::fprintf(stderr, "perfbench: cannot create %s: %s\n",
                 args.work_dir.c_str(), ec.message().c_str());
    return 1;
  }

  // Repetitions run until the time is used up, each on the next input set
  // of the seed. A trace run labels every input set twice, untraced then
  // traced, so the overhead compares like with like and the two outputs
  // can be compared bit for bit. A repetition (a pair, when tracing) is
  // started only if it is expected to end in time, but every run makes at
  // least one.
  const auto start = Clock::now();
  auto elapsed = [&] {
    return std::chrono::duration<double>(Clock::now() - start).count();
  };
  std::vector<RepResult> reps;
  std::vector<double> rep_seconds;
  std::vector<double> setup_samples;
  auto another = [&] {
    if (reps.empty() || (args.trace && reps.size() % 2 == 1)) return true;
    const double per_step = args.trace ? 2.0 : 1.0;
    return elapsed() + per_step * Median(rep_seconds) <= args.seconds;
  };
  while (another()) {
    const bool traced = args.trace && reps.size() % 2 == 1;
    const size_t input = args.trace ? reps.size() / 2 : reps.size();
    const double rep_start = elapsed();
    reps.push_back(RunRepetition(args.workload, InputSeed(args.seed, input),
                                 traced, args.work_dir));
    rep_seconds.push_back(elapsed() - rep_start);
    setup_samples.push_back(reps.back().setup_s);
    const RepResult& r = reps.back();
    std::string accuracy;
    for (const std::string& a : r.campaign_accuracy) accuracy += " " + a;
    std::printf("rep %zu%s: setup %.3f s, run %.3f s, answers %zu, "
                "peak %.1f MB, accuracy%s\n  iter_ms %s\n  task_wait_ms %s\n",
                reps.size(), traced ? " (traced)" : "", r.setup_s, r.run_s,
                r.answers, r.peak_rss_mb, accuracy.c_str(),
                SummarizeTail(r.iter_ms).ToString().c_str(),
                SummarizeTail(r.task_wait_ms).ToString().c_str());
    std::fflush(stdout);
  }
  while (setup_samples.size() < kMinSetupSamples) {
    setup_samples.push_back(MeasureSetup(
        args.workload, InputSeed(args.seed, 0), args.work_dir));
  }
  std::filesystem::remove_all(args.work_dir, ec);

  // Output checks: every repetition's problems, plus determinism — the
  // traced and untraced labelling of one batch input set must agree bit
  // for bit (serve fingerprints are 0: its interleaving is timing
  // dependent by design).
  bool correct = true;
  size_t attempted = 0, failed = 0;
  std::vector<const RepResult*> untraced, traced;
  for (size_t i = 0; i < reps.size(); ++i) {
    const RepResult& rep = reps[i];
    attempted += rep.attempted;
    failed += rep.failed;
    for (const std::string& problem : rep.problems) {
      std::printf("problem: %s\n", problem.c_str());
    }
    if (!rep.problems.empty()) correct = false;
    if (rep.traced && rep.fingerprint != reps[i - 1].fingerprint) {
      std::printf("problem: traced output differs from untraced (fingerprint "
                  "%016" PRIx64 " vs %016" PRIx64 ")\n",
                  rep.fingerprint, reps[i - 1].fingerprint);
      correct = false;
    }
    (rep.traced ? traced : untraced).push_back(&rep);
  }

  MetricsWriter metrics;
  if (!args.trace) {
    AddEndToEnd(untraced, setup_samples, &metrics);
  } else {
    const double run_untraced =
        MedianOf(untraced, [](const RepResult& r) { return r.run_s; });
    const double run_traced =
        MedianOf(traced, [](const RepResult& r) { return r.run_s; });
    PrintLedger(*traced.front());
    AddPerLayer(traced, 100.0 * (run_traced / run_untraced - 1.0), &metrics);
  }
  std::printf("{\"correct\": %s, \"attempted\": %zu, \"failed\": %zu, "
              "\"metrics\": {%s}}\n",
              correct ? "true" : "false", attempted, failed,
              metrics.body().c_str());
  return 0;
}

}  // namespace
}  // namespace crowdrl::perfbench

int main(int argc, char** argv) { return crowdrl::perfbench::Main(argc, argv); }
