#include "perfbench/workloads.h"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <optional>
#include <random>
#include <thread>
#include <utility>

#include "bench/bench_common.h"
#include "data/workloads.h"
#include "io/snapshot.h"
#include "obs/metrics.h"
#include "serve/service.h"
#include "util/string_util.h"

namespace crowdrl::perfbench {
namespace {

namespace fs = std::filesystem;
using Clock = std::chrono::steady_clock;

double Ms(Clock::duration d) {
  return std::chrono::duration<double, std::milli>(d).count();
}
double Seconds(Clock::duration d) {
  return std::chrono::duration<double>(d).count();
}

/// SplitMix64 finalizer over (seed, salt): every input stream of a
/// workload gets its own well-mixed seed from the one workload seed.
uint64_t DeriveSeed(uint64_t seed, uint64_t salt) {
  uint64_t z = seed * 0x9E3779B97F4A7C15ull + salt * 0xBF58476D1CE4E5B9ull +
               0x94D049BB133111EBull;
  z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ull;
  z = (z ^ (z >> 27)) * 0x94D049BB133111EBull;
  return z ^ (z >> 31);
}

constexpr size_t kS12Objects = 2344;
constexpr size_t kS3Objects = 1898;
constexpr double kSpeechBudget = 10000.0;

/// Output-check floor on a paper-size campaign's label accuracy. S3 is
/// generated harder (a lower classifier ceiling), so its floor is lower.
/// Both sit well below every value seen across seeds, and far above what
/// a broken inference or selection path produces.
double AccuracyFloor(const std::string& variant) {
  return variant == "S3CP" ? 0.75 : 0.85;
}

data::Dataset MakeSpeech(const std::string& variant, size_t objects,
                         uint64_t seed) {
  data::SpeechOptions options;
  options.view = data::FeatureView::kConcatenated;
  options.num_objects = objects;
  options.seed = seed;
  return variant == "S12CP" ? data::MakeSpeech12(options)
                            : data::MakeSpeech3(options);
}

// ---------------------------------------------------------------------------
// Output checks.
// ---------------------------------------------------------------------------

/// Checks one campaign's final labelling: every object labelled with a
/// valid class, spend within budget, accuracy at or above the floor.
/// Returns false (and records why) on any violation.
bool CheckCampaign(const CampaignInput& input,
                   const core::LabellingResult& result, RepResult* rep) {
  const size_t n = input.dataset.num_objects();
  bool ok = true;
  auto problem = [&](const std::string& what) {
    rep->problems.push_back(input.name + ": " + what);
    ok = false;
  };
  if (result.labels.size() != n || result.sources.size() != n) {
    problem(StringPrintf("%zu labels for %zu objects", result.labels.size(),
                         n));
    return false;
  }
  size_t correct = 0;
  for (size_t i = 0; i < n; ++i) {
    if (result.sources[i] == core::LabelSource::kNone ||
        result.labels[i] < 0 ||
        result.labels[i] >= input.dataset.num_classes) {
      problem(StringPrintf("object %zu left unlabelled", i));
      return false;
    }
    if (result.labels[i] == input.dataset.truths[i]) ++correct;
  }
  rep->labels += n;
  rep->labels_correct += correct;
  if (result.budget_spent > input.budget + 1e-9) {
    problem(StringPrintf("spent %.3f of a %.3f budget", result.budget_spent,
                         input.budget));
  }
  const double accuracy = static_cast<double>(correct) / static_cast<double>(n);
  rep->campaign_accuracy.push_back(input.name + " " +
                                   StringPrintf("%.4f", accuracy));
  if (accuracy < input.accuracy_floor) {
    problem(StringPrintf("label accuracy %.4f below the floor %.2f", accuracy,
                         input.accuracy_floor));
  }
  return ok;
}

void AddPrunerStats(const rl::DqnAgent& agent, RepResult* rep) {
  const rl::ShortlistPruner::Stats& stats = agent.shortlist_pruner().stats();
  rep->pruned_selections += stats.pruned_iterations;
  rep->full_selections += stats.full_iterations;
  rep->gate_fallbacks += stats.gate_fallbacks;
  rep->rows_featurized += agent.rows_featurized();
}

// ---------------------------------------------------------------------------
// Batch workloads.
// ---------------------------------------------------------------------------

/// Reads the newest checkpoint back into a fresh RunState, as a resumed
/// run would. Returns the read + restore time in ms.
Status ResumeRead(const CampaignInput& input, double* read_ms) {
  std::string path;
  CROWDRL_RETURN_IF_ERROR(
      io::FindLatestCheckpoint(input.config.checkpoint_dir, &path));
  core::RunState fresh(&input.config, &input.dataset, &input.pool,
                       input.budget, input.run_seed);
  const auto start = Clock::now();
  io::Snapshot snapshot;
  CROWDRL_RETURN_IF_ERROR(io::Snapshot::ReadFile(path, &snapshot));
  CROWDRL_RETURN_IF_ERROR(fresh.ApplyRestore(snapshot));
  *read_ms = Ms(Clock::now() - start);
  return Status::Ok();
}

/// Set-up of a batch repetition: inputs plus one RunState per campaign
/// (the RunStates borrow the inputs, so the inputs are declared first).
struct BatchSetup {
  std::vector<CampaignInput> campaigns;
  std::vector<std::unique_ptr<core::RunState>> states;
};

BatchSetup SetUpBatch(Workload workload, uint64_t seed,
                      const std::string& work_dir) {
  BatchSetup setup;
  setup.campaigns = MakeCampaigns(workload, seed, work_dir + "/ckpt");
  for (const CampaignInput& c : setup.campaigns) {
    if (!c.config.checkpoint_dir.empty()) {
      std::error_code ec;
      fs::remove_all(c.config.checkpoint_dir, ec);
    }
    setup.states.push_back(std::make_unique<core::RunState>(
        &c.config, &c.dataset, &c.pool, c.budget, c.run_seed));
  }
  return setup;
}

RepResult RunBatchRepetition(Workload workload, uint64_t seed, bool traced,
                             const std::string& work_dir) {
  RepResult rep;
  const auto setup_start = Clock::now();
  BatchSetup setup = SetUpBatch(workload, seed, work_dir);
  rep.setup_s = Seconds(Clock::now() - setup_start);
  const std::vector<CampaignInput>& campaigns = setup.campaigns;
  std::vector<std::unique_ptr<core::RunState>>& states = setup.states;

  std::vector<core::LabellingResult> results(campaigns.size());
  std::vector<std::vector<core::AssignmentRecord>> logs(campaigns.size());
  std::vector<Status> statuses;
  StagedTiming timing;
  if (traced) {
    ledger::Reset();
    ledger::SetDrivingThread(true);
    ledger::Enable(true);
  }
  const auto run_start = Clock::now();
  for (size_t i = 0; i < campaigns.size(); ++i) {
    statuses.push_back(
        RunStaged(states[i].get(), &results[i], &logs[i], &timing));
  }
  rep.run_s = Seconds(Clock::now() - run_start);
  if (traced) {
    ledger::Enable(false);
    rep.traced = true;
    rep.ledger = ledger::Snapshot();
  }
  rep.iter_ms = std::move(timing.iter_ms);
  rep.task_wait_ms = std::move(timing.task_wait_ms);

  uint64_t fingerprint = 0xcbf29ce484222325ull;
  for (size_t i = 0; i < campaigns.size(); ++i) {
    const CampaignInput& input = campaigns[i];
    ++rep.attempted;
    AddPrunerStats(states[i]->agent, &rep);
    states[i].reset();
    if (!statuses[i].ok()) {
      rep.problems.push_back(input.name + ": " + statuses[i].ToString());
      ++rep.failed;
      continue;
    }
    rep.answers += results[i].human_answers;
    bool ok = CheckCampaign(input, results[i], &rep);
    if (!input.config.checkpoint_dir.empty()) {
      double read_ms = 0.0;
      Status resumed = ResumeRead(input, &read_ms);
      if (!resumed.ok()) {
        rep.problems.push_back(input.name + ": resume read failed: " +
                               resumed.ToString());
        ok = false;
      }
      rep.ckpt_read_ms += read_ms;
    }
    if (!ok) ++rep.failed;
    fingerprint = fingerprint * 1099511628211ull ^
                  Fingerprint(results[i], logs[i]);
  }
  rep.fingerprint = fingerprint;
  return rep;
}

// ---------------------------------------------------------------------------
// serve_async: one thread drives every simulated annotator.
// ---------------------------------------------------------------------------

constexpr double kThinkMeanUs = 300.0;
constexpr uint64_t kChurnPeriodNs = 25'000'000;
constexpr uint64_t kChurnDownNs = 7'000'000;
/// Idle annotators ask for work at most this often: frequent enough that
/// polling adds little to task_wait, sparse enough that the driver does
/// not hammer the session registry's lock the pump also takes.
constexpr uint64_t kPollNs = 10'000;
constexpr int kServeAnnotators = 5;

struct PushRecord {
  uint64_t seq = 0;
  int object = 0;
  int annotator = 0;
  /// The annotator stayed connected from taking the task until pushing
  /// it; only such pushes are operations that can fail.
  bool counted = false;
};

/// \brief Closed-loop driver of every simulated annotator of every
/// campaign, on one thread.
///
/// Each annotator takes a task when idle and connected, thinks for an
/// exponential time (mean 300 us, from its own seeded stream), and pushes
/// the completion. Per campaign one annotator at a time, in rotation,
/// drops off every 25 ms for 7 ms (seeded phase); a task it held when it
/// dropped is still pushed, as a real client would finish it, but it is
/// not counted. Everything is timed from this side of the service API.
class AnnotatorDriver {
 public:
  AnnotatorDriver(const std::vector<serve::Campaign*>& campaigns,
                  uint64_t seed)
      : campaigns_(campaigns), pushes_(campaigns.size()),
        dispatch_ns_(campaigns.size()) {
    for (size_t c = 0; c < campaigns.size(); ++c) {
      Churn churn;
      churn.phase_ns = DeriveSeed(seed, 500 + c) % kChurnPeriodNs;
      churn_.push_back(churn);
      for (int j = 0; j < kServeAnnotators; ++j) {
        Slot slot;
        slot.campaign = c;
        slot.annotator = j;
        slot.think = std::mt19937_64(DeriveSeed(seed, 1000 + c * 64 + j));
        slots_.push_back(std::move(slot));
      }
    }
  }

  /// Drives until `stop`; call on the driver thread.
  void Run(const std::atomic<bool>& stop) {
    const uint64_t start = obs::NowNs();
    for (Churn& churn : churn_) churn.next_drop_ns = start + churn.phase_ns;
    for (Slot& slot : slots_) BecomeIdle(&slot, start);
    std::exponential_distribution<double> think(1.0 / kThinkMeanUs);
    while (!stop.load(std::memory_order_acquire)) {
      uint64_t now = obs::NowNs();
      uint64_t next_event = now + kPollNs * 100;
      for (size_t c = 0; c < campaigns_.size(); ++c) {
        Churn& churn = churn_[c];
        serve::AnnotatorSessionRegistry& sessions = campaigns_[c]->sessions();
        if (churn.down < 0 && now >= churn.next_drop_ns) {
          churn.down = churn.rotation++ % kServeAnnotators;
          sessions.Disconnect(churn.down);
          lag_ms_.push_back(static_cast<double>(now - churn.next_drop_ns) /
                            1e6);
          Slot& slot = SlotOf(c, churn.down);
          slot.connected = false;
          slot.held_connected = false;
          churn.reconnect_ns = churn.next_drop_ns + kChurnDownNs;
          churn.next_drop_ns += kChurnPeriodNs;
        } else if (churn.down >= 0 && now >= churn.reconnect_ns) {
          sessions.Connect(churn.down);
          lag_ms_.push_back(static_cast<double>(now - churn.reconnect_ns) /
                            1e6);
          Slot& slot = SlotOf(c, churn.down);
          slot.connected = true;
          if (!slot.holding) BecomeIdle(&slot, now);
          churn.down = -1;
        }
        next_event = std::min(next_event, churn.down < 0 ? churn.next_drop_ns
                                                         : churn.reconnect_ns);
      }
      for (Slot& slot : slots_) {
        serve::Campaign* campaign = campaigns_[slot.campaign];
        if (slot.holding) {
          if (now < slot.due_ns) {
            next_event = std::min(next_event, slot.due_ns);
            continue;
          }
          campaign->ingest().Push(slot.item);
          lag_ms_.push_back(static_cast<double>(now - slot.due_ns) / 1e6);
          pushes_[slot.campaign].push_back(
              PushRecord{slot.item.seq, slot.item.object, slot.item.annotator,
                         slot.held_connected && slot.connected});
          slot.holding = false;
          BecomeIdle(&slot, now);
        }
        if (!slot.connected || campaign->done()) continue;
        if (now < slot.next_poll_ns) {
          next_event = std::min(next_event, slot.next_poll_ns);
          continue;
        }
        std::optional<serve::WorkItem> item =
            campaign->sessions().RequestWork(slot.annotator);
        const uint64_t handed = obs::NowNs();
        if (!item.has_value()) {
          slot.waited = true;
          slot.next_poll_ns = handed + kPollNs;
          next_event = std::min(next_event, slot.next_poll_ns);
          continue;
        }
        if (slot.waited) {
          task_wait_ms_.push_back(
              static_cast<double>(handed - slot.idle_since_ns) / 1e6);
        }
        dispatch_ns_[slot.campaign].emplace_back(item->seq,
                                                 item->dispatch_ns);
        slot.item = *item;
        slot.holding = true;
        slot.held_connected = true;
        slot.due_ns =
            handed + static_cast<uint64_t>(think(slot.think) * 1000.0);
        next_event = std::min(next_event, slot.due_ns);
      }
      WaitUntil(next_event, stop);
    }
  }

  const std::vector<PushRecord>& pushes(size_t c) const { return pushes_[c]; }
  /// (seq, dispatch_ns) of every task handed out, per campaign.
  const std::vector<std::pair<uint64_t, uint64_t>>& dispatches(
      size_t c) const {
    return dispatch_ns_[c];
  }
  std::vector<double>& task_wait_ms() { return task_wait_ms_; }
  std::vector<double>& lag_ms() { return lag_ms_; }

 private:
  struct Slot {
    size_t campaign = 0;
    int annotator = 0;
    bool connected = true;
    bool holding = false;
    bool held_connected = false;
    /// Found no task when it last became idle: its next task is a wait
    /// sample. A task already queued when it became idle is not.
    bool waited = false;
    serve::WorkItem item;
    uint64_t due_ns = 0;
    uint64_t idle_since_ns = 0;
    uint64_t next_poll_ns = 0;
    std::mt19937_64 think;
  };
  struct Churn {
    uint64_t phase_ns = 0;
    uint64_t next_drop_ns = 0;
    uint64_t reconnect_ns = 0;
    int down = -1;
    int rotation = 0;
  };

  static void BecomeIdle(Slot* slot, uint64_t now) {
    slot->idle_since_ns = now;
    slot->next_poll_ns = now;
    slot->waited = false;
  }

  Slot& SlotOf(size_t campaign, int annotator) {
    return slots_[campaign * kServeAnnotators +
                  static_cast<size_t>(annotator)];
  }

  /// Sleeps through long gaps and spins (yielding) through short ones, so
  /// timer slack does not show up as driver lag.
  static void WaitUntil(uint64_t deadline_ns, const std::atomic<bool>& stop) {
    for (;;) {
      const uint64_t now = obs::NowNs();
      if (now >= deadline_ns || stop.load(std::memory_order_relaxed)) return;
      const uint64_t gap = deadline_ns - now;
      if (gap > 300'000) {
        std::this_thread::sleep_for(std::chrono::nanoseconds(gap - 200'000));
      } else {
        std::this_thread::yield();
      }
    }
  }

  std::vector<serve::Campaign*> campaigns_;
  std::vector<Slot> slots_;
  std::vector<Churn> churn_;
  std::vector<std::vector<PushRecord>> pushes_;
  std::vector<std::vector<std::pair<uint64_t, uint64_t>>> dispatch_ns_;
  std::vector<double> task_wait_ms_;
  std::vector<double> lag_ms_;
};

/// Resolves each counted push of one campaign against its assignment log
/// (log index == dispatch seq). A counted push fails unless it was
/// committed, or the budget refused it or an earlier task of its round
/// (the round stops executing at the first refusal).
size_t CountUncommitted(const CampaignInput& input,
                        const std::vector<core::AssignmentRecord>& log,
                        const core::LabellingResult& result,
                        const std::vector<PushRecord>& pushes,
                        RepResult* rep) {
  std::vector<uint8_t> pushed(log.size(), 0);
  size_t failed = 0;
  for (const PushRecord& push : pushes) {
    if (push.seq >= log.size() || log[push.seq].object != push.object ||
        log[push.seq].annotator != push.annotator) {
      rep->problems.push_back(StringPrintf(
          "%s: pushed task seq %llu does not match the assignment log",
          input.name.c_str(), static_cast<unsigned long long>(push.seq)));
      ++failed;
      continue;
    }
    pushed[push.seq] = 1;
  }
  // Replay the spend: bootstrap answers first, then the log in commit order.
  double executed_cost = 0.0;
  for (const core::AssignmentRecord& record : log) {
    if (record.executed) executed_cost += input.pool[record.annotator].cost();
  }
  double spent = result.budget_spent - executed_cost;
  std::vector<uint8_t> refused(log.size(), 0);
  size_t stopped_iteration = SIZE_MAX;
  for (size_t s = 0; s < log.size(); ++s) {
    const core::AssignmentRecord& record = log[s];
    const double cost = input.pool[record.annotator].cost();
    if (record.executed) {
      spent += cost;
    } else if (stopped_iteration == record.iteration) {
      refused[s] = 1;
    } else if (pushed[s] && spent + cost > input.budget + 1e-9) {
      refused[s] = 1;
      stopped_iteration = record.iteration;
    }
  }
  for (const PushRecord& push : pushes) {
    if (!push.counted || push.seq >= log.size()) continue;
    if (!log[push.seq].executed && !refused[push.seq]) {
      ++failed;
      if (failed <= 3) {
        rep->problems.push_back(StringPrintf(
            "%s: task seq %llu pushed by a connected annotator was never "
            "committed",
            input.name.c_str(), static_cast<unsigned long long>(push.seq)));
      }
    }
  }
  return failed;
}

/// Round wall time as the annotators see it: the dispatch stamp of one
/// round's tasks to the next round's.
void AddRoundTimes(const std::vector<core::AssignmentRecord>& log,
                   const std::vector<std::pair<uint64_t, uint64_t>>& dispatches,
                   std::vector<double>* iter_ms) {
  std::vector<std::pair<size_t, uint64_t>> rounds;  // (iteration, dispatch)
  for (const auto& [seq, dispatch_ns] : dispatches) {
    if (seq < log.size()) rounds.emplace_back(log[seq].iteration, dispatch_ns);
  }
  std::sort(rounds.begin(), rounds.end());
  rounds.erase(std::unique(rounds.begin(), rounds.end(),
                           [](const auto& a, const auto& b) {
                             return a.first == b.first;
                           }),
               rounds.end());
  for (size_t r = 1; r < rounds.size(); ++r) {
    iter_ms->push_back(
        static_cast<double>(rounds[r].second - rounds[r - 1].second) / 1e6);
  }
}

/// Set-up of a serve repetition: inputs plus the service with every
/// campaign registered (the service borrows the inputs, so it is declared
/// after them and destroyed first).
struct ServeSetup {
  std::vector<CampaignInput> campaigns;
  std::unique_ptr<serve::LabellingService> service;
  std::vector<serve::Campaign*> handles;
};

ServeSetup SetUpServe(uint64_t seed) {
  ServeSetup setup;
  setup.campaigns = MakeCampaigns(Workload::kServeAsync, seed, "");
  serve::ServiceOptions service_options;
  // Selection runs on the pump thread itself: pump + TI worker + the
  // annotator driver make the workload's three threads.
  service_options.shared_threads = 1;
  setup.service = std::make_unique<serve::LabellingService>(service_options);
  for (const CampaignInput& c : setup.campaigns) {
    serve::CampaignOptions options;
    options.name = c.name;
    options.config = c.config;
    options.synchronous_inference = false;
    setup.handles.push_back(setup.service->AddCampaign(
        options, &c.dataset, &c.pool, c.budget, c.run_seed));
  }
  return setup;
}

RepResult RunServeRepetition(uint64_t seed, bool traced) {
  RepResult rep;
  const auto setup_start = Clock::now();
  ServeSetup setup = SetUpServe(seed);
  rep.setup_s = Seconds(Clock::now() - setup_start);
  const std::vector<CampaignInput>& campaigns = setup.campaigns;
  serve::LabellingService* service = setup.service.get();
  const std::vector<serve::Campaign*>& handles = setup.handles;

  AnnotatorDriver driver(handles, seed);
  std::atomic<bool> stop{false};
  if (traced) {
    ledger::Reset();
    ledger::SetDrivingThread(true);
    ledger::Enable(true);
  }
  const auto run_start = Clock::now();
  Status started = service->StartAll();
  for (serve::Campaign* campaign : handles) campaign->sessions().ConnectAll();
  std::thread driver_thread([&] { driver.Run(stop); });
  Status status = started.ok() ? service->RunUntilComplete() : started;
  rep.run_s = Seconds(Clock::now() - run_start);
  stop.store(true, std::memory_order_release);
  driver_thread.join();
  if (traced) {
    ledger::Enable(false);
    rep.traced = true;
    rep.ledger = ledger::Snapshot();
  }
  if (!status.ok()) rep.problems.push_back("service: " + status.ToString());

  const serve::ServiceHealth health = service->HealthSnapshot();
  for (size_t c = 0; c < handles.size(); ++c) {
    serve::Campaign* campaign = handles[c];
    const CampaignInput& input = campaigns[c];
    const std::vector<PushRecord>& pushes = driver.pushes(c);
    rep.attempted += 1;
    for (const PushRecord& push : pushes) rep.attempted += push.counted;
    rep.ti_stall_ms += static_cast<double>(campaign->ti_stall_ns()) / 1e6;
    rep.ti_swaps += campaign->ti_swaps();
    rep.abandoned += health.campaigns[c].abandoned;
    if (campaign->state() != serve::Campaign::State::kComplete) {
      rep.problems.push_back(input.name + ": campaign ended " +
                             campaign->status().ToString());
      ++rep.failed;
      continue;
    }
    AddPrunerStats(campaign->run_state().agent, &rep);
    rep.answers += campaign->answers_committed();
    if (!CheckCampaign(input, campaign->result(), &rep)) ++rep.failed;
    rep.failed += CountUncommitted(input, campaign->assignment_log(),
                                   campaign->result(), pushes, &rep);
    AddRoundTimes(campaign->assignment_log(), driver.dispatches(c),
                  &rep.iter_ms);
  }
  rep.task_wait_ms = std::move(driver.task_wait_ms());
  rep.driver_lag_ms = std::move(driver.lag_ms());
  return rep;
}

}  // namespace

uint64_t InputSeed(uint64_t seed, size_t index) {
  return DeriveSeed(seed, 0x5eed0000 + index);
}

bool ParseWorkload(const std::string& name, Workload* out) {
  for (Workload w : {Workload::kPaperBatch, Workload::kWideCrowd,
                     Workload::kServeAsync}) {
    if (name == WorkloadName(w)) {
      *out = w;
      return true;
    }
  }
  return false;
}

const char* WorkloadName(Workload workload) {
  switch (workload) {
    case Workload::kPaperBatch: return "paper_batch";
    case Workload::kWideCrowd: return "wide_crowd";
    case Workload::kServeAsync: return "serve_async";
  }
  return "?";
}

std::vector<CampaignInput> MakeCampaigns(Workload workload, uint64_t seed,
                                         const std::string& checkpoint_root) {
  std::vector<CampaignInput> campaigns;
  auto add = [&](const std::string& variant, size_t objects, int annotators,
                 double budget, uint64_t salt) -> CampaignInput& {
    CampaignInput& c = campaigns.emplace_back();
    c.name = variant;
    c.dataset = MakeSpeech(variant, objects, DeriveSeed(seed, salt));
    c.pool = annotators == 0
                 ? bench::MakePoolFor(variant, c.dataset.num_classes,
                                      DeriveSeed(seed, salt + 1))
                 : bench::MakePoolOfSize(annotators, c.dataset.num_classes,
                                         DeriveSeed(seed, salt + 1));
    c.budget = budget;
    c.run_seed = DeriveSeed(seed, salt + 2);
    return c;
  };
  switch (workload) {
    case Workload::kPaperBatch:
      for (const char* variant : {"S12CP", "S3CP"}) {
        CampaignInput& c =
            add(variant, std::strcmp(variant, "S12CP") == 0 ? kS12Objects
                                                            : kS3Objects,
                0, kSpeechBudget, campaigns.size() * 16);
        c.config.checkpoint_dir = checkpoint_root + "/" + c.name;
        c.config.checkpoint_every_n_iterations = 10;
        c.accuracy_floor = AccuracyFloor(variant);
      }
      break;
    case Workload::kWideCrowd: {
      // The iteration cap, not the budget, ends the run: every input set
      // does the same number of selections over the same grid.
      CampaignInput& c = add("S12CP", 4096, 128, 40000.0, 0);
      c.config.max_iterations = 16;
      c.config.agent.threads = 2;
      c.config.agent.q.threads = 2;
      c.accuracy_floor = 0.80;
      break;
    }
    case Workload::kServeAsync:
      for (const char* variant : {"S12CP", "S3CP"}) {
        CampaignInput& c =
            add(variant, std::strcmp(variant, "S12CP") == 0 ? kS12Objects
                                                            : kS3Objects,
                kServeAnnotators, kSpeechBudget, campaigns.size() * 16);
        c.accuracy_floor = AccuracyFloor(variant);
      }
      break;
  }
  return campaigns;
}

RepResult RunRepetition(Workload workload, uint64_t seed, bool traced,
                        const std::string& work_dir) {
  // Restart the kernel's peak-RSS mark so each repetition reports its own
  // peak, independent of how many repetitions ran before it.
  if (std::FILE* f = std::fopen("/proc/self/clear_refs", "w")) {
    std::fputs("5", f);
    std::fclose(f);
  }
  RepResult rep = workload == Workload::kServeAsync
                      ? RunServeRepetition(seed, traced)
                      : RunBatchRepetition(workload, seed, traced, work_dir);
  rep.peak_rss_mb = static_cast<double>(bench::PeakRssKb()) / 1024.0;
  return rep;
}

double MeasureSetup(Workload workload, uint64_t seed,
                    const std::string& work_dir) {
  const auto start = Clock::now();
  if (workload == Workload::kServeAsync) {
    ServeSetup setup = SetUpServe(seed);
    return Seconds(Clock::now() - start);
  }
  BatchSetup setup = SetUpBatch(workload, seed, work_dir);
  return Seconds(Clock::now() - start);
}

Status RunStaged(core::RunState* rs, core::LabellingResult* result,
                 std::vector<core::AssignmentRecord>* log,
                 StagedTiming* timing) {
  CROWDRL_RETURN_IF_ERROR(rs->Bootstrap());
  const core::CrowdRlConfig& config = *rs->config;
  // The synchronous loop collects every answer of a round before it plans
  // the next, so each annotator it asks again has been idle since the
  // round's last answer: one wait sample per (annotator, round), taken at
  // its first task (its later tasks of the round were already queued).
  auto idle_since = Clock::now();
  std::vector<size_t> last_round(rs->num_annotators, SIZE_MAX);
  for (;;) {
    const auto iteration_start = Clock::now();
    core::IterationPlan plan;
    rs->PlanIteration(/*connected=*/nullptr, /*observe_pending=*/true, &plan);
    if (plan.stop) break;
    std::vector<bool> executed(plan.pairs.size(), false);
    bool stop_executing = false;
    for (size_t p = 0; p < plan.pairs.size() && !stop_executing; ++p) {
      const auto [object, annotator] = plan.pairs[p];
      const auto handed = Clock::now();
      bool ok = false;
      CROWDRL_RETURN_IF_ERROR(
          rs->ExecutePair(object, annotator, &ok, &stop_executing));
      executed[p] = ok;
      if (ok && last_round[annotator] != plan.t) {
        timing->task_wait_ms.push_back(Ms(handed - idle_since));
        last_round[annotator] = plan.t;
      }
    }
    idle_since = Clock::now();
    CROWDRL_RETURN_IF_ERROR(rs->FinishIteration(plan, executed));
    timing->iter_ms.push_back(Ms(Clock::now() - iteration_start));

    const bool checkpoint_due =
        !config.checkpoint_dir.empty() &&
        config.checkpoint_every_n_iterations > 0 &&
        rs->iterations % config.checkpoint_every_n_iterations == 0;
    if (!checkpoint_due) continue;
    ledger::Span span(ledger::Layer::kCkptWrite);
    CROWDRL_RETURN_IF_ERROR(rs->MaybeCheckpoint());
    std::error_code ec;
    const uintmax_t bytes = fs::file_size(
        fs::path(config.checkpoint_dir) /
            io::CheckpointFileName(rs->iterations),
        ec);
    if (ec) return Status::Internal("checkpoint not written: " + ec.message());
    span.AddUnits(bytes);
  }
  rs->ObserveFinalPending();
  CROWDRL_RETURN_IF_ERROR(rs->Finalize(result));
  *log = rs->assignment_log;
  return Status::Ok();
}

uint64_t Fingerprint(const core::LabellingResult& result,
                     const std::vector<core::AssignmentRecord>& log) {
  uint64_t h = 0xcbf29ce484222325ull;
  auto mix = [&h](const void* data, size_t size) {
    const unsigned char* bytes = static_cast<const unsigned char*>(data);
    for (size_t i = 0; i < size; ++i) {
      h ^= bytes[i];
      h *= 1099511628211ull;
    }
  };
  mix(result.labels.data(), result.labels.size() * sizeof(int));
  for (core::LabelSource source : result.sources) {
    const int s = static_cast<int>(source);
    mix(&s, sizeof(s));
  }
  mix(&result.budget_spent, sizeof(result.budget_spent));
  for (const core::AssignmentRecord& r : log) {
    const int64_t fields[4] = {static_cast<int64_t>(r.iteration), r.object,
                               r.annotator, r.executed ? 1 : 0};
    mix(fields, sizeof(fields));
  }
  return h;
}

}  // namespace crowdrl::perfbench
