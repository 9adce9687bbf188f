/// \file serve_tenancy.cpp
/// \brief Workload `serve-tenancy`: the campaign service under tenancy load.
/// 5,000 small campaigns from 16 owners arrive 30 s apart at a weighted
/// fair-share CampaignService on 3 clusters of about 25 processors, with the
/// exact-DES estimator and a group-commit journal; then recover() replays
/// that journal in a fresh instance. Admission, lease planning and a
/// knapsack per estimate dominate, and the eval cache almost always hits —
/// the opposite of grid-cold. It bypasses the middleware, the network, the
/// fault layer and large DES runs.

#include <algorithm>
#include <filesystem>

#include <unistd.h>

#include "grid_common.hpp"
#include "sched/repartition.hpp"
#include "service/estimator.hpp"
#include "service/service.hpp"

namespace e2e {
namespace {

using namespace oagrid;
namespace fs = std::filesystem;

constexpr int kClusters = 3;
constexpr int kOwners = 16;
constexpr int kSetupReps = 101;
constexpr Seconds kArrivalGap = 30.0;
constexpr sched::Heuristic kHeuristic = sched::Heuristic::kKnapsack;

struct Submission {
  service::CampaignSpec spec;
  Seconds at = 0.0;
};

struct Inputs {
  platform::Grid grid;
  std::vector<Submission> load;
  std::string description;
};

/// The seed draws the processor counts, the speed factors, each owner's
/// weight and which campaign gets which size and owner. The multiset of
/// sizes (half 1x1, half 2x3 scenarios x months) and of owners is fixed, so
/// every seed asks for the same number of months.
Rng inputs_rng(const Options& options) {
  return Rng(options.seed * 0x9E3779B97F4A7C15ull + 3);
}

Inputs make_inputs(const Options& options) {
  Rng rng = inputs_rng(options);
  Inputs in;
  const int campaigns = options.smoke ? 200 : 5000;
  in.description = "serve-tenancy campaigns " + std::to_string(campaigns) +
                   " owners " + std::to_string(kOwners) +
                   " policy fair max_active 16 estimator sim journal group\n";
  in.grid = jittered_grid(kClusters, 24, 26, rng, in.description);
  std::vector<double> weight(kOwners);
  for (int o = 0; o < kOwners; ++o) {
    weight[static_cast<std::size_t>(o)] =
        static_cast<double>(rng.uniform_int(1, 3));
    in.description += "owner " + std::to_string(o) + " weight " +
                      exact(weight[static_cast<std::size_t>(o)]) + "\n";
  }
  std::vector<int> owner(static_cast<std::size_t>(campaigns));
  std::vector<int> large(static_cast<std::size_t>(campaigns));
  for (int i = 0; i < campaigns; ++i) {
    owner[static_cast<std::size_t>(i)] = i % kOwners;
    large[static_cast<std::size_t>(i)] = i % 2;
  }
  std::shuffle(owner.begin(), owner.end(), rng);
  std::shuffle(large.begin(), large.end(), rng);
  for (int i = 0; i < campaigns; ++i) {
    const auto idx = static_cast<std::size_t>(i);
    Submission s;
    s.spec.owner = "tenant-" + std::to_string(owner[idx]);
    s.spec.weight = weight[static_cast<std::size_t>(owner[idx])];
    s.spec.scenarios = large[idx] ? 2 : 1;
    s.spec.months = large[idx] ? 3 : 1;
    s.at = static_cast<Seconds>(i) * kArrivalGap;
    in.load.push_back(s);
    in.description += std::to_string(owner[idx]) + (large[idx] ? "L" : "S");
  }
  return in;
}

service::ServiceOptions service_options(const Inputs& in,
                                        service::PerfEstimator& estimator,
                                        const std::string& journal_dir) {
  service::ServiceOptions options;
  options.policy = service::QueuePolicy::kWeightedFairShare;
  options.queue_capacity = in.load.size() + 1;
  options.max_active = 16;
  options.heuristic = kHeuristic;
  options.journal_dir = journal_dir;
  options.group_commit = true;
  options.estimator = &estimator;
  return options;
}

/// Runs `body` on the calling thread inside a one-item region of the shared
/// pool, so the parallel regions the service opens from there (each estimate
/// fans its one or two scenarios out over the pool) run inline, by the
/// pool's nested-use rule. Dispatched normally, every such region wakes all
/// pool workers for at most two items; on a 4-vCPU virtual machine that
/// wake-up latency follows host contention and moved run() by 40-70% from
/// one run to the next, which no regression bound can absorb.
template <typename Body>
void on_client_thread(Body&& body) {
  shared_pool().parallel_for(0, 1, [&](std::size_t) { body(); });
}

/// A fresh, empty journal directory inside the benchmark's scratch area.
std::string fresh_journal_dir(const Options& options, int index) {
  const std::string dir = options.scratch_dir + "/journal-" +
                          std::to_string(getpid()) + "-" +
                          std::to_string(index);
  fs::remove_all(dir);
  fs::create_directories(dir);
  return dir;
}

/// Every campaign completed all of its months.
bool all_completed(const service::CampaignService& svc, std::size_t expected) {
  const std::vector<service::CampaignId> ids = svc.campaign_ids();
  if (ids.size() != expected) return false;
  return std::all_of(ids.begin(), ids.end(), [&](service::CampaignId id) {
    const service::CampaignState& s = svc.campaign(id);
    return s.status == service::CampaignStatus::kCompleted &&
           s.months_done == s.spec.scenarios * s.spec.months;
  });
}

/// Counts one output check per campaign.
void check_campaigns(Report& report, const service::CampaignService& svc,
                     std::size_t expected) {
  const std::vector<service::CampaignId> ids = svc.campaign_ids();
  report.check(ids.size() == expected, "campaigns missing from the service");
  for (const service::CampaignId id : ids) {
    const service::CampaignState& s = svc.campaign(id);
    report.check(s.status == service::CampaignStatus::kCompleted &&
                     s.months_done == s.spec.scenarios * s.spec.months,
                 "campaign " + std::to_string(id) + " did not complete");
  }
}

struct RunOutcome {
  double run_s = 0.0;
  double cpu_s = 0.0;
  std::uint64_t signature = 0;
  std::uint64_t journal_records = 0;
  std::uintmax_t journal_bytes = 0;
  std::uint64_t lease_changes = 0;
  std::uint64_t plan_reuse = 0;
};

/// Builds a service over `estimator`, submits the load (each submit() inside
/// a span when traced) and times run().
RunOutcome serve(const Inputs& in, service::PerfEstimator& estimator,
                 const std::string& journal_dir, Report& report,
                 Tracer* tracer = nullptr,
                 const service::CampaignService** live = nullptr) {
  service::CampaignService svc(in.grid,
                               service_options(in, estimator, journal_dir));
  if (live != nullptr) *live = &svc;
  for (const Submission& s : in.load) {
    if (tracer != nullptr) {
      const auto span = tracer->scope("service.submit");
      (void)svc.submit(s.spec, s.at);
    } else {
      (void)svc.submit(s.spec, s.at);
    }
  }
  RunOutcome out;
  const double cpu0 = cpu_s();
  const double wall0 = wall_s();
  bool ran = false;
  if (tracer != nullptr) {
    const auto span = tracer->scope("service.run");
    on_client_thread([&] { ran = svc.run(); });
  } else {
    on_client_thread([&] { ran = svc.run(); });
  }
  out.run_s = wall_s() - wall0;
  out.cpu_s = cpu_s() - cpu0;
  if (live != nullptr) *live = nullptr;
  report.check(ran, "service run was cut short");
  check_campaigns(report, svc, in.load.size());
  out.signature = svc.state_signature();
  out.journal_records = svc.journal_seq();
  if (!journal_dir.empty())
    out.journal_bytes =
        fs::file_size(service::CampaignService::journal_path(journal_dir));
  out.lease_changes = svc.lease_changes();
  out.plan_reuse = svc.plan_reuse();
  return out;
}

/// Replays the journal in `journal_dir` in a fresh instance; checks that the
/// recovered state equals the uninterrupted run's. Returns the wall seconds
/// of recover() and the records it replayed.
std::pair<double, std::uint64_t> recover(const Inputs& in,
                                         const std::string& journal_dir,
                                         std::uint64_t signature,
                                         Report& report,
                                         Tracer* tracer = nullptr) {
  service::SimEstimator estimator;
  service::CampaignService svc(in.grid,
                               service_options(in, estimator, journal_dir));
  const double wall0 = wall_s();
  service::RecoveryReport recovered;
  if (tracer != nullptr) {
    const auto span = tracer->scope("journal.replay");
    on_client_thread([&] { recovered = svc.recover(); });
  } else {
    on_client_thread([&] { recovered = svc.recover(); });
  }
  const double recover_s = wall_s() - wall0;
  report.check(recovered.journal_found && svc.run() &&
                   all_completed(svc, in.load.size()) &&
                   svc.state_signature() == signature,
               "recovered state differs from the uninterrupted run");
  return {recover_s, recovered.replayed_records};
}

/// Timing decorator over the exact-DES estimator, used by the traced run.
/// Each vector() request is preceded by a probe of the knapsack family on
/// the same inputs (the request solves that family inside), and the
/// requests of one admission are grouped by the journal position they were
/// made at (admission appends its record only after Algorithm 1), so that
/// Algorithm 1 can be replayed on exactly the vectors it consumed.
class TracedEstimator final : public service::PerfEstimator {
 public:
  struct Batch {
    std::uint64_t journal_seq = 0;
    Count scenarios = 0;
    std::vector<sched::PerformanceVector> vectors;
  };

  TracedEstimator(Tracer& tracer, DesLedger& ledger)
      : tracer_(tracer), ledger_(ledger) {}

  [[nodiscard]] sched::PerformanceVector vector(
      const platform::Cluster& cluster, Count scenarios, Count months,
      sched::Heuristic heuristic) override {
    if (heuristic == sched::Heuristic::kKnapsack) {
      const auto probe = tracer_.scope("knapsack.family");
      (void)sched::knapsack_grouping_family(cluster, {scenarios, months});
    }
    sched::PerformanceVector vector;
    {
      const auto span = tracer_.scope("service.estimator");
      const auto inner = tracer_.scope("sim.perf_vector");
      const double cpu0 = cpu_s();
      const double wall0 = wall_s();
      vector = inner_.vector(cluster, scenarios, months, heuristic);
      ledger_.wall_s += wall_s() - wall0;
      ledger_.cpu_s += cpu_s() - cpu0;
    }
    const std::uint64_t seq = service_ != nullptr ? service_->journal_seq() : 0;
    if (batches_.empty() || batches_.back().journal_seq != seq ||
        batches_.back().scenarios != scenarios)
      batches_.push_back({seq, scenarios, {}});
    batches_.back().vectors.push_back(vector);
    return vector;
  }

  /// The service whose journal position groups the requests; set while it
  /// runs.
  const service::CampaignService*& service() noexcept { return service_; }
  [[nodiscard]] const std::vector<Batch>& batches() const noexcept {
    return batches_;
  }

 private:
  Tracer& tracer_;
  DesLedger& ledger_;
  service::SimEstimator inner_;
  const service::CampaignService* service_ = nullptr;
  std::vector<Batch> batches_;
};

void traced_run(const Options& options, const Inputs& in, Report& report) {
  // Untraced passes: with the journal (the timed configuration) and
  // without it; their difference is the journal's cost.
  service::SimEstimator plain;
  sim::eval_cache().clear();
  const std::string journaled_dir = fresh_journal_dir(options, 0);
  const RunOutcome journaled = serve(in, plain, journaled_dir, report);
  fs::remove_all(journaled_dir);
  sim::eval_cache().clear();
  const RunOutcome unjournaled = serve(in, plain, "", report);

  // Traced pass.
  Tracer tracer;
  DesLedger ledger;
  TracedEstimator traced(tracer, ledger);
  sim::eval_cache().clear();
  obs::set_enabled(true);
  const std::uint64_t events0 = des_events();
  const sim::EvalCacheStats stats0 = sim::eval_cache().stats();
  const std::string dir = fresh_journal_dir(options, 1);
  RunOutcome run;
  {
    const auto span = tracer.scope("campaign");
    run = serve(in, traced, dir, report, &tracer, &traced.service());
  }
  const sim::EvalCacheStats stats1 = sim::eval_cache().stats();
  const std::uint64_t events = des_events() - events0;
  obs::set_enabled(false);
  report.check(run.signature == journaled.signature,
               "traced run reached a different state");

  const auto [replay_s, replayed] =
      recover(in, dir, run.signature, report, &tracer);
  fs::remove_all(dir);

  // Algorithm 1 run again on the vectors each admission consumed.
  for (const TracedEstimator::Batch& batch : traced.batches()) {
    const auto span = tracer.scope("sched.repartition");
    (void)sched::greedy_repartition(batch.vectors, batch.scenarios);
  }

  const double perf_s = tracer.total("sim.perf_vector");
  report.metric("sim.perf_vector_s", perf_s, "s");
  report.metric("sim.perf_vector_cpu_util",
                ledger.cpu_s / (ledger.wall_s * nproc()), "ratio");
  report.metric("sim.des_runs",
                static_cast<double>(stats1.misses - stats0.misses), "count");
  report.metric("sim.des_events", static_cast<double>(events), "count");
  report.metric("sim.events_per_s", static_cast<double>(events) / perf_s,
                "1/s");
  report.metric("knapsack.family_s", tracer.total("knapsack.family"), "s");
  report.metric("knapsack.family_calls",
                static_cast<double>(tracer.count("knapsack.family")), "count");
  report.metric("sched.repartition_s", tracer.total("sched.repartition"), "s");
  report.metric("service.estimator_s", tracer.total("service.estimator"), "s");
  report.metric("service.estimator_calls",
                static_cast<double>(tracer.count("service.estimator")),
                "count");
  report.metric("service.submit_s", tracer.total("service.submit"), "s");
  report.metric("service.lease_changes",
                static_cast<double>(run.lease_changes), "count");
  report.metric("service.plan_reuse", static_cast<double>(run.plan_reuse),
                "count");
  report.metric("journal.records", static_cast<double>(run.journal_records),
                "count");
  report.metric("journal.bytes", static_cast<double>(run.journal_bytes),
                "bytes");
  report.metric("journal.overhead_s", journaled.run_s - unjournaled.run_s,
                "s");
  report.metric("journal.replay_records_per_s",
                static_cast<double>(replayed) / replay_s,
                "1/s");
  report.metric("evalcache.hit_ratio", hit_ratio(stats0, stats1), "ratio");
  report.metric("trace.overhead_s",
                tracer.total("service.run") - journaled.run_s, "s");
  tracer.write_json(options.scratch_dir + "/trace-serve-tenancy-" +
                    std::to_string(options.seed) + ".json");
}

}  // namespace

Report run_serve_tenancy(const Options& options) {
  const Inputs in = make_inputs(options);
  Report report;
  report.input_digest = hex64(fnv1a(in.description));

  if (options.trace) {
    traced_run(options, in, report);
    return report;
  }

  Samples per_campaign;
  Samples run_wall;
  Samples cpu;
  Samples recovery;
  std::uint64_t first_signature = 0;
  const double loop_start = wall_s();
  for (int iteration = 0;
       run_wall.size() == 0 || wall_s() - loop_start < options.seconds;
       ++iteration) {
    sim::eval_cache().clear();
    const std::string dir = fresh_journal_dir(options, iteration);
    service::SimEstimator estimator;
    const RunOutcome run = serve(in, estimator, dir, report);
    if (iteration == 0) first_signature = run.signature;
    report.check(run.signature == first_signature,
                 "service run is not deterministic");
    run_wall.add(run.run_s);
    per_campaign.add(run.run_s / static_cast<double>(in.load.size()));
    cpu.add(run.cpu_s);
    recovery.add(recover(in, dir, run.signature, report).first);
    fs::remove_all(dir);
  }

  // Set-up: build the grid, create the journal directory and open a service
  // on it (the service runs on the client thread; see on_client_thread).
  Samples setup;
  for (int rep = 0; rep < kSetupReps; ++rep) {
    const double t0 = wall_s();
    Rng rng = inputs_rng(options);
    std::string description;
    const platform::Grid grid =
        jittered_grid(kClusters, 24, 26, rng, description);
    const std::string dir = fresh_journal_dir(options, rep);
    service::SimEstimator estimator;
    {
      const service::CampaignService svc(
          grid, service_options(in, estimator, dir));
      setup.add(wall_s() - t0);
    }
    fs::remove_all(dir);
  }

  report.result_digest = hex64(first_signature);
  report.notes.push_back("setup_s: " + setup.describe());
  report.notes.push_back("run() wall: " + run_wall.describe());
  report.notes.push_back("cpu_s: " + cpu.describe());
  report.notes.push_back("recover_s: " + recovery.describe());
  report.metric("setup_s", setup.median(), "s");
  report.metric("campaign_s", per_campaign.median(), "s");
  report.metric("campaigns_per_s",
                static_cast<double>(in.load.size() * run_wall.size()) /
                    run_wall.sum(),
                "1/s");
  report.metric("recover_s", recovery.median(), "s");
  report.metric("cpu_s", cpu.median(), "s");
  report.metric("peak_rss_mb", peak_rss_mb(), "MB");
  return report;
}

}  // namespace e2e
