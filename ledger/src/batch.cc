// The batch workloads: paper_sweep (the paper's §6.1 world, seven runs
// back to back) and large_world (4,000 repositories, streaming Dijkstra
// rows, one LeLA-dominated run). Timed passes go through the Session
// API; the traced pass rebuilds the same world and runs from their
// public calls and must reproduce the Session's metrics exactly.

#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "core/disseminator.h"
#include "core/scenario.h"
#include "exp/scenario.h"
#include "exp/session.h"
#include "ledger.h"
#include "obs/export.h"

namespace ledger {
namespace {

using d3t::Result;
using d3t::Status;
using d3t::core::EngineMetrics;
using d3t::core::PullMetrics;

/// What one batch workload runs.
struct Plan {
  std::string name;
  WorldShape shape;
  /// Seeds the world when set; otherwise the world comes from --seed.
  std::optional<uint64_t> world_seed;
  std::vector<std::string> policies;
  bool controlled_cooperation = false;
  /// Fail/recover episodes of the extra churn run (0: no churn run).
  size_t churn_failures = 0;
  bool pull = false;
};

Plan PaperSweepPlan(bool tiny) {
  Plan plan;
  plan.name = "paper_sweep";
  plan.shape = tiny ? WorldShape{20, 120, true, 10, 300, 0.5, 1, {}}
                    : WorldShape{100, 600, true, 100, 10000, 0.5, 1, {}};
  // One fixed world, as the paper evaluates one trace set and topology:
  // between generated worlds the backlog of the all-updates run, and
  // with it peak RSS, swings by half. --seed picks the run inputs (LeLA
  // stream, churn script).
  plan.world_seed = kBaseWorldSeed;
  plan.policies = {"distributed", "centralized", "eq3-only", "all-updates",
                   "temporal"};
  plan.churn_failures = tiny ? 3 : 10;
  plan.pull = true;
  return plan;
}

Plan LargeWorldPlan(bool tiny) {
  Plan plan;
  plan.name = "large_world";
  plan.shape = tiny ? WorldShape{60, 360, false, 5, 100, 0.5, 4, {}}
                    : WorldShape{4000, 24000, false, 20, 500, 0.5, 4, {}};
  // --seed draws the network, which is what this workload stresses;
  // traces and interests stay fixed, so LeLA and the engine do the same
  // amount of work on every seed (between generated interest sets the
  // run's event count swings by a fifth).
  plan.shape.library_seed = kBaseWorldSeed;
  plan.policies = {"distributed"};
  plan.controlled_cooperation = true;
  return plan;
}

/// The plan's RunSpecs; the churn scenario spans the traces' horizon.
Result<std::vector<d3t::exp::RunSpec>> MakeSpecs(
    const Plan& plan, const std::vector<d3t::trace::Trace>& traces,
    uint64_t seed) {
  std::vector<d3t::exp::RunSpec> specs;
  for (const std::string& policy : plan.policies) {
    d3t::exp::RunSpec spec;
    spec.policy.policy = policy;
    spec.overlay.controlled_cooperation = plan.controlled_cooperation;
    spec.seed = seed;
    spec.label = policy;
    specs.push_back(spec);
  }
  if (plan.churn_failures > 0) {
    d3t::exp::ChurnOptions churn;
    churn.repositories = plan.shape.repositories;
    churn.failures = plan.churn_failures;
    churn.horizon = traces.front().ticks().back().time;
    churn.seed = seed;
    Result<d3t::core::Scenario> scenario = d3t::exp::MakeChurnScenario(churn);
    if (!scenario.ok()) return scenario.status();
    d3t::exp::RunSpec spec = specs.front();
    spec.policy.repair_policy = "fallback";
    spec.scenario = std::move(scenario).value();
    spec.label = "distributed+churn";
    specs.push_back(std::move(spec));
  }
  return specs;
}

d3t::exp::SessionBuilder MakeBuilder(const WorldShape& shape, uint64_t seed) {
  d3t::exp::NetworkConfig network;
  network.repositories = shape.repositories;
  network.routers = shape.routers;
  network.use_floyd_warshall = shape.floyd_warshall;
  d3t::exp::WorkloadConfig workload;
  workload.items = shape.items;
  workload.ticks = shape.ticks;
  workload.stringent_fraction = shape.stringent_fraction;
  d3t::exp::SessionBuilder builder;
  builder.SetNetwork(network).SetWorkload(workload).SetSeed(seed)
      .SetWorkerThreads(shape.threads);
  if (shape.library_seed.has_value()) {
    DecomposedWorld library;
    BuildLibrary(shape, *shape.library_seed, nullptr, &library);
    builder.SetTraces(std::move(library.traces))
        .SetInterests(std::move(library.interests));
  }
  return builder;
}

/// One untraced pass's outputs and times.
struct Pass {
  double setup_s = 0.0;
  double run_s = 0.0;
  std::vector<Result<EngineMetrics>> runs;
  Result<PullMetrics> pull = Status::Internal("not run");
  std::vector<std::string> labels;
};

uint64_t WorldSeed(const Plan& plan, const Options& options) {
  return plan.world_seed.value_or(options.seed);
}

/// Every run of the plan against one built world: RunSpecs through
/// Session::Run, the pull run through PullEngine::Run.
Status RunAllSpecs(const Plan& plan, const d3t::exp::SimulationSession& session,
                   uint64_t seed, Pass* pass) {
  const d3t::exp::World& world = session.world();
  Result<std::vector<d3t::exp::RunSpec>> specs =
      MakeSpecs(plan, world.traces(), seed);
  if (!specs.ok()) return specs.status();
  pass->runs.clear();
  pass->labels.clear();
  const double t0 = Now();
  for (const d3t::exp::RunSpec& spec : *specs) {
    Result<d3t::exp::ExperimentResult> result = session.Run(spec);
    pass->labels.push_back(spec.label);
    if (result.ok()) {
      pass->runs.emplace_back(std::move(result->metrics));
    } else {
      pass->runs.emplace_back(result.status());
    }
  }
  if (plan.pull) {
    d3t::core::PullEngine pull(world.delays(), world.interests(),
                               world.traces(), d3t::core::PullOptions{},
                               &world.change_timelines());
    pass->pull = pull.Run();
  }
  pass->run_s = Now() - t0;
  return Status::Ok();
}

/// World build through SessionBuilder::Build, then every run.
Result<Pass> UntracedPass(const Plan& plan, const Options& options,
                          std::optional<d3t::exp::SimulationSession>* keep) {
  Pass pass;
  const double t0 = Now();
  Result<d3t::exp::SimulationSession> session =
      MakeBuilder(plan.shape, WorldSeed(plan, options)).Build();
  pass.setup_s = Now() - t0;
  if (!session.ok()) return session.status();
  D3T_RETURN_IF_ERROR(RunAllSpecs(plan, *session, options.seed, &pass));
  if (keep != nullptr) keep->emplace(std::move(session).value());
  return pass;
}

Status CheckAgainst(const Result<EngineMetrics>& got,
                    const Result<EngineMetrics>& want) {
  if (!got.ok()) return got.status();
  if (!want.ok()) return Status::FailedPrecondition("no reference result");
  return SameEngineMetrics(*got, *want);
}

Status CheckPullAgainst(const Result<PullMetrics>& got,
                        const Result<PullMetrics>& want) {
  if (!got.ok()) return got.status();
  if (!want.ok()) return Status::FailedPrecondition("no reference result");
  return SamePullMetrics(*got, *want);
}

/// Deliberately wrong expectation for the ledger's own failure test.
void CorruptReference(Pass& reference) {
  if (!reference.runs.empty() && reference.runs.front().ok()) {
    EngineMetrics wrong = *reference.runs.front();
    wrong.messages += 1;
    reference.runs.front() = wrong;
  }
}

/// Records the pass's operations: each run (and the pull run) is one,
/// failed when it returned non-Ok or differs from `reference`.
void RecordPassOps(const Plan& plan, const Pass& pass, const Pass* reference,
                   const std::string& prefix, Outcome* outcome) {
  for (size_t i = 0; i < pass.runs.size(); ++i) {
    const Status status = reference == nullptr
                              ? pass.runs[i].status()
                              : CheckAgainst(pass.runs[i], reference->runs[i]);
    outcome->Op(prefix + " run " + pass.labels[i], status);
  }
  if (plan.pull) {
    const Status status = reference == nullptr
                              ? pass.pull.status()
                              : CheckPullAgainst(pass.pull, reference->pull);
    outcome->Op(prefix + " pull run", status);
  }
}

Outcome TimedRuns(const Plan& plan, const Options& options) {
  Outcome outcome;
  outcome.threads = plan.shape.threads;
  std::vector<double> setups, runs, totals;
  Pass reference;
  std::optional<d3t::exp::SimulationSession> session;
  const double start = Now();
  double last_total = 0.0;
  // Full passes (set-up, runs, checks): at least three, so the median
  // outlasts one pass slowed by the machine, and more while they leave
  // part of the budget ...
  for (int index = 0;; ++index) {
    if (index >= kMinPasses &&
        Now() - start + last_total > 0.7 * options.seconds) {
      break;
    }
    session.reset();  // one world at a time, or peak RSS doubles
    const double t0 = Now();
    Result<Pass> pass = UntracedPass(plan, options, &session);
    if (!pass.ok()) {
      outcome.Op("pass " + std::to_string(index), pass.status());
      break;
    }
    RecordPassOps(plan, *pass, index == 0 ? nullptr : &reference,
                  "pass " + std::to_string(index), &outcome);
    last_total = Now() - t0;
    setups.push_back(pass->setup_s);
    runs.push_back(pass->run_s);
    totals.push_back(last_total);
    if (index == 0) {
      reference = std::move(pass).value();
      if (options.inject_wrong) CorruptReference(reference);
    }
  }
  // ... then the runs again on the last world while they fit it, so a
  // world whose build dominates still gets a steady run_s median.
  for (int index = 0; session.has_value(); ++index) {
    if (Now() - start + Median(runs) > options.seconds) break;
    Pass again;
    const Status status = RunAllSpecs(plan, *session, options.seed, &again);
    outcome.Op("rerun " + std::to_string(index), status);
    if (!status.ok()) break;
    RecordPassOps(plan, again, &reference, "rerun " + std::to_string(index),
                  &outcome);
    runs.push_back(again.run_s);
  }
  session.reset();
  // A sub-second world build gets more set-up samples than the passes
  // alone give, so its median is steady.
  while (!setups.empty() && setups.size() < kSetupSamples &&
         Median(setups) < 1.0) {
    const double t0 = Now();
    Result<d3t::exp::SimulationSession> built =
        MakeBuilder(plan.shape, WorldSeed(plan, options)).Build();
    setups.push_back(Now() - t0);
    outcome.Op("extra set-up", built.status());
  }
  outcome.metrics["setup_s"] = Median(setups);
  outcome.metrics["run_s"] = Median(runs);
  outcome.metrics["total_s"] = Median(totals);
  outcome.metrics["peak_rss_mib"] = PeakRssMib();
  outcome.Note("passes: " + std::to_string(totals.size()) +
               ", run samples: " + std::to_string(runs.size()) +
               ", set-up samples: " + std::to_string(setups.size()));
  return outcome;
}

/// Session::Run rebuilt from its public calls: BuildOverlay → Validate →
/// Engine::Run, each under a span.
Result<EngineMetrics> TracedRun(const d3t::exp::RunSpec& spec,
                                const DecomposedWorld& world,
                                const WorldShape& shape, Spans* spans) {
  Result<d3t::core::Overlay> overlay =
      BuildSpecOverlay(spec, shape, world.delays, world.interests,
                       world.mean_pair_delay_us, spans);
  if (!overlay.ok()) return overlay.status();
  std::unique_ptr<d3t::core::Disseminator> policy =
      d3t::core::MakeDisseminator(spec.policy.policy);
  if (policy == nullptr) return Status::InvalidArgument("unknown policy");
  d3t::core::EngineOptions engine_options;
  engine_options.comp_delay = d3t::sim::Millis(spec.policy.comp_delay_ms);
  engine_options.tag_check_cost_factor = spec.policy.tag_check_cost_factor;
  engine_options.coalesce_deliveries = spec.policy.coalesce_deliveries;
  engine_options.drain_process_spans = spec.policy.drain_process_spans;
  Result<d3t::core::RepairPolicy> repair =
      d3t::core::ParseRepairPolicy(spec.policy.repair_policy);
  if (!repair.ok()) return repair.status();
  engine_options.repair_policy = *repair;
  engine_options.repair_delay = d3t::sim::Millis(spec.policy.repair_delay_ms);
  d3t::core::Engine engine(*overlay, world.delays, world.traces, *policy,
                           engine_options, &world.timelines,
                           spec.scenario.empty() ? nullptr : &spec.scenario);
  Scope scope(spans, "core::Engine::Run");
  return engine.Run();
}

Outcome TracedRuns(const Plan& plan, const Options& options) {
  Outcome outcome;
  outcome.threads = plan.shape.threads;
  const WorldShape& shape = plan.shape;

  // The untraced pass: the reference metrics and the untraced total.
  double t0 = Now();
  Result<Pass> reference = UntracedPass(plan, options, nullptr);
  const double untraced_total = Now() - t0;
  if (!reference.ok()) {
    outcome.Op("untraced pass", reference.status());
    return outcome;
  }
  RecordPassOps(plan, *reference, nullptr, "untraced", &outcome);
  if (options.inject_wrong) CorruptReference(*reference);

  // The traced pass: the same world and runs from their public calls.
  Spans spans;
  t0 = Now();
  const int root = spans.Begin("workload:" + plan.name);
  DecomposedWorld world;
  outcome.Op("traced world build",
             BuildDecomposedWorld(shape, WorldSeed(plan, options), &spans,
                                  &world));
  Result<std::vector<d3t::exp::RunSpec>> specs =
      MakeSpecs(plan, world.traces, options.seed);
  if (!specs.ok()) {
    outcome.Op("traced specs", specs.status());
    return outcome;
  }
  std::vector<Result<EngineMetrics>> traced;
  for (size_t i = 0; i < specs->size(); ++i) {
    const d3t::exp::RunSpec& spec = (*specs)[i];
    spans.set_run(static_cast<uint32_t>(i + 1));
    Scope run(&spans, "run:" + spec.label);
    traced.push_back(TracedRun(spec, world, shape, &spans));
  }
  Result<PullMetrics> pull = Status::Internal("not run");
  if (plan.pull) {
    spans.set_run(static_cast<uint32_t>(specs->size() + 1));
    d3t::core::PullEngine engine(world.delays, world.interests, world.traces,
                                 d3t::core::PullOptions{}, &world.timelines);
    Scope scope(&spans, "core::PullEngine::Run");
    pull = engine.Run();
  }
  spans.End(root);
  const double traced_total = Now() - t0;

  // The breakdown must reproduce Session::Run's metrics exactly.
  EngineMetrics sum;
  for (size_t i = 0; i < traced.size(); ++i) {
    outcome.Op("traced run " + (*specs)[i].label,
               CheckAgainst(traced[i], reference->runs[i]));
    if (!traced[i].ok()) continue;
    sum.events += traced[i]->events;
    sum.messages += traced[i]->messages;
    sum.checks += traced[i]->checks;
    sum.coalesced_messages += traced[i]->coalesced_messages;
    sum.process_wakeups += traced[i]->process_wakeups;
    sum.repairs += traced[i]->repairs;
  }
  if (plan.pull) {
    outcome.Op("traced pull run", CheckPullAgainst(pull, reference->pull));
  }

  FillWorldLayers(spans, shape, &outcome);
  FillEngineLayers(sum, spans.SelfSeconds("core::Engine::Run"), &outcome);
  outcome.metrics["core.pull_s"] = spans.SelfSeconds("core::PullEngine::Run");
  FillProfile(spans, root, traced_total, untraced_total, &outcome);

  RunProbes(shape, WorldSeed(plan, options), specs->front(), options.tiny,
            &outcome);
  for (const char* name :
       {"serve.publish_s", "serve.ingest_s", "serve.feed_sys_s",
        "serve.replay_s", "serve.report_s", "serve.resubscribes",
        "serve.stale_frames", "serve.feed_frames_per_s", "net.frames_tx",
        "net.bytes_tx", "net.stalls", "net.decode_errors"}) {
    outcome.metrics[name] = 0.0;  // no transport or serving node here
  }
  if (!options.trace_out.empty()) {
    outcome.Op("write spans",
               d3t::obs::WriteFile(options.trace_out,
                                   spans.ChromeJson("ledger " + plan.name)));
  }
  return outcome;
}

}  // namespace

Outcome RunPaperSweep(const Options& options) {
  const Plan plan = PaperSweepPlan(options.tiny);
  return options.trace ? TracedRuns(plan, options) : TimedRuns(plan, options);
}

Outcome RunLargeWorld(const Options& options) {
  const Plan plan = LargeWorldPlan(options.tiny);
  return options.trace ? TracedRuns(plan, options) : TimedRuns(plan, options);
}

}  // namespace ledger
