// Property-style invariants of the dissemination engine, swept over
// policies, degrees, delays and seeds with parameterized gtest.

#include <initializer_list>
#include <memory>
#include <string>
#include <tuple>

#include "core/engine.h"
#include "core/lela.h"
#include "gtest/gtest.h"
#include "trace/synthetic.h"

namespace d3t::core {
namespace {

struct Sweep {
  uint64_t seed;
  size_t repos;
  size_t items;
  size_t degree;
  sim::SimTime comm;
  sim::SimTime comp;
};

constexpr Sweep kSweeps[] = {
    {101, 12, 4, 2, sim::Millis(20), sim::Millis(5)},
    {102, 25, 6, 4, sim::Millis(40), sim::Millis(12)},
    {103, 8, 3, 1, sim::Millis(10), sim::Millis(2)},
    {104, 30, 5, 30, sim::Millis(15), sim::Millis(8)},
};

using SweepParam = std::tuple<Sweep, const char*>;

struct Built {
  Overlay overlay{1, 0};
  net::OverlayDelayModel delays = net::OverlayDelayModel::Uniform(1, 0);
  std::vector<trace::Trace> traces;
};

Built Build(const Sweep& sweep) {
  Built built;
  Rng rng(sweep.seed);
  InterestOptions workload;
  workload.repository_count = sweep.repos;
  workload.item_count = sweep.items;
  auto interests = GenerateInterests(workload, rng);
  built.delays = net::OverlayDelayModel::Uniform(sweep.repos + 1, sweep.comm);
  LelaOptions options;
  options.coop_degree = sweep.degree;
  Result<LelaResult> result =
      BuildOverlay(built.delays, interests, sweep.items, options, rng);
  EXPECT_TRUE(result.ok());
  built.overlay = std::move(result->overlay);
  for (size_t i = 0; i < sweep.items; ++i) {
    trace::SyntheticTraceOptions trace_options;
    trace_options.tick_count = 250;
    trace_options.min_price = 15.0 + static_cast<double>(i);
    trace_options.max_price = 16.0 + static_cast<double>(i);
    built.traces.push_back(
        std::move(trace::GenerateSyntheticTrace(trace_options, rng)).value());
  }
  return built;
}

std::string SweepName(const SweepParam& param) {
  const Sweep& sweep = std::get<0>(param);
  std::string policy = std::get<1>(param);
  for (auto& ch : policy) {
    if (ch == '-') ch = '_';
  }
  return policy + "_s" + std::to_string(sweep.seed) + "_r" +
         std::to_string(sweep.repos) + "_d" + std::to_string(sweep.degree);
}

class EnginePropertyTest : public testing::TestWithParam<SweepParam> {};

TEST_P(EnginePropertyTest, StructuralInvariantsHold) {
  const auto& [sweep, policy_name] = GetParam();
  Built built = Build(sweep);
  std::unique_ptr<Disseminator> policy = MakeDisseminator(policy_name);
  ASSERT_NE(policy, nullptr);
  EngineOptions options;
  options.comp_delay = sweep.comp;
  Engine engine(built.overlay, built.delays, built.traces, *policy,
                options);
  Result<EngineMetrics> result = engine.Run();
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  const EngineMetrics& m = *result;

  // Counting invariants.
  EXPECT_LE(m.source_messages, m.messages);
  EXPECT_LE(m.source_checks, m.checks);
  EXPECT_LE(m.messages, m.checks)
      << "every push is preceded by a charged check";
  EXPECT_GT(m.events, 0u);
  EXPECT_GT(m.horizon, 0);

  // Fidelity is a percentage and the source is always perfect.
  EXPECT_GE(m.loss_percent, 0.0);
  EXPECT_LE(m.loss_percent, 100.0);
  EXPECT_DOUBLE_EQ(m.per_member_loss[0], 0.0);
  for (double loss : m.per_member_loss) {
    if (loss >= 0.0) {
      EXPECT_LE(loss, 100.0);
    }
  }
}

INSTANTIATE_TEST_SUITE_P(
    Sweeps, EnginePropertyTest,
    testing::Combine(testing::ValuesIn(kSweeps),
                     testing::Values("distributed", "centralized", "eq3-only",
                                     "all-updates", "temporal")),
    [](const testing::TestParamInfo<SweepParam>& info) {
      return SweepName(info.param);
    });

// Only the exact policies guarantee 100% fidelity.
void ExactPoliciesArePerfectWithoutDelays(const Sweep& sweep,
                                          const char* policy_name) {
  Sweep zero = sweep;
  zero.comm = 0;
  zero.comp = 0;
  Built built = Build(zero);
  std::unique_ptr<Disseminator> policy = MakeDisseminator(policy_name);
  EngineOptions options;
  options.comp_delay = 0;
  Engine engine(built.overlay, built.delays, built.traces, *policy, options);
  Result<EngineMetrics> result = engine.Run();
  ASSERT_TRUE(result.ok());
  EXPECT_DOUBLE_EQ(result->loss_percent, 0.0);
}

// Monotonicity holds only for the policies that forward every needed
// update. Temporal and eq3-only outcomes depend on *which* updates reach
// a node (rate-limit windows / missed-update state), so a delay shift
// can accidentally improve their fidelity.
void MoreDelayNeverGainsFidelity(const Sweep& sweep,
                                 const char* policy_name) {
  Built slow = Build(sweep);
  Sweep fast_sweep = sweep;
  fast_sweep.comm = 0;
  Built fast = Build(fast_sweep);
  std::unique_ptr<Disseminator> p1 = MakeDisseminator(policy_name);
  std::unique_ptr<Disseminator> p2 = MakeDisseminator(policy_name);
  EngineOptions options;
  options.comp_delay = sweep.comp;
  Engine slow_engine(slow.overlay, slow.delays, slow.traces, *p1, options);
  Engine fast_engine(fast.overlay, fast.delays, fast.traces, *p2, options);
  Result<EngineMetrics> slow_result = slow_engine.Run();
  Result<EngineMetrics> fast_result = fast_engine.Run();
  ASSERT_TRUE(slow_result.ok());
  ASSERT_TRUE(fast_result.ok());
  // Allow a small tolerance: the overlay differs (preference factors see
  // different delays), so this is monotonicity in distribution, not
  // pathwise.
  EXPECT_GE(slow_result->loss_percent + 0.75, fast_result->loss_percent);
}

/// One (sweep, policy) case of a property that holds for a subset of
/// the policies.
class PolicySubsetTest : public EnginePropertyTest {
 public:
  using Body = void (*)(const Sweep&, const char*);
  PolicySubsetTest(Body body, SweepParam param)
      : body_(body), param_(param) {}
  void TestBody() override {
    body_(std::get<0>(param_), std::get<1>(param_));
  }

 private:
  Body body_;
  SweepParam param_;
};

/// Registers `body` over every sweep and just `policies`. A TEST_P would
/// run over every policy of the Sweeps instantiation, so these cases are
/// registered directly, under the names that instantiation gives them.
void RegisterOverPolicies(const char* test, PolicySubsetTest::Body body,
                          std::initializer_list<const char*> policies) {
  for (const Sweep& sweep : kSweeps) {
    for (const char* policy : policies) {
      const SweepParam param(sweep, policy);
      testing::RegisterTest(
          "Sweeps/EnginePropertyTest",
          (std::string(test) + "/" + SweepName(param)).c_str(), nullptr,
          testing::PrintToString(param).c_str(), __FILE__, __LINE__,
          [=]() -> EnginePropertyTest* {
            return new PolicySubsetTest(body, param);
          });
    }
  }
}

[[maybe_unused]] const bool kPolicySubsetsRegistered = [] {
  RegisterOverPolicies("ExactPoliciesArePerfectWithoutDelays",
                       &ExactPoliciesArePerfectWithoutDelays,
                       {"distributed", "centralized"});
  RegisterOverPolicies("MoreDelayNeverGainsFidelity",
                       &MoreDelayNeverGainsFidelity,
                       {"distributed", "centralized", "all-updates"});
  return true;
}();

// ---------------------------------------------------------------------------
// Cross-policy agreement: under zero delays the distributed and
// centralized policies must deliver *equivalent coherency outcomes* on
// the same overlay, even though their message sets differ.

class PolicyAgreementTest : public testing::TestWithParam<uint64_t> {};

TEST_P(PolicyAgreementTest, ZeroDelayOutcomesAgree) {
  Rng rng(GetParam());
  InterestOptions workload;
  workload.repository_count = 20;
  workload.item_count = 5;
  auto interests = GenerateInterests(workload, rng);
  auto delays = net::OverlayDelayModel::Uniform(21, 0);
  LelaOptions options;
  options.coop_degree = 3;
  Result<LelaResult> built =
      BuildOverlay(delays, interests, 5, options, rng);
  ASSERT_TRUE(built.ok());
  std::vector<trace::Trace> traces;
  for (int i = 0; i < 5; ++i) {
    trace::SyntheticTraceOptions trace_options;
    trace_options.tick_count = 300;
    traces.push_back(
        std::move(trace::GenerateSyntheticTrace(trace_options, rng))
            .value());
  }
  EngineOptions engine_options;
  engine_options.comp_delay = 0;
  std::vector<EngineMetrics> metrics;
  for (const char* name : {"distributed", "centralized"}) {
    std::unique_ptr<Disseminator> policy = MakeDisseminator(name);
    Engine engine(built->overlay, delays, traces, *policy, engine_options);
    Result<EngineMetrics> result = engine.Run();
    ASSERT_TRUE(result.ok());
    metrics.push_back(std::move(result).value());
  }
  EXPECT_DOUBLE_EQ(metrics[0].loss_percent, 0.0);
  EXPECT_DOUBLE_EQ(metrics[1].loss_percent, 0.0);
  // Fig. 11(b): comparable message counts.
  const double ratio = static_cast<double>(metrics[0].messages) /
                       static_cast<double>(metrics[1].messages);
  EXPECT_GT(ratio, 0.5);
  EXPECT_LT(ratio, 2.0);
}

INSTANTIATE_TEST_SUITE_P(Seeds, PolicyAgreementTest,
                         testing::Values(1, 2, 3, 4, 5, 6, 7, 8));

}  // namespace
}  // namespace d3t::core
