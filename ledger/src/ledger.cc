#include <sys/resource.h>

#include <algorithm>
#include <chrono>
#include <cinttypes>
#include <cstdio>
#include <cstring>

#include "common/random.h"
#include "core/coop_degree.h"
#include "core/interest.h"
#include "core/lela.h"
#include "ledger.h"
#include "net/routing.h"
#include "net/topology_generator.h"
#include "serve/cluster.h"
#include "trace/synthetic.h"

namespace ledger {

using d3t::Status;

void Outcome::Op(const std::string& what, const Status& status) {
  ++attempted;
  if (status.ok()) return;
  ++failed;
  failures.push_back(what + ": " + status.ToString());
}

double Now() {
  return std::chrono::duration<double>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

double Median(std::vector<double> values) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const size_t mid = values.size() / 2;
  return values.size() % 2 == 1 ? values[mid]
                                 : 0.5 * (values[mid - 1] + values[mid]);
}

double PeakRssMib() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // KiB on Linux
}

double SystemCpuSeconds() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_stime.tv_sec) +
         static_cast<double>(usage.ru_stime.tv_usec) * 1e-6;
}

Status SameEngineMetrics(const d3t::core::EngineMetrics& got,
                         const d3t::core::EngineMetrics& want) {
  // The cluster's report check compares every scalar bit for bit and
  // the per-member vector by count + hash; the element-wise pass below
  // makes the vector comparison exact too.
  D3T_RETURN_IF_ERROR(d3t::serve::EngineReportMatches(
      d3t::serve::MakeEngineReport(0, got).u.engine_report, want));
  if (got.per_member_loss.size() != want.per_member_loss.size() ||
      std::memcmp(got.per_member_loss.data(), want.per_member_loss.data(),
                  got.per_member_loss.size() * sizeof(double)) != 0) {
    return Status::Internal("per_member_loss differs");
  }
  return Status::Ok();
}

namespace {

bool SameBits(double a, double b) { return std::memcmp(&a, &b, sizeof a) == 0; }

}  // namespace

Status SamePullMetrics(const d3t::core::PullMetrics& got,
                       const d3t::core::PullMetrics& want) {
  const bool same =
      SameBits(got.loss_percent, want.loss_percent) &&
      got.per_member_loss.size() == want.per_member_loss.size() &&
      std::memcmp(got.per_member_loss.data(), want.per_member_loss.data(),
                  got.per_member_loss.size() * sizeof(double)) == 0 &&
      got.polls == want.polls && got.wire_messages == want.wire_messages &&
      got.changed_polls == want.changed_polls &&
      got.scenario_ops == want.scenario_ops &&
      got.suppressed_polls == want.suppressed_polls &&
      got.outage_pair_time == want.outage_pair_time &&
      got.outage_out_of_sync_time == want.outage_out_of_sync_time &&
      SameBits(got.outage_loss_percent, want.outage_loss_percent) &&
      got.horizon == want.horizon &&
      SameBits(got.source_utilization, want.source_utilization);
  return same ? Status::Ok() : Status::Internal("pull metrics differ");
}

Spans::Spans() : origin_(Now()) {}

int Spans::Begin(const std::string& name) {
  const int id = static_cast<int>(spans_.size());
  spans_.push_back({name, Now() - origin_, 0.0, open_, run_});
  child_time_.push_back(0.0);
  open_ = id;
  return id;
}

void Spans::End(int id) {
  Span& span = spans_[static_cast<size_t>(id)];
  span.end = Now() - origin_;
  if (span.parent >= 0) {
    child_time_[static_cast<size_t>(span.parent)] += span.end - span.start;
  }
  open_ = span.parent;
}

double Spans::SelfSeconds(const std::string& name) const {
  double total = 0.0;
  for (size_t i = 0; i < spans_.size(); ++i) {
    if (spans_[i].name == name) {
      total += spans_[i].end - spans_[i].start - child_time_[i];
    }
  }
  return total;
}

double Spans::AccountedSeconds(int root) const {
  // Spans are appended in open order, so every descendant of `root`
  // follows it; walking parents finds them.
  double total = 0.0;
  for (size_t i = static_cast<size_t>(root) + 1; i < spans_.size(); ++i) {
    if (spans_[i].name.find("::") == std::string::npos) continue;
    int up = spans_[i].parent;
    while (up >= 0 && up != root) up = spans_[static_cast<size_t>(up)].parent;
    if (up == root) {
      total += spans_[i].end - spans_[i].start - child_time_[i];
    }
  }
  return total;
}

std::string Spans::ChromeJson(const std::string& label) const {
  std::string out = "{\"traceEvents\": [";
  char line[512];
  std::snprintf(line, sizeof(line),
                "\n  {\"name\": \"process_name\", \"ph\": \"M\", \"pid\": 0, "
                "\"args\": {\"name\": \"%s\"}}",
                label.c_str());
  out += line;
  for (size_t i = 0; i < spans_.size(); ++i) {
    const Span& span = spans_[i];
    std::snprintf(line, sizeof(line),
                  ",\n  {\"name\": \"%s\", \"ph\": \"X\", \"pid\": 0, "
                  "\"tid\": %" PRIu32 ", \"ts\": %.3f, \"dur\": %.3f, "
                  "\"args\": {\"id\": %zu, \"parent\": %d, \"run\": %" PRIu32
                  "}}",
                  span.name.c_str(), span.run, span.start * 1e6,
                  (span.end - span.start) * 1e6, i, span.parent, span.run);
    out += line;
  }
  out += "\n], \"displayTimeUnit\": \"ms\"}\n";
  return out;
}

void BuildLibrary(const WorldShape& shape, uint64_t seed, Spans* spans,
                  DecomposedWorld* out) {
  // The RNG streams SessionBuilder documents as part of its contract:
  // traces and interests fork streams 2 and 3 of the seed.
  const d3t::Rng master(seed);
  {
    Scope scope(spans, "trace::BuildTraceLibrary");
    d3t::Rng rng = d3t::Rng(master).Fork(2);
    out->traces = d3t::trace::BuildTraceLibrary(shape.items, shape.ticks, rng);
  }
  Scope scope(spans, "core::GenerateInterests");
  d3t::core::InterestOptions options;
  options.repository_count = shape.repositories;
  options.item_count = shape.items;
  options.stringent_fraction = shape.stringent_fraction;
  d3t::Rng rng = d3t::Rng(master).Fork(3);
  out->interests = d3t::core::GenerateInterests(options, rng);
}

Status BuildDecomposedWorld(const WorldShape& shape, uint64_t seed,
                            Spans* spans, DecomposedWorld* out) {
  // Topology from stream 1, as SessionBuilder draws it.
  d3t::Rng topo_rng = d3t::Rng(seed).Fork(1);
  d3t::net::TopologyGeneratorOptions topo_options;
  topo_options.router_count = shape.routers;
  topo_options.repository_count = shape.repositories;
  d3t::Result<d3t::net::Topology> topo = [&] {
    Scope scope(spans, "net::GenerateTopology");
    return d3t::net::GenerateTopology(topo_options, topo_rng);
  }();
  if (!topo.ok()) return topo.status();

  if (shape.floyd_warshall) {
    d3t::Result<d3t::net::RoutingTables> routing = [&] {
      Scope scope(spans, "net::RoutingTables::FloydWarshall");
      return d3t::net::RoutingTables::FloydWarshall(*topo);
    }();
    if (!routing.ok()) return routing.status();
    Scope scope(spans, "net::OverlayDelayModel::FromRouting");
    d3t::Result<d3t::net::OverlayDelayModel> delays =
        d3t::net::OverlayDelayModel::FromRouting(*topo, *routing);
    if (!delays.ok()) return delays.status();
    out->delays = std::move(delays).value();
  } else {
    Scope scope(spans, "net::OverlayDelayModel::FromTopologyAllSources");
    auto delays = d3t::net::OverlayDelayModel::FromTopologyAllSources(
        *topo, shape.threads);
    if (!delays.ok()) return delays.status();
    out->delays = std::move(delays->front());
  }
  BuildLibrary(shape, shape.library_seed.value_or(seed), spans, out);
  {
    Scope scope(spans, "net::OverlayDelayModel::PairDelayStats");
    out->mean_pair_delay_us = out->delays.PairDelayStats().mean();
    (void)out->delays.MeanPairHops();
  }
  Scope scope(spans, "core::BuildChangeTimelines");
  out->timelines = d3t::core::BuildChangeTimelines(out->traces);
  return Status::Ok();
}

d3t::Result<d3t::core::Overlay> BuildSpecOverlay(
    const d3t::exp::RunSpec& spec, const WorldShape& shape,
    const d3t::net::OverlayDelayModel& delays,
    const std::vector<d3t::core::InterestSet>& interests,
    double mean_pair_delay_us, Spans* spans) {
  size_t degree = std::max<size_t>(1, spec.overlay.coop_degree);
  if (spec.overlay.controlled_cooperation) {
    d3t::core::CoopDegreeInputs inputs;
    inputs.avg_comm_delay =
        static_cast<d3t::sim::SimTime>(mean_pair_delay_us);
    inputs.avg_comp_delay = d3t::sim::Millis(spec.policy.comp_delay_ms);
    inputs.f = spec.overlay.coop_f;
    inputs.max_resources = shape.repositories;
    degree = std::min(degree, d3t::core::ComputeCooperationDegree(inputs));
  }
  d3t::core::LelaOptions lela;
  lela.coop_degree = degree;
  lela.p_window = spec.overlay.p_window;
  lela.preference = spec.overlay.preference;
  lela.insertion_order = spec.overlay.insertion_order;
  d3t::Rng rng = d3t::Rng(spec.seed).Fork(4);
  d3t::Result<d3t::core::LelaResult> built = [&] {
    Scope scope(spans, "core::BuildOverlay");
    return d3t::core::BuildOverlay(delays, interests, shape.items, lela, rng);
  }();
  if (!built.ok()) return built.status();
  Scope scope(spans, "core::Overlay::Validate");
  D3T_RETURN_IF_ERROR(built->overlay.Validate(degree));
  return std::move(built->overlay);
}

void FillWorldLayers(const Spans& spans, const WorldShape& shape,
                     Outcome* outcome) {
  auto& m = outcome->metrics;
  m["net.topology_s"] = spans.SelfSeconds("net::GenerateTopology");
  // Streaming Dijkstra rows route inside the delay-model build, so a
  // world without Floyd-Warshall has no separate routing call.
  m["net.routing_s"] = spans.SelfSeconds("net::RoutingTables::FloydWarshall");
  m["net.delay_model_s"] =
      spans.SelfSeconds("net::OverlayDelayModel::FromRouting") +
      spans.SelfSeconds("net::OverlayDelayModel::FromTopologyAllSources");
  m["net.pair_stats_s"] =
      spans.SelfSeconds("net::OverlayDelayModel::PairDelayStats");
  const double members = static_cast<double>(shape.repositories + 1);
  m["net.delay_matrix_mib"] = members * members * 6.0 / (1024.0 * 1024.0);
  m["trace.library_s"] = spans.SelfSeconds("trace::BuildTraceLibrary");
  m["core.timelines_s"] = spans.SelfSeconds("core::BuildChangeTimelines");
  m["core.interests_s"] = spans.SelfSeconds("core::GenerateInterests");
  m["core.lela_s"] = spans.SelfSeconds("core::BuildOverlay");
  m["core.validate_s"] = spans.SelfSeconds("core::Overlay::Validate");
}

void FillEngineLayers(const d3t::core::EngineMetrics& sum, double engine_s,
                      Outcome* outcome) {
  auto& m = outcome->metrics;
  m["core.engine_s"] = engine_s;
  m["core.events"] = static_cast<double>(sum.events);
  m["core.messages"] = static_cast<double>(sum.messages);
  m["core.checks"] = static_cast<double>(sum.checks);
  m["core.events_per_s"] = static_cast<double>(sum.events) / engine_s;
  m["core.batched_share"] =
      sum.messages == 0 ? 0.0
                        : static_cast<double>(sum.coalesced_messages) /
                              static_cast<double>(sum.messages);
  m["core.process_wakeups"] = static_cast<double>(sum.process_wakeups);
  m["core.repairs"] = static_cast<double>(sum.repairs);
}

void FillProfile(const Spans& spans, int root, double traced_total,
                 double untraced_total, Outcome* outcome) {
  outcome->metrics["profile.overhead_pct"] =
      100.0 * (traced_total - untraced_total) / untraced_total;
  outcome->metrics["profile.accounted_share"] =
      spans.AccountedSeconds(root) / traced_total;
  outcome->Note("spans recorded: " + std::to_string(spans.size()));
}

}  // namespace ledger
