// The serve_socket workload: the serving pipeline in one process. A
// FeedPublisher streams the world's trace library and a small
// fail/recover script over loopback TCP (two SocketTransport endpoints)
// to a serve::Node, which replays it with every push framed over an
// InProcTransport; the node's registry snapshot then returns over the
// socket as kObsSnapshot frames. A closed loop: one publisher, one
// subscriber, backpressured by the 64 KiB socket rings.

#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "common/random.h"
#include "core/disseminator.h"
#include "exp/scenario.h"
#include "exp/session.h"
#include "ledger.h"
#include "net/socket_transport.h"
#include "net/transport.h"
#include "obs/export.h"
#include "obs/registry.h"
#include "serve/cluster.h"
#include "serve/node.h"

namespace ledger {
namespace {

using d3t::Result;
using d3t::Status;

constexpr d3t::net::PeerId kNodePeer = 0;
constexpr d3t::net::PeerId kPublisherPeer = 1;
constexpr size_t kCoopDegree = 5;
/// A wedged loop is an error after this long, never a hang.
constexpr double kPhaseDeadlineS = 120.0;

WorldShape ServeShape(bool tiny) {
  return tiny ? WorldShape{20, 120, true, 10, 300, 0.5, 1, {}}
              : WorldShape{100, 600, true, 100, 10000, 0.5, 1, {}};
}

/// The world a pass serves: through SessionBuilder::Build on timed
/// passes, through its public building blocks on the traced pass.
struct ServedWorld {
  std::optional<d3t::exp::SimulationSession> session;
  DecomposedWorld parts;

  const d3t::net::OverlayDelayModel& delays() const {
    return session ? session->world().delays() : parts.delays;
  }
  const std::vector<d3t::trace::Trace>& traces() const {
    return session ? session->world().traces() : parts.traces;
  }
  const std::vector<d3t::core::InterestSet>& interests() const {
    return session ? session->world().interests() : parts.interests;
  }
  double mean_pair_delay_us() const {
    return session ? session->world().pair_delay_stats().mean()
                   : parts.mean_pair_delay_us;
  }
};

/// The §6.1 base world, fixed as in paper_sweep; --seed picks the run
/// inputs (LeLA stream, failure script).
Status BuildWorld(const WorldShape& shape, Spans* spans, ServedWorld* world) {
  if (spans != nullptr) {
    return BuildDecomposedWorld(shape, kBaseWorldSeed, spans, &world->parts);
  }
  d3t::exp::NetworkConfig network;
  network.repositories = shape.repositories;
  network.routers = shape.routers;
  d3t::exp::WorkloadConfig workload;
  workload.items = shape.items;
  workload.ticks = shape.ticks;
  workload.stringent_fraction = shape.stringent_fraction;
  Result<d3t::exp::SimulationSession> session =
      d3t::exp::SessionBuilder()
          .SetNetwork(network)
          .SetWorkload(workload)
          .SetSeed(kBaseWorldSeed)
          .SetWorkerThreads(shape.threads)
          .Build();
  if (!session.ok()) return session.status();
  world->session.emplace(std::move(session).value());
  return Status::Ok();
}

/// The served overlay's inputs: a default RunSpec at cooperation degree
/// kCoopDegree with the run seed.
d3t::exp::RunSpec ServedSpec(uint64_t seed) {
  d3t::exp::RunSpec spec;
  spec.overlay.coop_degree = kCoopDegree;
  spec.seed = seed;
  return spec;
}

Result<d3t::core::Overlay> BuildServedOverlay(const ServedWorld& world,
                                              const WorldShape& shape,
                                              uint64_t seed, Spans* spans) {
  return BuildSpecOverlay(ServedSpec(seed), shape, world.delays(),
                          world.interests(), world.mean_pair_delay_us(),
                          spans);
}

/// Two repositories drawn from the seed each fail once and recover.
Result<d3t::core::Scenario> FailRecoverScript(
    size_t repositories, const std::vector<d3t::trace::Trace>& traces,
    uint64_t seed) {
  const d3t::sim::SimTime horizon = traces.front().ticks().back().time;
  d3t::Rng rng = d3t::Rng(seed).Fork(11);
  const auto first =
      static_cast<d3t::core::OverlayIndex>(1 + rng.NextBounded(repositories));
  auto second =
      static_cast<d3t::core::OverlayIndex>(1 + rng.NextBounded(repositories));
  if (second == first) second = first % repositories + 1;
  return d3t::exp::ScenarioBuilder()
      .FailRepo(horizon * 3 / 10, first)
      .RecoverAt(horizon * 6 / 10)
      .FailRepo(horizon * 4 / 10, second)
      .RecoverAt(horizon * 8 / 10)
      .Build();
}

/// The served metrics' reference: a direct Engine::Run of the same
/// script on an identical overlay, no wire anywhere.
Result<d3t::core::EngineMetrics> DirectReference(const WorldShape& shape,
                                                 uint64_t seed) {
  ServedWorld world;
  D3T_RETURN_IF_ERROR(BuildWorld(shape, nullptr, &world));
  Result<d3t::core::Overlay> overlay =
      BuildServedOverlay(world, shape, seed, nullptr);
  if (!overlay.ok()) return overlay.status();
  Result<d3t::core::Scenario> script =
      FailRecoverScript(shape.repositories, world.traces(), seed);
  if (!script.ok()) return script.status();
  d3t::core::DistributedDisseminator policy;
  d3t::core::Engine engine(*overlay, world.delays(), world.traces(), policy,
                           d3t::core::EngineOptions{}, nullptr, &*script);
  return engine.Run();
}

/// Times and counters of one serving pass.
struct ServePass {
  double setup_s = 0.0;
  double feed_s = 0.0;
  double feed_sys_s = 0.0;
  double replay_s = 0.0;
  double report_s = 0.0;
  d3t::serve::NodeReport report;
  d3t::net::TransportMetrics wire;  // feed + data + report, both ends
};

void AddTransport(const d3t::net::TransportMetrics& m,
                  d3t::net::TransportMetrics* sum) {
  sum->frames_tx += m.frames_tx;
  sum->bytes_tx += m.bytes_tx;
  sum->backpressure_stalls += m.backpressure_stalls;
  sum->decode_errors += m.decode_errors;
}

/// Publish → ingest over the socket until the node saw kShutdown.
Status DriveFeed(d3t::serve::FeedPublisher& publisher, d3t::serve::Node& node,
                 d3t::net::SocketTransport& pub_end,
                 d3t::net::SocketTransport& node_end, Spans* spans) {
  const double deadline = Now() + kPhaseDeadlineS;
  while (!node.feed_complete()) {
    size_t sent = 0;
    {
      Scope scope(spans, "serve::FeedPublisher::Pump");
      sent = publisher.Pump();
    }
    D3T_RETURN_IF_ERROR(publisher.status());
    {
      Scope scope(spans, "net::SocketTransport::Pump");
      D3T_RETURN_IF_ERROR(pub_end.Pump());
    }
    Result<size_t> ingested = [&] {
      Scope scope(spans, "serve::Node::PollFeed");
      return node.PollFeed();
    }();
    if (!ingested.ok()) return ingested.status();
    if (sent == 0 && *ingested == 0) {
      if (Now() > deadline) return Status::IoError("feed wedged");
      Scope scope(spans, "net::SocketTransport::WaitIo");
      // Wait for whichever side can move: kernel room for the
      // publisher's buffered bytes, or bytes arriving at the node.
      d3t::net::SocketTransport& side =
          pub_end.pending_tx_bytes() > 0 ? pub_end : node_end;
      (void)side.WaitIo(10);
    }
  }
  return Status::Ok();
}

/// The node's snapshot back over the socket as kObsSnapshot frames,
/// reassembled on the publisher's side.
Status ReturnSnapshot(const d3t::obs::Snapshot& snapshot,
                      d3t::net::SocketTransport& pub_end,
                      d3t::net::SocketTransport& node_end, Spans* spans) {
  std::vector<d3t::net::wire::Frame> frames;
  {
    Scope scope(spans, "serve::MakeObsSnapshotFrames");
    frames = d3t::serve::MakeObsSnapshotFrames(kNodePeer, snapshot);
  }
  d3t::serve::ObsAccumulator accumulator;
  size_t next = 0;
  const double deadline = Now() + kPhaseDeadlineS;
  while (!accumulator.complete()) {
    {
      Scope scope(spans, "net::SocketTransport::Send");
      while (next < frames.size()) {
        const Status sent = node_end.Send(kNodePeer, kPublisherPeer,
                                          frames[next]);
        if (sent.IsCapacityExhausted()) break;
        D3T_RETURN_IF_ERROR(sent);
        ++next;
      }
      D3T_RETURN_IF_ERROR(node_end.Pump());
    }
    bool received = false;
    d3t::net::wire::Frame frame;
    Scope scope(spans, "net::SocketTransport::Poll");
    while (pub_end.Poll(kPublisherPeer, &frame, nullptr)) {
      received = true;
      if (frame.type != d3t::net::wire::FrameType::kObsSnapshot) {
        return Status::InvalidArgument("unexpected frame on report channel");
      }
      D3T_RETURN_IF_ERROR(accumulator.Accept(frame.u.obs_snapshot));
    }
    if (!received) {
      if (Now() > deadline) return Status::IoError("report wedged");
      (void)pub_end.WaitIo(10);
    }
  }
  if (!d3t::obs::SnapshotsIdentical(accumulator.snapshot(), snapshot)) {
    return Status::Internal("reassembled snapshot differs from the node's");
  }
  return Status::Ok();
}

/// One full serving pass: set-up, feed, replay, report and checks.
/// Records the feed, replay and report operations in `outcome`.
Result<ServePass> RunPass(const WorldShape& shape, uint64_t seed,
                          const Result<d3t::core::EngineMetrics>& reference,
                          Spans* spans, const std::string& prefix,
                          Outcome* outcome) {
  ServePass pass;
  // Set-up: world, overlay, and the two loopback connections.
  const double t0 = Now();
  ServedWorld world;
  D3T_RETURN_IF_ERROR(BuildWorld(shape, spans, &world));
  Result<d3t::core::Overlay> overlay =
      BuildServedOverlay(world, shape, seed, spans);
  if (!overlay.ok()) return overlay.status();
  d3t::net::SocketTransport pub_end(2, kPublisherPeer);
  d3t::net::SocketTransport node_end(2, kNodePeer);
  {
    Scope scope(spans, "net::SocketTransport::ConnectPeer");
    D3T_RETURN_IF_ERROR(pub_end.Listen());
    D3T_RETURN_IF_ERROR(node_end.Listen());
    D3T_RETURN_IF_ERROR(pub_end.ConnectPeer(kNodePeer, node_end.port()));
    D3T_RETURN_IF_ERROR(node_end.ConnectPeer(kPublisherPeer, pub_end.port()));
  }
  pass.setup_s = Now() - t0;

  Result<d3t::core::Scenario> script =
      FailRecoverScript(shape.repositories, world.traces(), seed);
  if (!script.ok()) return script.status();
  d3t::net::InProcTransport data(overlay->member_count(), 64);
  d3t::obs::Registry registry;
  d3t::serve::NodeOptions node_options;
  node_options.feed_self = kNodePeer;
  node_options.resubscribe = true;
  node_options.feed_publisher = kPublisherPeer;
  node_options.registry = &registry;
  d3t::serve::Node node(*overlay, world.delays(), node_end, data,
                        node_options);
  d3t::serve::FeedPublisher publisher(world.traces(), &*script,
                                      overlay->member_count(), kBaseWorldSeed,
                                      pub_end,
                                      kPublisherPeer, {kNodePeer});

  // Publish → ingest.
  const double t1 = Now();
  const double sys0 = SystemCpuSeconds();
  Status fed = DriveFeed(publisher, node, pub_end, node_end, spans);
  pass.feed_sys_s = SystemCpuSeconds() - sys0;
  pass.feed_s = Now() - t1;

  // Replay.
  Result<d3t::serve::NodeReport> report = Status::Internal("feed failed");
  if (fed.ok()) {
    const double t2 = Now();
    Scope scope(spans, "serve::Node::Serve");
    report = node.Serve();
    pass.replay_s = Now() - t2;
  }
  if (report.ok()) {
    pass.report = *report;
    if (report->resubscribes != 0 || report->stale_frames != 0) {
      fed = Status::Internal("fault-free feed needed recovery");
    }
  }
  const uint64_t feed_decode_errors =
      pub_end.metrics().decode_errors + node_end.metrics().decode_errors;
  if (fed.ok() && feed_decode_errors != 0) {
    fed = Status::Internal("decode errors on a fault-free feed");
  }
  outcome->Op(prefix + " feed", fed);
  Status replayed = report.status();
  if (replayed.ok()) {
    replayed = reference.ok() ? SameEngineMetrics(report->engine, *reference)
                              : reference.status();
  }
  outcome->Op(prefix + " replay", replayed);

  // Report: the registry snapshot back over the socket.
  Status reported = report.status();
  if (reported.ok()) {
    d3t::net::PublishTransportMetrics(registry, "feed", node_end.metrics());
    d3t::net::PublishTransportMetrics(registry, "data", report->data);
    const double t3 = Now();
    Scope scope(spans, "phase:report");
    reported =
        ReturnSnapshot(registry.TakeSnapshot(), pub_end, node_end, spans);
    pass.report_s = Now() - t3;
  }
  outcome->Op(prefix + " report", reported);

  AddTransport(pub_end.metrics(), &pass.wire);
  AddTransport(node_end.metrics(), &pass.wire);
  AddTransport(data.metrics(), &pass.wire);
  if (!fed.ok() || !replayed.ok() || !reported.ok()) {
    return Status::Internal("serving pass failed");
  }
  return pass;
}

Result<d3t::core::EngineMetrics> Reference(const WorldShape& shape,
                                           const Options& options) {
  Result<d3t::core::EngineMetrics> reference =
      DirectReference(shape, options.seed);
  if (reference.ok() && options.inject_wrong) reference->messages += 1;
  return reference;
}

Outcome TimedRuns(const Options& options) {
  Outcome outcome;
  const WorldShape shape = ServeShape(options.tiny);
  outcome.threads = shape.threads;
  const Result<d3t::core::EngineMetrics> reference =
      Reference(shape, options);
  outcome.Op("direct reference run", reference.status());

  std::vector<double> setups, runs, totals, rates;
  const double start = Now();
  double last_total = 0.0;
  for (int index = 0;; ++index) {
    if (index >= kMinPasses && Now() - start + last_total > options.seconds) {
      break;
    }
    const double t0 = Now();
    Result<ServePass> pass = RunPass(shape, options.seed, reference, nullptr,
                                     "pass " + std::to_string(index),
                                     &outcome);
    last_total = Now() - t0;
    if (!pass.ok()) {
      outcome.Op("pass " + std::to_string(index), pass.status());
      break;
    }
    setups.push_back(pass->setup_s);
    runs.push_back(pass->replay_s);
    totals.push_back(last_total);
    rates.push_back(static_cast<double>(pass->report.feed_frames) /
                    pass->feed_s);
  }
  // Extra set-up samples, as for the batch workloads: the world build
  // and overlay alone (the connect is in every pass's sample).
  while (!setups.empty() && setups.size() < kSetupSamples &&
         Median(setups) < 1.0) {
    const double t0 = Now();
    ServedWorld world;
    Status built = BuildWorld(shape, nullptr, &world);
    if (built.ok()) {
      built = BuildServedOverlay(world, shape, options.seed, nullptr)
                  .status();
    }
    setups.push_back(Now() - t0);
    outcome.Op("extra set-up", built);
  }
  outcome.metrics["setup_s"] = Median(setups);
  outcome.metrics["run_s"] = Median(runs);
  outcome.metrics["total_s"] = Median(totals);
  outcome.metrics["peak_rss_mib"] = PeakRssMib();
  outcome.Note("feed_frames_per_s: " + std::to_string(Median(rates)) +
               " (median of " + std::to_string(rates.size()) + " passes)");
  outcome.Note("passes: " + std::to_string(totals.size()) +
               ", set-up samples: " + std::to_string(setups.size()));
  return outcome;
}

Outcome TracedRuns(const Options& options) {
  Outcome outcome;
  const WorldShape shape = ServeShape(options.tiny);
  outcome.threads = shape.threads;
  const Result<d3t::core::EngineMetrics> reference =
      Reference(shape, options);
  outcome.Op("direct reference run", reference.status());

  double t0 = Now();
  Result<ServePass> untraced =
      RunPass(shape, options.seed, reference, nullptr, "untraced", &outcome);
  const double untraced_total = Now() - t0;

  Spans spans;
  t0 = Now();
  const int root = spans.Begin("workload:serve_socket");
  Result<ServePass> traced =
      RunPass(shape, options.seed, reference, &spans, "traced", &outcome);
  spans.End(root);
  const double traced_total = Now() - t0;
  if (!untraced.ok() || !traced.ok()) {
    outcome.Op("serving passes", !untraced.ok() ? untraced.status()
                                                : traced.status());
    return outcome;
  }

  FillWorldLayers(spans, shape, &outcome);
  auto& m = outcome.metrics;
  // The engine runs inside Node::Serve, which the ledger cannot split
  // from outside: the replay is the engine's time here.
  m["serve.replay_s"] = spans.SelfSeconds("serve::Node::Serve");
  FillEngineLayers(traced->report.engine, m["serve.replay_s"], &outcome);
  m["core.pull_s"] = 0.0;
  m["serve.publish_s"] = spans.SelfSeconds("serve::FeedPublisher::Pump");
  m["serve.ingest_s"] = spans.SelfSeconds("serve::Node::PollFeed");
  m["serve.feed_sys_s"] = traced->feed_sys_s;
  m["serve.report_s"] = traced->report_s;
  m["serve.resubscribes"] = static_cast<double>(traced->report.resubscribes);
  m["serve.stale_frames"] = static_cast<double>(traced->report.stale_frames);
  m["serve.feed_frames_per_s"] =
      static_cast<double>(traced->report.feed_frames) / traced->feed_s;
  m["net.frames_tx"] = static_cast<double>(traced->wire.frames_tx);
  m["net.bytes_tx"] = static_cast<double>(traced->wire.bytes_tx);
  m["net.stalls"] = static_cast<double>(traced->wire.backpressure_stalls);
  m["net.decode_errors"] = static_cast<double>(traced->wire.decode_errors);
  FillProfile(spans, root, traced_total, untraced_total, &outcome);
  outcome.Note("feed frames: " + std::to_string(traced->report.feed_frames) +
               ", data frames: " +
               std::to_string(traced->report.data.frames_tx));

  RunProbes(shape, kBaseWorldSeed, ServedSpec(options.seed), options.tiny,
            &outcome);
  if (!options.trace_out.empty()) {
    outcome.Op("write spans",
               d3t::obs::WriteFile(options.trace_out,
                                   spans.ChromeJson("ledger serve_socket")));
  }
  return outcome;
}

}  // namespace

Outcome RunServeSocket(const Options& options) {
  return options.trace ? TracedRuns(options) : TimedRuns(options);
}

}  // namespace ledger
