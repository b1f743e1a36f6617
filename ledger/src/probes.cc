// Kernel probes: the per-operation costs the ledger reports next to the
// span breakdown. They mirror the kernels of bench/event_kernel.cc,
// bench/micro_core.cc and bench/wire.cc, but report under the ledger's
// metric names with their sample counts, on inputs sized or captured
// from the workload. Every probe times several blocks and reports the
// median block, so one preempted block does not move the figure.

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "common/random.h"
#include "core/disseminator.h"
#include "ledger.h"
#include "net/socket_transport.h"
#include "net/transport.h"
#include "net/wire.h"
#include "obs/recorder.h"
#include "obs/registry.h"
#include "sim/event_queue.h"

namespace ledger {
namespace {

constexpr int kBlocks = 5;

/// Keeps a value alive so the compiler cannot drop the work behind it.
volatile uint64_t g_sink = 0;

/// Median over kBlocks of `block()`'s seconds per operation, in ns.
template <typename Block>
double MedianBlockNs(uint64_t ops_per_block, uint64_t* samples,
                     Block&& block) {
  std::vector<double> per_op;
  for (int i = 0; i < kBlocks; ++i) {
    const double t0 = Now();
    block();
    per_op.push_back((Now() - t0) * 1e9 / static_cast<double>(ops_per_block));
  }
  *samples = ops_per_block * kBlocks;
  return Median(per_op);
}

class SumHandler : public d3t::sim::EventHandler {
 public:
  void HandleEvent(d3t::sim::SimTime, const d3t::sim::Event& event) override {
    sum += event.a;
  }
  uint64_t sum = 0;
};

/// The frames a serving run carries: feed ticks and replayed pushes,
/// alternating.
std::vector<d3t::net::wire::Frame> MixedFrames(uint64_t seed, size_t count) {
  d3t::Rng rng(seed);
  std::vector<d3t::net::wire::Frame> frames;
  frames.reserve(count);
  for (size_t i = 0; i < count; ++i) {
    const uint32_t item = static_cast<uint32_t>(rng.NextBounded(100));
    const double value = rng.NextDoubleInRange(5.0, 100.0);
    const int64_t at = static_cast<int64_t>(1000 * i);
    frames.push_back(
        i % 2 == 0
            ? d3t::net::wire::Frame::SourceTick(
                  item, static_cast<uint32_t>(i), at, value,
                  static_cast<uint32_t>(i))
            : d3t::net::wire::Frame::Update(
                  static_cast<uint32_t>(i % 31), 31, at, item, value, 0.0));
  }
  return frames;
}

/// Disseminator wrapper that records the ShouldPush calls a real run
/// makes, forwarding everything to the wrapped policy.
class CapturingDisseminator : public d3t::core::Disseminator {
 public:
  struct Call {
    d3t::sim::SimTime now;
    d3t::core::OverlayIndex node;
    d3t::core::ItemId item;
    d3t::core::ItemEdge edge;
    double value;
    double tag;
  };

  CapturingDisseminator(d3t::core::Disseminator& inner, size_t cap)
      : inner_(inner), cap_(cap) {
    calls_.reserve(cap);
  }
  std::string name() const override { return inner_.name(); }
  void Initialize(const d3t::core::Overlay& overlay,
                  const std::vector<double>& initial_values) override {
    initial_values_ = initial_values;
    inner_.Initialize(overlay, initial_values);
  }
  d3t::core::BeginDecision BeginUpdate(d3t::sim::SimTime now,
                                       d3t::core::OverlayIndex node,
                                       d3t::core::ItemId item, double value,
                                       double incoming_tag) override {
    return inner_.BeginUpdate(now, node, item, value, incoming_tag);
  }
  bool ShouldPush(d3t::sim::SimTime now, d3t::core::OverlayIndex node,
                  d3t::core::ItemId item, const d3t::core::ItemEdge& edge,
                  double value, double tag) override {
    if (calls_.size() < cap_) {
      calls_.push_back({now, node, item, edge, value, tag});
    }
    return inner_.ShouldPush(now, node, item, edge, value, tag);
  }

  const std::vector<Call>& calls() const { return calls_; }
  const std::vector<double>& initial_values() const { return initial_values_; }

 private:
  d3t::core::Disseminator& inner_;
  size_t cap_;
  std::vector<Call> calls_;
  std::vector<double> initial_values_;
};

/// Hold model on the public sim::EventQueue kept at `depth` pending
/// events: ns per schedule+pop pair.
double ProbeSchedulePop(size_t depth, uint64_t seed, uint64_t* samples) {
  constexpr uint64_t kOps = 1u << 20;
  d3t::Rng rng(seed);
  d3t::sim::EventQueue queue;
  SumHandler handler;
  for (size_t i = 0; i < depth; ++i) {
    queue.Schedule(static_cast<d3t::sim::SimTime>(rng.NextBounded(1 << 20)),
                   d3t::sim::Event::Delivery(static_cast<uint32_t>(i), i));
  }
  // Hold model: every pop schedules one event a random step later, so
  // the queue stays at `depth` pending events.
  const double ns = MedianBlockNs(kOps, samples, [&] {
    for (uint64_t i = 0; i < kOps; ++i) {
      const d3t::sim::SimTime t = queue.RunNext(&handler);
      queue.Schedule(t + 1 + static_cast<d3t::sim::SimTime>(
                                 rng.NextBounded(1 << 20)),
                     d3t::sim::Event::Delivery(static_cast<uint32_t>(i), i));
    }
  });
  g_sink = g_sink + handler.sum;
  return ns;
}

/// wire::Encode over alternating kSourceTick and kUpdate frames.
double ProbeEncode(uint64_t seed, uint64_t* samples) {
  const std::vector<d3t::net::wire::Frame> frames = MixedFrames(seed, 1 << 16);
  uint8_t buf[d3t::net::wire::kMaxFrameSize];
  constexpr int kRounds = 16;
  return MedianBlockNs(frames.size() * kRounds, samples, [&] {
    uint64_t bytes = 0;
    for (int r = 0; r < kRounds; ++r) {
      for (const d3t::net::wire::Frame& frame : frames) {
        bytes += d3t::net::wire::Encode(frame, buf, sizeof(buf));
      }
    }
    g_sink = g_sink + bytes + buf[0];
  });
}

/// wire::Decode of the same frames.
double ProbeDecode(uint64_t seed, uint64_t* samples) {
  const std::vector<d3t::net::wire::Frame> frames = MixedFrames(seed, 1 << 16);
  std::vector<uint8_t> stream;
  std::vector<size_t> offsets;
  uint8_t buf[d3t::net::wire::kMaxFrameSize];
  for (const d3t::net::wire::Frame& frame : frames) {
    offsets.push_back(stream.size());
    const size_t size = d3t::net::wire::Encode(frame, buf, sizeof(buf));
    stream.insert(stream.end(), buf, buf + size);
  }
  constexpr int kRounds = 16;
  uint64_t ok = 0;
  const double ns = MedianBlockNs(frames.size() * kRounds, samples, [&] {
    for (int r = 0; r < kRounds; ++r) {
      for (size_t offset : offsets) {
        d3t::Result<d3t::net::wire::Frame> frame = d3t::net::wire::Decode(
            stream.data() + offset, stream.size() - offset);
        ok += frame.ok() ? 1 : 0;
      }
    }
  });
  if (ok != *samples) *samples = 0;  // every frame must decode
  return ns;
}

/// One Send+Poll hop through an InProcTransport.
double ProbeInProcHop(uint64_t seed, uint64_t* samples) {
  const std::vector<d3t::net::wire::Frame> frames = MixedFrames(seed, 1 << 16);
  d3t::net::InProcTransport bus(/*peer_count=*/32, /*per_peer_capacity=*/64);
  d3t::net::wire::Frame out;
  constexpr int kRounds = 8;
  uint64_t moved = 0;
  const double ns = MedianBlockNs(frames.size() * kRounds, samples, [&] {
    for (int r = 0; r < kRounds; ++r) {
      for (size_t i = 0; i < frames.size(); ++i) {
        const uint32_t to = static_cast<uint32_t>(i % 32);
        moved += bus.Send(0, to, frames[i]).ok() ? 1 : 0;
        moved += bus.Poll(to, &out, nullptr) ? 1 : 0;
      }
    }
  });
  if (moved != 2 * *samples) *samples = 0;  // every hop must land
  return ns;
}

/// One Send+Poll hop between two loopback SocketTransport endpoints.
double ProbeSocketHop(uint64_t seed, uint64_t* samples) {
  const std::vector<d3t::net::wire::Frame> frames = MixedFrames(seed, 1 << 13);
  d3t::net::SocketTransport tx(/*peer_count=*/2, /*self=*/0);
  d3t::net::SocketTransport rx(/*peer_count=*/2, /*self=*/1);
  if (!rx.Listen().ok() || !tx.ConnectPeer(1, rx.port()).ok()) {
    *samples = 0;
    return 0.0;
  }
  d3t::net::wire::Frame out;
  uint64_t sent = 0;
  const double ns = MedianBlockNs(frames.size(), samples, [&] {
    for (const d3t::net::wire::Frame& frame : frames) {
      if (!tx.Send(0, 1, frame).ok()) continue;
      ++sent;
      // Loopback delivery is asynchronous: keep flushing the sender
      // until the frame lands.
      while (!rx.Poll(1, &out, nullptr)) (void)tx.Pump();
    }
  });
  if (sent != *samples) *samples = 0;  // every frame must be sent
  return ns;
}

/// Runs the distributed policy over `overlay` once, recording up to `cap`
/// ShouldPush calls, then replays them on a fresh policy: ns per call.
/// The run must not mutate `overlay` (no scenario).
double ProbeShouldPush(d3t::core::Overlay& overlay,
                       const d3t::net::OverlayDelayModel& delays,
                       const std::vector<d3t::trace::Trace>& traces,
                       const d3t::core::ChangeTimelines* timelines,
                       size_t cap, uint64_t* samples) {
  d3t::core::DistributedDisseminator inner;
  CapturingDisseminator capture(inner, cap);
  d3t::core::Engine engine(overlay, delays, traces, capture,
                           d3t::core::EngineOptions{}, timelines);
  if (!engine.Run().ok() || capture.calls().empty()) {
    *samples = 0;
    return 0.0;
  }
  const auto& calls = capture.calls();
  return MedianBlockNs(calls.size(), samples, [&] {
    d3t::core::DistributedDisseminator policy;
    policy.Initialize(overlay, capture.initial_values());
    uint64_t pushes = 0;
    for (const auto& call : calls) {
      pushes += policy.ShouldPush(call.now, call.node, call.item, call.edge,
                                  call.value, call.tag)
                    ? 1
                    : 0;
    }
    g_sink = g_sink + pushes;
  });
}

/// Reruns the distributed policy over `overlay` with and without a
/// Recorder+Registry attached, alternating, `pairs` times each; the
/// recorder-on metrics must equal the recorder-off ones.
void ProbeRecorderTax(d3t::core::Overlay& overlay,
                      const d3t::net::OverlayDelayModel& delays,
                      const std::vector<d3t::trace::Trace>& traces,
                      const d3t::core::ChangeTimelines* timelines, int pairs,
                      Outcome* outcome) {
  std::vector<double> bare_s, recorded_s;
  d3t::core::EngineMetrics bare_metrics;
  for (int i = 0; i < pairs; ++i) {
    {
      d3t::core::DistributedDisseminator policy;
      d3t::core::Engine engine(overlay, delays, traces, policy,
                               d3t::core::EngineOptions{}, timelines);
      const double t0 = Now();
      d3t::Result<d3t::core::EngineMetrics> metrics = engine.Run();
      bare_s.push_back(Now() - t0);
      outcome->Op("recorder-off run", metrics.status());
      if (metrics.ok()) bare_metrics = *metrics;
    }
    {
      d3t::obs::Recorder recorder;
      d3t::obs::Registry registry;
      d3t::core::EngineOptions options;
      options.recorder = &recorder;
      options.registry = &registry;
      d3t::core::DistributedDisseminator policy;
      d3t::core::Engine engine(overlay, delays, traces, policy, options,
                               timelines);
      const double t0 = Now();
      d3t::Result<d3t::core::EngineMetrics> metrics = engine.Run();
      recorded_s.push_back(Now() - t0);
      outcome->Op("recorder-on run",
                  metrics.ok() ? SameEngineMetrics(*metrics, bare_metrics)
                               : metrics.status());
      outcome->metrics["obs.recorded_events"] =
          static_cast<double>(recorder.recorded());
      outcome->metrics["obs.dropped_events"] =
          static_cast<double>(recorder.dropped());
    }
  }
  outcome->metrics["obs.recorder_tax_pct"] =
      100.0 * (Median(recorded_s) / Median(bare_s) - 1.0);
  outcome->Note("obs.recorder_tax_pct pairs: " + std::to_string(pairs));
}

}  // namespace

void RunProbes(const WorldShape& shape, uint64_t world_seed,
               const d3t::exp::RunSpec& spec, bool tiny, Outcome* outcome) {
  auto& m = outcome->metrics;
  WorldShape one_thread = shape;
  one_thread.threads = 1;
  Spans spans;
  DecomposedWorld world;
  outcome->Op("probe world build",
              BuildDecomposedWorld(one_thread, world_seed, &spans, &world));
  // Floyd-Warshall worlds build the delay model single-threaded anyway.
  m["net.delay_model_1t_s"] =
      spans.SelfSeconds("net::OverlayDelayModel::FromRouting") +
      spans.SelfSeconds("net::OverlayDelayModel::FromTopologyAllSources");

  d3t::Result<d3t::core::Overlay> overlay =
      BuildSpecOverlay(spec, shape, world.delays, world.interests,
                       world.mean_pair_delay_us, nullptr);
  outcome->Op("probe overlay", overlay.status());
  uint64_t samples = 0;
  if (overlay.ok()) {
    m["core.should_push_ns"] =
        ProbeShouldPush(*overlay, world.delays, world.traces, &world.timelines,
                        tiny ? 20000 : 500000, &samples);
    outcome->Note("core.should_push_ns samples: " + std::to_string(samples));
    outcome->Op("core.should_push_ns probe",
                samples > 0 ? d3t::Status::Ok()
                            : d3t::Status::Internal("no ShouldPush calls"));
    ProbeRecorderTax(*overlay, world.delays, world.traces, &world.timelines,
                     2, outcome);
  }

  // Pending depth the engine's queue holds: one source tick per item
  // plus about one delivery batch and one process wakeup per member.
  const size_t depth = shape.items + 2 * (shape.repositories + 1);
  m["sim.schedule_pop_ns"] = ProbeSchedulePop(depth, spec.seed, &samples);
  outcome->Note("sim.schedule_pop_ns samples: " + std::to_string(samples) +
                " at depth " + std::to_string(depth));
  struct Probe {
    const char* name;
    double (*run)(uint64_t, uint64_t*);
  };
  for (const Probe& probe : {Probe{"net.encode_ns", ProbeEncode},
                             Probe{"net.decode_ns", ProbeDecode},
                             Probe{"net.inproc_hop_ns", ProbeInProcHop},
                             Probe{"net.socket_hop_ns", ProbeSocketHop}}) {
    m[probe.name] = probe.run(spec.seed, &samples);
    outcome->Note(std::string(probe.name) +
                  " samples: " + std::to_string(samples));
    outcome->Op(std::string(probe.name) + " probe",
                samples > 0 ? d3t::Status::Ok()
                            : d3t::Status::IoError("probe did not run"));
  }
}

}  // namespace ledger
