// Shared plumbing of the d3t ledger: the run options, the outcome every
// workload fills in (metrics, operations attempted/failed), wall-clock
// helpers, and the span tracer the traced run uses to time each public
// call from outside the library.

#ifndef D3T_LEDGER_LEDGER_H_
#define D3T_LEDGER_LEDGER_H_

#include <cstddef>
#include <cstdint>
#include <map>
#include <optional>
#include <string>
#include <vector>

#include "common/result.h"
#include "common/status.h"
#include "core/engine.h"
#include "core/interest.h"
#include "core/overlay.h"
#include "core/pull.h"
#include "exp/session.h"
#include "net/delay_model.h"
#include "trace/trace.h"

namespace ledger {

/// Seed of the fixed §6.1 base world (paper_sweep, serve_socket) and of
/// large_world's fixed traces and interests: the seed the repository's
/// golden runs use.
inline constexpr uint64_t kBaseWorldSeed = 42;

/// Timed runs make at least this many full passes, whatever the budget.
inline constexpr int kMinPasses = 3;

/// Set-up samples a timed run takes when one set-up lasts under a
/// second (passes alone would give too few for a steady median).
inline constexpr size_t kSetupSamples = 15;

/// Command-line options of one ledger invocation.
struct Options {
  std::string workload;
  uint64_t seed = 1;
  /// Measurement budget: passes repeat until the next one would overrun
  /// it (every workload still makes kMinPasses).
  double seconds = 30.0;
  /// false: timed end-to-end run. true: the separate traced run that
  /// reports per-layer metrics.
  bool trace = false;
  /// Miniature worlds for the ledger's own tests (seconds, not minutes).
  bool tiny = false;
  /// Corrupts one expected result so the output checks must fail (the
  /// ledger's test that a wrong answer is caught and fails the run).
  bool inject_wrong = false;
  /// Where the traced run writes its spans (Trace Event Format JSON);
  /// empty writes nothing.
  std::string trace_out;
};

/// What a workload reports: metric values by ledger name, the operations
/// it attempted and those that failed (non-Ok or a failed output check),
/// and the environment facts that go with the numbers.
struct Outcome {
  std::map<std::string, double> metrics;
  uint64_t attempted = 0;
  uint64_t failed = 0;
  std::vector<std::string> failures;
  /// Worker threads the workload's world build may use.
  size_t threads = 1;
  /// Human-readable notes printed before the result (sample counts,
  /// sizes).
  std::vector<std::string> notes;

  /// Counts one operation; a non-Ok status marks it failed.
  void Op(const std::string& what, const d3t::Status& status);
  void Note(const std::string& note) { notes.push_back(note); }
};

/// Seconds on a monotonic clock (arbitrary origin).
double Now();
/// Median of `values` (0 for an empty list).
double Median(std::vector<double> values);
/// Peak resident set of this process, MiB.
double PeakRssMib();
/// Kernel CPU time this process has used, seconds.
double SystemCpuSeconds();

/// Ok iff two runs' EngineMetrics agree field by field, doubles by bit
/// pattern and the per-member vector element by element.
d3t::Status SameEngineMetrics(const d3t::core::EngineMetrics& got,
                              const d3t::core::EngineMetrics& want);
/// Ok iff two pull runs' metrics agree exactly (doubles by bit pattern).
d3t::Status SamePullMetrics(const d3t::core::PullMetrics& got,
                            const d3t::core::PullMetrics& want);

/// Spans recorded by the traced run: one per public call the ledger
/// makes into the library, nested by call structure. Kept in memory and
/// written once the run ends.
class Spans {
 public:
  Spans();

  /// Opens a span named `name` under the innermost open span.
  int Begin(const std::string& name);
  void End(int id);
  /// Workload-run id stamped on spans opened from now on.
  void set_run(uint32_t run) { run_ = run; }

  /// Summed self time (span time minus time covered by child spans) of
  /// every span named `name`, seconds.
  double SelfSeconds(const std::string& name) const;
  /// Summed self time of the layer spans below top-level span `root`:
  /// those named after a public call ("ns::Call"), not the run and phase
  /// spans that group them.
  double AccountedSeconds(int root) const;
  size_t size() const { return spans_.size(); }

  /// Trace Event Format JSON (the format obs::ChromeTraceJson writes):
  /// one complete ("X") event per span on track `run`, so it opens in
  /// the same viewers as the logical --trace-out traces.
  std::string ChromeJson(const std::string& label) const;

 private:
  struct Span {
    std::string name;
    double start = 0.0;
    double end = 0.0;
    int parent = -1;
    uint32_t run = 0;
  };
  std::vector<Span> spans_;
  std::vector<double> child_time_;
  int open_ = -1;
  uint32_t run_ = 0;
  double origin_ = 0.0;
};

/// RAII span; a null tracer records nothing, so one code path serves
/// the traced and untraced runs where they share calls.
class Scope {
 public:
  Scope(Spans* spans, const std::string& name)
      : spans_(spans), id_(spans != nullptr ? spans->Begin(name) : -1) {}
  ~Scope() {
    if (spans_ != nullptr) spans_->End(id_);
  }
  Scope(const Scope&) = delete;
  Scope& operator=(const Scope&) = delete;

 private:
  Spans* spans_;
  int id_;
};

/// A world assembled from its public building blocks — the calls
/// SessionBuilder::Build makes, each under its own span — so the traced
/// run can attribute set-up time to layers.
struct DecomposedWorld {
  d3t::net::OverlayDelayModel delays =
      d3t::net::OverlayDelayModel::Uniform(1, 0);
  std::vector<d3t::trace::Trace> traces;
  d3t::core::ChangeTimelines timelines;
  std::vector<d3t::core::InterestSet> interests;
  double mean_pair_delay_us = 0.0;
};

/// Size and build parameters of a workload's world.
struct WorldShape {
  size_t repositories = 0;
  size_t routers = 0;
  bool floyd_warshall = true;
  size_t items = 0;
  size_t ticks = 0;
  double stringent_fraction = 0.5;
  size_t threads = 1;
  /// When set, the trace library and interest sets come from this seed
  /// and only the network from the world seed.
  std::optional<uint64_t> library_seed;
};

/// The trace library and interest sets of `shape`, drawn from `seed` as
/// SessionBuilder draws them, one span per public call.
void BuildLibrary(const WorldShape& shape, uint64_t seed, Spans* spans,
                  DecomposedWorld* out);

/// Builds the world SessionBuilder would build for (`shape`, `seed`),
/// one span per public call.
d3t::Status BuildDecomposedWorld(const WorldShape& shape, uint64_t seed,
                                 Spans* spans, DecomposedWorld* out);

// Workloads (batch.cc, serve.cc).
Outcome RunPaperSweep(const Options& options);
Outcome RunLargeWorld(const Options& options);
Outcome RunServeSocket(const Options& options);

/// The overlay Session::Run builds for `spec` on a world with these
/// delays, interests and mean pair delay: the effective cooperation
/// degree, LeLA options and RNG stream derived as Session::Run derives
/// them, with BuildOverlay and Validate each under a span.
d3t::Result<d3t::core::Overlay> BuildSpecOverlay(
    const d3t::exp::RunSpec& spec, const WorldShape& shape,
    const d3t::net::OverlayDelayModel& delays,
    const std::vector<d3t::core::InterestSet>& interests,
    double mean_pair_delay_us, Spans* spans);

/// Fills the world-build and overlay layer metrics (net.topology_s ..
/// net.delay_matrix_mib, trace.library_s, core.timelines_s,
/// core.interests_s, core.lela_s, core.validate_s) from a traced pass's
/// spans.
void FillWorldLayers(const Spans& spans, const WorldShape& shape,
                     Outcome* outcome);

/// Fills core.engine_s and the engine counters (core.events ..
/// core.repairs) from the summed metrics of a traced pass's engine runs.
void FillEngineLayers(const d3t::core::EngineMetrics& sum, double engine_s,
                      Outcome* outcome);

/// The kernel probes of a traced run, outside its timed pass (probes.cc):
/// the delay model rebuilt on one worker thread (net.delay_model_1t_s);
/// ShouldPush replayed on inputs captured from `spec`'s overlay
/// (core.should_push_ns); that overlay rerun with and without a
/// Recorder+Registry (obs.*); the public EventQueue held at the pending
/// depth the engine reaches (sim.schedule_pop_ns); and wire encode/decode
/// and one InProc/socket hop (net.*_ns). `spec` must carry no scenario.
void RunProbes(const WorldShape& shape, uint64_t world_seed,
               const d3t::exp::RunSpec& spec, bool tiny, Outcome* outcome);

/// Fills the profile.* metrics from a traced pass: `traced_total` and
/// `untraced_total` wall seconds of the same pass, `root` its top span.
void FillProfile(const Spans& spans, int root, double traced_total,
                 double untraced_total, Outcome* outcome);

}  // namespace ledger

#endif  // D3T_LEDGER_LEDGER_H_
