// d3t ledger: runs one benchmark workload and prints its metrics.
//
//   d3t_ledger --workload paper_sweep|large_world|serve_socket
//              --seed N --seconds S --trace 0|1
//              [--tiny] [--inject-wrong] [--trace-out PATH]
//
// --trace 0 is the timed run: it prints every end-to-end metric. --trace
// 1 is the separate traced run: it prints every per-layer metric. The
// last line of standard output is one JSON object
//   {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}
// and the exit status is non-zero when any operation failed.

#include <unistd.h>

#include <cinttypes>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <iterator>
#include <string>

#include "ledger.h"

namespace {

struct MetricDef {
  const char* name;
  const char* unit;
};

// Every metric the ledger reports, by run kind. BENCHMARK.json names
// the same metrics; ledger/test_ledger.py keeps the two in step.
constexpr MetricDef kEndToEnd[] = {
    {"setup_s", "s"},
    {"run_s", "s"},
    {"total_s", "s"},
    {"peak_rss_mib", "MiB"},
};

constexpr MetricDef kPerLayer[] = {
    {"net.topology_s", "s"},
    {"net.routing_s", "s"},
    {"net.delay_model_s", "s"},
    {"net.delay_model_1t_s", "s"},
    {"net.pair_stats_s", "s"},
    {"net.delay_matrix_mib", "MiB"},
    {"net.encode_ns", "ns"},
    {"net.decode_ns", "ns"},
    {"net.inproc_hop_ns", "ns"},
    {"net.socket_hop_ns", "ns"},
    {"net.frames_tx", "count"},
    {"net.bytes_tx", "bytes"},
    {"net.stalls", "count"},
    {"net.decode_errors", "count"},
    {"trace.library_s", "s"},
    {"core.timelines_s", "s"},
    {"core.interests_s", "s"},
    {"core.lela_s", "s"},
    {"core.validate_s", "s"},
    {"core.engine_s", "s"},
    {"core.pull_s", "s"},
    {"core.events", "count"},
    {"core.messages", "count"},
    {"core.checks", "count"},
    {"core.events_per_s", "1/s"},
    {"core.batched_share", "ratio"},
    {"core.process_wakeups", "count"},
    {"core.repairs", "count"},
    {"core.should_push_ns", "ns"},
    {"sim.schedule_pop_ns", "ns"},
    {"serve.publish_s", "s"},
    {"serve.ingest_s", "s"},
    {"serve.feed_sys_s", "s"},
    {"serve.replay_s", "s"},
    {"serve.report_s", "s"},
    {"serve.resubscribes", "count"},
    {"serve.stale_frames", "count"},
    {"serve.feed_frames_per_s", "1/s"},
    {"obs.recorder_tax_pct", "%"},
    {"obs.recorded_events", "count"},
    {"obs.dropped_events", "count"},
    {"profile.overhead_pct", "%"},
    {"profile.accounted_share", "ratio"},
};

/// A view of one metric table, iterable in a range-for.
struct MetricList {
  const MetricDef* first;
  const MetricDef* last;
  const MetricDef* begin() const { return first; }
  const MetricDef* end() const { return last; }
};

[[noreturn]] void Usage(const char* argv0) {
  std::fprintf(stderr,
               "usage: %s --workload paper_sweep|large_world|serve_socket "
               "--seed N --seconds S --trace 0|1 [--tiny] [--inject-wrong] "
               "[--trace-out PATH]\n",
               argv0);
  std::exit(2);
}

std::string JsonEscape(const std::string& text) {
  std::string out;
  for (char c : text) {
    if (c == '"' || c == '\\') out += '\\';
    out += (c == '\n' || c == '\t') ? ' ' : c;
  }
  return out;
}

}  // namespace

int main(int argc, char** argv) {
  ledger::Options options;
  bool have_seed = false, have_seconds = false, have_trace = false;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    auto value = [&]() -> std::string {
      if (i + 1 >= argc) Usage(argv[0]);
      return argv[++i];
    };
    if (arg == "--workload") {
      options.workload = value();
    } else if (arg == "--seed") {
      options.seed = std::strtoull(value().c_str(), nullptr, 10);
      have_seed = true;
    } else if (arg == "--seconds") {
      options.seconds = std::strtod(value().c_str(), nullptr);
      have_seconds = options.seconds > 0.0;
    } else if (arg == "--trace") {
      const std::string trace = value();
      if (trace != "0" && trace != "1") Usage(argv[0]);
      options.trace = trace == "1";
      have_trace = true;
    } else if (arg == "--tiny") {
      options.tiny = true;
    } else if (arg == "--inject-wrong") {
      options.inject_wrong = true;
    } else if (arg == "--trace-out") {
      options.trace_out = value();
    } else {
      Usage(argv[0]);
    }
  }
  if (!have_seed || !have_seconds || !have_trace) Usage(argv[0]);

  ledger::Outcome outcome;
  if (options.workload == "paper_sweep") {
    outcome = ledger::RunPaperSweep(options);
  } else if (options.workload == "large_world") {
    outcome = ledger::RunLargeWorld(options);
  } else if (options.workload == "serve_socket") {
    outcome = ledger::RunServeSocket(options);
  } else {
    Usage(argv[0]);
  }

  // Every declared metric of this run kind must have been measured.
  const MetricList defs = options.trace
                              ? MetricList{std::begin(kPerLayer),
                                           std::end(kPerLayer)}
                              : MetricList{std::begin(kEndToEnd),
                                           std::end(kEndToEnd)};
  for (const MetricDef& def : defs) {
    const auto found = outcome.metrics.find(def.name);
    if (found == outcome.metrics.end()) {
      outcome.Op(std::string("metric ") + def.name,
                 d3t::Status::Internal("not measured"));
    } else if (!std::isfinite(found->second)) {
      outcome.Op(std::string("metric ") + def.name,
                 d3t::Status::Internal("not a finite number"));
      found->second = 0.0;
    }
  }

  std::printf("# d3t ledger: workload=%s seed=%" PRIu64
              " seconds=%g trace=%d%s\n",
              options.workload.c_str(), options.seed, options.seconds,
              options.trace ? 1 : 0, options.tiny ? " (tiny)" : "");
  std::printf("# env: nproc=%ld threads=%zu compiler=\"%s\" build_type=%s\n",
              sysconf(_SC_NPROCESSORS_ONLN), outcome.threads, LEDGER_COMPILER,
              LEDGER_BUILD_TYPE);
  for (const std::string& note : outcome.notes) {
    std::printf("# %s\n", note.c_str());
  }
  for (const std::string& failure : outcome.failures) {
    std::printf("# FAILED %s\n", failure.c_str());
  }
  const double error_rate =
      outcome.attempted == 0
          ? 1.0
          : static_cast<double>(outcome.failed) /
                static_cast<double>(outcome.attempted);
  for (const MetricDef& def : defs) {
    const auto found = outcome.metrics.find(def.name);
    if (found == outcome.metrics.end()) continue;
    std::printf("%-26s %16.6f %s\n", def.name, found->second, def.unit);
  }
  std::printf("%-26s %16.6f %s (%" PRIu64 " of %" PRIu64 " operations)\n",
              "error_rate", error_rate, "ratio", outcome.failed,
              outcome.attempted);

  const bool correct = outcome.failed == 0 && outcome.attempted > 0;
  std::string json = "{\"correct\": ";
  json += correct ? "true" : "false";
  json += ", \"attempted\": " + std::to_string(outcome.attempted);
  json += ", \"failed\": " + std::to_string(outcome.failed);
  json += ", \"metrics\": {";
  bool first = true;
  char number[64];
  for (const MetricDef& def : defs) {
    const auto found = outcome.metrics.find(def.name);
    if (found == outcome.metrics.end()) continue;
    std::snprintf(number, sizeof(number), "%.17g", found->second);
    json += first ? "" : ", ";
    json += "\"" + JsonEscape(def.name) + "\": {\"value\": " + number +
            ", \"unit\": \"" + def.unit + "\"}";
    first = false;
  }
  json += "}}";
  std::printf("%s\n", json.c_str());
  return correct ? 0 : 1;
}
