// Per-layer metrics of a traced run: span totals from the benchmark's own
// spans, deltas of existing tcr::obs registry counters and lp.simplex.time.*
// timers taken around each traced request, and the workloads' tallies.
#pragma once

#include <array>
#include <map>
#include <string>
#include <vector>

#include "spans.hpp"
#include "workload.hpp"

namespace loadbench {

struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
};

/// Registry values read before and after each traced execution.
enum RegistryField : int {
  kIterations, kDegenerate, kRefactorizations, kDualSolves, kDualIterations, kDualFallbacks,
  kWarmAttempts, kWarmAccepted, kWarmRepaired, kCrashAttempts, kCrashAccepted, kCrashRepaired,
  kRecoveryAttempts, kCertifyFailures, kLuFactors, kLuFillNnz, kPricingS, kFtranS, kBtranS,
  kRatioTestS, kDualS, kRefactorS, kNumRegistryFields
};

struct RegistryReading {
  std::array<double, kNumRegistryFields> v{};

  static RegistryReading now();
  double operator[](RegistryField f) const { return v[f]; }
  /// Adds after - before, field by field.
  void add_delta(const RegistryReading& before, const RegistryReading& after);
};

/// Paired latencies of the traced run: each request executed once with
/// tracing and once without.
struct TraceOverhead {
  double untraced_p50_s = 0.0;
  double traced_p50_s = 0.0;
};

/// Every per-layer metric, in BENCHMARK.json order. Counts and registry
/// times are per traced request; span times are per call.
std::vector<Metric> layer_metrics(const std::map<std::string, SpanTotals>& spans,
                                  const RegistryReading& registry, const LayerTally& tally,
                                  double traced_requests, const TraceOverhead& overhead);

}  // namespace loadbench
