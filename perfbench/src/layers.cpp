#include "layers.hpp"

#include <iterator>

#include "tcr/obs/registry.hpp"

namespace loadbench {
namespace {

// Registry names behind each RegistryField, in enum order. Counters and
// lp.simplex.time.* timers; kLuFactors / kLuFillNnz are the count and sum
// of the lp.simplex.lu_fill_nnz histogram.
constexpr const char* kCounters[] = {
    "lp.simplex.iterations", "lp.simplex.degenerate_pivots", "lp.simplex.refactorizations",
    "lp.dual.solves",        "lp.dual.iterations",           "lp.dual.fallbacks",
    "lp.warmstart.attempts", "lp.warmstart.accepted",        "lp.warmstart.repaired",
    "lp.crash.attempts",     "lp.crash.accepted",            "lp.crash.repaired",
    "lp.recovery.attempts",  "lp.certify.failures"};
constexpr const char* kTimers[] = {"lp.simplex.time.pricing", "lp.simplex.time.ftran",
                                   "lp.simplex.time.btran",   "lp.simplex.time.ratio_test",
                                   "lp.simplex.time.dual",    "lp.simplex.time.refactor"};
static_assert(std::size(kCounters) == kLuFactors);
static_assert(kPricingS + std::size(kTimers) == kNumRegistryFields);

double ratio(double num, double den) { return den > 0.0 ? num / den : 0.0; }

}  // namespace

RegistryReading RegistryReading::now() {
  tcr::obs::Registry& reg = tcr::obs::Registry::instance();
  RegistryReading r;
  for (std::size_t i = 0; i < std::size(kCounters); ++i)
    r.v[i] = static_cast<double>(reg.counter(kCounters[i]).value());
  const tcr::obs::Histogram& fill = reg.histogram("lp.simplex.lu_fill_nnz", 1.0, 2.0);
  r.v[kLuFactors] = static_cast<double>(fill.count());
  r.v[kLuFillNnz] = fill.sum();
  for (std::size_t i = 0; i < std::size(kTimers); ++i)
    r.v[kPricingS + i] = reg.timer(kTimers[i]).wall_seconds();
  return r;
}

void RegistryReading::add_delta(const RegistryReading& before, const RegistryReading& after) {
  for (std::size_t i = 0; i < v.size(); ++i) v[i] += after.v[i] - before.v[i];
}

std::vector<Metric> layer_metrics(const std::map<std::string, SpanTotals>& spans,
                                  const RegistryReading& reg, const LayerTally& tally,
                                  double requests, const TraceOverhead& overhead) {
  const auto per_call = [&](const char* name) {
    const auto it = spans.find(name);
    return it == spans.end() ? 0.0
                             : ratio(it->second.total_s, static_cast<double>(it->second.calls));
  };
  const auto total = [&](const char* name) {
    const auto it = spans.find(name);
    return it == spans.end() ? 0.0 : it->second.total_s;
  };
  const auto per_request = [&](double v) { return ratio(v, requests); };

  return {
      {"core.build_s", per_call("core.build"), "s"},
      {"core.solve_s", per_call("core.solve"), "s"},
      {"core.decompose_s", per_call("core.decompose"), "s"},
      {"core.lexicographic_s", per_call("core.lexicographic"), "s"},
      {"core.path_design_s", per_call("core.path_design"), "s"},
      {"core.rows", ratio(tally.rows, tally.models), "count"},
      {"core.cols", ratio(tally.cols, tally.models), "count"},
      {"core.nnz", ratio(tally.nnz, tally.models), "count"},
      {"lp.iterations", per_request(reg[kIterations]), "count"},
      {"lp.us_per_iteration", 1e6 * ratio(total("core.solve"), tally.solve_iterations), "us"},
      {"lp.pricing_s", per_request(reg[kPricingS]), "s"},
      {"lp.ftran_s", per_request(reg[kFtranS]), "s"},
      {"lp.btran_s", per_request(reg[kBtranS]), "s"},
      {"lp.ratio_test_s", per_request(reg[kRatioTestS]), "s"},
      {"lp.dual_s", per_request(reg[kDualS]), "s"},
      {"lp.dual_iterations", per_request(reg[kDualIterations]), "count"},
      {"lp.dual_fallback_ratio", ratio(reg[kDualFallbacks], reg[kDualSolves]), "ratio"},
      {"lp.warm_adopted_ratio",
       ratio(reg[kWarmAccepted] + reg[kWarmRepaired], reg[kWarmAttempts]), "ratio"},
      {"lp.crash_adopted_ratio",
       ratio(reg[kCrashAccepted] + reg[kCrashRepaired], reg[kCrashAttempts]), "ratio"},
      {"lp.degenerate_ratio", ratio(reg[kDegenerate], reg[kIterations]), "ratio"},
      {"lp.recovery_attempts", per_request(reg[kRecoveryAttempts]), "count"},
      {"lp.certify_failures", per_request(reg[kCertifyFailures]), "count"},
      {"lin.refactor_s", per_request(reg[kRefactorS]), "s"},
      {"lin.refactorizations", per_request(reg[kRefactorizations]), "count"},
      {"lin.lu_fill_nnz", ratio(reg[kLuFillNnz], reg[kLuFactors]), "count"},
      {"routing.build_s", per_call("routing.build"), "s"},
      {"routing.load_table_s", per_call("routing.load_table"), "s"},
      {"routing.paths", ratio(tally.paths, tally.routings), "count"},
      {"matching.worst_case_s", per_call("matching.worst_case"), "s"},
      {"matching.assignment_s", per_call("matching.assignment"), "s"},
      {"metrics.average_case_s", per_call("metrics.average_case"), "s"},
      {"metrics.s_per_sample", ratio(total("metrics.average_case"), tally.samples), "s"},
      {"traffic.sample_s", per_call("traffic.sample"), "s"},
      {"sim.build_s", per_call("sim.build"), "s"},
      {"sim.run_s", per_call("sim.run"), "s"},
      {"sim.ns_per_node_cycle", 1e9 * ratio(total("sim.run"), tally.sim_node_cycles), "ns"},
      {"sim.accepted_over_offered", ratio(tally.sim_accept_ratio, tally.sim_runs), "ratio"},
      {"sim.drain_cycles", ratio(tally.sim_drain_cycles, tally.sim_runs), "count"},
      {"sim.parallel_speedup", tally.parallel_speedup, "x"},
      {"trace.untraced_p50_s", overhead.untraced_p50_s, "s"},
      {"trace.traced_p50_s", overhead.traced_p50_s, "s"},
      {"trace.overhead_s", overhead.traced_p50_s - overhead.untraced_p50_s, "s"},
  };
}

}  // namespace loadbench
