// The core LP design machinery (§3-§5): capacity LPs against the analytic
// value, the symmetry reduction against the general formulation, worst-case
// optimal designs against the known cap/2 bound, and flow decomposition.
#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <vector>

#include "tcr/core/design.hpp"
#include "tcr/core/tradeoff.hpp"
#include "tcr/obs/registry.hpp"
#include "tcr/metrics/loads.hpp"
#include "tcr/metrics/worst_case.hpp"
#include "tcr/routing/dor.hpp"
#include "tcr/routing/general.hpp"
#include "tcr/traffic/patterns.hpp"
#include "tcr/traffic/sampler.hpp"

namespace tcr {
namespace {

TEST(CapacityLP, MatchesAnalyticIdealLoad) {
  for (int k : {3, 4, 5}) {
    const Torus t(k);
    EXPECT_NEAR(capacity_design_load(t), t.ideal_uniform_load(), 1e-6) << "k=" << k;
  }
}

TEST(CapacityLP, GeneralFormulationAgreesOnTinyTorus) {
  // The O(CN^2) general LP and the O(CN) symmetric LP must find the same
  // optimum — this validates the §4 symmetry reduction end to end.
  for (int k : {3}) {
    const Torus t(k);
    const auto general = general_capacity_design(t.graph());
    ASSERT_EQ(general.status, lp::Status::Optimal) << "k=" << k;
    EXPECT_NEAR(general.objective, t.ideal_uniform_load(), 1e-6) << "k=" << k;
  }
}

TEST(CapacityLP, UnidirectionalRing) {
  // Uniform traffic on a one-way ring of n nodes: every pair has exactly one
  // path; channel load = (1/n) * sum over pairs through a channel =
  // (n-1)/2... mean distance sum: each channel carries sum_{d=1}^{n-1} d/n
  // = (n-1)/2.
  for (int n : {3, 4, 6}) {
    const auto res = general_capacity_design(make_ring(n));
    ASSERT_EQ(res.status, lp::Status::Optimal);
    EXPECT_NEAR(res.objective, (n - 1) / 2.0, 1e-6) << "n=" << n;
  }
}

TEST(WorstCaseDesign, GeneralMatchesSymmetricOnTinyTorus) {
  const Torus t(3);
  const auto general = general_worst_case_design(t.graph());
  ASSERT_EQ(general.status, lp::Status::Optimal);

  SymmetricDesignConfig cfg;
  cfg.objective = DesignObjective::WorstCase;
  SymmetricArcDesign sym(t, cfg);
  const auto res = sym.solve();
  ASSERT_EQ(res.status, lp::Status::Optimal);
  EXPECT_NEAR(res.objective, general.objective, 1e-5);
}

class WorstCaseOptimal : public ::testing::TestWithParam<int> {};
INSTANTIATE_TEST_SUITE_P(Radices, WorstCaseOptimal, ::testing::Values(3, 4, 5));

TEST_P(WorstCaseOptimal, AchievesHalfCapacityAndVerifiesExactly) {
  const Torus t(GetParam());
  const auto opt = design_worst_case_optimal(t);
  ASSERT_EQ(opt.status, lp::Status::Optimal);
  // Known result: optimal worst-case load is twice the uniform-optimal load
  // (VAL achieves it; nothing oblivious beats it).
  EXPECT_NEAR(opt.objective, 2.0 * t.ideal_uniform_load(), 1e-5);
  // The decomposed routing must be valid and its *exact* (Hungarian-based)
  // worst case must equal the LP's claim — LP and matching machinery agree.
  EXPECT_NO_THROW(opt.routing.validate(1e-5));
  EXPECT_NEAR(worst_case(opt.routing).gamma, opt.objective, 1e-4);
  // Locality can't beat minimal routing.
  EXPECT_GE(opt.locality_norm, 1.0 - 1e-6);
  EXPECT_NEAR(opt.routing.normalized_locality(), opt.locality_norm, 1e-5);
}

TEST(WorstCaseDesign, LocalityConstraintOneIsDorLike) {
  // Forcing minimal locality (L = 1) must give DOR's worst case — the paper
  // says DOR is worst-case optimal among minimal algorithms.
  const Torus t(4);
  SymmetricDesignConfig cfg;
  cfg.objective = DesignObjective::WorstCase;
  cfg.locality_equals = t.mean_min_distance();
  SymmetricArcDesign design(t, cfg);
  const auto res = design.solve();
  ASSERT_EQ(res.status, lp::Status::Optimal);
  const double dor_gamma = worst_case(make_dor(t)).gamma;
  EXPECT_LE(res.objective, dor_gamma + 1e-6);
  EXPECT_GT(res.objective, 2.0 * t.ideal_uniform_load() - 1e-6);  // worse than cap/2
}

TEST(CuttingPlane, ConvergesToExactOptimum) {
  // The Appendix-inspired permutation-generation method (with the Hungarian
  // separation oracle and orbit-expanded cuts) must reach the same optimum
  // as the embedded matching-dual block. Practical only at small radices —
  // the cut set grows quickly (see EXPERIMENTS.md) — but exact when it
  // converges.
  for (int k : {3, 4}) {
    const Torus t(k);
    const auto res = design_worst_case_cutting_plane(t);
    ASSERT_EQ(res.status, lp::Status::Optimal) << "k=" << k;
    EXPECT_NEAR(res.objective, 2.0 * t.ideal_uniform_load(), 1e-5) << "k=" << k;
    EXPECT_LE(res.rounds, 40) << "k=" << k;
  }
}

TEST(WorstCaseDesign, FoldedAndUnfoldedAgree) {
  // The dihedral variable folding must be lossless for the worst-case
  // objective (group-averaging/convexity argument, DESIGN.md).
  const Torus t(4);
  double objectives[2];
  for (bool fold : {true, false}) {
    SymmetricDesignConfig cfg;
    cfg.objective = DesignObjective::WorstCase;
    cfg.fold_dihedral = fold;
    SymmetricArcDesign design(t, cfg);
    const auto res = design.solve();
    ASSERT_EQ(res.status, lp::Status::Optimal) << "fold=" << fold;
    objectives[fold ? 0 : 1] = res.objective;
  }
  EXPECT_NEAR(objectives[0], objectives[1], 1e-6);
}

TEST(TradeoffCurve, MonotoneAndBracketedByEndpoints) {
  const Torus t(4);
  const auto curve = worst_case_tradeoff(t, locality_grid(1.0, 2.0, 5));
  ASSERT_EQ(curve.size(), 5u);
  double prev = 0.0;
  for (const auto& pt : curve) {
    ASSERT_EQ(pt.status, lp::Status::Optimal) << "L=" << pt.locality;
    EXPECT_GE(pt.capacity_fraction, prev - 1e-6) << "L=" << pt.locality;
    prev = std::max(prev, pt.capacity_fraction);
    EXPECT_LE(pt.capacity_fraction, 0.5 + 1e-6);
  }
  // At L = 2 the optimum must reach the global worst-case optimum (cap/2).
  EXPECT_NEAR(curve.back().capacity_fraction, 0.5, 1e-4);
}

TEST(AverageCaseDesign, OptimumBeatsDorOnItsOwnSamples) {
  const Torus t(4);
  Rng rng(3);
  std::vector<std::vector<int>> samples;
  for (int i = 0; i < 12; ++i) samples.push_back(rng.permutation(t.num_nodes()));
  const auto opt = design_average_case_optimal(t, samples);
  ASSERT_EQ(opt.status, lp::Status::Optimal);
  EXPECT_NO_THROW(opt.routing.validate(1e-5));

  // Evaluate DOR's mean max load on the same samples; the design optimum
  // cannot be worse.
  const TorusRouting dor = make_dor(t);
  double dor_mean = 0.0;
  for (const auto& perm : samples) dor_mean += max_channel_load(dor, perm);
  dor_mean /= samples.size();
  EXPECT_LE(opt.objective, dor_mean + 1e-6);

  // And the designed routing's sampled mean load must equal the LP value.
  double mean = 0.0;
  for (const auto& perm : samples) mean += max_channel_load(opt.routing, perm);
  mean /= samples.size();
  EXPECT_NEAR(mean, opt.objective, 1e-4);
}

TEST(FlowDecomposition, RecoversPathsAndDiscardsCycles) {
  const Torus t(4);
  const int e = t.node(2, 1);
  std::vector<double> flow(t.num_channels(), 0.0);
  // A legit path 0 -> (1,0) -> (2,0) -> (2,1) with flow 1...
  flow[t.channel(t.node(0, 0), Dir::PX)] += 1.0;
  flow[t.channel(t.node(1, 0), Dir::PX)] += 1.0;
  flow[t.channel(t.node(2, 0), Dir::PY)] += 1.0;
  // ...plus a spurious cycle around row 3.
  for (int x = 0; x < 4; ++x) flow[t.channel(t.node(x, 3), Dir::PX)] += 0.25;
  const auto paths = decompose_flow(t.graph(), 0, e, flow);
  ASSERT_EQ(paths.size(), 1u);
  EXPECT_NEAR(paths[0].weight, 1.0, 1e-12);
  EXPECT_EQ(paths[0].path.length(), 3);
}

// The Dinic-based crash hints must be well-formed (right size, in-range
// columns, no duplicates), substantial (the flow pass covers at least the
// conservation rows of one shortest path per commodity), rhs-independent,
// and cached across calls.
TEST(FlowCrash, HintsAreWellFormedAndCached) {
  const Torus t(4);
  SymmetricDesignConfig cfg;
  cfg.objective = DesignObjective::WorstCase;
  SymmetricArcDesign design(t, cfg);
  const lp::CrashHints& hints = design.flow_crash_hints();
  const lp::Model& m = design.model();
  ASSERT_EQ(static_cast<int>(hints.basic_of_row.size()), m.num_rows());

  std::vector<char> seen(static_cast<std::size_t>(m.num_cols()), 0);
  int covered = 0;
  for (const int col : hints.basic_of_row) {
    if (col < 0) continue;
    ASSERT_LT(col, m.num_cols());
    EXPECT_FALSE(seen[static_cast<std::size_t>(col)]) << "duplicate column " << col;
    seen[static_cast<std::size_t>(col)] = 1;
    ++covered;
  }
  // Each representative commodity contributes min_dist(0, e) conservation
  // nominations; the side blocks add more. A loose floor guards against the
  // pass silently nominating nothing.
  int floor = 0;
  for (int e = 1; e < t.num_nodes(); ++e) floor += t.min_dist(0, e);
  EXPECT_GE(covered, floor / 2);

  // Cached: the second call must hand back the same object and data.
  const lp::CrashHints& again = design.flow_crash_hints();
  EXPECT_EQ(&again, &hints);
  EXPECT_EQ(again.basic_of_row, hints.basic_of_row);
}

// Crash hints are an iteration optimization, never a semantic switch: the
// optimum with and without hints must match, and the lp.crash.* channel
// must balance (attempts == accepted + repaired + rejected) while leaving
// lp.warmstart.* untouched on cold solves.
TEST(FlowCrash, ColdSolveMatchesWithAndWithoutHints) {
  auto counter = [](const char* name) {
    return obs::Registry::instance().counter(name).value();
  };
  const Torus t(4);
  SymmetricDesignConfig cfg;
  cfg.objective = DesignObjective::WorstCase;
  cfg.locality_equals = 1.4 * t.mean_min_distance();
  cfg.locality_le = true;
  SymmetricArcDesign design(t, cfg);
  const lp::Model& m = design.model();
  const lp::CrashHints& hints = design.flow_crash_hints();

  const std::int64_t warm_before = counter("lp.warmstart.attempts");
  const std::int64_t attempts_before = counter("lp.crash.attempts");
  const lp::Solution on = lp::solve(m, {}, nullptr, &hints);
  ASSERT_EQ(on.status, lp::Status::Optimal);
  EXPECT_TRUE(on.certificate.ok()) << on.certificate.summary();
  EXPECT_EQ(counter("lp.crash.attempts") - attempts_before, 1);
  EXPECT_EQ(counter("lp.crash.attempts"),
            counter("lp.crash.accepted") + counter("lp.crash.repaired") +
                counter("lp.crash.rejected"));
  EXPECT_EQ(counter("lp.warmstart.attempts"), warm_before)
      << "crash adoption must not leak into the warm-start channel";

  const lp::Solution off = lp::solve(m);
  ASSERT_EQ(off.status, lp::Status::Optimal);
  EXPECT_EQ(counter("lp.crash.attempts") - attempts_before, 1)
      << "a solve without hints must not attempt a crash basis";
  EXPECT_NEAR(on.objective, off.objective, 1e-9 * (1 + std::abs(off.objective)));
}

// Garbage hints handed straight to lp::solve must degrade through the
// repair/reject ladder and still land on the certified cold optimum.
TEST(FlowCrash, GarbageHintsNeverChangeTheAnswer) {
  const Torus t(3);
  SymmetricDesignConfig cfg;
  cfg.objective = DesignObjective::WorstCase;
  SymmetricArcDesign design(t, cfg);
  const lp::Model& m = design.model();
  lp::SimplexOptions opts;
  const lp::Solution cold = lp::solve(m, opts);
  ASSERT_EQ(cold.status, lp::Status::Optimal);

  lp::CrashHints junk;
  // Wrong size, out-of-range and duplicate columns all at once.
  junk.basic_of_row.assign(static_cast<std::size_t>(m.num_rows()), 0);
  junk.basic_of_row[0] = m.num_cols() + 17;
  if (m.num_rows() > 2) junk.basic_of_row[2] = -9;
  const lp::Solution sol = lp::solve(m, opts, nullptr, &junk);
  ASSERT_EQ(sol.status, lp::Status::Optimal);
  EXPECT_NEAR(sol.objective, cold.objective, 1e-9 * (1 + std::abs(cold.objective)));
  EXPECT_TRUE(sol.certificate.ok()) << sol.certificate.summary();

  lp::CrashHints short_hints;  // wrong length: must be ignored or rejected
  short_hints.basic_of_row = {0, 1};
  const lp::Solution sol2 = lp::solve(m, opts, nullptr, &short_hints);
  ASSERT_EQ(sol2.status, lp::Status::Optimal);
  EXPECT_NEAR(sol2.objective, cold.objective, 1e-9 * (1 + std::abs(cold.objective)));
}

// Hints sized for another row count are no crash basis: the solve counts
// them as one rejected crash attempt and then runs exactly the cold solve.
TEST(FlowCrash, MisSizedHintsCountAsRejected) {
  auto counter = [](const char* name) {
    return obs::Registry::instance().counter(name).value();
  };
  const Torus t(3);
  SymmetricArcDesign design(t, SymmetricDesignConfig{});
  const lp::Model& m = design.model();
  const lp::Solution cold = lp::solve(m);
  ASSERT_EQ(cold.status, lp::Status::Optimal);

  lp::CrashHints short_hints = design.flow_crash_hints();
  short_hints.basic_of_row.pop_back();
  const std::int64_t attempts = counter("lp.crash.attempts");
  const std::int64_t rejected = counter("lp.crash.rejected");
  const lp::Solution sol = lp::solve(m, {}, nullptr, &short_hints);
  ASSERT_EQ(sol.status, lp::Status::Optimal);
  EXPECT_EQ(counter("lp.crash.attempts") - attempts, 1);
  EXPECT_EQ(counter("lp.crash.rejected") - rejected, 1);
  EXPECT_EQ(sol.warm_start, "cold");
  EXPECT_EQ(sol.iterations, cold.iterations);
  EXPECT_EQ(sol.objective, cold.objective);
}

// Rows appended to a built model (cuts, the average-case stage-2 cap row)
// must extend the cached hints with -1: lp::solve rejects hints whose size
// is not num_rows, which would drop the flow crash basis.
TEST(FlowCrash, HintsFollowAppendedRows) {
  auto counter = [](const char* name) {
    return obs::Registry::instance().counter(name).value();
  };
  const Torus t(3);

  SymmetricDesignConfig cut_cfg;
  cut_cfg.worst_case_exact_block = false;
  SymmetricArcDesign cuts(t, cut_cfg);
  cuts.add_cut(tornado_permutation(t));
  const std::size_t built = cuts.flow_crash_hints().basic_of_row.size();
  std::vector<int> identity(static_cast<std::size_t>(t.num_nodes()));
  for (int s = 0; s < t.num_nodes(); ++s) identity[static_cast<std::size_t>(s)] = s;
  cuts.add_cut(identity);
  const lp::CrashHints& grown = cuts.flow_crash_hints();
  ASSERT_EQ(static_cast<int>(grown.basic_of_row.size()), cuts.model().num_rows());
  EXPECT_EQ(grown.basic_of_row.size(), built + 1);
  EXPECT_EQ(grown.basic_of_row.back(), -1);
  std::int64_t attempts = counter("lp.crash.attempts");
  std::int64_t rejected = counter("lp.crash.rejected");
  ASSERT_EQ(cuts.solve().status, lp::Status::Optimal);
  EXPECT_EQ(counter("lp.crash.attempts") - attempts, 1);
  EXPECT_EQ(counter("lp.crash.rejected"), rejected);

  // The stage-2 cap row of the average case. The hints are attempted; that
  // the tight cap then leaves the crash basis infeasible (its cap slack
  // negative, hence rejected) is a property of the basis, not of its size.
  Rng rng(5);
  SymmetricDesignConfig avg_cfg;
  avg_cfg.objective = DesignObjective::AverageCase;
  for (int i = 0; i < 3; ++i) avg_cfg.samples.push_back(rng.permutation(t.num_nodes()));
  SymmetricArcDesign avg(t, avg_cfg);
  const DesignResult stage1 = avg.solve();
  ASSERT_EQ(stage1.status, lp::Status::Optimal);
  const int rows = avg.model().num_rows();
  avg.minimize_locality_within(stage1.objective * (1.0 + kLexicographicSlack));
  ASSERT_EQ(avg.model().num_rows(), rows + 1);
  EXPECT_EQ(static_cast<int>(avg.flow_crash_hints().basic_of_row.size()),
            avg.model().num_rows());
  attempts = counter("lp.crash.attempts");
  ASSERT_EQ(avg.solve().status, lp::Status::Optimal);
  EXPECT_EQ(counter("lp.crash.attempts") - attempts, 1);
}

// A design model is built once and edited: the lexicographic stages share
// one model (stage 2 warm-starts from stage 1), and every cutting-plane
// round appends to the same relaxation.
TEST(DesignLifecycle, OneBuildPerDesign) {
  auto& reg = obs::Registry::instance();
  const bool timing = reg.timing_enabled();
  reg.set_timing_enabled(true);
  const obs::Timer& build = reg.timer("core.design.time.build");
  const obs::Counter& accepted = reg.counter("lp.warmstart.accepted");
  const Torus t(4);

  const std::int64_t builds0 = build.count(), accepted0 = accepted.value();
  const OptimalDesign opt = design_worst_case_optimal(t);
  ASSERT_EQ(opt.status, lp::Status::Optimal);
  EXPECT_EQ(build.count() - builds0, 1);
  EXPECT_EQ(accepted.value() - accepted0, 1);

  const std::int64_t builds1 = build.count();
  const CuttingPlaneResult cp = design_worst_case_cutting_plane(t);
  ASSERT_EQ(cp.status, lp::Status::Optimal);
  EXPECT_GT(cp.rounds, 1);
  EXPECT_EQ(build.count() - builds1, 1);
  reg.set_timing_enabled(timing);
}

TEST(DesignLifecycle, LocalityStageCapsTheObjectiveColumn) {
  // The worst-case stage-2 edit caps w through its upper bound, so the model
  // keeps its shape and the stage-1 basis warm-starts the locality solve.
  const Torus t(3);
  SymmetricArcDesign wc(t, SymmetricDesignConfig{});
  const DesignResult r1 = wc.solve();
  ASSERT_EQ(r1.status, lp::Status::Optimal);
  const int rows = wc.model().num_rows();
  wc.minimize_locality_within(r1.objective);
  const lp::Model& m = wc.model();
  EXPECT_EQ(m.num_rows(), rows);
  int capped = 0;
  for (int j = 0; j < m.num_cols(); ++j) capped += m.upper(j) == r1.objective;
  EXPECT_EQ(capped, 1);
  const DesignResult r2 = wc.solve({}, &r1.basis);
  ASSERT_EQ(r2.status, lp::Status::Optimal);
  EXPECT_NE(r2.warm_start, "rejected");
  EXPECT_NEAR(r2.objective, r2.avg_hops, 1e-9);  // the objective is now H_avg
  EXPECT_LE(r2.avg_hops, r1.avg_hops + 1e-9);
  EXPECT_NEAR(worst_case(wc.routing("wc")).gamma, r1.objective, 1e-6);
}

TEST(CuttingPlane, AddCutNeedsACutModelAndAPermutation) {
  const Torus t(3);
  SymmetricArcDesign exact(t, SymmetricDesignConfig{});
  EXPECT_THROW(exact.add_cut(tornado_permutation(t)), Error);
  SymmetricDesignConfig cfg;
  cfg.worst_case_exact_block = false;
  SymmetricArcDesign cuts(t, cfg);
  const int rows = cuts.model().num_rows();
  EXPECT_THROW(cuts.add_cut({0, 1, 2}), Error);
  std::vector<int> out_of_range = tornado_permutation(t);
  out_of_range[0] = t.num_nodes();
  EXPECT_THROW(cuts.add_cut(out_of_range), Error);
  EXPECT_EQ(cuts.model().num_rows(), rows);
}

TEST(AverageCaseDesign, RejectsMalformedSamples) {
  const Torus t(3);
  std::vector<int> out_of_range(static_cast<std::size_t>(t.num_nodes()), 0);
  out_of_range[4] = t.num_nodes();
  for (const std::vector<int>& bad : {std::vector<int>{0, 1, 2}, out_of_range}) {
    EXPECT_THROW(design_average_case_optimal(t, {bad}), Error);
    SymmetricDesignConfig cfg;
    cfg.objective = DesignObjective::AverageCase;
    cfg.samples = {bad};
    EXPECT_THROW(SymmetricArcDesign design(t, cfg), Error);
  }
}

TEST(FlowDecomposition, SplitsParallelFlows) {
  const Torus t(4);
  const int e = t.node(1, 1);
  std::vector<double> flow(t.num_channels(), 0.0);
  // Half via (1,0), half via (0,1).
  flow[t.channel(t.node(0, 0), Dir::PX)] = 0.5;
  flow[t.channel(t.node(1, 0), Dir::PY)] = 0.5;
  flow[t.channel(t.node(0, 0), Dir::PY)] = 0.5;
  flow[t.channel(t.node(0, 1), Dir::PX)] = 0.5;
  const auto paths = decompose_flow(t.graph(), 0, e, flow);
  ASSERT_EQ(paths.size(), 2u);
  EXPECT_NEAR(paths[0].weight + paths[1].weight, 1.0, 1e-12);
}

}  // namespace
}  // namespace tcr
