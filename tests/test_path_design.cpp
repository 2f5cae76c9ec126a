// 2TURN / 2TURNA / minimal-optimal designs (paper §5.2, §5.4).
#include <gtest/gtest.h>

#include "tcr/core/design.hpp"
#include "tcr/core/path_design.hpp"
#include "tcr/routing/two_turn.hpp"
#include "tcr/metrics/loads.hpp"
#include "tcr/metrics/worst_case.hpp"
#include "tcr/routing/romm.hpp"
#include "tcr/routing/valiant.hpp"
#include "tcr/util/rng.hpp"

namespace tcr {
namespace {

TEST(TwoTurnDesign, MatchesUnrestrictedOptimumAtK4) {
  // Paper Figure 4: "for the k = 4 and k = 6 cases, 2TURN exactly matches
  // the optimal" — both in worst-case throughput and locality.
  const Torus t(4);
  const auto two_turn = design_two_turn(t);
  ASSERT_EQ(two_turn.status, lp::Status::Optimal);
  EXPECT_NEAR(two_turn.objective, 2.0 * t.ideal_uniform_load(), 1e-5);

  const auto opt = design_worst_case_optimal(t);
  ASSERT_EQ(opt.status, lp::Status::Optimal);
  EXPECT_NEAR(two_turn.routing.normalized_locality(), opt.locality_norm, 1e-4);
}

TEST(TwoTurnDesign, ValidWithHalfCapacityWorstCase) {
  for (int k : {3, 4, 5}) {
    const Torus t(k);
    const auto res = design_two_turn(t);
    ASSERT_EQ(res.status, lp::Status::Optimal) << "k=" << k;
    EXPECT_NO_THROW(res.routing.validate(1e-5));
    // Exact worst case of the produced routing equals the LP optimum.
    EXPECT_NEAR(worst_case(res.routing).gamma, res.objective, 1e-4) << "k=" << k;
    // Better locality than IVAL at the same worst case.
    const TorusRouting ival = make_ival(t);
    EXPECT_LE(res.routing.normalized_locality(), ival.normalized_locality() + 1e-6)
        << "k=" << k;
    // All paths in the produced routing respect the 2TURN structure.
    for (int e = 1; e < t.num_nodes(); ++e) {
      for (const auto& wp : res.routing.paths(e)) {
        EXPECT_LE(count_turns(t, wp.path), 2);
        EXPECT_FALSE(has_u_turn(t, wp.path));
      }
    }
  }
}

TEST(TwoTurnADesign, BeatsOrMatches2TurnOnAverageObjective) {
  const Torus t(4);
  Rng rng(11);
  std::vector<std::vector<int>> samples;
  for (int i = 0; i < 10; ++i) samples.push_back(rng.permutation(t.num_nodes()));

  const auto avg_design = design_two_turn_avg(t, samples);
  ASSERT_EQ(avg_design.status, lp::Status::Optimal);
  EXPECT_NO_THROW(avg_design.routing.validate(1e-5));

  const auto wc_design = design_two_turn(t);
  ASSERT_EQ(wc_design.status, lp::Status::Optimal);
  double wc_mean = 0.0;
  for (const auto& perm : samples) wc_mean += max_channel_load(wc_design.routing, perm);
  wc_mean /= samples.size();
  EXPECT_LE(avg_design.objective, wc_mean + 1e-6);

  // The reported objective matches a direct evaluation on the samples.
  double mean = 0.0;
  for (const auto& perm : samples) mean += max_channel_load(avg_design.routing, perm);
  mean /= samples.size();
  EXPECT_NEAR(mean, avg_design.objective, 1e-4);
}

TEST(MinimalAvgDesign, StaysMinimalAndBeatsRommSamples) {
  // Paper §5.4: optimizing the average case over minimal paths "produces a
  // routing algorithm that matches the performance of ROMM".
  const Torus t(4);
  Rng rng(12);
  std::vector<std::vector<int>> samples;
  for (int i = 0; i < 10; ++i) samples.push_back(rng.permutation(t.num_nodes()));

  const auto res = design_minimal_avg(t, samples);
  ASSERT_EQ(res.status, lp::Status::Optimal);
  EXPECT_NEAR(res.routing.normalized_locality(), 1.0, 1e-6);

  const TorusRouting romm = make_romm(t);
  double romm_mean = 0.0;
  for (const auto& perm : samples) romm_mean += max_channel_load(romm, perm);
  romm_mean /= samples.size();
  // The LP optimum over minimal paths can only be as good or better on its
  // own samples; "matches ROMM" means the gap is small.
  EXPECT_LE(res.objective, romm_mean + 1e-6);
  EXPECT_GT(res.objective, 0.5 * romm_mean);
}

TEST(PathDesign, RejectsMalformedSamples) {
  // A short sample used to be read past its end; an out-of-range
  // destination used to wrap around the torus.
  const Torus t(3);
  std::vector<int> out_of_range(static_cast<std::size_t>(t.num_nodes()), 0);
  out_of_range[4] = -1;
  for (const std::vector<int>& bad : {std::vector<int>{0, 1, 2}, out_of_range}) {
    EXPECT_THROW(design_two_turn_avg(t, {bad}), Error);
    EXPECT_THROW(design_minimal_avg(t, {bad}), Error);
  }
}

TEST(PathDesign, ReportsTheLocalityOfTheDesignedRouting) {
  const Torus t(4);
  const auto res = design_two_turn(t);
  ASSERT_EQ(res.status, lp::Status::Optimal);
  EXPECT_NEAR(res.avg_hops, res.routing.avg_path_length(), 1e-6);
  EXPECT_NEAR(res.locality_norm, res.routing.normalized_locality(), 1e-6);
}

TEST(PathDesign, LexicographicSecondStagePreservesObjective) {
  const Torus t(4);
  PathDesignConfig cfg;
  cfg.objective = DesignObjective::WorstCase;
  cfg.lexicographic_locality = false;
  const auto stage1_only = design_over_paths(
      t, "2TURN-s1", [](const Torus& tt, int e) { return enumerate_two_turn_paths(tt, e); },
      cfg);
  ASSERT_EQ(stage1_only.status, lp::Status::Optimal);

  const auto full = design_two_turn(t);
  ASSERT_EQ(full.status, lp::Status::Optimal);
  EXPECT_NEAR(stage1_only.objective, full.objective, 1e-6);
  // Stage 2 can only improve locality.
  EXPECT_LE(full.routing.avg_path_length(), stage1_only.routing.avg_path_length() + 1e-6);
  // And the exact worst case of the final routing stays at the optimum.
  EXPECT_NEAR(worst_case(full.routing).gamma, full.objective, 1e-4);
}

}  // namespace
}  // namespace tcr
