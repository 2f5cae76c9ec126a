// Path-restricted routing design (paper §5.2/§5.4): fix a closed-form family
// of candidate paths per pair and LP-optimize the probability weights —
// lexicographically, throughput first, locality second. Instantiations:
//   * 2TURN  — all <= 2-turn paths, worst-case objective;
//   * 2TURNA — all <= 2-turn paths, average-case objective;
//   * MIN-A  — minimal paths, average-case objective (matches ROMM, §5.4).
#pragma once

#include <functional>
#include <string>
#include <vector>

#include "tcr/core/design.hpp"
#include "tcr/routing/routing.hpp"

namespace tcr {

using PathFamily = std::function<std::vector<Path>(const Torus&, int e)>;

struct PathDesignConfig {
  DesignObjective objective = DesignObjective::WorstCase;  // WorstCase or AverageCase
  std::vector<std::vector<int>> samples;  // permutation samples (AverageCase)
  bool lexicographic_locality = true;     // second pass minimizing H_avg
};

/// Same fields as the arc-flow designs: avg_hops/locality_norm are the
/// designed routing's H_avg at the optimum.
using PathDesignResult = OptimalDesign;

PathDesignResult design_over_paths(const Torus& torus, const std::string& name,
                                   const PathFamily& family, const PathDesignConfig& config,
                                   const lp::SimplexOptions& opts = {});

/// The 2TURN algorithm (paper §5.2).
PathDesignResult design_two_turn(const Torus& torus, const lp::SimplexOptions& opts = {});

/// The 2TURNA algorithm (paper §5.4).
PathDesignResult design_two_turn_avg(const Torus& torus,
                                     const std::vector<std::vector<int>>& samples,
                                     const lp::SimplexOptions& opts = {});

/// Average-case-optimal *minimal* routing (paper §5.4, the ROMM comparison).
PathDesignResult design_minimal_avg(const Torus& torus,
                                    const std::vector<std::vector<int>>& samples,
                                    const lp::SimplexOptions& opts = {});

}  // namespace tcr
