// Arc-flow (edge-variable) formulations of the routing-design MCF problems.
//
// Paper §4: tracking per-path probabilities is exponential, but per-channel
// commodity flows are polynomial — CN^2 variables, N^3 flow-conservation
// constraints — and paths are recovered from the flows afterwards. On the
// vertex/edge-symmetric torus the search can be restricted to translation-
// invariant routing functions (convexity makes this lossless), shrinking the
// problem to one canonical source: CN flow variables and the worst-case
// matching-dual constraints of LP (8) for one representative channel per
// direction class.
//
// SymmetricArcDesign builds these torus LPs; the general_* functions build
// the unreduced formulations for arbitrary digraphs (exponentially more
// rows/cols, fine for small networks, and used in tests to validate that the
// symmetry reduction is exact).
#pragma once

#include <array>
#include <optional>
#include <string>
#include <vector>

#include "tcr/core/blocks.hpp"
#include "tcr/graph/digraph.hpp"
#include "tcr/graph/torus.hpp"
#include "tcr/lp/model.hpp"
#include "tcr/lp/simplex.hpp"
#include "tcr/routing/routing.hpp"

namespace tcr {

/// What a design LP minimizes.
enum class DesignObjective {
  WorstCase,    // gamma_wc(R), LP (8)
  Uniform,      // gamma_max(R, U), problem (6) — network capacity
  AverageCase,  // mean gamma_max over samples, eq. (9)
};

struct SymmetricDesignConfig {
  DesignObjective objective = DesignObjective::WorstCase;
  /// Additionally restrict to routings invariant under the dihedral point
  /// group D4 (tcr/graph/symmetry.hpp) by tying variables across orbits.
  /// Lossless for the worst-case / uniform objectives and for H_avg
  /// (convexity + invariance); for the sampled average case it is equivalent to using
  /// the D4-closure of the sample set. Cuts variables ~8x and lets the
  /// worst-case block use a single representative channel.
  bool fold_dihedral = true;
  /// Locality side constraint: average hops per pair == this (paper (10)'s
  /// "H_avg(R) = L", in absolute hops). Negative = absent.
  double locality_equals = -1.0;
  /// Use H_avg <= L instead of equality. The tradeoff sweeps (Figures 1/6)
  /// use this: past the unconstrained optimum an equality constraint forces
  /// wastefully long paths and the curve would bend back.
  bool locality_le = false;
  /// Permutation traffic samples (perm[s] = d) for the average-case rows.
  std::vector<std::vector<int>> samples;
  /// Worst-case handling: with `true` the full matching-dual block of LP (8)
  /// is embedded (exact in one solve). With `false`, only the permutation
  /// rows appended by add_cut() constrain the worst case — the relaxation
  /// used by the cutting-plane method (design.hpp), whose separation oracle
  /// (a Hungarian matching) supplies the permutations.
  bool worst_case_exact_block = true;
};

struct DesignResult {
  lp::Status status = lp::Status::Numerical;
  double objective = 0.0;   // optimal value of the configured objective
  double avg_hops = 0.0;    // H_avg of the designed routing, in hops
  long iterations = 0;
  long dual_iterations = 0;  // dual-phase share of `iterations` (rhs-edit restarts)
  std::string note;         // solver stop diagnosis when not Optimal
  lp::Certificate certificate;  // independent KKT check of the design LP
  /// Final simplex basis (exported on every outcome); feed it back into
  /// solve() of an incrementally-updated design to warm-start.
  lp::Basis basis;
  /// Warm-start adoption outcome of the underlying LP solve
  /// ("cold"/"accepted"/"repaired"/"rejected"; see lp::Solution::warm_start).
  std::string warm_start = "cold";
};

/// One torus design LP, built once by the constructor and then edited in
/// place between solves: set_locality_bound (sweeps), minimize_locality_within
/// (the lexicographic second stage) and add_cut (cutting-plane rounds).
class SymmetricArcDesign {
 public:
  SymmetricArcDesign(const Torus& torus, SymmetricDesignConfig config);

  /// Solve the LP. The designed routing (path decomposition of the optimal
  /// flows) is available via routing() when status == Optimal. `warm`
  /// optionally seeds the simplex with a previous solve's basis (see
  /// lp::solve); it pays off when only the locality bound moved since, and
  /// the previous solve's LU carries over when `warm` is its basis (see
  /// lp::Solver).
  DesignResult solve(const lp::SimplexOptions& opts = {},
                     const lp::Basis* warm = nullptr);

  /// Move the locality bound without rebuilding the model: rewrites the
  /// locality row's right-hand side in place (the row's type and
  /// coefficients never change). Requires a locality row, i.e. the design
  /// was configured with locality_equals >= 0. Sweeps use this to step
  /// through localities against one constraint matrix, warm-starting each
  /// point from the previous basis.
  void set_locality_bound(double locality_equals);

  /// Lexicographic stage-2 edit (design.hpp): minimize H_avg subject to the
  /// configured throughput objective staying <= `cap`. The flow columns take
  /// their locality costs; the objective column is zeroed and capped through
  /// its upper bound (worst case, uniform), or the sample mean gets an
  /// appended cap row (average case). Call it once. The model is edited,
  /// never rebuilt, so a solve() after a bound cap can warm-start from the
  /// stage-1 basis.
  void minimize_locality_within(double cap);

  /// Append the cutting-plane row gamma_{c0}(R, perm) <= w for the
  /// representative channel c0 (+X at node 0). Requires a worst-case design
  /// with worst_case_exact_block == false.
  void add_cut(const std::vector<int>& perm);

  /// Combinatorial crash basis for cold solves: a Dinic max-flow pass
  /// (lp/maxflow.hpp) routes one shortest 0 -> e path per representative
  /// commodity and nominates the path's flow variables as initial basic
  /// columns for their conservation rows; the dual-potential and load-bound
  /// columns of the side blocks are nominated for one row each. The hints
  /// depend only on the constraint structure, never on right-hand sides, so
  /// they are computed once and cached; rows appended since (cuts, the
  /// stage-2 cap row) keep their slack (-1). solve() passes them to the solver
  /// on every call (they only matter when no warm basis is adopted).
  const lp::CrashHints& flow_crash_hints();

  /// Decomposed routing from the last successful solve.
  TorusRouting routing(const std::string& name) const;

  /// Raw per-(offset, channel) flows from the last successful solve,
  /// indexed (e - 1) * C + c. Used by the cutting-plane separation oracle.
  const std::vector<double>& flows() const { return solution_flows_; }

  const lp::Model& model() const { return model_; }

 private:
  int flow_var(int e, int c) const { return var_of_[(e - 1) * torus_.num_channels() + c]; }
  void build_orbits();
  void add_flow_conservation();
  void add_worst_case_block();
  void add_uniform_block();
  void add_average_block();
  /// Flow variable carrying pair (s, d)'s load on channel c: commodity
  /// d - s from the canonical source 0, on c translated by -s. -1 if s == d.
  int pair_flow_var(int s, int d, int c) const;
  /// Adds the load permutation `perm` puts on channel c to `row`.
  void add_permutation_load(int row, int c, const std::vector<int>& perm);
  void add_locality_row();

  const Torus& torus_;
  SymmetricDesignConfig config_;
  lp::Model model_;
  lp::Solver solver_;  // solves model_, keeping its LU between edits
  int num_flow_vars_ = 0;
  std::vector<int> var_of_;          // (e-1)*C + c -> folded variable id
  std::vector<double> orbit_size_;   // per folded variable
  std::vector<std::array<double, 4>> dir_count_;  // orbit members per class
  std::vector<int> rep_commodities_;
  int obj_col_ = -1;       // w of LP (8), or the uniform max load
  int locality_row_ = -1;  // row index of the locality constraint, if any
  detail::SampleBlocks samples_;  // LP (15) blocks (average case)
  std::vector<double> solution_flows_;  // (N-1) * C flow values after solve

  // Row/column bookkeeping for flow_crash_hints(). Conservation rows start
  // at cons_row_base_ and run commodity-major ((rep index) * N + node); the
  // other blocks record their rows and columns as they are built.
  int cons_row_base_ = 0;
  std::vector<detail::MatchingDualBlock> wc_blocks_;
  int first_cut_row_ = -1;
  std::vector<int> uni_rows_;
  lp::CrashHints crash_hints_;
};

// ---- General (unreduced) formulations for arbitrary digraphs ----------

struct GeneralDesignResult {
  lp::Status status = lp::Status::Numerical;
  double objective = 0.0;
  /// flows[pair(s,d)][c]; pair index = s * N + d.
  std::vector<std::vector<double>> flows;
  lp::Certificate certificate;  // independent KKT check of the design LP
};

/// Capacity problem (6) on an arbitrary digraph: minimize the maximum
/// bandwidth-normalized channel load under uniform traffic.
GeneralDesignResult general_capacity_design(const Digraph& g,
                                            const lp::SimplexOptions& opts = {});

/// Worst-case problem (8) on an arbitrary digraph: minimize gamma_wc over
/// all oblivious routing functions. O(C N^2) rows — small networks only.
GeneralDesignResult general_worst_case_design(const Digraph& g,
                                              const lp::SimplexOptions& opts = {});

}  // namespace tcr
