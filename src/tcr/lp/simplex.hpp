// Sparse revised simplex — the production LP solver of the library.
//
// Two-phase bounded-variable primal simplex:
//   * basis kept as a sparse Markowitz LU plus a product-form eta file,
//     refactorized periodically and on numerical alarm;
//   * DEVEX pricing (Forrest-Goldfarb reference weights) over the CSC
//     matrix, with a Bland's-rule fallback after a long run of degenerate
//     pivots (anti-cycling);
//   * two-pass Harris-style ratio test with a feasibility tolerance;
//   * optional deterministic objective perturbation for heavily degenerate
//     multicommodity-flow models, removed by a final clean re-optimization;
//   * a dual simplex phase for warm bases an rhs edit left primal-infeasible
//     but dual-feasible (parametric sweeps), sharing the eta file and the
//     refactorization machinery with the primal loop.
//
// lp::Solver keeps the standard form, the constraint matrix and the LU of its
// last optimal basis between solves, so a model edited in place and re-solved
// from that basis (a sweep point, a lexicographic stage 2) starts without
// refactorizing. lp::solve() is a one-shot Solver.
//
// The paper solved its routing-design LPs with CPLEX; this solver is the
// from-scratch replacement (see DESIGN.md, substitutions).
#pragma once

#include <cstdint>
#include <memory>

#include "tcr/lp/model.hpp"

namespace tcr::guard {
class CancelToken;
}

namespace tcr::lp {

namespace detail {
struct SolverState;
}

struct SimplexOptions {
  double feas_tol = 1e-7;   // bound/row feasibility tolerance
  double opt_tol = 1e-7;    // reduced-cost (dual feasibility) tolerance
  long max_iterations = 0;  // 0 -> 200 * (m + n) + 10000
  int refactor_every = 50;
  bool perturb = true;          // phase-2 anti-degeneracy cost perturbation
  std::uint64_t seed = 0x5eedULL;
  int bland_after = 3000;  // consecutive degenerate pivots before Bland mode

  // ---- certification ----
  /// Run lp::certify() on every Optimal solve and store the result in
  /// Solution::certificate. A failing certificate is treated like a
  /// numerical breakdown: the recovery ladder runs (see solve()).
  bool certify = true;

  // ---- run control ----
  /// Optional cooperative cancellation/budget token (not owned; must
  /// outlive the solve). The solver polls it every 16 iterations and at
  /// solve entry, charging iterations against the token's cumulative
  /// budget; when it fires, the solve stops with Status::Cancelled, a
  /// best-so-far basis, and the token's diagnosis in the note. A cancelled
  /// attempt is final — the recovery ladder does not retry it.
  guard::CancelToken* cancel = nullptr;
};

/// Solve with the sparse revised simplex. On numerical breakdown — or, when
/// options.certify is set, on an optimal solution whose independent
/// certificate fails — a staged recovery ladder re-solves with progressively
/// more conservative settings: a new perturbation seed, geometric-mean
/// equilibration, tight refactorization with Bland pricing, and finally the
/// dense reference simplex (small models only). The returned Solution
/// carries the certificate of the accepted attempt; if every stage fails the
/// first attempt's result is returned with a note recording the ladder.
///
/// `warm` optionally supplies a starting basis (typically the previous
/// Solution::basis of a near-identical model in a sweep). The basis is
/// validated against the model's standard form: a dimension-mismatched or
/// inconsistent basis is rejected (cold start), a singular one is repaired
/// by patching the unpivotable positions back to the crash basis, a basis
/// whose point is primal-feasible skips phase 1 entirely, and a
/// primal-infeasible basis that passes the dual-feasibility screen — the
/// rhs-edit sweep case — is re-optimized by the dual simplex. Every adoption
/// attempt increments exactly one of the lp.warmstart.{accepted,repaired,
/// rejected} obs counters (lp.warmstart.attempts counts them all). The
/// reseed/equilibrate/careful recovery stages restart from the failed
/// attempt's exported basis rather than from scratch.
///
/// `crash` optionally supplies combinatorial crash-basis hints used when no
/// warm basis is adopted (cold start); they go through the same
/// validation/repair machinery, counted under lp.crash.* (hints whose size
/// is not num_rows are a rejected attempt).
Solution solve(const Model& model, const SimplexOptions& options = {},
               const Basis* warm = nullptr, const CrashHints* crash = nullptr);

/// lp::solve() with memory: owned next to a model that is edited in place
/// between solves (set_rhs, set_cost, set_upper, appended rows), it keeps
/// the standard form, the CSC constraint matrix and the sparse LU of the
/// final basis of its last solve whose first attempt was accepted as
/// Optimal.
///
/// Reuse rule: the next solve adopts that LU — recomputing only the basic
/// values — when the caller's warm basis has the same basic list as the
/// retained one and the new standard-form matrix equals the retained one,
/// aux-column layout included (an rhs edit can turn a row's starting slack
/// into an artificial, which appends a column). The LU depends on nothing
/// but the matrix and the basic list, so a reused solve pivots, counts and
/// answers bit for bit like lp::solve() from the same warm basis; it only
/// skips one refactorization (lp.simplex.factor_reuses counts them). Any
/// other solve — no warm basis, a basis from elsewhere such as a checkpoint
/// journal, an appended row, a flipped aux column — takes the full path.
///
/// The perturbation seed and the artificial bounds are reset per solve,
/// exactly as in lp::solve(). A solve that needs the recovery ladder runs
/// every stage on fresh state and leaves the Solver empty, as does any
/// non-optimal outcome. Retained state is moved, never copied: a Solver
/// holds at most one standard form, one matrix and one LU.
class Solver {
 public:
  Solver();
  ~Solver();
  Solver(Solver&&) noexcept;
  Solver& operator=(Solver&&) noexcept;

  Solution solve(const Model& model, const SimplexOptions& options = {},
                 const Basis* warm = nullptr, const CrashHints* crash = nullptr);

 private:
  std::unique_ptr<detail::SolverState> state_;
};

}  // namespace tcr::lp
