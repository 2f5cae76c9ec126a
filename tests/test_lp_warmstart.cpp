// Warm-start contract of lp::solve (ISSUE: warm-started LP sweeps): a
// supplied basis may cut work but must never change the answer. Every test
// here compares a warm solve against a cold solve of the same model and
// demands identical status, matching certified objectives, and sane
// lp.warmstart.* accounting — including for deliberately stale, singular,
// and garbage bases. The sweep-level tests pin the chain semantics of
// SweepConfig: warm and cold sweeps agree to 1e-8 and parallel sweeps are
// bitwise-identical to serial ones. The SolverReuse tests pin lp::Solver's
// reuse rule: a retained LU changes no bit of any answer, saves the
// adoption and extraction factorizations, and is refused whenever the
// matrix or the basis it factors has changed.
#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <cstring>
#include <string>
#include <vector>

#include "tcr/core/arc_flow.hpp"
#include "tcr/core/tradeoff.hpp"
#include "tcr/graph/torus.hpp"
#include "tcr/lp/certify.hpp"
#include "tcr/lp/simplex.hpp"
#include "tcr/obs/registry.hpp"
#include "tcr/util/rng.hpp"
#include "tcr/util/thread_pool.hpp"

namespace tcr::lp {
namespace {

Model random_model(Rng& rng, int rows, int cols) {
  Model m;
  m.set_sense(rng.uniform() < 0.5 ? Sense::Minimize : Sense::Maximize);
  for (int j = 0; j < cols; ++j) {
    const double r = rng.uniform();
    double lo = 0.0, up = kInf;
    if (r < 0.2) {
      lo = -kInf;  // free
    } else if (r < 0.4) {
      up = rng.uniform(0.5, 4.0);  // boxed
    } else if (r < 0.5) {
      lo = rng.uniform(-2.0, 0.0);
      up = lo + rng.uniform(0.0, 3.0);
    }
    m.add_col(lo, up, rng.uniform(-3, 3));
  }
  for (int i = 0; i < rows; ++i) {
    const double r = rng.uniform();
    const RowType type = r < 0.4 ? RowType::LE : (r < 0.7 ? RowType::GE : RowType::EQ);
    const int row = m.add_row(type, rng.uniform(-4, 4));
    int terms = 0;
    for (int j = 0; j < cols; ++j) {
      if (rng.uniform() < 0.45) {
        m.add_term(row, j, rng.uniform(-2, 2));
        ++terms;
      }
    }
    if (terms == 0) m.add_term(row, static_cast<int>(rng.below(cols)), 1.0);
  }
  // Keep the feasible set bounded so optima dominate the sweep.
  const int row = m.add_row(RowType::LE, rng.uniform(10, 30));
  for (int j = 0; j < cols; ++j) m.add_term(row, j, 1.0);
  const int row2 = m.add_row(RowType::GE, rng.uniform(-30, -10));
  for (int j = 0; j < cols; ++j) m.add_term(row2, j, 1.0);
  return m;
}

struct WarmCounters {
  std::int64_t attempts, accepted, repaired, rejected, phase1_skipped;
  static WarmCounters snap() {
    auto& reg = obs::Registry::instance();
    return {reg.counter("lp.warmstart.attempts").value(),
            reg.counter("lp.warmstart.accepted").value(),
            reg.counter("lp.warmstart.repaired").value(),
            reg.counter("lp.warmstart.rejected").value(),
            reg.counter("lp.warmstart.phase1_skipped").value()};
  }
  WarmCounters delta_since(const WarmCounters& base) const {
    return {attempts - base.attempts, accepted - base.accepted, repaired - base.repaired,
            rejected - base.rejected, phase1_skipped - base.phase1_skipped};
  }
  std::int64_t adopted() const { return accepted + repaired; }
  /// The accounting invariant: every adoption attempt commits exactly one
  /// outcome, so over any window attempts == accepted + repaired + rejected.
  void expect_balanced(const char* what) const {
    EXPECT_EQ(attempts, accepted + repaired + rejected) << what;
  }
};

struct DualCounters {
  std::int64_t solves, iterations, reoptimized, fallbacks, infeasible_bases;
  static DualCounters snap() {
    auto& reg = obs::Registry::instance();
    return {reg.counter("lp.dual.solves").value(), reg.counter("lp.dual.iterations").value(),
            reg.counter("lp.dual.reoptimized").value(),
            reg.counter("lp.dual.fallbacks").value(),
            reg.counter("lp.dual.infeasible_bases").value()};
  }
  DualCounters delta_since(const DualCounters& base) const {
    return {solves - base.solves, iterations - base.iterations,
            reoptimized - base.reoptimized, fallbacks - base.fallbacks,
            infeasible_bases - base.infeasible_bases};
  }
};

// Warm and cold must agree on status; on Optimal, objectives must match and
// both must carry passing certificates. Returns the warm solution.
Solution expect_warm_matches_cold(const Model& m, const Basis& warm, const SimplexOptions& opt,
                                  const char* what) {
  const Solution cold = solve(m, opt);
  const Solution ws = solve(m, opt, &warm);
  EXPECT_EQ(ws.status, cold.status) << what;
  if (cold.status == Status::Optimal) {
    EXPECT_NEAR(ws.objective, cold.objective, 1e-7 * (1 + std::abs(cold.objective))) << what;
    EXPECT_TRUE(ws.certificate.ok()) << what << ": " << ws.certificate.summary();
    const Certificate check = certify(m, ws);
    EXPECT_TRUE(check.pass) << what << ": " << check.summary();
  }
  return ws;
}

TEST(WarmStart, OwnOptimumIsAdoptedAndMatches) {
  Rng rng(4242);
  SimplexOptions opt;
  int optimal = 0;
  std::int64_t adopted = 0;
  for (int trial = 0; trial < 150; ++trial) {
    opt.seed = 9000 + trial;
    const Model m = random_model(rng, 2 + static_cast<int>(rng.below(10)),
                                 2 + static_cast<int>(rng.below(12)));
    const Solution cold = solve(m, opt);
    if (cold.status != Status::Optimal) continue;
    ++optimal;
    ASSERT_FALSE(cold.basis.empty());
    const WarmCounters before = WarmCounters::snap();
    const Solution ws = solve(m, opt, &cold.basis);
    const WarmCounters d = WarmCounters::snap().delta_since(before);
    ASSERT_EQ(ws.status, Status::Optimal) << "trial " << trial;
    EXPECT_NEAR(ws.objective, cold.objective, 1e-7 * (1 + std::abs(cold.objective)))
        << "trial " << trial;
    EXPECT_TRUE(ws.certificate.ok()) << "trial " << trial << ": " << ws.certificate.summary();
    EXPECT_EQ(d.adopted() + d.rejected, 1) << "trial " << trial;
    adopted += d.adopted();
  }
  ASSERT_GT(optimal, 20);
  // A solver's own optimal basis must essentially always be adoptable.
  EXPECT_GE(adopted, optimal - 2);
}

TEST(WarmStart, StaleBasisAfterRhsEditMatchesCold) {
  Rng rng(1717);
  SimplexOptions opt;
  int compared = 0;
  for (int trial = 0; trial < 150; ++trial) {
    opt.seed = 5000 + trial;
    Model m = random_model(rng, 3 + static_cast<int>(rng.below(9)),
                           3 + static_cast<int>(rng.below(10)));
    const Solution base = solve(m, opt);
    if (base.status != Status::Optimal) continue;

    // Move one rhs entry and check the stale basis still yields the cold
    // answer.
    const int row = static_cast<int>(rng.below(m.num_rows()));
    m.set_rhs(row, m.rhs(row) + rng.uniform(-1.5, 1.5));
    expect_warm_matches_cold(m, base.basis, opt, "stale basis");
    ++compared;
  }
  ASSERT_GT(compared, 20);
}

TEST(WarmStart, GarbageBasesNeverChangeTheAnswer) {
  Rng rng(99);
  SimplexOptions opt;
  opt.seed = 31;
  // Draw until a model with a certified optimum shows up (most draws do).
  Model m;
  Solution cold;
  for (int attempt = 0; attempt < 50; ++attempt) {
    m = random_model(rng, 8, 10);
    cold = solve(m, opt);
    if (cold.status == Status::Optimal) break;
  }
  ASSERT_EQ(cold.status, Status::Optimal);
  const int n = static_cast<int>(cold.basis.stat.size());
  const int rows = static_cast<int>(cold.basis.basic.size());

  {  // Wrong dimensions: must be rejected outright, then solve cold.
    Basis b;
    b.stat.assign(3, 0);
    b.basic.assign(2, 0);
    const WarmCounters before = WarmCounters::snap();
    expect_warm_matches_cold(m, b, opt, "wrong dimensions");
    EXPECT_EQ(WarmCounters::snap().delta_since(before).rejected, 1);
  }
  {  // Junk status bytes are re-derived, not trusted.
    Basis b = cold.basis;
    for (std::size_t j = 0; j < b.stat.size(); j += 2) b.stat[j] = 207;
    expect_warm_matches_cold(m, b, opt, "junk status bytes");
  }
  {  // Duplicate basic entries: unrecoverable, must fall back cold.
    Basis b = cold.basis;
    ASSERT_GE(rows, 2);
    b.basic[1] = b.basic[0];
    const WarmCounters before = WarmCounters::snap();
    expect_warm_matches_cold(m, b, opt, "duplicate basic list");
    EXPECT_EQ(WarmCounters::snap().delta_since(before).rejected, 1);
  }
  {  // Out-of-range basic entries: likewise.
    Basis b = cold.basis;
    b.basic[0] = n + 100;
    const WarmCounters before = WarmCounters::snap();
    expect_warm_matches_cold(m, b, opt, "out-of-range basic entry");
    EXPECT_EQ(WarmCounters::snap().delta_since(before).rejected, 1);
  }
}

TEST(WarmStart, SingularBasisIsRepairedOrRejected) {
  // A structural column with no constraint entries makes any basis that
  // includes it singular; the repair must patch it out (or reject) and
  // still reproduce the cold answer.
  Model m;
  m.add_col(0.0, kInf, 1.0);
  m.add_col(0.0, kInf, 2.0);
  const int zero_col = m.add_col(0.0, 5.0, 0.0);  // never touches a row
  const int r0 = m.add_row(RowType::GE, 2.0);
  m.add_term(r0, 0, 1.0);
  m.add_term(r0, 1, 1.0);
  const int r1 = m.add_row(RowType::LE, 10.0);
  m.add_term(r1, 0, 1.0);
  m.add_term(r1, 1, 3.0);
  SimplexOptions opt;
  const Solution cold = solve(m, opt);
  ASSERT_EQ(cold.status, Status::Optimal);

  Basis b = cold.basis;
  // Force the zero column basic in place of whatever row-0's basic was.
  b.stat[static_cast<std::size_t>(b.basic[0])] = 1;  // kAtLower
  b.basic[0] = zero_col;
  b.stat[static_cast<std::size_t>(zero_col)] = 0;  // kBasic
  const WarmCounters before = WarmCounters::snap();
  expect_warm_matches_cold(m, b, opt, "singular basis");
  const WarmCounters d = WarmCounters::snap().delta_since(before);
  EXPECT_EQ(d.repaired + d.rejected, 1);
}

TEST(WarmStart, SweepChainMatchesColdAndAdoptsBases) {
  const Torus torus(4);
  const std::vector<double> grid = locality_grid(1.0, 2.0, 6);
  SweepConfig warm_cfg;
  warm_cfg.warm_start = true;
  warm_cfg.chains = 1;
  SweepConfig cold_cfg = warm_cfg;
  cold_cfg.warm_start = false;

  const WarmCounters before = WarmCounters::snap();
  const auto warm = worst_case_tradeoff(torus, grid, {}, nullptr, warm_cfg);
  const WarmCounters d = WarmCounters::snap().delta_since(before);
  const auto cold = worst_case_tradeoff(torus, grid, {}, nullptr, cold_cfg);

  ASSERT_EQ(warm.size(), grid.size());
  ASSERT_EQ(cold.size(), grid.size());
  for (std::size_t i = 0; i < grid.size(); ++i) {
    ASSERT_TRUE(warm[i].solved()) << "point " << i << ": " << warm[i].note;
    ASSERT_TRUE(cold[i].solved()) << "point " << i << ": " << cold[i].note;
    EXPECT_TRUE(warm[i].certificate.pass) << warm[i].certificate.summary();
    EXPECT_NEAR(warm[i].capacity_fraction, cold[i].capacity_fraction, 1e-8) << "point " << i;
  }
  // Every point after the chain head gets a warm basis, and the sweep is
  // only worth shipping if those bases are actually adopted.
  EXPECT_EQ(d.adopted() + d.rejected, static_cast<std::int64_t>(grid.size()) - 1);
  EXPECT_GT(d.adopted(), 0);
  EXPECT_GT(d.phase1_skipped, 0);
}

TEST(WarmStart, ParallelSweepBitwiseMatchesSerial) {
  const Torus torus(4);
  const std::vector<double> grid = locality_grid(1.0, 2.0, 7);
  SweepConfig cfg;
  cfg.warm_start = true;
  cfg.chains = 2;  // fixed partition -> identical warm seeds either way

  const auto serial = worst_case_tradeoff(torus, grid, {}, nullptr, cfg);
  ThreadPool pool(3);
  const auto parallel = worst_case_tradeoff(torus, grid, {}, &pool, cfg);

  ASSERT_EQ(serial.size(), parallel.size());
  for (std::size_t i = 0; i < serial.size(); ++i) {
    EXPECT_EQ(serial[i].status, parallel[i].status) << "point " << i;
    // Bitwise: the same chain partition must run the same pivot sequence.
    EXPECT_EQ(std::memcmp(&serial[i].capacity_fraction, &parallel[i].capacity_fraction,
                          sizeof(double)),
              0)
        << "point " << i << ": " << serial[i].capacity_fraction << " vs "
        << parallel[i].capacity_fraction;
    EXPECT_EQ(serial[i].locality, parallel[i].locality) << "point " << i;
  }
}

TEST(WarmStart, UnsolvablePointIsNaNAndChainSurvives) {
  const Torus torus(4);
  // 0.5 is below the minimal normalized locality of 1.0 -> infeasible; the
  // rest of the chain must still reach certified optima off a cold restart.
  const std::vector<double> grid = {0.5, 1.0, 1.5, 2.0};
  SweepConfig cfg;
  cfg.warm_start = true;
  cfg.chains = 1;
  const auto pts = worst_case_tradeoff(torus, grid, {}, nullptr, cfg);
  ASSERT_EQ(pts.size(), grid.size());
  EXPECT_FALSE(pts[0].solved());
  EXPECT_TRUE(std::isnan(pts[0].capacity_fraction));
  for (std::size_t i = 1; i < pts.size(); ++i) {
    ASSERT_TRUE(pts[i].solved()) << "point " << i << ": " << pts[i].note;
    EXPECT_TRUE(pts[i].certificate.pass) << pts[i].certificate.summary();
    EXPECT_FALSE(std::isnan(pts[i].capacity_fraction));
  }
}

// The accounting invariant across a mixed population of adoption paths:
// pristine optimal bases (accepted), rhs-edited bases (dual reoptimization
// or repair), and assorted garbage (rejected). Every lp::solve with a warm
// basis must bump attempts exactly once and commit exactly one outcome.
TEST(WarmStart, AttemptsAlwaysEqualCommittedOutcomes) {
  Rng rng(2024);
  SimplexOptions opt;
  const WarmCounters start = WarmCounters::snap();
  int solves = 0;
  for (int trial = 0; trial < 300; ++trial) {
    opt.seed = 700 + trial;
    Model m = random_model(rng, 3 + static_cast<int>(rng.below(8)),
                           3 + static_cast<int>(rng.below(10)));
    const Solution cold = solve(m, opt);
    if (cold.status != Status::Optimal) continue;

    Basis warm = cold.basis;
    const double r = rng.uniform();
    const char* what = "pristine";
    if (r < 0.35) {
      // rhs edit: the dual-reoptimization path.
      const int row = static_cast<int>(rng.below(m.num_rows()));
      m.set_rhs(row, m.rhs(row) + rng.uniform(-1.0, 1.0));
      what = "rhs edit";
    } else if (r < 0.55) {
      // cost flip on top of an rhs edit: the dual screen must bounce it.
      const int row = static_cast<int>(rng.below(m.num_rows()));
      m.set_rhs(row, m.rhs(row) + rng.uniform(-1.0, 1.0));
      for (int j = 0; j < m.num_cols(); ++j) m.set_cost(j, -m.cost(j));
      what = "rhs + cost flip";
    } else if (r < 0.7) {
      // Garbage status bytes.
      for (std::size_t j = 0; j < warm.stat.size(); j += 2) warm.stat[j] = 31;
      what = "junk stat";
    } else if (r < 0.8) {
      warm.basic.assign(warm.basic.size(), 0);  // duplicate basic entries
      what = "duplicate basics";
    }
    const WarmCounters before = WarmCounters::snap();
    expect_warm_matches_cold(m, warm, opt, what);
    const WarmCounters d = WarmCounters::snap().delta_since(before);
    // One lp::solve = one adoption attempt (the recovery ladder may retry
    // on numerical failure, but these well-scaled models never need it).
    EXPECT_EQ(d.attempts, 1) << what << " trial " << trial;
    d.expect_balanced(what);
    ++solves;
  }
  ASSERT_GT(solves, 40);
  WarmCounters::snap().delta_since(start).expect_balanced("whole population");
}

// The sweep path: after a pure rhs edit the old optimal basis stays dual
// feasible, so the warm solve — with no word from the caller about which
// row moved — must route through the dual simplex (lp.dual.solves) and
// usually reoptimize without phase 1, and the answer must match a cold
// solve as the certificate demands.
TEST(DualRestart, RhsEditReoptimizesThroughDualPhase) {
  Rng rng(8888);
  SimplexOptions opt;
  int compared = 0;
  const DualCounters start = DualCounters::snap();
  for (int trial = 0; trial < 300; ++trial) {
    opt.seed = 2600 + trial;
    Model m = random_model(rng, 4 + static_cast<int>(rng.below(8)),
                           4 + static_cast<int>(rng.below(10)));
    const Solution base = solve(m, opt);
    if (base.status != Status::Optimal) continue;
    // Large edits so the old basic point usually leaves its bounds: a
    // gentle nudge is often still primal feasible and adopts without any
    // reoptimization, which would leave the dual phase untested.
    const int row = static_cast<int>(rng.below(m.num_rows()));
    m.set_rhs(row, m.rhs(row) + rng.uniform(2.0, 6.0) * (rng.uniform() < 0.5 ? -1.0 : 1.0));

    const WarmCounters before = WarmCounters::snap();
    expect_warm_matches_cold(m, base.basis, opt, "dual rhs-edit restart");
    WarmCounters::snap().delta_since(before).expect_balanced("dual restart");
    ++compared;
  }
  ASSERT_GT(compared, 40);
  const DualCounters d = DualCounters::snap().delta_since(start);
  // The screen must route a healthy share of these restarts into the dual
  // phase, and most dual runs must finish there (reoptimized), not fall back.
  EXPECT_GT(d.solves, compared / 8) << "dual phase barely engaged";
  EXPECT_GT(d.reoptimized, 0);
  EXPECT_GE(d.solves, d.reoptimized + d.fallbacks);
}

// A dual-infeasible warm basis (rhs edit plus a cost flip) must be caught by
// the dual-feasibility screen — counted in lp.dual.infeasible_bases, not
// launched into the dual phase — and still reproduce the cold answer through
// the ordinary adoption ladder.
TEST(DualRestart, DualInfeasibleBasisIsScreenedOut) {
  Rng rng(31337);
  SimplexOptions opt;
  int compared = 0;
  const DualCounters start = DualCounters::snap();
  for (int trial = 0; trial < 250; ++trial) {
    opt.seed = 4100 + trial;
    Model m = random_model(rng, 4 + static_cast<int>(rng.below(7)),
                           4 + static_cast<int>(rng.below(9)));
    const Solution base = solve(m, opt);
    if (base.status != Status::Optimal) continue;
    const int row = static_cast<int>(rng.below(m.num_rows()));
    m.set_rhs(row, m.rhs(row) + rng.uniform(-2.0, 2.0));
    // Invert the objective: the old reduced costs change sign, so the basis
    // is (near-)certainly dual infeasible while structurally fine.
    for (int j = 0; j < m.num_cols(); ++j) m.set_cost(j, -m.cost(j));

    const WarmCounters before = WarmCounters::snap();
    expect_warm_matches_cold(m, base.basis, opt, "dual-infeasible basis");
    const WarmCounters d = WarmCounters::snap().delta_since(before);
    EXPECT_EQ(d.attempts, 1) << "trial " << trial;
    d.expect_balanced("dual-infeasible basis");
    ++compared;
  }
  ASSERT_GT(compared, 25);
  const DualCounters d = DualCounters::snap().delta_since(start);
  EXPECT_GT(d.infeasible_bases, 0) << "screen never fired";
  // Screened bases never launch the dual phase, so dual activity in this
  // window is bounded by the (rare) flips that happen to stay dual feasible.
  EXPECT_LT(d.solves, compared / 4) << "screen let too many flipped bases through";
}

// Sweep-level contract of the dual restarts: the warm chain must agree with
// the cold chain to near machine precision and engage the dual phase on the
// post-head points.
TEST(DualRestart, SweepDualRestartsMatchColdTightly) {
  const Torus torus(4);
  const std::vector<double> grid = locality_grid(1.0, 2.0, 6);
  SweepConfig warm_cfg;
  warm_cfg.warm_start = true;
  warm_cfg.chains = 1;
  SweepConfig cold_cfg = warm_cfg;
  cold_cfg.warm_start = false;

  const DualCounters before = DualCounters::snap();
  const auto warm = worst_case_tradeoff(torus, grid, {}, nullptr, warm_cfg);
  const DualCounters d = DualCounters::snap().delta_since(before);
  const auto cold = worst_case_tradeoff(torus, grid, {}, nullptr, cold_cfg);

  ASSERT_EQ(warm.size(), grid.size());
  for (std::size_t i = 0; i < grid.size(); ++i) {
    ASSERT_TRUE(warm[i].solved()) << "point " << i << ": " << warm[i].note;
    ASSERT_TRUE(cold[i].solved()) << "point " << i;
    EXPECT_TRUE(warm[i].certificate.pass) << warm[i].certificate.summary();
    // ISSUE tolerance: dual-restarted sweep objectives equal cold to 5e-15.
    EXPECT_NEAR(warm[i].capacity_fraction, cold[i].capacity_fraction,
                5e-15 * (1 + std::abs(cold[i].capacity_fraction)))
        << "point " << i;
  }
  // Post-head points carry a dual-feasible rhs-edited basis; the phase must
  // actually engage and carry most of them to optimality.
  EXPECT_GT(d.solves, 0);
  EXPECT_GT(d.reoptimized, 0);
}

// Parallel chains with the dual phase active must stay bitwise-deterministic
// (same partition -> same pivot sequence on every worker).
TEST(DualRestart, ParallelDualSweepBitwiseMatchesSerial) {
  const Torus torus(4);
  const std::vector<double> grid = locality_grid(1.0, 2.0, 7);
  SweepConfig cfg;
  cfg.warm_start = true;
  cfg.chains = 2;

  const auto serial = worst_case_tradeoff(torus, grid, {}, nullptr, cfg);
  ThreadPool pool(3);
  const auto parallel = worst_case_tradeoff(torus, grid, {}, &pool, cfg);

  ASSERT_EQ(serial.size(), parallel.size());
  for (std::size_t i = 0; i < serial.size(); ++i) {
    EXPECT_EQ(serial[i].status, parallel[i].status) << "point " << i;
    EXPECT_EQ(std::memcmp(&serial[i].capacity_fraction, &parallel[i].capacity_fraction,
                          sizeof(double)),
              0)
        << "point " << i;
  }
}

// ---- lp::Solver: the LU carried between in-place edits ----------------

std::int64_t counter(const char* name) { return obs::Registry::instance().counter(name).value(); }

bool same_bits(const std::vector<double>& a, const std::vector<double>& b) {
  return a.size() == b.size() &&
         (a.empty() || std::memcmp(a.data(), b.data(), a.size() * sizeof(double)) == 0);
}

bool same_bits(double a, double b) { return std::memcmp(&a, &b, sizeof(double)) == 0; }

void expect_same_basis(const Basis& a, const Basis& b, const std::string& what) {
  EXPECT_EQ(a.basic, b.basic) << what;
  EXPECT_EQ(a.stat, b.stat) << what;
}

void expect_same_solution(const Solution& a, const Solution& b, const std::string& what) {
  EXPECT_EQ(a.status, b.status) << what;
  EXPECT_TRUE(same_bits(a.objective, b.objective)) << what << ": " << a.objective << " vs "
                                                   << b.objective;
  EXPECT_TRUE(same_bits(a.x, b.x)) << what;
  EXPECT_TRUE(same_bits(a.duals, b.duals)) << what;
  EXPECT_TRUE(same_bits(a.reduced, b.reduced)) << what;
  EXPECT_EQ(a.iterations, b.iterations) << what;
  EXPECT_EQ(a.dual_iterations, b.dual_iterations) << what;
  EXPECT_EQ(a.warm_start, b.warm_start) << what;
  expect_same_basis(a.basis, b.basis, what);
}

void expect_design_matches(const DesignResult& d, const Solution& s, const std::string& what) {
  EXPECT_EQ(d.status, s.status) << what;
  EXPECT_TRUE(same_bits(d.objective, s.objective)) << what;
  EXPECT_EQ(d.iterations, s.iterations) << what;
  EXPECT_EQ(d.dual_iterations, s.dual_iterations) << what;
  EXPECT_EQ(d.warm_start, s.warm_start) << what;
  expect_same_basis(d.basis, s.basis, what);
}

// One warm locality sweep walked three ways from the same bases: through
// the design (its own Solver), through a standalone Solver on a copy of the
// model edited with set_rhs, and through one-shot lp::solve. All three must
// agree bit for bit, and both Solvers must reuse their LU at every point
// after the first.
void expect_sweep_matches_one_shot(const Torus& torus, SymmetricDesignConfig cfg,
                                   const std::vector<double>& grid, const std::string& what) {
  const double hmin = torus.mean_min_distance();
  cfg.locality_equals = grid[0] * hmin;
  cfg.locality_le = true;
  SymmetricArcDesign design(torus, cfg);
  Model m = design.model();
  const CrashHints hints = design.flow_crash_hints();
  Solver solver;
  Basis warm;
  const std::int64_t reuses0 = counter("lp.simplex.factor_reuses");
  for (std::size_t i = 0; i < grid.size(); ++i) {
    const std::string at = what + " point " + std::to_string(i);
    design.set_locality_bound(grid[i] * hmin);
    for (int r = 0; r < m.num_rows(); ++r) m.set_rhs(r, design.model().rhs(r));
    const Basis* w = warm.empty() ? nullptr : &warm;

    const Solution one_shot = solve(m, {}, w, &hints);
    ASSERT_EQ(one_shot.status, Status::Optimal) << at << ": " << one_shot.note;
    EXPECT_TRUE(one_shot.certificate.pass) << at << ": " << one_shot.certificate.summary();
    if (w != nullptr) {
      EXPECT_EQ(one_shot.warm_start, "accepted") << at;
    }
    expect_same_solution(solver.solve(m, {}, w, &hints), one_shot, at + " (Solver)");
    expect_design_matches(design.solve({}, w), one_shot, at + " (design)");
    warm = one_shot.basis;
  }
  EXPECT_EQ(counter("lp.simplex.factor_reuses") - reuses0,
            2 * static_cast<std::int64_t>(grid.size() - 1))
      << what;
}

TEST(SolverReuse, WarmSweepsMatchOneShotSolvesBitwise) {
  const std::vector<double> grid = {1.2, 1.45, 1.7, 1.95, 1.6};
  for (const int k : {4, 5}) {
    expect_sweep_matches_one_shot(Torus(k), {}, grid, "worst case k=" + std::to_string(k));
  }
  const Torus torus(4);
  Rng rng(515);
  SymmetricDesignConfig avg;
  avg.objective = DesignObjective::AverageCase;
  for (int s = 0; s < 3; ++s) avg.samples.push_back(rng.permutation(torus.num_nodes()));
  expect_sweep_matches_one_shot(torus, avg, grid, "average case k=4");
}

// The factorizations the retained LU saves: the one that adopts the warm
// basis and the one extraction used to make. Re-solving an unchanged model
// from its own optimum needs none at all; an rhs-edit point keeps only the
// factorizations of its dual pivot loop.
TEST(SolverReuse, WarmRhsEditPointSkipsTwoFactorizations) {
  const Torus torus(4);
  const double hmin = torus.mean_min_distance();
  SymmetricDesignConfig cfg;
  cfg.locality_equals = 1.3 * hmin;
  cfg.locality_le = true;
  SymmetricArcDesign design(torus, cfg);
  const DesignResult head = design.solve();
  ASSERT_EQ(head.status, Status::Optimal);

  std::int64_t before = counter("lp.simplex.refactorizations");
  const DesignResult same = design.solve({}, &head.basis);
  ASSERT_EQ(same.status, Status::Optimal);
  EXPECT_EQ(counter("lp.simplex.refactorizations") - before, 0)
      << "re-solve from the retained optimum (2 before the Solver kept its LU)";

  design.set_locality_bound(1.5 * hmin);
  before = counter("lp.simplex.refactorizations");
  const Solution one_shot = solve(design.model(), {}, &same.basis, &design.flow_crash_hints());
  const std::int64_t one_shot_refactors = counter("lp.simplex.refactorizations") - before;
  before = counter("lp.simplex.refactorizations");
  const DesignResult edited = design.solve({}, &same.basis);
  const std::int64_t reused_refactors = counter("lp.simplex.refactorizations") - before;
  ASSERT_EQ(edited.status, Status::Optimal);
  EXPECT_GT(edited.dual_iterations, 0);
  EXPECT_EQ(edited.iterations, one_shot.iterations);
  // 4 before the Solver kept its LU: adoption, two in the dual loop (one
  // refactor_every flush, one confirmation), extraction.
  EXPECT_EQ(reused_refactors, 2);
  EXPECT_EQ(one_shot_refactors - reused_refactors, 1) << "the adoption factorization";
}

// The reuse rule refuses a retained LU whenever it may not factor the new
// basis matrix: after an appended cut row, after an rhs edit that turns a
// row's starting slack into an artificial column, and for a warm basis that
// is not the retained one. Each refused solve equals a fresh one.
TEST(SolverReuse, RefusedWhenTheMatrixOrTheBasisChanged) {
  // An appended cut row.
  {
    const Torus torus(3);
    SymmetricDesignConfig cfg;
    cfg.worst_case_exact_block = false;
    SymmetricArcDesign design(torus, cfg);
    Rng rng(77);
    design.add_cut(rng.permutation(torus.num_nodes()));
    const DesignResult first = design.solve();
    ASSERT_EQ(first.status, Status::Optimal);
    design.add_cut(rng.permutation(torus.num_nodes()));
    const std::int64_t reuses0 = counter("lp.simplex.factor_reuses");
    const Solution fresh = solve(design.model(), {}, &first.basis, &design.flow_crash_hints());
    expect_design_matches(design.solve({}, &first.basis), fresh, "after add_cut");
    EXPECT_EQ(counter("lp.simplex.factor_reuses"), reuses0) << "after add_cut";
  }

  // min x + y  s.t.  x + y >= b,  x - y <= 3,  0 <= x, y <= 10. With b <= 0
  // the GE row starts on its slack; with b > 0 it needs an artificial.
  Model m;
  const int x = m.add_col(0, 10, 1);
  const int y = m.add_col(0, 10, 1);
  m.add_row(RowType::GE, -1, {{x, 1.0}, {y, 1.0}});
  m.add_row(RowType::LE, 3, {{x, 1.0}, {y, -1.0}});
  Solver solver;
  const Solution at_minus1 = solver.solve(m);
  ASSERT_EQ(at_minus1.status, Status::Optimal);

  m.set_rhs(0, -0.5);  // same layout: the LU carries over
  std::int64_t reuses0 = counter("lp.simplex.factor_reuses");
  const Solution kept = solver.solve(m, {}, &at_minus1.basis);
  expect_same_solution(kept, solve(m, {}, &at_minus1.basis), "layout kept");
  EXPECT_EQ(counter("lp.simplex.factor_reuses") - reuses0, 1) << "layout kept";

  m.set_rhs(0, 2.0);  // the slack start flips to an artificial
  reuses0 = counter("lp.simplex.factor_reuses");
  const Solution flipped = solver.solve(m, {}, &kept.basis);
  ASSERT_EQ(flipped.status, Status::Optimal);
  EXPECT_NEAR(flipped.objective, 2.0, 1e-9);
  expect_same_solution(flipped, solve(m, {}, &kept.basis), "layout flipped");
  EXPECT_EQ(counter("lp.simplex.factor_reuses"), reuses0) << "layout flipped";

  // A warm basis from elsewhere, e.g. a checkpoint journal.
  const Torus torus(4);
  const double hmin = torus.mean_min_distance();
  SymmetricDesignConfig cfg;
  cfg.locality_equals = 1.3 * hmin;
  cfg.locality_le = true;
  SymmetricArcDesign design(torus, cfg);
  const DesignResult retained = design.solve();
  ASSERT_EQ(retained.status, Status::Optimal);
  Model other = design.model();
  design.set_locality_bound(1.9 * hmin);
  for (int r = 0; r < other.num_rows(); ++r) other.set_rhs(r, design.model().rhs(r));
  const Solution foreign = solve(other);
  ASSERT_EQ(foreign.status, Status::Optimal);
  ASSERT_NE(foreign.basis.basic, retained.basis.basic);
  design.set_locality_bound(1.6 * hmin);
  reuses0 = counter("lp.simplex.factor_reuses");
  const Solution fresh = solve(design.model(), {}, &foreign.basis, &design.flow_crash_hints());
  expect_design_matches(design.solve({}, &foreign.basis), fresh, "foreign basis");
  EXPECT_EQ(counter("lp.simplex.factor_reuses"), reuses0) << "foreign basis";
}

}  // namespace
}  // namespace tcr::lp
