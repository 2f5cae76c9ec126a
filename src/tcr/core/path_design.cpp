#include "tcr/core/path_design.hpp"

#include <cmath>
#include <map>
#include <utility>

#include "tcr/core/lexicographic.hpp"
#include "tcr/graph/symmetry.hpp"
#include "tcr/routing/two_turn.hpp"
#include "tcr/util/check.hpp"

namespace tcr {

namespace {

using lp::Model;
using lp::RowType;

// Path-weight LP over a fixed family, with variables tied across orbits of
// the dihedral point group (valid for the same reasons as in arc_flow.cpp;
// the candidate families are closed under the group). Built once for the
// throughput objective; minimize_locality_within() is the stage-2 edit.
class PathLP {
 public:
  PathLP(const Torus& torus, const PathFamily& family, const PathDesignConfig& config)
      : torus_(torus) {
    const int n = torus.num_nodes();
    const TorusSymmetry sym(torus);

    // Enumerate representative commodities' paths and tie orbits.
    by_commodity_.resize(n);
    std::map<std::pair<int, std::vector<int>>, int> var_of;
    int num_vars = 0;
    for (int e = 1; e < n; ++e) {
      if (sym.node_rep(e) != e) continue;
      for (const Path& p : family(torus, e)) {
        // Walk the orbit; create the variable on first contact.
        int v = -1;
        for (int g = 0; g < TorusSymmetry::kOrder; ++g) {
          const Path q = sym.map_path(g, p);
          auto [it, fresh] = var_of.try_emplace({q.dst, q.channels}, num_vars);
          if (fresh) {
            by_commodity_[q.dst].push_back({q, it->second});
            locality_cost_.resize(num_vars + 1, 0.0);  // total hops across the orbit
            locality_cost_[it->second] += q.length();
          }
          v = it->second;
        }
        if (v == num_vars) ++num_vars;
      }
    }
    for (int v = 0; v < num_vars; ++v) {
      locality_cost_[v] /= n;
      model_.add_col(0.0, lp::kInf, 0.0);
    }

    // Unit probability mass per representative commodity (eq. 1); the other
    // commodities' constraints are the same rows under the symmetry.
    for (int e = 1; e < n; ++e) {
      if (sym.node_rep(e) != e || by_commodity_[e].empty()) continue;
      const int row = model_.add_row(RowType::EQ, 1.0);
      for (const auto& [p, v] : by_commodity_[e]) model_.add_term(row, v, 1.0);
    }
    for (int e = 1; e < n; ++e) {
      TCR_REQUIRE(!by_commodity_[e].empty(), "path family must cover every offset");
    }

    if (config.objective == DesignObjective::WorstCase) {
      add_worst_case();
    } else {
      add_average(config.samples);
    }
  }

  DesignResult solve(const lp::SimplexOptions& opts, const lp::Basis* warm) {
    lp::Solution sol = solver_.solve(model_, opts, warm);
    double hops = 0.0;
    if (sol.status == lp::Status::Optimal) {
      x_ = std::move(sol.x);
      for (std::size_t v = 0; v < locality_cost_.size(); ++v) hops += locality_cost_[v] * x_[v];
    }
    DesignResult res = detail::design_result(std::move(sol));
    res.avg_hops = hops;
    return res;
  }

  void minimize_locality_within(double cap) {
    for (std::size_t v = 0; v < locality_cost_.size(); ++v)
      model_.set_cost(static_cast<int>(v), locality_cost_[v]);
    if (w_ >= 0) {
      model_.set_cost(w_, 0.0);
      model_.set_upper(w_, cap);
    } else {
      detail::cap_sample_mean(model_, samples_, cap);
    }
  }

  const Model& model() const { return model_; }

  TorusRouting routing(const std::string& name) const {
    TorusRouting r(torus_, name);
    for (int e = 1; e < torus_.num_nodes(); ++e) {
      for (const auto& [p, v] : by_commodity_[e]) {
        if (x_[v] > 1e-9) r.add_path(e, p, x_[v]);
      }
    }
    r.normalize();
    return r;
  }

 private:
  void add_worst_case() {
    w_ = model_.add_col(0.0, lp::kInf, 1.0);
    // One representative channel (+X at node 0); the fold makes the four
    // classes equivalent. A +X channel of a commodity-e path at node m
    // loads it for the pair (s = -m, d = s + e).
    detail::add_matching_dual_block(
        model_, torus_.num_nodes(), w_, 1.0, [&](int row, int s, int d) {
          const int e = torus_.offset(s, d);
          if (e == 0) return;
          const int m = torus_.negate_node(s);
          for (const auto& [p, pv] : by_commodity_[e]) {
            for (int c : p.channels) {
              if (torus_.channel_dir(c) == Dir::PX && torus_.channel_src(c) == m)
                model_.add_term(row, pv, 1.0);
            }
          }
        });
  }

  void add_average(const std::vector<std::vector<int>>& samples) {
    const int n = torus_.num_nodes();
    samples_ = detail::add_sample_blocks(
        model_, torus_, samples, [&](int row_base, const std::vector<int>& perm) {
          for (int s = 0; s < n; ++s) {
            const int e = torus_.offset(s, perm[s]);
            if (e == 0) continue;
            for (const auto& [p, pv] : by_commodity_[e]) {
              for (int c : p.channels) {
                model_.add_term(row_base + torus_.translate_channel(c, s), pv, 1.0);
              }
            }
          }
        });
  }

  const Torus& torus_;
  Model model_;
  lp::Solver solver_;  // solves model_, keeping its LU between edits
  // Every family path for every commodity, with its (orbit-folded) variable.
  std::vector<std::vector<std::pair<Path, int>>> by_commodity_;
  std::vector<double> locality_cost_;  // per variable: orbit hops / N
  int w_ = -1;                         // worst-case objective column
  detail::SampleBlocks samples_;       // average-case blocks
  std::vector<double> x_;              // last optimal solution
};

}  // namespace

PathDesignResult design_over_paths(const Torus& torus, const std::string& name,
                                   const PathFamily& family, const PathDesignConfig& config,
                                   const lp::SimplexOptions& opts) {
  TCR_REQUIRE(config.objective == DesignObjective::WorstCase ||
                  config.objective == DesignObjective::AverageCase,
              "path design optimizes worst-case or average-case throughput");
  PathLP lp(torus, family, config);
  return detail::lexicographic(torus, lp, name, opts, config.lexicographic_locality);
}

PathDesignResult design_two_turn(const Torus& torus, const lp::SimplexOptions& opts) {
  return design_over_paths(torus, "2TURN", enumerate_two_turn_paths,
                           {DesignObjective::WorstCase, {}, true}, opts);
}

PathDesignResult design_two_turn_avg(const Torus& torus,
                                     const std::vector<std::vector<int>>& samples,
                                     const lp::SimplexOptions& opts) {
  return design_over_paths(torus, "2TURNA", enumerate_two_turn_paths,
                           {DesignObjective::AverageCase, samples, true}, opts);
}

PathDesignResult design_minimal_avg(const Torus& torus,
                                    const std::vector<std::vector<int>>& samples,
                                    const lp::SimplexOptions& opts) {
  return design_over_paths(torus, "MIN-A", enumerate_minimal_paths,
                           {DesignObjective::AverageCase, samples, true}, opts);
}

}  // namespace tcr
