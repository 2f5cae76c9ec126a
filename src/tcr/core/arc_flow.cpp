#include "tcr/core/arc_flow.hpp"

#include <algorithm>
#include <cmath>

#include "tcr/core/lexicographic.hpp"
#include "tcr/graph/symmetry.hpp"
#include "tcr/lp/maxflow.hpp"
#include "tcr/obs/registry.hpp"
#include "tcr/routing/general.hpp"
#include "tcr/trace/tracer.hpp"
#include "tcr/util/check.hpp"

namespace tcr {

using lp::Model;
using lp::RowType;

namespace {

// Design-pipeline metrics (resolved once; references are stable).
struct DesignMetrics {
  obs::Counter& solves = obs::Registry::instance().counter("core.design.solves");
  obs::Gauge& rows = obs::Registry::instance().gauge("core.design.rows");
  obs::Gauge& cols = obs::Registry::instance().gauge("core.design.cols");
  obs::Gauge& nnz = obs::Registry::instance().gauge("core.design.nnz");
  // Flow-variable count with and without the dihedral/translation folding —
  // the "size before/after symmetry reduction" of §4.
  obs::Gauge& flow_vars = obs::Registry::instance().gauge("core.design.flow_vars");
  obs::Gauge& flow_vars_unfolded =
      obs::Registry::instance().gauge("core.design.flow_vars_unfolded");
  obs::Gauge& last_objective = obs::Registry::instance().gauge("core.design.last_objective");
  // Rows covered by the flow crash basis (flow_crash_hints()): how much of
  // the model starts on combinatorial columns instead of slacks/artificials.
  obs::Gauge& crash_hints = obs::Registry::instance().gauge("core.design.crash_hints");
  // Objective trajectory across the solves of a pipeline stage (lexicographic
  // stages, cutting-plane rounds, tradeoff sweeps): the snapshot reports
  // count/min/max/percentiles of all objectives seen since the last reset.
  obs::Histogram& objectives =
      obs::Registry::instance().histogram("core.design.objective", 1e-3, 1.1);
  obs::Timer& t_build = obs::Registry::instance().timer("core.design.time.build");
  obs::Timer& t_solve = obs::Registry::instance().timer("core.design.time.solve");
  obs::Timer& t_decompose = obs::Registry::instance().timer("core.design.time.decompose");

  static DesignMetrics& get() {
    static DesignMetrics m;
    return m;
  }
};

}  // namespace

SymmetricArcDesign::SymmetricArcDesign(const Torus& torus, SymmetricDesignConfig config)
    : torus_(torus), config_(std::move(config)) {
  auto& met = DesignMetrics::get();
  {
    obs::ScopedTimer t(met.t_build);
    build_orbits();
    for (int v = 0; v < num_flow_vars_; ++v) model_.add_col(0.0, lp::kInf, 0.0);
    add_flow_conservation();
    switch (config_.objective) {
      case DesignObjective::WorstCase: add_worst_case_block(); break;
      case DesignObjective::Uniform: add_uniform_block(); break;
      case DesignObjective::AverageCase: add_average_block(); break;
    }
    if (config_.locality_equals >= 0.0) add_locality_row();
  }
  met.flow_vars.set(num_flow_vars_);
  met.flow_vars_unfolded.set(static_cast<double>(torus_.num_nodes() - 1) *
                             torus_.num_channels());
}

void SymmetricArcDesign::build_orbits() {
  const int n = torus_.num_nodes(), nc = torus_.num_channels();
  var_of_.assign(static_cast<std::size_t>(n - 1) * nc, -1);
  orbit_size_.clear();
  dir_count_.clear();
  rep_commodities_.clear();
  num_flow_vars_ = 0;

  if (!config_.fold_dihedral) {
    for (int e = 1; e < n; ++e) {
      rep_commodities_.push_back(e);
      for (int c = 0; c < nc; ++c) {
        var_of_[(e - 1) * nc + c] = num_flow_vars_++;
        orbit_size_.push_back(1.0);
        std::array<double, 4> dc{0, 0, 0, 0};
        dc[c % kNumDirs] = 1.0;
        dir_count_.push_back(dc);
      }
    }
    return;
  }

  const TorusSymmetry sym(torus_);
  for (int e = 1; e < n; ++e) {
    if (sym.node_rep(e) == e) rep_commodities_.push_back(e);
  }
  for (int e = 1; e < n; ++e) {
    for (int c = 0; c < nc; ++c) {
      if (var_of_[(e - 1) * nc + c] >= 0) continue;
      const int v = num_flow_vars_++;
      orbit_size_.push_back(0.0);
      dir_count_.push_back({0, 0, 0, 0});
      // Walk the orbit, assigning every distinct member to this variable.
      for (int g = 0; g < TorusSymmetry::kOrder; ++g) {
        const int eg = sym.map_node(g, e);
        const int cg = sym.map_channel(g, c);
        auto& slot = var_of_[(eg - 1) * nc + cg];
        if (slot < 0) {
          slot = v;
          orbit_size_[v] += 1.0;
          dir_count_[v][cg % kNumDirs] += 1.0;
        }
      }
    }
  }
}

void SymmetricArcDesign::add_flow_conservation() {
  const int n = torus_.num_nodes();
  cons_row_base_ = model_.num_rows();
  for (int e : rep_commodities_) {
    for (int nd = 0; nd < n; ++nd) {
      const double rhs = (nd == e) ? 1.0 : (nd == 0 ? -1.0 : 0.0);
      const int row = model_.add_row(RowType::EQ, rhs);
      for (int dir = 0; dir < kNumDirs; ++dir) {
        const Dir d = static_cast<Dir>(dir);
        // Out-channel of nd in direction d.
        model_.add_term(row, flow_var(e, torus_.channel(nd, d)), -1.0);
        // In-channel: the same-direction channel of the opposite neighbor.
        const Dir opp = static_cast<Dir>(dir ^ 1);  // PX<->NX, PY<->NY
        model_.add_term(row, flow_var(e, torus_.channel(torus_.neighbor(nd, opp), d)), 1.0);
      }
    }
  }
}

void SymmetricArcDesign::add_worst_case_block() {
  obj_col_ = model_.add_col(0.0, lp::kInf, 1.0);
  if (!config_.worst_case_exact_block) {
    // Cutting-plane relaxation: add_cut() appends one row per adversarial
    // permutation on the representative channel; folding makes the
    // direction classes equivalent — require it.
    TCR_REQUIRE(config_.fold_dihedral,
                "cut-based worst case requires the dihedral fold (one rep channel)");
    return;
  }

  // With the dihedral fold the four direction classes are equivalent, so a
  // single representative channel suffices; otherwise one per class.
  const int num_blocks = config_.fold_dihedral ? 1 : kNumDirs;
  for (int dir = 0; dir < num_blocks; ++dir) {
    const int c0 = torus_.channel(0, static_cast<Dir>(dir));
    wc_blocks_.push_back(detail::add_matching_dual_block(
        model_, torus_.num_nodes(), obj_col_, 1.0, [&](int row, int s, int d) {
          if (const int v = pair_flow_var(s, d, c0); v >= 0) model_.add_term(row, v, 1.0);
        }));
  }
}

void SymmetricArcDesign::add_uniform_block() {
  obj_col_ = model_.add_col(0.0, lp::kInf, 1.0);
  const int num_blocks = config_.fold_dihedral ? 1 : kNumDirs;
  for (int dir = 0; dir < num_blocks; ++dir) {
    const int row = model_.add_row(RowType::LE, 0.0);
    uni_rows_.push_back(row);
    for (int v = 0; v < num_flow_vars_; ++v) {
      if (dir_count_[v][dir] != 0.0) model_.add_term(row, v, dir_count_[v][dir]);
    }
    model_.add_term(row, obj_col_, -static_cast<double>(torus_.num_nodes()));
  }
}

void SymmetricArcDesign::add_average_block() {
  samples_ = detail::add_sample_blocks(
      model_, torus_, config_.samples, [&](int row_base, const std::vector<int>& perm) {
        for (int c = 0; c < torus_.num_channels(); ++c) add_permutation_load(row_base + c, c, perm);
      });
}

int SymmetricArcDesign::pair_flow_var(int s, int d, int c) const {
  const int e = torus_.offset(s, d);
  return e == 0 ? -1 : flow_var(e, torus_.translate_channel(c, torus_.negate_node(s)));
}

void SymmetricArcDesign::add_permutation_load(int row, int c, const std::vector<int>& perm) {
  for (int s = 0; s < torus_.num_nodes(); ++s) {
    if (const int v = pair_flow_var(s, perm[s], c); v >= 0) model_.add_term(row, v, 1.0);
  }
}

void SymmetricArcDesign::add_locality_row() {
  const int n = torus_.num_nodes(), nc = torus_.num_channels();
  const int row = model_.add_row(config_.locality_le ? RowType::LE : RowType::EQ,
                                 config_.locality_equals * n);
  for (int e = 1; e < n; ++e) {
    for (int c = 0; c < nc; ++c) model_.add_term(row, flow_var(e, c), 1.0);
  }
  locality_row_ = row;
}

void SymmetricArcDesign::set_locality_bound(double locality_equals) {
  TCR_REQUIRE(locality_row_ >= 0,
              "design has no locality row; construct with locality_equals >= 0");
  TCR_REQUIRE(locality_equals >= 0.0, "locality bound must be nonnegative");
  config_.locality_equals = locality_equals;
  model_.set_rhs(locality_row_, locality_equals * torus_.num_nodes());
}

void SymmetricArcDesign::minimize_locality_within(double cap) {
  TCR_REQUIRE(cap >= 0.0, "throughput cap must be nonnegative");
  const int n = torus_.num_nodes();
  for (int v = 0; v < num_flow_vars_; ++v) model_.set_cost(v, orbit_size_[v] / n);
  if (config_.objective == DesignObjective::AverageCase) {
    detail::cap_sample_mean(model_, samples_, cap);
  } else {
    model_.set_cost(obj_col_, 0.0);
    model_.set_upper(obj_col_, cap);
  }
}

void SymmetricArcDesign::add_cut(const std::vector<int>& perm) {
  TCR_REQUIRE(config_.objective == DesignObjective::WorstCase && !config_.worst_case_exact_block,
              "cuts need a worst-case design with worst_case_exact_block == false");
  detail::check_permutation(torus_, perm);
  const int row = model_.add_row(RowType::LE, 0.0);
  if (first_cut_row_ < 0) first_cut_row_ = row;
  add_permutation_load(row, torus_.channel(0, Dir::PX), perm);
  model_.add_term(row, obj_col_, -1.0);
}

const lp::CrashHints& SymmetricArcDesign::flow_crash_hints() {
  auto& hints = crash_hints_.basic_of_row;
  if (!hints.empty()) {
    hints.resize(static_cast<std::size_t>(model_.num_rows()), -1);
    return crash_hints_;
  }
  hints.assign(static_cast<std::size_t>(model_.num_rows()), -1);
  std::vector<char> used(static_cast<std::size_t>(model_.num_cols()), 0);
  auto take = [&](int row, int col) {
    if (col < 0 || used[static_cast<std::size_t>(col)]) return;
    hints[static_cast<std::size_t>(row)] = col;
    used[static_cast<std::size_t>(col)] = 1;
  };

  // Conservation rows: route each representative commodity along one
  // shortest 0 -> e path (Dinic, unit flow limit) and nominate the path's
  // flow variables as basic in the rows of the nodes the arcs enter. The
  // dihedral fold can map two path arcs (of this or an earlier commodity)
  // to the same variable; `used` keeps the first nomination and leaves the
  // later row on its crash column.
  const int n = torus_.num_nodes(), nc = torus_.num_channels();
  for (std::size_t r = 0; r < rep_commodities_.size(); ++r) {
    const int e = rep_commodities_[r];
    lp::MaxFlow mf(n);
    for (int c = 0; c < nc; ++c) {
      mf.add_arc(torus_.channel_src(c), torus_.channel_dst(c), 1.0);
    }
    if (mf.solve(0, e, 1.0) <= 0.0) continue;
    const auto paths = mf.decompose_paths(0, e);
    if (paths.empty()) continue;
    for (const int arc : paths.front()) {
      const int c = arc / 2;  // arcs were added in channel order
      take(cons_row_base_ + static_cast<int>(r) * n + torus_.channel_dst(c), flow_var(e, c));
    }
  }

  // Worst-case exact blocks: the free dual potentials want to be basic —
  // v_d in its first row (s = 0), u_s in its first row (d = 0; u_0 is fixed
  // at zero and stays nonbasic) — and w replaces the sum row's artificial.
  for (const auto& b : wc_blocks_) {
    for (int d = 0; d < n; ++d) take(b.row_base + d, b.v[d]);
    for (int s = 1; s < n; ++s) take(b.row_base + s * n, b.u[s]);
    take(b.sum_row, obj_col_);
  }
  if (first_cut_row_ >= 0) take(first_cut_row_, obj_col_);
  for (const int row : uni_rows_) take(row, obj_col_);
  for (std::size_t i = 0; i < samples_.row_base.size(); ++i)
    take(samples_.row_base[i], samples_.cols[i]);

  int covered = 0;
  for (const int col : hints) covered += (col >= 0);
  DesignMetrics::get().crash_hints.set(covered);
  return crash_hints_;
}

DesignResult SymmetricArcDesign::solve(const lp::SimplexOptions& opts,
                                       const lp::Basis* warm) {
  auto& met = DesignMetrics::get();
  met.solves.add(1);
  met.rows.set(model_.num_rows());
  met.cols.set(model_.num_cols());
  met.nnz.set(static_cast<double>(model_.num_terms()));
  lp::Solution sol;
  {
    trace::Span t("design.solve", met.t_solve);
    t.attr("rows", model_.num_rows());
    t.attr("cols", model_.num_cols());
    t.attr("nnz", static_cast<std::int64_t>(model_.num_terms()));
    sol = solver_.solve(model_, opts, warm, &flow_crash_hints());
    t.attr("status", lp::to_string(sol.status));
    t.attr("warm_start", sol.warm_start);
    t.attr("dual_iterations", static_cast<std::int64_t>(sol.dual_iterations));
  }
  double total = 0.0;
  if (sol.status == lp::Status::Optimal) {
    met.last_objective.set(sol.objective);
    met.objectives.record(sol.objective);
    const int n = torus_.num_nodes(), nc = torus_.num_channels();
    solution_flows_.resize(static_cast<std::size_t>(n - 1) * nc);
    for (int e = 1; e < n; ++e) {
      for (int c = 0; c < nc; ++c) {
        const double f = sol.x[flow_var(e, c)];
        solution_flows_[(e - 1) * nc + c] = f;
        total += f;
      }
    }
  }
  DesignResult res = detail::design_result(std::move(sol));
  res.avg_hops = total / torus_.num_nodes();
  return res;
}

TorusRouting SymmetricArcDesign::routing(const std::string& name) const {
  TCR_REQUIRE(!solution_flows_.empty(), "no stored solution; call solve() first");
  obs::ScopedTimer t(DesignMetrics::get().t_decompose);
  const int n = torus_.num_nodes(), nc = torus_.num_channels();
  TorusRouting r(torus_, name);
  // The torus digraph keeps the channel ids and each node's out-channel
  // order, so the flows index it directly and the paths match a walk of the
  // torus itself.
  const Digraph g = torus_.graph();
  for (int e = 1; e < n; ++e) {
    std::vector<double> flow(solution_flows_.begin() + (e - 1) * nc,
                             solution_flows_.begin() + e * nc);
    for (auto& wp : decompose_flow(g, 0, e, std::move(flow))) {
      r.add_path(e, std::move(wp.path), wp.weight);
    }
  }
  r.normalize();
  return r;
}

// ---------------------------------------------------------------------
// General (unreduced) formulations.

namespace {

struct GeneralVars {
  int n = 0, nc = 0;
  int flow_var(int s, int d, int c) const { return (s * n + d) * nc + c; }
};

void add_general_flows(const Digraph& g, Model& model, GeneralVars& vars) {
  vars.n = g.num_nodes();
  vars.nc = g.num_channels();
  for (int s = 0; s < vars.n; ++s) {
    for (int d = 0; d < vars.n; ++d) {
      for (int c = 0; c < vars.nc; ++c) {
        model.add_col(0.0, (s == d) ? 0.0 : lp::kInf, 0.0);
      }
    }
  }
  for (int s = 0; s < vars.n; ++s) {
    for (int d = 0; d < vars.n; ++d) {
      if (s == d) continue;
      for (int nd = 0; nd < vars.n; ++nd) {
        const double rhs = (nd == d) ? 1.0 : (nd == s ? -1.0 : 0.0);
        const int row = model.add_row(RowType::EQ, rhs);
        for (int c : g.in_channels(nd)) model.add_term(row, vars.flow_var(s, d, c), 1.0);
        for (int c : g.out_channels(nd)) model.add_term(row, vars.flow_var(s, d, c), -1.0);
      }
    }
  }
}

GeneralDesignResult solve_general(const Model& model, const GeneralVars& vars,
                                  const lp::SimplexOptions& opts) {
  const lp::Solution sol = lp::solve(model, opts);
  GeneralDesignResult res;
  res.status = sol.status;
  res.certificate = sol.certificate;
  if (sol.status != lp::Status::Optimal) return res;
  res.objective = sol.objective;
  res.flows.assign(vars.n * vars.n, std::vector<double>(vars.nc, 0.0));
  for (int s = 0; s < vars.n; ++s)
    for (int d = 0; d < vars.n; ++d)
      for (int c = 0; c < vars.nc; ++c)
        res.flows[s * vars.n + d][c] = sol.x[vars.flow_var(s, d, c)];
  return res;
}

}  // namespace

GeneralDesignResult general_capacity_design(const Digraph& g, const lp::SimplexOptions& opts) {
  Model model;
  GeneralVars vars;
  add_general_flows(g, model, vars);
  const int w = model.add_col(0.0, lp::kInf, 1.0);
  for (int c = 0; c < vars.nc; ++c) {
    const int row = model.add_row(RowType::LE, 0.0);
    for (int s = 0; s < vars.n; ++s) {
      for (int d = 0; d < vars.n; ++d) {
        if (s != d) model.add_term(row, vars.flow_var(s, d, c), 1.0 / vars.n);
      }
    }
    model.add_term(row, w, -g.channel(c).bandwidth);
  }
  return solve_general(model, vars, opts);
}

GeneralDesignResult general_worst_case_design(const Digraph& g, const lp::SimplexOptions& opts) {
  Model model;
  GeneralVars vars;
  add_general_flows(g, model, vars);
  const int w = model.add_col(0.0, lp::kInf, 1.0);
  for (int c = 0; c < vars.nc; ++c) {
    detail::add_matching_dual_block(model, vars.n, w, g.channel(c).bandwidth,
                                    [&](int row, int s, int d) {
                                      if (s != d) model.add_term(row, vars.flow_var(s, d, c), 1.0);
                                    });
  }
  return solve_general(model, vars, opts);
}

}  // namespace tcr
