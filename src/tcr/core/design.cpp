#include "tcr/core/design.hpp"

#include <set>

#include "tcr/core/lexicographic.hpp"
#include "tcr/graph/symmetry.hpp"
#include "tcr/lp/certify.hpp"
#include "tcr/matching/hungarian.hpp"
#include "tcr/trace/tracer.hpp"
#include "tcr/traffic/patterns.hpp"
#include "tcr/util/check.hpp"

namespace tcr {

double capacity_design_load(const Torus& torus, const lp::SimplexOptions& opts) {
  SymmetricDesignConfig cfg;
  cfg.objective = DesignObjective::Uniform;
  SymmetricArcDesign design(torus, cfg);
  const DesignResult res = design.solve(opts);
  TCR_REQUIRE(res.status == lp::Status::Optimal,
              std::string("capacity LP did not solve: ") + lp::to_string(res.status));
  return res.objective;
}

CuttingPlaneResult design_worst_case_cutting_plane(const Torus& torus,
                                                   const lp::SimplexOptions& opts,
                                                   int max_rounds, double tol) {
  const int n = torus.num_nodes(), nc = torus.num_channels();
  const int c0 = torus.channel(0, Dir::PX);
  const TorusSymmetry sym(torus);
  CuttingPlaneResult out;
  std::set<std::vector<int>> seen;
  // One relaxation model for the whole run: every round appends its cuts.
  SymmetricDesignConfig cfg;
  cfg.worst_case_exact_block = false;
  SymmetricArcDesign design(torus, std::move(cfg));

  // A violated permutation pi stays a valid (and distinct) cut under
  // conjugation by every torus automorphism a: gamma_{c0}(R, a pi a^-1)
  // equals the load of pi on the channel a^-1(c0), which the relaxation
  // must also bound. Adding the whole orbit (up to 8N cuts) instead of one
  // cut per round is what makes the method converge in a few rounds.
  auto add_orbit = [&](const std::vector<int>& pi) {
    for (int g = 0; g < TorusSymmetry::kOrder; ++g) {
      for (int t = 0; t < n; ++t) {
        std::vector<int> img(n);
        for (int s = 0; s < n; ++s) {
          // a = translation-by-t after dihedral g; img = a . pi . a^-1.
          const int a_s = torus.translate_node(sym.map_node(g, s), t);
          const int a_pis = torus.translate_node(sym.map_node(g, pi[s]), t);
          img[a_s] = a_pis;
        }
        if (seen.insert(img).second) {
          design.add_cut(img);
          out.cuts.push_back(std::move(img));
        }
      }
    }
  };
  add_orbit(tornado_permutation(torus));  // cheap warm start

  for (out.rounds = 1; out.rounds <= max_rounds; ++out.rounds) {
    trace::Span round_span("design.cutting_plane.round");
    round_span.attr("round", out.rounds);
    round_span.attr("cuts", static_cast<std::int64_t>(out.cuts.size()));
    const DesignResult res = design.solve(opts);
    out.certificate = out.rounds == 1
                          ? res.certificate
                          : lp::worse_certificate(out.certificate, res.certificate);
    if (res.status != lp::Status::Optimal) {
      out.status = res.status;
      return out;
    }
    out.objective = res.objective;
    out.total_iterations += res.iterations;

    // Separation: exact worst permutation for the representative channel
    // via a max-weight matching on the current flows.
    const auto& flows = design.flows();
    DenseMatrix w(n, n);
    for (int s = 0; s < n; ++s) {
      const int ct = torus.translate_channel(c0, torus.negate_node(s));
      for (int d = 0; d < n; ++d) {
        const int e = torus.offset(s, d);
        w(s, d) = (e == 0) ? 0.0 : flows[(e - 1) * nc + ct];
      }
    }
    const AssignmentResult worst = solve_assignment_max(w);
    if (worst.value <= res.objective * (1.0 + tol) + tol) {
      out.status = lp::Status::Optimal;
      return out;  // no violated permutation: the relaxation is exact
    }
    add_orbit(worst.assignment);
  }
  out.status = lp::Status::IterationLimit;
  return out;
}

OptimalDesign design_worst_case_optimal(const Torus& torus, const lp::SimplexOptions& opts) {
  SymmetricArcDesign design(torus, SymmetricDesignConfig{});
  return detail::lexicographic(torus, design, "WC-OPT", opts);
}

OptimalDesign design_average_case_optimal(const Torus& torus,
                                          const std::vector<std::vector<int>>& samples,
                                          const lp::SimplexOptions& opts) {
  SymmetricDesignConfig cfg;
  cfg.objective = DesignObjective::AverageCase;
  cfg.samples = samples;
  SymmetricArcDesign design(torus, std::move(cfg));
  return detail::lexicographic(torus, design, "AVG-OPT", opts);
}

}  // namespace tcr
