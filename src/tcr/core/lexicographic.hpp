// The lexicographic solve behind every "optimal" design of §5 (internal to
// tcr::core): stage 1 minimizes a design LP's throughput objective; stage 2
// edits the same model — locality costs on, the objective capped at the
// stage-1 optimum — and re-solves for the best H_avg at that throughput.
// Drives the arc-flow designs (design.cpp) and the path designs
// (path_design.cpp) alike.
#pragma once

#include <string>
#include <utility>

#include "tcr/core/design.hpp"
#include "tcr/lp/certify.hpp"
#include "tcr/trace/tracer.hpp"

namespace tcr::detail {

/// Solver outcome as a DesignResult; the caller fills avg_hops.
inline DesignResult design_result(lp::Solution&& sol) {
  DesignResult res;
  res.status = sol.status;
  if (sol.status == lp::Status::Optimal) res.objective = sol.objective;
  res.iterations = sol.iterations;
  res.dual_iterations = sol.dual_iterations;
  res.note = std::move(sol.note);
  res.certificate = std::move(sol.certificate);
  res.basis = std::move(sol.basis);
  res.warm_start = std::move(sol.warm_start);
  return res;
}

/// `Design` is a design LP built once and edited in place. It provides
///   DesignResult solve(const lp::SimplexOptions&, const lp::Basis* warm);
///   void minimize_locality_within(double cap);  // the stage-2 edit
///   TorusRouting routing(const std::string& name) const;  // last solve's
///   const lp::Model& model() const;
/// With `minimize_locality` false only stage 1 runs.
template <class Design>
OptimalDesign lexicographic(const Torus& torus, Design& design, const std::string& name,
                            const lp::SimplexOptions& opts, bool minimize_locality = true) {
  OptimalDesign out{.status = lp::Status::Numerical,
                    .objective = 0.0,
                    .avg_hops = 0.0,
                    .locality_norm = 0.0,
                    .note = {},
                    .certificate = {},
                    .routing = TorusRouting(torus, name)};
  DesignResult res;
  {
    trace::Span span("design.lexicographic.stage1");
    res = design.solve(opts, nullptr);
    span.attr("status", lp::to_string(res.status));
  }
  out.status = res.status;
  out.certificate = res.certificate;
  if (res.status != lp::Status::Optimal) {
    out.note = "stage-1 (throughput) LP: " + res.note;
    return out;
  }
  out.objective = res.objective;

  if (minimize_locality) {
    trace::Span span("design.lexicographic.stage2");
    const int rows = design.model().num_rows();
    design.minimize_locality_within(out.objective * (1.0 + kLexicographicSlack));
    // A bound cap keeps stage 1's standard form, and the stage-1 optimum is
    // primal-feasible for stage 2, so its basis is a natural warm start. An
    // appended cap row (the average case) changes the shape: start cold.
    const lp::Basis stage1_basis = std::move(res.basis);
    res = design.solve(opts, design.model().num_rows() == rows ? &stage1_basis : nullptr);
    span.attr("status", lp::to_string(res.status));
    span.attr("warm_start", res.warm_start);
    out.status = res.status;
    out.certificate = lp::worse_certificate(out.certificate, res.certificate);
    if (res.status != lp::Status::Optimal) {
      out.note = "stage-2 (locality) LP: " + res.note;
      return out;
    }
  }
  out.avg_hops = res.avg_hops;
  out.locality_norm = res.avg_hops / torus.mean_min_distance();
  out.routing = design.routing(name);
  return out;
}

}  // namespace tcr::detail
