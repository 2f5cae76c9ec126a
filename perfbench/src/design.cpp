// `design`: a stream of cold routing-design requests on k = 5 and k = 6.
// Each request builds its design, solves and certifies it, and decomposes
// the result into a routing — the user-facing "give me a routing" path.
// The round mixes LP (10) worst-case designs at a seeded locality bound
// L in [1, 2], the lexicographic worst-case-optimal design, 2TURN, and the
// LP (15) average-case design at k = 5 over a few seeded permutations.
#include <cmath>
#include <optional>
#include <stdexcept>
#include <vector>

#include "tcr/core/arc_flow.hpp"
#include "tcr/core/design.hpp"
#include "tcr/core/path_design.hpp"
#include "tcr/metrics/loads.hpp"
#include "tcr/metrics/worst_case.hpp"
#include "tcr/util/rng.hpp"
#include "workload.hpp"

namespace loadbench {
namespace {

using tcr::DesignObjective;
using tcr::TorusRouting;

enum class Kind { WorstCaseLp, AverageCaseLp, WorstCaseOptimal, TwoTurn };

struct Slot {
  Kind kind;
  bool large;  // k = 6 (tiny: 4) instead of k = 5 (tiny: 3)
};

// One round: ten requests (measured costs are listed in README.md). The six
// k = 5 requests form a cheap cluster holding the median; among the four
// k = 6 ones the two deterministic 2TURN designs hold the p75 tail, with the
// seeded LP (10) and the lexicographic design beyond it. Neither percentile
// sits on a gap between clusters, where seeds would move it most.
constexpr Slot kRound[] = {
    {Kind::WorstCaseLp, false},   {Kind::WorstCaseLp, true},  {Kind::WorstCaseOptimal, false},
    {Kind::AverageCaseLp, false}, {Kind::TwoTurn, false},     {Kind::WorstCaseLp, false},
    {Kind::TwoTurn, true},        {Kind::AverageCaseLp, false}, {Kind::TwoTurn, true},
    {Kind::WorstCaseOptimal, true},
};
constexpr int kRoundSize = static_cast<int>(sizeof kRound / sizeof kRound[0]);

// Permutations behind each LP (15) request: two keep its solve cost within
// the k = 5 cluster; a third would put a heavy tail under the median.
constexpr int kAverageSamples = 2;

// Relative agreement demanded between an LP objective and the exact
// evaluation of the routing decomposed from its solution.
constexpr double kObjectiveTol = 1e-6;

class DesignWorkload final : public Workload {
 public:
  explicit DesignWorkload(const Options& opts)
      : opts_(opts),
        stream_(opts.seed),
        small_k_(opts.tiny ? 3 : 5),
        large_k_(opts.tiny ? 4 : 6) {}

  int round_size() const override { return kRoundSize; }
  int min_rounds() const override { return opts_.tiny ? 1 : 5; }
  double tail_percentile() const override { return 75.0; }
  int digest_requests() const override { return kRoundSize; }

  void setup() override {
    small_.emplace(small_k_);
    large_.emplace(large_k_);
    // Warm the allocator and the solver's lazily built tables with the
    // cheapest request on each torus, L = 1.
    for (const bool large : {false, true}) {
      slot_ = {Kind::WorstCaseLp, large};
      locality_ = 1.0;
      execute();
      const Outcome o = check(false);
      if (!o.ok) throw std::runtime_error("set-up design failed: " + o.failure);
    }
  }

  void prepare(int index) override {
    slot_ = kRound[index % kRoundSize];
    locality_ = 1.0 + stream_.at(index);
    perms_.clear();
    if (slot_.kind == Kind::AverageCaseLp) {
      tcr::Rng rng(request_seed(opts_.seed, static_cast<std::uint64_t>(index)));
      for (int s = 0; s < kAverageSamples; ++s)
        perms_.push_back(rng.permutation(torus().num_nodes()));
    }
  }

  void execute() override {
    routing_.reset();
    status_ = tcr::lp::Status::Numerical;
    certificate_ = {};
    objective_ = 0.0;
    switch (slot_.kind) {
      case Kind::WorstCaseLp:
      case Kind::AverageCaseLp:
        execute_lp();
        break;
      case Kind::WorstCaseOptimal: {
        Span span(tracer_, "core.lexicographic");
        tcr::OptimalDesign d = tcr::design_worst_case_optimal(torus());
        take(d.status, d.objective, d.certificate, std::move(d.routing));
        break;
      }
      case Kind::TwoTurn: {
        Span span(tracer_, "core.path_design");
        tcr::PathDesignResult d = tcr::design_two_turn(torus());
        take(d.status, d.objective, d.certificate, std::move(d.routing));
        break;
      }
    }
  }

  Outcome check(bool corrupt) override {
    Outcome o;
    if (corrupt) objective_ *= 1.0 + 1e-3;
    if (status_ != tcr::lp::Status::Optimal) {
      o.fail(std::string("status ") + tcr::lp::to_string(status_));
      return o;
    }
    if (!certificate_.ok()) o.fail("certificate: " + certificate_.summary());
    if (!routing_) {
      o.fail("no routing decomposed");
      return o;
    }
    routing_->validate();
    const double ideal = torus().ideal_uniform_load();
    if (slot_.kind == Kind::AverageCaseLp) {
      double mean = 0.0;
      for (const auto& p : perms_) mean += tcr::max_channel_load(*routing_, p);
      mean /= static_cast<double>(perms_.size());
      if (std::abs(mean - objective_) > kObjectiveTol * objective_)
        o.fail("sampled mean load differs from the LP (15) objective");
      return o;
    }
    // Exact Hungarian worst case of the decomposed routing. The
    // lexicographic designs re-impose their optimum with a relative slack
    // of kLexicographicSlack, so their routing may sit that much above it.
    const double wc = tcr::worst_case(*routing_).gamma;
    const double slack = slot_.kind == Kind::WorstCaseLp ? 0.0 : tcr::kLexicographicSlack;
    if (wc < objective_ * (1.0 - kObjectiveTol) ||
        wc > objective_ * (1.0 + slack + kObjectiveTol))
      o.fail("Hungarian worst case differs from the LP objective");
    const double fraction = ideal / objective_;
    if (slot_.kind == Kind::WorstCaseLp) {
      if (fraction > 0.5 + kObjectiveTol) o.fail("LP (10) beats the worst-case optimum 0.5");
    } else if (std::abs(fraction - 0.5) > kObjectiveTol) {
      o.fail("worst-case-optimal design misses capacity fraction 0.5");
    }
    return o;
  }

  void digest(Digest& d) const override { d.add(objective_); }

 private:
  const tcr::Torus& torus() const { return slot_.large ? *large_ : *small_; }

  void execute_lp() {
    tcr::SymmetricDesignConfig cfg;
    if (slot_.kind == Kind::AverageCaseLp) {
      cfg.objective = DesignObjective::AverageCase;
      cfg.samples = perms_;
    } else {
      cfg.objective = DesignObjective::WorstCase;
      cfg.locality_equals = locality_ * torus().mean_min_distance();
      cfg.locality_le = true;
    }
    std::optional<tcr::SymmetricArcDesign> design;
    {
      Span span(tracer_, "core.build");
      design.emplace(torus(), std::move(cfg));
    }
    tcr::DesignResult res;
    {
      Span span(tracer_, "core.solve");
      res = design->solve();
    }
    if (tracer_ != nullptr) {
      tally_.models += 1;
      tally_.rows += design->model().num_rows();
      tally_.cols += design->model().num_cols();
      tally_.nnz += static_cast<double>(design->model().num_terms());
      tally_.solve_iterations += static_cast<double>(res.iterations);
    }
    status_ = res.status;
    objective_ = res.objective;
    certificate_ = res.certificate;
    if (res.status == tcr::lp::Status::Optimal) {
      Span span(tracer_, "core.decompose");
      routing_.emplace(design->routing("LP"));
    }
  }

  void take(tcr::lp::Status status, double objective, const tcr::lp::Certificate& cert,
            TorusRouting&& routing) {
    status_ = status;
    objective_ = objective;
    certificate_ = cert;
    if (status == tcr::lp::Status::Optimal) routing_.emplace(std::move(routing));
  }

  Options opts_;
  Stratified stream_;
  int small_k_, large_k_;
  std::optional<tcr::Torus> small_, large_;

  // Current request and its outputs.
  Slot slot_{Kind::WorstCaseLp, false};
  double locality_ = 1.0;
  std::vector<std::vector<int>> perms_;
  tcr::lp::Status status_ = tcr::lp::Status::Numerical;
  double objective_ = 0.0;
  tcr::lp::Certificate certificate_;
  std::optional<TorusRouting> routing_;
};

}  // namespace

std::unique_ptr<Workload> make_design(const Options& opts) {
  return std::make_unique<DesignWorkload>(opts);
}

}  // namespace loadbench
