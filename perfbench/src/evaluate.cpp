// `evaluate`: throughput evaluation of interpolated routings at k = 16, with
// no LP — the routing, matching, metrics and traffic layers, and the path
// eq. 11 interpolation would take to serve a near-miss design request.
// Request i blends two of the six Table-1 algorithms,
// R = alpha R1 + (1 - alpha) R2, and computes its exact worst case
// (Hungarian, eq. 7) and its average case over fresh Sinkhorn samples
// (eq. 9). A round visits all fifteen pairs once.
#include <optional>
#include <utility>
#include <vector>

#include "tcr/matching/hungarian.hpp"
#include "tcr/metrics/average_case.hpp"
#include "tcr/metrics/worst_case.hpp"
#include "tcr/routing/dor.hpp"
#include "tcr/routing/interpolate.hpp"
#include "tcr/routing/rlb.hpp"
#include "tcr/routing/romm.hpp"
#include "tcr/routing/valiant.hpp"
#include "tcr/traffic/sampler.hpp"
#include "workload.hpp"

namespace loadbench {
namespace {

using tcr::TorusRouting;

class EvaluateWorkload final : public Workload {
 public:
  explicit EvaluateWorkload(const Options& opts)
      : opts_(opts), stream_(opts.seed), k_(opts.tiny ? 6 : 16), samples_(opts.tiny ? 2 : 3) {
    for (int a = 0; a < 6; ++a)
      for (int b = a + 1; b < 6; ++b) pairs_.emplace_back(a, b);
  }

  int round_size() const override { return static_cast<int>(pairs_.size()); }
  int min_rounds() const override { return opts_.tiny ? 1 : 3; }
  double tail_percentile() const override { return 75.0; }
  int digest_requests() const override { return round_size(); }

  void setup() override {
    bases_.clear();
    theta_.clear();
    torus_.emplace(k_);
    using Maker = TorusRouting (*)(const tcr::Torus&);
    for (Maker make : {Maker{tcr::make_dor}, Maker{tcr::make_romm}, Maker{tcr::make_rlb},
                       Maker{tcr::make_rlbth}, Maker{tcr::make_valiant}, Maker{tcr::make_ival}}) {
      {
        Span span(tracer_, "routing.build");
        bases_.push_back(make(*torus_));
      }
      count_routing(bases_.back());
      {
        Span span(tracer_, "routing.load_table");
        bases_.back().load_table();
      }
      Span span(tracer_, "matching.worst_case");
      theta_.push_back(1.0 / tcr::worst_case(bases_.back()).gamma);
    }
  }

  void prepare(int index) override {
    pair_ = pairs_[static_cast<std::size_t>(index) % pairs_.size()];
    alpha_ = 0.05 + 0.9 * stream_.at(index);
    sample_seed_ = request_seed(opts_.seed, static_cast<std::uint64_t>(index));
  }

  void execute() override {
    routing_.reset();
    {
      Span span(tracer_, "routing.build");
      routing_.emplace(tcr::interpolate(bases_[static_cast<std::size_t>(pair_.first)],
                                        bases_[static_cast<std::size_t>(pair_.second)], alpha_));
    }
    count_routing(*routing_);
    {
      Span span(tracer_, "routing.load_table");
      routing_->load_table();
    }
    {
      Span span(tracer_, "matching.worst_case");
      wc_ = tcr::worst_case(*routing_);
    }
    std::vector<tcr::TrafficMatrix> samples;
    tcr::Rng rng(sample_seed_);
    for (int s = 0; s < samples_; ++s) {
      Span span(tracer_, "traffic.sample");
      samples.push_back(tcr::sinkhorn_sample(rng, torus_->num_nodes()));
    }
    {
      Span span(tracer_, "metrics.average_case");
      average_ = tcr::average_case(*routing_, samples);
    }
    if (tracer_ != nullptr) tally_.samples += samples_;
  }

  void probe() override {
    // The assignment kernel alone, on the worst channel's pair-load matrix.
    const tcr::DenseMatrix w = tcr::pair_load_matrix(*routing_, wc_.channel);
    Span span(tracer_, "matching.assignment");
    tcr::solve_assignment_max(w);
  }

  Outcome check(bool corrupt) override {
    Outcome o;
    const double bound = tcr::interpolation_throughput_bound(
        theta_[static_cast<std::size_t>(pair_.first)],
        theta_[static_cast<std::size_t>(pair_.second)], alpha_);
    if (corrupt) wc_.gamma = 2.0 / bound;  // reports half the eq. 14 bound
    if (!(wc_.gamma > 0.0)) {
      o.fail("routing carries no load");
      return o;
    }
    if (1.0 / wc_.gamma < bound * (1.0 - 1e-9))
      o.fail("worst-case throughput below the eq. 14 interpolation bound");
    if (average_.true_throughput < average_.approx_throughput * (1.0 - 1e-12))
      o.fail("true mean throughput below the eq. 9 approximation");
    return o;
  }

  void digest(Digest& d) const override {
    d.add(wc_.gamma);
    d.add(average_.mean_max_load);
    d.add(average_.true_throughput);
  }

 private:
  Options opts_;
  Stratified stream_;
  int k_, samples_;
  std::vector<std::pair<int, int>> pairs_;
  std::optional<tcr::Torus> torus_;
  std::vector<TorusRouting> bases_;
  std::vector<double> theta_;  // Theta_wc of each base algorithm

  std::pair<int, int> pair_{0, 1};
  double alpha_ = 0.5;
  std::uint64_t sample_seed_ = 0;
  std::optional<TorusRouting> routing_;
  tcr::WorstCaseResult wc_;
  tcr::AverageCaseResult average_;
};

}  // namespace

std::unique_ptr<Workload> make_evaluate(const Options& opts) {
  return std::make_unique<EvaluateWorkload>(opts);
}

}  // namespace loadbench
