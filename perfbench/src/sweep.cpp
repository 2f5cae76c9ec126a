// `sweep`: warm-chained locality-vs-throughput sweeps (Figures 1 and 6) —
// the dual-simplex rhs-edit restart path of the lp layer. A round is one
// worst_case_tradeoff sweep at k = 6, one at k = 7 and one
// average_case_tradeoff sweep at k = 6 over three fixed random
// permutations. Every grid starts at L = 1 and then steps by a fixed 1/64
// from a seeded offset up to L < 2: the seed shifts the grid but never
// widens its step, because a wide step makes the dual restart fall back to
// a cold solve.
#include <cmath>
#include <optional>
#include <vector>

#include "tcr/core/arc_flow.hpp"
#include "tcr/core/tradeoff.hpp"
#include "tcr/metrics/worst_case.hpp"
#include "tcr/routing/dor.hpp"
#include "tcr/util/rng.hpp"
#include "workload.hpp"

namespace loadbench {
namespace {

struct SweepKind {
  int k;
  bool average;  // average_case_tradeoff (LP (15)) instead of worst case (LP (10))
};

// Grid step in normalized locality, and the seed of the average-case
// sweep's permutations (fixed, so only the grid moves with the run seed).
constexpr double kStep = 1.0 / 64;
constexpr std::uint64_t kSampleSeed = 77;
constexpr int kSamples = 3;

// Agreement demanded between the L = 1 point and DOR's exact worst case,
// and the slack allowed on the non-decreasing check.
constexpr double kMatchTol = 1e-6;
constexpr double kMonotoneTol = 1e-7;

class SweepWorkload final : public Workload {
 public:
  explicit SweepWorkload(const Options& opts)
      : opts_(opts), stream_(opts.seed), points_(opts.tiny ? 5 : 65) {
    if (opts.tiny) {
      kinds_ = {{4, false}, {3, false}, {4, true}};
    } else {
      kinds_ = {{6, false}, {7, false}, {6, true}};
    }
  }

  int round_size() const override { return static_cast<int>(kinds_.size()); }
  int min_rounds() const override { return opts_.tiny ? 1 : 4; }
  // Fewer than twenty sweeps fit in a run, so no percentile below the
  // maximum has ten requests beyond it; the tail is the slowest sweep.
  double tail_percentile() const override { return 100.0; }
  int digest_requests() const override { return round_size(); }

  void setup() override {
    tori_.clear();
    dor_fraction_.clear();
    tori_.reserve(kinds_.size());
    for (const SweepKind& kind : kinds_) {
      tori_.emplace_back(kind.k);
      // Reference for the L = 1 check: DOR's exact worst case.
      std::optional<tcr::TorusRouting> dor;
      {
        Span span(tracer_, "routing.build");
        dor.emplace(tcr::make_dor(tori_.back()));
      }
      count_routing(*dor);
      {
        Span span(tracer_, "routing.load_table");
        dor->load_table();
      }
      Span span(tracer_, "matching.worst_case");
      dor_fraction_.push_back(tcr::worst_case_capacity_fraction(*dor));
    }
    samples_.clear();
    for (std::size_t i = 0; i < kinds_.size(); ++i) {
      tcr::Rng rng(kSampleSeed);
      std::vector<std::vector<int>> perms;
      if (kinds_[i].average) {
        for (int s = 0; s < kSamples; ++s) perms.push_back(rng.permutation(tori_[i].num_nodes()));
      }
      samples_.push_back(std::move(perms));
    }
    if (tracer_ != nullptr) record_model_sizes();
    // Warm-up: a three-point chain on the first torus.
    tcr::worst_case_tradeoff(tori_.front(), {1.0, 1.0 + kStep, 1.0 + 2 * kStep});
  }

  void prepare(int index) override {
    kind_index_ = index % round_size();
    const double shift = 0.05 + 0.9 * stream_.at(index);
    grid_.assign(1, 1.0);
    for (int j = 0; j + 1 < points_; ++j) grid_.push_back(1.0 + (j + shift) * kStep);
  }

  void execute() override {
    Span span(tracer_, "core.solve");
    const auto kind = static_cast<std::size_t>(kind_index_);
    result_ = kinds_[kind].average ? tcr::average_case_tradeoff(torus(), samples_[kind], grid_)
                                   : tcr::worst_case_tradeoff(torus(), grid_);
    span.set_calls(static_cast<long>(result_.size()));
    if (tracer_ != nullptr) {
      const ModelSize& m = sizes_[kind];
      for (const tcr::TradeoffPoint& p : result_) {
        tally_.solve_iterations += static_cast<double>(p.iterations);
        tally_.models += 1;
        tally_.rows += m.rows;
        tally_.cols += m.cols;
        tally_.nnz += m.nnz;
      }
    }
  }

  Outcome check(bool corrupt) override {
    Outcome o;
    if (corrupt && result_.size() > 1) result_.back().capacity_fraction = 0.0;
    if (result_.size() != grid_.size()) {
      o.fail("sweep returned the wrong number of points");
      return o;
    }
    double certified = 0;
    for (std::size_t j = 0; j < result_.size(); ++j) {
      const tcr::TradeoffPoint& p = result_[j];
      if (!p.solved() || !p.certificate.ok() || p.provenance != "measured") {
        o.fail("point " + std::to_string(j) + " not certified: " + p.note);
        continue;
      }
      certified += 1;
      if (j > 0 && p.capacity_fraction < result_[j - 1].capacity_fraction - kMonotoneTol)
        o.fail("capacity fraction decreases as L grows at point " + std::to_string(j));
    }
    if (!kinds_[kind_index_].average &&
        std::abs(result_.front().capacity_fraction - dor_fraction_[kind_index_]) > kMatchTol)
      o.fail("L = 1 point differs from DOR's exact worst case");
    o.units = certified;
    return o;
  }

  void digest(Digest& d) const override {
    for (const tcr::TradeoffPoint& p : result_) d.add(p.capacity_fraction);
  }

 private:
  struct ModelSize {
    double rows = 0, cols = 0, nnz = 0;
  };

  const tcr::Torus& torus() const { return tori_[static_cast<std::size_t>(kind_index_)]; }

  // The sweep builds its model inside the library; the traced run builds
  // each kind's model once more, outside any timed window, to count it.
  void record_model_sizes() {
    sizes_.clear();
    for (std::size_t i = 0; i < kinds_.size(); ++i) {
      tcr::SymmetricDesignConfig cfg;
      cfg.objective =
          kinds_[i].average ? tcr::DesignObjective::AverageCase : tcr::DesignObjective::WorstCase;
      cfg.samples = samples_[i];
      cfg.locality_equals = tori_[i].mean_min_distance();
      cfg.locality_le = true;
      const tcr::SymmetricArcDesign design(tori_[i], cfg);
      sizes_.push_back({static_cast<double>(design.model().num_rows()),
                        static_cast<double>(design.model().num_cols()),
                        static_cast<double>(design.model().num_terms())});
    }
  }

  Options opts_;
  Stratified stream_;
  int points_;
  std::vector<SweepKind> kinds_;
  std::vector<tcr::Torus> tori_;
  std::vector<double> dor_fraction_;
  std::vector<ModelSize> sizes_;
  std::vector<std::vector<std::vector<int>>> samples_;  // per kind; empty for worst case

  int kind_index_ = 0;

  std::vector<double> grid_;
  std::vector<tcr::TradeoffPoint> result_;
};

}  // namespace

std::unique_ptr<Workload> make_sweep(const Options& opts) {
  return std::make_unique<SweepWorkload>(opts);
}

}  // namespace loadbench
