// Channel loads (eq. 2/3), throughput (eq. 4), worst-case via matching
// (eq. 7 / [11]) and the sampled average case (eq. 9).
#include <gtest/gtest.h>

#include <cmath>

#include "tcr/metrics/average_case.hpp"
#include "tcr/metrics/loads.hpp"
#include "tcr/metrics/worst_case.hpp"
#include "tcr/routing/dor.hpp"
#include "tcr/routing/interpolate.hpp"
#include "tcr/routing/rlb.hpp"
#include "tcr/routing/romm.hpp"
#include "tcr/routing/valiant.hpp"
#include "tcr/traffic/patterns.hpp"
#include "tcr/traffic/sampler.hpp"
#include "tcr/util/rng.hpp"

namespace tcr {
namespace {

TEST(Loads, UniformMatchesDirectComputation) {
  for (int k : {3, 4, 5}) {
    const Torus t(k);
    const TorusRouting dor = make_dor(t);
    const auto gamma = channel_loads(dor, uniform_traffic(t.num_nodes()));
    double gmax = 0.0;
    for (double g : gamma) gmax = std::max(gmax, g);
    EXPECT_NEAR(gmax, uniform_max_load(dor), 1e-9) << "k=" << k;
    EXPECT_NEAR(gmax, t.ideal_uniform_load(), 1e-9) << "k=" << k;
  }
}

TEST(Loads, PermutationOverloadAgreesWithMatrix) {
  auto agree = [](const TorusRouting& r, const std::vector<int>& perm) {
    const auto g1 = channel_loads(r, perm);
    const auto g2 = channel_loads(r, permutation_matrix(perm));
    ASSERT_EQ(g1.size(), g2.size());
    for (std::size_t i = 0; i < g1.size(); ++i) EXPECT_NEAR(g1[i], g2[i], 1e-9) << r.name();
  };
  const Torus t5(5);
  agree(make_dor(t5), tornado_permutation(t5));
  const Torus t6(6);
  Rng rng(12);
  const auto perm = rng.permutation(t6.num_nodes());
  agree(make_valiant(t6), perm);
  agree(make_ival(t6), perm);
}

// eq. 2 evaluated literally: gamma_c = sum_{s,d} lambda(s, d) * (expected
// traversals of c by the translated paths of (s, d)).
std::vector<double> loads_by_path_enumeration(const TorusRouting& r, const TrafficMatrix& lambda) {
  const Torus& t = r.torus();
  std::vector<double> gamma(static_cast<std::size_t>(t.num_channels()), 0.0);
  for (int s = 0; s < t.num_nodes(); ++s)
    for (int d = 0; d < t.num_nodes(); ++d) {
      if (lambda(s, d) == 0.0) continue;
      for (const WeightedPath& wp : r.paths_for_pair(s, d))
        for (int c : wp.path.channels) gamma[c] += lambda(s, d) * wp.weight;
    }
  return gamma;
}

TEST(Loads, MatchesPathEnumeration) {
  for (int k : {3, 4, 5, 6}) {
    const Torus t(k);
    const int n = t.num_nodes();
    std::vector<TorusRouting> routings = {make_dor(t),   make_romm(t),    make_rlb(t),
                                          make_rlbth(t), make_valiant(t), make_ival(t)};
    routings.push_back(interpolate(routings[2], routings[4], 0.37));
    Rng rng(40 + k);
    // Offset e0 carries no traffic at all (no longer doubly stochastic, which
    // eq. 2 does not need).
    TrafficMatrix zero_offset = sinkhorn_sample(rng, n);
    const int e0 = t.node(1, k - 1);
    for (int s = 0; s < n; ++s) zero_offset(s, t.translate_node(s, e0)) = 0.0;
    const std::vector<std::pair<const char*, TrafficMatrix>> patterns = {
        {"sinkhorn", sinkhorn_sample(rng, n)},
        {"birkhoff4", birkhoff_sample(rng, n, 4)},
        {"permutation", permutation_matrix(rng.permutation(n))},
        {"zero offset", zero_offset}};
    for (const TorusRouting& r : routings) {
      for (const auto& [name, lambda] : patterns) {
        const auto want = loads_by_path_enumeration(r, lambda);
        const auto got = channel_loads(r, lambda);
        ASSERT_EQ(got.size(), want.size());
        for (std::size_t c = 0; c < want.size(); ++c)
          ASSERT_LE(std::abs(got[c] - want[c]), 1e-12 * std::abs(want[c]))
              << r.name() << " k=" << k << " " << name << " channel " << c;
      }
    }
  }
}

TEST(Loads, TotalLoadEqualsTotalHops) {
  // Conservation: sum of channel loads = sum over pairs of expected hops.
  const Torus t(4);
  const TorusRouting dor = make_dor(t);
  const auto gamma = channel_loads(dor, uniform_traffic(t.num_nodes()));
  double total = 0.0;
  for (double g : gamma) total += g;
  EXPECT_NEAR(total, dor.avg_path_length() * t.num_nodes(), 1e-9);  // N * H_avg
}

TEST(Loads, ThroughputIsReciprocal) {
  const Torus t(4);
  const TorusRouting dor = make_dor(t);
  const auto u = uniform_traffic(t.num_nodes());
  EXPECT_NEAR(throughput(dor, u) * max_channel_load(dor, u), 1.0, 1e-12);
}

TEST(WorstCase, DominatesRandomPermutationSampling) {
  // gamma_wc from the Hungarian matching must upper-bound the load of every
  // sampled permutation, and the witness permutation must attain it.
  const Torus t(3);
  const TorusRouting dor = make_dor(t);
  const auto wc = worst_case(dor);
  Rng rng(77);
  double best_sampled = 0.0;
  for (int trial = 0; trial < 3000; ++trial) {
    const auto perm = rng.permutation(t.num_nodes());
    const double g = max_channel_load(dor, perm);
    ASSERT_LE(g, wc.gamma + 1e-9);
    best_sampled = std::max(best_sampled, g);
  }
  EXPECT_NEAR(max_channel_load(dor, wc.permutation), wc.gamma, 1e-9);
  // Random search should get reasonably close on a 9-node torus.
  EXPECT_GT(best_sampled, 0.8 * wc.gamma);
}

TEST(WorstCase, WitnessPermutationAchievesGamma) {
  for (int k : {3, 4, 6}) {
    const Torus t(k);
    for (auto make : {make_dor, make_valiant}) {
      const TorusRouting r = make(t);
      const auto wc = worst_case(r);
      // Achievability: applying the witness reproduces gamma_wc (it may hit
      // it on a different channel of the same class).
      EXPECT_NEAR(max_channel_load(r, wc.permutation), wc.gamma, 1e-9)
          << r.name() << " k=" << k;
    }
  }
}

TEST(WorstCase, DominatesEveryNamedPattern) {
  const Torus t(6);
  const TorusRouting dor = make_dor(t);
  const double gamma_wc = worst_case(dor).gamma;
  for (const char* name : {"transpose", "tornado", "complement", "shift"}) {
    EXPECT_GE(gamma_wc + 1e-9, max_channel_load(dor, named_permutation(t, name))) << name;
  }
  EXPECT_GE(gamma_wc + 1e-9, uniform_max_load(dor));  // permutations dominate U
}

TEST(WorstCase, PairLoadMatrixRowsAreTranslations) {
  const Torus t(4);
  const TorusRouting dor = make_dor(t);
  const int c0 = t.channel(0, Dir::PX);
  const DenseMatrix w = pair_load_matrix(dor, c0);
  const DenseMatrix& l0 = dor.load_table();
  for (int s = 0; s < t.num_nodes(); ++s) {
    for (int d = 0; d < t.num_nodes(); ++d) {
      const int e = t.offset(s, d);
      const int ct = t.translate_channel(c0, t.negate_node(s));
      EXPECT_DOUBLE_EQ(w(s, d), l0(e, ct));
    }
  }
}

TEST(AverageCase, ApproximationCloseToTrueMean) {
  // Paper §3.3: the arithmetic-mean approximation is within a few percent of
  // the true mean throughput.
  const Torus t(4);
  Rng rng(5);
  const auto samples = sample_traffic_set(rng, t.num_nodes(), 60, "sinkhorn");
  for (auto make : {make_dor, make_valiant, make_ival}) {
    const TorusRouting r = make(t);
    const auto res = average_case(r, samples);
    EXPECT_GT(res.approx_throughput, 0.0);
    EXPECT_NEAR(res.approx_throughput / res.true_throughput, 1.0, 0.10) << r.name();
    // Jensen: mean of reciprocals >= reciprocal of mean.
    EXPECT_GE(res.true_throughput + 1e-12, res.approx_throughput) << r.name();
  }
}

TEST(AverageCase, ParallelMatchesSequential) {
  const Torus t(4);
  Rng rng(6);
  const auto samples = sample_traffic_set(rng, t.num_nodes(), 16, "perm");
  const TorusRouting dor = make_dor(t);
  const auto seq = average_case(dor, samples);
  ThreadPool pool(4);
  const auto par = average_case(dor, samples, &pool);
  EXPECT_NEAR(seq.mean_max_load, par.mean_max_load, 1e-12);
  EXPECT_NEAR(seq.true_throughput, par.true_throughput, 1e-12);
}

TEST(AverageCase, UniformSamplesGiveUniformLoad) {
  const Torus t(4);
  const TorusRouting dor = make_dor(t);
  const std::vector<TrafficMatrix> samples{uniform_traffic(t.num_nodes())};
  const auto res = average_case(dor, samples);
  EXPECT_NEAR(res.mean_max_load, t.ideal_uniform_load(), 1e-9);
}

}  // namespace
}  // namespace tcr
