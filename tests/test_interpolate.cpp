// Interpolated routing (paper §5.3): validity, exact linear locality
// (eq. 12), and the harmonic-mean worst-case bound (eq. 14) including its
// tightness when the two algorithms share a worst-case permutation.
#include <gtest/gtest.h>

#include <cmath>

#include "tcr/metrics/loads.hpp"
#include "tcr/metrics/worst_case.hpp"
#include "tcr/routing/dor.hpp"
#include "tcr/routing/interpolate.hpp"
#include "tcr/routing/valiant.hpp"
#include "tcr/util/check.hpp"

namespace tcr {
namespace {

TEST(Interpolate, EndpointsReproduceInputs) {
  const Torus t(4);
  const TorusRouting dor = make_dor(t), ival = make_ival(t);
  const TorusRouting at0 = interpolate(dor, ival, 0.0);
  const TorusRouting at1 = interpolate(dor, ival, 1.0);
  EXPECT_NEAR(at1.normalized_locality(), dor.normalized_locality(), 1e-12);
  EXPECT_NEAR(at0.normalized_locality(), ival.normalized_locality(), 1e-12);
  EXPECT_NEAR(worst_case(at1).gamma, worst_case(dor).gamma, 1e-9);
  EXPECT_NEAR(worst_case(at0).gamma, worst_case(ival).gamma, 1e-9);
}

TEST(Interpolate, ProducesValidAlgorithms) {
  const Torus t(5);
  const TorusRouting dor = make_dor(t), val = make_valiant(t);
  for (double alpha : {0.0, 0.25, 0.5, 0.99, 1.0}) {
    EXPECT_NO_THROW(interpolate(dor, val, alpha).validate());
  }
  EXPECT_THROW(interpolate(dor, val, 1.5), Error);
}

TEST(Interpolate, LocalityIsExactlyLinear) {
  // Eq. 12.
  const Torus t(6);
  const TorusRouting dor = make_dor(t), ival = make_ival(t);
  for (double alpha : {0.2, 0.5, 0.8}) {
    const TorusRouting mix = interpolate(dor, ival, alpha);
    EXPECT_NEAR(mix.avg_path_length(),
                alpha * dor.avg_path_length() + (1 - alpha) * ival.avg_path_length(), 1e-10);
  }
}

TEST(Interpolate, WorstCaseRespectsHarmonicBound) {
  // Eq. 13/14: gamma_wc(R') <= alpha gamma1 + (1-alpha) gamma2.
  const Torus t(6);
  const TorusRouting dor = make_dor(t), ival = make_ival(t);
  const double g1 = worst_case(dor).gamma, g2 = worst_case(ival).gamma;
  for (double alpha : {0.25, 0.5, 0.75}) {
    const double g = worst_case(interpolate(dor, ival, alpha)).gamma;
    EXPECT_LE(g, alpha * g1 + (1 - alpha) * g2 + 1e-9);
    const double theta_bound =
        interpolation_throughput_bound(1.0 / g1, 1.0 / g2, alpha);
    EXPECT_GE(1.0 / g + 1e-9, theta_bound);
  }
}

TEST(Interpolate, BoundTightWhenWorstCaseShared) {
  // Paper footnote 5: on the 8-ary 2-cube DOR and IVAL share a worst-case
  // permutation, which makes the bound exact. Each Hungarian returns one
  // adversary among possibly many, so the shared one is looked for in three
  // places: DOR's adversary, IVAL's, and that of their even mix. At k = 6 it
  // is IVAL's; at k = 8 neither side's own adversary is worst for the other
  // (IVAL 1.9375 < 2 at DOR's, DOR 2.5 < 3.5 at IVAL's), the mix's is.
  for (const int k : {6, 8}) {
    const Torus t(k);
    const TorusRouting dor = make_dor(t), ival = make_ival(t);
    const auto wc_dor = worst_case(dor);
    const auto wc_ival = worst_case(ival);
    const auto wc_mix = worst_case(interpolate(dor, ival, 0.5));
    bool shared = false;
    for (const auto* perm : {&wc_dor.permutation, &wc_ival.permutation, &wc_mix.permutation}) {
      shared = shared || (std::abs(max_channel_load(dor, *perm) - wc_dor.gamma) < 1e-9 &&
                          std::abs(max_channel_load(ival, *perm) - wc_ival.gamma) < 1e-9);
    }
    ASSERT_TRUE(shared) << "no shared worst-case permutation found at k = " << k;
    for (double alpha : {0.3, 0.5, 0.7}) {
      const double g = worst_case(interpolate(dor, ival, alpha)).gamma;
      EXPECT_NEAR(g, alpha * wc_dor.gamma + (1 - alpha) * wc_ival.gamma, 1e-8)
          << "k = " << k << ", alpha = " << alpha;
      EXPECT_NEAR(1.0 / g,
                  interpolation_throughput_bound(1.0 / wc_dor.gamma, 1.0 / wc_ival.gamma, alpha),
                  1e-8)
          << "k = " << k << ", alpha = " << alpha;
    }
  }
}

TEST(Interpolate, BoundFunctionSanity) {
  EXPECT_NEAR(interpolation_throughput_bound(0.5, 0.5, 0.3), 0.5, 1e-12);
  EXPECT_NEAR(interpolation_throughput_bound(0.25, 0.5, 1.0), 0.25, 1e-12);
  EXPECT_NEAR(interpolation_throughput_bound(0.25, 0.5, 0.0), 0.5, 1e-12);
  EXPECT_THROW(interpolation_throughput_bound(0.0, 0.5, 0.5), Error);
}

TEST(Interpolate, SweepIsMonotoneInLocality) {
  const Torus t(6);
  const TorusRouting dor = make_dor(t), ival = make_ival(t);
  double prev = -1.0;
  for (double alpha : {1.0, 0.75, 0.5, 0.25, 0.0}) {
    const double h = interpolate(dor, ival, alpha).avg_path_length();
    EXPECT_GT(h, prev);
    prev = h;
  }
}

}  // namespace
}  // namespace tcr
