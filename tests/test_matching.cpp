#include <gtest/gtest.h>

#include "tcr/matching/hungarian.hpp"
#include "tcr/util/rng.hpp"

namespace tcr {
namespace {

TEST(Hungarian, HandChecked3x3) {
  DenseMatrix w(3, 3);
  // max weight: (0,1)=8, (1,2)=9, (2,0)=7 -> 24.
  const double vals[3][3] = {{1, 8, 2}, {3, 4, 9}, {7, 5, 6}};
  for (int i = 0; i < 3; ++i)
    for (int j = 0; j < 3; ++j) w(i, j) = vals[i][j];
  const auto res = solve_assignment_max(w);
  EXPECT_NEAR(res.value, 24.0, 1e-12);
  EXPECT_EQ(res.assignment[0], 1);
  EXPECT_EQ(res.assignment[1], 2);
  EXPECT_EQ(res.assignment[2], 0);
}

TEST(Hungarian, MinEqualsNegatedMax) {
  Rng rng(4);
  DenseMatrix w(5, 5);
  for (int i = 0; i < 5; ++i)
    for (int j = 0; j < 5; ++j) w(i, j) = rng.uniform(0, 10);
  DenseMatrix neg(5, 5);
  for (int i = 0; i < 5; ++i)
    for (int j = 0; j < 5; ++j) neg(i, j) = -w(i, j);
  EXPECT_NEAR(solve_assignment_max(w).value, -solve_assignment_min(neg).value, 1e-10);
}

TEST(Hungarian, MatchesBruteForceOnRandom) {
  Rng rng(21);
  for (int trial = 0; trial < 60; ++trial) {
    const int n = 1 + static_cast<int>(rng.below(7));
    DenseMatrix w(n, n);
    for (int i = 0; i < n; ++i)
      for (int j = 0; j < n; ++j) w(i, j) = rng.uniform(0, 5);
    const auto fast = solve_assignment_max(w);
    const auto ref = assignment_max_bruteforce(w);
    ASSERT_NEAR(fast.value, ref.value, 1e-9) << "trial " << trial << " n=" << n;
    // The assignment must actually achieve the reported value.
    double check = 0.0;
    for (int i = 0; i < n; ++i) check += w(i, fast.assignment[i]);
    ASSERT_NEAR(check, fast.value, 1e-9);
  }
}

TEST(Hungarian, SparseZeroHeavyMatrices) {
  // Matrices like channel-load tables: mostly zeros.
  Rng rng(33);
  for (int trial = 0; trial < 30; ++trial) {
    const int n = 2 + static_cast<int>(rng.below(6));
    DenseMatrix w(n, n);
    for (int i = 0; i < n; ++i)
      for (int j = 0; j < n; ++j)
        if (rng.uniform() < 0.25) w(i, j) = rng.uniform(0, 3);
    const auto fast = solve_assignment_max(w);
    const auto ref = assignment_max_bruteforce(w);
    ASSERT_NEAR(fast.value, ref.value, 1e-9);
  }
}

TEST(Hungarian, DualCertificate) {
  // Duality: value = sum of potentials and u_i + v_j >= ... (for max form,
  // u_i + v_j >= w_ij after negation bookkeeping). We verify value equality.
  Rng rng(8);
  for (int n : {8, 64, 256}) {
    DenseMatrix w(n, n);
    for (int i = 0; i < n; ++i)
      for (int j = 0; j < n; ++j) w(i, j) = rng.uniform(0, 4);
    const auto res = solve_assignment_max(w);
    double dual = 0.0;
    for (double u : res.row_dual) dual += u;
    for (double v : res.col_dual) dual += v;
    EXPECT_NEAR(dual, res.value, 1e-9) << "n=" << n;
    for (int i = 0; i < n; ++i)
      for (int j = 0; j < n; ++j)
        ASSERT_GE(res.row_dual[i] + res.col_dual[j], w(i, j) - 1e-9) << "n=" << n;
  }
}

TEST(Hungarian, IdentityAndPermutationMatrices) {
  const int n = 6;
  DenseMatrix w(n, n);
  for (int i = 0; i < n; ++i) w(i, (i + 2) % n) = 1.0;
  const auto res = solve_assignment_max(w);
  EXPECT_NEAR(res.value, n, 1e-12);
  for (int i = 0; i < n; ++i) EXPECT_EQ(res.assignment[i], (i + 2) % n);
}

TEST(Hungarian, ZeroMatrix) {
  DenseMatrix w(4, 4);
  const auto res = solve_assignment_max(w);
  EXPECT_NEAR(res.value, 0.0, 1e-12);
}

}  // namespace
}  // namespace tcr
