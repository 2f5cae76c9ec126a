#include "tcr/matching/hungarian.hpp"

#include <algorithm>
#include <limits>
#include <numeric>

#include "tcr/util/check.hpp"

namespace tcr {

namespace {

// Shortest-augmenting-path Hungarian algorithm on the costs sign * w, with
// sign = -1 solving the max form without a negated copy (negation is exact,
// so both forms take the same pivots as on an explicitly negated matrix).
// Returned duals are those of the cost matrix.
AssignmentResult solve_assignment(const DenseMatrix& w, double sign) {
  TCR_REQUIRE(w.rows() == w.cols(), "assignment requires a square matrix");
  const int n = w.rows();
  AssignmentResult res;
  if (n == 0) return res;

  constexpr double kInf = std::numeric_limits<double>::infinity();
  // 1-indexed arrays; p[j] = row matched to column j (0 = none).
  std::vector<double> u(n + 1, 0.0), v(n + 1, 0.0);
  std::vector<int> p(n + 1, 0), way(n + 1, 0);
  // The columns of the current search tree, and the free columns in index
  // order (so the scan breaks ties towards the lowest column) with their
  // slacks minv, one per free column.
  std::vector<int> used, free_cols;
  std::vector<double> minv;
  used.reserve(n + 1);
  free_cols.reserve(n);
  minv.reserve(n);

  for (int i = 1; i <= n; ++i) {
    p[0] = i;
    int j0 = 0;
    used.clear();
    free_cols.resize(n);
    std::iota(free_cols.begin(), free_cols.end(), 1);
    minv.assign(n, kInf);
    do {
      used.push_back(j0);
      const int i0 = p[j0];
      const double* wrow = w.row(i0 - 1);
      const double ui0 = u[i0];
      double delta = kInf;
      int slot = -1;
      const int nfree = static_cast<int>(free_cols.size());
      for (int f = 0; f < nfree; ++f) {
        const int j = free_cols[f];
        const double cur = sign * wrow[j - 1] - ui0 - v[j];
        if (cur < minv[f]) {
          minv[f] = cur;
          way[j] = j0;
        }
        if (minv[f] < delta) {
          delta = minv[f];
          slot = f;
        }
      }
      TCR_ASSERT(slot >= 0, "augmenting path search failed");
      for (int j : used) {
        u[p[j]] += delta;
        v[j] -= delta;
      }
      for (double& m : minv) m -= delta;
      j0 = free_cols[slot];
      free_cols.erase(free_cols.begin() + slot);
      minv.erase(minv.begin() + slot);
    } while (p[j0] != 0);
    do {
      const int j1 = way[j0];
      p[j0] = p[j1];
      j0 = j1;
    } while (j0 != 0);
  }

  res.assignment.assign(n, -1);
  for (int j = 1; j <= n; ++j) res.assignment[p[j] - 1] = j - 1;
  res.value = 0.0;
  for (int i = 0; i < n; ++i) res.value += w(i, res.assignment[i]);
  res.row_dual.assign(u.begin() + 1, u.end());
  res.col_dual.assign(v.begin() + 1, v.end());
  return res;
}

}  // namespace

AssignmentResult solve_assignment_min(const DenseMatrix& w) { return solve_assignment(w, 1.0); }

AssignmentResult solve_assignment_max(const DenseMatrix& w) {
  AssignmentResult res = solve_assignment(w, -1.0);
  for (auto& d : res.row_dual) d = -d;
  for (auto& d : res.col_dual) d = -d;
  return res;
}

AssignmentResult assignment_max_bruteforce(const DenseMatrix& w) {
  TCR_REQUIRE(w.rows() == w.cols(), "assignment requires a square matrix");
  TCR_REQUIRE(w.rows() <= 10, "brute force limited to n <= 10");
  const int n = w.rows();
  std::vector<int> perm(n);
  std::iota(perm.begin(), perm.end(), 0);
  AssignmentResult best;
  best.value = -std::numeric_limits<double>::infinity();
  do {
    double v = 0.0;
    for (int i = 0; i < n; ++i) v += w(i, perm[i]);
    if (v > best.value) {
      best.value = v;
      best.assignment = perm;
    }
  } while (std::next_permutation(perm.begin(), perm.end()));
  return best;
}

}  // namespace tcr
