// Constraint blocks shared by the design LPs (internal to tcr::core): the
// matching-dual block of LP (8) and the per-sample load blocks of LP (15).
// Each builder owns its block's columns and row layout; the caller adds only
// its own load terms — arc flows (arc_flow.cpp) or path weights
// (path_design.cpp) — through a callback.
#pragma once

#include <vector>

#include "tcr/graph/torus.hpp"
#include "tcr/lp/model.hpp"
#include "tcr/util/check.hpp"

namespace tcr::detail {

/// Throws unless `perm` maps every node of the torus to a node (size N,
/// entries in [0, N)): the blocks index loads by perm[s].
inline void check_permutation(const Torus& torus, const std::vector<int>& perm) {
  const int n = torus.num_nodes();
  TCR_REQUIRE(static_cast<int>(perm.size()) == n, "sample permutation size mismatch");
  for (const int d : perm) TCR_REQUIRE(d >= 0 && d < n, "sample destination out of range");
}

/// Columns and rows of one LP (8) matching-dual block.
struct MatchingDualBlock {
  int row_base = 0;       // first of the N*N (s, d) rows, s-major
  int sum_row = -1;       // sum_d v_d - sum_s u_s - b_c w = 0
  std::vector<int> u, v;  // potential columns; u[0] is fixed at zero
};

/// Appends the dual of the max-weight matching that bounds one channel's
/// load under every permutation (LP (8)): per pair (s, d) the row
/// load_{s,d} - v_d + u_s <= 0, then sum_d v_d - sum_s u_s = bandwidth * w.
/// `load(row, s, d)` adds the pair's load terms to its row.
template <class Load>
MatchingDualBlock add_matching_dual_block(lp::Model& m, int n, int w, double bandwidth,
                                          Load&& load) {
  MatchingDualBlock b;
  b.u.resize(static_cast<std::size_t>(n));
  b.v.resize(static_cast<std::size_t>(n));
  // Ground the potentials' constant-shift null direction: u[0] = 0.
  for (int s = 0; s < n; ++s)
    b.u[s] = (s == 0) ? m.add_col(0.0, 0.0, 0.0) : m.add_col(-lp::kInf, lp::kInf, 0.0);
  for (int d = 0; d < n; ++d) b.v[d] = m.add_col(-lp::kInf, lp::kInf, 0.0);

  b.row_base = m.num_rows();
  for (int s = 0; s < n; ++s) {
    for (int d = 0; d < n; ++d) {
      const int row = m.add_row(lp::RowType::LE, 0.0);
      load(row, s, d);
      m.add_term(row, b.v[d], -1.0);
      m.add_term(row, b.u[s], 1.0);
    }
  }
  b.sum_row = m.add_row(lp::RowType::EQ, 0.0);
  for (int d = 0; d < n; ++d) m.add_term(b.sum_row, b.v[d], 1.0);
  for (int s = 0; s < n; ++s) m.add_term(b.sum_row, b.u[s], -1.0);
  m.add_term(b.sum_row, w, -bandwidth);
  return b;
}

/// Columns and rows of LP (15)'s per-sample load blocks.
struct SampleBlocks {
  std::vector<int> cols;      // per-sample max-load columns, cost 1/S each
  std::vector<int> row_base;  // first of each sample's C channel rows
};

/// Appends one max-load column m_i (objective cost 1/S, so the objective is
/// the sample mean of eq. 9) and C rows load_c(perm_i) - m_i <= 0 per sample.
/// `load(row_base, perm)` adds the sample's load on channel c to row
/// row_base + c. Every sample must be a node map of the torus.
template <class Load>
SampleBlocks add_sample_blocks(lp::Model& m, const Torus& torus,
                               const std::vector<std::vector<int>>& samples, Load&& load) {
  TCR_REQUIRE(!samples.empty(), "average-case design needs permutation traffic samples");
  for (const auto& perm : samples) check_permutation(torus, perm);
  const int nc = torus.num_channels();
  const double per = 1.0 / static_cast<double>(samples.size());
  SampleBlocks b;
  for (std::size_t i = 0; i < samples.size(); ++i) b.cols.push_back(m.add_col(0.0, lp::kInf, per));
  for (std::size_t i = 0; i < samples.size(); ++i) {
    const int base = m.num_rows();
    b.row_base.push_back(base);
    for (int c = 0; c < nc; ++c) m.add_row(lp::RowType::LE, 0.0);
    load(base, samples[i]);
    for (int c = 0; c < nc; ++c) m.add_term(base + c, b.cols[i], -1.0);
  }
  return b;
}

/// Lexicographic stage-2 edit of the sample blocks: the sample mean stops
/// being the objective and is capped at `cap` by one appended row instead.
inline void cap_sample_mean(lp::Model& m, const SampleBlocks& b, double cap) {
  const double per = 1.0 / static_cast<double>(b.cols.size());
  for (const int col : b.cols) m.set_cost(col, 0.0);
  const int row = m.add_row(lp::RowType::LE, cap);
  for (const int col : b.cols) m.add_term(row, col, per);
}

}  // namespace tcr::detail
