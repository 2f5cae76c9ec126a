#include "tcr/metrics/loads.hpp"

#include <algorithm>

#include "tcr/util/check.hpp"

namespace tcr {

namespace {

// eq. 2 is evaluated offset-major. The load of pair (s, s + e) on channel
// (m + s, dir) is L0[e][(m, dir)], so offset e contributes to the direction
// plane P_dir (k x k, P_dir[t] = gamma of channel (t, dir)) the shifted
// translation plane A_e[s] = lambda(s, s + e) once per nonzero of L0 row e:
//   P_dir[m + s] += L0[e][(m, dir)] * A_e[s]   for every source s.
// Nodes are x + k*y and channels 4*node + dir (see Torus), so the planes fold
// back into channel-id order in one pass.

// The nonzeros of one load-table row L0[e], channel c = (mx, my, dir), in
// runs of equal (dir, my): every entry of a run lands in the same row of P_dir
// under any translation.
struct TableRow {
  struct Run {
    int dir, my, begin, end;
  };
  std::vector<Run> runs;
  std::vector<int> mx;
  std::vector<double> v;

  void load(const double* row, int k) {
    runs.clear();
    mx.clear();
    v.clear();
    for (int dir = 0; dir < kNumDirs; ++dir)
      for (int my = 0; my < k; ++my) {
        const int begin = static_cast<int>(v.size());
        for (int x = 0; x < k; ++x) {
          const double w = row[kNumDirs * (x + k * my) + dir];
          if (w == 0.0) continue;
          mx.push_back(x);
          v.push_back(w);
        }
        const int end = static_cast<int>(v.size());
        if (end > begin) runs.push_back({dir, my, begin, end});
      }
  }
};

int wrap(int i, int k) { return i < k ? i : i - k; }

// Adds w * L0[e][c] to the plane cell of every channel c of one table row
// translated by the source (sx, sy): the scalar path for a lone source.
void scatter(const TableRow& row, int k, int sx, int sy, double w, double* planes) {
  for (const TableRow::Run& run : row.runs) {
    double* dst = planes + static_cast<std::size_t>(run.dir) * k * k + k * wrap(run.my + sy, k);
    for (int i = run.begin; i < run.end; ++i) dst[wrap(row.mx[i] + sx, k)] += w * row.v[i];
  }
}

// gamma[4*m + dir] = P_dir[m].
std::vector<double> fold(const std::vector<double>& planes, int n) {
  std::vector<double> gamma(static_cast<std::size_t>(kNumDirs) * n);
  for (int m = 0; m < n; ++m)
    for (int dir = 0; dir < kNumDirs; ++dir)
      gamma[kNumDirs * m + dir] = planes[static_cast<std::size_t>(dir) * n + m];
  return gamma;
}

}  // namespace

std::vector<double> channel_loads(const TorusRouting& r, const TrafficMatrix& lambda) {
  const Torus& t = r.torus();
  const int k = t.k(), n = t.num_nodes();
  TCR_REQUIRE(lambda.rows() == n && lambda.cols() == n, "traffic matrix size mismatch");
  const DenseMatrix& l0 = r.load_table();
  std::vector<double> planes(static_cast<std::size_t>(kNumDirs) * n, 0.0);
  // a[sy][j] = A_e[(j mod k, sy)] for j < 2k: the doubled rows turn the
  // cyclic shift by mx into the contiguous window starting at k - mx.
  std::vector<double> a(static_cast<std::size_t>(2 * k) * k);
  TableRow table;
  std::vector<int> dense_rows;
  for (int e = 0; e < n; ++e) {
    table.load(l0.row(e), k);
    if (table.runs.empty()) continue;
    const int ex = t.x_of(e), ey = t.y_of(e);
    dense_rows.clear();
    for (int sy = 0; sy < k; ++sy) {
      const int dy = wrap(sy + ey, k);
      double* arow = a.data() + static_cast<std::size_t>(2 * k) * sy;
      int nonzeros = 0;
      for (int sx = 0; sx < k; ++sx) {
        const double w = lambda(sx + k * sy, wrap(sx + ex, k) + k * dy);
        arow[sx] = arow[sx + k] = w;
        nonzeros += w != 0.0;
      }
      // A row with few sources is cheaper as one scalar scatter per source
      // than as k-wide shifted adds per table entry.
      if (4 * nonzeros > k) {
        dense_rows.push_back(sy);
      } else {
        for (int sx = 0; sx < k; ++sx)
          if (arow[sx] != 0.0) scatter(table, k, sx, sy, arow[sx], planes.data());
      }
    }
    // The shifted adds of one run share their target row, so four entries
    // at a time share one pass over it.
    for (const TableRow::Run& run : table.runs) {
      double* plane = planes.data() + static_cast<std::size_t>(run.dir) * n;
      const int* mx = table.mx.data();
      const double* v = table.v.data();
      for (int sy : dense_rows) {
        double* dst = plane + k * wrap(run.my + sy, k);
        const double* src = a.data() + static_cast<std::size_t>(2 * k) * sy + k;
        int i = run.begin;
        for (; i + 4 <= run.end; i += 4) {
          const double *s0 = src - mx[i], *s1 = src - mx[i + 1], *s2 = src - mx[i + 2],
                       *s3 = src - mx[i + 3];
          const double v0 = v[i], v1 = v[i + 1], v2 = v[i + 2], v3 = v[i + 3];
          for (int tx = 0; tx < k; ++tx)
            dst[tx] += v0 * s0[tx] + v1 * s1[tx] + v2 * s2[tx] + v3 * s3[tx];
        }
        for (; i < run.end; ++i) {
          const double* s0 = src - mx[i];
          for (int tx = 0; tx < k; ++tx) dst[tx] += v[i] * s0[tx];
        }
      }
    }
  }
  return fold(planes, n);
}

std::vector<double> channel_loads(const TorusRouting& r, const std::vector<int>& perm) {
  const Torus& t = r.torus();
  const int k = t.k(), n = t.num_nodes();
  TCR_REQUIRE(static_cast<int>(perm.size()) == n, "permutation size mismatch");
  const DenseMatrix& l0 = r.load_table();
  std::vector<double> planes(static_cast<std::size_t>(kNumDirs) * n, 0.0);
  TableRow table;
  for (int s = 0; s < n; ++s) {
    table.load(l0.row(t.offset(s, perm[s])), k);
    scatter(table, k, t.x_of(s), t.y_of(s), 1.0, planes.data());
  }
  return fold(planes, n);
}

double max_channel_load(const TorusRouting& r, const TrafficMatrix& lambda) {
  // Torus channels all have unit bandwidth, so gamma_max is a plain max.
  const auto gamma = channel_loads(r, lambda);
  return *std::max_element(gamma.begin(), gamma.end());
}

double max_channel_load(const TorusRouting& r, const std::vector<int>& perm) {
  const auto gamma = channel_loads(r, perm);
  return *std::max_element(gamma.begin(), gamma.end());
}

double throughput(const TorusRouting& r, const TrafficMatrix& lambda) {
  return 1.0 / max_channel_load(r, lambda);
}

double uniform_max_load(const TorusRouting& r) {
  // Under uniform traffic the load on a channel equals the class-average of
  // the canonical table: gamma = (1/N) sum_e sum_{c in class} L0[e][c].
  const Torus& t = r.torus();
  const DenseMatrix& l0 = r.load_table();
  double best = 0.0;
  for (int dir = 0; dir < kNumDirs; ++dir) {
    double sum = 0.0;
    for (int e = 0; e < t.num_nodes(); ++e) {
      for (int n = 0; n < t.num_nodes(); ++n) sum += l0(e, 4 * n + dir);
    }
    best = std::max(best, sum / t.num_nodes());
  }
  return best;
}

double uniform_capacity_fraction(const TorusRouting& r) {
  return r.torus().ideal_uniform_load() / uniform_max_load(r);
}

}  // namespace tcr
