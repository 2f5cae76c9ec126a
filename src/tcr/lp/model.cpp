#include "tcr/lp/model.hpp"

#include <algorithm>
#include <cmath>

#include "tcr/util/check.hpp"

namespace tcr::lp {

const char* to_string(Status s) {
  switch (s) {
    case Status::Optimal: return "optimal";
    case Status::Infeasible: return "infeasible";
    case Status::Unbounded: return "unbounded";
    case Status::IterationLimit: return "iteration-limit";
    case Status::Numerical: return "numerical";
    case Status::Cancelled: return "cancelled";
  }
  return "?";
}

int Model::add_col(double lo, double up, double cost) {
  TCR_REQUIRE(!std::isnan(lo) && lo < kInf, "lower bound must not be NaN or +inf");
  TCR_REQUIRE(!std::isnan(up) && up > -kInf, "upper bound must not be NaN or -inf");
  TCR_REQUIRE(lo <= up, "variable bounds must satisfy lo <= up");
  TCR_REQUIRE(std::isfinite(cost), "objective coefficient must be finite");
  lo_.push_back(lo);
  up_.push_back(up);
  cost_.push_back(cost);
  return num_cols() - 1;
}

int Model::add_row(RowType type, double rhs) {
  TCR_REQUIRE(std::isfinite(rhs), "row rhs must be finite");
  type_.push_back(type);
  rhs_.push_back(rhs);
  return num_rows() - 1;
}

void Model::add_term(int row, int col, double coeff) {
  TCR_REQUIRE(row >= 0 && row < num_rows(), "row index out of range");
  TCR_REQUIRE(col >= 0 && col < num_cols(), "col index out of range");
  TCR_REQUIRE(std::isfinite(coeff), "constraint coefficient must be finite");
  if (coeff == 0.0) return;
  triplets_.push_back({row, col, coeff});
}

int Model::add_row(RowType type, double rhs, const std::vector<std::pair<int, double>>& terms) {
  const int r = add_row(type, rhs);
  for (const auto& [col, coeff] : terms) add_term(r, col, coeff);
  return r;
}

void Model::set_cost(int col, double cost) {
  TCR_REQUIRE(col >= 0 && col < num_cols(), "col index out of range");
  TCR_REQUIRE(std::isfinite(cost), "objective coefficient must be finite");
  cost_[col] = cost;
}

void Model::set_upper(int col, double up) {
  TCR_REQUIRE(col >= 0 && col < num_cols(), "col index out of range");
  TCR_REQUIRE(!std::isnan(up) && up > -kInf && up >= lo_[col],
              "upper bound must not be NaN, -inf or below the lower bound");
  up_[col] = up;
}

void Model::set_rhs(int row, double rhs) {
  TCR_REQUIRE(row >= 0 && row < num_rows(), "row index out of range");
  TCR_REQUIRE(std::isfinite(rhs), "row rhs must be finite");
  rhs_[row] = rhs;
}

double Model::objective_value(const std::vector<double>& x) const {
  TCR_REQUIRE(static_cast<int>(x.size()) == num_cols(), "assignment size mismatch");
  double obj = 0.0;
  for (int j = 0; j < num_cols(); ++j) obj += cost_[j] * x[j];
  return obj;
}

double Model::max_violation(const std::vector<double>& x) const {
  TCR_REQUIRE(static_cast<int>(x.size()) == num_cols(), "assignment size mismatch");
  std::vector<double> activity(static_cast<std::size_t>(num_rows()), 0.0);
  for (const auto& t : triplets_) activity[t.row] += t.value * x[t.col];
  double viol = 0.0;
  for (int i = 0; i < num_rows(); ++i) {
    const double a = activity[i];
    switch (type_[i]) {
      case RowType::LE: viol = std::max(viol, a - rhs_[i]); break;
      case RowType::GE: viol = std::max(viol, rhs_[i] - a); break;
      case RowType::EQ: viol = std::max(viol, std::abs(a - rhs_[i])); break;
    }
  }
  for (int j = 0; j < num_cols(); ++j) {
    viol = std::max(viol, lo_[j] - x[j]);
    viol = std::max(viol, x[j] - up_[j]);
  }
  return viol;
}

}  // namespace tcr::lp
