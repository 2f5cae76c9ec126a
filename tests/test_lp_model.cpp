// LP Model builder API: bookkeeping, validation helpers, error paths.
#include <gtest/gtest.h>

#include "tcr/lp/model.hpp"
#include "tcr/util/check.hpp"

namespace tcr::lp {
namespace {

TEST(Model, ColumnAndRowBookkeeping) {
  Model m;
  const int x = m.add_col(0, 2, 1.5);
  const int y = m.add_col(-kInf, kInf, -1.0);
  EXPECT_EQ(x, 0);
  EXPECT_EQ(y, 1);
  EXPECT_EQ(m.num_cols(), 2);
  EXPECT_DOUBLE_EQ(m.lower(x), 0.0);
  EXPECT_DOUBLE_EQ(m.upper(x), 2.0);
  EXPECT_DOUBLE_EQ(m.cost(y), -1.0);

  const int r = m.add_row(RowType::LE, 4.0, {{x, 1.0}, {y, 2.0}});
  EXPECT_EQ(m.num_rows(), 1);
  EXPECT_EQ(m.row_type(r), RowType::LE);
  EXPECT_DOUBLE_EQ(m.rhs(r), 4.0);
  EXPECT_EQ(m.num_terms(), 2u);

  m.set_cost(x, 3.0);
  EXPECT_DOUBLE_EQ(m.cost(x), 3.0);
}

TEST(Model, SetUpperEditsTheBoundInPlace) {
  Model m;
  const int x = m.add_col(1.0, kInf, 1.0);
  m.set_upper(x, 2.5);
  EXPECT_DOUBLE_EQ(m.upper(x), 2.5);
  m.set_upper(x, 1.0);  // a fixed column is legal
  EXPECT_DOUBLE_EQ(m.upper(x), 1.0);
  EXPECT_THROW(m.set_upper(x, 0.5), Error);  // below the lower bound
  EXPECT_THROW(m.set_upper(x, std::numeric_limits<double>::quiet_NaN()), Error);
  EXPECT_THROW(m.set_upper(x + 1, 3.0), Error);
  EXPECT_DOUBLE_EQ(m.upper(x), 1.0);
}

TEST(Model, ZeroCoefficientsAreDropped) {
  Model m;
  const int x = m.add_col(0, 1, 0);
  const int r = m.add_row(RowType::EQ, 0.0);
  m.add_term(r, x, 0.0);
  EXPECT_EQ(m.num_terms(), 0u);
}

TEST(Model, ObjectiveValueAndViolation) {
  Model m;
  const int x = m.add_col(0, 10, 2.0);
  const int y = m.add_col(0, 10, -1.0);
  m.add_row(RowType::LE, 5.0, {{x, 1.0}, {y, 1.0}});
  m.add_row(RowType::GE, 1.0, {{x, 1.0}});
  m.add_row(RowType::EQ, 3.0, {{y, 1.0}});

  EXPECT_DOUBLE_EQ(m.objective_value({2.0, 3.0}), 1.0);
  EXPECT_DOUBLE_EQ(m.max_violation({2.0, 3.0}), 0.0);
  // x + y = 7 > 5 violates row 0 by 2.
  EXPECT_DOUBLE_EQ(m.max_violation({4.0, 3.0}), 2.0);
  // x below its row-1 bound by 1 and y off the equality by 3.
  EXPECT_DOUBLE_EQ(m.max_violation({0.0, 0.0}), 3.0);
  // Bound violation: x = 12 exceeds its upper bound by 2.
  EXPECT_DOUBLE_EQ(m.max_violation({12.0, 3.0}), 10.0);  // row 0: 15 > 5 by 10
}

TEST(Model, RejectsBadInput) {
  Model m;
  EXPECT_THROW(m.add_col(1.0, 0.0, 0.0), Error);  // lo > up
  const int x = m.add_col(0, 1, 0);
  EXPECT_THROW(m.add_row(RowType::LE,
                         std::numeric_limits<double>::infinity()),
               Error);
  const int r = m.add_row(RowType::LE, 1.0);
  EXPECT_THROW(m.add_term(r, x + 5, 1.0), Error);
  EXPECT_THROW(m.add_term(r + 5, x, 1.0), Error);
  EXPECT_THROW(m.set_cost(x + 5, 1.0), Error);
  EXPECT_THROW(m.objective_value({1.0, 2.0}), Error);  // wrong arity
}

TEST(Model, RejectsNonFiniteInput) {
  const double nan = std::numeric_limits<double>::quiet_NaN();
  Model m;
  // NaN anywhere in a column definition is rejected at the door — a NaN
  // bound or cost would otherwise poison every downstream dot product.
  EXPECT_THROW(m.add_col(nan, 1.0, 0.0), Error);
  EXPECT_THROW(m.add_col(0.0, nan, 0.0), Error);
  EXPECT_THROW(m.add_col(0.0, 1.0, nan), Error);
  EXPECT_THROW(m.add_col(0.0, 1.0, kInf), Error);   // infinite cost
  EXPECT_THROW(m.add_col(kInf, kInf, 0.0), Error);  // lo = +inf
  EXPECT_THROW(m.add_col(-kInf, -kInf, 0.0), Error);  // up = -inf
  EXPECT_EQ(m.num_cols(), 0);

  const int x = m.add_col(-kInf, kInf, 1.0);  // infinite BOUNDS stay legal
  const int r = m.add_row(RowType::LE, 1.0);
  EXPECT_THROW(m.add_term(r, x, nan), Error);
  EXPECT_THROW(m.add_term(r, x, kInf), Error);
  EXPECT_THROW(m.add_row(RowType::GE, nan), Error);
  EXPECT_THROW(m.set_cost(x, nan), Error);
  EXPECT_THROW(m.set_cost(x, -kInf), Error);
  EXPECT_EQ(m.num_terms(), 0u);
}

TEST(Model, SenseRoundTrip) {
  Model m;
  EXPECT_EQ(m.sense(), Sense::Minimize);
  m.set_sense(Sense::Maximize);
  EXPECT_EQ(m.sense(), Sense::Maximize);
}

TEST(Model, StatusStrings) {
  EXPECT_STREQ(to_string(Status::Optimal), "optimal");
  EXPECT_STREQ(to_string(Status::Infeasible), "infeasible");
  EXPECT_STREQ(to_string(Status::Unbounded), "unbounded");
  EXPECT_STREQ(to_string(Status::IterationLimit), "iteration-limit");
}

}  // namespace
}  // namespace tcr::lp
