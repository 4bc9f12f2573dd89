#include "fsp/instance.h"

#include <gtest/gtest.h>

#include <limits>

#include "common/check.h"

namespace fsbb::fsp {
namespace {

Matrix<Time> small_pt() {
  Matrix<Time> pt(2, 3);
  pt(0, 0) = 1;
  pt(0, 1) = 2;
  pt(0, 2) = 3;
  pt(1, 0) = 4;
  pt(1, 1) = 5;
  pt(1, 2) = 6;
  return pt;
}

TEST(Instance, BasicAccessors) {
  const Instance inst("tiny", small_pt());
  EXPECT_EQ(inst.jobs(), 2);
  EXPECT_EQ(inst.machines(), 3);
  EXPECT_EQ(inst.name(), "tiny");
  EXPECT_EQ(inst.pt(0, 2), 3);
  EXPECT_EQ(inst.pt(1, 0), 4);
  EXPECT_EQ(inst.total_work(), 21);
}

TEST(Instance, MachinePairsFormula) {
  EXPECT_EQ(Instance("t", small_pt()).machine_pairs(), 3);  // m=3 -> 3 pairs
  Matrix<Time> pt(1, 20, 1);
  EXPECT_EQ(Instance("m20", std::move(pt)).machine_pairs(), 190);
}

TEST(Instance, RejectsEmptyDimensions) {
  EXPECT_THROW(Instance("bad", Matrix<Time>(0, 3)), CheckFailure);
  EXPECT_THROW(Instance("bad", Matrix<Time>(3, 0)), CheckFailure);
}

TEST(Instance, RejectsNegativeTimes) {
  Matrix<Time> pt(2, 2, 1);
  pt(1, 1) = -1;
  EXPECT_THROW(Instance("bad", std::move(pt)), CheckFailure);
  // The total work must stay strictly below the no-incumbent sentinel.
  EXPECT_THROW(Instance("wraps", Matrix<Time>(2, 2, 2000000000)),
               CheckFailure);
  Matrix<Time> at_sentinel(1, 2, 0);
  at_sentinel(0, 1) = std::numeric_limits<Time>::max();
  EXPECT_THROW(Instance("sentinel", std::move(at_sentinel)), CheckFailure);
  Matrix<Time> below(1, 2, 0);
  below(0, 1) = std::numeric_limits<Time>::max() - 1;
  EXPECT_EQ(Instance("fits", std::move(below)).total_work(),
            std::numeric_limits<Time>::max() - 1);
}

TEST(Instance, ZeroTimesAreAllowed) {
  Matrix<Time> pt(2, 2, 0);
  const Instance inst("zeros", std::move(pt));
  EXPECT_EQ(inst.total_work(), 0);
}

TEST(Instance, PtmMatrixViewMatchesAccessor) {
  const Instance inst("tiny", small_pt());
  for (int j = 0; j < inst.jobs(); ++j) {
    for (int k = 0; k < inst.machines(); ++k) {
      EXPECT_EQ(inst.ptm()(j, k), inst.pt(j, k));
    }
  }
}

}  // namespace
}  // namespace fsbb::fsp
