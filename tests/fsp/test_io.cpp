#include "fsp/io.h"

#include <gtest/gtest.h>

#include <sstream>

#include "common/check.h"
#include "fsp/taillard.h"

namespace fsbb::fsp {
namespace {

TEST(Io, RoundTripPreservesEverything) {
  const Instance inst = taillard_instance(1);
  std::stringstream ss;
  write_taillard_stream(ss, inst, /*time_seed=*/873654221,
                        /*upper_bound=*/1278, /*lower_bound=*/1232);
  const auto records = read_taillard_stream(ss);
  ASSERT_EQ(records.size(), 1u);
  const InstanceRecord& rec = records.front();
  EXPECT_EQ(rec.instance.ptm(), inst.ptm());
  EXPECT_EQ(rec.time_seed, 873654221);
  ASSERT_TRUE(rec.published_upper_bound.has_value());
  EXPECT_EQ(*rec.published_upper_bound, 1278);
  ASSERT_TRUE(rec.published_lower_bound.has_value());
  EXPECT_EQ(*rec.published_lower_bound, 1232);
}

TEST(Io, ParsesTheCanonicalTextLayout) {
  const std::string text = R"(number of jobs, number of machines, initial seed, upper bound, lower bound :
          4           3   12345        99        90
processing times :
  1  2  3  4
  5  6  7  8
  9 10 11 12
)";
  std::istringstream in(text);
  const auto records = read_taillard_stream(in);
  ASSERT_EQ(records.size(), 1u);
  const Instance& inst = records.front().instance;
  EXPECT_EQ(inst.jobs(), 4);
  EXPECT_EQ(inst.machines(), 3);
  // Matrix is machine-major in the file: row k = machine k across jobs.
  EXPECT_EQ(inst.pt(0, 0), 1);
  EXPECT_EQ(inst.pt(3, 0), 4);
  EXPECT_EQ(inst.pt(0, 2), 9);
  EXPECT_EQ(inst.pt(3, 2), 12);
}

TEST(Io, MultipleInstancesInOneStream) {
  std::stringstream ss;
  write_taillard_stream(ss, taillard_instance(1), 1);
  write_taillard_stream(ss, taillard_instance(2), 2);
  const auto records = read_taillard_stream(ss);
  ASSERT_EQ(records.size(), 2u);
  EXPECT_EQ(records[0].instance.jobs(), 20);
  EXPECT_EQ(records[1].instance.jobs(), 20);
  EXPECT_FALSE(records[0].instance.ptm() == records[1].instance.ptm());
}

TEST(Io, ZeroBoundsBecomeNullopt) {
  std::stringstream ss;
  write_taillard_stream(ss, taillard_instance(1), 42);
  const auto records = read_taillard_stream(ss);
  ASSERT_EQ(records.size(), 1u);
  EXPECT_FALSE(records.front().published_upper_bound.has_value());
  EXPECT_FALSE(records.front().published_lower_bound.has_value());
}

TEST(Io, TruncatedMatrixThrows) {
  const std::string text = R"(header :
  3 2 1 0 0
processing times :
  1 2 3
  4 5
)";
  std::istringstream in(text);
  EXPECT_THROW(read_taillard_stream(in), CheckFailure);
}

TEST(Io, NegativeTimeThrows) {
  const std::string text = "2 2 1 0 0\n1 -2\n3 4\n";
  std::istringstream in(text);
  EXPECT_THROW(read_taillard_stream(in), CheckFailure);
  // A time above what fsp::Time holds must not wrap into a small one.
  std::istringstream too_big("2 2 1 0 0\n4294967297 5\n3 4\n");
  EXPECT_THROW(read_taillard_stream(too_big), CheckFailure);
}

TEST(Io, MissingFileThrows) {
  EXPECT_THROW(read_taillard_file("/nonexistent/path/inst.txt"), CheckFailure);
}

TEST(Io, FileRoundTrip) {
  const std::string path = ::testing::TempDir() + "/fsbb_io_test.txt";
  const Instance inst = taillard_instance(3);
  write_taillard_file(path, inst, 7);
  const auto records = read_taillard_file(path);
  ASSERT_EQ(records.size(), 1u);
  EXPECT_EQ(records.front().instance.ptm(), inst.ptm());
}

TEST(Io, EmptyStreamYieldsNoRecords) {
  std::istringstream in("");
  EXPECT_TRUE(read_taillard_stream(in).empty());
}

}  // namespace
}  // namespace fsbb::fsp
