#include "common/cli.h"

#include <gtest/gtest.h>

#include "common/check.h"

namespace fsbb {
namespace {

CliArgs parse(std::initializer_list<const char*> argv,
              std::vector<std::string> known,
              std::vector<std::string> bool_flags = {}) {
  std::vector<const char*> v(argv);
  return CliArgs::parse(static_cast<int>(v.size()), v.data(), known,
                        bool_flags);
}

TEST(Cli, ParsesSeparateAndEqualsForms) {
  const auto args = parse({"prog", "--pool", "8192", "--policy=shared"},
                          {"pool", "policy"});
  EXPECT_EQ(args.get_or("pool", ""), "8192");
  EXPECT_EQ(args.get_or("policy", ""), "shared");
  EXPECT_EQ(args.get_int_or("pool", 0), 8192);
}

TEST(Cli, PositionalArgumentsCollected) {
  const auto args = parse({"prog", "file1", "--n", "5", "file2"}, {"n"});
  ASSERT_EQ(args.positional().size(), 2u);
  EXPECT_EQ(args.positional()[0], "file1");
  EXPECT_EQ(args.positional()[1], "file2");
  EXPECT_EQ(args.program(), "prog");
}

TEST(Cli, UnknownFlagThrows) {
  EXPECT_THROW(parse({"prog", "--nope", "1"}, {"yes"}), CheckFailure);
  EXPECT_THROW(parse({"prog", "--nope=1"}, {"yes"}), CheckFailure);
}

TEST(Cli, MissingValueThrows) {
  EXPECT_THROW(parse({"prog", "--pool"}, {"pool"}), CheckFailure);
}

TEST(Cli, DefaultsWhenAbsent) {
  const auto args = parse({"prog"}, {"pool"});
  EXPECT_FALSE(args.has("pool"));
  EXPECT_EQ(args.get_int_or("pool", 4096), 4096);
  EXPECT_DOUBLE_EQ(args.get_double_or("x", 1.5), 1.5);
  EXPECT_FALSE(args.get("pool").has_value());
}

TEST(Cli, BooleanSwitchesNeedNoValue) {
  const auto args = parse({"prog", "--json", "--pool", "64"}, {"pool"},
                          {"json", "all"});
  EXPECT_TRUE(args.has("json"));
  EXPECT_FALSE(args.has("all"));
  EXPECT_EQ(args.get_int_or("pool", 0), 64);
  // A trailing switch must not consume a missing value.
  EXPECT_TRUE(parse({"prog", "--all"}, {}, {"all"}).has("all"));
  // Unknown switches still throw.
  EXPECT_THROW(parse({"prog", "--verbose"}, {"pool"}, {"json"}), CheckFailure);
}

TEST(Cli, HelpIsAcceptedByEveryParser) {
  // No parser declares --help, yet none rejects it: every tool answers it
  // with its usage text instead of "unknown flag --help".
  EXPECT_TRUE(parse({"prog", "--help"}, {}).help());
  const auto args =
      parse({"prog", "--pool", "8", "--help"}, {"pool"}, {"json"});
  EXPECT_TRUE(args.help());
  EXPECT_EQ(args.get_int_or("pool", 0), 8);
  EXPECT_FALSE(parse({"prog", "--pool", "8"}, {"pool"}).help());
  // Other undeclared flags still throw.
  EXPECT_THROW(parse({"prog", "--help", "--nope"}, {}), CheckFailure);
}

TEST(Cli, DoubleParsing) {
  const auto args = parse({"prog", "--ratio", "2.75"}, {"ratio"});
  EXPECT_DOUBLE_EQ(args.get_double_or("ratio", 0), 2.75);
}

}  // namespace
}  // namespace fsbb
