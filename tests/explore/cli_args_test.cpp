// Strict numeric command-line arguments: one whole decimal token in range,
// or a usage error. The bounds are the ones `explore` and `run_sweep` pass.
#include "cli_args.hpp"

#include <gtest/gtest.h>

#include "explore/campaign.hpp"

namespace bftsim::cli {
namespace {

using explore::kMaxEventsRange;
using explore::kScenariosRange;
using explore::kShrinkRunsRange;

std::optional<std::uint64_t> whole(std::string_view token, std::uint64_t lo,
                                   std::uint64_t hi) {
  return parse(token, lo, hi);
}

std::optional<std::uint64_t> in(std::string_view token,
                                explore::IntRange range) {
  return whole(token, range.lo, range.hi);
}

TEST(CliArgs, RejectsWhatIsNotOneWholeDecimalToken) {
  for (const std::string_view token :
       {"", "abc", "12x", "-1", "+5", " 5", "5 ", "0x10", "1e3", "1.5",
        "18446744073709551616"}) {
    EXPECT_FALSE(whole(token, 0, UINT64_MAX)) << '"' << token << '"';
  }
}

TEST(CliArgs, RejectsSeedsFromTwoToTheFiftyThree) {
  EXPECT_EQ(whole("9007199254740991", 0, kMaxSeed), kMaxSeed);
  EXPECT_FALSE(whole("9007199254740992", 0, kMaxSeed));
  EXPECT_FALSE(whole("9007199254740993", 0, kMaxSeed));
}

TEST(CliArgs, CapsJobsAtTheIntraJobsBound) {
  EXPECT_EQ(whole("0", 0, kMaxJobs), 0u);  // one worker per core
  EXPECT_EQ(whole("128", 0, kMaxJobs), 128u);
  EXPECT_FALSE(whole("129", 0, kMaxJobs));
  EXPECT_FALSE(whole("-1", 0, kMaxJobs));
  EXPECT_FALSE(whole("100000", 0, kMaxJobs));
}

TEST(CliArgs, ReusesTheExploreClauseBounds) {
  EXPECT_FALSE(in("0", kScenariosRange));
  EXPECT_EQ(in("1000000", kScenariosRange), 1'000'000u);
  EXPECT_FALSE(in("1000001", kScenariosRange));
  EXPECT_FALSE(in("9999", kMaxEventsRange));
  EXPECT_FALSE(in("1000000001", kMaxEventsRange));
  EXPECT_FALSE(in("0", kShrinkRunsRange));
  EXPECT_FALSE(in("100001", kShrinkRunsRange));
  EXPECT_EQ(in("60", kShrinkRunsRange), 60u);
}

TEST(CliArgs, NumbersMustBeFiniteAndInRange) {
  EXPECT_EQ(parse("60000", 1e-6, 1e12), 60000.0);
  EXPECT_EQ(parse("2.5", 1e-6, 1e12), 2.5);
  for (const std::string_view token :
       {"", "abc", "-1", "0", "inf", "nan", "1e13", "5ms", " 5", "0x10"}) {
    EXPECT_FALSE(parse(token, 1e-6, 1e12)) << '"' << token << '"';
  }
}

}  // namespace
}  // namespace bftsim::cli
