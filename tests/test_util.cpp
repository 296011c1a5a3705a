#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <set>
#include <vector>

#include "util/log.h"
#include "util/parse.h"
#include "util/rng.h"
#include "util/stats.h"
#include "util/status.h"
#include "util/timer.h"

namespace p3d::util {
namespace {

TEST(Rng, DeterministicForSameSeed) {
  Rng a(42), b(42);
  for (int i = 0; i < 100; ++i) {
    EXPECT_EQ(a.NextU64(), b.NextU64());
  }
}

TEST(Rng, DifferentSeedsDiverge) {
  Rng a(1), b(2);
  int equal = 0;
  for (int i = 0; i < 64; ++i) {
    if (a.NextU64() == b.NextU64()) ++equal;
  }
  EXPECT_LT(equal, 2);
}

TEST(Rng, BoundedStaysInRange) {
  Rng rng(7);
  for (int i = 0; i < 10000; ++i) {
    EXPECT_LT(rng.NextBounded(17), 17u);
  }
}

TEST(Rng, BoundedCoversRange) {
  Rng rng(9);
  std::set<std::uint64_t> seen;
  for (int i = 0; i < 1000; ++i) seen.insert(rng.NextBounded(8));
  EXPECT_EQ(seen.size(), 8u);
}

TEST(Rng, NextIntInclusiveBounds) {
  Rng rng(3);
  bool saw_lo = false, saw_hi = false;
  for (int i = 0; i < 2000; ++i) {
    const int v = rng.NextInt(-2, 3);
    ASSERT_GE(v, -2);
    ASSERT_LE(v, 3);
    saw_lo |= v == -2;
    saw_hi |= v == 3;
  }
  EXPECT_TRUE(saw_lo);
  EXPECT_TRUE(saw_hi);
}

TEST(Rng, NextDoubleUnitInterval) {
  Rng rng(11);
  double sum = 0.0;
  for (int i = 0; i < 10000; ++i) {
    const double v = rng.NextDouble();
    ASSERT_GE(v, 0.0);
    ASSERT_LT(v, 1.0);
    sum += v;
  }
  EXPECT_NEAR(sum / 10000.0, 0.5, 0.02);
}

TEST(Rng, NextDoubleRange) {
  Rng rng(13);
  for (int i = 0; i < 1000; ++i) {
    const double v = rng.NextDouble(-3.0, 5.0);
    ASSERT_GE(v, -3.0);
    ASSERT_LT(v, 5.0);
  }
}

TEST(Rng, ShuffleIsPermutation) {
  Rng rng(5);
  std::vector<int> v(100);
  for (int i = 0; i < 100; ++i) v[static_cast<std::size_t>(i)] = i;
  auto sorted = v;
  rng.Shuffle(v);
  EXPECT_NE(v, sorted);  // astronomically unlikely to be identity
  std::sort(v.begin(), v.end());
  EXPECT_EQ(v, sorted);
}

TEST(Rng, ForkIndependentStreams) {
  Rng parent(21);
  Rng c1 = parent.Fork();
  Rng c2 = parent.Fork();
  EXPECT_NE(c1.NextU64(), c2.NextU64());
}

TEST(Stats, SummarizeEmpty) {
  const Summary s = Summarize({});
  EXPECT_EQ(s.count, 0u);
  EXPECT_EQ(s.mean, 0.0);
}

TEST(Stats, SummarizeBasics) {
  const Summary s = Summarize({1.0, 2.0, 3.0, 4.0});
  EXPECT_EQ(s.count, 4u);
  EXPECT_DOUBLE_EQ(s.min, 1.0);
  EXPECT_DOUBLE_EQ(s.max, 4.0);
  EXPECT_DOUBLE_EQ(s.mean, 2.5);
  EXPECT_NEAR(s.stddev, std::sqrt(1.25), 1e-12);
}

TEST(Stats, PowerLawFitRecoversParameters) {
  // y = 3e-4 * x^1.2, exactly.
  std::vector<double> x, y;
  for (double v : {100.0, 500.0, 2000.0, 10000.0, 50000.0}) {
    x.push_back(v);
    y.push_back(3e-4 * std::pow(v, 1.2));
  }
  const PowerFit fit = FitPowerLaw(x, y);
  EXPECT_NEAR(fit.a, 3e-4, 1e-8);
  EXPECT_NEAR(fit.b, 1.2, 1e-9);
}

TEST(Stats, PowerLawFitDegenerate) {
  const PowerFit one = FitPowerLaw({5.0}, {2.0});
  EXPECT_EQ(one.a, 0.0);
  const PowerFit same_x = FitPowerLaw({5.0, 5.0}, {2.0, 4.0});
  EXPECT_EQ(same_x.a, 0.0);
}

TEST(Stats, GeometricMean) {
  EXPECT_DOUBLE_EQ(GeometricMean({}), 0.0);
  EXPECT_NEAR(GeometricMean({2.0, 8.0}), 4.0, 1e-12);
  EXPECT_NEAR(GeometricMean({3.0, 3.0, 3.0}), 3.0, 1e-12);
}

TEST(Log, LevelGate) {
  ScopedLogLevel quiet(LogLevel::kSilent);
  EXPECT_EQ(GetLogLevel(), LogLevel::kSilent);
  // Nothing to assert on output; just exercise the paths.
  LogError("suppressed %d", 1);
  LogDebug("suppressed %s", "x");
}

TEST(Log, ScopedRestore) {
  const LogLevel before = GetLogLevel();
  {
    ScopedLogLevel quiet(LogLevel::kError);
    EXPECT_EQ(GetLogLevel(), LogLevel::kError);
  }
  EXPECT_EQ(GetLogLevel(), before);
}

TEST(Log, ParseLevelNamesAndDigits) {
  LogLevel level = LogLevel::kInfo;
  EXPECT_TRUE(ParseLogLevel("silent", &level));
  EXPECT_EQ(level, LogLevel::kSilent);
  EXPECT_TRUE(ParseLogLevel("ERROR", &level));
  EXPECT_EQ(level, LogLevel::kError);
  EXPECT_TRUE(ParseLogLevel("Warn", &level));
  EXPECT_EQ(level, LogLevel::kWarn);
  EXPECT_TRUE(ParseLogLevel("warning", &level));
  EXPECT_EQ(level, LogLevel::kWarn);
  EXPECT_TRUE(ParseLogLevel("info", &level));
  EXPECT_EQ(level, LogLevel::kInfo);
  EXPECT_TRUE(ParseLogLevel("4", &level));
  EXPECT_EQ(level, LogLevel::kDebug);
  EXPECT_TRUE(ParseLogLevel("0", &level));
  EXPECT_EQ(level, LogLevel::kSilent);
}

TEST(Log, ParseLevelRejectsGarbage) {
  LogLevel level = LogLevel::kWarn;
  EXPECT_FALSE(ParseLogLevel("", &level));
  EXPECT_FALSE(ParseLogLevel(nullptr, &level));
  EXPECT_FALSE(ParseLogLevel("5", &level));
  EXPECT_FALSE(ParseLogLevel("loud", &level));
  EXPECT_FALSE(ParseLogLevel("42", &level));
  EXPECT_EQ(level, LogLevel::kWarn);  // untouched on failure
}

TEST(Timer, NanosMonotonicAndConsistentWithSeconds) {
  Timer t;
  const std::int64_t a = t.Nanos();
  const std::int64_t b = t.Nanos();
  EXPECT_GE(a, 0);
  EXPECT_GE(b, a);
  EXPECT_GE(t.Seconds() * 1e9 + 1e6, static_cast<double>(b));
}

TEST(Timer, MeasuresElapsed) {
  Timer t;
  volatile double sink = 0.0;
  for (int i = 0; i < 100000; ++i) {
    sink = sink + std::sqrt(static_cast<double>(i));
  }
  EXPECT_GE(t.Seconds(), 0.0);
  t.Reset();
  EXPECT_LT(t.Seconds(), 1.0);
}


TEST(Status, DefaultIsOk) {
  const Status s;
  EXPECT_TRUE(s.ok());
  EXPECT_EQ(s.code(), StatusCode::kOk);
  EXPECT_TRUE(s.message().empty());
  EXPECT_EQ(s.ToString(), "ok");
  EXPECT_EQ(s, Status::Ok());
}

TEST(Status, ErrorFactoriesCarryCodeAndMessage) {
  const struct {
    Status status;
    StatusCode code;
    const char* name;
  } cases[] = {
      {InvalidArgumentError("bad arg"), StatusCode::kInvalidArgument,
       "invalid_argument"},
      {FailedPreconditionError("not ready"), StatusCode::kFailedPrecondition,
       "failed_precondition"},
      {NotFoundError("missing"), StatusCode::kNotFound, "not_found"},
      {IoError("disk"), StatusCode::kIoError, "io_error"},
      {ParseError("syntax"), StatusCode::kParseError, "parse_error"},
      {InternalError("bug"), StatusCode::kInternal, "internal"},
      {CancelledError("stopped"), StatusCode::kCancelled, "cancelled"},
  };
  for (const auto& c : cases) {
    EXPECT_FALSE(c.status.ok());
    EXPECT_EQ(c.status.code(), c.code);
    EXPECT_FALSE(c.status.message().empty());
    EXPECT_EQ(c.status.ToString(),
              std::string(c.name) + ": " + c.status.message());
    EXPECT_STREQ(StatusCodeName(c.code), c.name);
  }
}

TEST(Status, IsCancelledMatchesOnlyCancellation) {
  EXPECT_TRUE(IsCancelled(CancelledError("user asked")));
  EXPECT_FALSE(IsCancelled(Status::Ok()));
  EXPECT_FALSE(IsCancelled(InternalError("bug")));
}

TEST(Status, EqualityComparesCodeAndMessage) {
  EXPECT_EQ(IoError("x"), IoError("x"));
  EXPECT_FALSE(IoError("x") == IoError("y"));
  EXPECT_FALSE(IoError("x") == ParseError("x"));
}

TEST(StatusOr, HoldsValue) {
  StatusOr<int> v = 42;
  ASSERT_TRUE(v.ok());
  EXPECT_TRUE(v.status().ok());
  EXPECT_EQ(*v, 42);
  EXPECT_EQ(v.value(), 42);
  EXPECT_EQ(v.value_or(-1), 42);
}

TEST(StatusOr, HoldsError) {
  const StatusOr<int> e = NotFoundError("gone");
  EXPECT_FALSE(e.ok());
  EXPECT_EQ(e.status().code(), StatusCode::kNotFound);
  EXPECT_EQ(e.value_or(-1), -1);
}

TEST(StatusOr, CopyAndMovePreserveState) {
  StatusOr<std::vector<int>> v = std::vector<int>{1, 2, 3};
  StatusOr<std::vector<int>> copy = v;
  ASSERT_TRUE(copy.ok());
  EXPECT_EQ(copy->size(), 3u);
  StatusOr<std::vector<int>> moved = std::move(v);
  ASSERT_TRUE(moved.ok());
  EXPECT_EQ((*moved)[2], 3);

  StatusOr<std::vector<int>> err = IoError("nope");
  copy = err;
  EXPECT_FALSE(copy.ok());
  EXPECT_EQ(copy.status(), IoError("nope"));
  copy = std::move(moved);
  ASSERT_TRUE(copy.ok());
  EXPECT_EQ(copy->size(), 3u);
}

TEST(StatusOr, RvalueDerefMovesOut) {
  // The move-out path lets `*Factory()` bind a prvalue result to a value.
  auto factory = []() -> StatusOr<std::vector<int>> {
    return std::vector<int>{7, 8};
  };
  const std::vector<int> got = *factory();
  EXPECT_EQ(got, (std::vector<int>{7, 8}));
}

TEST(Parse, FiniteDoubleAcceptsOnlyWholeFiniteNumbers) {
  EXPECT_EQ(ParseFiniteDouble("1e-5"), 1e-5);
  EXPECT_EQ(ParseFiniteDouble("-3"), -3.0);
  EXPECT_EQ(ParseFiniteDouble(".5"), 0.5);
  for (const char* bad : {"", "abc", "nan", "inf", "-inf", "1e999", "12x",
                          " 1", "1 ", "0x10"}) {
    EXPECT_FALSE(ParseFiniteDouble(bad).has_value()) << bad;
  }
}

TEST(Parse, IntegerChecksWholeTokenAndRange) {
  EXPECT_EQ(ParseInteger("42", 0, 100), 42);
  EXPECT_EQ(ParseInteger("-3", -5, 5), -3);
  for (const char* bad : {"", "abc", "1.5", "1e3", "-3", "101", "7x",
                          "99999999999999999999"}) {
    EXPECT_FALSE(ParseInteger(bad, 0, 100).has_value()) << bad;
  }
}

}  // namespace
}  // namespace p3d::util
