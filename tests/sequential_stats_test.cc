#include "stats/sequential.h"

#include <gtest/gtest.h>

#include <cmath>
#include <cstring>

#include "stats/chernoff.h"
#include "util/math_util.h"

namespace stratlearn {
namespace {

TEST(SequentialDeltaTest, SeriesSumsToDelta) {
  // sum_i delta * 6/(pi^2 i^2) = delta; check partial sums converge from
  // below.
  double delta = 0.1;
  double partial = 0.0;
  for (int64_t i = 1; i <= 200000; ++i) {
    partial += SequentialDelta(i, delta);
  }
  EXPECT_LT(partial, delta);
  EXPECT_GT(partial, delta * 0.99);
}

TEST(SequentialDeltaTest, FirstTermValue) {
  double delta = 0.05;
  EXPECT_NEAR(SequentialDelta(1, delta), delta * 6.0 / (kPi * kPi), 1e-12);
}

TEST(SequentialDeltaTest, DecreasesQuadratically) {
  double delta = 0.2;
  EXPECT_NEAR(SequentialDelta(10, delta), SequentialDelta(1, delta) / 100.0,
              1e-12);
}

TEST(SequentialThresholdTest, MatchesSumThresholdAtDeltaI) {
  // Equation 6's threshold equals Equation 2's with delta_i substituted:
  // range * sqrt(n/2 ln(1/delta_i)) with delta_i = 6 delta / (pi^2 i^2).
  int64_t n = 40;
  int64_t i = 17;
  double delta = 0.05, range = 3.0;
  double delta_i = SequentialDelta(i, delta);
  EXPECT_NEAR(SequentialSumThreshold(n, i, delta, range),
              SumThreshold(n, delta_i, range), 1e-9);
}

TEST(SequentialThresholdTest, GrowsWithTrialCount) {
  EXPECT_LT(SequentialSumThreshold(50, 10, 0.1, 1.0),
            SequentialSumThreshold(50, 1000, 0.1, 1.0));
}

TEST(SequentialThresholdTest, GrowsSublinearlyWithSamples) {
  double t100 = SequentialSumThreshold(100, 10, 0.1, 1.0);
  double t400 = SequentialSumThreshold(400, 10, 0.1, 1.0);
  EXPECT_NEAR(t400 / t100, 2.0, 1e-9);  // sqrt scaling
}

TEST(SequentialThresholdTest, RangeTimesScaleIsBitIdentical) {
  // PIB and PALO compute the range-free scale once per test round and
  // multiply by each neighbour's range; that must reproduce the
  // per-neighbour threshold exactly, not merely to a tolerance.
  int64_t checked = 0;
  for (int64_t n : {1, 2, 3, 7, 40, 999, 123457}) {
    for (int64_t i : {1, 2, 5, 66, 1000, 98765, 40000000}) {
      for (double delta : {0.001, 0.05, 0.1, 0.2, 0.5, 0.99}) {
        for (double range : {1e-3, 0.37, 1.0, 2.5, 17.125, 3141.59}) {
          double fused = SequentialSumThreshold(n, i, delta, range);
          double scaled = range * SequentialThresholdScale(n, i, delta);
          EXPECT_EQ(std::memcmp(&fused, &scaled, sizeof(double)), 0)
              << "n=" << n << " i=" << i << " delta=" << delta
              << " range=" << range;
          ++checked;
        }
      }
    }
  }
  EXPECT_EQ(checked, 7 * 7 * 6 * 6);
}

TEST(SequentialThresholdTest, NeverNegative) {
  // Degenerate: huge delta and tiny i could make the log negative;
  // the implementation clamps at zero.
  EXPECT_GE(SequentialSumThreshold(1, 1, 0.99, 1.0), 0.0);
}

}  // namespace
}  // namespace stratlearn
