#ifndef STRATLEARN_STATS_SEQUENTIAL_H_
#define STRATLEARN_STATS_SEQUENTIAL_H_

#include <cstdint>

namespace stratlearn {

/// Support for PIB's sequential hypothesis testing (Section 3.2).
///
/// A single Equation-2 test spends its entire false-positive budget delta
/// at once. PIB instead performs an unbounded series of tests; the i-th
/// test runs at confidence delta_i = delta * 6 / (pi^2 i^2), so that
/// sum_i delta_i = delta and Theorem 1's lifetime guarantee holds.

/// delta_i = delta * 6 / (pi^2 * i^2) for the i-th test (i >= 1).
double SequentialDelta(int64_t test_index, double delta);

/// Equation 6's threshold on the Delta~ sum after |S| = n samples of the
/// current strategy, when the cumulative number of (strategy, neighbour)
/// trials so far is `trial_count` = i:
///   range * sqrt(n/2 * ln(i^2 * pi^2 / (6 * delta))).
double SequentialSumThreshold(int64_t n, int64_t trial_count, double delta,
                              double range);

/// The range-free factor of SequentialSumThreshold:
///   sqrt(n/2 * ln(i^2 * pi^2 / (6 * delta))),
/// so that range * SequentialThresholdScale(n, i, delta) equals
/// SequentialSumThreshold(n, i, delta, range) bit for bit. A test round
/// over many neighbours computes it once and scales it by each range.
double SequentialThresholdScale(int64_t n, int64_t trial_count,
                                double delta);

}  // namespace stratlearn

#endif  // STRATLEARN_STATS_SEQUENTIAL_H_
