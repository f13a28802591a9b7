#pragma once
// Order statistics over small scalar samples: medians, quantiles and
// trimmed means. These back the coordinate-wise robust aggregation rules
// and SignGuard's norm-median reference.

#include <cstddef>
#include <span>
#include <vector>

namespace signguard::stats {

// Median of a sample (copies, so the input is untouched). For even sizes
// returns the average of the two middle elements. Returns quiet NaN on an
// empty sample (callers that cannot tolerate NaN must check first).
double median(std::span<const double> xs);
double median(std::span<const float> xs);

// q-quantile by linear interpolation between order statistics. q is
// clamped to [0, 1]; the interpolation indices are clamped to the sample,
// so q == 1.0 is safe even when FP round-off pushes ceil(pos) past the
// last element. Returns quiet NaN on an empty sample.
double quantile(std::span<const double> xs, double q);

// Mean after removing the `trim` smallest and `trim` largest entries.
// Precondition: xs.size() > 2 * trim.
double trimmed_mean(std::span<const double> xs, std::size_t trim);

// Mean of the k values closest to the median of xs (Bulyan's coordinate
// step), computed in place: xs is left permuted (NaNs last, the numbers
// before them in ascending order). The median is that of the numbers;
// the k values are added in ascending |x - med| order, the lower value
// first on equal distance, so the result depends only on the values in
// xs, never on their order. A NaN is never nearer the median than a
// number and never enters a comparison: with fewer than k numbers in xs
// the result is NaN. Precondition: 1 <= k <= xs.size().
double mean_around_median_in_place(std::span<float> xs, std::size_t k);

// Arithmetic mean; Precondition: non-empty.
double mean(std::span<const double> xs);

// Population standard deviation; Precondition: non-empty.
double stddev(std::span<const double> xs);

}  // namespace signguard::stats
