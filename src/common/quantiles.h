#pragma once
// Order statistics over small scalar samples: medians, quantiles and
// trimmed means, behind SignGuard's norm-median reference and the
// similarity statistics. The coordinate-wise GARs work on column tiles
// instead: vec::for_each_column panels for Median and TrMean, and one
// sorting network per tile for Bulyan's coordinate step
// (vec::mean_around_median_columns).

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

// Arithmetic mean; Precondition: non-empty.
double mean(std::span<const double> xs);

// Population standard deviation; Precondition: non-empty.
double stddev(std::span<const double> xs);

}  // namespace signguard::stats
