#pragma once

#include <cstddef>
#include <vector>

namespace qolsr::util {

/// Sample-keeping accumulator for the evaluation harness's per-run
/// measurements: `add` appends a sample and `merge` appends another
/// accumulator's samples after its own, so worker partials merged in run
/// order hold exactly the samples of one sequential pass. The moments fold
/// the samples in insertion order with Welford's method on every read;
/// only the result sinks read them, never a runner.
class RunningStats {
 public:
  void add(double x) { samples_.push_back(x); }
  void merge(const RunningStats& other) {
    samples_.insert(samples_.end(), other.samples_.begin(),
                    other.samples_.end());
  }

  std::size_t count() const { return samples_.size(); }
  bool empty() const { return samples_.empty(); }
  double mean() const { return fold().mean; }
  /// Unbiased sample variance (0 when fewer than two samples).
  double variance() const;
  double stddev() const;
  double min() const { return fold().min; }
  double max() const { return fold().max; }

  /// Ascending-sorted copy of the samples, for quantiles and histograms.
  std::vector<double> sorted() const;

 private:
  struct Moments {
    double mean = 0.0, m2 = 0.0, min = 0.0, max = 0.0;
  };
  Moments fold() const;

  std::vector<double> samples_;
};

/// Exact quantile of a sample (linear interpolation between order
/// statistics). `q` in [0,1]. The input is copied; for repeated quantiles
/// sort once and use `quantile_sorted`.
double quantile(std::vector<double> samples, double q);

/// Quantile of an already ascending-sorted sample.
double quantile_sorted(const std::vector<double>& sorted, double q);

/// Counts an ascending-sorted sample into `buckets` equal-width bins over
/// [lo, hi); values below lo land in the first bin, values >= hi in the
/// last. Degenerate ranges (hi <= lo) put everything in the first bin.
std::vector<std::size_t> histogram_sorted(const std::vector<double>& sorted,
                                          double lo, double hi,
                                          std::size_t buckets);

}  // namespace qolsr::util
