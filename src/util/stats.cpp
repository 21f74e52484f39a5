#include "util/stats.hpp"

#include <algorithm>
#include <cmath>

namespace qolsr::util {

RunningStats::Moments RunningStats::fold() const {
  Moments m;
  std::size_t n = 0;
  for (const double x : samples_) {
    if (n == 0) {
      m.min = m.max = x;
    } else {
      m.min = std::min(m.min, x);
      m.max = std::max(m.max, x);
    }
    ++n;
    const double delta = x - m.mean;
    m.mean += delta / static_cast<double>(n);
    m.m2 += delta * (x - m.mean);
  }
  return m;
}

double RunningStats::variance() const {
  if (samples_.size() < 2) return 0.0;
  return fold().m2 / static_cast<double>(samples_.size() - 1);
}

double RunningStats::stddev() const { return std::sqrt(variance()); }

std::vector<double> RunningStats::sorted() const {
  std::vector<double> out = samples_;
  std::sort(out.begin(), out.end());
  return out;
}

double quantile_sorted(const std::vector<double>& sorted, double q) {
  if (sorted.empty()) return 0.0;
  if (q <= 0.0) return sorted.front();
  if (q >= 1.0) return sorted.back();
  const double pos = q * static_cast<double>(sorted.size() - 1);
  const auto idx = static_cast<std::size_t>(pos);
  const double frac = pos - static_cast<double>(idx);
  if (idx + 1 >= sorted.size()) return sorted.back();
  return sorted[idx] * (1.0 - frac) + sorted[idx + 1] * frac;
}

double quantile(std::vector<double> samples, double q) {
  std::sort(samples.begin(), samples.end());
  return quantile_sorted(samples, q);
}

std::vector<std::size_t> histogram_sorted(const std::vector<double>& sorted,
                                          double lo, double hi,
                                          std::size_t buckets) {
  if (buckets == 0) buckets = 1;
  std::vector<std::size_t> counts(buckets, 0);
  const double width = (hi - lo) / static_cast<double>(buckets);
  for (const double x : sorted) {
    std::size_t bin = 0;
    if (width > 0.0 && x > lo) {
      bin = static_cast<std::size_t>((x - lo) / width);
      if (bin >= buckets) bin = buckets - 1;
    }
    counts[bin] += 1;
  }
  return counts;
}

}  // namespace qolsr::util
