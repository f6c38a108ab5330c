#include "trace/histogram.h"

#include <algorithm>
#include <bit>
#include <cmath>

#include "common/str.h"

namespace hermes::trace {

int Histogram::BucketIndex(int64_t value) {
  if (value <= 0) return 0;
  const int width = std::bit_width(static_cast<uint64_t>(value));
  return std::min(width, kBuckets - 1);
}

void Histogram::Add(int64_t value) {
  ++buckets_[static_cast<size_t>(BucketIndex(value))];
  if (count_ == 0 || value < min_) min_ = value;
  if (value > max_) max_ = value;
  ++count_;
}

void Histogram::Merge(const Histogram& other) {
  if (other.count_ == 0) return;
  for (int i = 0; i < kBuckets; ++i) {
    buckets_[static_cast<size_t>(i)] +=
        other.buckets_[static_cast<size_t>(i)];
  }
  if (count_ == 0 || other.min_ < min_) min_ = other.min_;
  max_ = std::max(max_, other.max_);
  count_ += other.count_;
}

int64_t Histogram::Percentile(double p) const {
  if (count_ == 0) return 0;
  const double clamped = std::clamp(p, 0.0, 100.0);
  // 1-based rank of the requested order statistic.
  const int64_t rank = std::max<int64_t>(
      1, static_cast<int64_t>(std::ceil(clamped / 100.0 *
                                        static_cast<double>(count_))));
  int64_t cumulative = 0;
  for (int i = 0; i < kBuckets; ++i) {
    const int64_t in_bucket = buckets_[static_cast<size_t>(i)];
    if (in_bucket == 0) continue;
    cumulative += in_bucket;
    if (cumulative < rank) continue;
    // Interpolate linearly inside bucket i: [lower, upper). The last
    // bucket is unbounded above, so its effective upper edge is the
    // largest value actually observed.
    const int64_t lower = i == 0 ? 0 : int64_t{1} << (i - 1);
    int64_t upper = i == 0 ? 1 : int64_t{1} << i;
    if (i == kBuckets - 1) upper = std::max(upper, max_);
    const int64_t into = rank - (cumulative - in_bucket);  // 1..in_bucket
    const double fraction =
        static_cast<double>(into) / static_cast<double>(in_bucket);
    const int64_t estimate =
        lower + static_cast<int64_t>(
                    static_cast<double>(upper - lower) * fraction);
    return std::clamp(estimate, min_, max_);
  }
  return max_;
}

std::string Histogram::ToString() const {
  return StrCat("n=", count_, " p50=", PercentileMs(50), "ms p95=",
                PercentileMs(95), "ms p99=", PercentileMs(99),
                "ms max=", static_cast<double>(max_) / 1000.0, "ms");
}

}  // namespace hermes::trace
