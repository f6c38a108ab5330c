// Fixed-bucket latency histogram (power-of-two microsecond buckets).
//
// Recording is O(1) with no allocation, so the histogram can sit directly
// inside core::Metrics and be updated on every global commit. Percentiles
// are estimated by linear interpolation inside the containing bucket and
// clamped to the observed [min, max], which makes p100 exact and keeps the
// p50/p95/p99 error below one bucket width. Purely integer state: merging
// and copying are trivially deterministic.

#ifndef HERMES_TRACE_HISTOGRAM_H_
#define HERMES_TRACE_HISTOGRAM_H_

#include <array>
#include <cstdint>
#include <string>

namespace hermes::trace {

class Histogram {
 public:
  // Bucket 0 holds values <= 0; bucket i >= 1 holds [2^(i-1), 2^i).
  // 48 buckets cover up to 2^47 us, far beyond any simulated run.
  static constexpr int kBuckets = 48;

  void Add(int64_t value);
  void Merge(const Histogram& other);
  void Clear() { *this = Histogram(); }

  int64_t count() const { return count_; }
  int64_t min() const { return count_ == 0 ? 0 : min_; }
  int64_t max() const { return max_; }
  int64_t bucket(int i) const { return buckets_[static_cast<size_t>(i)]; }

  // Estimated value at percentile p in [0, 100]. 0 when empty.
  int64_t Percentile(double p) const;
  // Percentile converted from microseconds to milliseconds.
  double PercentileMs(double p) const {
    return static_cast<double>(Percentile(p)) / 1000.0;
  }

  // "n=.. p50=..ms p95=..ms p99=..ms max=..ms"
  std::string ToString() const;

 private:
  static int BucketIndex(int64_t value);

  std::array<int64_t, kBuckets> buckets_{};
  int64_t count_ = 0;
  int64_t min_ = 0;
  int64_t max_ = 0;
};

}  // namespace hermes::trace

#endif  // HERMES_TRACE_HISTOGRAM_H_
