// Virtual-time metrics series bucketed from the trace event stream.
//
// The run's virtual timeline is cut into fixed windows (100 ms of simulated
// time by default); each window accumulates throughput counters (begun /
// committed / aborted global transactions, certification refusals,
// resubmissions) and load gauges (peak in-flight transactions, peak
// prepared-blocked subtransactions). Counters sum and gauges max under
// Merge, window by window, so merging is commutative and associative and
// the harness can fold per-seed series into a cell in any completion order
// with a byte-identical result.

#ifndef HERMES_TRACE_TIMESERIES_H_
#define HERMES_TRACE_TIMESERIES_H_

#include <cstdint>
#include <set>
#include <string>
#include <utility>
#include <vector>

#include "trace/trace.h"

namespace hermes::trace {

struct TimeSeries {
  static constexpr sim::Duration kDefaultWindow = 100 * sim::kMillisecond;

  // One fixed-width window of virtual time.
  struct Window {
    // Counters: events that happened inside the window; summed on Merge.
    int64_t begun = 0;
    int64_t committed = 0;
    int64_t aborted = 0;
    int64_t refusals = 0;
    int64_t resubmissions = 0;
    // Gauges: peak level observed during the window; maxed on Merge.
    int64_t max_in_flight = 0;
    int64_t max_prepared = 0;

    friend bool operator==(const Window& a, const Window& b) = default;
  };

  sim::Duration window_us = kDefaultWindow;
  std::vector<Window> windows;  // index i covers [i*window_us, (i+1)*...)

  bool empty() const { return windows.empty(); }

  // Window-by-window fold: counters sum, gauges max, the shorter series is
  // padded with empty windows. An empty series adopts the other's width;
  // merging two non-empty series requires equal window_us (mismatched
  // widths are merged by index, which is meaningless — callers keep one
  // width per artifact).
  void Merge(const TimeSeries& other);

  // Deterministic line dump: header plus one line per window.
  std::string ToString() const;

  friend bool operator==(const TimeSeries& a, const TimeSeries& b) = default;
};

// Incremental bucketing: feed events one at a time (in trace order), read
// a consistent snapshot at any point, take the series at the end.
// Attachable to a Tracer as a streaming fold — the workload driver grows
// the run's series this way while the simulation executes, so the series
// stays complete even when the bounded ring has evicted early records.
// Feeding the same events BuildTimeSeries would receive yields an
// identical series.
class TimeSeriesBuilder : public EventFold {
 public:
  explicit TimeSeriesBuilder(
      sim::Duration window_us = TimeSeries::kDefaultWindow);

  void Add(const Event& e);
  void Fold(const Event& e) override { Add(e); }

  // A copy of the series built so far — the mid-run flush snapshot.
  TimeSeries Snapshot() const { return series_; }

  // Moves out the series and resets the builder.
  TimeSeries Finish();

 private:
  TimeSeries series_;
  int64_t in_flight_ = 0;
  std::set<TxnId> begun_;  // guards double counting on duplicate events
  std::set<std::pair<TxnId, SiteId>> prepared_;

  TimeSeries::Window& WindowAt(sim::Time at);
  void Gauges(TimeSeries::Window& w);
};

// Buckets a trace into a series. Only global-transaction events count;
// prepared levels follow certification READY .. local commit/rollback.
TimeSeries BuildTimeSeries(const std::vector<Event>& events,
                           sim::Duration window_us = TimeSeries::kDefaultWindow);

}  // namespace hermes::trace

#endif  // HERMES_TRACE_TIMESERIES_H_
