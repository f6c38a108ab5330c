#include "trace/timeseries.h"

#include <algorithm>
#include <set>
#include <utility>

#include "common/str.h"

namespace hermes::trace {

void TimeSeries::Merge(const TimeSeries& other) {
  if (windows.empty()) window_us = other.window_us;
  if (other.windows.size() > windows.size()) {
    windows.resize(other.windows.size());
  }
  for (size_t i = 0; i < other.windows.size(); ++i) {
    Window& w = windows[i];
    const Window& o = other.windows[i];
    w.begun += o.begun;
    w.committed += o.committed;
    w.aborted += o.aborted;
    w.refusals += o.refusals;
    w.resubmissions += o.resubmissions;
    w.max_in_flight = std::max(w.max_in_flight, o.max_in_flight);
    w.max_prepared = std::max(w.max_prepared, o.max_prepared);
  }
}

std::string TimeSeries::ToString() const {
  std::string out = StrCat("series window_us=", window_us, " windows=",
                           windows.size(), "\n");
  for (size_t i = 0; i < windows.size(); ++i) {
    const Window& w = windows[i];
    StrAppend(out, "w", i, " begun=", w.begun, " committed=", w.committed,
              " aborted=", w.aborted, " refusals=", w.refusals, " resub=",
              w.resubmissions, " max_in_flight=", w.max_in_flight,
              " max_prepared=", w.max_prepared, "\n");
  }
  return out;
}

TimeSeriesBuilder::TimeSeriesBuilder(sim::Duration window_us) {
  series_.window_us =
      window_us <= 0 ? TimeSeries::kDefaultWindow : window_us;
}

TimeSeries::Window& TimeSeriesBuilder::WindowAt(sim::Time at) {
  const size_t idx =
      at <= 0 ? 0 : static_cast<size_t>(at / series_.window_us);
  if (idx >= series_.windows.size()) {
    // New windows inherit the current levels as their starting peaks: a
    // transaction in flight across a quiet window still loads it.
    TimeSeries::Window carry;
    carry.max_in_flight = in_flight_;
    carry.max_prepared = static_cast<int64_t>(prepared_.size());
    series_.windows.resize(idx + 1, carry);
  }
  return series_.windows[idx];
}

void TimeSeriesBuilder::Gauges(TimeSeries::Window& w) {
  w.max_in_flight = std::max(w.max_in_flight, in_flight_);
  w.max_prepared =
      std::max(w.max_prepared, static_cast<int64_t>(prepared_.size()));
}

void TimeSeriesBuilder::Add(const Event& e) {
  if (!e.txn.valid() || !e.txn.global() || e.at < 0) return;
  switch (e.kind) {
    case EventKind::kTxnBegin: {
      if (!begun_.insert(e.txn).second) break;
      TimeSeries::Window& w = WindowAt(e.at);
      ++w.begun;
      ++in_flight_;
      Gauges(w);
      break;
    }
    case EventKind::kTxnEnd: {
      if (begun_.erase(e.txn) == 0) break;
      TimeSeries::Window& w = WindowAt(e.at);
      if (e.ok) {
        ++w.committed;
      } else {
        ++w.aborted;
      }
      --in_flight_;
      Gauges(w);
      break;
    }
    case EventKind::kCertReady: {
      TimeSeries::Window& w = WindowAt(e.at);
      prepared_.insert({e.txn, e.site});
      Gauges(w);
      break;
    }
    case EventKind::kLocalCommit:
    case EventKind::kLocalAbort: {
      TimeSeries::Window& w = WindowAt(e.at);
      prepared_.erase({e.txn, e.site});
      Gauges(w);
      break;
    }
    case EventKind::kCertRefuse: {
      ++WindowAt(e.at).refusals;
      break;
    }
    case EventKind::kResubmitStart: {
      ++WindowAt(e.at).resubmissions;
      break;
    }
    default:
      break;
  }
}

TimeSeries TimeSeriesBuilder::Finish() {
  TimeSeries out = std::move(series_);
  series_ = TimeSeries{};
  series_.window_us = out.window_us;
  in_flight_ = 0;
  begun_.clear();
  prepared_.clear();
  return out;
}

TimeSeries BuildTimeSeries(const std::vector<Event>& events,
                           sim::Duration window_us) {
  TimeSeriesBuilder b(window_us);
  for (const Event& e : events) b.Add(e);
  return b.Finish();
}

}  // namespace hermes::trace
