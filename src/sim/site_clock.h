// Per-site real-time clocks with injectable offset and drift.
//
// Section 5.2 of the paper proposes generating serial numbers from "real
// time site clocks, expanded with the unique site identifier" and claims
// that clock drift affects only the number of unnecessary aborts, never
// correctness. SiteClock lets experiments (the E7 clock_drift sweep) skew
// each site's clock relative to the simulation's global virtual time to
// test exactly that claim.

#ifndef HERMES_SIM_SITE_CLOCK_H_
#define HERMES_SIM_SITE_CLOCK_H_

#include "sim/event_loop.h"

namespace hermes::sim {

class SiteClock {
 public:
  // offset: constant skew added to true time. drift_ppm: parts-per-million
  // rate error (e.g. 100 => clock runs 0.01% fast).
  explicit SiteClock(const EventLoop* loop, Duration offset = 0,
                     int64_t drift_ppm = 0)
      : loop_(loop), offset_(offset), drift_ppm_(drift_ppm) {}

  // The site's local reading of the current time.
  Time Read() const {
    const Time t = loop_->Now();
    return t + offset_ + t * drift_ppm_ / 1'000'000;
  }

  Duration offset() const { return offset_; }
  int64_t drift_ppm() const { return drift_ppm_; }

  void set_offset(Duration offset) { offset_ = offset; }
  void set_drift_ppm(int64_t ppm) { drift_ppm_ = ppm; }

 private:
  const EventLoop* loop_;
  Duration offset_;
  int64_t drift_ppm_;
};

}  // namespace hermes::sim

#endif  // HERMES_SIM_SITE_CLOCK_H_
