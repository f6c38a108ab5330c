// Capped exponential backoff for retransmission timers.

#ifndef HERMES_SIM_BACKOFF_H_
#define HERMES_SIM_BACKOFF_H_

#include <algorithm>

#include "sim/event_loop.h"

namespace hermes::sim {

// `initial` doubled `doublings` times, each doubling capped at `cap`: the
// value of
//   Duration d = initial;
//   for (int i = 0; i < doublings; ++i) d = std::min(d * 2, cap);
// for non-negative durations, in at most 64 steps however many doublings
// are asked for — the loop stops once the delay stops changing (at `cap`,
// or at 0). With initial > cap, 0 doublings give `initial` and any more
// give `cap`.
inline Duration CappedBackoff(Duration initial, Duration cap, int doublings) {
  Duration delay = initial;
  for (int i = 0; i < doublings; ++i) {
    const Duration next = std::min(delay * 2, cap);
    if (next == delay) break;
    delay = next;
  }
  return delay;
}

}  // namespace hermes::sim

#endif  // HERMES_SIM_BACKOFF_H_
