// Simulated inter-site message transport.
//
// The paper (section 2) assumes the 2PC messages "are not corrupted, lost or
// out of order"; by default the Network therefore provides reliable FIFO
// delivery between every ordered pair of sites, with a configurable latency
// model. A fault-injection layer can weaken that assumption on purpose:
// per-link message loss, duplicate delivery, bounded reordering and timed
// partitions, all driven by the same deterministic seeded RNG — so the 2PC
// timeout/retransmission machinery in the Coordinator and the duplicate-safe
// Agent handlers can be exercised reproducibly. Messages a site sends to
// itself (coordinator to co-located agent) use in-process delivery and are
// exempt from all injected faults.
//
// Payloads are type-erased (std::any) so the same transport carries the 2PC
// Agent protocol of the core DTM as well as the centralized CGM baseline
// protocol without the transport depending on either.

#ifndef HERMES_NET_NETWORK_H_
#define HERMES_NET_NETWORK_H_

#include <any>
#include <cstddef>
#include <cstdint>
#include <functional>
#include <vector>

#include "common/ids.h"
#include "common/rng.h"
#include "sim/event_loop.h"
#include "trace/trace.h"

namespace hermes::net {

struct NetworkConfig {
  // One-way delay between distinct sites.
  sim::Duration base_latency = 1 * sim::kMillisecond;
  // Uniform random extra delay in [0, jitter].
  sim::Duration jitter = 0;
  uint64_t seed = 1;

  // --- fault injection (inter-site messages only) -------------------------
  // Probability that a message is silently dropped (per-link overrides via
  // SetLinkLoss take precedence).
  double loss_prob = 0;
  // Probability that a second copy of a delivered message is also delivered
  // after an independent extra delay (outside the FIFO order).
  double dup_prob = 0;
  // Probability that a message skips the per-pair FIFO clamp and takes a
  // random extra delay in [0, reorder_window], letting later sends overtake
  // it.
  double reorder_prob = 0;
  sim::Duration reorder_window = 5 * sim::kMillisecond;
};

struct Envelope {
  SiteId from = kInvalidSite;
  SiteId to = kInvalidSite;
  std::any payload;
};

class Network {
 public:
  using Handler = std::function<void(const Envelope&)>;

  // `tracer` may be null (tracing disabled).
  Network(const NetworkConfig& config, sim::EventLoop* loop,
          trace::Tracer* tracer = nullptr);

  Network(const Network&) = delete;
  Network& operator=(const Network&) = delete;

  // At most one handler per destination site. Site ids are dense from 0
  // (common/ids.h): the link table grows to the largest id registered or
  // configured, and a negative id is never registered. The handler table
  // may move when it grows, so a handler must not register a site beyond
  // every id seen so far.
  void RegisterEndpoint(SiteId site, Handler handler);
  // Removes a site's handler (site crash): messages addressed to it — both
  // newly sent and already in flight — are dropped and counted. Re-register
  // when the site recovers; the link state (FIFO clamp, loss overrides,
  // partitions) survives. Unknown sites are a no-op.
  void UnregisterEndpoint(SiteId site);

  // Queues `payload` for delivery to `to`'s handler after the modeled
  // latency. Messages between the same ordered pair are delivered in send
  // order (FIFO) even with jitter, unless reordering faults are enabled.
  // Sends to sites without a registered endpoint (crashed / never started),
  // and sends from ids outside the link table, are dropped and counted,
  // never a crash.
  void Send(SiteId from, SiteId to, std::any payload);

  // Overrides the loss probability of the ordered link `from` -> `to`. A
  // per-link entry always wins over the global loss_prob, so p = 0 makes
  // that link lossless even in a lossy network. Remove with ClearLinkLoss.
  // Negative ids are ignored.
  void SetLinkLoss(SiteId from, SiteId to, double p);
  void ClearLinkLoss(SiteId from, SiteId to);

  // Drops every message between `a` and `b` (both directions) until virtual
  // time `until`. Repeated calls extend/replace the window. Negative ids are
  // ignored.
  void Partition(SiteId a, SiteId b, sim::Time until);
  // True while the (unordered) pair is inside a partition window.
  bool Partitioned(SiteId a, SiteId b) const;

  int64_t messages_sent() const { return messages_sent_; }
  int64_t messages_dropped() const { return messages_dropped_; }
  int64_t messages_duplicated() const { return messages_duplicated_; }
  int64_t messages_reordered() const { return messages_reordered_; }

 private:
  // Why a message never reached its destination handler (trace detail).
  enum class DropCause { kUnregistered, kPartition, kLoss };

  void Drop(SiteId from, SiteId to, DropCause cause);
  void Deliver(SiteId from, SiteId to, sim::Time at, std::any payload);
  sim::Duration DrawDelay(SiteId from, SiteId to);

  // State of one ordered link from -> to.
  struct Link {
    // Latest scheduled delivery time, for the FIFO clamp.
    sim::Time last_delivery = 0;
    // Messages are dropped while Now() < partition_until. A partition is
    // stored on both directions of the pair.
    sim::Time partition_until = 0;
    // Per-link loss override (SetLinkLoss); else config_.loss_prob.
    bool loss_set = false;
    double loss = 0;
  };

  // Grows the table to cover site ids [0, site]; `site` >= 0.
  void Grow(SiteId site);
  bool InTable(SiteId site) const {
    return static_cast<size_t>(site) < endpoints_.size();
  }
  // The link from -> to, both in the table. Lays links_ out again first
  // when the table has outgrown it.
  Link& LinkOf(SiteId from, SiteId to);

  NetworkConfig config_;
  sim::EventLoop* loop_;
  trace::Tracer* tracer_;
  Rng rng_;
  // Indexed by site id; an empty Handler is an unregistered site. Its size
  // is the table size: ids outside it (negative ones included) are never
  // registered.
  std::vector<Handler> endpoints_;
  // links_[from * stride_ + to]; links of ids >= stride_ were never used.
  // The table is laid out on first use rather than on registration, and
  // stride_ at least doubles, so registering n sites allocates it once and
  // later growth copies O(n^2) links in total.
  size_t stride_ = 0;
  std::vector<Link> links_;
  int64_t messages_sent_ = 0;
  int64_t messages_dropped_ = 0;
  int64_t messages_duplicated_ = 0;
  int64_t messages_reordered_ = 0;
};

}  // namespace hermes::net

#endif  // HERMES_NET_NETWORK_H_
