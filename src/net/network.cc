#include "net/network.h"

#include <algorithm>
#include <cassert>
#include <cstddef>
#include <utility>

namespace hermes::net {

namespace {

// Delay for messages a site sends to itself (coordinator to co-located
// agent).
constexpr sim::Duration kLocalLatency = 10 * sim::kMicrosecond;

}  // namespace

Network::Network(const NetworkConfig& config, sim::EventLoop* loop,
                 trace::Tracer* tracer)
    : config_(config), loop_(loop), tracer_(tracer), rng_(config.seed) {}

void Network::Grow(SiteId site) {
  const size_t n = static_cast<size_t>(site) + 1;
  if (n > endpoints_.size()) endpoints_.resize(n);
}

Network::Link& Network::LinkOf(SiteId from, SiteId to) {
  if (stride_ < endpoints_.size()) {
    const size_t stride = std::max(endpoints_.size(), 2 * stride_);
    std::vector<Link> links(stride * stride);
    for (size_t row = 0; row < stride_; ++row) {
      std::copy_n(links_.data() + row * stride_, stride_,
                  links.data() + row * stride);
    }
    links_ = std::move(links);
    stride_ = stride;
  }
  return links_[static_cast<size_t>(from) * stride_ +
                static_cast<size_t>(to)];
}

void Network::RegisterEndpoint(SiteId site, Handler handler) {
  if (site < 0) return;
  Grow(site);
  assert(!endpoints_[static_cast<size_t>(site)]);
  endpoints_[static_cast<size_t>(site)] = std::move(handler);
}

void Network::UnregisterEndpoint(SiteId site) {
  if (InTable(site)) endpoints_[static_cast<size_t>(site)] = nullptr;
}

void Network::SetLinkLoss(SiteId from, SiteId to, double p) {
  if (from < 0 || to < 0) return;
  Grow(std::max(from, to));
  Link& link = LinkOf(from, to);
  link.loss_set = true;
  link.loss = p;
}

void Network::ClearLinkLoss(SiteId from, SiteId to) {
  if (InTable(from) && InTable(to)) LinkOf(from, to).loss_set = false;
}

void Network::Partition(SiteId a, SiteId b, sim::Time until) {
  if (a < 0 || b < 0) return;
  Grow(std::max(a, b));
  LinkOf(a, b).partition_until = until;
  LinkOf(b, a).partition_until = until;
}

bool Network::Partitioned(SiteId a, SiteId b) const {
  const auto ua = static_cast<size_t>(a);
  const auto ub = static_cast<size_t>(b);
  return ua < stride_ && ub < stride_ &&
         loop_->Now() < links_[ua * stride_ + ub].partition_until;
}

void Network::Drop(SiteId from, SiteId to, DropCause cause) {
  ++messages_dropped_;
  if (tracer_ != nullptr) {
    trace::Event e;
    e.kind = trace::EventKind::kMsgDrop;
    e.site = from;
    e.peer = to;
    e.ok = false;
    switch (cause) {
      case DropCause::kUnregistered:
        e.detail = "unregistered";
        break;
      case DropCause::kPartition:
        e.detail = "partition";
        break;
      case DropCause::kLoss:
        e.detail = "loss";
        break;
    }
    tracer_->Record(std::move(e));
  }
}

sim::Duration Network::DrawDelay(SiteId from, SiteId to) {
  sim::Duration delay = from == to ? kLocalLatency : config_.base_latency;
  if (config_.jitter > 0) {
    delay += static_cast<sim::Duration>(
        rng_.NextUint64(static_cast<uint64_t>(config_.jitter) + 1));
  }
  return delay;
}

void Network::Deliver(SiteId from, SiteId to, sim::Time at,
                      std::any payload) {
  Envelope env{from, to, std::move(payload)};
  loop_->ScheduleAt(at, [this, to, env = std::move(env)]() {
    // The site may have crashed while the message was in flight.
    const Handler& handler = endpoints_[static_cast<size_t>(to)];
    if (handler) handler(env);
  });
}

void Network::Send(SiteId from, SiteId to, std::any payload) {
  ++messages_sent_;
  if (!InTable(from) || !InTable(to) ||
      !endpoints_[static_cast<size_t>(to)]) {
    // Destination crashed or never started: a real WAN message to a dead
    // host just vanishes — never abort the simulation.
    Drop(from, to, DropCause::kUnregistered);
    return;
  }
  Link& link = LinkOf(from, to);
  const bool local = from == to;
  if (!local) {
    if (loop_->Now() < link.partition_until) {
      Drop(from, to, DropCause::kPartition);
      return;
    }
    const double loss = link.loss_set ? link.loss : config_.loss_prob;
    if (loss > 0 && rng_.NextBool(loss)) {
      Drop(from, to, DropCause::kLoss);
      return;
    }
  }
  sim::Duration delay = DrawDelay(from, to);
  bool reordered = false;
  if (!local && config_.reorder_prob > 0 &&
      rng_.NextBool(config_.reorder_prob)) {
    // Extra delay outside the FIFO clamp: later sends may overtake this
    // message.
    reordered = true;
    ++messages_reordered_;
    if (config_.reorder_window > 0) {
      delay += static_cast<sim::Duration>(rng_.NextUint64(
          static_cast<uint64_t>(config_.reorder_window) + 1));
    }
  }
  sim::Time at = loop_->Now() + delay;
  if (!reordered) {
    // FIFO per ordered pair: never deliver before an earlier send. A
    // reordered message neither obeys nor advances the clamp, so it can be
    // overtaken without delaying everything behind it.
    if (at < link.last_delivery) at = link.last_delivery;
    link.last_delivery = at;
  }
  if (tracer_ != nullptr) {
    trace::Event e;
    e.kind = trace::EventKind::kMsgSend;
    e.site = from;
    e.peer = to;
    e.value = at - loop_->Now();
    tracer_->Record(std::move(e));
  }
  if (!local && config_.dup_prob > 0 && rng_.NextBool(config_.dup_prob)) {
    // Deliver a second copy after an independent extra delay, outside the
    // FIFO order — the classic retransmit-then-original-arrives duplicate.
    ++messages_duplicated_;
    sim::Duration extra = DrawDelay(from, to);
    if (config_.reorder_window > 0) {
      extra += static_cast<sim::Duration>(rng_.NextUint64(
          static_cast<uint64_t>(config_.reorder_window) + 1));
    }
    if (tracer_ != nullptr) {
      trace::Event e;
      e.kind = trace::EventKind::kMsgDup;
      e.site = from;
      e.peer = to;
      e.value = at + extra - loop_->Now();
      tracer_->Record(std::move(e));
    }
    Deliver(from, to, at + extra, payload);
  }
  Deliver(from, to, at, std::move(payload));
}

}  // namespace hermes::net
