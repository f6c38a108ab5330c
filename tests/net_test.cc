// Unit tests of the simulated network: latency, FIFO delivery under
// jitter, local fast path, counters.

#include "net/network.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <vector>

namespace hermes::net {
namespace {

TEST(Network, DeliversAfterBaseLatency) {
  sim::EventLoop loop;
  NetworkConfig config;
  config.base_latency = 5 * sim::kMillisecond;
  Network net(config, &loop);
  std::vector<std::pair<sim::Time, int>> got;
  net.RegisterEndpoint(1, [&](const Envelope& env) {
    got.emplace_back(loop.Now(), std::any_cast<int>(env.payload));
  });
  net.RegisterEndpoint(0, [](const Envelope&) {});
  net.Send(0, 1, 42);
  loop.Run();
  ASSERT_EQ(got.size(), 1u);
  EXPECT_EQ(got[0].first, 5 * sim::kMillisecond);
  EXPECT_EQ(got[0].second, 42);
  EXPECT_EQ(net.messages_sent(), 1);
}

TEST(Network, LocalDeliveryIsFast) {
  sim::EventLoop loop;
  NetworkConfig config;
  config.base_latency = 5 * sim::kMillisecond;
  Network net(config, &loop);
  sim::Time at = -1;
  net.RegisterEndpoint(0, [&](const Envelope&) { at = loop.Now(); });
  net.Send(0, 0, 1);
  loop.Run();
  EXPECT_EQ(at, 10 * sim::kMicrosecond);  // a site's self-send delay
}

TEST(Network, FifoPerPairUnderJitter) {
  sim::EventLoop loop;
  NetworkConfig config;
  config.base_latency = 1 * sim::kMillisecond;
  config.jitter = 5 * sim::kMillisecond;
  config.seed = 99;
  Network net(config, &loop);
  std::vector<int> got;
  net.RegisterEndpoint(1, [&](const Envelope& env) {
    got.push_back(std::any_cast<int>(env.payload));
  });
  net.RegisterEndpoint(0, [](const Envelope&) {});
  for (int i = 0; i < 50; ++i) net.Send(0, 1, i);
  loop.Run();
  ASSERT_EQ(got.size(), 50u);
  for (int i = 0; i < 50; ++i) EXPECT_EQ(got[static_cast<size_t>(i)], i);
}

TEST(Network, EnvelopeCarriesSenderAndReceiver) {
  sim::EventLoop loop;
  Network net(NetworkConfig{}, &loop);
  SiteId from = kInvalidSite, to = kInvalidSite;
  net.RegisterEndpoint(3, [&](const Envelope& env) {
    from = env.from;
    to = env.to;
  });
  net.RegisterEndpoint(7, [](const Envelope&) {});
  net.Send(7, 3, std::string("hello"));
  loop.Run();
  EXPECT_EQ(from, 7);
  EXPECT_EQ(to, 3);
}

TEST(Network, IndependentPairsDoNotBlockEachOther) {
  sim::EventLoop loop;
  NetworkConfig config;
  config.base_latency = 1 * sim::kMillisecond;
  config.jitter = 0;
  Network net(config, &loop);
  std::vector<std::pair<SiteId, sim::Time>> got;
  for (SiteId s : {1, 2}) {
    net.RegisterEndpoint(s, [&, s](const Envelope&) {
      got.emplace_back(s, loop.Now());
    });
  }
  net.RegisterEndpoint(0, [](const Envelope&) {});
  net.Send(0, 1, 1);
  net.Send(0, 2, 2);
  loop.Run();
  ASSERT_EQ(got.size(), 2u);
  EXPECT_EQ(got[0].second, got[1].second);  // same latency, no coupling
}

// --- fault injection ---------------------------------------------------------

TEST(NetworkFaults, UnregisteredDestinationIsDroppedNotFatal) {
  sim::EventLoop loop;
  Network net(NetworkConfig{}, &loop);
  net.RegisterEndpoint(0, [](const Envelope&) {});
  net.Send(0, 99, 1);  // site 99 never started (or crashed)
  loop.Run();
  EXPECT_EQ(net.messages_sent(), 1);
  EXPECT_EQ(net.messages_dropped(), 1);
}

TEST(NetworkFaults, IdsOutsideTheTableAreDroppedNotFatal) {
  sim::EventLoop loop;
  Network net(NetworkConfig{}, &loop);
  int got = 0;
  net.RegisterEndpoint(0, [&](const Envelope&) { ++got; });
  net.RegisterEndpoint(1, [&](const Envelope&) { ++got; });
  const std::vector<SiteId> bad = {-5, kInvalidSite, 99};
  for (SiteId id : bad) {
    net.Send(0, id, 1);
    net.Send(id, 1, 2);
    net.Send(id, id, 3);
  }
  // None of these registers, configures or grows anything.
  net.RegisterEndpoint(kInvalidSite, [&](const Envelope&) { ++got; });
  net.UnregisterEndpoint(-5);
  net.UnregisterEndpoint(99);
  net.SetLinkLoss(kInvalidSite, 0, 1.0);
  net.ClearLinkLoss(0, 99);
  net.Partition(-5, 1, 10 * sim::kMillisecond);
  EXPECT_FALSE(net.Partitioned(-5, 1));
  EXPECT_FALSE(net.Partitioned(1, 99));
  net.Send(0, kInvalidSite, 4);
  loop.Run();
  EXPECT_EQ(got, 0);
  EXPECT_EQ(net.messages_sent(), 10);
  EXPECT_EQ(net.messages_dropped(), 10);
  net.Send(0, 1, 5);  // the registered pair is unaffected
  loop.Run();
  EXPECT_EQ(got, 1);
}

TEST(NetworkFaults, FifoClampSurvivesReRegistration) {
  sim::EventLoop loop;
  NetworkConfig config;
  config.base_latency = 1 * sim::kMillisecond;
  config.jitter = 5 * sim::kMillisecond;
  config.seed = 5;
  Network net(config, &loop);
  std::vector<int> got;
  auto handler = [&](const Envelope& env) {
    got.push_back(std::any_cast<int>(env.payload));
  };
  net.RegisterEndpoint(1, handler);
  net.RegisterEndpoint(0, [](const Envelope&) {});
  for (int i = 0; i < 25; ++i) net.Send(0, 1, i);
  // A crash and recovery in the same instant: the messages in flight reach
  // the new handler, and the next sends still queue behind them.
  net.UnregisterEndpoint(1);
  net.RegisterEndpoint(1, handler);
  for (int i = 25; i < 50; ++i) net.Send(0, 1, i);
  loop.Run();
  ASSERT_EQ(got.size(), 50u);
  for (int i = 0; i < 50; ++i) EXPECT_EQ(got[static_cast<size_t>(i)], i);
}

TEST(NetworkFaults, LossDropsRoughlyTheConfiguredFraction) {
  sim::EventLoop loop;
  NetworkConfig config;
  config.loss_prob = 0.5;
  config.seed = 7;
  Network net(config, &loop);
  int got = 0;
  net.RegisterEndpoint(1, [&](const Envelope&) { ++got; });
  net.RegisterEndpoint(0, [](const Envelope&) {});
  const int n = 1000;
  for (int i = 0; i < n; ++i) net.Send(0, 1, i);
  loop.Run();
  EXPECT_EQ(got + net.messages_dropped(), n);
  EXPECT_GT(got, 400);
  EXPECT_LT(got, 600);
}

TEST(NetworkFaults, PerLinkLossOverridesGlobalProbability) {
  sim::EventLoop loop;
  NetworkConfig config;
  config.loss_prob = 1.0;  // everything inter-site is lost ...
  Network net(config, &loop);
  std::map<SiteId, int> got;
  for (SiteId s : {1, 2}) {
    net.RegisterEndpoint(s, [&, s](const Envelope&) { ++got[s]; });
  }
  net.RegisterEndpoint(0, [](const Envelope&) {});
  net.SetLinkLoss(0, 1, 0.0);  // ... except on the pinned-lossless link
  for (int i = 0; i < 20; ++i) {
    net.Send(0, 1, i);
    net.Send(0, 2, i);
  }
  loop.Run();
  EXPECT_EQ(got[1], 20);
  EXPECT_EQ(got[2], 0);
  net.ClearLinkLoss(0, 1);
  net.Send(0, 1, 0);
  loop.Run();
  EXPECT_EQ(got[1], 20);  // back to the global probability
}

TEST(NetworkFaults, DuplicationDeliversASecondCopy) {
  sim::EventLoop loop;
  NetworkConfig config;
  config.dup_prob = 1.0;
  Network net(config, &loop);
  std::vector<int> got;
  net.RegisterEndpoint(1, [&](const Envelope& env) {
    got.push_back(std::any_cast<int>(env.payload));
  });
  net.RegisterEndpoint(0, [](const Envelope&) {});
  for (int i = 0; i < 10; ++i) net.Send(0, 1, i);
  loop.Run();
  EXPECT_EQ(got.size(), 20u);
  EXPECT_EQ(net.messages_duplicated(), 10);
  EXPECT_EQ(net.messages_sent(), 10);  // duplicates are not counted as sends
}

TEST(NetworkFaults, ReorderingBreaksFifoDelivery) {
  sim::EventLoop loop;
  NetworkConfig config;
  config.base_latency = 1 * sim::kMillisecond;
  config.reorder_prob = 0.3;
  config.reorder_window = 10 * sim::kMillisecond;
  config.seed = 11;
  Network net(config, &loop);
  std::vector<int> got;
  net.RegisterEndpoint(1, [&](const Envelope& env) {
    got.push_back(std::any_cast<int>(env.payload));
  });
  net.RegisterEndpoint(0, [](const Envelope&) {});
  const int n = 100;
  for (int i = 0; i < n; ++i) net.Send(0, 1, i);
  loop.Run();
  ASSERT_EQ(got.size(), static_cast<size_t>(n));  // reordered, never lost
  EXPECT_GT(net.messages_reordered(), 0);
  EXPECT_FALSE(std::is_sorted(got.begin(), got.end()));
  std::sort(got.begin(), got.end());
  for (int i = 0; i < n; ++i) EXPECT_EQ(got[static_cast<size_t>(i)], i);
}

TEST(NetworkFaults, PartitionDropsBothDirectionsUntilExpiry) {
  sim::EventLoop loop;
  NetworkConfig config;
  Network net(config, &loop);
  int got = 0;
  net.RegisterEndpoint(0, [&](const Envelope&) { ++got; });
  net.RegisterEndpoint(1, [&](const Envelope&) { ++got; });
  net.Partition(0, 1, 10 * sim::kMillisecond);
  EXPECT_TRUE(net.Partitioned(0, 1));
  EXPECT_TRUE(net.Partitioned(1, 0));
  net.Send(0, 1, 1);
  net.Send(1, 0, 2);
  loop.ScheduleAt(15 * sim::kMillisecond, [&] {
    EXPECT_FALSE(net.Partitioned(0, 1));  // the window expired
    net.Send(0, 1, 3);
    net.Send(1, 0, 4);
  });
  loop.Run();
  EXPECT_EQ(got, 2);
  EXPECT_EQ(net.messages_dropped(), 2);
}

TEST(NetworkFaults, LinkStateSurvivesTableGrowth) {
  sim::EventLoop loop;
  Network net(NetworkConfig{}, &loop);
  int got = 0;
  net.RegisterEndpoint(0, [&](const Envelope&) { ++got; });
  // Configure links of sites that are not registered yet.
  net.Partition(5, 2, 10 * sim::kMillisecond);
  net.SetLinkLoss(0, 3, 1.0);
  EXPECT_TRUE(net.Partitioned(2, 5));
  EXPECT_TRUE(net.Partitioned(5, 2));
  EXPECT_FALSE(net.Partitioned(2, 4));
  // Far larger ids outgrow the laid-out links; the next send lays them out
  // again, and every link keeps its state.
  for (SiteId s : {2, 3, 5, 40, 300}) {
    net.RegisterEndpoint(s, [&](const Envelope&) { ++got; });
  }
  net.Send(2, 5, 1);  // partitioned
  net.Send(0, 3, 2);  // lost
  net.Send(300, 40, 3);
  net.Send(3, 0, 4);
  EXPECT_TRUE(net.Partitioned(2, 5));
  EXPECT_TRUE(net.Partitioned(5, 2));
  loop.RunUntil(20 * sim::kMillisecond);
  EXPECT_EQ(got, 2);
  EXPECT_EQ(net.messages_dropped(), 2);
  EXPECT_FALSE(net.Partitioned(5, 2));  // the window expired
}

TEST(NetworkFaults, LocalDeliveryIsExemptFromFaults) {
  sim::EventLoop loop;
  NetworkConfig config;
  config.loss_prob = 1.0;
  config.dup_prob = 1.0;
  config.reorder_prob = 1.0;
  Network net(config, &loop);
  std::vector<int> got;
  net.RegisterEndpoint(0, [&](const Envelope& env) {
    got.push_back(std::any_cast<int>(env.payload));
  });
  for (int i = 0; i < 10; ++i) net.Send(0, 0, i);
  loop.Run();
  // Exactly once each, in order: a coordinator talking to its co-located
  // agent never goes through the faulty WAN.
  ASSERT_EQ(got.size(), 10u);
  for (int i = 0; i < 10; ++i) EXPECT_EQ(got[static_cast<size_t>(i)], i);
  EXPECT_EQ(net.messages_dropped(), 0);
  EXPECT_EQ(net.messages_duplicated(), 0);
}

}  // namespace
}  // namespace hermes::net
