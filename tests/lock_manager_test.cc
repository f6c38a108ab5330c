// Unit tests of the S2PL lock manager: grant rules, FIFO queuing, upgrades,
// timeouts, wait-for edges; and a differential test against the ordered-map
// implementation the flat lock table replaced.

#include "ltm/lock_manager.h"

#include <gtest/gtest.h>

#include <deque>
#include <map>
#include <set>
#include <tuple>
#include <utility>
#include <vector>

#include "common/rng.h"

namespace hermes::ltm {
namespace {

class LockManagerTest : public ::testing::Test {
 protected:
  LockManagerTest()
      : locks_(LockManagerConfig{100 * sim::kMillisecond}, &loop_) {}

  // Requests a lock and records the outcome in `results`.
  void Acquire(LtmTxnHandle txn, int64_t key, LockMode mode,
               std::vector<std::pair<LtmTxnHandle, Status>>& results) {
    locks_.Acquire(txn, Item(key), mode, [&results, txn](Status s) {
      results.emplace_back(txn, std::move(s));
    });
  }

  static ItemId Item(int64_t key) { return ItemId{0, 0, key}; }

  sim::EventLoop loop_;
  LockManager locks_;
};

TEST_F(LockManagerTest, SharedLocksAreCompatible) {
  std::vector<std::pair<LtmTxnHandle, Status>> got;
  Acquire(1, 7, LockMode::kShared, got);
  Acquire(2, 7, LockMode::kShared, got);
  loop_.Run();
  ASSERT_EQ(got.size(), 2u);
  EXPECT_TRUE(got[0].second.ok());
  EXPECT_TRUE(got[1].second.ok());
  EXPECT_TRUE(locks_.Holds(1, Item(7), LockMode::kShared));
  EXPECT_FALSE(locks_.Holds(1, Item(7), LockMode::kExclusive));
}

TEST_F(LockManagerTest, ExclusiveBlocksUntilRelease) {
  std::vector<std::pair<LtmTxnHandle, Status>> got;
  Acquire(1, 7, LockMode::kExclusive, got);
  Acquire(2, 7, LockMode::kExclusive, got);
  loop_.RunUntil(1 * sim::kMillisecond);
  ASSERT_EQ(got.size(), 1u);
  EXPECT_EQ(got[0].first, 1);

  locks_.ReleaseAll(1);
  loop_.RunUntil(2 * sim::kMillisecond);
  ASSERT_EQ(got.size(), 2u);
  EXPECT_EQ(got[1].first, 2);
  EXPECT_TRUE(got[1].second.ok());
}

TEST_F(LockManagerTest, ReacquisitionIsImmediate) {
  std::vector<std::pair<LtmTxnHandle, Status>> got;
  Acquire(1, 7, LockMode::kExclusive, got);
  Acquire(1, 7, LockMode::kExclusive, got);
  Acquire(1, 7, LockMode::kShared, got);  // weaker than held X
  loop_.Run();
  EXPECT_EQ(got.size(), 3u);
  for (const auto& [txn, status] : got) EXPECT_TRUE(status.ok());
}

TEST_F(LockManagerTest, UpgradeWhenSoleHolder) {
  std::vector<std::pair<LtmTxnHandle, Status>> got;
  Acquire(1, 7, LockMode::kShared, got);
  loop_.Run();
  Acquire(1, 7, LockMode::kExclusive, got);
  loop_.Run();
  ASSERT_EQ(got.size(), 2u);
  EXPECT_TRUE(got[1].second.ok());
  EXPECT_TRUE(locks_.Holds(1, Item(7), LockMode::kExclusive));
}

TEST_F(LockManagerTest, UpgradeWaitsForOtherReadersAndJumpsQueue) {
  std::vector<std::pair<LtmTxnHandle, Status>> got;
  Acquire(1, 7, LockMode::kShared, got);
  Acquire(2, 7, LockMode::kShared, got);
  loop_.Run();
  got.clear();
  // Txn 3 queues for X, then txn 1 requests an upgrade: the upgrade must be
  // served first once txn 2 releases.
  Acquire(3, 7, LockMode::kExclusive, got);
  Acquire(1, 7, LockMode::kExclusive, got);
  loop_.RunUntil(loop_.Now() + sim::kMillisecond);
  EXPECT_TRUE(got.empty());

  locks_.ReleaseAll(2);
  loop_.RunUntil(loop_.Now() + sim::kMillisecond);
  ASSERT_EQ(got.size(), 1u);
  EXPECT_EQ(got[0].first, 1);  // upgrade granted before txn 3

  locks_.ReleaseAll(1);
  loop_.RunUntil(loop_.Now() + sim::kMillisecond);
  ASSERT_EQ(got.size(), 2u);
  EXPECT_EQ(got[1].first, 3);
}

TEST_F(LockManagerTest, FifoPreventsWriterStarvation) {
  std::vector<std::pair<LtmTxnHandle, Status>> got;
  Acquire(1, 7, LockMode::kShared, got);
  loop_.Run();
  got.clear();
  Acquire(2, 7, LockMode::kExclusive, got);  // queued writer
  Acquire(3, 7, LockMode::kShared, got);     // must NOT jump the writer
  loop_.RunUntil(loop_.Now() + sim::kMillisecond);
  EXPECT_TRUE(got.empty());

  locks_.ReleaseAll(1);
  loop_.RunUntil(loop_.Now() + sim::kMillisecond);
  ASSERT_EQ(got.size(), 1u);
  EXPECT_EQ(got[0].first, 2);
  locks_.ReleaseAll(2);
  loop_.RunUntil(loop_.Now() + sim::kMillisecond);
  ASSERT_EQ(got.size(), 2u);
  EXPECT_EQ(got[1].first, 3);
}

TEST_F(LockManagerTest, WaitTimesOut) {
  std::vector<std::pair<LtmTxnHandle, Status>> got;
  Acquire(1, 7, LockMode::kExclusive, got);
  Acquire(2, 7, LockMode::kExclusive, got);
  loop_.Run();  // nothing releases txn 1's lock
  ASSERT_EQ(got.size(), 2u);
  EXPECT_TRUE(got[0].second.ok());
  EXPECT_EQ(got[1].second.code(), StatusCode::kTimeout);
  EXPECT_EQ(locks_.timeouts(), 1);
}

TEST_F(LockManagerTest, TimeoutOfBlockedHeadUnblocksFollowers) {
  std::vector<std::pair<LtmTxnHandle, Status>> got;
  Acquire(1, 7, LockMode::kShared, got);
  Acquire(2, 7, LockMode::kExclusive, got);  // blocked head
  Acquire(3, 7, LockMode::kShared, got);     // behind the writer
  loop_.Run();  // txn 2 times out; txn 3 should then be granted
  ASSERT_EQ(got.size(), 3u);
  EXPECT_TRUE(got[0].second.ok());
  // Order: txn 3 is granted when txn 2's timeout fires.
  bool t2_timed_out = false, t3_granted = false;
  for (const auto& [txn, status] : got) {
    if (txn == 2) t2_timed_out = status.code() == StatusCode::kTimeout;
    if (txn == 3) t3_granted = status.ok();
  }
  EXPECT_TRUE(t2_timed_out);
  EXPECT_TRUE(t3_granted);
}

TEST_F(LockManagerTest, CancelWaitsDropsCallbacks) {
  std::vector<std::pair<LtmTxnHandle, Status>> got;
  Acquire(1, 7, LockMode::kExclusive, got);
  Acquire(2, 7, LockMode::kExclusive, got);
  loop_.RunUntil(loop_.Now() + sim::kMillisecond);
  locks_.CancelWaits(2);
  loop_.Run();
  // Only txn 1's grant fired; txn 2's callback was dropped, not timed out.
  ASSERT_EQ(got.size(), 1u);
  EXPECT_EQ(locks_.timeouts(), 0);
}

TEST_F(LockManagerTest, ReleaseSingleItem) {
  std::vector<std::pair<LtmTxnHandle, Status>> got;
  Acquire(1, 7, LockMode::kShared, got);
  Acquire(1, 8, LockMode::kShared, got);
  loop_.Run();
  locks_.Release(1, Item(7));
  EXPECT_FALSE(locks_.Holds(1, Item(7), LockMode::kShared));
  EXPECT_TRUE(locks_.Holds(1, Item(8), LockMode::kShared));
}

TEST_F(LockManagerTest, WaitForEdgesReflectBlocking) {
  std::vector<std::pair<LtmTxnHandle, Status>> got;
  Acquire(1, 7, LockMode::kExclusive, got);
  Acquire(2, 7, LockMode::kExclusive, got);
  loop_.RunUntil(loop_.Now() + sim::kMillisecond);
  const auto edges = locks_.WaitForEdges();
  ASSERT_EQ(edges.size(), 1u);
  EXPECT_EQ(edges[0].first, 2);
  EXPECT_EQ(edges[0].second, 1);
}

// The lock manager as it was before the flat lock table: std::map and
// std::set indexes, a std::deque per queue. Kept as the reference whose
// grant order, Holds answers and wait-for edges LockManager must reproduce.
class ReferenceLockManager {
 public:
  using GrantCallback = LockManager::GrantCallback;

  ReferenceLockManager(const LockManagerConfig& config, sim::EventLoop* loop)
      : config_(config), loop_(loop) {}

  void Acquire(LtmTxnHandle txn, const ItemId& item, LockMode mode,
               GrantCallback cb) {
    LockState& ls = locks_[item];
    auto held_it = ls.holders.find(txn);
    const bool holds_any = held_it != ls.holders.end();
    const bool holds_x = holds_any && held_it->second == LockMode::kExclusive;
    if (holds_x || (holds_any && mode == LockMode::kShared)) {
      ++grants_;
      loop_->ScheduleAfter(0, [cb = std::move(cb)]() { cb(Status::Ok()); });
      return;
    }
    const bool upgrade = holds_any;
    const bool queue_blocks = !upgrade && !ls.queue.empty();
    if (!queue_blocks && Compatible(ls, txn, mode)) {
      GrantNow(txn, item, mode, std::move(cb));
      return;
    }
    ++waits_;
    Waiter w{txn, mode, std::move(cb), sim::kInvalidEvent, upgrade};
    w.timeout_event = loop_->ScheduleAfter(
        config_.wait_timeout,
        [this, item, txn]() { OnWaitTimeout(item, txn); });
    if (upgrade) {
      auto pos = ls.queue.begin();
      while (pos != ls.queue.end() && pos->upgrade) ++pos;
      ls.queue.insert(pos, std::move(w));
    } else {
      ls.queue.push_back(std::move(w));
    }
    waiting_[txn].insert(item);
  }

  void ReleaseAll(LtmTxnHandle txn) {
    CancelWaits(txn);
    auto hit = held_.find(txn);
    if (hit == held_.end()) return;
    const std::set<ItemId> items = std::move(hit->second);
    held_.erase(hit);
    for (const ItemId& item : items) {
      auto lit = locks_.find(item);
      if (lit == locks_.end()) continue;
      lit->second.holders.erase(txn);
      ProcessQueue(item);
    }
  }

  void CancelWaits(LtmTxnHandle txn) {
    auto wit = waiting_.find(txn);
    if (wit == waiting_.end()) return;
    const std::set<ItemId> items = std::move(wit->second);
    waiting_.erase(wit);
    for (const ItemId& item : items) {
      auto lit = locks_.find(item);
      if (lit == locks_.end()) continue;
      LockState& ls = lit->second;
      for (auto it = ls.queue.begin(); it != ls.queue.end();) {
        if (it->txn == txn) {
          loop_->Cancel(it->timeout_event);
          it = ls.queue.erase(it);
        } else {
          ++it;
        }
      }
      ProcessQueue(item);
    }
  }

  void Release(LtmTxnHandle txn, const ItemId& item) {
    auto lit = locks_.find(item);
    if (lit == locks_.end()) return;
    if (lit->second.holders.erase(txn) == 0) return;
    auto hit = held_.find(txn);
    if (hit != held_.end()) {
      hit->second.erase(item);
      if (hit->second.empty()) held_.erase(hit);
    }
    ProcessQueue(item);
  }

  bool Holds(LtmTxnHandle txn, const ItemId& item, LockMode mode) const {
    auto lit = locks_.find(item);
    if (lit == locks_.end()) return false;
    auto it = lit->second.holders.find(txn);
    if (it == lit->second.holders.end()) return false;
    return mode == LockMode::kShared || it->second == LockMode::kExclusive;
  }

  std::vector<std::pair<LtmTxnHandle, LtmTxnHandle>> WaitForEdges() const {
    std::vector<std::pair<LtmTxnHandle, LtmTxnHandle>> edges;
    for (const auto& [item, ls] : locks_) {
      for (size_t i = 0; i < ls.queue.size(); ++i) {
        const Waiter& w = ls.queue[i];
        for (const auto& [holder, held_mode] : ls.holders) {
          if (holder == w.txn) continue;
          if (w.mode == LockMode::kExclusive ||
              held_mode == LockMode::kExclusive) {
            edges.emplace_back(w.txn, holder);
          }
        }
        for (size_t j = 0; j < i; ++j) {
          const Waiter& earlier = ls.queue[j];
          if (earlier.txn == w.txn) continue;
          if (w.mode == LockMode::kExclusive ||
              earlier.mode == LockMode::kExclusive) {
            edges.emplace_back(w.txn, earlier.txn);
          }
        }
      }
    }
    return edges;
  }

  int64_t grants() const { return grants_; }
  int64_t waits() const { return waits_; }
  int64_t timeouts() const { return timeouts_; }

 private:
  struct Waiter {
    LtmTxnHandle txn;
    LockMode mode;
    GrantCallback cb;
    sim::EventId timeout_event;
    bool upgrade;
  };
  struct LockState {
    std::map<LtmTxnHandle, LockMode> holders;
    std::deque<Waiter> queue;
  };

  static bool Compatible(const LockState& ls, LtmTxnHandle txn,
                         LockMode mode) {
    for (const auto& [holder, held_mode] : ls.holders) {
      if (holder == txn) continue;
      if (mode == LockMode::kExclusive || held_mode == LockMode::kExclusive) {
        return false;
      }
    }
    return true;
  }

  void GrantNow(LtmTxnHandle txn, const ItemId& item, LockMode mode,
                GrantCallback cb) {
    LockState& ls = locks_[item];
    auto it = ls.holders.find(txn);
    if (it == ls.holders.end()) {
      ls.holders[txn] = mode;
    } else if (mode == LockMode::kExclusive) {
      it->second = LockMode::kExclusive;
    }
    held_[txn].insert(item);
    ++grants_;
    loop_->ScheduleAfter(0, [cb = std::move(cb)]() { cb(Status::Ok()); });
  }

  void ProcessQueue(const ItemId& item) {
    auto lit = locks_.find(item);
    if (lit == locks_.end()) return;
    LockState& ls = lit->second;
    bool granted_any = true;
    while (granted_any && !ls.queue.empty()) {
      granted_any = false;
      Waiter& head = ls.queue.front();
      if (Compatible(ls, head.txn, head.mode)) {
        Waiter w = std::move(head);
        ls.queue.pop_front();
        loop_->Cancel(w.timeout_event);
        auto wit = waiting_.find(w.txn);
        if (wit != waiting_.end()) {
          wit->second.erase(item);
          if (wit->second.empty()) waiting_.erase(wit);
        }
        GrantNow(w.txn, item, w.mode, std::move(w.cb));
        granted_any = true;
      }
    }
    if (ls.holders.empty() && ls.queue.empty()) locks_.erase(lit);
  }

  void OnWaitTimeout(const ItemId& item, LtmTxnHandle txn) {
    auto lit = locks_.find(item);
    if (lit == locks_.end()) return;
    LockState& ls = lit->second;
    for (auto it = ls.queue.begin(); it != ls.queue.end(); ++it) {
      if (it->txn == txn) {
        GrantCallback cb = std::move(it->cb);
        ls.queue.erase(it);
        auto wit = waiting_.find(txn);
        if (wit != waiting_.end()) {
          wit->second.erase(item);
          if (wit->second.empty()) waiting_.erase(wit);
        }
        ++timeouts_;
        cb(Status::Timeout("lock wait timeout"));
        ProcessQueue(item);
        return;
      }
    }
  }

  LockManagerConfig config_;
  sim::EventLoop* loop_;
  std::map<ItemId, LockState> locks_;
  std::map<LtmTxnHandle, std::set<ItemId>> held_;
  std::map<LtmTxnHandle, std::set<ItemId>> waiting_;
  int64_t grants_ = 0;
  int64_t waits_ = 0;
  int64_t timeouts_ = 0;
};

// One lock manager on its own event loop, logging every callback as
// (txn, item key, status, time). A callback told to may react to a timeout
// the way the LTM does -- by releasing everything its transaction holds --
// so that the managers are also re-entered from inside a callback.
template <typename Manager>
class LoggedLocks {
 public:
  using Record = std::tuple<LtmTxnHandle, ItemId, StatusCode, sim::Time>;

  LoggedLocks() : locks_(LockManagerConfig{100 * sim::kMillisecond}, &loop_) {}

  void Acquire(LtmTxnHandle txn, const ItemId& item, LockMode mode,
               bool release_on_timeout) {
    locks_.Acquire(txn, item, mode,
                   [this, txn, item, release_on_timeout](Status s) {
                     log_.emplace_back(txn, item, s.code(), loop_.Now());
                     if (!s.ok() && release_on_timeout) locks_.ReleaseAll(txn);
                   });
  }

  sim::EventLoop& loop() { return loop_; }
  Manager& locks() { return locks_; }
  const std::vector<Record>& log() const { return log_; }

 private:
  sim::EventLoop loop_;
  Manager locks_;
  std::vector<Record> log_;
};

TEST(LockManagerDifferential, MatchesOrderedMapReferenceUnderRandomOps) {
  constexpr LtmTxnHandle kTxns = 8;
  std::vector<ItemId> items;
  for (SiteId site = 0; site < 2; ++site) {
    for (int64_t key = 0; key < 4; ++key) items.push_back({site, 0, key});
  }
  for (uint64_t seed = 1; seed <= 6; ++seed) {
    SCOPED_TRACE(::testing::Message() << "seed " << seed);
    Rng rng(seed);
    LoggedLocks<LockManager> flat;
    LoggedLocks<ReferenceLockManager> ref;
    size_t checked = 0;  // log records compared so far
    for (int op = 0; op < 10'000; ++op) {
      const LtmTxnHandle txn =
          1 + static_cast<LtmTxnHandle>(rng.NextUint64(kTxns));
      const ItemId& item = items[rng.NextUint64(items.size())];
      const uint64_t dice = rng.NextUint64(100);
      if (dice < 50) {
        const LockMode mode =
            rng.NextBool(0.5) ? LockMode::kShared : LockMode::kExclusive;
        const bool release_on_timeout = rng.NextBool(0.5);
        flat.Acquire(txn, item, mode, release_on_timeout);
        ref.Acquire(txn, item, mode, release_on_timeout);
      } else if (dice < 60) {
        flat.locks().Release(txn, item);
        ref.locks().Release(txn, item);
      } else if (dice < 70) {
        flat.locks().ReleaseAll(txn);
        ref.locks().ReleaseAll(txn);
      } else if (dice < 75) {
        flat.locks().CancelWaits(txn);
        ref.locks().CancelWaits(txn);
      } else {
        const sim::Duration advance =
            static_cast<sim::Duration>(rng.NextUint64(40 * sim::kMillisecond));
        flat.loop().RunUntil(flat.loop().Now() + advance);
        ref.loop().RunUntil(ref.loop().Now() + advance);
      }
      ASSERT_EQ(flat.log().size(), ref.log().size()) << "op " << op;
      for (; checked < flat.log().size(); ++checked) {
        ASSERT_EQ(flat.log()[checked], ref.log()[checked]) << "op " << op;
      }
      ASSERT_EQ(flat.locks().WaitForEdges(), ref.locks().WaitForEdges())
          << "op " << op;
      if (op % 4 != 0) continue;  // Holds for every pair is the costly part
      for (LtmTxnHandle t = 1; t <= kTxns; ++t) {
        for (const ItemId& i : items) {
          for (const LockMode m : {LockMode::kShared, LockMode::kExclusive}) {
            ASSERT_EQ(flat.locks().Holds(t, i, m), ref.locks().Holds(t, i, m))
                << "op " << op << " txn " << t << " item " << i;
          }
        }
      }
    }
    flat.loop().Run();
    ref.loop().Run();
    EXPECT_EQ(flat.log(), ref.log());
    EXPECT_EQ(flat.locks().grants(), ref.locks().grants());
    EXPECT_EQ(flat.locks().waits(), ref.locks().waits());
    EXPECT_EQ(flat.locks().timeouts(), ref.locks().timeouts());
    EXPECT_GT(flat.locks().timeouts(), 0);
  }
}

}  // namespace
}  // namespace hermes::ltm
