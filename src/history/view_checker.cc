#include "history/view_checker.h"

#include <algorithm>
#include <cassert>
#include <numeric>
#include <span>

#include "common/str.h"
#include "history/dense_index.h"

namespace hermes::history {

namespace {

// Stands for the initial version where a replay names the write a version
// comes from by its op position.
constexpr uint32_t kInitial = UINT32_MAX;

// A history numbered once for all its replays: transactions densely in
// first-seen order with their op positions grouped, items densely in ItemId
// order, and each local abort linked to the writes it undoes. A replay in
// any order that keeps each transaction's ops in history order (H itself,
// or a serial layout) then runs over flat vectors.
class ReplayIndex {
 public:
  // What a replay saw, by op position: the write each read observed, and
  // per item index the last surviving write.
  struct Run {
    std::vector<uint32_t> observed;
    std::vector<uint32_t> finals;
  };

  explicit ReplayIndex(const std::vector<Op>& ops)
      : ops_(ops), txns_(ops.size() / 4) {
    const uint32_t n = static_cast<uint32_t>(ops.size());
    std::vector<uint32_t> txn_of(n);
    DenseIndex<ItemId, ItemIdHash> item_index(n / 4);
    item_.assign(n, 0);
    for (uint32_t p = 0; p < n; ++p) {
      txn_of[p] = txns_.Insert(ops[p].subtxn.txn);
      if (IsDataKind(ops[p].kind)) item_[p] = item_index.Insert(ops[p].item);
    }
    // Renumber the items in ItemId order.
    const std::vector<uint32_t> by_id = item_index.IndicesByKey();
    items_.reserve(by_id.size());
    std::vector<uint32_t> rank(by_id.size());
    for (uint32_t r = 0; r < by_id.size(); ++r) {
      items_.push_back(item_index[by_id[r]]);
      rank[by_id[r]] = r;
    }
    for (uint32_t p = 0; p < n; ++p) {
      if (IsDataKind(ops[p].kind)) item_[p] = rank[item_[p]];
    }
    // Group positions by transaction; a counting sort keeps history order.
    group_start_.assign(txns_.size() + 1, 0);
    for (uint32_t t : txn_of) ++group_start_[t + 1];
    std::partial_sum(group_start_.begin(), group_start_.end(),
                     group_start_.begin());
    grouped_.resize(n);
    std::vector<uint32_t> fill(group_start_.begin(), group_start_.end() - 1);
    for (uint32_t p = 0; p < n; ++p) grouped_[fill[txn_of[p]]++] = p;
    // A local abort of T^s_kj undoes T^s_kj's writes to site s's items that
    // precede it and that no earlier abort undid.
    std::vector<bool> undone(n, false);
    undo_start_.reserve(n + 1);
    for (uint32_t p = 0; p < n; ++p) {
      undo_start_.push_back(static_cast<uint32_t>(undo_.size()));
      const Op& abort = ops[p];
      if (abort.kind != OpKind::kLocalAbort) continue;
      for (uint32_t w : group(txn_of[p])) {
        if (w >= p) break;
        const Op& op = ops[w];
        if (IsWriteKind(op.kind) && !undone[w] &&
            op.subtxn == abort.subtxn && op.item.site == abort.site) {
          undone[w] = true;
          undo_.push_back(w);
        }
      }
    }
    undo_start_.push_back(static_cast<uint32_t>(undo_.size()));
  }

  const std::vector<Op>& ops() const { return ops_; }
  const std::vector<ItemId>& items() const { return items_; }
  // The item index of the data op at position p.
  uint32_t item(uint32_t p) const { return item_[p]; }
  const std::vector<TxnId>& txns() const { return txns_.keys(); }
  bool HasTxn(const TxnId& txn) const { return txns_.Contains(txn); }
  // Op positions of `txns()[t]`, in history order.
  std::span<const uint32_t> group(uint32_t t) const {
    return {grouped_.data() + group_start_[t],
            grouped_.data() + group_start_[t + 1]};
  }
  std::span<const uint32_t> group(const TxnId& txn) const {
    assert(txns_.Contains(txn));
    return group(txns_.Find(txn));
  }

  db::VersionTag Tag(uint32_t write) const {
    return write == kInitial ? db::VersionTag{} : ops_[write].version;
  }

  // Replays the ops at the positions `order`: per item a stack of the
  // writes whose versions survive.
  Run Replay(const std::vector<uint32_t>& order) const {
    Run run;
    run.observed.assign(ops_.size(), kInitial);
    std::vector<std::vector<uint32_t>> stacks(items_.size());
    for (uint32_t p : order) {
      switch (ops_[p].kind) {
        case OpKind::kRead: {
          const std::vector<uint32_t>& stack = stacks[item_[p]];
          if (!stack.empty()) run.observed[p] = stack.back();
          break;
        }
        case OpKind::kWrite:
        case OpKind::kDelete:
          stacks[item_[p]].push_back(p);
          break;
        case OpKind::kLocalAbort:
          // RR: the LDBS restores before-images of everything this local
          // subtransaction wrote at the site.
          for (uint32_t u = undo_start_[p]; u < undo_start_[p + 1]; ++u) {
            std::vector<uint32_t>& stack = stacks[item_[undo_[u]]];
            const auto it = std::find(stack.rbegin(), stack.rend(), undo_[u]);
            assert(it != stack.rend());
            stack.erase(std::next(it).base());
          }
          break;
        default:
          break;
      }
    }
    run.finals.reserve(items_.size());
    for (const std::vector<uint32_t>& stack : stacks) {
      run.finals.push_back(stack.empty() ? kInitial : stack.back());
    }
    return run;
  }

  // Replays the history in its own order.
  Run ReplayHistory() const {
    std::vector<uint32_t> order(ops_.size());
    std::iota(order.begin(), order.end(), 0);
    return Replay(order);
  }

 private:
  const std::vector<Op>& ops_;
  DenseIndex<TxnId> txns_;
  // The op positions of transaction t are
  // grouped_[group_start_[t] .. group_start_[t + 1]).
  std::vector<uint32_t> group_start_;
  std::vector<uint32_t> grouped_;
  std::vector<ItemId> items_;
  // By op position: the item index of a data op.
  std::vector<uint32_t> item_;
  // The writes the local abort at position p undoes are
  // undo_[undo_start_[p] .. undo_start_[p + 1]).
  std::vector<uint32_t> undo_start_;
  std::vector<uint32_t> undo_;
};

// True when `serial` observed exactly the recorded reads-from and left the
// same final versions as the actual execution.
bool Equivalent(const ReplayIndex& index, const ReplayIndex::Run& serial,
                const std::vector<uint32_t>& actual_finals,
                std::string* mismatch) {
  const std::vector<Op>& ops = index.ops();
  for (uint32_t p = 0; p < ops.size(); ++p) {
    if (ops[p].kind != OpKind::kRead) continue;
    const db::VersionTag seen = index.Tag(serial.observed[p]);
    if (!(seen == ops[p].version)) {
      *mismatch = StrCat("read op#", ops[p].seq, " observed ",
                         ops[p].version.ToString(), " in H but ",
                         seen.ToString(), " in the serial order");
      return false;
    }
  }
  for (size_t i = 0; i < index.items().size(); ++i) {
    const db::VersionTag actual = index.Tag(actual_finals[i]);
    const db::VersionTag serial_tag = index.Tag(serial.finals[i]);
    if (!(serial_tag == actual)) {
      *mismatch = StrCat("final write of ", index.items()[i].ToString(),
                         " is ", actual.ToString(), " in H but ",
                         serial_tag.ToString(), " in the serial order");
      return false;
    }
  }
  return true;
}

// Every serial layout runs a transaction's ops back to back, so until the
// transaction writes an item itself, all its reads of the item see one
// version. Finds the earliest read that sees another version than the
// transaction's first read of the item before any write of it, and returns
// both reads as the reason no serial order explains the history; "" when
// there is none.
std::string FindTwoViews(const ReplayIndex& index) {
  constexpr uint32_t kUnseen = UINT32_MAX;
  constexpr uint32_t kWritten = UINT32_MAX - 1;
  const std::vector<Op>& ops = index.ops();
  // Per item, the transaction's first read of it, or kWritten.
  std::vector<uint32_t> first(index.items().size(), kUnseen);
  std::vector<uint32_t> touched;
  uint32_t two_views_first = kUnseen, two_views_second = kUnseen;
  for (uint32_t t = 0; t < index.txns().size(); ++t) {
    for (uint32_t p : index.group(t)) {
      if (!IsDataKind(ops[p].kind)) continue;
      uint32_t& f = first[index.item(p)];
      if (f == kUnseen) touched.push_back(index.item(p));
      if (ops[p].kind != OpKind::kRead) {
        f = kWritten;
      } else if (f == kUnseen) {
        f = p;
      } else if (f != kWritten && p < two_views_second &&
                 !(ops[f].version == ops[p].version)) {
        two_views_first = f;
        two_views_second = p;
      }
    }
    for (uint32_t i : touched) first[i] = kUnseen;
    touched.clear();
  }
  if (two_views_second == kUnseen) return "";
  const Op& a = ops[two_views_first];
  const Op& b = ops[two_views_second];
  return StrCat(a.ToString(), " (op#", a.seq, ") and ", b.ToString(),
                " (op#", b.seq,
                ") read two versions of one item before their transaction "
                "writes it: no serial order gives it both views");
}

}  // namespace

const char* VerdictName(Verdict v) {
  switch (v) {
    case Verdict::kSerializable:
      return "VIEW-SERIALIZABLE";
    case Verdict::kNotSerializable:
      return "NOT-VIEW-SERIALIZABLE";
    case Verdict::kUnknown:
      return "UNKNOWN";
  }
  return "?";
}

ReplayOutcome Replay(const std::vector<Op>& ops) {
  const ReplayIndex index(ops);
  const ReplayIndex::Run run = index.ReplayHistory();
  ReplayOutcome out;
  for (uint32_t p = 0; p < ops.size(); ++p) {
    if (ops[p].kind != OpKind::kRead) continue;
    if (ops[p].seq >= out.reads_from.size()) {
      out.reads_from.resize(ops[p].seq + 1);
    }
    out.reads_from[ops[p].seq] = index.Tag(run.observed[p]);
  }
  out.items = index.items();
  for (uint32_t write : run.finals) {
    out.final_versions.push_back(index.Tag(write));
  }
  return out;
}

std::string VerifyReplayMatchesRecorded(const std::vector<Op>& committed) {
  const ReplayIndex index(committed);
  const ReplayIndex::Run run = index.ReplayHistory();
  for (uint32_t p = 0; p < committed.size(); ++p) {
    const Op& op = committed[p];
    if (op.kind != OpKind::kRead) continue;
    const db::VersionTag seen = index.Tag(run.observed[p]);
    if (!(seen == op.version)) {
      return StrCat(op.ToString(), ": replay of C(H) observes ",
                    seen.ToString(),
                    " — the execution read from a version outside the "
                    "committed projection");
    }
  }
  return "";
}

ViewCheckResult CheckViewSerializability(const std::vector<Op>& committed,
                                         const TxnGraph& cg,
                                         size_t max_txns) {
  ViewCheckResult result;
  const ReplayIndex index(committed);
  const std::vector<TxnId>& txns = index.txns();
  if (txns.empty()) {
    result.verdict = Verdict::kSerializable;
    return result;
  }

  for (const Op& op : committed) {
    // A read from a version whose writer is excluded from C(H) can never be
    // reproduced by a serial order of C(H)'s transactions.
    if (op.kind == OpKind::kRead && !op.version.initial() &&
        !index.HasTxn(op.version.writer.txn)) {
      result.verdict = Verdict::kNotSerializable;
      result.reason = StrCat(op.ToString(),
                             " reads from a transaction outside C(H)");
      return result;
    }
  }
  // Actual execution: the recorded reads-from is in the ops themselves.
  const std::vector<uint32_t> actual_finals = index.ReplayHistory().finals;

  std::string first_mismatch;
  auto try_order = [&](const std::vector<TxnId>& order) {
    ++result.orders_tried;
    // The serial candidate: each transaction's ops in history order, the
    // transactions in the candidate order.
    std::vector<uint32_t> layout;
    layout.reserve(committed.size());
    for (const TxnId& t : order) {
      const std::span<const uint32_t> g = index.group(t);
      layout.insert(layout.end(), g.begin(), g.end());
    }
    std::string mismatch;
    if (Equivalent(index, index.Replay(layout), actual_finals, &mismatch)) {
      result.verdict = Verdict::kSerializable;
      result.witness = order;
      return true;
    }
    if (first_mismatch.empty()) first_mismatch = std::move(mismatch);
    return false;
  };

  // Fast certificates first: a topological order of CG(C(H)) is the paper's
  // canonical view-serialization order; SG order covers conflict-
  // serializable histories.
  if (auto topo = cg.TopologicalOrder()) {
    // CG only contains transactions with local commits; append the rest
    // (local transactions without commits are excluded from C(H) anyway).
    for (const TxnId& t : txns) {
      if (!cg.HasNode(t)) topo->push_back(t);
    }
    if (try_order(*topo)) return result;
  }
  if (auto topo = BuildSerializationGraph(committed).TopologicalOrder()) {
    if (try_order(*topo)) return result;
  }

  if (txns.size() > max_txns) {
    // A polynomial refutation before giving up.
    if (std::string two_views = FindTwoViews(index); !two_views.empty()) {
      result.verdict = Verdict::kNotSerializable;
      result.reason = std::move(two_views);
      return result;
    }
    result.verdict = Verdict::kUnknown;
    result.reason = StrCat("too many transactions (", txns.size(),
                           ") for exhaustive search");
    if (!first_mismatch.empty()) {
      StrAppend(result.reason, "; e.g. ", first_mismatch);
    }
    return result;
  }

  std::vector<TxnId> order(txns);
  std::sort(order.begin(), order.end());
  do {
    if (try_order(order)) return result;
  } while (std::next_permutation(order.begin(), order.end()));

  result.verdict = Verdict::kNotSerializable;
  result.reason = StrCat("no serial order of ", txns.size(),
                         " transactions is view-equivalent (",
                         result.orders_tried, " orders tried); e.g. ",
                         first_mismatch);
  return result;
}

ViewCheckResult CheckViewSerializability(const std::vector<Op>& committed,
                                         size_t max_txns) {
  return CheckViewSerializability(committed, BuildCommitOrderGraph(committed),
                                  max_txns);
}

bool CommitGraphAcyclic(const std::vector<Op>& committed) {
  return !BuildCommitOrderGraph(committed).HasCycle();
}

}  // namespace hermes::history
