#include "history/graphs.h"

#include <algorithm>
#include <functional>
#include <queue>
#include <unordered_map>

#include "common/str.h"

namespace hermes::history {

uint32_t TxnGraph::AddNode(const TxnId& id) {
  const uint32_t node = index_.Insert(id);
  if (node == out_.size()) out_.emplace_back();
  return node;
}

void TxnGraph::AddEdge(const TxnId& from, const TxnId& to) {
  AddEdge(AddNode(from), AddNode(to));
}

void TxnGraph::AddEdge(uint32_t from, uint32_t to) {
  std::vector<uint32_t>& out = out_[from];
  if (from != to && (out.empty() || out.back() != to)) out.push_back(to);
}

bool TxnGraph::HasEdge(const TxnId& from, const TxnId& to) const {
  const uint32_t f = index_.Find(from);
  const uint32_t t = index_.Find(to);
  if (f == index_.kAbsent || t == index_.kAbsent) return false;
  const std::vector<uint32_t>& out = out_[f];
  return std::find(out.begin(), out.end(), t) != out.end();
}

size_t TxnGraph::edge_count() const {
  size_t n = 0;
  for (std::vector<uint32_t> out : out_) {
    std::sort(out.begin(), out.end());
    n += std::unique(out.begin(), out.end()) - out.begin();
  }
  return n;
}

bool TxnGraph::HasCycle() const { return FindCycle().has_value(); }

std::optional<std::vector<TxnId>> TxnGraph::FindCycle() const {
  enum class VisitState : uint8_t { kUnvisited, kInProgress, kDone };
  const std::vector<TxnId>& id = ids();
  std::vector<VisitState> state(id.size(), VisitState::kUnvisited);
  // The DFS path, iterative so that a reduced graph's per-site chain of
  // commits cannot overflow the stack: each node with its next out-arc.
  std::vector<std::pair<uint32_t, size_t>> path;
  for (uint32_t root = 0; root < id.size(); ++root) {
    if (state[root] != VisitState::kUnvisited) continue;
    state[root] = VisitState::kInProgress;
    path.emplace_back(root, 0);
    while (!path.empty()) {
      auto& [node, next_arc] = path.back();
      if (next_arc == out_[node].size()) {
        state[node] = VisitState::kDone;
        path.pop_back();
        continue;
      }
      const uint32_t next = out_[node][next_arc++];
      if (state[next] == VisitState::kInProgress) {
        // `next` is on the path: the cycle is the path from it onwards.
        auto start = std::find_if(path.begin(), path.end(), [&](auto& p) {
          return p.first == next;
        });
        std::vector<TxnId> cycle;
        for (; start != path.end(); ++start) {
          cycle.push_back(id[start->first]);
        }
        cycle.push_back(id[next]);
        return cycle;
      }
      if (state[next] == VisitState::kUnvisited) {
        state[next] = VisitState::kInProgress;
        path.emplace_back(next, 0);
      }
    }
  }
  return std::nullopt;
}

std::optional<std::vector<TxnId>> TxnGraph::TopologicalOrder() const {
  const std::vector<TxnId>& id = ids();
  std::vector<uint32_t> indegree(id.size(), 0);
  for (const auto& out : out_) {
    for (uint32_t t : out) ++indegree[t];
  }
  // Each node's rank in id order, so the heap compares integers.
  const std::vector<uint32_t> by_id = index_.IndicesByKey();
  std::vector<uint32_t> rank(id.size());
  for (uint32_t r = 0; r < by_id.size(); ++r) rank[by_id[r]] = r;
  // Kahn's algorithm popping the smallest ready id. A node is ready once
  // all its ancestors are emitted, so the order depends on reachability
  // alone: a graph and its transitive reduction give the same order.
  std::priority_queue<uint32_t, std::vector<uint32_t>, std::greater<>> ready;
  for (uint32_t node = 0; node < id.size(); ++node) {
    if (indegree[node] == 0) ready.push(rank[node]);
  }
  std::vector<TxnId> order;
  order.reserve(id.size());
  while (!ready.empty()) {
    const uint32_t node = by_id[ready.top()];
    ready.pop();
    order.push_back(id[node]);
    for (uint32_t t : out_[node]) {
      if (--indegree[t] == 0) ready.push(rank[t]);
    }
  }
  if (order.size() != id.size()) return std::nullopt;
  return order;
}

std::string TxnGraph::ToString() const {
  const std::vector<TxnId>& id = ids();
  auto by_id = [&](uint32_t a, uint32_t b) { return id[a] < id[b]; };
  std::string out;
  for (uint32_t node : index_.IndicesByKey()) {
    std::vector<uint32_t> edges = out_[node];
    std::sort(edges.begin(), edges.end());
    edges.erase(std::unique(edges.begin(), edges.end()), edges.end());
    std::sort(edges.begin(), edges.end(), by_id);
    StrAppend(out, id[node].ToString(), " -> {");
    bool first = true;
    for (uint32_t t : edges) {
      if (!first) out += ", ";
      first = false;
      out += id[t].ToString();
    }
    out += "}\n";
  }
  return out;
}

TxnGraph BuildSerializationGraph(const std::vector<Op>& ops) {
  TxnGraph g;
  // Per item, the transaction of the last write and the transactions that
  // read since. Arcs from them to the next conflicting access reach every
  // later conflicting access through the chain of writes.
  struct Access {
    std::optional<uint32_t> writer;
    std::vector<uint32_t> readers;
  };
  DenseIndex<ItemId, ItemIdHash> items;
  std::vector<Access> access;
  for (const Op& op : ops) {
    const uint32_t txn = g.AddNode(op.subtxn.txn);
    if (!IsDataKind(op.kind)) continue;
    const uint32_t item = items.Insert(op.item);
    if (item == access.size()) access.emplace_back();
    Access& a = access[item];
    if (a.writer.has_value()) g.AddEdge(*a.writer, txn);
    if (op.kind == OpKind::kRead) {
      if (a.readers.empty() || a.readers.back() != txn) {
        a.readers.push_back(txn);
      }
      continue;
    }
    for (uint32_t reader : a.readers) g.AddEdge(reader, txn);
    a.readers.clear();
    a.writer = txn;
  }
  return g;
}

TxnGraph BuildCommitOrderGraph(const std::vector<Op>& ops) {
  TxnGraph g;
  // Transactions whose prepared residue left a site in a shard handoff
  // (kMigrateOut) commit at the adopting site when the carried decision
  // lands — an instant dictated by the handoff, not by the adopter's
  // SN-certified commit order — so the per-site total-order invariant does
  // not apply to them. They stay in C(H) and are still judged by the
  // atomicity, replay and view-serializability oracles.
  DenseIndex<TxnId> migrated;
  for (const Op& op : ops) {
    if (op.kind == OpKind::kMigrateOut) migrated.Insert(op.subtxn.txn);
  }
  // Per site, an arc from each local commit to the next one.
  std::unordered_map<SiteId, uint32_t> last_commit;
  for (const Op& op : ops) {
    if (op.kind != OpKind::kLocalCommit) continue;
    if (migrated.Contains(op.subtxn.txn)) continue;
    const uint32_t txn = g.AddNode(op.subtxn.txn);
    auto [it, first] = last_commit.try_emplace(op.site, txn);
    if (!first) {
      g.AddEdge(it->second, txn);
      it->second = txn;
    }
  }
  return g;
}

}  // namespace hermes::history
