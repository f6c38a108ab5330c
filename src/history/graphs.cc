#include "history/graphs.h"

#include <algorithm>
#include <queue>
#include <unordered_set>

#include "common/str.h"

namespace hermes::history {

uint32_t TxnGraph::AddNode(const TxnId& id) {
  auto [it, inserted] =
      index_.try_emplace(id, static_cast<uint32_t>(ids_.size()));
  if (inserted) {
    ids_.push_back(id);
    out_.emplace_back();
  }
  return it->second;
}

void TxnGraph::AddEdge(const TxnId& from, const TxnId& to) {
  AddEdge(AddNode(from), AddNode(to));
}

void TxnGraph::AddEdge(uint32_t from, uint32_t to) {
  std::vector<uint32_t>& out = out_[from];
  if (from != to && (out.empty() || out.back() != to)) out.push_back(to);
}

bool TxnGraph::HasEdge(const TxnId& from, const TxnId& to) const {
  const auto f = index_.find(from);
  const auto t = index_.find(to);
  if (f == index_.end() || t == index_.end()) return false;
  const std::vector<uint32_t>& out = out_[f->second];
  return std::find(out.begin(), out.end(), t->second) != out.end();
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
  std::vector<VisitState> state(ids_.size(), VisitState::kUnvisited);
  // The DFS path, iterative so that a reduced graph's per-site chain of
  // commits cannot overflow the stack: each node with its next out-arc.
  std::vector<std::pair<uint32_t, size_t>> path;
  for (uint32_t root = 0; root < ids_.size(); ++root) {
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
          cycle.push_back(ids_[start->first]);
        }
        cycle.push_back(ids_[next]);
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
  std::vector<uint32_t> indegree(ids_.size(), 0);
  for (const auto& out : out_) {
    for (uint32_t t : out) ++indegree[t];
  }
  // Kahn's algorithm popping the smallest ready id. A node is ready once
  // all its ancestors are emitted, so the order depends on reachability
  // alone: a graph and its transitive reduction give the same order.
  auto later = [&](uint32_t a, uint32_t b) { return ids_[b] < ids_[a]; };
  std::priority_queue<uint32_t, std::vector<uint32_t>, decltype(later)> ready(
      later);
  for (uint32_t node = 0; node < ids_.size(); ++node) {
    if (indegree[node] == 0) ready.push(node);
  }
  std::vector<TxnId> order;
  order.reserve(ids_.size());
  while (!ready.empty()) {
    const uint32_t node = ready.top();
    ready.pop();
    order.push_back(ids_[node]);
    for (uint32_t t : out_[node]) {
      if (--indegree[t] == 0) ready.push(t);
    }
  }
  if (order.size() != ids_.size()) return std::nullopt;
  return order;
}

std::string TxnGraph::ToString() const {
  std::vector<uint32_t> nodes(ids_.size());
  for (uint32_t i = 0; i < nodes.size(); ++i) nodes[i] = i;
  auto by_id = [&](uint32_t a, uint32_t b) { return ids_[a] < ids_[b]; };
  std::sort(nodes.begin(), nodes.end(), by_id);
  std::string out;
  for (uint32_t node : nodes) {
    std::vector<uint32_t> edges = out_[node];
    std::sort(edges.begin(), edges.end());
    edges.erase(std::unique(edges.begin(), edges.end()), edges.end());
    std::sort(edges.begin(), edges.end(), by_id);
    StrAppend(out, ids_[node].ToString(), " -> {");
    bool first = true;
    for (uint32_t t : edges) {
      if (!first) out += ", ";
      first = false;
      out += ids_[t].ToString();
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
  std::unordered_map<ItemId, Access, ItemIdHash> items;
  for (const Op& op : ops) {
    const uint32_t txn = g.AddNode(op.subtxn.txn);
    if (!IsDataKind(op.kind)) continue;
    Access& a = items[op.item];
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
  std::unordered_set<TxnId> migrated;
  for (const Op& op : ops) {
    if (op.kind == OpKind::kMigrateOut) migrated.insert(op.subtxn.txn);
  }
  // Per site, an arc from each local commit to the next one.
  std::unordered_map<SiteId, uint32_t> last_commit;
  for (const Op& op : ops) {
    if (op.kind != OpKind::kLocalCommit) continue;
    if (migrated.count(op.subtxn.txn) != 0) continue;
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
