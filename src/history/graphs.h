// Serialization graph SG(H) and commit order graph CG(H).
//
// SG(H) is the classical conflict graph over the committed projection (the
// paper notes SG(H) may be cyclic while H is still view serializable, which
// is why view serializability is the ultimate criterion). CG(H) is the
// paper's section-5 instrument: nodes are transactions with at least one
// local commit; there is an arc T_k -> T_i iff some site commits a
// subtransaction of T_k before one of T_i. Acyclicity of CG(C(H)) is the
// paper's sufficient condition for view serializability (under CI and DLU).
//
// Both graphs are stored as transitive reductions, so they stay linear in
// the history: CG keeps only the arcs between consecutive commits at each
// site, SG only the arcs between consecutive conflicting accesses to each
// item. The paper's arcs are the reachability relation of the stored ones.
// Cycles, and the smallest-id-first topological order, depend on
// reachability alone, so they are those of the paper's graphs.

#ifndef HERMES_HISTORY_GRAPHS_H_
#define HERMES_HISTORY_GRAPHS_H_

#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "history/dense_index.h"
#include "history/op.h"

namespace hermes::history {

class TxnGraph {
 public:
  // Adds the node if new; returns its dense index (first-seen order).
  uint32_t AddNode(const TxnId& id);
  void AddEdge(const TxnId& from, const TxnId& to);
  // The same, by the dense indices AddNode returned.
  void AddEdge(uint32_t from, uint32_t to);

  bool HasNode(const TxnId& id) const { return index_.Contains(id); }
  // True for a stored arc; the paper's arcs are reachability (FindCycle,
  // TopologicalOrder).
  bool HasEdge(const TxnId& from, const TxnId& to) const;

  size_t node_count() const { return index_.size(); }
  // Distinct stored arcs.
  size_t edge_count() const;

  bool HasCycle() const;
  // Any cycle as a node sequence (first == last); nullopt when acyclic.
  std::optional<std::vector<TxnId>> FindCycle() const;
  // Topological order, smallest ready id first; nullopt when cyclic.
  std::optional<std::vector<TxnId>> TopologicalOrder() const;

  std::string ToString() const;

 private:
  // Node i is index_[i]; out_[i] are its out-arcs. An arc may be stored
  // more than once; every traversal is indifferent to that.
  const std::vector<TxnId>& ids() const { return index_.keys(); }

  DenseIndex<TxnId> index_;
  std::vector<std::vector<uint32_t>> out_;
};

// Conflict serialization graph over `ops` (pass a committed projection for
// SG(C(H))). Its reachability is T_a -> T_b for each pair of conflicting
// elementary ops (same item, at least one write/delete, different
// transactions) with the T_a op earlier in the sequence.
TxnGraph BuildSerializationGraph(const std::vector<Op>& ops);

// Commit order graph per section 5.1.
TxnGraph BuildCommitOrderGraph(const std::vector<Op>& ops);

}  // namespace hermes::history

#endif  // HERMES_HISTORY_GRAPHS_H_
