// Row predicates: conjunctions of comparisons on the primary key and on
// named fields. Predicates make command decomposition state-dependent — the
// property that lets resubmitted subtransactions legitimately decompose
// differently than the original (paper, section 3).

#ifndef HERMES_DB_PREDICATE_H_
#define HERMES_DB_PREDICATE_H_

#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "db/value.h"

namespace hermes::db {

enum class CmpOp { kEq, kNe, kLt, kLe, kGt, kGe };

const char* CmpOpName(CmpOp op);
bool EvalCmp(CmpOp op, const Value& lhs, const Value& rhs);

// One conjunct. `field` empty means the condition applies to the row key.
struct Condition {
  std::string field;
  CmpOp op = CmpOp::kEq;
  Value rhs;
};

class Predicate {
 public:
  // Matches every row.
  Predicate() = default;

  static Predicate True() { return Predicate(); }
  static Predicate KeyEquals(int64_t key);
  static Predicate KeyRange(int64_t lo, int64_t hi);  // inclusive
  static Predicate Field(std::string field, CmpOp op, Value rhs);

  // Conjunction (builder style): pred.AndKeyRange(...).AndField(...).
  Predicate& AndKeyEquals(int64_t key);
  Predicate& AndKeyRange(int64_t lo, int64_t hi);
  Predicate& AndField(std::string field, CmpOp op, Value rhs);

  bool Eval(int64_t key, const Row& row) const;

  // If the key conditions restrict matches to exactly one key, returns it —
  // the fast path that avoids a table scan.
  std::optional<int64_t> ExactKey() const;

  const std::vector<Condition>& conditions() const { return conds_; }

  std::string ToString() const;

 private:
  std::vector<Condition> conds_;
};

}  // namespace hermes::db

#endif  // HERMES_DB_PREDICATE_H_
