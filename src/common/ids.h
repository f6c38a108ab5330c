// Strongly-typed identifiers used throughout the HERMES reproduction.
//
// Terminology follows the paper (Veijalainen & Wolski, ICDE 1992):
//  - A *site* hosts one LDBS (local database system) with its LTM and, in
//    the 2PC Agent method, one 2PCA agent.
//  - A *global transaction* T_k is decomposed into at most one *global
//    subtransaction* T^s_k per participating site s. A global subtransaction
//    is realized by a sequence of *local subtransactions* T^s_k0, T^s_k1, ...
//    (index j is the resubmission count) which appear to the LTM as
//    independent local transactions.
//  - A *local transaction* L_o is submitted directly to an LTM and is
//    invisible to the DTM.

#ifndef HERMES_COMMON_IDS_H_
#define HERMES_COMMON_IDS_H_

#include <compare>
#include <cstdint>
#include <functional>
#include <ostream>
#include <string>

namespace hermes {

// Identifies a participating or coordinating site. Dense, starting at 0.
using SiteId = int32_t;
inline constexpr SiteId kInvalidSite = -1;

// Globally unique identifier of a transaction as seen by the serializability
// theory: global transactions get ids from the coordinating DTM, local
// transactions get ids from a per-site range. The id identifies the
// *transaction* T_k, not an individual local subtransaction T^s_kj.
struct TxnId {
  // kGlobal ids are issued by coordinators; kLocal ids by each LTM for
  // transactions submitted directly at the local interface.
  enum class Kind : uint8_t { kInvalid = 0, kGlobal = 1, kLocal = 2 };

  // The fields are laid out widest first so that a TxnId takes 16 bytes;
  // ids still order by (kind, seq, site), see operator<=>.
  //
  // For kGlobal: coordinator-issued sequence number (unique across sites
  // because it embeds the coordinating site, see MakeGlobal).
  // For kLocal: per-site sequence number.
  int64_t seq = -1;
  // For kLocal: the site the transaction executes at. For kGlobal: the
  // coordinating site.
  SiteId site = kInvalidSite;
  Kind kind = Kind::kInvalid;

  static TxnId MakeGlobal(SiteId coordinator_site, int64_t seq) {
    return TxnId{seq, coordinator_site, Kind::kGlobal};
  }
  static TxnId MakeLocal(SiteId site, int64_t seq) {
    return TxnId{seq, site, Kind::kLocal};
  }

  bool valid() const { return kind != Kind::kInvalid; }
  bool global() const { return kind == Kind::kGlobal; }
  bool local() const { return kind == Kind::kLocal; }

  friend bool operator==(const TxnId& a, const TxnId& b) = default;
  friend std::strong_ordering operator<=>(const TxnId& a, const TxnId& b) {
    if (a.kind != b.kind) return a.kind <=> b.kind;
    if (a.seq != b.seq) return a.seq <=> b.seq;
    return a.site <=> b.site;
  }

  std::string ToString() const;
};

std::ostream& operator<<(std::ostream& os, const TxnId& id);

// Identity of one local subtransaction: the transaction plus the
// resubmission index j (0 = original submission). Local transactions always
// have resubmission 0.
struct SubTxnId {
  TxnId txn;
  int32_t resubmission = 0;

  friend bool operator==(const SubTxnId& a, const SubTxnId& b) = default;
  friend auto operator<=>(const SubTxnId& a, const SubTxnId& b) = default;

  std::string ToString() const;
};

std::ostream& operator<<(std::ostream& os, const SubTxnId& id);

// Handle of a live transaction inside one LTM. Recycled never; dense per
// site. This is what the LTM API operates on.
using LtmTxnHandle = int64_t;
inline constexpr LtmTxnHandle kInvalidLtmTxn = -1;

// Identifies a data item (one concrete table row, as in the paper's model
// where "data items X^a, Y^a are single concrete table rows at site a").
struct ItemId {
  SiteId site = kInvalidSite;
  int32_t table = -1;
  int64_t key = -1;

  friend bool operator==(const ItemId& a, const ItemId& b) = default;
  friend auto operator<=>(const ItemId& a, const ItemId& b) = default;

  std::string ToString() const;
};

std::ostream& operator<<(std::ostream& os, const ItemId& id);

struct ItemIdHash {
  size_t operator()(const ItemId& id) const {
    size_t h = std::hash<int64_t>()(id.key);
    h ^= std::hash<int32_t>()(id.table) + 0x9e3779b9 + (h << 6) + (h >> 2);
    h ^= std::hash<int32_t>()(id.site) + 0x9e3779b9 + (h << 6) + (h >> 2);
    return h;
  }
};

}  // namespace hermes

// TxnId keys the certifier's and agents' hot lookup tables
// (std::unordered_map), so it gets a first-class std::hash specialization
// rather than a hasher that every container declaration must name.
template <>
struct std::hash<hermes::TxnId> {
  size_t operator()(const hermes::TxnId& id) const noexcept {
    size_t h = std::hash<int64_t>()(id.seq);
    h ^= std::hash<int32_t>()(static_cast<int32_t>(id.kind)) + 0x9e3779b9 +
         (h << 6) + (h >> 2);
    h ^= std::hash<int32_t>()(id.site) + 0x9e3779b9 + (h << 6) + (h >> 2);
    return h;
  }
};


#endif  // HERMES_COMMON_IDS_H_
