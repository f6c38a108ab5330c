#include "trace/binary.h"

#include <algorithm>
#include <cstring>
#include <iterator>
#include <limits>

#include "common/str.h"

namespace hermes::trace {

namespace {

// Little-endian scalar accessors — explicit byte shuffles so the format is
// identical on any host.
void PutU64(uint8_t* p, uint64_t v) {
  for (int i = 0; i < 8; ++i) p[i] = static_cast<uint8_t>(v >> (8 * i));
}
uint64_t GetU64(const uint8_t* p) {
  uint64_t v = 0;
  for (int i = 0; i < 8; ++i) v |= static_cast<uint64_t>(p[i]) << (8 * i);
  return v;
}
void PutI64(uint8_t* p, int64_t v) { PutU64(p, static_cast<uint64_t>(v)); }
int64_t GetI64(const uint8_t* p) { return static_cast<int64_t>(GetU64(p)); }
void PutU32(uint8_t* p, uint32_t v) {
  for (int i = 0; i < 4; ++i) p[i] = static_cast<uint8_t>(v >> (8 * i));
}
uint32_t GetU32(const uint8_t* p) {
  uint32_t v = 0;
  for (int i = 0; i < 4; ++i) v |= static_cast<uint32_t>(p[i]) << (8 * i);
  return v;
}
void PutI32(uint8_t* p, int32_t v) { PutU32(p, static_cast<uint32_t>(v)); }
int32_t GetI32(const uint8_t* p) { return static_cast<int32_t>(GetU32(p)); }

constexpr size_t kNumEventKinds = std::size(kAllEventKinds);
constexpr size_t kNumRefuseKinds = std::size(kAllRefuseKinds);

bool IsBinaryTrace(std::string_view data) {
  return data.size() >= sizeof(kBinaryTraceMagic) &&
         std::memcmp(data.data(), kBinaryTraceMagic,
                     sizeof(kBinaryTraceMagic)) == 0;
}

}  // namespace

uint32_t StringInterner::Intern(std::string_view s) {
  if (s.empty()) return 0;
  auto it = ids_.find(s);
  if (it != ids_.end()) return it->second;
  entries_.emplace_back(s);
  const uint32_t id = static_cast<uint32_t>(entries_.size());  // ids 1..
  ids_.emplace(entries_.back(), id);
  return id;
}

void StringInterner::Clear() {
  entries_.clear();
  ids_.clear();
}

void AppendRelated(const std::vector<TxnId>& related, std::string& out) {
  for (size_t i = 0; i < related.size(); ++i) {
    if (i > 0) out += ',';
    AppendTxnId(related[i], out);
  }
}

std::string EncodeRelated(const std::vector<TxnId>& related) {
  std::string out;
  AppendRelated(related, out);
  return out;
}

Result<std::vector<TxnId>> DecodeRelated(const std::string& text) {
  std::vector<TxnId> out;
  size_t start = 0;
  while (start <= text.size()) {
    if (text.empty()) break;
    size_t end = text.find(',', start);
    if (end == std::string::npos) end = text.size();
    Result<TxnId> id = DecodeTxnId(text.substr(start, end - start));
    if (!id.ok()) return id.status();
    out.push_back(*id);
    if (end == text.size()) break;
    start = end + 1;
  }
  return out;
}

void EncodeBinaryRecord(const Event& e, uint32_t detail_id,
                        uint32_t related_id, uint8_t* out) {
  PutI64(out + 0, e.seq);
  PutI64(out + 8, e.at);
  PutI64(out + 16, e.value);
  PutI64(out + 24, e.txn.seq);
  PutI64(out + 32, e.sn.clock);
  PutI64(out + 40, e.sn.seq);
  PutI32(out + 48, e.txn.site);
  PutI32(out + 52, e.sn.coordinator);
  PutI32(out + 56, e.site);
  PutI32(out + 60, e.peer);
  PutI32(out + 64, e.resubmission);
  PutU32(out + 68, detail_id);
  PutU32(out + 72, related_id);
  out[76] = static_cast<uint8_t>(e.kind);
  out[77] = static_cast<uint8_t>(e.refuse);
  out[78] = static_cast<uint8_t>((e.ok ? 1u : 0u) |
                                 (static_cast<uint8_t>(e.txn.kind) << 1));
  out[79] = 0;
}

Status DecodeBinaryRecord(const uint8_t* in,
                          const std::vector<std::string>& dict, Event& out) {
  if (in[76] >= kNumEventKinds) {
    return Status::InvalidArgument(
        StrCat("unknown event kind byte: ", in[76]));
  }
  if (in[77] >= kNumRefuseKinds) {
    return Status::InvalidArgument(
        StrCat("unknown refuse kind byte: ", in[77]));
  }
  const uint8_t flags = in[78];
  const uint8_t txn_kind = (flags >> 1) & 0x3;
  if (txn_kind > 2) {
    return Status::InvalidArgument(
        StrCat("bad transaction kind in flags: ", flags));
  }
  const uint32_t detail_id = GetU32(in + 68);
  const uint32_t related_id = GetU32(in + 72);
  if (detail_id >= dict.size() || related_id >= dict.size()) {
    return Status::InvalidArgument("dictionary id out of range");
  }
  out.seq = GetI64(in + 0);
  out.at = GetI64(in + 8);
  out.value = GetI64(in + 16);
  out.txn.seq = GetI64(in + 24);
  out.sn.clock = GetI64(in + 32);
  out.sn.seq = GetI64(in + 40);
  out.txn.site = GetI32(in + 48);
  out.sn.coordinator = GetI32(in + 52);
  out.site = GetI32(in + 56);
  out.peer = GetI32(in + 60);
  out.resubmission = GetI32(in + 64);
  out.kind = kAllEventKinds[in[76]];
  out.refuse = kAllRefuseKinds[in[77]];
  out.ok = (flags & 1) != 0;
  out.txn.kind = static_cast<TxnId::Kind>(txn_kind);
  out.detail = dict[detail_id];
  Result<std::vector<TxnId>> related = DecodeRelated(dict[related_id]);
  if (!related.ok()) return related.status();
  out.related = std::move(*related);
  return Status::Ok();
}

uint8_t* WriteBinaryHeader(uint64_t dictionary_entries, uint64_t records,
                           int64_t dropped, int64_t sampled_out,
                           uint8_t* out) {
  std::memset(out, 0, kBinaryHeaderSize);
  std::memcpy(out, kBinaryTraceMagic, sizeof(kBinaryTraceMagic));
  out[4] = kBinaryTraceVersion;
  PutU64(out + 8, dictionary_entries);
  PutU64(out + 16, records);
  PutU64(out + 24, static_cast<uint64_t>(dropped));
  PutU64(out + 32, static_cast<uint64_t>(sampled_out));
  return out + kBinaryHeaderSize;
}

uint8_t* WriteBinaryDictionaryEntry(std::string_view s, uint8_t* out) {
  PutU32(out, static_cast<uint32_t>(s.size()));
  std::memcpy(out + 4, s.data(), s.size());
  return out + BinaryDictionaryEntrySize(s);
}

void BinaryTraceWriter::Add(const Event& e) {
  const uint32_t detail_id = interner_.Intern(e.detail);
  const uint32_t related_id = interner_.Intern(EncodeRelated(e.related));
  uint8_t rec[kBinaryRecordSize];
  EncodeBinaryRecord(e, detail_id, related_id, rec);
  records_.append(reinterpret_cast<const char*>(rec), sizeof(rec));
  ++count_;
}

std::string BinaryTraceWriter::Finish() const {
  const std::vector<std::string>& dict = interner_.entries();
  size_t dict_bytes = 0;
  for (const std::string& s : dict) dict_bytes += BinaryDictionaryEntrySize(s);
  std::string out(kBinaryHeaderSize + dict_bytes + records_.size(), '\0');
  uint8_t* p = WriteBinaryHeader(dict.size(), static_cast<uint64_t>(count_),
                                 dropped_, sampled_out_,
                                 reinterpret_cast<uint8_t*>(out.data()));
  for (const std::string& s : dict) p = WriteBinaryDictionaryEntry(s, p);
  std::memcpy(p, records_.data(), records_.size());
  return out;
}

namespace {

void Warn(BinaryParse& p, std::string msg) {
  if (p.warnings.size() < BinaryParse::kMaxWarnings) {
    p.warnings.push_back(std::move(msg));
  }
}

}  // namespace

BinaryParse ForEachBinaryEvent(std::string_view data,
                               const std::function<void(const Event&)>& fn) {
  BinaryParse p;
  const uint8_t* bytes = reinterpret_cast<const uint8_t*>(data.data());
  if (!IsBinaryTrace(data)) {
    p.truncated = true;
    Warn(p, "missing binary trace magic");
    return p;
  }
  if (data.size() < kBinaryHeaderSize) {
    p.truncated = true;
    Warn(p, "file ends inside the header");
    return p;
  }
  if (bytes[4] != kBinaryTraceVersion) {
    p.truncated = true;
    Warn(p, StrCat("unsupported binary trace version: ", bytes[4]));
    return p;
  }
  const uint64_t dict_count = GetU64(bytes + 8);
  // A count past int64 cannot be whole records of any file: it reads as
  // more than the file holds, so the parse ends truncated.
  p.records_declared = static_cast<int64_t>(std::min<uint64_t>(
      GetU64(bytes + 16), std::numeric_limits<int64_t>::max()));
  p.dropped = static_cast<int64_t>(GetU64(bytes + 24));
  p.sampled_out = static_cast<int64_t>(GetU64(bytes + 32));

  std::vector<std::string> dict;
  dict.emplace_back();  // id 0: the empty string
  size_t pos = kBinaryHeaderSize;
  for (uint64_t i = 0; i < dict_count; ++i) {
    if (pos + 4 > data.size()) {
      p.truncated = true;
      Warn(p, StrCat("file ends inside dictionary entry ", i + 1));
      return p;
    }
    const uint32_t len = GetU32(bytes + pos);
    pos += 4;
    if (pos + len > data.size()) {
      p.truncated = true;
      Warn(p, StrCat("file ends inside dictionary entry ", i + 1));
      return p;
    }
    dict.emplace_back(data.substr(pos, len));
    pos += len;
  }

  int64_t read = 0;
  while (read < p.records_declared) {
    if (pos + kBinaryRecordSize > data.size()) {
      p.truncated = true;
      Warn(p, StrCat("file ends mid-record after ", read, " of ",
                     p.records_declared, " record(s)"));
      break;
    }
    Event e;
    const Status s = DecodeBinaryRecord(bytes + pos, dict, e);
    pos += kBinaryRecordSize;
    ++read;
    if (!s.ok()) {
      ++p.skipped_records;
      Warn(p, StrCat("record ", read, ": ", s.message()));
      continue;
    }
    fn(e);
  }
  if (!p.truncated && pos != data.size()) {
    p.trailing_bytes = static_cast<int64_t>(data.size() - pos);
    Warn(p, StrCat(p.trailing_bytes, " trailing byte(s) after the last ",
                   "declared record"));
  }
  return p;
}

BinaryParse ParseBinaryLenient(std::string_view data) {
  std::vector<Event> events;
  BinaryParse p =
      ForEachBinaryEvent(data, [&](const Event& e) { events.push_back(e); });
  p.events = std::move(events);
  return p;
}

Result<std::vector<Event>> ParseBinary(std::string_view data) {
  BinaryParse p = ParseBinaryLenient(data);
  if (p.damaged()) {
    return Status::InvalidArgument(StrCat(
        "binary trace damaged: ", p.events.size(), " of ",
        p.records_declared, " record(s) recovered",
        p.warnings.empty() ? "" : StrCat(" — ", p.warnings.front())));
  }
  return std::move(p.events);
}

}  // namespace hermes::trace
