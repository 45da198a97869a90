#include "qmap/wire/codec.h"

#include <utility>

#include "qmap/expr/parser.h"
#include "qmap/expr/printer.h"

namespace qmap {

void PutU8(std::string* out, uint8_t v) { out->push_back(static_cast<char>(v)); }

void PutU16(std::string* out, uint16_t v) {
  for (int i = 0; i < 2; ++i) out->push_back(static_cast<char>(v >> (8 * i)));
}

void PutU32(std::string* out, uint32_t v) {
  for (int i = 0; i < 4; ++i) out->push_back(static_cast<char>(v >> (8 * i)));
}

void PutU64(std::string* out, uint64_t v) {
  for (int i = 0; i < 8; ++i) out->push_back(static_cast<char>(v >> (8 * i)));
}

void PutStr(std::string* out, std::string_view s) {
  PutU32(out, static_cast<uint32_t>(s.size()));
  out->append(s);
}

bool PayloadReader::ReadU8(uint8_t* out) {
  if (pos_ + 1 > data_.size()) return false;
  *out = static_cast<uint8_t>(data_[pos_++]);
  return true;
}

bool PayloadReader::ReadU16(uint16_t* out) {
  if (pos_ + 2 > data_.size()) return false;
  uint16_t v = 0;
  for (int i = 0; i < 2; ++i) {
    v = static_cast<uint16_t>(
        v | static_cast<uint16_t>(static_cast<uint8_t>(data_[pos_ + i]))
                << (8 * i));
  }
  pos_ += 2;
  *out = v;
  return true;
}

bool PayloadReader::ReadU32(uint32_t* out) {
  if (pos_ + 4 > data_.size()) return false;
  uint32_t v = 0;
  for (int i = 0; i < 4; ++i) {
    v |= static_cast<uint32_t>(static_cast<uint8_t>(data_[pos_ + i]))
         << (8 * i);
  }
  pos_ += 4;
  *out = v;
  return true;
}

bool PayloadReader::ReadU64(uint64_t* out) {
  if (pos_ + 8 > data_.size()) return false;
  uint64_t v = 0;
  for (int i = 0; i < 8; ++i) {
    v |= static_cast<uint64_t>(static_cast<uint8_t>(data_[pos_ + i]))
         << (8 * i);
  }
  pos_ += 8;
  *out = v;
  return true;
}

bool PayloadReader::ReadStr(std::string_view* out) {
  uint32_t len = 0;
  if (!ReadU32(&len) || pos_ + len > data_.size()) return false;
  *out = data_.substr(pos_, len);
  pos_ += len;
  return true;
}

namespace {

// PutStr of the query's parseable text, rendered in place (through `memo`
// when there is one): a zero length goes out first and is patched once the
// text's size is known.
void PutQueryText(std::string* out, const Query& query, RenderMemo* memo) {
  const size_t prefix = out->size();
  PutU32(out, 0);
  if (memo != nullptr) {
    memo->Append(query, out);
  } else {
    AppendParseableText(query, out);
  }
  const auto length = static_cast<uint32_t>(out->size() - prefix - 4);
  for (int i = 0; i < 4; ++i) {
    (*out)[prefix + i] = static_cast<char>(length >> (8 * i));
  }
}

}  // namespace

void EncodeTranslationBody(std::string* out, const Translation& value,
                           RenderMemo* memo) {
  PutQueryText(out, value.mapped, memo);
  PutQueryText(out, value.filter, memo);
  const auto& entries = value.coverage.Entries();
  PutU32(out, static_cast<uint32_t>(entries.size()));
  for (const auto& [fp, exact] : entries) {
    PutU64(out, fp);
    PutU8(out, exact ? 1 : 0);
  }
}

Result<Translation> DecodeTranslationBody(PayloadReader& reader) {
  std::string_view mapped_text;
  std::string_view filter_text;
  uint32_t n = 0;
  if (!reader.ReadStr(&mapped_text) || !reader.ReadStr(&filter_text) ||
      !reader.ReadU32(&n)) {
    return Status::Internal("translation body: truncated");
  }
  Translation value;
  Result<Query> mapped = ParseQuery(mapped_text);
  if (!mapped.ok()) return mapped.status();
  Result<Query> filter = ParseQuery(filter_text);
  if (!filter.ok()) return filter.status();
  value.mapped = std::move(mapped).value();
  value.filter = std::move(filter).value();
  for (uint32_t i = 0; i < n; ++i) {
    uint64_t fp = 0;
    uint8_t exact = 0;
    if (!reader.ReadU64(&fp) || !reader.ReadU8(&exact)) {
      return Status::Internal("translation body: malformed coverage entry");
    }
    value.coverage.RestoreEntry(fp, exact != 0);
  }
  return Result<Translation>(std::move(value));
}

void EncodeStatusBody(std::string* out, const Status& status) {
  PutU32(out, static_cast<uint32_t>(status.code()));
  PutStr(out, status.message());
}

bool DecodeStatusBody(PayloadReader& reader, Status* out) {
  uint32_t code = 0;
  std::string_view message;
  if (!reader.ReadU32(&code) || !reader.ReadStr(&message) ||
      code > static_cast<uint32_t>(StatusCode::kCancelled)) {
    return false;
  }
  *out = Status(static_cast<StatusCode>(code), std::string(message));
  return true;
}

}  // namespace qmap
