// Binary encoding primitives for on-disk formats.
//
// Little-endian fixed-width integers, LEB128 varints, length-prefixed strings and
// doubles, plus a running CRC32 for integrity. All storage formats in this directory
// (index snapshots, record logs, vault manifests) are built from these primitives so
// their byte layout is explicit and testable independent of the structures above.
//
// Decoding never trusts the input: every read checks remaining bytes and returns
// false on truncation or malformed varints, leaving the reader usable for error
// reporting (offset of the failure).
#ifndef FOCUS_SRC_STORAGE_SERIALIZER_H_
#define FOCUS_SRC_STORAGE_SERIALIZER_H_

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

namespace focus::storage {

// CRC32 (IEEE polynomial, reflected) of |data|; |seed| chains incremental updates.
uint32_t Crc32(std::string_view data, uint32_t seed = 0);

class Encoder {
 public:
  Encoder() = default;

  void PutU8(uint8_t v);
  void PutU32(uint32_t v);   // Little-endian fixed width.
  void PutU64(uint64_t v);   // Little-endian fixed width.
  void PutVarint(uint64_t v);
  // ZigZag-encoded signed varint.
  void PutSignedVarint(int64_t v);
  void PutDouble(double v);  // IEEE-754 bits, little-endian.
  void PutFloat(float v);
  // Varint length prefix, then raw bytes.
  void PutString(std::string_view s);
  // Raw bytes, no prefix: splices another encoder's output in place.
  void PutRaw(std::string_view s) { bytes_.append(s.data(), s.size()); }

  template <typename T, typename Fn>
  void PutVector(const std::vector<T>& items, Fn&& put_one) {
    PutVarint(items.size());
    for (const T& item : items) {
      put_one(*this, item);
    }
  }

  const std::string& bytes() const { return bytes_; }
  std::string TakeBytes() { return std::move(bytes_); }
  size_t size() const { return bytes_.size(); }

 private:
  std::string bytes_;
};

class Decoder {
 public:
  explicit Decoder(std::string_view bytes) : bytes_(bytes) {}

  bool GetU8(uint8_t* v);
  bool GetU32(uint32_t* v);
  bool GetU64(uint64_t* v);
  bool GetVarint(uint64_t* v);
  bool GetSignedVarint(int64_t* v);
  bool GetDouble(double* v);
  bool GetFloat(float* v);
  bool GetString(std::string* s);

  template <typename T, typename Fn>
  bool GetVector(std::vector<T>* items, Fn&& get_one) {
    uint64_t count = 0;
    if (!GetVarint(&count)) {
      return false;
    }
    // Reject absurd counts before reserving (a corrupt length must not OOM us). Each
    // element costs at least one byte on the wire.
    if (count > remaining()) {
      return false;
    }
    items->clear();
    items->reserve(static_cast<size_t>(count));
    for (uint64_t i = 0; i < count; ++i) {
      T item{};
      if (!get_one(*this, &item)) {
        return false;
      }
      items->push_back(std::move(item));
    }
    return true;
  }

  // Advances past |n| bytes without reading them; false on truncation.
  bool Skip(size_t n) {
    if (remaining() < n) {
      return false;
    }
    offset_ += n;
    return true;
  }

  size_t offset() const { return offset_; }
  size_t remaining() const { return bytes_.size() - offset_; }
  bool Done() const { return offset_ == bytes_.size(); }

 private:
  bool Take(size_t n, const char** out);

  std::string_view bytes_;
  size_t offset_ = 0;
};

}  // namespace focus::storage

#endif  // FOCUS_SRC_STORAGE_SERIALIZER_H_
