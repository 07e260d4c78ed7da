#include "src/storage/serializer.h"

#include <bit>
#include <cstring>

namespace focus::storage {

namespace {

// Table-driven CRC32 (IEEE 802.3, reflected polynomial 0xEDB88320), sliced by
// sixteen: table k advances a byte's contribution past k further zero bytes,
// so one step folds sixteen input bytes. Index images are CRC'd whole at every
// epoch and shm epoch headers at every Acquire, so the per-byte cost matters.
using Crc32Tables = uint32_t[16][256];

const Crc32Tables& Crc32Table() {
  static const Crc32Tables& tables = []() -> const Crc32Tables& {
    static Crc32Tables t;
    for (uint32_t i = 0; i < 256; ++i) {
      uint32_t crc = i;
      for (int bit = 0; bit < 8; ++bit) {
        crc = (crc >> 1) ^ ((crc & 1) != 0 ? 0xEDB88320u : 0u);
      }
      t[0][i] = crc;
    }
    for (uint32_t i = 0; i < 256; ++i) {
      for (int k = 1; k < 16; ++k) {
        t[k][i] = (t[k - 1][i] >> 8) ^ t[0][t[k - 1][i] & 0xFF];
      }
    }
    return t;
  }();
  return tables;
}

}  // namespace

uint32_t Crc32(std::string_view data, uint32_t seed) {
  static_assert(std::endian::native == std::endian::little, "sliced CRC loads little-endian words");
  const Crc32Tables& t = Crc32Table();
  uint32_t crc = ~seed;
  const char* p = data.data();
  size_t n = data.size();
  for (; n >= 16; p += 16, n -= 16) {
    uint32_t words[4];
    std::memcpy(words, p, sizeof(words));
    words[0] ^= crc;
    crc = 0;
    for (int w = 0; w < 4; ++w) {
      const int k = 15 - 4 * w;  // Table of this word's first byte.
      crc ^= t[k][words[w] & 0xFF] ^ t[k - 1][(words[w] >> 8) & 0xFF] ^
             t[k - 2][(words[w] >> 16) & 0xFF] ^ t[k - 3][words[w] >> 24];
    }
  }
  for (; n > 0; ++p, --n) {
    crc = (crc >> 8) ^ t[0][(crc ^ static_cast<uint8_t>(*p)) & 0xFF];
  }
  return ~crc;
}

void Encoder::PutU8(uint8_t v) { bytes_.push_back(static_cast<char>(v)); }

void Encoder::PutU32(uint32_t v) {
  for (int i = 0; i < 4; ++i) {
    bytes_.push_back(static_cast<char>((v >> (8 * i)) & 0xFF));
  }
}

void Encoder::PutU64(uint64_t v) {
  for (int i = 0; i < 8; ++i) {
    bytes_.push_back(static_cast<char>((v >> (8 * i)) & 0xFF));
  }
}

void Encoder::PutVarint(uint64_t v) {
  while (v >= 0x80) {
    bytes_.push_back(static_cast<char>((v & 0x7F) | 0x80));
    v >>= 7;
  }
  bytes_.push_back(static_cast<char>(v));
}

void Encoder::PutSignedVarint(int64_t v) {
  // ZigZag: small magnitudes of either sign stay short.
  PutVarint((static_cast<uint64_t>(v) << 1) ^ static_cast<uint64_t>(v >> 63));
}

void Encoder::PutDouble(double v) {
  uint64_t bits = 0;
  static_assert(sizeof(bits) == sizeof(v));
  std::memcpy(&bits, &v, sizeof(bits));
  PutU64(bits);
}

void Encoder::PutFloat(float v) {
  uint32_t bits = 0;
  static_assert(sizeof(bits) == sizeof(v));
  std::memcpy(&bits, &v, sizeof(bits));
  PutU32(bits);
}

void Encoder::PutString(std::string_view s) {
  PutVarint(s.size());
  bytes_.append(s.data(), s.size());
}

bool Decoder::Take(size_t n, const char** out) {
  if (remaining() < n) {
    return false;
  }
  *out = bytes_.data() + offset_;
  offset_ += n;
  return true;
}

bool Decoder::GetU8(uint8_t* v) {
  const char* p = nullptr;
  if (!Take(1, &p)) {
    return false;
  }
  *v = static_cast<uint8_t>(*p);
  return true;
}

bool Decoder::GetU32(uint32_t* v) {
  const char* p = nullptr;
  if (!Take(4, &p)) {
    return false;
  }
  *v = 0;
  for (int i = 0; i < 4; ++i) {
    *v |= static_cast<uint32_t>(static_cast<uint8_t>(p[i])) << (8 * i);
  }
  return true;
}

bool Decoder::GetU64(uint64_t* v) {
  const char* p = nullptr;
  if (!Take(8, &p)) {
    return false;
  }
  *v = 0;
  for (int i = 0; i < 8; ++i) {
    *v |= static_cast<uint64_t>(static_cast<uint8_t>(p[i])) << (8 * i);
  }
  return true;
}

bool Decoder::GetVarint(uint64_t* v) {
  *v = 0;
  int shift = 0;
  while (true) {
    // 10 bytes encode up to 70 bits; reject longer (malformed) sequences.
    if (shift >= 64) {
      return false;
    }
    uint8_t byte = 0;
    if (!GetU8(&byte)) {
      return false;
    }
    *v |= static_cast<uint64_t>(byte & 0x7F) << shift;
    if ((byte & 0x80) == 0) {
      return true;
    }
    shift += 7;
  }
}

bool Decoder::GetSignedVarint(int64_t* v) {
  uint64_t raw = 0;
  if (!GetVarint(&raw)) {
    return false;
  }
  *v = static_cast<int64_t>((raw >> 1) ^ (~(raw & 1) + 1));
  return true;
}

bool Decoder::GetDouble(double* v) {
  uint64_t bits = 0;
  if (!GetU64(&bits)) {
    return false;
  }
  std::memcpy(v, &bits, sizeof(bits));
  return true;
}

bool Decoder::GetFloat(float* v) {
  uint32_t bits = 0;
  if (!GetU32(&bits)) {
    return false;
  }
  std::memcpy(v, &bits, sizeof(bits));
  return true;
}

bool Decoder::GetString(std::string* s) {
  uint64_t len = 0;
  if (!GetVarint(&len) || len > remaining()) {
    return false;
  }
  const char* p = nullptr;
  if (!Take(static_cast<size_t>(len), &p)) {
    return false;
  }
  s->assign(p, static_cast<size_t>(len));
  return true;
}

}  // namespace focus::storage
