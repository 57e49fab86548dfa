#include "common/stable_hash.h"

#include <cstring>

namespace fdrepair {
namespace {

constexpr uint64_t kTextMul = 0x8ebc6af09c88c6e3ULL;
constexpr uint64_t kTextSeed = 0x589965cc75374cc3ULL;

uint64_t LoadLittleEndian64(const char* bytes) {
  uint64_t word;
  std::memcpy(&word, bytes, sizeof(word));
  if constexpr (std::endian::native == std::endian::big) {
    word = __builtin_bswap64(word);
  }
  return word;
}

}  // namespace

uint64_t TextDigest(std::string_view text) {
  uint64_t state = MulFold(text.size() ^ kTextSeed, kTextMul);
  const char* bytes = text.data();
  size_t left = text.size();
  for (; left >= 8; bytes += 8, left -= 8) {
    state = MulFold(state ^ LoadLittleEndian64(bytes), kTextMul);
  }
  if (left > 0) {
    // The zero-padded tail; the length prefix keeps "ab" and "ab\0" apart.
    uint64_t tail = 0;
    for (size_t i = 0; i < left; ++i) {
      tail |= static_cast<uint64_t>(static_cast<unsigned char>(bytes[i]))
              << (8 * i);
    }
    state = MulFold(state ^ tail, kTextMul);
  }
  return state;
}

}  // namespace fdrepair
