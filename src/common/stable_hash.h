// Stable 64-bit hashing: the one mixer behind cache keys, table content
// hashes, delta chain hashes and interned-value text digests.
//
// std::hash is deliberately avoided: its values differ across standard
// libraries and runs, and cache keys must be reproducible enough to log,
// compare and test against. Everything here is fixed integer arithmetic,
// so a digest depends only on its input — never on the process, the run,
// the standard library or the host's byte order.
//
// The mixer is wyhash's 64×64→128-bit multiply-fold (MulFold: multiply,
// then XOR the high and low halves of the product). StableHasher absorbs
// one 64-bit word per step, state = MulFold(state ^ word, kMul); a string
// is absorbed as its TextDigest, which binds the length first and then the
// bytes eight at a time in little-endian order. Every field is therefore a
// fixed-width word or a length-framed digest, so concatenation ambiguities
// ("ab"+"c" vs "a"+"bc") cannot collide by construction.

#ifndef FDREPAIR_COMMON_STABLE_HASH_H_
#define FDREPAIR_COMMON_STABLE_HASH_H_

#include <bit>
#include <cstdint>
#include <string_view>

namespace fdrepair {

/// wyhash's multiply-fold: the 128-bit product a·b with its halves XORed.
inline uint64_t MulFold(uint64_t a, uint64_t b) {
  const unsigned __int128 product = static_cast<unsigned __int128>(a) * b;
  return static_cast<uint64_t>(product) ^
         static_cast<uint64_t>(product >> 64);
}

/// The stable digest of a string: length-framed, eight bytes per MulFold
/// step, little-endian on every host. ValuePool memoizes it per interned
/// value (value_pool.h), so hashing a cell never re-reads its text.
uint64_t TextDigest(std::string_view text);

/// An incremental stable hasher with framed mixing primitives.
class StableHasher {
 public:
  StableHasher() = default;

  /// Mixes a fixed-width word.
  void MixUint64(uint64_t value) { state_ = MulFold(state_ ^ value, kMul); }
  /// Mixes a signed word via its two's-complement bit pattern.
  void MixInt64(int64_t value) { MixUint64(static_cast<uint64_t>(value)); }
  /// Mixes a double via its IEEE-754 bit pattern (NaNs are caller-rejected
  /// upstream; +0.0 and -0.0 hash differently, as they should).
  void MixDouble(double value) { MixUint64(std::bit_cast<uint64_t>(value)); }
  /// Mixes a string as its length-framed TextDigest — exactly what mixing
  /// an interned value's memoized digest does.
  void MixString(std::string_view text) { MixUint64(TextDigest(text)); }

  uint64_t digest() const { return state_; }

 private:
  // wyhash's default secrets.
  static constexpr uint64_t kMul = 0xa0761d6478bd642fULL;
  uint64_t state_ = 0xe7037ed1a0b428dbULL;
};

}  // namespace fdrepair

#endif  // FDREPAIR_COMMON_STABLE_HASH_H_
