// Buffer-at-a-time structural bitmap pass (the software analogue of the
// paper's shared byte-stream preprocessing).
//
// The FPGA reaches line rate because framing, string masking and every
// matcher consume the same byte in the same cycle; the software hot path
// gets the same effect by materialising the per-byte structural facts for
// a whole ingest buffer *once*, as bitmaps, before any downstream stage
// touches a byte:
//
//   buffer bytes ──classify_block──▶ backslash/quote/separator/structural
//        │                           masks (one 64-bit word per 64-byte
//        │                           block, one vector sweep per block)
//        └──────speculative carry───▶ masked    = string-literal bytes
//                                     boundary  = unmasked separators
//                                     structural= unmasked { } [ ] ,
//
// Downstream consumers never re-walk bytes: record framing is a ctz walk
// of `boundary`, the structural groups' segments are cut at the bits of
// `structural` (segment_any below), the value leaves' token runs come
// from `token`, and the string mask is a bit test.
//
// Speculation (fpga-json-parser style): the escape automaton for a block
// is evaluated for BOTH carry-in states (escape pending / not pending) and
// the real one is selected when the block commits, so the per-word
// computation has no byte-serial dependency. The in-string mask comes from
// a prefix-XOR ladder over the unescaped quotes; the carry-in state flips
// the whole word (one XOR) at commit.
//
// Exactness: the word-parallel escape calculation (simdjson's odd-length
// backslash-run trick) arms *every* backslash, while the tracker in
// core/structure.hpp only arms backslashes inside string literals. The two
// agree whenever every backslash of a word is string content or escape
// payload - which the pass verifies per word (backslash & ~(masked |
// escaped) == 0) - and any word failing the check (a backslash in raw
// bytes outside any literal: not JSON, but the engine must still frame it
// byte-identically) is recomputed with the scalar automaton. The
// equivalence suite pins the result to structure_tracker byte for byte.
#pragma once

#include <bit>
#include <cstddef>
#include <cstdint>
#include <span>
#include <vector>

#include "core/simd.hpp"

namespace jrf::core {

/// Framing-automaton state carried between buffers (and speculated over
/// inside one): inside a string literal / next byte is escape payload.
struct framing_state {
  bool in_string = false;
  bool escaped = false;

  friend bool operator==(const framing_state&, const framing_state&) = default;
};

/// First set bit in [from, end) of a word array covering at least `end`
/// bits; simd::npos when none. As a range test, next_bit(w, lo, hi) !=
/// npos asks whether any bit of [lo, hi) is set.
inline std::size_t next_bit(std::span<const std::uint64_t> words,
                            std::size_t from, std::size_t end) noexcept {
  if (from >= end) return simd::npos;
  std::size_t w = from >> 6;
  const std::size_t last = (end - 1) >> 6;
  std::uint64_t word = words[w] & (~std::uint64_t{0} << (from & 63));
  while (word == 0) {
    if (++w > last) return simd::npos;
    word = words[w];
  }
  const std::size_t at =
      (w << 6) + static_cast<std::size_t>(std::countr_zero(word));
  return at < end ? at : simd::npos;
}

/// One word of a segmented OR: the set bits of `bounds` end segments, and
/// bit s of the result is set, for each bound s, iff `x` has a bit in the
/// segment ending at s (s included). `carry` links a segment begun in an
/// earlier word (false before the first). Adding a segment's bits of `x`
/// to its interior (a run of ones in ~bounds) carries into the bound; the
/// carry out of a word depends on the carry in only when the word is one
/// interior without a bit of `x`.
inline std::uint64_t segment_any(std::uint64_t bounds, std::uint64_t x,
                                 bool& carry) noexcept {
  const std::uint64_t inside = ~bounds;
  std::uint64_t sum = 0;
  const bool wrapped = __builtin_add_overflow(inside, x & inside, &sum);
  const std::uint64_t out = bounds & ((sum + carry) | x);
  carry = sum == ~std::uint64_t{0} ? carry : wrapped;
  return out;
}

/// Append the absolute positions of the set bits in [begin, end) to `out`
/// in ascending order (simd::expand_bits per word - vpcompressb on the
/// avx512 tier where available).
void collect_bits(std::span<const std::uint64_t> words, std::size_t begin,
                  std::size_t end, simd::simd_level level,
                  std::vector<std::uint32_t>& out);

/// One vectored sweep over a buffer producing the three structural
/// bitmaps. The instance owns its word storage and reuses it across
/// compute() calls (the chunked engine calls it once per ingest buffer
/// and once per carried record).
class bitmap_pass {
 public:
  /// Sweep data[0, size) starting from carry state `start`. Any separator
  /// byte is supported; '"' yields zero boundaries (a quote separator is
  /// always masked, matching the tracker).
  void compute(const unsigned char* data, std::size_t size,
               unsigned char separator, framing_state start,
               simd::simd_level level);

  std::size_t size() const noexcept { return size_; }
  framing_state end_state() const noexcept { return end_; }

  /// String-literal bytes, both delimiters included (tracker `masked`).
  std::span<const std::uint64_t> masked() const noexcept { return masked_; }
  /// Unmasked separator bytes - the record boundaries.
  std::span<const std::uint64_t> boundary() const noexcept {
    return boundary_;
  }
  /// Unmasked '{' '}' '[' ']' ',' excluding boundary positions - the bytes
  /// the group trackers react to.
  std::span<const std::uint64_t> structural() const noexcept {
    return structural_;
  }
  /// Numeric-token-class bytes ('0'-'9', '+', '-', '.', 'e'/'E'), RAW -
  /// not string-mask-subtracted, because value engines match quoted
  /// numerals too. The chunked engine's token runs come from this map.
  std::span<const std::uint64_t> token() const noexcept { return token_; }

  bool masked_at(std::size_t pos) const noexcept {
    return (masked_[pos >> 6] >> (pos & 63)) & 1;
  }
  std::size_t next_boundary(std::size_t from) const noexcept {
    return next_bit(boundary_, from, size_);
  }

  /// Words recomputed by the scalar fallback (backslash outside any
  /// string literal); exposed for tests and diagnostics.
  std::uint64_t scalar_fallback_words() const noexcept { return fallbacks_; }

 private:
  void compute_word_scalar(const unsigned char* data, std::size_t len,
                           unsigned char separator, framing_state& st,
                           std::size_t w);

  std::vector<std::uint64_t> masked_;
  std::vector<std::uint64_t> boundary_;
  std::vector<std::uint64_t> structural_;
  std::vector<std::uint64_t> token_;
  std::size_t size_ = 0;
  framing_state end_{};
  std::uint64_t fallbacks_ = 0;
};

}  // namespace jrf::core
