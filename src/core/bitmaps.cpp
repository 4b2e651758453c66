#include "core/bitmaps.hpp"

#include <algorithm>
#include <bit>

#include "core/structure.hpp"
#include "numrange/builder.hpp"

namespace jrf::core {

namespace {

/// Inclusive prefix XOR of a word: bit i of the result is the XOR of bits
/// [0, i]. The shift ladder is the carry-less multiply by ~0 without
/// requiring PCLMUL.
inline std::uint64_t prefix_xor(std::uint64_t x) noexcept {
  x ^= x << 1;
  x ^= x << 2;
  x ^= x << 4;
  x ^= x << 8;
  x ^= x << 16;
  x ^= x << 32;
  return x;
}

/// Escape-payload bits of one word (simdjson's odd-length backslash-run
/// resolution): bit i set iff byte i is consumed by a preceding backslash.
/// `prev` is the carry-in (byte 0 already escape payload), `carry_out`
/// whether the run spills into the next word with the escape pending.
inline std::uint64_t find_escaped(std::uint64_t backslash, bool prev,
                                  bool& carry_out) noexcept {
  const std::uint64_t prev_bit = prev ? 1u : 0u;
  if (backslash == 0) {
    carry_out = false;
    return prev_bit;
  }
  backslash &= ~prev_bit;
  const std::uint64_t follows_escape = (backslash << 1) | prev_bit;
  constexpr std::uint64_t even_bits = 0x5555555555555555ULL;
  const std::uint64_t odd_starts = backslash & ~even_bits & ~follows_escape;
  std::uint64_t sequences = 0;
  carry_out = __builtin_add_overflow(odd_starts, backslash, &sequences);
  return (even_bits ^ (sequences << 1)) & follows_escape;
}

}  // namespace

void collect_bits(std::span<const std::uint64_t> words, std::size_t begin,
                  std::size_t end, simd::simd_level level,
                  std::vector<std::uint32_t>& out) {
  if (begin >= end) return;
  const std::size_t w0 = begin >> 6;
  const std::size_t w1 = (end - 1) >> 6;
  for (std::size_t w = w0; w <= w1; ++w) {
    std::uint64_t m = words[w];
    if (w == w0) m &= ~std::uint64_t{0} << (begin & 63);
    if (w == w1) {
      const unsigned last = (end - 1) & 63;
      if (last != 63) m &= (std::uint64_t{1} << (last + 1)) - 1;
    }
    if (m != 0)
      simd::expand_bits(m, static_cast<std::uint32_t>(w << 6), out, level);
  }
}

void bitmap_pass::compute_word_scalar(const unsigned char* data,
                                      std::size_t len, unsigned char separator,
                                      framing_state& st, std::size_t w) {
  std::uint64_t masked = 0;
  std::uint64_t boundary = 0;
  std::uint64_t structural = 0;
  std::uint64_t token = 0;
  for (std::size_t i = 0; i < len; ++i) {
    const unsigned char b = data[i];
    const std::uint64_t bit = std::uint64_t{1} << i;
    if (numrange::is_token_byte(b)) token |= bit;
    if (st.in_string) {
      masked |= bit;
      if (st.escaped) {
        st.escaped = false;
      } else if (b == '\\') {
        st.escaped = true;
      } else if (b == '"') {
        st.in_string = false;
      }
    } else if (b == '"') {
      masked |= bit;
      st.in_string = true;
    } else if (b == separator) {
      boundary |= bit;
    } else if (is_structural_byte(b)) {
      structural |= bit;
    }
  }
  masked_[w] = masked;
  boundary_[w] = boundary;
  structural_[w] = structural;
  token_[w] = token;
}

void bitmap_pass::compute(const unsigned char* data, std::size_t size,
                          unsigned char separator, framing_state start,
                          simd::simd_level level) {
  size_ = size;
  fallbacks_ = 0;
  const std::size_t words = (size + 63) / 64;
  masked_.resize(words);
  boundary_.resize(words);
  structural_.resize(words);
  token_.resize(words);
  framing_state st = start;
  for (std::size_t w = 0; w < words; ++w) {
    const std::size_t off = w << 6;
    const std::size_t len = std::min<std::size_t>(64, size - off);
    if (len < 64) {
      // The (single) partial tail word: the carry-out matters for the next
      // buffer, and the bitwise carry formulas assume a full word - one
      // short scalar walk per buffer is cheaper than getting them right.
      compute_word_scalar(data + off, len, separator, st, w);
      continue;
    }
    const simd::block_class c =
        simd::classify_block(data + off, 64, separator, level);
    // Both escape carry-in states are evaluated speculatively; commit
    // selects one. find_escaped itself is branch-free past the zero test,
    // so the duplicated evaluation costs ~10 ALU ops.
    bool carry0 = false;
    bool carry1 = false;
    const std::uint64_t esc0 = find_escaped(c.backslash, false, carry0);
    const std::uint64_t esc1 = find_escaped(c.backslash, true, carry1);
    const std::uint64_t escaped = st.escaped ? esc1 : esc0;
    const bool esc_carry = st.escaped ? carry1 : carry0;
    const std::uint64_t quote = c.quote & ~escaped;
    const std::uint64_t inclusive = prefix_xor(quote);
    // Exclusive in-string mask for carry-in "outside"; carry-in "inside"
    // is its complement (the second speculated state, selected by one
    // conditional NOT at commit).
    const std::uint64_t in0 = inclusive << 1;
    const std::uint64_t excl = st.in_string ? ~in0 : in0;
    const std::uint64_t masked = excl | quote;
    if ((c.backslash & ~(masked | escaped)) != 0) {
      // A backslash outside any string literal: the global escape
      // calculation arms it, the tracker does not. Recompute this word
      // exactly; the committed carry-in keeps the induction sound.
      compute_word_scalar(data + off, 64, separator, st, w);
      ++fallbacks_;
      continue;
    }
    const std::uint64_t bound = c.separator & ~masked;
    masked_[w] = masked;
    boundary_[w] = bound;
    structural_[w] = c.structural & ~masked & ~bound;
    token_[w] = c.token;
    st.in_string = (((inclusive >> 63) & 1) != 0) != st.in_string;
    st.escaped = esc_carry;
  }
  end_ = st;
}

}  // namespace jrf::core
