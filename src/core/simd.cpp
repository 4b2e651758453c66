#include "core/simd.hpp"

#include <algorithm>
#include <bit>
#include <cstdlib>
#include <cstring>

#include "numrange/builder.hpp"

#if defined(__x86_64__) || defined(__i386__)
#define JRF_SIMD_X86 1
#include <immintrin.h>
#else
#define JRF_SIMD_X86 0
#endif

namespace jrf::core::simd {

const char* to_string(simd_level level) noexcept {
  switch (level) {
    case simd_level::automatic: return "auto";
    case simd_level::scalar: return "scalar";
    case simd_level::sse2: return "sse2";
    case simd_level::avx2: return "avx2";
    case simd_level::avx512: return "avx512";
  }
  return "?";
}

std::optional<simd_level> parse_level(std::string_view text) noexcept {
  if (text == "auto") return simd_level::automatic;
  if (text == "scalar") return simd_level::scalar;
  if (text == "sse2") return simd_level::sse2;
  if (text == "avx2") return simd_level::avx2;
  if (text == "avx512") return simd_level::avx512;
  return std::nullopt;
}

namespace {

int rank(simd_level level) noexcept { return static_cast<int>(level); }

simd_level probe_cpu() noexcept {
#if JRF_SIMD_X86 && defined(__GNUC__)
  __builtin_cpu_init();
  // Lowest tier first, so every line but the avx512 one runs on any x86
  // host.
  simd_level level = simd_level::scalar;
  if (__builtin_cpu_supports("sse2")) level = simd_level::sse2;
  if (__builtin_cpu_supports("avx2")) level = simd_level::avx2;
  // The avx512 tier needs byte compares into mask registers (BW) and the
  // 128/256-bit forms (VL) on top of the foundation.
  if (__builtin_cpu_supports("avx512f") && __builtin_cpu_supports("avx512bw") &&
      __builtin_cpu_supports("avx512vl"))
    level = simd_level::avx512;
  return level;
#else
  return simd_level::scalar;
#endif
}

/// vpcompressb needs AVX-512 VBMI2 on top of the tier's baseline; probed
/// separately so the avx512 tier still runs (with a scalar bit walk for
/// expand_bits) on F+BW+VL-only parts.
bool probe_vbmi2() noexcept {
#if JRF_SIMD_X86 && defined(__GNUC__)
  return __builtin_cpu_supports("avx512vbmi2") != 0;
#else
  return false;
#endif
}

bool has_vbmi2() noexcept {
  static const bool ok = probe_vbmi2();
  return ok;
}

/// True unless the variable is unset, empty, "0" or "OFF".
bool env_truthy(const char* name) noexcept {
  const char* v = std::getenv(name);
  if (v == nullptr || *v == '\0') return false;
  return std::strcmp(v, "0") != 0 && std::strcmp(v, "OFF") != 0 &&
         std::strcmp(v, "off") != 0;
}

simd_level compute_active() noexcept {
  simd_level level = probe_cpu();
#ifdef JRF_FORCE_SCALAR
  level = simd_level::scalar;
#endif
  if (env_truthy("JRF_FORCE_SCALAR")) level = simd_level::scalar;
  if (const char* v = std::getenv("JRF_SIMD_LEVEL")) {
    if (const auto parsed = parse_level(v);
        parsed && *parsed != simd_level::automatic &&
        rank(*parsed) < rank(level))
      level = *parsed;
  }
  return level;
}

}  // namespace

simd_level detected_level() noexcept {
  static const simd_level level = probe_cpu();
  return level;
}

simd_level active_level() noexcept {
  static const simd_level level = compute_active();
  return level;
}

simd_level resolve(simd_level preference) noexcept {
  if (preference == simd_level::automatic) return active_level();
  return rank(preference) < rank(detected_level()) ? preference
                                                   : detected_level();
}

std::vector<simd_level> available_levels() {
  std::vector<simd_level> out{simd_level::scalar};
  if (rank(detected_level()) >= rank(simd_level::sse2))
    out.push_back(simd_level::sse2);
  if (rank(detected_level()) >= rank(simd_level::avx2))
    out.push_back(simd_level::avx2);
  if (rank(detected_level()) >= rank(simd_level::avx512))
    out.push_back(simd_level::avx512);
  return out;
}

byte_set::byte_set(std::span<const unsigned char> bytes) {
  for (const unsigned char b : bytes) {
    if (bitmap_[b]) continue;
    bitmap_[b] = 1;
    bytes_.push_back(b);
  }
  // Nibble classifier: assign one bucket bit per distinct high nibble;
  // exact membership whenever <= 8 high nibbles occur (always true for
  // ASCII search text, whose high nibbles span 0x2-0x7).
  std::array<int, 16> bucket_of;
  bucket_of.fill(-1);
  int buckets = 0;
  nibble_ok_ = true;
  for (const unsigned char b : bytes_) {
    const unsigned hi = b >> 4;
    if (bucket_of[hi] < 0) {
      if (buckets == 8) {
        nibble_ok_ = false;
        break;
      }
      bucket_of[hi] = buckets++;
    }
  }
  if (nibble_ok_) {
    for (unsigned hi = 0; hi < 16; ++hi)
      if (bucket_of[hi] >= 0)
        hi_table_[hi] = static_cast<unsigned char>(1u << bucket_of[hi]);
    for (const unsigned char b : bytes_)
      lo_table_[b & 15] |= hi_table_[b >> 4];
  }
}

namespace {

// ---------------------------------------------------------------------------
// Scalar tier: the reference implementation of every kernel.
// ---------------------------------------------------------------------------

// The single definition of the numeric-token class; the vector tiers
// below mirror it and core_simd_test pins them to it byte for byte.
constexpr bool is_token_scalar(unsigned char b) noexcept {
  return numrange::is_token_byte(b);
}

/// Membership bits of min(size, 64) bytes.
std::uint64_t match_mask_scalar(const unsigned char* data, std::size_t size,
                                const byte_set& set) noexcept {
  std::uint64_t mask = 0;
  for (std::size_t i = 0; i < std::min<std::size_t>(size, 64); ++i)
    mask |= static_cast<std::uint64_t>(set.contains(data[i]) ? 1u : 0u) << i;
  return mask;
}

/// match_words over data[from, size): the words the vector loops left,
/// the partial last one included.
void match_words_scalar(const unsigned char* data, std::size_t size,
                        const byte_set& set, std::uint64_t* out,
                        std::size_t from = 0) noexcept {
  for (std::size_t base = from; base < size; base += 64)
    out[base >> 6] = match_mask_scalar(data + base, size - base, set);
}

std::size_t find_byte_scalar(const unsigned char* data, std::size_t size,
                             unsigned char b) noexcept {
  if (size == 0) return npos;  // empty spans may carry a null data()
  const void* hit = std::memchr(data, b, size);
  return hit == nullptr
             ? npos
             : static_cast<std::size_t>(static_cast<const unsigned char*>(hit) -
                                        data);
}

block_class classify_block_scalar(const unsigned char* data, std::size_t size,
                                  unsigned char separator) noexcept {
  block_class c;
  const std::size_t n = std::min<std::size_t>(size, 64);
  for (std::size_t i = 0; i < n; ++i) {
    const unsigned char b = data[i];
    const std::uint64_t bit = std::uint64_t{1} << i;
    if (b == '\\') c.backslash |= bit;
    if (b == '"') c.quote |= bit;
    if (b == separator) c.separator |= bit;
    if (b == '{' || b == '}' || b == '[' || b == ']' || b == ',')
      c.structural |= bit;
    if (is_token_scalar(b)) c.token |= bit;
  }
  return c;
}

void expand_bits_scalar(std::uint64_t mask, std::uint32_t base,
                        std::vector<std::uint32_t>& out) {
  while (mask != 0) {
    out.push_back(base + static_cast<std::uint32_t>(std::countr_zero(mask)));
    mask &= mask - 1;
  }
}

std::size_t find_token_scalar(const unsigned char* data,
                              std::size_t size) noexcept {
  for (std::size_t i = 0; i < size; ++i)
    if (is_token_scalar(data[i])) return i;
  return npos;
}

std::size_t find_non_token_scalar(const unsigned char* data,
                                  std::size_t size) noexcept {
  for (std::size_t i = 0; i < size; ++i)
    if (!is_token_scalar(data[i])) return i;
  return npos;
}

std::size_t find_substring_scalar(const unsigned char* hay, std::size_t n,
                                  const unsigned char* needle,
                                  std::size_t m) noexcept {
  if (m == 0) return 0;
  if (m > n) return npos;
  std::size_t i = 0;
  while (i + m <= n) {
    const void* hit = std::memchr(hay + i, needle[0], n - m - i + 1);
    if (hit == nullptr) return npos;
    i = static_cast<std::size_t>(static_cast<const unsigned char*>(hit) - hay);
    if (std::memcmp(hay + i, needle, m) == 0) return i;
    ++i;
  }
  return npos;
}

#if JRF_SIMD_X86

// ---------------------------------------------------------------------------
// SSE2 tier (128-bit). Every loop reads only full in-bounds vectors and
// finishes with the scalar reference over the tail.
// ---------------------------------------------------------------------------

__attribute__((target("sse2"))) void match_words_sse2(
    const unsigned char* data, std::size_t size, const byte_set& set,
    std::uint64_t* out) noexcept {
  // Sets beyond the compare budget take the scalar path, as does the
  // partial last word (a full load would read past the buffer).
  if (set.size() > 4) return match_words_scalar(data, size, set, out);
  __m128i members[4];
  const std::size_t count = set.size();
  for (std::size_t k = 0; k < count; ++k)
    members[k] = _mm_set1_epi8(static_cast<char>(set.bytes()[k]));
  std::size_t base = 0;
  for (; base + 64 <= size; base += 64) {
    std::uint64_t word = 0;
    for (std::size_t lane = 0; lane < 64; lane += 16) {
      const __m128i v =
          _mm_loadu_si128(reinterpret_cast<const __m128i*>(data + base + lane));
      __m128i acc = _mm_setzero_si128();
      for (std::size_t k = 0; k < count; ++k)
        acc = _mm_or_si128(acc, _mm_cmpeq_epi8(v, members[k]));
      word |= static_cast<std::uint64_t>(
                  static_cast<std::uint32_t>(_mm_movemask_epi8(acc)) & 0xFFFFu)
              << lane;
    }
    out[base >> 6] = word;
  }
  match_words_scalar(data, size, set, out, base);
}

__attribute__((target("sse2"))) __m128i token_mask_sse2(__m128i v) noexcept;

/// ORing 0x20 folds '{'/'[' and '}'/']' onto single compares ('[' | 0x20
/// == '{', ']' | 0x20 == '}', and no other byte folds onto either).
__attribute__((target("sse2"))) block_class classify_block_sse2(
    const unsigned char* data, std::size_t size,
    unsigned char separator) noexcept {
  if (size < 64) return classify_block_scalar(data, size, separator);
  block_class c;
  const __m128i bs = _mm_set1_epi8('\\');
  const __m128i qt = _mm_set1_epi8('"');
  const __m128i sep = _mm_set1_epi8(static_cast<char>(separator));
  const __m128i brace = _mm_set1_epi8('{');
  const __m128i close = _mm_set1_epi8('}');
  const __m128i comma = _mm_set1_epi8(',');
  for (unsigned k = 0; k < 4; ++k) {
    const __m128i v =
        _mm_loadu_si128(reinterpret_cast<const __m128i*>(data + 16 * k));
    const __m128i folded = _mm_or_si128(v, _mm_set1_epi8(0x20));
    const unsigned shift = 16 * k;
    c.backslash |= static_cast<std::uint64_t>(static_cast<std::uint32_t>(
                       _mm_movemask_epi8(_mm_cmpeq_epi8(v, bs))))
                   << shift;
    c.quote |= static_cast<std::uint64_t>(static_cast<std::uint32_t>(
                   _mm_movemask_epi8(_mm_cmpeq_epi8(v, qt))))
               << shift;
    c.separator |= static_cast<std::uint64_t>(static_cast<std::uint32_t>(
                       _mm_movemask_epi8(_mm_cmpeq_epi8(v, sep))))
                   << shift;
    const __m128i st = _mm_or_si128(
        _mm_or_si128(_mm_cmpeq_epi8(folded, brace),
                     _mm_cmpeq_epi8(folded, close)),
        _mm_cmpeq_epi8(v, comma));
    c.structural |= static_cast<std::uint64_t>(static_cast<std::uint32_t>(
                        _mm_movemask_epi8(st)))
                    << shift;
    c.token |= static_cast<std::uint64_t>(static_cast<std::uint32_t>(
                   _mm_movemask_epi8(token_mask_sse2(v))))
               << shift;
  }
  return c;
}

__attribute__((target("sse2"))) std::size_t find_byte_sse2(
    const unsigned char* data, std::size_t size, unsigned char b) noexcept {
  const __m128i vb = _mm_set1_epi8(static_cast<char>(b));
  std::size_t i = 0;
  for (; i + 16 <= size; i += 16) {
    const __m128i v = _mm_loadu_si128(reinterpret_cast<const __m128i*>(data + i));
    const int mask = _mm_movemask_epi8(_mm_cmpeq_epi8(v, vb));
    if (mask != 0)
      return i + static_cast<std::size_t>(std::countr_zero(
                     static_cast<unsigned>(mask)));
  }
  const std::size_t tail = find_byte_scalar(data + i, size - i, b);
  return tail == npos ? npos : i + tail;
}


/// Numeric-token class mask for one 16-byte vector: digits by signed range
/// compare (token bytes are all < 0x80, and bytes >= 0x80 read as negative
/// so both range compares reject them), 'e'/'E' by case fold, '+', '-',
/// '.' by direct compare.
__attribute__((target("sse2"))) __m128i token_mask_sse2(__m128i v) noexcept {
  const __m128i digit = _mm_and_si128(
      _mm_cmpgt_epi8(v, _mm_set1_epi8('0' - 1)),
      _mm_cmplt_epi8(v, _mm_set1_epi8('9' + 1)));
  const __m128i e_fold = _mm_cmpeq_epi8(_mm_or_si128(v, _mm_set1_epi8(0x20)),
                                        _mm_set1_epi8('e'));
  const __m128i signs = _mm_or_si128(_mm_cmpeq_epi8(v, _mm_set1_epi8('+')),
                                     _mm_cmpeq_epi8(v, _mm_set1_epi8('-')));
  const __m128i dot = _mm_cmpeq_epi8(v, _mm_set1_epi8('.'));
  return _mm_or_si128(_mm_or_si128(digit, e_fold), _mm_or_si128(signs, dot));
}

__attribute__((target("sse2"))) std::size_t find_token_sse2(
    const unsigned char* data, std::size_t size) noexcept {
  std::size_t i = 0;
  for (; i + 16 <= size; i += 16) {
    const __m128i v = _mm_loadu_si128(reinterpret_cast<const __m128i*>(data + i));
    const int mask = _mm_movemask_epi8(token_mask_sse2(v));
    if (mask != 0)
      return i + static_cast<std::size_t>(std::countr_zero(
                     static_cast<unsigned>(mask)));
  }
  const std::size_t tail = find_token_scalar(data + i, size - i);
  return tail == npos ? npos : i + tail;
}

__attribute__((target("sse2"))) std::size_t find_non_token_sse2(
    const unsigned char* data, std::size_t size) noexcept {
  std::size_t i = 0;
  for (; i + 16 <= size; i += 16) {
    const __m128i v = _mm_loadu_si128(reinterpret_cast<const __m128i*>(data + i));
    const int mask = (~_mm_movemask_epi8(token_mask_sse2(v))) & 0xFFFF;
    if (mask != 0)
      return i + static_cast<std::size_t>(std::countr_zero(
                     static_cast<unsigned>(mask)));
  }
  const std::size_t tail = find_non_token_scalar(data + i, size - i);
  return tail == npos ? npos : i + tail;
}

/// First+last byte candidate compare, memcmp confirm (Mula's SIMD-friendly
/// substring scheme). Both loads stay inside hay[0, n): the block at
/// offset i reads [i, i+16) and [i+m-1, i+m+15), bounded by the loop
/// condition.
__attribute__((target("sse2"))) std::size_t find_substring_sse2(
    const unsigned char* hay, std::size_t n, const unsigned char* needle,
    std::size_t m) noexcept {
  if (m == 0) return 0;
  if (m > n) return npos;
  if (m == 1) return find_byte_sse2(hay, n, needle[0]);
  const __m128i first = _mm_set1_epi8(static_cast<char>(needle[0]));
  const __m128i last = _mm_set1_epi8(static_cast<char>(needle[m - 1]));
  std::size_t i = 0;
  for (; i + m + 15 <= n; i += 16) {
    const __m128i block_first =
        _mm_loadu_si128(reinterpret_cast<const __m128i*>(hay + i));
    const __m128i block_last =
        _mm_loadu_si128(reinterpret_cast<const __m128i*>(hay + i + m - 1));
    unsigned mask = static_cast<unsigned>(_mm_movemask_epi8(
        _mm_and_si128(_mm_cmpeq_epi8(block_first, first),
                      _mm_cmpeq_epi8(block_last, last))));
    while (mask != 0) {
      const unsigned bit = static_cast<unsigned>(std::countr_zero(mask));
      mask &= mask - 1;
      if (std::memcmp(hay + i + bit + 1, needle + 1, m - 2) == 0)
        return i + bit;
    }
  }
  const std::size_t tail = find_substring_scalar(hay + i, n - i, needle, m);
  return tail == npos ? npos : i + tail;
}

// ---------------------------------------------------------------------------
// AVX2 tier (256-bit).
// ---------------------------------------------------------------------------

__attribute__((target("avx2"))) void match_words_avx2(
    const unsigned char* data, std::size_t size, const byte_set& set,
    std::uint64_t* out) noexcept {
  const bool compare = set.size() <= 4;
  if (!compare && !set.nibble_classifiable())
    return match_words_scalar(data, size, set, out);
  __m256i members[4];
  for (std::size_t k = 0; compare && k < set.size(); ++k)
    members[k] = _mm256_set1_epi8(static_cast<char>(set.bytes()[k]));
  // Exact nibble-table classification: member iff
  // lo_table[b & 15] & hi_table[b >> 4] != 0.
  const __m256i lo_tbl = _mm256_broadcastsi128_si256(_mm_loadu_si128(
      reinterpret_cast<const __m128i*>(set.lo_table().data())));
  const __m256i hi_tbl = _mm256_broadcastsi128_si256(_mm_loadu_si128(
      reinterpret_cast<const __m128i*>(set.hi_table().data())));
  const __m256i nibble = _mm256_set1_epi8(0x0F);
  std::size_t base = 0;
  for (; base + 64 <= size; base += 64) {
    std::uint64_t word = 0;
    for (std::size_t lane = 0; lane < 64; lane += 32) {
      const __m256i v = _mm256_loadu_si256(
          reinterpret_cast<const __m256i*>(data + base + lane));
      std::uint32_t bits;
      if (compare) {
        __m256i acc = _mm256_setzero_si256();
        for (std::size_t k = 0; k < set.size(); ++k)
          acc = _mm256_or_si256(acc, _mm256_cmpeq_epi8(v, members[k]));
        bits = static_cast<std::uint32_t>(_mm256_movemask_epi8(acc));
      } else {
        // vpshufb selects 0 for lanes with bit 7 set, which is exactly
        // right: bytes >= 0x80 have no bucket and must classify as
        // non-members.
        const __m256i lo_bits =
            _mm256_shuffle_epi8(lo_tbl, _mm256_and_si256(v, nibble));
        const __m256i hi_bits = _mm256_shuffle_epi8(
            hi_tbl, _mm256_and_si256(_mm256_srli_epi16(v, 4), nibble));
        const __m256i outside = _mm256_cmpeq_epi8(
            _mm256_and_si256(lo_bits, hi_bits), _mm256_setzero_si256());
        bits = ~static_cast<std::uint32_t>(_mm256_movemask_epi8(outside));
      }
      word |= static_cast<std::uint64_t>(bits) << lane;
    }
    out[base >> 6] = word;
  }
  match_words_scalar(data, size, set, out, base);
}

__attribute__((target("avx2"))) __m256i token_mask_avx2(__m256i v) noexcept;

__attribute__((target("avx2"))) block_class classify_block_avx2(
    const unsigned char* data, std::size_t size,
    unsigned char separator) noexcept {
  if (size < 64) return classify_block_scalar(data, size, separator);
  block_class c;
  const __m256i bs = _mm256_set1_epi8('\\');
  const __m256i qt = _mm256_set1_epi8('"');
  const __m256i sep = _mm256_set1_epi8(static_cast<char>(separator));
  const __m256i brace = _mm256_set1_epi8('{');
  const __m256i close = _mm256_set1_epi8('}');
  const __m256i comma = _mm256_set1_epi8(',');
  for (unsigned k = 0; k < 2; ++k) {
    const __m256i v =
        _mm256_loadu_si256(reinterpret_cast<const __m256i*>(data + 32 * k));
    const __m256i folded = _mm256_or_si256(v, _mm256_set1_epi8(0x20));
    const unsigned shift = 32 * k;
    c.backslash |= static_cast<std::uint64_t>(static_cast<std::uint32_t>(
                       _mm256_movemask_epi8(_mm256_cmpeq_epi8(v, bs))))
                   << shift;
    c.quote |= static_cast<std::uint64_t>(static_cast<std::uint32_t>(
                   _mm256_movemask_epi8(_mm256_cmpeq_epi8(v, qt))))
               << shift;
    c.separator |= static_cast<std::uint64_t>(static_cast<std::uint32_t>(
                       _mm256_movemask_epi8(_mm256_cmpeq_epi8(v, sep))))
                   << shift;
    const __m256i st = _mm256_or_si256(
        _mm256_or_si256(_mm256_cmpeq_epi8(folded, brace),
                        _mm256_cmpeq_epi8(folded, close)),
        _mm256_cmpeq_epi8(v, comma));
    c.structural |= static_cast<std::uint64_t>(static_cast<std::uint32_t>(
                        _mm256_movemask_epi8(st)))
                    << shift;
    c.token |= static_cast<std::uint64_t>(static_cast<std::uint32_t>(
                   _mm256_movemask_epi8(token_mask_avx2(v))))
               << shift;
  }
  return c;
}

__attribute__((target("avx2"))) std::size_t find_byte_avx2(
    const unsigned char* data, std::size_t size, unsigned char b) noexcept {
  const __m256i vb = _mm256_set1_epi8(static_cast<char>(b));
  std::size_t i = 0;
  for (; i + 32 <= size; i += 32) {
    const __m256i v =
        _mm256_loadu_si256(reinterpret_cast<const __m256i*>(data + i));
    const auto mask =
        static_cast<std::uint32_t>(_mm256_movemask_epi8(_mm256_cmpeq_epi8(v, vb)));
    if (mask != 0)
      return i + static_cast<std::size_t>(std::countr_zero(mask));
  }
  const std::size_t tail = find_byte_scalar(data + i, size - i, b);
  return tail == npos ? npos : i + tail;
}


__attribute__((target("avx2"))) __m256i token_mask_avx2(__m256i v) noexcept {
  const __m256i digit = _mm256_and_si256(
      _mm256_cmpgt_epi8(v, _mm256_set1_epi8('0' - 1)),
      _mm256_cmpgt_epi8(_mm256_set1_epi8('9' + 1), v));
  const __m256i e_fold = _mm256_cmpeq_epi8(
      _mm256_or_si256(v, _mm256_set1_epi8(0x20)), _mm256_set1_epi8('e'));
  const __m256i signs =
      _mm256_or_si256(_mm256_cmpeq_epi8(v, _mm256_set1_epi8('+')),
                      _mm256_cmpeq_epi8(v, _mm256_set1_epi8('-')));
  const __m256i dot = _mm256_cmpeq_epi8(v, _mm256_set1_epi8('.'));
  return _mm256_or_si256(_mm256_or_si256(digit, e_fold),
                         _mm256_or_si256(signs, dot));
}

__attribute__((target("avx2"))) std::size_t find_token_avx2(
    const unsigned char* data, std::size_t size) noexcept {
  std::size_t i = 0;
  for (; i + 32 <= size; i += 32) {
    const __m256i v =
        _mm256_loadu_si256(reinterpret_cast<const __m256i*>(data + i));
    const auto mask =
        static_cast<std::uint32_t>(_mm256_movemask_epi8(token_mask_avx2(v)));
    if (mask != 0)
      return i + static_cast<std::size_t>(std::countr_zero(mask));
  }
  const std::size_t tail = find_token_scalar(data + i, size - i);
  return tail == npos ? npos : i + tail;
}

__attribute__((target("avx2"))) std::size_t find_non_token_avx2(
    const unsigned char* data, std::size_t size) noexcept {
  std::size_t i = 0;
  for (; i + 32 <= size; i += 32) {
    const __m256i v =
        _mm256_loadu_si256(reinterpret_cast<const __m256i*>(data + i));
    const auto mask =
        ~static_cast<std::uint32_t>(_mm256_movemask_epi8(token_mask_avx2(v)));
    if (mask != 0)
      return i + static_cast<std::size_t>(std::countr_zero(mask));
  }
  const std::size_t tail = find_non_token_scalar(data + i, size - i);
  return tail == npos ? npos : i + tail;
}

__attribute__((target("avx2"))) std::size_t find_substring_avx2(
    const unsigned char* hay, std::size_t n, const unsigned char* needle,
    std::size_t m) noexcept {
  if (m == 0) return 0;
  if (m > n) return npos;
  if (m == 1) return find_byte_avx2(hay, n, needle[0]);
  const __m256i first = _mm256_set1_epi8(static_cast<char>(needle[0]));
  const __m256i last = _mm256_set1_epi8(static_cast<char>(needle[m - 1]));
  std::size_t i = 0;
  for (; i + m + 31 <= n; i += 32) {
    const __m256i block_first =
        _mm256_loadu_si256(reinterpret_cast<const __m256i*>(hay + i));
    const __m256i block_last =
        _mm256_loadu_si256(reinterpret_cast<const __m256i*>(hay + i + m - 1));
    auto mask = static_cast<std::uint32_t>(_mm256_movemask_epi8(
        _mm256_and_si256(_mm256_cmpeq_epi8(block_first, first),
                         _mm256_cmpeq_epi8(block_last, last))));
    while (mask != 0) {
      const auto bit = static_cast<unsigned>(std::countr_zero(mask));
      mask &= mask - 1;
      if (std::memcmp(hay + i + bit + 1, needle + 1, m - 2) == 0)
        return i + bit;
    }
  }
  const std::size_t tail = find_substring_scalar(hay + i, n - i, needle, m);
  return tail == npos ? npos : i + tail;
}

// ---------------------------------------------------------------------------
// AVX-512 tier (512-bit). Byte compares write mask registers directly
// (vpcmpb / vpmovb2m), so every classification covers 64 bytes and the
// movemask step disappears; partial blocks take the scalar path like the
// narrower tiers (no masked loads - keeps every read trivially in bounds
// for the sanitizers).
// ---------------------------------------------------------------------------

#define JRF_AVX512_TARGET "avx512f,avx512bw,avx512vl"

/// Replicate a 16-byte nibble table across all four 128-bit lanes. A
/// memory round-trip instead of _mm512_broadcast_i32x4: GCC implements the
/// broadcast intrinsic on top of _mm512_undefined_epi32, which trips
/// -Wmaybe-uninitialized under -Werror.
__attribute__((target(JRF_AVX512_TARGET))) inline __m512i
replicate_table_avx512(const unsigned char* tbl) noexcept {
  alignas(64) unsigned char rep[64];
  for (int lane = 0; lane < 4; ++lane) std::memcpy(rep + 16 * lane, tbl, 16);
  return _mm512_load_si512(rep);
}

__attribute__((target(JRF_AVX512_TARGET))) void match_words_avx512(
    const unsigned char* data, std::size_t size, const byte_set& set,
    std::uint64_t* out) noexcept {
  const bool compare = set.size() <= 4;
  if (!compare && !set.nibble_classifiable())
    return match_words_scalar(data, size, set, out);
  __m512i members[4];
  for (std::size_t k = 0; compare && k < set.size(); ++k)
    members[k] = _mm512_set1_epi8(static_cast<char>(set.bytes()[k]));
  const __m512i lo_tbl = replicate_table_avx512(set.lo_table().data());
  const __m512i hi_tbl = replicate_table_avx512(set.hi_table().data());
  const __m512i nibble = _mm512_set1_epi8(0x0F);
  std::size_t base = 0;
  for (; base + 64 <= size; base += 64) {
    const __m512i v = _mm512_loadu_si512(data + base);
    __mmask64 word = 0;
    if (compare) {
      for (std::size_t k = 0; k < set.size(); ++k)
        word |= _mm512_cmpeq_epi8_mask(v, members[k]);
    } else {
      const __m512i lo_bits =
          _mm512_shuffle_epi8(lo_tbl, _mm512_and_si512(v, nibble));
      const __m512i hi_bits = _mm512_shuffle_epi8(
          hi_tbl, _mm512_and_si512(_mm512_srli_epi16(v, 4), nibble));
      // Member iff lo_bits & hi_bits != 0 - vptestmb answers that directly.
      word = _mm512_test_epi8_mask(lo_bits, hi_bits);
    }
    out[base >> 6] = word;
  }
  match_words_scalar(data, size, set, out, base);
}

__attribute__((target(JRF_AVX512_TARGET))) std::size_t find_byte_avx512(
    const unsigned char* data, std::size_t size, unsigned char b) noexcept {
  const __m512i vb = _mm512_set1_epi8(static_cast<char>(b));
  std::size_t i = 0;
  for (; i + 64 <= size; i += 64) {
    const __mmask64 mask =
        _mm512_cmpeq_epi8_mask(_mm512_loadu_si512(data + i), vb);
    if (mask != 0)
      return i + static_cast<std::size_t>(
                     std::countr_zero(static_cast<std::uint64_t>(mask)));
  }
  const std::size_t tail = find_byte_scalar(data + i, size - i, b);
  return tail == npos ? npos : i + tail;
}

__attribute__((target(JRF_AVX512_TARGET))) __mmask64 token_mask_avx512(
    __m512i v) noexcept;

__attribute__((target(JRF_AVX512_TARGET))) block_class classify_block_avx512(
    const unsigned char* data, std::size_t size,
    unsigned char separator) noexcept {
  if (size < 64) return classify_block_scalar(data, size, separator);
  const __m512i v = _mm512_loadu_si512(data);
  const __m512i folded = _mm512_or_si512(v, _mm512_set1_epi8(0x20));
  block_class c;
  c.backslash = _mm512_cmpeq_epi8_mask(v, _mm512_set1_epi8('\\'));
  c.quote = _mm512_cmpeq_epi8_mask(v, _mm512_set1_epi8('"'));
  c.separator =
      _mm512_cmpeq_epi8_mask(v, _mm512_set1_epi8(static_cast<char>(separator)));
  c.structural = _mm512_cmpeq_epi8_mask(folded, _mm512_set1_epi8('{')) |
                 _mm512_cmpeq_epi8_mask(folded, _mm512_set1_epi8('}')) |
                 _mm512_cmpeq_epi8_mask(v, _mm512_set1_epi8(','));
  c.token = static_cast<std::uint64_t>(token_mask_avx512(v));
  return c;
}

__attribute__((target(JRF_AVX512_TARGET))) __mmask64 token_mask_avx512(
    __m512i v) noexcept {
  const __mmask64 digit =
      _mm512_cmpgt_epi8_mask(v, _mm512_set1_epi8('0' - 1)) &
      _mm512_cmplt_epi8_mask(v, _mm512_set1_epi8('9' + 1));
  const __mmask64 e_fold = _mm512_cmpeq_epi8_mask(
      _mm512_or_si512(v, _mm512_set1_epi8(0x20)), _mm512_set1_epi8('e'));
  const __mmask64 signs = _mm512_cmpeq_epi8_mask(v, _mm512_set1_epi8('+')) |
                          _mm512_cmpeq_epi8_mask(v, _mm512_set1_epi8('-'));
  const __mmask64 dot = _mm512_cmpeq_epi8_mask(v, _mm512_set1_epi8('.'));
  return digit | e_fold | signs | dot;
}

__attribute__((target(JRF_AVX512_TARGET))) std::size_t find_token_avx512(
    const unsigned char* data, std::size_t size) noexcept {
  std::size_t i = 0;
  for (; i + 64 <= size; i += 64) {
    const __mmask64 mask = token_mask_avx512(_mm512_loadu_si512(data + i));
    if (mask != 0)
      return i + static_cast<std::size_t>(
                     std::countr_zero(static_cast<std::uint64_t>(mask)));
  }
  const std::size_t tail = find_token_scalar(data + i, size - i);
  return tail == npos ? npos : i + tail;
}

__attribute__((target(JRF_AVX512_TARGET))) std::size_t find_non_token_avx512(
    const unsigned char* data, std::size_t size) noexcept {
  std::size_t i = 0;
  for (; i + 64 <= size; i += 64) {
    const __mmask64 mask =
        ~token_mask_avx512(_mm512_loadu_si512(data + i));
    if (mask != 0)
      return i + static_cast<std::size_t>(
                     std::countr_zero(static_cast<std::uint64_t>(mask)));
  }
  const std::size_t tail = find_non_token_scalar(data + i, size - i);
  return tail == npos ? npos : i + tail;
}

__attribute__((target(JRF_AVX512_TARGET))) std::size_t find_substring_avx512(
    const unsigned char* hay, std::size_t n, const unsigned char* needle,
    std::size_t m) noexcept {
  if (m == 0) return 0;
  if (m > n) return npos;
  if (m == 1) return find_byte_avx512(hay, n, needle[0]);
  const __m512i first = _mm512_set1_epi8(static_cast<char>(needle[0]));
  const __m512i last = _mm512_set1_epi8(static_cast<char>(needle[m - 1]));
  std::size_t i = 0;
  for (; i + m + 63 <= n; i += 64) {
    const __m512i block_first = _mm512_loadu_si512(hay + i);
    const __m512i block_last = _mm512_loadu_si512(hay + i + m - 1);
    std::uint64_t mask = _mm512_cmpeq_epi8_mask(block_first, first) &
                         _mm512_cmpeq_epi8_mask(block_last, last);
    while (mask != 0) {
      const auto bit = static_cast<unsigned>(std::countr_zero(mask));
      mask &= mask - 1;
      if (std::memcmp(hay + i + bit + 1, needle + 1, m - 2) == 0)
        return i + bit;
    }
  }
  const std::size_t tail = find_substring_scalar(hay + i, n - i, needle, m);
  return tail == npos ? npos : i + tail;
}

/// vpcompressb turns the serial ctz/clear-lowest-bit walk into one
/// compress of the iota byte vector: the compressed prefix holds the
/// set-bit offsets in ascending order.
__attribute__((target(JRF_AVX512_TARGET ",avx512vbmi2"))) void
expand_bits_vbmi2(std::uint64_t mask, std::uint32_t base,
                  std::vector<std::uint32_t>& out) {
  if (mask == 0) return;
  alignas(64) static constexpr unsigned char iota[64] = {
      0,  1,  2,  3,  4,  5,  6,  7,  8,  9,  10, 11, 12, 13, 14, 15,
      16, 17, 18, 19, 20, 21, 22, 23, 24, 25, 26, 27, 28, 29, 30, 31,
      32, 33, 34, 35, 36, 37, 38, 39, 40, 41, 42, 43, 44, 45, 46, 47,
      48, 49, 50, 51, 52, 53, 54, 55, 56, 57, 58, 59, 60, 61, 62, 63};
  alignas(64) unsigned char offs[64];
  _mm512_store_si512(offs, _mm512_maskz_compress_epi8(
                               mask, _mm512_load_si512(iota)));
  const int count = std::popcount(mask);
  const std::size_t old = out.size();
  out.resize(old + static_cast<std::size_t>(count));
  for (int k = 0; k < count; ++k) out[old + k] = base + offs[k];
}

#endif  // JRF_SIMD_X86

}  // namespace

void match_words(const unsigned char* data, std::size_t size,
                 const byte_set& set, simd_level level,
                 std::uint64_t* out) noexcept {
#if JRF_SIMD_X86
  switch (level) {
    case simd_level::avx512: return match_words_avx512(data, size, set, out);
    case simd_level::avx2: return match_words_avx2(data, size, set, out);
    case simd_level::sse2: return match_words_sse2(data, size, set, out);
    default: break;
  }
#endif
  (void)level;
  match_words_scalar(data, size, set, out);
}

block_class classify_block(const unsigned char* data, std::size_t size,
                           unsigned char separator,
                           simd_level level) noexcept {
#if JRF_SIMD_X86
  switch (level) {
    case simd_level::avx512: return classify_block_avx512(data, size, separator);
    case simd_level::avx2: return classify_block_avx2(data, size, separator);
    case simd_level::sse2: return classify_block_sse2(data, size, separator);
    default: break;
  }
#endif
  (void)level;
  return classify_block_scalar(data, size, separator);
}

void expand_bits(std::uint64_t mask, std::uint32_t base,
                 std::vector<std::uint32_t>& out, simd_level level) {
#if JRF_SIMD_X86
  if (level == simd_level::avx512 && has_vbmi2())
    return expand_bits_vbmi2(mask, base, out);
#endif
  (void)level;
  expand_bits_scalar(mask, base, out);
}

std::size_t find_token(const unsigned char* data, std::size_t size,
                       simd_level level) noexcept {
#if JRF_SIMD_X86
  switch (level) {
    case simd_level::avx512: return find_token_avx512(data, size);
    case simd_level::avx2: return find_token_avx2(data, size);
    case simd_level::sse2: return find_token_sse2(data, size);
    default: break;
  }
#endif
  (void)level;
  return find_token_scalar(data, size);
}

std::size_t find_non_token(const unsigned char* data, std::size_t size,
                           simd_level level) noexcept {
#if JRF_SIMD_X86
  switch (level) {
    case simd_level::avx512: return find_non_token_avx512(data, size);
    case simd_level::avx2: return find_non_token_avx2(data, size);
    case simd_level::sse2: return find_non_token_sse2(data, size);
    default: break;
  }
#endif
  (void)level;
  return find_non_token_scalar(data, size);
}

std::size_t find_substring(const unsigned char* hay, std::size_t n,
                           const unsigned char* needle, std::size_t m,
                           simd_level level) noexcept {
#if JRF_SIMD_X86
  switch (level) {
    case simd_level::avx512: return find_substring_avx512(hay, n, needle, m);
    case simd_level::avx2: return find_substring_avx2(hay, n, needle, m);
    case simd_level::sse2: return find_substring_sse2(hay, n, needle, m);
    default: break;
  }
#endif
  (void)level;
  return find_substring_scalar(hay, n, needle, m);
}

}  // namespace jrf::core::simd
