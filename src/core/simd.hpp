// SIMD portability layer for the software hot path.
//
// The paper's FPGA reaches line rate by classifying one byte per cycle in
// every lane; the software analogue is classifying 16/32 bytes per
// instruction. This header exposes the small set of byte-scanning kernels
// the chunked filter engine and the primitive bulk scans are built from:
//
//   classify_block              - per-class bitmasks of one 64-byte block
//                                 (the raw material of core/bitmaps.hpp),
//   find_token / find_non_token - numeric-token boundary scans
//                                 (numrange::is_token_byte's fixed class),
//   find_substring              - exact substring search (first+last byte
//                                 vector compare, then memcmp confirm),
//   match_words                 - membership bitmap of a whole buffer
//                                 against a prepared byte_set (the string
//                                 primitives' gram candidate scan).
//
// Four tiers exist for every kernel - scalar, SSE2 (128-bit), AVX2
// (256-bit) and AVX-512 (64-byte mask registers: vpcmpb/vpmovb2m
// classification, vpcompressb fire-position extraction where VBMI2 is
// available) - selected by an explicit simd_level argument so a caller can
// pin a tier for testing. Tier selection never changes *what* is found:
// every kernel returns positions/masks byte-identical to the scalar tier,
// and the engines built on top confirm candidates with the scalar
// reference compare, so filter decisions are identical at every level (the
// core_chunked_equivalence_test suite sweeps all available levels).
//
// Runtime dispatch: detected_level() probes the CPU once (CPUID via
// __builtin_cpu_supports); active_level() additionally honours the
// JRF_FORCE_SCALAR compile definition (-DJRF_FORCE_SCALAR=ON) and the
// JRF_FORCE_SCALAR / JRF_SIMD_LEVEL environment variables, so a deployment
// can pin the tier without rebuilding. simd_level::automatic resolves to
// active_level(); an explicit level is clamped to what the CPU supports.
#pragma once

#include <array>
#include <cstddef>
#include <cstdint>
#include <optional>
#include <span>
#include <string>
#include <string_view>
#include <vector>

namespace jrf::core::simd {

enum class simd_level : int {
  automatic = 0,  // resolve to active_level()
  scalar = 1,     // portable per-byte loops (SWAR-free reference tier)
  sse2 = 2,       // 128-bit vectors, baseline on every x86-64
  avx2 = 3,       // 256-bit vectors
  avx512 = 4,     // 512-bit vectors + mask registers (needs F+BW+VL)
};

const char* to_string(simd_level level) noexcept;

/// Parse "scalar" / "sse2" / "avx2" / "avx512" / "auto" (case-sensitive);
/// nullopt on anything else.
std::optional<simd_level> parse_level(std::string_view text) noexcept;

/// Highest tier the CPU supports (CPUID probe, cached). scalar on
/// non-x86 builds.
simd_level detected_level() noexcept;

/// Tier automatic resolves to: detected_level() clamped by the
/// JRF_FORCE_SCALAR compile definition and the JRF_FORCE_SCALAR /
/// JRF_SIMD_LEVEL environment variables (cached on first use).
simd_level active_level() noexcept;

/// Concrete tier for a preference: automatic -> active_level(), anything
/// else clamped to detected_level().
simd_level resolve(simd_level preference) noexcept;

/// Every tier this host can execute, scalar first: {scalar, ...,
/// detected_level()}. The per-level equivalence tests iterate this.
std::vector<simd_level> available_levels();

inline constexpr std::size_t npos = static_cast<std::size_t>(-1);

/// Prepared byte-membership set for candidate scans. Construction
/// classifies the set once: up to 4 (SSE2) / 8 (AVX2) distinct bytes scan
/// with per-byte vector compares; larger ASCII sets use a nibble-table
/// (pshufb) classifier on AVX2; anything else falls back to the scalar
/// bitmap. Membership answers are exact at every tier.
class byte_set {
 public:
  byte_set() = default;
  explicit byte_set(std::span<const unsigned char> bytes);
  explicit byte_set(std::string_view bytes)
      : byte_set(std::span<const unsigned char>{
            reinterpret_cast<const unsigned char*>(bytes.data()),
            bytes.size()}) {}

  bool contains(unsigned char b) const noexcept { return bitmap_[b] != 0; }
  std::size_t size() const noexcept { return bytes_.size(); }
  const std::vector<unsigned char>& bytes() const noexcept { return bytes_; }

  // Introspection for the dispatch internals (and their tests).
  bool nibble_classifiable() const noexcept { return nibble_ok_; }
  const std::array<unsigned char, 16>& lo_table() const noexcept {
    return lo_table_;
  }
  const std::array<unsigned char, 16>& hi_table() const noexcept {
    return hi_table_;
  }

 private:
  std::array<unsigned char, 256> bitmap_{};
  std::vector<unsigned char> bytes_;  // distinct members, insertion order
  // Nibble classifier: byte b is a member iff
  // lo_table_[b & 15] & hi_table_[b >> 4] != 0 (bucket bit per distinct
  // high nibble; exact whenever the set spans <= 8 high nibbles).
  std::array<unsigned char, 16> lo_table_{};
  std::array<unsigned char, 16> hi_table_{};
  bool nibble_ok_ = false;
};

/// Membership bitmap of data[0, size): bit i of out[i / 64] set iff
/// data[i] is in `set`. Writes all ceil(size / 64) words; bits past
/// `size` are zero.
void match_words(const unsigned char* data, std::size_t size,
                 const byte_set& set, simd_level level,
                 std::uint64_t* out) noexcept;

/// Per-class bitmasks of one <= 64-byte block, the raw material of the
/// bitmap pass (core/bitmaps.hpp). Bit i of each mask refers to data[i];
/// bits >= size are zero in every mask. `structural` covers the four
/// scope bytes plus ',' (the pair boundary) - the quote is reported
/// separately because the string mask consumes it first.
struct block_class {
  std::uint64_t backslash = 0;   // '\\'
  std::uint64_t quote = 0;       // '"'
  std::uint64_t separator = 0;   // the configured record separator byte
  std::uint64_t structural = 0;  // '{' '}' '[' ']' ','
  std::uint64_t token = 0;       // numeric-token class, raw (not masked)
};

/// Classify min(size, 64) bytes in one sweep (one 512-bit compare group
/// on the avx512 tier, 2x256 / 4x128 below, a byte loop on scalar).
block_class classify_block(const unsigned char* data, std::size_t size,
                           unsigned char separator,
                           simd_level level) noexcept;

/// Append the positions of the set bits of `mask` (plus `base`) to `out`
/// in ascending order. The avx512 tier uses vpcompressb (AVX-512 VBMI2)
/// where the CPU has it; every tier appends the identical positions.
void expand_bits(std::uint64_t mask, std::uint32_t base,
                 std::vector<std::uint32_t>& out, simd_level level);

/// First byte of the numeric-token class ('0'-'9', '.', '+', '-', 'e',
/// 'E'; numrange::is_token_byte). npos when none.
std::size_t find_token(const unsigned char* data, std::size_t size,
                       simd_level level) noexcept;

/// First byte NOT of the numeric-token class. npos when none.
std::size_t find_non_token(const unsigned char* data, std::size_t size,
                           simd_level level) noexcept;

/// Index of the first occurrence of needle[0..m) in hay[0..n), or npos.
/// Exact search (no false positives/negatives at any tier). m == 0
/// returns 0.
std::size_t find_substring(const unsigned char* hay, std::size_t n,
                           const unsigned char* needle, std::size_t m,
                           simd_level level) noexcept;

}  // namespace jrf::core::simd
