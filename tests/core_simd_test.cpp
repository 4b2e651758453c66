// core/simd portability layer: every vector tier must return positions and
// masks byte-identical to the scalar reference tier, for buffers that
// exercise the vector-width boundaries (15/16/17 and 31/32/33 bytes, and
// matches straddling a 16- or 32-byte chunk edge). Also holds the runtime
// dispatch contract: the CPUID probe, the JRF_FORCE_SCALAR / JRF_SIMD_LEVEL
// overrides (exercised via resolve()), and the CI probe gate - when
// JRF_REQUIRE_SIMD names a level, detecting less is a failure, so a
// misconfigured runner cannot silently fall back to scalar.
#include <gtest/gtest.h>

#include <cstdlib>
#include <random>
#include <string>
#include <vector>

#include "core/simd.hpp"
#include "numrange/builder.hpp"

namespace jrf::core::simd {
namespace {

int rank(simd_level level) { return static_cast<int>(level); }

std::vector<std::size_t> boundary_sizes() {
  return {0, 1, 2, 7, 15, 16, 17, 31, 32, 33, 47, 63, 64, 65, 200, 255};
}

std::vector<unsigned char> random_bytes(std::size_t n, unsigned seed) {
  std::mt19937 rng(seed);
  std::uniform_int_distribution<int> dist(0, 255);
  std::vector<unsigned char> out(n);
  for (auto& b : out) b = static_cast<unsigned char>(dist(rng));
  return out;
}

// Reference: the token class delegates to its single definition
// (numrange::is_token_byte) so the vector tiers are pinned to the byte
// class the value engine actually samples with.
bool ref_token(unsigned char b) { return numrange::is_token_byte(b); }

TEST(SimdDispatch, DetectedLevelIsConcreteAndOrdered) {
  const simd_level detected = detected_level();
  EXPECT_NE(detected, simd_level::automatic);
  EXPECT_GE(rank(detected), rank(simd_level::scalar));
  const auto levels = available_levels();
  ASSERT_FALSE(levels.empty());
  EXPECT_EQ(levels.front(), simd_level::scalar);
  EXPECT_EQ(levels.back(), detected);
  for (std::size_t i = 1; i < levels.size(); ++i)
    EXPECT_GT(rank(levels[i]), rank(levels[i - 1]));
}

TEST(SimdDispatch, ResolveClampsToDetected) {
  EXPECT_EQ(resolve(simd_level::automatic), active_level());
  EXPECT_EQ(resolve(simd_level::scalar), simd_level::scalar);
  EXPECT_LE(rank(resolve(simd_level::avx2)), rank(detected_level()));
  for (const simd_level level : available_levels())
    EXPECT_EQ(resolve(level), level);
}

TEST(SimdDispatch, ParseAndPrintRoundTrip) {
  for (const simd_level level :
       {simd_level::automatic, simd_level::scalar, simd_level::sse2,
        simd_level::avx2, simd_level::avx512}) {
    const auto parsed = parse_level(to_string(level));
    ASSERT_TRUE(parsed.has_value()) << to_string(level);
    EXPECT_EQ(*parsed, level);
  }
  EXPECT_FALSE(parse_level("altivec").has_value());
  EXPECT_FALSE(parse_level("").has_value());
}

// CI probe gate: an AVX2 runner exports JRF_REQUIRE_SIMD=avx2; if the
// probe silently downgrades (a build or detection regression), this test
// fails instead of the whole matrix quietly testing scalar twice.
TEST(SimdDispatch, RequiredLevelIsDetected) {
  const char* required = std::getenv("JRF_REQUIRE_SIMD");
  if (required == nullptr || *required == '\0')
    GTEST_SKIP() << "JRF_REQUIRE_SIMD not set";
  const auto level = parse_level(required);
  ASSERT_TRUE(level.has_value()) << "unparseable JRF_REQUIRE_SIMD: " << required;
  EXPECT_GE(rank(detected_level()), rank(*level))
      << "CPU probe detected only " << to_string(detected_level())
      << " but the runner promises " << required;
}

TEST(SimdKernels, TokenClassesMatchScalar) {
  for (const std::size_t n : boundary_sizes()) {
    auto data = random_bytes(n, 7u + static_cast<unsigned>(n));
    for (std::size_t from = 0; from < n; from += 13) {
      const std::size_t want_token =
          find_token(data.data() + from, n - from, simd_level::scalar);
      const std::size_t want_non =
          find_non_token(data.data() + from, n - from, simd_level::scalar);
      for (const simd_level level : available_levels()) {
        EXPECT_EQ(find_token(data.data() + from, n - from, level), want_token);
        EXPECT_EQ(find_non_token(data.data() + from, n - from, level),
                  want_non);
      }
    }
  }
  // Cross-check the token scans byte for byte against the class's single
  // definition.
  for (int b = 0; b < 256; ++b) {
    const unsigned char byte = static_cast<unsigned char>(b);
    for (const simd_level level : available_levels()) {
      EXPECT_EQ(find_token(&byte, 1, level) == 0, ref_token(byte)) << b;
      EXPECT_EQ(find_non_token(&byte, 1, level) == 0, !ref_token(byte)) << b;
    }
  }
}

TEST(SimdKernels, MatchWordsAgreesAcrossLevelsAndSetShapes) {
  // Set shapes: 1-4 members (compare path), 5-8 (nibble path on AVX2), and
  // a set spanning > 8 high nibbles (forces the bitmap fallback).
  const std::vector<std::string> shapes = {
      "e", "ab", "{}[]", "temperature", "aeimquyC",
      "\x05\x15\x25\x35\x45\x55\x65\x75\x85\x95"};
  for (const std::string& shape : shapes) {
    const byte_set set{std::string_view{shape}};
    for (const std::size_t n : boundary_sizes()) {
      auto data = random_bytes(n, 41u + static_cast<unsigned>(n));
      // Sprinkle members so masks are non-trivial.
      for (std::size_t i = 0; i < n; i += 5)
        data[i] = static_cast<unsigned char>(shape[i % shape.size()]);
      const std::size_t words = (n + 63) / 64;
      std::vector<std::uint64_t> expected(words, 0);
      for (std::size_t i = 0; i < n; ++i)
        if (set.contains(data[i])) expected[i / 64] |= std::uint64_t{1} << (i % 64);
      for (const simd_level level : available_levels()) {
        // A sentinel word past the end must survive: exactly `words` written.
        std::vector<std::uint64_t> out(words + 1, 0xA5A5A5A5A5A5A5A5u);
        match_words(data.data(), n, set, level, out.data());
        EXPECT_EQ(out.back(), 0xA5A5A5A5A5A5A5A5u) << "n=" << n;
        out.pop_back();
        EXPECT_EQ(out, expected) << "set=" << shape.size() << "B n=" << n
                                 << " level=" << to_string(level);
      }
    }
  }
}

TEST(SimdKernels, ClassifyBlockMatchesScalarAtEveryLevel) {
  // Random bytes plus planted JSON structure so every output mask is
  // non-trivial, at block-boundary sizes and for both common separators.
  for (const unsigned char sep : {'\n', ','}) {
    for (const std::size_t n : boundary_sizes()) {
      auto data = random_bytes(n, 131u + static_cast<unsigned>(n));
      const std::string plant = "{\"a\\\":1,\"b\":[2]}\n";
      for (std::size_t i = 0; i < n; ++i)
        if (i % 3 == 0) data[i] = static_cast<unsigned char>(plant[i % plant.size()]);
      const block_class expected =
          classify_block(data.data(), n, sep, simd_level::scalar);
      std::uint64_t check_bs = 0, check_q = 0, check_sep = 0, check_st = 0;
      for (std::size_t i = 0; i < std::min<std::size_t>(n, 64); ++i) {
        const unsigned char b = data[i];
        const std::uint64_t bit = std::uint64_t{1} << i;
        if (b == '\\') check_bs |= bit;
        if (b == '"') check_q |= bit;
        if (b == sep) check_sep |= bit;
        if (b == '{' || b == '}' || b == '[' || b == ']' || b == ',')
          check_st |= bit;
      }
      EXPECT_EQ(expected.backslash, check_bs) << n;
      EXPECT_EQ(expected.quote, check_q) << n;
      EXPECT_EQ(expected.separator, check_sep) << n;
      EXPECT_EQ(expected.structural, check_st) << n;
      for (const simd_level level : available_levels()) {
        const block_class got = classify_block(data.data(), n, sep, level);
        EXPECT_EQ(got.backslash, expected.backslash)
            << "n=" << n << " level=" << to_string(level);
        EXPECT_EQ(got.quote, expected.quote) << n << " " << to_string(level);
        EXPECT_EQ(got.separator, expected.separator)
            << n << " " << to_string(level);
        EXPECT_EQ(got.structural, expected.structural)
            << n << " " << to_string(level);
      }
    }
  }
}

TEST(SimdKernels, ExpandBitsMatchesScalarAtEveryLevel) {
  std::mt19937 rng(2024);
  std::uniform_int_distribution<std::uint64_t> dist;
  std::vector<std::uint64_t> masks = {0,    1,    0x8000000000000000ULL,
                                      ~0ULL, 0xAAAAAAAAAAAAAAAAULL,
                                      0x0000000100000001ULL};
  for (int i = 0; i < 64; ++i) masks.push_back(dist(rng));
  for (const std::uint64_t mask : masks) {
    std::vector<std::uint32_t> expected;
    expand_bits(mask, 1000, expected, simd_level::scalar);
    for (const simd_level level : available_levels()) {
      std::vector<std::uint32_t> got = {7u};  // append semantics preserved
      expand_bits(mask, 1000, got, level);
      ASSERT_EQ(got.size(), expected.size() + 1) << to_string(level);
      EXPECT_EQ(got.front(), 7u);
      for (std::size_t k = 0; k < expected.size(); ++k)
        EXPECT_EQ(got[k + 1], expected[k])
            << "mask=" << mask << " k=" << k << " level=" << to_string(level);
    }
  }
}

TEST(SimdKernels, ByteSetMembershipIsExact) {
  const byte_set set{std::string_view{"temperature"}};
  EXPECT_EQ(set.size(), 7u);  // t e m p r a u
  for (int b = 0; b < 256; ++b) {
    const bool member = std::string("temperature").find(static_cast<char>(b)) !=
                        std::string::npos;
    EXPECT_EQ(set.contains(static_cast<unsigned char>(b)), member) << b;
  }
}

TEST(SimdKernels, FindSubstringMatchesScalarAtEveryLevel) {
  const std::string hay_text =
      "{\"e\":[{\"n\":\"temperature\",\"v\":21.5},{\"n\":\"temp\",\"v\":3}]}";
  const auto* hay = reinterpret_cast<const unsigned char*>(hay_text.data());
  const std::vector<std::string> needles = {
      "temperature", "temp", "t", "}]", "21.5", "missing", hay_text};
  for (const std::string& needle : needles) {
    const auto* nd = reinterpret_cast<const unsigned char*>(needle.data());
    const std::size_t expected = find_substring(
        hay, hay_text.size(), nd, needle.size(), simd_level::scalar);
    EXPECT_EQ(expected, hay_text.find(needle));
    for (const simd_level level : available_levels())
      EXPECT_EQ(find_substring(hay, hay_text.size(), nd, needle.size(), level),
                expected)
          << needle << " @" << to_string(level);
  }
  // One-byte needles take each tier's single-byte scan: random haystacks
  // at the width-boundary sizes, the byte planted at every chunk-straddling
  // offset that fits, plus the no-match case.
  const unsigned char planted_byte = 0xA7;
  for (const std::size_t n : boundary_sizes()) {
    const auto data = random_bytes(n, 17u + static_cast<unsigned>(n));
    for (const std::size_t at : {std::size_t{0}, std::size_t{15},
                                 std::size_t{16}, std::size_t{31},
                                 std::size_t{32}, std::size_t{63},
                                 std::size_t{64}, n - 1}) {
      if (at >= n) continue;
      auto planted = data;
      planted[at] = planted_byte;
      const std::size_t expected = find_substring(
          planted.data(), n, &planted_byte, 1, simd_level::scalar);
      EXPECT_LE(expected, at);
      for (const simd_level level : available_levels())
        EXPECT_EQ(find_substring(planted.data(), n, &planted_byte, 1, level),
                  expected)
            << "n=" << n << " at=" << at << " level=" << to_string(level);
    }
    const std::vector<unsigned char> blank(n, 'x');
    const unsigned char absent = 'y';
    for (const simd_level level : available_levels())
      EXPECT_EQ(find_substring(blank.data(), n, &absent, 1, level), npos) << n;
  }
}

TEST(SimdKernels, FindSubstringStraddlesChunkBoundaries) {
  // Needle placed so its first byte sits on every offset around the 16-
  // and 32-byte edges, including matches that begin in one vector block
  // and end in the next.
  const std::string needle = "needle!";
  const auto* nd = reinterpret_cast<const unsigned char*>(needle.data());
  for (std::size_t at : {std::size_t{10}, std::size_t{14}, std::size_t{15},
                         std::size_t{16}, std::size_t{26}, std::size_t{30},
                         std::size_t{31}, std::size_t{32}, std::size_t{33},
                         std::size_t{57}}) {
    std::string hay(70, '.');
    hay.replace(at, needle.size(), needle);
    const auto* h = reinterpret_cast<const unsigned char*>(hay.data());
    for (const simd_level level : available_levels())
      EXPECT_EQ(find_substring(h, hay.size(), nd, needle.size(), level), at)
          << "at=" << at << " level=" << to_string(level);
  }
  // False first+last candidates that fail the interior confirm.
  std::string decoys = "n!n....n!needle!n.....needle?.needle!";
  const auto* h = reinterpret_cast<const unsigned char*>(decoys.data());
  for (const simd_level level : available_levels())
    EXPECT_EQ(find_substring(h, decoys.size(), nd, needle.size(), level),
              decoys.find(needle));
}

TEST(SimdKernels, FindSubstringDegenerateInputs) {
  const auto* empty = reinterpret_cast<const unsigned char*>("");
  const auto* ab = reinterpret_cast<const unsigned char*>("ab");
  for (const simd_level level : available_levels()) {
    EXPECT_EQ(find_substring(ab, 2, empty, 0, level), 0u);  // empty needle
    EXPECT_EQ(find_substring(empty, 0, ab, 2, level), npos);
    EXPECT_EQ(find_substring(ab, 2, ab, 2, level), 0u);  // whole-buffer match
  }
}

}  // namespace
}  // namespace jrf::core::simd
