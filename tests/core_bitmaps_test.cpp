// Acceptance gate for the buffer-at-a-time bitmap pass: the three bitmaps
// (string mask / record boundaries / structural bytes) must agree bit for
// bit with the scalar structure_tracker automaton - for every SIMD tier
// this host can execute, for every speculative carry-in state, at the
// block-boundary buffer widths where the word-parallel escape and
// in-string calculations are easiest to get wrong (escape runs straddling
// a 64-byte block edge, records straddling a buffer edge), and on the
// riotbench datasets the engines actually filter. The record framer built
// on the pass must frame exactly the records the byte-per-cycle reference
// (raw_filter::push) does, wherever the stream is split.
#include <gtest/gtest.h>

#include <random>
#include <string>
#include <vector>

#include "core/bitmaps.hpp"
#include "core/framer.hpp"
#include "core/raw_filter.hpp"
#include "core/simd.hpp"
#include "core/structure.hpp"
#include "data/smartcity.hpp"
#include "data/taxi.hpp"
#include "data/twitter.hpp"
#include "util/prng.hpp"

namespace jrf::core {
namespace {

using simd::simd_level;

struct reference_bitmaps {
  std::vector<bool> masked;
  std::vector<bool> boundary;
  std::vector<bool> structural;
  framing_state end;
};

// The byte-serial mirror of structure_tracker::step's string automaton plus
// the pass's separator/structural precedence (quote beats separator beats
// structural).
reference_bitmaps reference_pass(const std::string& data,
                                 unsigned char separator,
                                 framing_state start) {
  reference_bitmaps out;
  out.masked.resize(data.size());
  out.boundary.resize(data.size());
  out.structural.resize(data.size());
  framing_state st = start;
  for (std::size_t i = 0; i < data.size(); ++i) {
    const unsigned char b = static_cast<unsigned char>(data[i]);
    if (st.in_string) {
      out.masked[i] = true;
      if (st.escaped)
        st.escaped = false;
      else if (b == '\\')
        st.escaped = true;
      else if (b == '"')
        st.in_string = false;
    } else if (b == '"') {
      out.masked[i] = true;
      st.in_string = true;
    } else if (b == separator) {
      out.boundary[i] = true;
    } else if (is_structural_byte(b)) {
      out.structural[i] = true;
    }
  }
  out.end = st;
  return out;
}

void expect_pass_matches(const std::string& data, unsigned char separator,
                         framing_state start, const std::string& label) {
  const reference_bitmaps expected = reference_pass(data, separator, start);
  // The default-state reference must mirror structure_tracker itself.
  if (!start.in_string && !start.escaped) {
    structure_tracker tracker;
    for (std::size_t i = 0; i < data.size(); ++i)
      ASSERT_EQ(tracker.step(static_cast<unsigned char>(data[i])).masked,
                static_cast<bool>(expected.masked[i]))
          << label << " tracker mismatch at " << i;
  }
  for (const simd_level level : simd::available_levels()) {
    bitmap_pass pass;
    pass.compute(reinterpret_cast<const unsigned char*>(data.data()),
                 data.size(), separator, start, level);
    const std::string where = label + " simd=" + simd::to_string(level);
    ASSERT_EQ(pass.size(), data.size()) << where;
    EXPECT_EQ(pass.end_state(), expected.end) << where;
    for (std::size_t i = 0; i < data.size(); ++i) {
      const std::size_t w = i >> 6;
      const std::uint64_t bit = std::uint64_t{1} << (i & 63);
      ASSERT_EQ((pass.masked()[w] & bit) != 0,
                static_cast<bool>(expected.masked[i]))
          << where << " masked bit " << i;
      ASSERT_EQ((pass.boundary()[w] & bit) != 0,
                static_cast<bool>(expected.boundary[i]))
          << where << " boundary bit " << i;
      ASSERT_EQ((pass.structural()[w] & bit) != 0,
                static_cast<bool>(expected.structural[i]))
          << where << " structural bit " << i;
    }
  }
}

std::vector<framing_state> all_carry_states() {
  return {{false, false}, {false, true}, {true, false}, {true, true}};
}

TEST(BitmapPass, MatchesTrackerOnRiotbenchDatasets) {
  const std::vector<std::string> streams = {
      data::smartcity_generator().stream(200),
      data::taxi_generator().stream(200),
      data::twitter_generator().stream(200),
  };
  for (std::size_t s = 0; s < streams.size(); ++s)
    for (const unsigned char sep : {'\n', ','})
      expect_pass_matches(streams[s], sep, {},
                          "stream=" + std::to_string(s) + " sep=" +
                              std::to_string(static_cast<int>(sep)));
}

TEST(BitmapPass, BufferBoundaryWidths) {
  // Split the stream into buffers of the widths around the 64-byte block
  // size, carrying the framing state; the concatenated bitmaps must equal
  // the one-shot pass and the reference.
  const std::string stream = data::twitter_generator().stream(80);
  const unsigned char sep = '\n';
  const reference_bitmaps expected = reference_pass(stream, sep, {});
  for (const std::size_t width : {std::size_t{1}, std::size_t{63},
                                  std::size_t{64}, std::size_t{65},
                                  std::size_t{127}, std::size_t{129}}) {
    for (const simd_level level : simd::available_levels()) {
      framing_state st;
      std::size_t i = 0;
      bitmap_pass pass;
      for (std::size_t off = 0; off < stream.size(); off += width) {
        const std::size_t len = std::min(width, stream.size() - off);
        pass.compute(
            reinterpret_cast<const unsigned char*>(stream.data()) + off, len,
            sep, st, level);
        for (std::size_t k = 0; k < len; ++k, ++i) {
          ASSERT_EQ(pass.masked_at(k), static_cast<bool>(expected.masked[i]))
              << "width=" << width << " simd=" << simd::to_string(level)
              << " byte " << i;
        }
        st = pass.end_state();
      }
      EXPECT_EQ(st, expected.end)
          << "width=" << width << " simd=" << simd::to_string(level);
    }
  }
}

TEST(BitmapPass, EscapeStraddlesBlockBoundary) {
  // Backslash runs of every length 1..8 ending exactly at the 64-byte
  // block edge, inside a string literal, followed by a quote: whether that
  // quote closes the string depends on the run parity carried across the
  // block boundary.
  for (std::size_t run = 1; run <= 8; ++run) {
    std::string s(64 - run, 'a');
    s[0] = '"';  // open a literal in block 0
    s.append(run, '\\');
    s += "\"tail\",x\n";
    s.append(70, 'b');  // a second full block + tail
    for (const framing_state start : all_carry_states())
      expect_pass_matches(
          s, '\n', start,
          "run=" + std::to_string(run) + " in=" +
              std::to_string(start.in_string) + " esc=" +
              std::to_string(start.escaped));
  }
}

TEST(BitmapPass, BothSpeculativeCarryStates) {
  // Every carry-in combination over a buffer whose first block both closes
  // and reopens literals; with in_string carried in, the same bytes flip
  // meaning entirely.
  const std::string s =
      "tail of a literal\" , {\"k\":\"v\\\"w\"}\n" + std::string(64, '{') +
      "\"unterminated \\";
  for (const framing_state start : all_carry_states())
    expect_pass_matches(s, '\n', start,
                        "in=" + std::to_string(start.in_string) + " esc=" +
                            std::to_string(start.escaped));
}

TEST(BitmapPass, BackslashOutsideStringFallsBackToScalar) {
  // Raw backslashes outside any literal: not JSON, but framing must still
  // be byte-identical to the tracker (which does NOT arm escapes outside
  // strings - the word-parallel calculation does, so these words must be
  // recomputed exactly). The canary: a backslash before a quote outside a
  // string must NOT stop that quote from opening a literal.
  std::string s = "c:\\windows\\system32,\"lit\\\"eral\",x\\\"y\n";
  s.append(40, 'p');  // pad the first word full
  s += std::string(30, '\\') + "\"masked,separator\n\"\n";
  s.append(70, 'q');
  for (const framing_state start : all_carry_states())
    expect_pass_matches(s, '\n', start,
                        "fallback in=" + std::to_string(start.in_string) +
                            " esc=" + std::to_string(start.escaped));
  bitmap_pass pass;
  pass.compute(reinterpret_cast<const unsigned char*>(s.data()), s.size(),
               '\n', {}, simd_level::scalar);
  EXPECT_GT(pass.scalar_fallback_words(), 0u);
}

TEST(BitmapPass, RandomBackslashTorture) {
  // Random strings over a backslash/quote-heavy alphabet, at block-edge
  // lengths: brute-force cross-check of the odd-length backslash-run
  // resolution (long runs, runs straddling words, escaped quotes, escaped
  // backslashes) against the byte-serial reference.
  const std::string alphabet = "\\\\\\\"\"a,\n{";
  std::mt19937 rng(7);
  std::uniform_int_distribution<std::size_t> pick(0, alphabet.size() - 1);
  for (const std::size_t n :
       {std::size_t{63}, std::size_t{64}, std::size_t{65}, std::size_t{128},
        std::size_t{200}, std::size_t{257}}) {
    for (int round = 0; round < 40; ++round) {
      std::string s(n, ' ');
      for (auto& c : s) c = alphabet[pick(rng)];
      for (const framing_state start : all_carry_states())
        expect_pass_matches(s, '\n', start,
                            "n=" + std::to_string(n) + " round=" +
                                std::to_string(round));
    }
  }
}

TEST(BitmapUtils, NextBitWalksSetBits) {
  const std::vector<std::uint64_t> words = {0x8000000000000001ULL, 0,
                                            std::uint64_t{1} << 5};
  const std::size_t size = 134;
  EXPECT_EQ(next_bit(words, 0, size), 0u);
  EXPECT_EQ(next_bit(words, 1, size), 63u);
  EXPECT_EQ(next_bit(words, 64, size), 133u);
  EXPECT_EQ(next_bit(words, 134, size), simd::npos);
  EXPECT_EQ(next_bit(words, 500, size), simd::npos);
}

TEST(BitmapUtils, CollectBitsHonoursRange) {
  std::vector<std::uint64_t> words(3, 0);
  const std::vector<std::uint32_t> set = {0, 3, 63, 64, 100, 128, 180};
  for (const std::uint32_t p : set) words[p >> 6] |= std::uint64_t{1} << (p & 63);
  for (const simd_level level : simd::available_levels()) {
    std::vector<std::uint32_t> out;
    collect_bits(words, 0, 181, level, out);
    ASSERT_EQ(out.size(), set.size()) << simd::to_string(level);
    for (std::size_t i = 0; i < set.size(); ++i) EXPECT_EQ(out[i], set[i]);
    out.clear();
    collect_bits(words, 3, 128, level, out);  // trims both ends: [3, 128)
    const std::vector<std::uint32_t> inner = {3, 63, 64, 100};
    ASSERT_EQ(out.size(), inner.size()) << simd::to_string(level);
    for (std::size_t i = 0; i < inner.size(); ++i) EXPECT_EQ(out[i], inner[i]);
    out.clear();
    collect_bits(words, 10, 10, level, out);  // empty range
    EXPECT_TRUE(out.empty());
  }
}

// ---------------------------------------------------------------------------
// record_framer against the byte-per-cycle reference.

// Seeded adversarial NDJSON-ish stream: string literals holding separators,
// escape runs of both parities placed across 64-byte word edges, NUL
// and high bytes, raw backslashes outside any literal and empty records.
std::string adversarial_stream(util::prng& rng, std::size_t records,
                               unsigned char sep) {
  const std::string_view plain = "ab{}[]:,0123456789 ";
  const std::string_view inner = "xy{},:[] ";
  std::string s;
  const auto backslash_run = [&](bool straddle) {
    const std::size_t run = 1 + rng.below(9);
    if (straddle)  // centre the run on the next 64-byte word edge
      while ((s.size() + run / 2) % 64 != 0) s += 'p';
    s.append(run, '\\');
    // An odd run escapes the next byte, an even one leaves it plain; with
    // any separator but '"' the literal stays open either way.
    s += run % 2 == 1 && rng.chance(0.5) ? '"' : static_cast<char>(sep);
  };
  for (std::size_t r = 0; r < records; ++r) {
    const std::size_t pieces = 1 + rng.below(6);
    for (std::size_t p = 0; p < pieces; ++p) {
      switch (rng.below(7)) {
        case 0:
        case 1:
          s += rng.ascii(1 + rng.below(12), plain);
          break;
        case 2:
        case 3:  // literal holding a separator and maybe an escape run
          s += '"';
          s += rng.ascii(rng.below(8), inner);
          s += static_cast<char>(sep);
          if (rng.chance(0.5)) backslash_run(false);
          s += rng.ascii(rng.below(8), inner);
          s += '"';
          break;
        case 4:  // literal whose escape run straddles a word edge
          s += '"';
          backslash_run(true);
          s += '"';
          break;
        case 5:
          for (std::size_t k = 1 + rng.below(3); k-- > 0;)
            s += static_cast<char>(rng.pick(std::vector<int>{0, 0x80, 0xA9,
                                                             0xC3, 0xFF}));
          break;
        default:  // now and then a raw backslash outside any literal
          s += rng.chance(0.2) ? "\\q" : "z";
          break;
      }
    }
    s += static_cast<char>(sep);
    if (rng.chance(0.1)) s += static_cast<char>(sep);  // empty record
  }
  return s;
}

struct framed {
  std::vector<std::string> records;
  std::string tail;
  bool tail_masked = false;

  friend bool operator==(const framed&, const framed&) = default;
};

// The reference: push() byte by byte; non-empty segments between its
// record_boundary bytes are the records. The tail is masked when the
// flush separator push() would append does not end a record.
framed reference_framing(const std::string& stream, unsigned char sep) {
  filter_options options;
  options.separator = sep;
  raw_filter reference(string_leaf("ab", 1), options);
  framed out;
  std::string current;
  for (const char c : stream) {
    if (!reference.push(static_cast<unsigned char>(c)).record_boundary) {
      current += c;
    } else if (!current.empty()) {
      out.records.push_back(std::move(current));
      current.clear();
    }
  }
  out.tail = current;
  out.tail_masked =
      !current.empty() && !reference.push(sep).record_boundary;
  return out;
}

// Collects what a framer hands out, checking each record's pass: its bits
// at `offset` must be the bits a fresh pass over the record computes.
struct collector {
  unsigned char sep;
  simd::simd_level level;
  framed got;
  bitmap_pass fresh;

  void on_record(std::span<const unsigned char> record,
                 const bitmap_pass& pass, std::size_t offset) {
    got.records.emplace_back(record.begin(), record.end());
    fresh.compute(record.data(), record.size(), sep, {}, level);
    ASSERT_LE(offset + record.size(), pass.size());
    for (std::size_t i = 0; i < record.size(); ++i)
      ASSERT_EQ(pass.masked_at(offset + i), fresh.masked_at(i))
          << "record " << got.records.size() - 1 << " byte " << i;
  }
  auto sink() {
    return [this](std::span<const unsigned char> record,
                  const bitmap_pass& pass, std::size_t offset) {
      on_record(record, pass, offset);
    };
  }
  void flush(record_framer& framer) {
    framer.flush(
        [this](std::span<const unsigned char> tail, const bitmap_pass&,
               std::size_t) { got.tail.assign(tail.begin(), tail.end()); },
        [this](std::span<const unsigned char> tail) {
          got.tail.assign(tail.begin(), tail.end());
          got.tail_masked = true;
        });
  }
};

TEST(RecordFramer, MatchesScalarBoundariesAtEverySplit) {
  util::prng rng(22);
  for (const unsigned char sep : {'\n', ',', '"'}) {
    // No tail, an unterminated record, a tail inside an open literal.
    for (const std::string_view end : {"", "ab12", "\"open,\n"}) {
      const std::string stream =
          adversarial_stream(rng, 12, sep) + std::string(end);
      const framed expected = reference_framing(stream, sep);
      const auto* bytes =
          reinterpret_cast<const unsigned char*>(stream.data());
      for (const simd_level level : simd::available_levels()) {
        for (std::size_t cut = 0; cut <= stream.size(); ++cut) {
          const std::string where = "sep=" + std::to_string(sep) +
                                    " end=" + std::string(end) +
                                    " simd=" + simd::to_string(level) +
                                    " cut=" + std::to_string(cut);
          // Two feeds through one framer.
          collector one{sep, level, {}, {}};
          record_framer framer(sep, level);
          framer.feed({bytes, cut}, one.sink());
          framer.feed({bytes + cut, stream.size() - cut}, one.sink());
          one.flush(framer);
          ASSERT_EQ(one.got, expected) << where;
          // take_carry() at the cut returns to the power-on state, so
          // replaying the carry reproduces the stream (the live query
          // swap's hand-over).
          collector two{sep, level, {}, {}};
          framer.feed({bytes, cut}, two.sink());
          const std::vector<unsigned char> carry = framer.take_carry();
          framer.feed(carry, two.sink());
          framer.feed({bytes + cut, stream.size() - cut}, two.sink());
          two.flush(framer);
          ASSERT_EQ(two.got, expected) << where;
        }
      }
    }
  }
}

}  // namespace
}  // namespace jrf::core
