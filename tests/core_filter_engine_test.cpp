// Stream-framing and engine-layer tests: the chunked scan path must frame
// records exactly like raw_filter::push - empty records, trailing records,
// custom separators, separator bytes masked inside string literals, and
// chunk boundaries that split records anywhere (mid-token, mid-escape).
#include "core/filter_engine.hpp"

#include <gtest/gtest.h>

#include <string>
#include <string_view>
#include <vector>

#include "core/expr.hpp"
#include "core/raw_filter.hpp"
#include "data/stream.hpp"
#include "numrange/range_spec.hpp"
#include "util/error.hpp"

namespace jrf::core {
namespace {

expr_ptr temperature_filter() {
  return conj({string_leaf("temperature", 1),
               value_leaf(numrange::range_spec::real_range("0.7", "35.1"))});
}

expr_ptr grouped_filter() {
  return make_group(
      group_kind::scope,
      {string_spec{string_technique::substring, 1, "temperature"},
       value_spec{numrange::range_spec::real_range("0.7", "35.1"), {}}});
}

std::vector<bool> scalar_reference(const expr_ptr& expr, std::string_view stream,
                                   filter_options options = {}) {
  raw_filter rf(expr, options);
  return rf.filter_stream(stream);
}

/// Both engine kinds must match the raw_filter reference, for whole-stream
/// scans and for every chunk granularity.
void expect_framing_equivalence(const expr_ptr& expr, std::string_view stream,
                                filter_options options = {}) {
  const std::vector<bool> expected = scalar_reference(expr, stream, options);
  for (const engine_kind kind : {engine_kind::scalar, engine_kind::chunked}) {
    auto engine = make_filter_engine(kind, expr, options);
    EXPECT_EQ(engine->filter_stream(stream), expected) << to_string(kind);

    for (const std::size_t chunk : {std::size_t{1}, std::size_t{2},
                                    std::size_t{3}, std::size_t{7},
                                    std::size_t{64}}) {
      engine->reset();
      engine->clear_decisions();
      data::for_each_chunk(stream, chunk,
                           [&](std::string_view c) { engine->scan_chunk(c); });
      engine->finish();
      EXPECT_EQ(engine->take_decisions(), expected)
          << to_string(kind) << " chunk=" << chunk;
    }
  }
}

TEST(FilterEngine, EmptyRecordsProduceNoDecision) {
  expect_framing_equivalence(
      temperature_filter(),
      "\n\n{\"temperature\":5.0}\n\n\n{\"temperature\":99.0}\n\n");
}

TEST(FilterEngine, TrailingRecordWithoutSeparatorIsFlushed) {
  expect_framing_equivalence(
      temperature_filter(),
      "{\"temperature\":5.0}\n{\"temperature\":12.5}");
}

TEST(FilterEngine, CustomSeparator) {
  filter_options options;
  options.separator = ';';
  expect_framing_equivalence(
      temperature_filter(),
      "{\"temperature\":5.0};{\"temperature\":99.0};{\"temperature\":1.2}",
      options);
}

TEST(FilterEngine, SeparatorBytesInsideStringsAreMasked) {
  // Literal newlines inside string content must not split the record; the
  // escaped quote before one of them must not end the string either.
  const std::string stream =
      "{\"note\":\"line1\nline2\",\"temperature\":5.0}\n"
      "{\"note\":\"say \\\"hi\\\"\nmore\",\"temperature\":99.0}\n"
      "{\"temperature\":2.0}\n";
  expect_framing_equivalence(temperature_filter(), stream);
  expect_framing_equivalence(grouped_filter(), stream);
}

TEST(FilterEngine, BackslashRunsKeepEscapeParity) {
  // \\" closes the string (escaped backslash then a real quote), \\\" does
  // not; a chunk boundary between the backslashes must not lose parity.
  const std::string stream =
      "{\"a\":\"x\\\\\",\"temperature\":5.0}\n"
      "{\"b\":\"y\\\\\\\"\n\",\"temperature\":6.0}\n";
  expect_framing_equivalence(temperature_filter(), stream);
}

TEST(FilterEngine, UnterminatedStringAtEndOfStream) {
  // The synthesized flush separator lands inside the open literal, so the
  // scalar path emits a masked (false) decision; chunked must agree.
  const std::string stream =
      "{\"temperature\":5.0}\n{\"note\":\"open string, temperature 5";
  expect_framing_equivalence(temperature_filter(), stream);
}

TEST(FilterEngine, ChunkBoundariesSplitRecordsMidToken) {
  // Number tokens, search strings and group scopes all straddle chunk
  // boundaries at every granularity expect_framing_equivalence sweeps.
  std::string stream;
  for (int i = 0; i < 50; ++i)
    stream += "{\"e\":[{\"n\":\"temperature\",\"v\":" +
              std::to_string(0.5 + i) + "}]}\n";
  expect_framing_equivalence(grouped_filter(), stream);
}

TEST(FilterEngine, AcceptsMatchesRawFilter) {
  const expr_ptr expr = temperature_filter();
  raw_filter reference(expr);
  for (const engine_kind kind : {engine_kind::scalar, engine_kind::chunked}) {
    EXPECT_STREQ(to_string(kind),
                 kind == engine_kind::scalar ? "scalar" : "chunked");
    auto engine = make_filter_engine(kind, expr);
    for (const std::string& record :
         {std::string{"{\"temperature\":5.0}"},
          std::string{"{\"temperature\":99.0}"}, std::string{},
          std::string{"{\"temperature\":5.0}\n{\"temperature\":99.0}"},
          std::string{"{\"note\":\"temperature 5.0 inside a string"}}) {
      EXPECT_EQ(engine->accepts(record), reference.accepts(record))
          << to_string(kind) << " record=" << record;
    }
  }
}

TEST(FilterEngine, ValueTokenEndingAtSeparatorFires) {
  // The number token terminates exactly at the record separator; the value
  // engine samples its DFA on that byte.
  const expr_ptr expr =
      leaf(value_spec{numrange::range_spec::real_range("0.7", "35.1"), {}});
  expect_framing_equivalence(expr, "5.0\n99.0\n12.5");
}

TEST(FilterEngine, CloneSharesQueryButNotState) {
  auto engine = make_filter_engine(engine_kind::chunked, grouped_filter());
  engine->scan_chunk(std::string_view{"{\"e\":[{\"n\":\"temperatu"});

  auto lane = engine->clone();
  EXPECT_EQ(lane->expression().get(), engine->expression().get());
  EXPECT_TRUE(lane->decisions().empty());

  // The clone starts mid-record-free: the original's partial record must
  // not leak into the clone's first record.
  lane->scan_chunk(std::string_view{"{\"e\":[{\"n\":\"temperature\",\"v\":5}]}\n"});
  engine->scan_chunk(std::string_view{"re\",\"v\":5}]}\n"});
  ASSERT_EQ(lane->decisions().size(), 1u);
  ASSERT_EQ(engine->decisions().size(), 1u);
  EXPECT_TRUE(lane->decisions().front());
  EXPECT_TRUE(engine->decisions().front());
}

TEST(FilterEngine, ReusableAfterMaskedFlush) {
  // finish() on a record that left a string literal open emits a false
  // decision AND leaves the engine ready for a fresh stream - both kinds.
  for (const engine_kind kind : {engine_kind::scalar, engine_kind::chunked}) {
    auto engine = make_filter_engine(kind, temperature_filter());
    engine->scan_chunk(std::string_view{"{\"note\":\"open"});
    engine->finish();
    engine->scan_chunk(std::string_view{"{\"temperature\":5.0}\n"});
    engine->finish();
    const std::vector<bool> expected{false, true};
    EXPECT_EQ(engine->decisions(), expected) << to_string(kind);
  }
}

TEST(FilterEngine, ResetDropsPartialRecord) {
  auto engine = make_filter_engine(engine_kind::chunked, temperature_filter());
  engine->scan_chunk(std::string_view{"{\"temperature\":5.0"});
  engine->reset();
  engine->finish();  // nothing buffered -> nothing flushed
  EXPECT_TRUE(engine->decisions().empty());
  engine->scan_chunk(std::string_view{"{\"temperature\":5.0}\n"});
  ASSERT_EQ(engine->decisions().size(), 1u);
  EXPECT_TRUE(engine->decisions().front());
}

TEST(FilterEngine, NullExpressionThrows) {
  EXPECT_THROW(make_filter_engine(engine_kind::scalar, nullptr), error);
  EXPECT_THROW(make_filter_engine(engine_kind::chunked, nullptr), error);
}

/// expect_framing_equivalence swept across every SIMD tier this host can
/// execute: the vector kernels' tail handling must not shift a single
/// decision.
void expect_equivalence_all_levels(const expr_ptr& expr,
                                   std::string_view stream) {
  for (const simd::simd_level level : simd::available_levels()) {
    filter_options options;
    options.simd = level;
    expect_framing_equivalence(expr, stream, options);
  }
}

TEST(FilterEngine, VectorWidthBoundaryRecordLengths) {
  // Records of exactly 15/16/17/31/32/33 bytes surround the 16- and
  // 32-byte vector widths: the candidate scans and framing must handle
  // full-vector, one-short and one-over tails identically to scalar.
  const expr_ptr expr = conj({string_leaf("tm", 1)});
  for (const std::size_t len : {15u, 16u, 17u, 31u, 32u, 33u}) {
    for (const std::size_t at : {0u, 7u, 13u, 29u}) {
      if (at + 2 > len) continue;
      std::string record(len, '.');
      record[at] = 't';
      record[at + 1] = 'm';
      std::string stream = record + "\n" + record + "\n";
      expect_equivalence_all_levels(expr, stream);
      // Same records with no match at all.
      expect_equivalence_all_levels(expr,
                                    std::string(len, '.') + "\n");
    }
  }
}

TEST(FilterEngine, MatchStraddlesChunkBoundary) {
  // "temperature" placed so it begins in one 32-byte block and ends in
  // the next - every offset around both vector widths.
  for (const std::size_t at : {5u, 10u, 14u, 15u, 16u, 21u, 26u, 30u, 31u,
                               32u, 33u, 40u}) {
    std::string record(64, 'x');
    record.replace(at, 11, "temperature");
    const std::string stream = record + "\n";
    expect_equivalence_all_levels(conj({string_leaf("temperature", 1)}),
                                  stream);
    expect_equivalence_all_levels(conj({string_leaf("temperature", 2)}),
                                  stream);
    expect_equivalence_all_levels(
        conj({dfa_string_leaf("temperature")}), stream);
    expect_equivalence_all_levels(
        conj({string_leaf("temperature", 11)}), stream);
  }
}

TEST(FilterEngine, EscapedQuoteAtRecordTail) {
  // Escapes at the very end of a record (and of a vector chunk): the
  // framing scan and the event scan both special-case the byte after a
  // backslash; at the record tail that byte is the separator itself.
  const std::vector<std::string> streams = {
      // Escaped quote as the last content byte.
      "{\"msg\":\"tail\\\"\",\"temperature\":5.0}\n",
      // Backslash as the final record byte (open literal, masked flush).
      "{\"temperature\":5.0}\n{\"msg\":\"trailing\\",
      // Escaped backslash then closing quote at a 32-byte boundary.
      "{\"padpadpadpadpad\":\"0123456\\\\\",\"temperature\":7.0}\n",
      // Double records whose escapes land on chunk edges at width 1-64.
      "{\"a\":\"\\\"\\\"\\\"\"}\n{\"temperature\":5.0,\"b\":\"\\\\\"}\n",
  };
  for (const std::string& stream : streams) {
    expect_equivalence_all_levels(temperature_filter(), stream);
    expect_equivalence_all_levels(grouped_filter(), stream);
  }
}

TEST(FilterEngine, SimdLevelKnobProducesIdenticalDecisions) {
  // The engine-selection knob end to end: same stream, every level, both
  // a flat and a grouped filter, decisions byte-identical.
  const std::string stream =
      "{\"e\":[{\"n\":\"temperature\",\"v\":21.5}],\"x\":\"\\\"esc\\\"\"}\n"
      "{\"e\":[{\"n\":\"temperature\",\"v\":99.0}]}\n"
      "{\"e\":[{\"n\":\"humidity\",\"v\":3.2}]}\n";
  expect_equivalence_all_levels(temperature_filter(), stream);
  expect_equivalence_all_levels(grouped_filter(), stream);
}

TEST(FilterEngine, RawFilterCopyIsIndependent) {
  raw_filter original(temperature_filter());
  original.push('{');
  raw_filter copy(original);
  // The copy starts reset; both decide identically afterwards.
  EXPECT_TRUE(copy.accepts("{\"temperature\":5.0}"));
  EXPECT_FALSE(copy.accepts("{\"temperature\":99.0}"));
  EXPECT_TRUE(original.accepts("{\"temperature\":5.0}"));
  // A moved-to filter keeps the compiled query.
  raw_filter moved(std::move(copy));
  EXPECT_TRUE(moved.accepts("{\"temperature\":5.0}"));
  EXPECT_FALSE(moved.accepts("{\"temperature\":99.0}"));
}

}  // namespace
}  // namespace jrf::core
