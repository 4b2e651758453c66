// Acceptance gate for the chunked hot path: scan_chunk framing + bulk
// record evaluation must produce byte-identical per-record decisions to the
// scalar push() path across the riotbench queries and all three datasets,
// for every compilation mode the query compiler can emit AND every SIMD
// tier this host can execute (scalar / SSE2 / AVX2): the vectored candidate
// scans must cause zero decision drift at any level.
#include <gtest/gtest.h>

#include <algorithm>
#include <string>
#include <vector>

#include "core/filter_engine.hpp"
#include "core/raw_filter.hpp"
#include "core/simd.hpp"
#include "data/smartcity.hpp"
#include "data/stream.hpp"
#include "data/taxi.hpp"
#include "data/twitter.hpp"
#include "numrange/range_spec.hpp"
#include "query/compile.hpp"
#include "query/riotbench.hpp"

namespace jrf {
namespace {

std::vector<std::string> evaluation_streams(int records) {
  return {
      data::smartcity_generator().stream(records),
      data::taxi_generator().stream(records),
      data::twitter_generator().stream(records),
  };
}

std::vector<query::query> riotbench_queries() {
  return {query::riotbench::qs0(), query::riotbench::qs1(),
          query::riotbench::qt(), query::riotbench::q0()};
}

void expect_identical_decisions(const core::expr_ptr& expr,
                                const std::string& stream,
                                const std::string& label,
                                const core::filter_options& base = {}) {
  core::raw_filter reference(expr, base);
  const std::vector<bool> expected = reference.filter_stream(stream);

  for (const core::simd::simd_level level : core::simd::available_levels()) {
    core::filter_options options = base;
    options.simd = level;
    auto chunked =
        core::make_filter_engine(core::engine_kind::chunked, expr, options);
    const std::vector<bool> actual = chunked->filter_stream(stream);
    const std::string where =
        label + " simd=" + core::simd::to_string(level);
    ASSERT_EQ(actual.size(), expected.size()) << where;
    for (std::size_t i = 0; i < expected.size(); ++i)
      ASSERT_EQ(actual[i], expected[i]) << where << " record " << i;
  }
}

TEST(ChunkedEquivalence, RiotbenchQueriesAllDatasetsGrouped) {
  const auto streams = evaluation_streams(250);
  for (const query::query& q : riotbench_queries()) {
    for (const int block : {1, 2}) {
      const core::expr_ptr expr = query::compile_default(q, block);
      for (std::size_t s = 0; s < streams.size(); ++s)
        expect_identical_decisions(
            expr, streams[s],
            q.name + " block=" + std::to_string(block) + " stream=" +
                std::to_string(s));
    }
  }
}

TEST(ChunkedEquivalence, EveryAttributeMode) {
  // One choice vector per attribute_mode (omit only for non-first
  // predicates: all-omit is rejected by the compiler).
  const query::query q = query::riotbench::qs0();
  const auto predicates = q.predicates();
  const auto streams = evaluation_streams(150);

  using query::attribute_choice;
  using query::attribute_mode;
  for (const attribute_mode mode :
       {attribute_mode::string_only, attribute_mode::value_only,
        attribute_mode::flat_and, attribute_mode::grouped}) {
    std::vector<attribute_choice> choices(predicates.size());
    for (std::size_t p = 0; p < choices.size(); ++p) {
      choices[p].mode = p % 2 == 1 ? attribute_mode::omit : mode;
      choices[p].block = 1;
    }
    const core::expr_ptr expr = query::compile(q, choices);
    for (std::size_t s = 0; s < streams.size(); ++s)
      expect_identical_decisions(expr, streams[s],
                                 "mode=" + std::to_string(static_cast<int>(mode)) +
                                     " stream=" + std::to_string(s));
  }
}

TEST(ChunkedEquivalence, DfaTechniqueAndFullCompare) {
  const query::query q = query::riotbench::qt();
  const auto predicates = q.predicates();
  const auto streams = evaluation_streams(150);

  using query::attribute_choice;
  // DFA string matchers (technique (i)) and full-length compares (ii).
  for (const bool dfa : {true, false}) {
    std::vector<attribute_choice> choices(predicates.size());
    for (auto& choice : choices) {
      choice.mode = query::attribute_mode::grouped;
      if (dfa) {
        choice.technique = core::string_technique::dfa;
      } else {
        choice.block = query::block_full;
      }
    }
    const core::expr_ptr expr = query::compile(q, choices);
    for (std::size_t s = 0; s < streams.size(); ++s)
      expect_identical_decisions(expr, streams[s],
                                 std::string(dfa ? "dfa" : "full") +
                                     " stream=" + std::to_string(s));
  }
}

TEST(ChunkedEquivalence, PulsesOnAPrintableSeparator) {
  // The record protocol appends the separator byte, so with a printable
  // separator a string primitive can pulse on it: a gram or DFA text
  // ending in the separator fires when the record ends with the rest.
  core::filter_options options;
  options.separator = '|';
  const auto substring = [](int block, const char* text) {
    return core::primitive_spec{
        core::string_spec{core::string_technique::substring, block, text}};
  };
  const auto dfa = [](const char* text) {
    return core::primitive_spec{
        core::string_spec{core::string_technique::dfa, 1, text}};
  };
  const std::string stream =
      "{\"k\":\"a|b\"}|{\"k\":1}|x}|}|{\"k\":[2]}|{\"k}|\":0}|k|{}|";
  const std::vector<core::expr_ptr> exprs{
      core::leaf(substring(2, "}|")),
      core::leaf(substring(1, "}|")),
      core::leaf(dfa("}|")),
      core::leaf(dfa("xyz}|")),
      core::disj({core::leaf(substring(2, "]}|")), core::leaf(dfa("1}|"))}),
      core::make_group(core::group_kind::scope,
                       {dfa("}|"), substring(1, "k")}),
      core::make_group(core::group_kind::pair,
                       {substring(1, "k"), dfa("}|")}),
  };
  for (std::size_t e = 0; e < exprs.size(); ++e) {
    const auto decisions =
        core::raw_filter(exprs[e], options).filter_stream(stream);
    if (e != 3) {  // "xyz}|" is longer than every record it could end
      EXPECT_NE(std::count(decisions.begin(), decisions.end(), true), 0)
          << "expr " << e;
    }
    expect_identical_decisions(exprs[e], stream,
                               "expr " + std::to_string(e), options);
  }
}

TEST(ChunkedEquivalence, DeadValueRunReachingTheRecordEnd) {
  // Past 64 distinct value engines the rest leave the shared token-run
  // path for value_engine's own bulk scan. A token run the range's DFA can
  // no longer accept - a second '.', a sign after a digit - goes dead and
  // is skipped to its end: here the very end of the record, before a
  // non-token separator and before a token-class one. Every numeral stays
  // clear of the first 64 ranges, so the disjunction reaches the scanned
  // engines on every record.
  std::vector<core::expr_ptr> leaves;
  for (int i = 0; i < 66; ++i)
    leaves.push_back(core::value_leaf(numrange::range_spec::real_range(
        std::to_string(3 * i), std::to_string(3 * i + 10))));
  const core::expr_ptr expr = core::disj(leaves);
  const std::string stream =
      "{\"v\":500} 5.5.5555555555\n"
      "8-88888888888888\n"
      "{\"v\":196} 1..96\n"
      "{\"v\":900,\"w\":[1000,2000]} 3.0.0000000";
  const std::vector<bool> decisions = core::raw_filter(expr).filter_stream(stream);
  EXPECT_EQ(decisions, (std::vector<bool>{false, false, true, false}));
  expect_identical_decisions(expr, stream, "separator \\n");
  core::filter_options digit;
  digit.separator = '9';
  expect_identical_decisions(expr, "{\"v\":500} 5.0.000009{\"v\":204} 4-44449",
                             "separator 9", digit);
}

TEST(ChunkedEquivalence, BufferBoundaryChunkWidths) {
  // Feed the stream through scan_chunk in buffers of the widths around the
  // bitmap pass's 64-byte block size, so records (and escape sequences)
  // straddle buffer boundaries in every alignment; decisions must match
  // the scalar reference and the one-shot feed exactly.
  const query::query q = query::riotbench::qs0();
  const core::expr_ptr expr = query::compile_default(q);
  const std::string stream = data::smartcity_generator().stream(120);
  core::raw_filter reference(expr);
  const std::vector<bool> expected = reference.filter_stream(stream);

  for (const std::size_t width : {std::size_t{1}, std::size_t{63},
                                  std::size_t{64}, std::size_t{65},
                                  std::size_t{257}}) {
    for (const core::simd::simd_level level : core::simd::available_levels()) {
      core::filter_options options;
      options.simd = level;
      auto chunked =
          core::make_filter_engine(core::engine_kind::chunked, expr, options);
      for (std::size_t off = 0; off < stream.size(); off += width)
        chunked->scan_chunk(std::string_view(stream).substr(off, width));
      chunked->finish();
      const std::vector<bool> actual = chunked->take_decisions();
      const std::string where = "width=" + std::to_string(width) +
                                " simd=" + core::simd::to_string(level);
      ASSERT_EQ(actual.size(), expected.size()) << where;
      for (std::size_t i = 0; i < expected.size(); ++i)
        ASSERT_EQ(actual[i], expected[i]) << where << " record " << i;
    }
  }
}

TEST(ChunkedEquivalence, InflatedStreamWithTrailingRecord) {
  // The system-bench shape: an inflated stream, final record unterminated.
  const query::query q = query::riotbench::qs0();
  const core::expr_ptr expr = query::compile_default(q);
  std::string stream =
      data::inflate(data::smartcity_generator().stream(120), 256u << 10);
  stream.pop_back();  // drop the final separator
  expect_identical_decisions(expr, stream, "inflated trailing");
}

}  // namespace
}  // namespace jrf
