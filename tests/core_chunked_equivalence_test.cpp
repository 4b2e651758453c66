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

/// Every query alone (N=1) and all of them as one fleet (N>1) on the
/// chunked engine, at every SIMD tier, fed whole and in chunks of `widths`
/// bytes: each decision column must equal raw_filter::push's.
void expect_fleet_matches_push(const std::vector<core::expr_ptr>& queries,
                               const std::string& stream,
                               const std::string& label,
                               const core::filter_options& base) {
  std::vector<std::vector<bool>> expected;
  for (const core::expr_ptr& q : queries)
    expected.push_back(core::raw_filter(q, base).filter_stream(stream));
  const auto feed = [&](core::filter_engine& engine, std::size_t width) {
    for (std::size_t off = 0; off < stream.size(); off += width)
      engine.scan_chunk(std::string_view(stream).substr(off, width));
    engine.finish();
  };
  for (const core::simd::simd_level level : core::simd::available_levels()) {
    core::filter_options options = base;
    options.simd = level;
    for (const std::size_t width :
         {stream.size(), std::size_t{1}, std::size_t{7}, std::size_t{63},
          std::size_t{64}, std::size_t{65}}) {
      const std::string where = label + " simd=" +
                                core::simd::to_string(level) +
                                " width=" + std::to_string(width);
      for (std::size_t q = 0; q < queries.size(); ++q) {
        auto single =
            core::make_filter_engine(core::engine_kind::chunked, queries[q], options);
        feed(*single, width);
        ASSERT_EQ(single->decisions(), expected[q]) << where << " query " << q;
      }
      auto fleet =
          core::make_filter_engine(core::engine_kind::chunked, queries, options);
      feed(*fleet, width);
      for (std::size_t q = 0; q < queries.size(); ++q)
        ASSERT_EQ(fleet->decision_column(q), expected[q])
            << where << " fleet column " << q;
    }
  }
}

TEST(ChunkedEquivalence, AdversarialNumerals) {
  // Token runs the run-verdict stage must decide like the byte-serial
  // value primitive: numerals longer than 16 bytes, runs made only of
  // exponent letters, signs or dots, runs straddling 64-byte words and
  // ingest-chunk splits (the padding walks every alignment), and a
  // numeral ending the stream under a token-class separator, which is
  // never sampled.
  const auto value = [](numrange::range_spec range, bool escape) {
    numrange::build_options options;
    options.exponent_escape = escape;
    return core::primitive_spec{core::value_spec{std::move(range), options}};
  };
  const std::vector<core::expr_ptr> queries{
      core::value_leaf(numrange::range_spec::real_range("0.7", "35.1")),
      core::leaf(value(numrange::range_spec::integer_range(
                           "10000000000000000000", "99999999999999999999"),
                       false)),
      core::leaf(value(numrange::range_spec::real_range("-1", "0.5"), false)),
      core::leaf(value(numrange::range_spec::at_least("3", numrange::numeric_kind::real),
                       true)),
      core::disj({core::value_leaf(numrange::range_spec::integer_range("-5", "5")),
                  core::value_leaf(numrange::range_spec::real_range("100", "200"))}),
      core::make_group(
          core::group_kind::scope,
          {core::string_spec{core::string_technique::substring, 1, "v"},
           value(numrange::range_spec::real_range("0", "1"), true)}),
  };
  const std::vector<std::string> numerals{
      "12345678901234567890", "-0.000000000000000001234",
      "35.10000000000000000000001", "1e+000000000000000000005",
      "00000000000000000000000000000000000000000000000000000000000000000017",
      "99999999999999999999", "100000000000000000000",
      "e", "E", "eE", "eeeeeeeeeeeeeeeeeeeeeeee", "+", "-", "+-", "--", ".",
      "...", "e.E-+", "-.e", ".5", "5.", "-0", "0.7", "35.1", "35.11", "3",
      "1.5e3", "2E-2", "0.25", "150", "-5", "+5", "5-", "1-2", "0.5.5"};
  std::string stream;
  std::size_t pad = 0;
  for (const std::string& numeral : numerals) {
    for (int k = 0; k < 3; ++k, pad = (pad + 13) % 71) {
      stream += "{\"p\":\"" + std::string(pad, 'a') + "\",\"v\":" + numeral +
                ",\"w\":[" + numeral + "," + numeral + "]}\n";
      stream += numeral + "\n";  // a bare run: the whole record
    }
  }
  stream += "{\"v\":12.5} 0.25";  // unterminated: the flush samples it
  for (std::size_t q = 0; q < queries.size(); ++q) {
    const std::vector<bool> column = core::raw_filter(queries[q]).filter_stream(stream);
    EXPECT_NE(std::count(column.begin(), column.end(), true), 0) << "query " << q;
    EXPECT_NE(std::count(column.begin(), column.end(), false), 0) << "query " << q;
  }
  expect_fleet_matches_push(queries, stream, "separator \\n", {});
  for (const char separator : {'7', '-', 'e'}) {
    // Token-class separators: every record's last run reaches its end,
    // and the final unterminated numeral is never sampled.
    core::filter_options options;
    options.separator = static_cast<unsigned char>(separator);
    std::string tokens = "{\"v\":0.8}";
    for (std::size_t i = 0; i < numerals.size(); ++i)
      tokens += std::string(i % 5, ' ') + "{\"v\":" + numerals[i] + "} " +
                numerals[(i + 1) % numerals.size()] + separator;
    tokens += "{\"v\":12.5} 1234.5";
    expect_fleet_matches_push(queries, tokens,
                              std::string("separator ") + separator, options);
  }
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
