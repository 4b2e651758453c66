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
#include "core/framer.hpp"
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
void expect_fleet_matches_push(
    const std::vector<core::expr_ptr>& queries, const std::string& stream,
    const std::string& label, const core::filter_options& base,
    std::vector<std::size_t> widths = {1, 7, 63, 64, 65}) {
  std::vector<std::vector<bool>> expected;
  for (const core::expr_ptr& q : queries)
    expected.push_back(core::raw_filter(q, base).filter_stream(stream));
  const auto feed = [&](core::filter_engine& engine, std::size_t width) {
    for (std::size_t off = 0; off < stream.size(); off += width)
      engine.scan_chunk(std::string_view(stream).substr(off, width));
    engine.finish();
  };
  widths.insert(widths.begin(), stream.size());  // whole
  for (const core::simd::simd_level level : core::simd::available_levels()) {
    core::filter_options options = base;
    options.simd = level;
    for (const std::size_t width : widths) {
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


// ---------------------------------------------------------------------------
// Edge cases of the tracker and the hit counter, and records at the chunked
// engine's 64 KiB window edges.

core::primitive_spec gram(int block, const char* text) {
  return core::string_spec{core::string_technique::substring, block, text};
}
core::primitive_spec dfa_text(const char* text) {
  return core::string_spec{core::string_technique::dfa, 1, text};
}
core::primitive_spec range(const char* lo, const char* hi) {
  return core::value_spec{numrange::range_spec::real_range(lo, hi), {}};
}

/// Each query accepts some record of `stream` and rejects another, so the
/// comparisons below can tell a wrong engine from a constant one.
void expect_mixed(const std::vector<core::expr_ptr>& queries,
                  const std::string& stream, const std::string& label,
                  const core::filter_options& options) {
  for (std::size_t q = 0; q < queries.size(); ++q) {
    const std::vector<bool> column =
        core::raw_filter(queries[q], options).filter_stream(stream);
    EXPECT_NE(std::count(column.begin(), column.end(), true), 0)
        << label << " query " << q;
    EXPECT_NE(std::count(column.begin(), column.end(), false), 0)
        << label << " query " << q;
  }
}

/// accepts() and accepts_bits() on every record of `stream` (framed like
/// the filters frame it) against raw_filter::accepts, N=1 and the fleet.
void expect_accepts_match(const std::vector<core::expr_ptr>& queries,
                          const std::string& stream, const std::string& label,
                          const core::filter_options& options) {
  std::vector<std::string> records;
  core::for_each_record(
      stream, [&](std::string_view r) { records.emplace_back(r); },
      options.separator);
  auto fleet =
      core::make_filter_engine(core::engine_kind::chunked, queries, options);
  std::vector<std::uint64_t> words(fleet->words_per_record());
  for (std::size_t r = 0; r < records.size(); ++r) {
    const bool any = fleet->accepts_bits(records[r], words.data());
    bool want_any = false;
    for (std::size_t q = 0; q < queries.size(); ++q) {
      const bool want = core::raw_filter(queries[q], options).accepts(records[r]);
      want_any = want_any || want;
      auto single = core::make_filter_engine(core::engine_kind::chunked,
                                             queries[q], options);
      ASSERT_EQ(single->accepts(records[r]), want)
          << label << " record " << r << " query " << q;
      ASSERT_EQ(((words[q / 64] >> (q % 64)) & 1) != 0, want)
          << label << " record " << r << " fleet bit " << q;
    }
    ASSERT_EQ(any, want_any) << label << " record " << r;
  }
}

/// `d` opening brackets (every third a '['), and the closes matching them.
std::string opens(int d) {
  std::string out;
  for (int i = 0; i < d; ++i) out += i % 3 == 2 ? '[' : '{';
  return out;
}
std::string closes(int d) {
  std::string out;
  for (int i = d; i-- > 0;) out += i % 3 == 2 ? ']' : '}';
  return out;
}

std::vector<core::expr_ptr> structural_fleet() {
  return {
      core::make_group(core::group_kind::scope, {gram(1, "key"), range("0", "5")}),
      core::make_group(core::group_kind::scope,
                       {gram(2, "key"), range("0", "5"), gram(1, "v")}),
      core::make_group(core::group_kind::pair, {gram(1, "key"), range("0", "5")}),
      core::conj({core::make_group(core::group_kind::scope,
                                   {dfa_text("key"), range("1", "3")}),
                  core::leaf(range("0", "10"))}),
  };
}

TEST(ChunkedEquivalence, ScopesDeeperThanTheDepthCounter) {
  // Nesting past the saturating counter (depth_bits 2 saturates at 3, 5 at
  // 31): a group armed at a saturated depth samples at the first close
  // whose depth_before is back at or below it, so the replay must use the
  // clamped depths, not the true nesting.
  std::string stream;
  for (int d = 0; d <= 40; d += d < 8 ? 1 : 7) {
    stream += opens(d) + "\"key\":3" + closes(d) + "\n";
    stream += opens(d) + "\"key\":{\"u\":1},\"v\":3" + closes(d) + "\n";
    stream += "{\"key\":1," + opens(d) + "\"w\":9" + closes(d) + ",\"v\":2}\n";
    stream += "{" + opens(d) + "\"key\":\"a\"" + closes(d) + ",\"v\":4}\n";
    stream += opens(d) + "\"key\":" + opens(d / 2 + 1) + "2" +
              closes(d / 2 + 1) + closes(d) + "\n";
    stream += "{\"v\":" + opens(d) + "1" + closes(d) + ",\"key\":0}\n";
  }
  const std::vector<core::expr_ptr> queries = structural_fleet();
  for (const int bits : {2, 5}) {
    core::filter_options options;
    options.depth_bits = bits;
    const std::string label = "depth_bits=" + std::to_string(bits);
    expect_mixed(queries, stream, label, options);
    expect_fleet_matches_push(queries, stream, label, options);
    expect_accepts_match(queries, stream, label, options);
  }
}

TEST(ChunkedEquivalence, UnbalancedClosesClampAtZero) {
  // Closes with no open scope leave the counter at 0; a group armed there
  // samples at every later close.
  const std::string stream =
      "}}]]{\"key\":1}\n"
      "]\"key\":2}\n"
      "}}}{\"key\":1,{\"v\":3}}}}}}\n"
      "\"key\":4}]}\"v\":1}\n"
      "{\"key\":\"x\"}}}]\"v\":2,\"key\":3\n"
      "]]]]]]]]]]\"key\"]:]2]\n"
      "}{}{}{\"key\":0}{\"v\":1}\n"
      "{{\"key\":9}}}}}}},\"v\":0,\"key\":\"k\"}\n"
      "},\"key\",\"v\",4,}\n";
  const std::vector<core::expr_ptr> queries = structural_fleet();
  for (const int bits : {2, 5}) {
    core::filter_options options;
    options.depth_bits = bits;
    const std::string label = "depth_bits=" + std::to_string(bits);
    expect_mixed(queries, stream, label, options);
    expect_fleet_matches_push(queries, stream, label, options);
    expect_accepts_match(queries, stream, label, options);
  }
}

TEST(ChunkedEquivalence, HitCounterWrapsInsideLongMemberRuns) {
  // A B=1 member's hit counter is threshold-wide hardware: a run of member
  // bytes fires at threshold, then every 2^w bytes after it (s1 of
  // "temperature": threshold 11, w 4; s1 of "a," and "a}": threshold 2,
  // w 2). Runs reach threshold + 2^w and beyond at every alignment, and
  // member sets holding ',' or '}' make the runs cross pair and scope
  // boundaries, so where each pulse lands decides the groups.
  const std::string word = "temperature";
  std::string stream;
  std::size_t pad = 0;
  for (const std::size_t len : {10, 11, 12, 26, 27, 28, 42, 43, 44, 59, 64,
                                65, 100, 129}) {
    std::string run;
    while (run.size() < len) run += word;
    run.resize(len);
    for (int k = 0; k < 3; ++k, pad = (pad + 17) % 61) {
      stream += "{\"p\":\"" + std::string(pad, 'x') + "\",\"" + run +
                "\":" + std::to_string(len % 50) + "}\n";
      stream += run + "," + std::to_string(k) + "\n";
    }
  }
  for (int k = 1; k <= 12; ++k) {
    for (int z = 0; z <= k; z += 2) {
      std::string pairs, scopes = "{{{{{{{{{{{{";
      for (int i = 0; i < k; ++i) {
        pairs += "a,";
        scopes += "a}";
        if (i == z) {
          pairs += "z";
          scopes += "z";
        }
      }
      stream += pairs + "\n" + scopes + "\n";
    }
  }
  const std::vector<core::expr_ptr> queries{
      core::leaf(gram(1, "temperature")),
      core::make_group(core::group_kind::pair,
                       {gram(1, "temperature"), range("0", "50")}),
      core::make_group(core::group_kind::scope, {gram(1, "a}"), gram(1, "z")}),
      core::make_group(core::group_kind::pair, {gram(1, "a,"), gram(1, "z")}),
  };
  expect_mixed(queries, stream, "wrap", {});
  expect_fleet_matches_push(queries, stream, "wrap", {});
  expect_accepts_match(queries, stream, "wrap", {});
}

TEST(ChunkedEquivalence, GramsAndDfaTextsBesideAPrintableSeparator) {
  // A printable separator inside a search text: a gram window or DFA
  // occurrence may end on the separator byte, but never reach across it -
  // the primitives restart at the boundary - and a B=1 run of members must
  // restart there too. Inside a string literal the separator is masked, so
  // there the same texts do match; the "z" branch keeps every column mixed.
  for (const char separator : {'|', ','}) {
    const std::string sep(1, separator);
    std::string stream;
    for (const char* body :
         {"xa", "bx", "a", "b", "ab", "ba", "", "", "b", "{\"a\":\"|,\"}",
          "aaa", "bbb", "a{\"b\":1}", "{\"k\":\"a\"}a", "b{}", "zab", "ba",
          "{\"s\":\"a|b|ab|a\"}", "{\"s\":\"a,b,ab,a\"}", "ab{\"s\":\"ab\"}"})
      stream += std::string(body) + sep;
    stream += "a" + sep + "b" + sep + "ab";  // unterminated tail
    const std::string a_sep_b = "a" + sep + "b";
    const std::string sep_ab = sep + "ab";
    const std::string b_sep_a = "b" + sep + "a";
    const std::string a_sep = "a" + sep;
    const std::string sep_b = sep + "b";
    const auto or_z = [](core::expr_ptr e) {
      return core::disj({std::move(e), core::leaf(gram(1, "z"))});
    };
    const std::vector<core::expr_ptr> queries{
        or_z(core::leaf(gram(2, a_sep_b.c_str()))),
        or_z(core::leaf(gram(1, a_sep_b.c_str()))),
        or_z(core::leaf(dfa_text(a_sep_b.c_str()))),
        or_z(core::leaf(gram(3, sep_ab.c_str()))),
        or_z(core::leaf(dfa_text(b_sep_a.c_str()))),
        core::make_group(core::group_kind::scope,
                         {gram(2, a_sep.c_str()), gram(1, "b")}),
        or_z(core::make_group(core::group_kind::pair,
                              {dfa_text(sep_b.c_str()), gram(1, "a")})),
    };
    core::filter_options options;
    options.separator = static_cast<unsigned char>(separator);
    const std::string label = "separator " + sep;
    expect_mixed(queries, stream, label, options);
    expect_fleet_matches_push(queries, stream, label, options);
    expect_accepts_match(queries, stream, label, options);
  }
}

TEST(ChunkedEquivalence, PairGroupsReadValueRunsOnlyNearTheirAnchors) {
  // A one-query plan whose value leaves only pair groups read, beside a
  // string anchor, walks just the token runs ending in a segment that
  // holds an anchor pulse. Numerals sit inside and outside those
  // segments, on pair bounds, across masked separators and at record
  // ends; plans that read a value leaf any other way walk every run.
  const auto pair = [](std::vector<core::primitive_spec> members) {
    return core::make_group(core::group_kind::pair, std::move(members));
  };
  const std::vector<core::expr_ptr> queries{
      pair({gram(1, "key"), range("0", "5")}),
      core::conj({pair({gram(1, "key"), range("0", "5")}),
                  pair({dfa_text("w"), range("3", "9")})}),
      pair({gram(2, "ab"), range("1", "2"), range("4", "6")}),
      core::disj({pair({gram(1, "key"), range("0", "5")}),
                  core::leaf(gram(2, "zz"))}),
      core::conj({pair({gram(1, "key"), range("0", "5")}),
                  core::leaf(range("7", "8"))}),
      pair({range("0", "5"), gram(1, "key")}),
      core::conj({core::make_group(core::group_kind::scope,
                                   {gram(1, "w"), range("3", "9")}),
                  pair({gram(1, "key"), range("0", "5")})}),
  };
  std::string stream;
  for (const char* record :
       {"{\"key\":3,\"w\":7}", "{\"a\":1,\"key\":\"x\",\"b\":2}", "key,3",
        "3,key", "{\"key\":[1,2],\"v\":4}", "key3", "{\"key\":3}",
        "\"key\":12,", "{\"w\":4,\"key\":9,\"n\":1}", "{\"ab\":1.5,\"x\":5}",
        "{\"ab\":[1,5]}", "ab 1.5 5", "{\"s\":\"key,2\",\"key\":8}", "zz 1", "7,8,key:4}",
        "{\"key\":\"3\"}", "{\"w\":\"3,7\",\"key\":4,\"w\":5}", "key 2"})
    stream += std::string(record) + "\n";
  stream += "{\"key\":2";  // unterminated
  for (const char separator : {'\n', ',', '7'}) {
    core::filter_options options;
    options.separator = static_cast<unsigned char>(separator);
    std::string text = stream;
    std::replace(text.begin(), text.end(), '\n', separator);
    const std::string label = std::string("separator ") + separator;
    if (separator == '\n') expect_mixed(queries, text, label, options);
    expect_fleet_matches_push(queries, text, label, options);
    expect_accepts_match(queries, text, label, options);
  }
}

TEST(ChunkedEquivalence, RecordHitCarriesAcrossWords) {
  // Records of 200 bytes and more whose member pulses all sit in their
  // first 64-bit word while the terminator lies two or more words later:
  // a record's hit reaches its terminator only through the word-to-word
  // carry. Some records pulse on nothing but their terminator.
  const std::string pad(250, 'p');
  const std::string blank(200, ' ');
  std::string stream;
  for (const char* value : {"3", "7"}) {
    stream += "{\"key\":" + std::string(value) + ",\"pad\":\"" + pad + "\"}\n";
    stream += "{\"key\":" + blank + value + "}" + blank + "\n";
    stream += "\"key\"" + blank + ":" + value + "," + blank + "\n";
    stream += "key " + std::string(value) + blank + blank + "\n";
    stream += blank + pad + " " + value + "\n";  // pulses on its terminator
  }
  stream += "{\"pad\":\"" + pad + "\"}\n";
  const std::vector<core::expr_ptr> queries{
      core::leaf(gram(1, "key")),
      core::leaf(range("0", "5")),
      core::make_group(core::group_kind::scope, {gram(1, "key"), range("0", "5")}),
      core::make_group(core::group_kind::pair, {gram(1, "key"), range("0", "5")}),
      core::conj({core::leaf(gram(2, "ke")), core::leaf(range("2", "4"))}),
  };
  expect_mixed(queries, stream, "carry", {});
  expect_fleet_matches_push(queries, stream, "carry", {});
  expect_accepts_match(queries, stream, "carry", {});
}

TEST(ChunkedEquivalence, ScopeWindowsSpanningAChild) {
  // A scope group's window runs from a member pulse to the close back at
  // its depth, so it spans every child scope opened in between: a member
  // after a nested object, a member only inside the nested child, a
  // member pulsing on an open byte (a numeral right before '{' or '['),
  // and a member pulsing on the close that samples the group.
  std::string stream;
  for (const char* record : {
           "{\"n\":\"temperature\",\"x\":{\"y\":1},\"v\":24.1}",
           "{\"n\":\"temperature\",\"x\":{\"y\":1},\"v\":94.1}",
           "{\"n\":\"humidity\",\"x\":{\"n\":\"temperature\",\"v\":3}}",
           "{\"n\":\"humidity\",\"x\":{\"v\":3},\"m\":\"temperature\"}",
           "{\"x\":{\"v\":24.1},\"n\":\"temperature\"}",
           "{\"x\":{\"n\":\"temperature\"},\"v\":2}",
           "{\"x\":[{\"n\":\"temperature\"}],\"v\":2,\"w\":[1]}",
           "{\"n\":\"temperature\",\"v\":24.1{\"a\":\"b\"}}",
           "{\"n\":\"temperature\",\"v\":24.1[\"a\"]}",
           "[\"temperature\",3[1]]",
           "{\"n\":\"temperature\",\"v\":24.1}",
           "{\"n\":\"temperature\",\"v\":[24.1]}",
           "{\"e\":[{\"n\":\"temperature\"},{\"v\":3}]}",
           "{\"e\":[{\"n\":\"temperature\",\"v\":3}],\"bt\":9}",
           "\"temperature\":1{}}}{\"v\":2}",
           "{{{{\"temperature\":3{{{{}}}}}}}}"})
    stream += std::string(record) + "\n";
  const auto temperature = gram(1, "temperature");
  const std::vector<core::expr_ptr> queries{
      core::make_group(core::group_kind::scope, {temperature, range("0.7", "35.1")}),
      core::make_group(core::group_kind::scope, {range("0.7", "35.1"), temperature}),
      core::make_group(core::group_kind::scope,
                       {dfa_text("temperature"), range("1", "3"), gram(1, "v")}),
      core::conj({core::make_group(core::group_kind::scope,
                                   {temperature, range("0.7", "35.1")}),
                  core::leaf(gram(1, "x"))}),
  };
  for (const int bits : {2, 5}) {
    core::filter_options options;
    options.depth_bits = bits;
    const std::string label = "depth_bits=" + std::to_string(bits);
    expect_mixed(queries, stream, label, options);
    expect_fleet_matches_push(queries, stream, label, options);
    expect_accepts_match(queries, stream, label, options);
  }
}

TEST(ChunkedEquivalence, PairSegmentStraddlesAWord) {
  // A pair segment whose member pulses fall on both sides of a 64-bit word
  // edge, at every alignment: the segment's hit reaches its bound through
  // the word-to-word carry.
  std::string stream;
  for (std::size_t shift = 0; shift < 70; ++shift) {
    const std::string pad(shift, 'a');
    const char* value = shift % 3 == 0 ? "9" : "3";
    stream += "{\"p\":\"" + pad + "\",\"key\":" + std::string(40, ' ') +
              value + ",\"q\":1}\n";
    stream += pad + ",key" + std::string(shift % 11 + 60, ' ') + value + "\n";
  }
  const std::vector<core::expr_ptr> queries{
      core::make_group(core::group_kind::pair, {gram(1, "key"), range("0", "5")}),
      core::make_group(core::group_kind::pair,
                       {range("0", "5"), gram(2, "key"), gram(1, "k")}),
      core::conj({core::make_group(core::group_kind::pair,
                                   {dfa_text("key"), range("2", "4")}),
                  core::leaf(gram(1, "q"))}),
  };
  expect_mixed(queries, stream, "straddle", {});
  expect_fleet_matches_push(queries, stream, "straddle", {});
  expect_accepts_match(queries, stream, "straddle", {});
}

TEST(ChunkedEquivalence, ScopeGroupSharedAcrossTriePaths) {
  // One scope group read by four queries whose conjunct paths differ: as
  // the second conjunct under another group, alone, inside a disjunction
  // and after one. A group's record bits are built once per window and
  // read from every path.
  const auto shared = [] {
    return core::make_group(core::group_kind::scope,
                            {gram(1, "temperature"), range("0.7", "35.1")});
  };
  const auto other = core::make_group(core::group_kind::scope,
                                      {gram(1, "humidity"), range("20.3", "69.1")});
  const std::vector<core::expr_ptr> queries{
      core::conj({other, shared()}),
      shared(),
      core::disj({shared(), core::leaf(gram(2, "zz"))}),
      core::conj({core::disj({core::leaf(gram(1, "light")), core::leaf(gram(1, "dust"))}),
                  shared()}),
  };
  std::string stream = data::smartcity_generator(11).stream(150);
  for (const char* record :
       {"{\"e\":[{\"n\":\"temperature\",\"v\":3},{\"n\":\"light\",\"v\":1}]}",
        "{\"e\":[{\"n\":\"temperature\",\"x\":{},\"v\":3}],\"zz\":1}",
        "{\"e\":[{\"n\":\"temperature\"},{\"v\":3},{\"n\":\"dust\"}]}"})
    stream += std::string(record) + "\n";
  expect_mixed(queries, stream, "shared", {});
  expect_fleet_matches_push(queries, stream, "shared", {}, {1, 64, 4096});
  expect_accepts_match(queries, stream, "shared", {});
}

TEST(ChunkedEquivalence, RecordsAtWindowEdges) {
  // Records longer than the engine's 64 KiB window, and records straddling
  // its edges in every way a feed can place them: whole, byte by byte, and
  // in chunks of 63 and 64 KiB - 1 / + 0 / + 1 bytes.
  const std::string city = data::smartcity_generator(7).stream(260);
  const std::string taxi = data::taxi_generator(7).stream(40);
  const std::size_t cut = city.find('\n', city.size() / 2) + 1;
  std::string stream = "{\"pad\":\"" + std::string(70000, 'p') + "\"," +
                       city.substr(1, city.find('\n') - 1) + "\n";
  stream += city.substr(0, cut);
  std::string longest = "{\"e\":[";
  while (longest.size() < 140000)
    longest += "{\"n\":\"light\",\"v\":20},{\"n\":\"dust\",\"v\":1000},";
  longest += "{\"n\":\"temperature\",\"v\":20}]}\n";
  stream += longest + taxi + city.substr(cut);
  stream += "{\"pad\":\"" + std::string(66000, 'q') + "\"," +
            city.substr(1, city.find('\n') - 1);  // unterminated
  std::vector<core::expr_ptr> queries{
      query::compile_default(query::riotbench::qs0()),
      query::compile_default(query::riotbench::qt()),
      core::leaf(gram(1, "temperature")),
  };
  const std::vector<std::size_t> widths{1, 63, 65535, 65536, 65537};
  ASSERT_GT(stream.size(), std::size_t{5} << 16);
  expect_mixed(queries, stream, "window edges", {});
  expect_fleet_matches_push(queries, stream, "window edges", {}, widths);
}

}  // namespace
}  // namespace jrf
