// The multi-tenant query_set (PR 8 tentpole): registry semantics (stable
// monotone ids, dense order, revision bumps), spec_key interning (K
// duplicate queries share ONE engine pool and fan out through
// engine_subscribers), and the acceptance gate - every member's decision
// column byte-identical to running that query alone, across the riotbench
// queries, all three datasets, and every SIMD tier this host executes
// (the forced-scalar CI leg runs the same sweep with one available level).
//
// PR 10 adds the conjunct-prefix plan trie: the sweeps below hold trie
// evaluation byte-identical to the flat per-query plan (the multi-query
// scalar engine - N independent raw_filters - is the flat reference) on
// shared-prefix pools, disjoint pools, 70+-query multi-word bitmaps, and
// records where zero engines fire (the short-circuit path).
#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cstdint>
#include <string>
#include <vector>

#include "core/filter_engine.hpp"
#include "core/query_set.hpp"
#include "core/raw_filter.hpp"
#include "core/simd.hpp"
#include "data/smartcity.hpp"
#include "data/stream.hpp"
#include "data/taxi.hpp"
#include "data/twitter.hpp"
#include "layout_oracle.hpp"
#include "numrange/range_spec.hpp"
#include "query/compile.hpp"
#include "query/riotbench.hpp"
#include "util/error.hpp"

namespace jrf {
namespace {

std::vector<std::string> evaluation_streams(int records) {
  return {
      data::smartcity_generator().stream(records),
      data::taxi_generator().stream(records),
      data::twitter_generator().stream(records),
  };
}

std::vector<core::expr_ptr> riotbench_exprs() {
  return {query::compile_default(query::riotbench::qs0()),
          query::compile_default(query::riotbench::qs1()),
          query::compile_default(query::riotbench::qt()),
          query::compile_default(query::riotbench::q0())};
}

TEST(QuerySet, StableMonotoneIdsAndDenseOrder) {
  core::query_set set;
  EXPECT_TRUE(set.empty());
  EXPECT_EQ(set.revision(), 0u);

  const auto exprs = riotbench_exprs();
  const core::query_id a = set.add(exprs[0]);
  const core::query_id b = set.add(exprs[1]);
  const core::query_id c = set.add(exprs[2]);
  EXPECT_LT(a, b);
  EXPECT_LT(b, c);
  EXPECT_EQ(set.size(), 3u);
  EXPECT_EQ(set.revision(), 3u);
  EXPECT_EQ(set.ids(), (std::vector<core::query_id>{a, b, c}));
  EXPECT_EQ(set.ordinal(b), 1u);
  EXPECT_EQ(set.query(b), exprs[1]);

  // Removal shifts later queries down one dense slot; the id never comes
  // back even after the slot frees up.
  EXPECT_TRUE(set.remove(b));
  EXPECT_FALSE(set.remove(b));
  EXPECT_FALSE(set.contains(b));
  EXPECT_EQ(set.ids(), (std::vector<core::query_id>{a, c}));
  EXPECT_EQ(set.ordinal(c), 1u);
  const core::query_id d = set.add(exprs[3]);
  EXPECT_GT(d, c);
  EXPECT_EQ(set.revision(), 5u);

  EXPECT_THROW((void)set.ordinal(b), jrf::error);
  EXPECT_THROW((void)set.query(b), jrf::error);
  EXPECT_THROW(set.add(nullptr), jrf::error);

  // Ids ascend in dense order by construction - contains / ordinal /
  // remove binary-search on it.
  EXPECT_TRUE(std::is_sorted(set.ids().begin(), set.ids().end()));
  EXPECT_TRUE(std::adjacent_find(set.ids().begin(), set.ids().end()) ==
              set.ids().end());
  EXPECT_EQ(set.ordinal(d), 2u);
  EXPECT_FALSE(set.contains(0));
  EXPECT_FALSE(set.contains(d + 1));
}

TEST(QuerySet, EmptySetCannotCompile) {
  core::query_set set;
  EXPECT_THROW((void)set.compile(), jrf::error);
  EXPECT_THROW((void)set.make_engine(core::engine_kind::chunked), jrf::error);
}

TEST(QuerySet, DuplicateQueriesInternToOneEnginePool) {
  // K copies of the same query must compile to exactly the engine pool of
  // ONE copy, with every copy subscribed to every engine it references.
  const core::expr_ptr expr = query::compile_default(query::riotbench::qs0());
  const core::compiled_layout one = core::compiled_layout::compile(*expr);

  constexpr std::size_t kCopies = 7;
  core::query_set set;
  for (std::size_t i = 0; i < kCopies; ++i) set.add(expr);

  const core::compiled_layout shared = set.compile();
  EXPECT_EQ(shared.query_count(), kCopies);
  EXPECT_EQ(shared.engines.size(), one.engines.size());
  EXPECT_EQ(shared.engine_keys.size(), one.engines.size());
  EXPECT_EQ(shared.groups.size(), one.groups.size());
  for (const auto& subscribers : shared.engine_subscribers) {
    ASSERT_EQ(subscribers.size(), kCopies);
    for (std::size_t i = 0; i < kCopies; ++i) EXPECT_EQ(subscribers[i], i);
  }

  // And the K decision columns are identical to each other and to the
  // standalone run.
  const std::string stream = data::smartcity_generator().stream(200);
  core::raw_filter reference(expr);
  const std::vector<bool> expected = reference.filter_stream(stream);
  auto engine = set.make_engine(core::engine_kind::chunked);
  engine->filter_stream(stream);
  for (std::size_t q = 0; q < kCopies; ++q)
    EXPECT_EQ(engine->decision_column(q), expected) << "copy " << q;
}

TEST(QuerySet, DisjointQueriesKeepDisjointSubscriptions) {
  core::query_set set;
  set.add(core::string_leaf("temperature", 2));
  set.add(core::string_leaf("humidity", 2));
  const core::compiled_layout layout = set.compile();
  ASSERT_EQ(layout.engines.size(), 2u);
  EXPECT_EQ(layout.engine_subscribers[0],
            (std::vector<std::size_t>{0}));
  EXPECT_EQ(layout.engine_subscribers[1],
            (std::vector<std::size_t>{1}));

  // A third query referencing BOTH specs adds no engine - full interning.
  set.add(core::conj({core::string_leaf("temperature", 2),
                      core::string_leaf("humidity", 2)}));
  const core::compiled_layout merged = set.compile();
  EXPECT_EQ(merged.engines.size(), 2u);
  EXPECT_EQ(merged.engine_subscribers[0],
            (std::vector<std::size_t>{0, 2}));
  EXPECT_EQ(merged.engine_subscribers[1],
            (std::vector<std::size_t>{1, 2}));
}

TEST(QuerySet, SingleQueryByteIdenticalToStandaloneEverywhere) {
  // The N=1 acceptance gate: a one-query set IS the pre-multi-tenant
  // engine, byte for byte, across riotbench x datasets x SIMD tiers and
  // both engine kinds.
  const auto streams = evaluation_streams(120);
  for (const core::expr_ptr& expr : riotbench_exprs()) {
    core::raw_filter reference(expr);
    for (const std::string& stream : streams) {
      const std::vector<bool> expected = reference.filter_stream(stream);
      for (const core::simd::simd_level level :
           core::simd::available_levels()) {
        core::query_set set;
        set.add(expr);
        core::filter_options options;
        options.simd = level;
        for (const core::engine_kind kind :
             {core::engine_kind::scalar, core::engine_kind::chunked}) {
          auto engine = set.make_engine(kind, options);
          EXPECT_EQ(engine->query_count(), 1u);
          EXPECT_EQ(engine->filter_stream(stream), expected)
              << core::to_string(kind)
              << " simd=" << core::simd::to_string(level);
          // Single-query engines never pay for bitmap words.
          EXPECT_TRUE(engine->decision_words().empty());
        }
      }
    }
  }
}

TEST(QuerySet, MemberColumnsMatchStandaloneRuns) {
  // The full fleet gate: every member's decision column equals running
  // that query alone, for every dataset and SIMD tier, on the chunked AND
  // the scalar multi-query engine.
  const auto exprs = riotbench_exprs();
  core::query_set set;
  for (const core::expr_ptr& expr : exprs) set.add(expr);

  for (const std::string& stream : evaluation_streams(120)) {
    std::vector<std::vector<bool>> expected;
    for (const core::expr_ptr& expr : exprs)
      expected.push_back(core::raw_filter(expr).filter_stream(stream));

    for (const core::simd::simd_level level :
         core::simd::available_levels()) {
      core::filter_options options;
      options.simd = level;
      for (const core::engine_kind kind :
           {core::engine_kind::scalar, core::engine_kind::chunked}) {
        auto engine = set.make_engine(kind, options);
        const std::vector<bool> any = engine->filter_stream(stream);
        ASSERT_EQ(any.size(), expected[0].size());
        for (std::size_t q = 0; q < exprs.size(); ++q)
          EXPECT_EQ(engine->decision_column(q), expected[q])
              << core::to_string(kind) << " query " << q
              << " simd=" << core::simd::to_string(level);
        // The any-match verdict is the OR of the columns.
        for (std::size_t r = 0; r < any.size(); ++r) {
          bool expect_any = false;
          for (const auto& column : expected) expect_any |= column[r];
          ASSERT_EQ(any[r], expect_any) << "record " << r;
        }
      }
    }
  }
}

TEST(QuerySet, ChunkBoundariesDoNotDriftMultiQueryColumns) {
  // Records straddling scan_chunk boundaries in every alignment around the
  // 64-byte bitmap block must not move a single bit of any column.
  const auto exprs = riotbench_exprs();
  core::query_set set;
  for (const core::expr_ptr& expr : exprs) set.add(expr);
  const std::string stream = data::smartcity_generator().stream(120);

  auto whole = set.make_engine(core::engine_kind::chunked);
  whole->scan_chunk(std::string_view(stream));
  whole->finish();

  for (const std::size_t width : {std::size_t{1}, std::size_t{63},
                                  std::size_t{64}, std::size_t{65},
                                  std::size_t{257}}) {
    auto engine = set.make_engine(core::engine_kind::chunked);
    for (std::size_t off = 0; off < stream.size(); off += width)
      engine->scan_chunk(std::string_view(stream).substr(off, width));
    engine->finish();
    ASSERT_EQ(engine->decisions(), whole->decisions())
        << "width " << width;
    ASSERT_EQ(engine->decision_words(), whole->decision_words())
        << "width " << width;
  }
}

TEST(QuerySet, WideSetsCrossTheWordBoundary) {
  // 70 queries > 64 bits: two bitmap words per record, columns above bit
  // 63 land in word 1. Pool-based queries keep the engine count small.
  core::query_set set;
  const std::vector<std::string> needles{"temperature", "humidity", "light",
                                         "dust", "battery"};
  std::vector<core::expr_ptr> members;
  for (const std::string& needle : needles)
    for (int block = 1; block <= 2; ++block)
      members.push_back(core::string_leaf(needle, block));
  for (std::size_t i = 0; i < 70; ++i)
    set.add(core::conj({members[i % members.size()],
                        members[(i * 3 + 1) % members.size()]}));

  auto engine = set.make_engine(core::engine_kind::chunked);
  EXPECT_EQ(engine->words_per_record(), 2u);
  const std::string stream = data::smartcity_generator().stream(150);
  const std::vector<bool> any = engine->filter_stream(stream);
  ASSERT_EQ(engine->decision_words().size(), 2u * any.size());

  for (const std::size_t q : {std::size_t{0}, std::size_t{63},
                              std::size_t{64}, std::size_t{69}}) {
    core::raw_filter alone(set.queries()[q]);
    EXPECT_EQ(engine->decision_column(q), alone.filter_stream(stream))
        << "query " << q;
  }
}

TEST(QuerySet, TrieSharesConjunctPrefixes) {
  // Three queries over leaves A/B/C: {A&B, A&C, A}. The shared conjunct A
  // must compile to ONE trie root with the two discriminating conjuncts as
  // children - A evaluates once per record and fans out to three verdicts.
  const core::expr_ptr a = core::string_leaf("temperature", 2);
  const core::expr_ptr b = core::string_leaf("humidity", 2);
  const core::expr_ptr c = core::string_leaf("light", 2);
  core::query_set set;
  set.add(core::conj({a, b}));
  set.add(core::conj({a, c}));
  set.add(a);
  const core::compiled_layout layout = set.compile();
  ASSERT_EQ(layout.trie_roots.size(), 1u);
  ASSERT_EQ(layout.trie.size(), 3u);
  const core::compiled_layout::trie_node& root =
      layout.trie[layout.trie_roots[0]];
  EXPECT_EQ(root.children.size(), 2u);
  EXPECT_EQ(root.terminals, (std::vector<std::uint32_t>{2}));
  // A pure conjunct (leaves/ANDs only): the required-engine mask IS its
  // truth, so the walk never calls eval() for it.
  EXPECT_TRUE(root.pure);
  ASSERT_EQ(root.required.size(), 1u);
  EXPECT_NE(root.required[0], 0u);

  // A single-query compile carries no trie - N=1 stays on the untouched
  // single-query path by construction.
  core::query_set one;
  one.add(a);
  EXPECT_TRUE(one.compile().trie.empty());
}

TEST(QuerySet, TrieMatchesFlatPlanOnRiotbenchSweep) {
  // Trie-vs-flat equivalence over a shared-prefix fleet built from the
  // riotbench queries: every pairwise conjunction plus the bare queries.
  // The flat references are the multi-query SCALAR engine (N independent
  // raw_filters, no trie, no interning) and each query run standalone -
  // across all three datasets and every SIMD tier this host executes.
  const auto exprs = riotbench_exprs();
  core::query_set set;
  for (const core::expr_ptr& e : exprs) set.add(e);
  for (std::size_t i = 0; i < exprs.size(); ++i)
    for (std::size_t j = i + 1; j < exprs.size(); ++j)
      set.add(core::conj({exprs[i], exprs[j]}));

  for (const std::string& stream : evaluation_streams(100)) {
    std::vector<std::vector<bool>> expected;
    for (const core::expr_ptr& q : set.queries())
      expected.push_back(core::raw_filter(q).filter_stream(stream));

    for (const core::simd::simd_level level :
         core::simd::available_levels()) {
      core::filter_options options;
      options.simd = level;
      auto flat = set.make_engine(core::engine_kind::scalar, options);
      auto trie = set.make_engine(core::engine_kind::chunked, options);
      const std::vector<bool> flat_any = flat->filter_stream(stream);
      const std::vector<bool> trie_any = trie->filter_stream(stream);
      ASSERT_EQ(trie_any, flat_any)
          << "simd=" << core::simd::to_string(level);
      ASSERT_EQ(trie->decision_words(), flat->decision_words())
          << "simd=" << core::simd::to_string(level);
      for (std::size_t q = 0; q < set.size(); ++q)
        ASSERT_EQ(trie->decision_column(q), expected[q])
            << "query " << q << " simd=" << core::simd::to_string(level);
    }
  }
}

TEST(QuerySet, TrieMatchesFlatPlanOnWideSharedPrefixPool) {
  // 72 queries (two bitmap words) drawn from a deliberately overlapping
  // pool: every query shares its first conjunct with many others, so deep
  // trie sharing is exercised together with word-1 verdict fan-out.
  const std::vector<std::string> needles{"temperature", "humidity", "light",
                                         "dust", "battery", "sound"};
  std::vector<core::expr_ptr> leaves;
  for (const std::string& needle : needles)
    for (int block = 1; block <= 2; ++block)
      leaves.push_back(core::string_leaf(needle, block));
  core::query_set set;
  for (std::size_t i = 0; i < 72; ++i)
    set.add(core::conj({leaves[i % 4],  // dense prefix overlap
                        leaves[(i * 5 + 1) % leaves.size()],
                        leaves[(i * 7 + 2) % leaves.size()]}));
  const core::compiled_layout layout = set.compile();
  // Sharing must actually happen: far fewer trie roots than queries (the
  // canonical conjunct sort decides WHICH conjunct leads a path, so the
  // root count tracks the distinct lead conjuncts, not the pool stride).
  EXPECT_LE(layout.trie_roots.size(), 8u);
  EXPECT_LT(layout.trie.size(), 3 * set.size());

  const std::string stream = data::smartcity_generator().stream(150);
  auto flat = set.make_engine(core::engine_kind::scalar);
  auto trie = set.make_engine(core::engine_kind::chunked);
  EXPECT_EQ(trie->words_per_record(), 2u);
  const std::vector<bool> flat_any = flat->filter_stream(stream);
  ASSERT_EQ(trie->filter_stream(stream), flat_any);
  ASSERT_EQ(trie->decision_words(), flat->decision_words());
  for (const std::size_t q : {std::size_t{0}, std::size_t{63},
                              std::size_t{64}, std::size_t{71}}) {
    core::raw_filter alone(set.queries()[q]);
    EXPECT_EQ(trie->decision_column(q), alone.filter_stream(stream))
        << "query " << q;
  }
}

TEST(QuerySet, TrieMatchesFlatPlanOnDisjointPool) {
  // The anti-sharing case: queries with pairwise-disjoint engine sets
  // degenerate to one trie root per query - the walk must still match the
  // flat plan bit for bit.
  const std::vector<std::string> needles{"temperature", "humidity", "light",
                                         "dust", "battery"};
  core::query_set set;
  for (const std::string& needle : needles)
    set.add(core::string_leaf(needle, 2));
  const core::compiled_layout layout = set.compile();
  EXPECT_EQ(layout.trie_roots.size(), set.size());

  for (const std::string& stream : evaluation_streams(100)) {
    auto flat = set.make_engine(core::engine_kind::scalar);
    auto trie = set.make_engine(core::engine_kind::chunked);
    ASSERT_EQ(trie->filter_stream(stream), flat->filter_stream(stream));
    ASSERT_EQ(trie->decision_words(), flat->decision_words());
  }
}

TEST(QuerySet, ShortCircuitWhenZeroEnginesFire) {
  // Records containing none of the fleet's needles light no bit of the
  // engine-fire bitmap, so the trie walk prunes every query at its root.
  // The records must still be decided (all-reject), interleaved cleanly
  // with accepting records, and byte-identical to the flat plan.
  core::query_set set;
  const core::expr_ptr t = core::string_leaf("temperature", 2);
  const core::expr_ptr h = core::string_leaf("humidity", 2);
  set.add(core::conj({t, h}));
  set.add(t);
  set.add(h);

  const std::string stream =
      "{\"x\":1}\n"                                  // zero engines fire
      "{\"temperature\":3,\"humidity\":4}\n"         // all three queries
      "{\"a\":{\"b\":[]}}\n"                         // zero engines fire
      "{\"humidity\":9}\n"                           // query 2 only
      "{\"y\":\"temperature says nothing\"}\n";      // substring still fires

  auto flat = set.make_engine(core::engine_kind::scalar);
  auto trie = set.make_engine(core::engine_kind::chunked);
  const std::vector<bool> flat_any = flat->filter_stream(stream);
  const std::vector<bool> trie_any = trie->filter_stream(stream);
  ASSERT_EQ(trie_any, flat_any);
  ASSERT_EQ(trie->decision_words(), flat->decision_words());
  EXPECT_FALSE(trie_any[0]);
  EXPECT_TRUE(trie_any[1]);
  EXPECT_FALSE(trie_any[2]);
  EXPECT_TRUE(trie_any[3]);

  // The standalone-probe path takes the same short circuit.
  std::uint64_t words = ~std::uint64_t{0};
  EXPECT_FALSE(trie->accepts_bits("{\"x\":1}", &words));
  EXPECT_EQ(words, 0u);
  EXPECT_TRUE(trie->accepts_bits("{\"temperature\":0,\"humidity\":0}",
                                 &words));
  EXPECT_EQ(words, 7u);
}

TEST(QuerySet, TrieMatchesFlatPlanPastSixtyFourValueEngines) {
  // The chunked engine gives each run-capable value engine one bit of a
  // 64-bit run verdict mask, counted across the whole resident fleet after
  // spec dedup. A fleet with more distinct value primitives than that
  // sends the rest through the engines' own bulk scans: fires_in for bare
  // leaves, scan_fires and fire_positions for group members. Those must
  // decide exactly like the run path, the flat plan and standalone runs.
  core::query_set set;
  for (int i = 0; i < 66; ++i)
    set.add(core::value_leaf(numrange::range_spec::real_range(
        std::to_string(3 * i), std::to_string(3 * i + 10))));
  const auto value = [](const char* lo, const char* hi) {
    return core::primitive_spec{
        core::value_spec{numrange::range_spec::real_range(lo, hi), {}}};
  };
  set.add(core::make_group(core::group_kind::pair,
                           {value("20", "22"), value("21", "25")}));
  set.add(core::make_group(
      core::group_kind::scope,
      {core::string_spec{core::string_technique::substring, 2, "temperature"},
       value("19", "21")}));
  const core::compiled_layout layout = set.compile();
  std::size_t run_capable = 0;
  for (const auto& engine : layout.engines) run_capable += engine->run_capable();
  ASSERT_GT(run_capable, 64u);

  for (const std::string& stream : evaluation_streams(60)) {
    std::vector<std::vector<bool>> expected;
    for (const core::expr_ptr& q : set.queries())
      expected.push_back(core::raw_filter(q).filter_stream(stream));

    for (const core::simd::simd_level level :
         core::simd::available_levels()) {
      core::filter_options options;
      options.simd = level;
      auto flat = set.make_engine(core::engine_kind::scalar, options);
      auto trie = set.make_engine(core::engine_kind::chunked, options);
      ASSERT_EQ(trie->filter_stream(stream), flat->filter_stream(stream))
          << "simd=" << core::simd::to_string(level);
      ASSERT_EQ(trie->decision_words(), flat->decision_words())
          << "simd=" << core::simd::to_string(level);
      for (std::size_t q = 0; q < set.size(); ++q)
        ASSERT_EQ(trie->decision_column(q), expected[q])
            << "query " << q << " simd=" << core::simd::to_string(level);
    }
  }
}

TEST(QuerySet, PairGroupsOfValueMembersMatchStandaloneRuns) {
  // Pair groups whose members are all run-capable value primitives take
  // the segment walk over the shared token runs alone (no anchor scan).
  // Overlapping ranges fire on the same numeral; disjoint ones never share
  // a pair.
  const auto value = [](const char* lo, const char* hi) {
    return core::primitive_spec{
        core::value_spec{numrange::range_spec::real_range(lo, hi), {}}};
  };
  const std::vector<core::expr_ptr> groups{
      core::make_group(core::group_kind::pair,
                       {value("20", "22"), value("20.5", "25")}),
      core::make_group(core::group_kind::pair,
                       {value("30", "40"), value("35", "70"), value("0", "99")}),
      core::make_group(core::group_kind::pair,
                       {value("0", "50"), value("1000", "1100")}),
      // A disjunction is a non-pure trie conjunct: its leaves and groups
      // evaluate through the plan walk.
      core::disj({core::make_group(core::group_kind::pair,
                                   {value("20", "22"), value("20.5", "25")}),
                  core::leaf(value("1038", "1038"))}),
  };
  const std::string stream = data::smartcity_generator().stream(150);
  std::vector<std::vector<bool>> expected;
  for (const core::expr_ptr& g : groups)
    expected.push_back(core::raw_filter(g).filter_stream(stream));
  // The overlapping groups accept some records and reject others.
  for (std::size_t q = 0; q < 2; ++q) {
    EXPECT_NE(std::count(expected[q].begin(), expected[q].end(), true), 0)
        << "group " << q;
    EXPECT_NE(std::count(expected[q].begin(), expected[q].end(), false), 0)
        << "group " << q;
  }

  for (const core::simd::simd_level level : core::simd::available_levels()) {
    core::filter_options options;
    options.simd = level;
    for (std::size_t q = 0; q < groups.size(); ++q) {
      core::query_set one;
      one.add(groups[q]);
      EXPECT_EQ(one.make_engine(core::engine_kind::chunked, options)
                    ->filter_stream(stream),
                expected[q])
          << "group " << q << " simd=" << core::simd::to_string(level);
    }
    core::query_set fleet;
    for (const core::expr_ptr& g : groups) fleet.add(g);
    auto flat = fleet.make_engine(core::engine_kind::scalar, options);
    auto trie = fleet.make_engine(core::engine_kind::chunked, options);
    ASSERT_EQ(trie->filter_stream(stream), flat->filter_stream(stream));
    ASSERT_EQ(trie->decision_words(), flat->decision_words());
    for (std::size_t q = 0; q < groups.size(); ++q)
      EXPECT_EQ(trie->decision_column(q), expected[q])
          << "group " << q << " simd=" << core::simd::to_string(level);
  }
}

TEST(QuerySet, IncrementalLayoutMatchesFromScratchUnderChurn) {
  // The incremental layout's oracle (tests/layout_oracle.hpp), one short
  // fixed seed: every step decides like a from-scratch compile_set and the
  // scalar flat plan, at every tier, with one lane living through every
  // plan swap. The long sweep over many seeds runs under `slow`
  // (property_test).
  layout_oracle::churn_outcome out;
  layout_oracle::run_churn(0xC0FFEE, 80, 8, 12, out);
  ASSERT_FALSE(HasFatalFailure());
  EXPECT_EQ(out.steps, 80u);
  EXPECT_GT(out.single_to_multi, 0u);
  EXPECT_GT(out.multi_to_single, 0u);
  EXPECT_GT(out.compactions, 0u);
}

TEST(QuerySet, RunVerdictBitsFollowTheLiveEngines) {
  // A live run-capable value engine answers from one bit of the 64-bit
  // token-run verdict mask. A tombstone gives its bit back, so churn
  // through fresh value leaves never pushes the live engines off that
  // path, and a freed bit goes to a live engine that had to do without.
  const auto leaf = [](int i) {
    return core::value_leaf(numrange::range_spec::real_range(
        std::to_string(3 * i), std::to_string(3 * i + 10)));
  };
  const auto expect_like_scratch = [](core::query_set& set,
                                      const std::string& at) {
    const std::string stream = data::smartcity_generator().stream(60);
    auto live = set.make_engine(core::engine_kind::chunked);
    auto scratch = core::make_filter_engine(core::engine_kind::chunked,
                                            set.queries());
    EXPECT_EQ(live->filter_stream(stream), scratch->filter_stream(stream))
        << at;
    EXPECT_EQ(live->decision_words(), scratch->decision_words()) << at;
  };
  core::query_set set;
  const core::query_id first = set.add(leaf(0));
  (void)set.plan();  // from here on mutations edit the live plan
  for (int i = 1; i <= 60; ++i) ASSERT_TRUE(set.remove(set.add(leaf(i))));
  const core::query_id second = set.add(leaf(61));
  set.add(leaf(62));
  auto plan = set.plan();
  EXPECT_EQ(plan->engines.size(), 63u);  // 60 tombstones, no compaction
  EXPECT_EQ(plan->live.size(), 3u);
  EXPECT_EQ(std::popcount(plan->run_bits), 3);
  for (const std::uint32_t e : plan->live) EXPECT_TRUE(plan->run_capable[e]);
  expect_like_scratch(set, "after churn");

  // Down to one query: the single-query version keeps its engine's bit.
  ASSERT_TRUE(set.remove(first));
  ASSERT_TRUE(set.remove(second));
  plan = set.plan();
  ASSERT_EQ(plan->queries, 1u);
  EXPECT_EQ(std::popcount(plan->run_bits), 1);
  EXPECT_TRUE(plan->run_capable[plan->live.front()]);
  expect_like_scratch(set, "one query");

  // More live value engines than bits: the overflow does without until a
  // removal frees a bit.
  core::query_set wide;
  std::vector<core::query_id> ids;
  for (int i = 0; i < 66; ++i) ids.push_back(wide.add(leaf(i)));
  plan = wide.plan();
  EXPECT_EQ(std::popcount(plan->run_bits), 64);
  EXPECT_FALSE(plan->run_capable[65]);
  ASSERT_TRUE(wide.remove(ids[3]));
  ASSERT_TRUE(wide.remove(ids[7]));
  plan = wide.plan();
  EXPECT_EQ(std::popcount(plan->run_bits), 64);
  for (const std::uint32_t e : plan->live) EXPECT_TRUE(plan->run_capable[e]);
  expect_like_scratch(wide, "freed bits");
}

TEST(QuerySet, LivePlanFollowsAddAndRemove) {
  // query_set keeps its live plan current: a mutation after plan() costs
  // a delta, and the published version evaluates exactly like a fresh
  // engine over the same resident queries. A query that does not compile
  // leaves the set and its plan untouched.
  const auto exprs = riotbench_exprs();
  core::query_set set;
  const core::query_id a = set.add(exprs[0]);
  const std::shared_ptr<const core::plan_version> one = set.plan();
  EXPECT_EQ(set.plan(), one);  // no mutation, no new version
  EXPECT_EQ(one->queries, 1u);
  EXPECT_TRUE(one->trie.empty());
  set.add(exprs[1]);
  set.add(exprs[3]);
  EXPECT_THROW(set.add(core::string_leaf("", 1)), jrf::error);
  EXPECT_EQ(set.size(), 3u);
  ASSERT_TRUE(set.remove(a));
  const std::shared_ptr<const core::plan_version> two = set.plan();
  EXPECT_NE(two, one);
  EXPECT_EQ(two->queries, 2u);
  EXPECT_EQ(one->queries, 1u);  // the old version is immutable

  const std::string stream = data::smartcity_generator().stream(120);
  auto live = set.make_engine(core::engine_kind::chunked);
  auto scratch = core::make_filter_engine(core::engine_kind::chunked,
                                          set.queries());
  EXPECT_EQ(live->filter_stream(stream), scratch->filter_stream(stream));
  EXPECT_EQ(live->decision_words(), scratch->decision_words());

  // Misuse is diagnosed: an ordinal the layout does not hold, a null
  // version, and a plan swap on the scalar engine, whose byte pipelines
  // cannot change their query set in flight.
  core::compiled_layout empty;
  EXPECT_THROW(empty.erase(0), jrf::error);
  EXPECT_THROW((void)core::make_filter_engine(nullptr), jrf::error);
  EXPECT_THROW(set.make_engine(core::engine_kind::scalar)->swap_plan(two),
               jrf::error);
}

}  // namespace
}  // namespace jrf
