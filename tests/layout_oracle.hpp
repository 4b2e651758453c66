// Churn oracle for the incremental compiled_layout, shared by the short
// fixed-seed pass in core_query_set_test and the long sweep in
// property_test.
//
// One seeded run applies random insert/erase steps to one incremental
// layout per SIMD tier this host executes. The resident set wanders between
// one query and `max_resident`, so the single-query plan (no trie) and the
// trie plan hand over to each other in both directions, removals come from
// the middle as often as from the ends, and fresh leaves - value ranges no
// other query uses - die with their query, so tombstones pile up past the
// compaction threshold. After every step:
//
//   * a chunked lane that lives across every step (swap_plan onto each new
//     version, numeral automaton reset) decides the stream, fed in pieces
//     cut at random offsets, byte-identically to a from-scratch
//     compile_set of the same resident queries;
//   * both equal the scalar engine's flat plan - one raw_filter per query,
//     no interning, no trie - and the lane does at every tier;
//   * every live engine subscribes exactly the ordinals the from-scratch
//     layout gives its spec, and only live engines hold token-run verdict
//     bits.
#pragma once

#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cstdint>
#include <memory>
#include <string>
#include <string_view>
#include <vector>

#include "core/filter_engine.hpp"
#include "core/simd.hpp"
#include "data/smartcity.hpp"
#include "data/taxi.hpp"
#include "query/compile.hpp"
#include "query/ir.hpp"
#include "query/riotbench.hpp"
#include "util/prng.hpp"

namespace jrf::layout_oracle {

struct churn_outcome {
  std::size_t steps = 0;
  std::size_t compactions = 0;   // erases that shrank the engine pool
  std::size_t single_to_multi = 0;
  std::size_t multi_to_single = 0;
  std::size_t peak_tombstones = 0;
};

/// A Table VIII-style query: the conjunction of one to three range
/// predicates over the SmartCity / taxi attributes. Bounds come from a
/// small shared pool (leaves other queries reuse) or, half the time, are
/// drawn fresh (a leaf no other query is likely to share). Now and
/// then a whole RiotBench query rides along.
inline core::expr_ptr random_query(util::prng& rng) {
  if (rng.below(8) == 0) {
    const query::query fixed[] = {query::riotbench::qs0(),
                                  query::riotbench::qs1(),
                                  query::riotbench::qt()};
    return query::compile_default(fixed[rng.below(3)]);
  }
  static const char* const senml[] = {"temperature", "humidity", "light",
                                      "dust", "airquality_raw"};
  static const char* const flat[] = {"trip_time_in_secs", "tip_amount",
                                     "fare_amount", "trip_distance"};
  static const char* const shared_lo[] = {"0", "12", "20.3", "35.1"};
  static const char* const shared_hi[] = {"49", "69.1", "3322.67", "5153"};
  const bool senml_model = rng.below(2) == 0;
  std::vector<query::query_node_ptr> nodes;
  const std::size_t count = 1 + rng.below(3);
  for (std::size_t i = 0; i < count; ++i) {
    const std::string attribute =
        senml_model ? senml[rng.below(5)] : flat[rng.below(4)];
    std::string lo, hi;
    if (rng.below(2) == 0) {
      const std::uint64_t low = rng.below(400);
      lo = std::to_string(low);
      hi = std::to_string(low + 1 + rng.below(400));
    } else {
      lo = shared_lo[rng.below(4)];
      hi = shared_hi[rng.below(4)];
    }
    nodes.push_back(query::pred_node(query::predicate::between(attribute, lo, hi)));
  }
  query::query q;
  q.name = "churn";
  q.model = senml_model ? query::data_model::senml : query::data_model::flat;
  q.root = nodes.size() == 1 ? nodes.front() : query::all_of(nodes);
  return query::compile_default(q);
}

inline std::string churn_stream(std::uint64_t seed, int records) {
  return data::smartcity_generator(seed).stream(records) +
         data::taxi_generator(seed + 1).stream(records);
}

/// Feed `stream` cut at two random offsets, then finish.
inline void feed_split(core::filter_engine& engine, std::string_view stream,
                       util::prng& rng) {
  std::size_t a = rng.below(stream.size() + 1);
  std::size_t b = rng.below(stream.size() + 1);
  if (a > b) std::swap(a, b);
  engine.scan_chunk(stream.substr(0, a));
  engine.scan_chunk(stream.substr(a, b - a));
  engine.scan_chunk(stream.substr(b));
  engine.finish();
}

/// Run `steps` random mutations from `seed` into `out`. Assertions are
/// gtest ASSERTs, so a failing step ends the run.
inline void run_churn(std::uint64_t seed, std::size_t steps,
                      std::size_t max_resident, int records,
                      churn_outcome& out) {
  util::prng rng(seed);
  const std::string stream = churn_stream(seed, records);
  struct tier {
    core::simd::simd_level level;
    core::compiled_layout layout;
    std::unique_ptr<core::filter_engine> lane;
    core::filter_options options;
  };
  std::vector<tier> tiers;
  for (const core::simd::simd_level level : core::simd::available_levels()) {
    tier t{level, core::compiled_layout(level), nullptr, {}};
    t.options.simd = level;
    tiers.push_back(std::move(t));
  }
  std::vector<core::expr_ptr> resident;
  std::size_t target = 1;
  for (std::size_t step = 0; step < steps; ++step) {
    // A target size random-walks the set: reaching it picks the next one,
    // a single query a third of the time, so the run keeps crossing
    // between one query and many.
    if (resident.size() == target)
      target = rng.below(3) == 0 ? 1 : 1 + rng.below(max_resident);
    const bool grow = resident.empty() ||
                      (resident.size() < target ? rng.below(4) != 0
                                                : rng.below(4) == 0);
    const std::size_t before = resident.size();
    if (grow) {
      const core::expr_ptr q = random_query(rng);
      for (tier& t : tiers)
        ASSERT_EQ(t.layout.insert(q), resident.size()) << "step " << step;
      resident.push_back(q);
    } else {
      const std::size_t victim = rng.below(resident.size());
      for (tier& t : tiers) {
        const std::size_t engines = t.layout.engines.size();
        t.layout.erase(victim);
        if (t.layout.engines.size() < engines && &t == &tiers.front())
          ++out.compactions;
      }
      resident.erase(resident.begin() + static_cast<std::ptrdiff_t>(victim));
    }
    if (before == 1 && resident.size() == 2) ++out.single_to_multi;
    if (before == 2 && resident.size() == 1) ++out.multi_to_single;
    out.peak_tombstones =
        std::max(out.peak_tombstones, tiers.front().layout.tombstones());
    ++out.steps;
    if (resident.empty()) continue;

    // The references: the flat plan and a from-scratch compile_set. Their
    // decisions do not depend on the tier; the incremental lanes are
    // checked against them at every tier.
    const std::string at = "step " + std::to_string(step) + " N=" +
                           std::to_string(resident.size());
    auto flat = core::make_filter_engine(core::engine_kind::scalar, resident);
    const core::compiled_layout scratch =
        core::compiled_layout::compile_set(resident);
    auto fresh = core::make_filter_engine(
        std::make_shared<const core::plan_version>(scratch));
    const std::vector<bool> flat_any = flat->filter_stream(stream);
    ASSERT_EQ(fresh->filter_stream(stream), flat_any) << at;
    ASSERT_EQ(fresh->decision_words(), flat->decision_words()) << at;
    for (tier& t : tiers) {
      const std::string where =
          at + " simd=" + core::simd::to_string(t.level);
      ASSERT_EQ(t.layout.query_count(), resident.size()) << where;
      ASSERT_EQ(t.layout.trie.empty(), resident.size() == 1) << where;
      // Bookkeeping: every live engine subscribes exactly the ordinals the
      // from-scratch layout gives its spec; the rest are tombstones.
      std::size_t live = 0;
      for (std::size_t e = 0; e < t.layout.engines.size(); ++e) {
        if (t.layout.engine_subscribers[e].empty()) continue;
        ++live;
        const auto key = std::find(scratch.engine_keys.begin(),
                                   scratch.engine_keys.end(),
                                   t.layout.engine_keys[e]);
        ASSERT_NE(key, scratch.engine_keys.end()) << where;
        ASSERT_EQ(t.layout.engine_subscribers[e],
                  scratch.engine_subscribers[static_cast<std::size_t>(
                      key - scratch.engine_keys.begin())])
            << where << " engine " << t.layout.engine_keys[e];
      }
      ASSERT_EQ(live, scratch.engines.size()) << where;
      auto plan = std::make_shared<const core::plan_version>(t.layout);
      // Run verdict bits: tombstones hold none, and every live run-capable
      // engine holds one while bits remain, as from scratch.
      std::size_t runners = 0;
      for (const auto& engine : scratch.engines)
        runners += engine->run_capable() ? 1 : 0;
      ASSERT_EQ(static_cast<std::size_t>(std::popcount(plan->run_bits)),
                std::min<std::size_t>(runners, 64))
          << where;
      if (t.lane)
        t.lane->swap_plan(plan);
      else
        t.lane = core::make_filter_engine(plan, t.options);
      feed_split(*t.lane, stream, rng);
      ASSERT_EQ(t.lane->decision_words(), flat->decision_words()) << where;
      ASSERT_EQ(t.lane->take_decisions(), flat_any) << where;
      t.lane->clear_decisions();
    }
  }
}

}  // namespace jrf::layout_oracle
