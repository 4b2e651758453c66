// End-to-end property suite over generated datasets: the invariants of
// DESIGN.md section 7, checked for every query and a sweep of raw-filter
// configurations. The central one is the paper's correctness contract:
// a raw filter may pass extra records but NEVER drops a true match. The
// incremental plan compiler's churn oracle runs its long sweep here too.
#include <gtest/gtest.h>

#include <string>
#include <tuple>

#include "core/raw_filter.hpp"
#include "data/smartcity.hpp"
#include "data/taxi.hpp"
#include "layout_oracle.hpp"
#include "query/compile.hpp"
#include "query/eval.hpp"
#include "query/riotbench.hpp"

namespace jrf::query {
namespace {

struct workload {
  std::string name;
  query q;
  std::string stream;
};

const std::vector<workload>& workloads() {
  static const std::vector<workload> w = [] {
    std::vector<workload> out;
    data::smartcity_generator smartcity(0xAB);
    const std::string sc = smartcity.stream(3000);
    data::taxi_generator taxi(0xCD);
    const std::string tx = taxi.stream(3000);
    out.push_back({"QS0", riotbench::qs0(), sc});
    out.push_back({"QS1", riotbench::qs1(), sc});
    out.push_back({"QT", riotbench::qt(), tx});
    return out;
  }();
  return w;
}

using config_case = std::tuple<std::string, attribute_mode, int>;

class NoFalseNegatives : public ::testing::TestWithParam<config_case> {};

TEST_P(NoFalseNegatives, RawFilterNeverDropsTrueMatch) {
  const auto [label, mode, block] = GetParam();
  for (const workload& w : workloads()) {
    const std::vector<attribute_choice> choices(
        w.q.predicates().size(),
        attribute_choice{mode, core::string_technique::substring, block});
    core::raw_filter rf(compile(w.q, choices));
    const auto decisions = rf.filter_stream(w.stream);
    const auto labels = label_stream(w.q, w.stream);
    ASSERT_EQ(decisions.size(), labels.size());
    std::size_t false_negatives = 0;
    for (std::size_t i = 0; i < labels.size(); ++i)
      if (labels[i] && !decisions[i]) ++false_negatives;
    EXPECT_EQ(false_negatives, 0u) << w.name << " " << label;
  }
}

INSTANTIATE_TEST_SUITE_P(
    Configs, NoFalseNegatives,
    ::testing::Values(
        config_case{"grouped_b1", attribute_mode::grouped, 1},
        config_case{"grouped_b2", attribute_mode::grouped, 2},
        config_case{"grouped_bN", attribute_mode::grouped, block_full},
        config_case{"flat_b1", attribute_mode::flat_and, 1},
        config_case{"flat_b2", attribute_mode::flat_and, 2},
        config_case{"string_only_b1", attribute_mode::string_only, 1},
        config_case{"value_only", attribute_mode::value_only, 1}),
    [](const auto& info) { return std::get<0>(info.param); });

TEST(FilterDominance, GroupedIsNeverLooserThanQueryAndTighterThanFlat) {
  // grouped accepts a subset of flat AND accepts a superset of exact.
  for (const workload& w : workloads()) {
    const std::size_t n = w.q.predicates().size();
    const std::vector<attribute_choice> grouped(
        n, {attribute_mode::grouped, core::string_technique::substring, 1});
    const std::vector<attribute_choice> flat(
        n, {attribute_mode::flat_and, core::string_technique::substring, 1});
    core::raw_filter grouped_rf(compile(w.q, grouped));
    core::raw_filter flat_rf(compile(w.q, flat));
    const auto grouped_d = grouped_rf.filter_stream(w.stream);
    const auto flat_d = flat_rf.filter_stream(w.stream);
    const auto labels = label_stream(w.q, w.stream);
    for (std::size_t i = 0; i < labels.size(); ++i) {
      if (labels[i]) {
        EXPECT_TRUE(grouped_d[i]) << w.name << " record " << i;
      }
      if (grouped_d[i]) {
        EXPECT_TRUE(flat_d[i]) << w.name << " record " << i;
      }
    }
  }
}

TEST(FilterDominance, SmallerBlockAcceptsSuperset) {
  // sB fires wherever s(B+1) fires: lowering B only loosens the filter.
  for (const workload& w : workloads()) {
    const std::size_t n = w.q.predicates().size();
    for (const int tighter : {2, 3}) {
      const std::vector<attribute_choice> loose(
          n, {attribute_mode::string_only, core::string_technique::substring,
              tighter - 1});
      const std::vector<attribute_choice> tight(
          n, {attribute_mode::string_only, core::string_technique::substring,
              tighter});
      core::raw_filter loose_rf(compile(w.q, loose));
      core::raw_filter tight_rf(compile(w.q, tight));
      const auto loose_d = loose_rf.filter_stream(w.stream);
      const auto tight_d = tight_rf.filter_stream(w.stream);
      for (std::size_t i = 0; i < tight_d.size(); ++i) {
        if (tight_d[i]) {
          EXPECT_TRUE(loose_d[i]) << w.name << " record " << i;
        }
      }
    }
  }
}

TEST(FilterDominance, OmittingPredicatesLoosensTheFilter) {
  for (const workload& w : workloads()) {
    const std::size_t n = w.q.predicates().size();
    std::vector<attribute_choice> all(
        n, {attribute_mode::grouped, core::string_technique::substring, 1});
    std::vector<attribute_choice> fewer = all;
    fewer[0].mode = attribute_mode::omit;
    fewer[2].mode = attribute_mode::omit;
    core::raw_filter all_rf(compile(w.q, all));
    core::raw_filter fewer_rf(compile(w.q, fewer));
    const auto all_d = all_rf.filter_stream(w.stream);
    const auto fewer_d = fewer_rf.filter_stream(w.stream);
    for (std::size_t i = 0; i < all_d.size(); ++i) {
      if (all_d[i]) {
        EXPECT_TRUE(fewer_d[i]) << w.name << " record " << i;
      }
    }
  }
}

TEST(IncrementalLayout, MatchesFromScratchAcrossSeeds) {
  // The long sweep of the incremental compiled_layout's churn oracle
  // (tests/layout_oracle.hpp; core_query_set_test runs one short seed):
  // larger resident sets, more steps, several seeds.
  for (std::uint64_t seed = 1; seed <= 5; ++seed) {
    layout_oracle::churn_outcome out;
    layout_oracle::run_churn(seed, 100, 20, 16, out);
    ASSERT_FALSE(HasFatalFailure()) << "seed " << seed;
    EXPECT_GT(out.multi_to_single, 0u) << "seed " << seed;
    EXPECT_GT(out.compactions, 0u) << "seed " << seed;
  }
}

}  // namespace
}  // namespace jrf::query
