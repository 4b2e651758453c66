// The numeral automaton against its components: for the value leaves of
// QS0, QS1, QT and the Table VIII fleet bands, one product walk must give
// every token string exactly the mask of each component token DFA run on
// its own - over all short token strings, seeded random ones, the all-dead
// early exit, a restart after a plan swap and a flush past the state cap.
#include <gtest/gtest.h>

#include <bit>
#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "core/filter_engine.hpp"
#include "core/numeral_automaton.hpp"
#include "core/primitive.hpp"
#include "core/query_set.hpp"
#include "numrange/range_spec.hpp"
#include "query/compile.hpp"
#include "query/riotbench.hpp"
#include "util/prng.hpp"

namespace jrf {
namespace {

constexpr char kTokenBytes[] = "0123456789.+-eE";

/// One plan's value leaves: a verdict bit per token DFA, and the plan
/// version owning the engines behind them.
struct leaf_set {
  std::uint64_t bits = 0;
  core::numeral_automaton::components dfas{};
  std::shared_ptr<const core::plan_version> plan;
};

/// The run-capable value leaves of `exprs` compiled as one fleet, with
/// the bits the plan version hands out.
leaf_set leaves_of(const std::vector<core::expr_ptr>& exprs) {
  auto plan = std::make_shared<const core::plan_version>(
      core::compiled_layout::compile_set(exprs));
  return {plan->run_bits, plan->run_dfas, plan};
}

leaf_set leaves_of(const std::vector<query::query>& queries) {
  std::vector<core::expr_ptr> exprs;
  for (const query::query& q : queries)
    exprs.push_back(query::compile_default(q));
  return leaves_of(exprs);
}

/// Ranges without the exponent escape: their DFAs die on malformed or
/// out-of-range numerals while the escaping ones stay alive, so runs
/// reach states where only some components are dead.
leaf_set strict_leaves() {
  const auto leaf = [](numrange::range_spec range, bool escape) {
    numrange::build_options options;
    options.exponent_escape = escape;
    return core::leaf(core::value_spec{std::move(range), options});
  };
  using numrange::range_spec;
  return leaves_of(std::vector<core::expr_ptr>{
      leaf(range_spec::real_range("0.7", "35.1"), false),
      leaf(range_spec::integer_range("-5", "5"), false),
      leaf(range_spec::real_range("-1", "0.5"), true),
      leaf(range_spec::at_least("3", numrange::numeric_kind::real), false),
      leaf(range_spec::integer_range("100", "200"), true)});
}

/// Table VIII-grammar range predicates over SmartCity attributes: the tail
/// and context bands of a query fleet.
std::vector<query::query> fleet_bands() {
  static constexpr const char* bands[][3] = {
      {"temperature", "33.0", "36.0"},   {"temperature", "36.0", "45.0"},
      {"temperature", "-20.0", "5.0"},   {"temperature", "5.0", "9.0"},
      {"humidity", "70.0", "80.0"},      {"humidity", "80.0", "100.0"},
      {"humidity", "0.0", "15.0"},       {"humidity", "15.0", "20.0"},
      {"light", "1345", "3000"},         {"light", "3000", "8000"},
      {"light", "8000", "26282"},        {"light", "26283", "65000"},
      {"dust", "3000.00", "6000.00"},    {"dust", "6000.00", "50000.00"},
      {"airquality_raw", "45", "60"},    {"airquality_raw", "60", "200"},
      {"airquality_raw", "0", "11"},     {"airquality_raw", "12", "14"},
      {"temperature", "-50.0", "100.0"}, {"humidity", "0.0", "100.0"},
      {"light", "0", "65000"},           {"dust", "0.00", "100000.00"},
      {"airquality_raw", "0", "500"},    {"temperature", "10.0", "30.0"},
      {"humidity", "30.0", "60.0"},      {"light", "0", "1344"},
      {"dust", "100.00", "2000.00"},     {"airquality_raw", "15", "45"},
  };
  std::vector<query::query> out;
  for (const auto& b : bands) {
    query::query q;
    q.name = std::string(b[0]) + " band";
    q.root = query::pred_node(query::predicate::between(b[0], b[1], b[2]));
    out.push_back(std::move(q));
  }
  return out;
}

std::vector<std::pair<std::string, leaf_set>> all_leaf_sets() {
  return {
      {"QS0", leaves_of({query::riotbench::qs0()})},
      {"QS1", leaves_of({query::riotbench::qs1()})},
      {"QT", leaves_of({query::riotbench::qt()})},
      {"fleet", leaves_of(fleet_bands())},
      {"strict", strict_leaves()},
  };
}

/// Mask of every component DFA walked alone over `text`.
std::uint64_t reference_mask(const leaf_set& set, const std::string& text) {
  std::uint64_t mask = 0;
  for (std::uint64_t b = set.bits; b != 0; b &= b - 1)
    if (set.dfas[static_cast<std::size_t>(std::countr_zero(b))]->run(text))
      mask |= b & -b;
  return mask;
}

std::uint64_t walk(core::numeral_automaton& automaton, const std::string& text) {
  return automaton.walk(reinterpret_cast<const unsigned char*>(text.data()),
                        text.size());
}

/// Token strings mixing numeral shapes with arbitrary token bytes.
std::string random_token_string(util::prng& rng) {
  std::string out;
  const std::size_t len = rng.below(41);
  if (rng.chance(0.5)) {
    // Numeral-shaped: sign, digits, fraction, exponent - then maybe noise.
    if (rng.chance(0.3)) out += '-';
    for (std::size_t i = 0, n = 1 + rng.below(6); i < n; ++i)
      out += static_cast<char>('0' + rng.below(10));
    if (rng.chance(0.6)) {
      out += '.';
      for (std::size_t i = 0, n = rng.below(5); i < n; ++i)
        out += static_cast<char>('0' + rng.below(10));
    }
    if (rng.chance(0.2)) out += rng.chance(0.5) ? "e+3" : "E-12";
  }
  while (out.size() < len) out += kTokenBytes[rng.below(15)];
  if (out.size() > 40) out.resize(40);
  return out;
}

TEST(NumeralAutomaton, LeafSetsAreRealFleets) {
  for (const auto& [name, set] : all_leaf_sets()) {
    EXPECT_GE(std::popcount(set.bits), 2) << name;
    for (std::uint64_t b = set.bits; b != 0; b &= b - 1)
      ASSERT_NE(set.dfas[static_cast<std::size_t>(std::countr_zero(b))],
                nullptr)
          << name;
  }
  EXPECT_GE(std::popcount(leaves_of(fleet_bands()).bits), 28);
}

TEST(NumeralAutomaton, EveryTokenStringUpToLengthFour) {
  for (const auto& [name, set] : all_leaf_sets()) {
    core::numeral_automaton automaton;
    automaton.clear(set.bits, set.dfas);
    std::vector<std::string> level{""};
    for (int len = 0; len <= 4; ++len) {
      std::vector<std::string> longer;
      for (const std::string& text : level) {
        ASSERT_EQ(walk(automaton, text), reference_mask(set, text))
            << name << " \"" << text << "\"";
        if (len < 4)
          for (std::size_t c = 0; c < 15; ++c) longer.push_back(text + kTokenBytes[c]);
      }
      level.swap(longer);
    }
    EXPECT_LE(automaton.states(), core::numeral_automaton::kMaxStates);
    EXPECT_EQ(automaton.flushes(), 0u) << name;
  }
}

TEST(NumeralAutomaton, SeededRandomTokenStrings) {
  for (const auto& [name, set] : all_leaf_sets()) {
    core::numeral_automaton automaton;
    automaton.clear(set.bits, set.dfas);
    util::prng rng(0x5eed + set.bits);
    for (int i = 0; i < 20000; ++i) {
      const std::string text = random_token_string(rng);
      ASSERT_EQ(walk(automaton, text), reference_mask(set, text))
          << name << " \"" << text << "\"";
    }
  }
}

TEST(NumeralAutomaton, AllDeadRunStopsEarly) {
  // "--" is no numeral of any range: every component is dead after it, so
  // whatever follows builds no state.
  for (const auto& [name, set] : all_leaf_sets()) {
    core::numeral_automaton automaton;
    automaton.clear(set.bits, set.dfas);
    EXPECT_EQ(walk(automaton, "--"), 0u) << name;
    const std::size_t built = automaton.states();
    EXPECT_LE(built, 4u) << name;
    for (const char* tail : {"12345.678", "0e+5", "9999999999999999999.5",
                             "..--++eeEE0123456789"}) {
      EXPECT_EQ(walk(automaton, std::string("--") + tail), 0u) << name;
      EXPECT_EQ(reference_mask(set, std::string("--") + tail), 0u) << name;
    }
    EXPECT_EQ(automaton.states(), built) << name;
  }
}

TEST(NumeralAutomaton, ClearRestartsOverTheNextPlan) {
  // One lane's automaton across a plan swap: the second plan's walks
  // answer for its own components from a fresh table.
  const auto sets = all_leaf_sets();
  core::numeral_automaton automaton;
  util::prng rng(42);
  for (std::size_t round = 0; round < 2 * sets.size(); ++round) {
    const auto& [name, set] = sets[round % sets.size()];
    automaton.clear(set.bits, set.dfas);
    EXPECT_EQ(automaton.states(), 0u) << name;
    for (int i = 0; i < 2000; ++i) {
      const std::string text = random_token_string(rng);
      ASSERT_EQ(walk(automaton, text), reference_mask(set, text))
          << name << " round " << round << " \"" << text << "\"";
    }
    EXPECT_GT(automaton.states(), 2u) << name;
  }
}

TEST(NumeralAutomaton, FollowsPlanVersionsUnderChurn) {
  // The bits a query_set's versions hand out move as leaves come and go;
  // each version's automaton must read the DFA now holding each bit.
  const std::vector<query::query> bands = fleet_bands();
  core::query_set set;
  core::numeral_automaton automaton;
  util::prng rng(7);
  std::vector<core::query_id> ids;
  for (std::size_t step = 0; step < bands.size() + 10; ++step) {
    if (step < bands.size()) {
      ids.push_back(set.add(query::compile_default(bands[step])));
    } else {
      const std::size_t victim = rng.below(ids.size());
      set.remove(ids[victim]);
      ids.erase(ids.begin() + static_cast<std::ptrdiff_t>(victim));
    }
    const auto plan = set.plan();
    const leaf_set leaves{plan->run_bits, plan->run_dfas, plan};
    automaton.clear(plan->run_bits, plan->run_dfas);
    for (int i = 0; i < 300; ++i) {
      const std::string text = random_token_string(rng);
      ASSERT_EQ(walk(automaton, text), reference_mask(leaves, text))
          << "step " << step << " \"" << text << "\"";
    }
  }
}

TEST(NumeralAutomaton, FlushesPastTheStateCap) {
  const leaf_set fleet = leaves_of(fleet_bands());
  constexpr std::uint32_t cap = 16;
  core::numeral_automaton automaton(cap);
  automaton.clear(fleet.bits, fleet.dfas);
  util::prng rng(99);
  for (int i = 0; i < 5000; ++i) {
    const std::string text = random_token_string(rng);
    ASSERT_EQ(walk(automaton, text), reference_mask(fleet, text))
        << "\"" << text << "\"";
    ASSERT_LE(automaton.states(), cap);
  }
  EXPECT_GT(automaton.flushes(), 0u);
  // The smallest cap still walks correctly: every new state flushes.
  core::numeral_automaton tiny(0);
  tiny.clear(fleet.bits, fleet.dfas);
  for (const char* text : {"12.5", "33.75", "-7.0", "26282", "1e5", "0"}) {
    EXPECT_EQ(walk(tiny, text), reference_mask(fleet, text)) << text;
    EXPECT_LE(tiny.states(), 3u);
  }
  EXPECT_GT(tiny.flushes(), 0u);
}

TEST(NumeralAutomaton, OnlyValueEnginesHaveATokenDfa) {
  const auto value = core::make_engine(core::value_spec{
      numrange::range_spec::real_range("0.7", "35.1"), {}});
  ASSERT_NE(value->token_dfa(), nullptr);
  EXPECT_TRUE(value->token_dfa()->run("12.5"));
  EXPECT_FALSE(value->token_dfa()->run("36"));
  for (const core::string_technique technique :
       {core::string_technique::dfa, core::string_technique::substring})
    EXPECT_EQ(core::make_engine(core::string_spec{technique, 1, "temp"})
                  ->token_dfa(),
              nullptr);
}

}  // namespace
}  // namespace jrf
