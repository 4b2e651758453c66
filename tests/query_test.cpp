// Tests for the query front-end: parsers, exact evaluation, RF compiler.
#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "json/parser.hpp"
#include "core/raw_filter.hpp"
#include "query/compile.hpp"
#include "query/eval.hpp"
#include "query/ir.hpp"
#include "query/parse.hpp"
#include "query/riotbench.hpp"
#include "util/error.hpp"

namespace jrf::query {
namespace {

// -------------------------------------------------------------------- parse

TEST(ParseFilterExpression, TableVIIIQueryRoundTrips) {
  const query q = riotbench::qs0();
  EXPECT_EQ(q.name, "QS0");
  EXPECT_EQ(q.model, data_model::senml);
  ASSERT_TRUE(q.is_flat_conjunction());
  const auto preds = q.predicates();
  ASSERT_EQ(preds.size(), 5u);
  EXPECT_EQ(preds[0].attribute, "temperature");
  EXPECT_EQ(preds[0].to_string(), "(0.7 <= \"temperature\" <= 35.1)");
  EXPECT_EQ(preds[4].attribute, "airquality_raw");
}

TEST(ParseFilterExpression, IntegerBoundsYieldIntegerKind) {
  const query q = parse_filter_expression(R"((12 <= "a" <= 49))");
  EXPECT_EQ(q.predicates()[0].range.kind, numrange::numeric_kind::integer);
  const query r = parse_filter_expression(R"((0.7 <= "a" <= 35.1))");
  EXPECT_EQ(r.predicates()[0].range.kind, numrange::numeric_kind::real);
}

TEST(ParseFilterExpression, OneSidedComparisons) {
  const query q = parse_filter_expression(R"(("a" >= 5) AND ("b" <= 3.5))");
  const auto preds = q.predicates();
  ASSERT_EQ(preds.size(), 2u);
  EXPECT_TRUE(preds[0].range.lo && !preds[0].range.hi);
  EXPECT_TRUE(!preds[1].range.lo && preds[1].range.hi);
}

TEST(ParseFilterExpression, StringEquality) {
  const query q = parse_filter_expression(R"(("payment_type" == "CSH"))");
  const auto preds = q.predicates();
  ASSERT_EQ(preds.size(), 1u);
  EXPECT_EQ(preds[0].k, predicate::kind::string_equals);
  EXPECT_EQ(preds[0].text, "CSH");
}

TEST(ParseFilterExpression, OrOfAnds) {
  const query q = parse_filter_expression(
      R"((("a" >= 1) AND ("b" >= 2)) OR ("c" >= 3))");
  EXPECT_EQ(q.root->k, query_node::kind::disjunction);
  EXPECT_FALSE(q.is_flat_conjunction());
  EXPECT_EQ(q.predicates().size(), 3u);
}

TEST(ParseFilterExpression, NegativeBounds) {
  const query q = parse_filter_expression(R"((-12.5 <= "t" <= 43.1))");
  EXPECT_EQ(q.predicates()[0].range.lo->to_string(), "-12.5");
}

TEST(ParseFilterExpression, MalformedInputThrows) {
  EXPECT_THROW(parse_filter_expression("(0.7 <= temperature <= 35.1)"), parse_error);
  EXPECT_THROW(parse_filter_expression(R"(("a" >= ))"), parse_error);
  EXPECT_THROW(parse_filter_expression(R"(("a" >= 1) AND)"), parse_error);
  EXPECT_THROW(parse_filter_expression(R"(("a" >= 1) trailing)"), parse_error);
}

TEST(ParseJsonPath, Listing2) {
  const query q = riotbench::q0();
  EXPECT_EQ(q.model, data_model::senml);
  const auto preds = q.predicates();
  ASSERT_EQ(preds.size(), 1u);
  EXPECT_EQ(preds[0].attribute, "temperature");
  EXPECT_EQ(preds[0].range.lo->to_string(), "0.7");
  EXPECT_EQ(preds[0].range.hi->to_string(), "35.1");
}

TEST(ParseJsonPath, ExistenceOnly) {
  const query q = parse_jsonpath(R"($.e[?(@.n=="light")])");
  const auto preds = q.predicates();
  ASSERT_EQ(preds.size(), 1u);
  EXPECT_FALSE(preds[0].range.lo);
  EXPECT_FALSE(preds[0].range.hi);
}

TEST(ParseJsonPath, MalformedThrows) {
  EXPECT_THROW(parse_jsonpath("$.e[?(@.v >= 1)]"), parse_error);   // no @.n
  EXPECT_THROW(parse_jsonpath("$.e[?(@.x == 1)]"), parse_error);   // bad field
  EXPECT_THROW(parse_jsonpath("e[?(@.n==\"a\")]"), parse_error);   // no $
}

// --------------------------------------------------------------------- eval

const char* kListing1 =
    R"({"e":[)"
    R"({"v":"35.2","u":"far","n":"temperature"},)"
    R"({"v":"12","u":"per","n":"humidity"},)"
    R"({"v":"713","u":"per","n":"light"},)"
    R"({"v":"305.01","u":"per","n":"dust"},)"
    R"({"v":"20","u":"per","n":"airquality_raw"})"
    R"(],"bt":1422748800000})";

TEST(Eval, RunningExampleRejectsListing1) {
  // Q0 wants temperature in [0.7, 35.1]; Listing 1 has 35.2.
  EXPECT_FALSE(eval_record(riotbench::q0(), kListing1));
}

TEST(Eval, RunningExampleAcceptsInRange) {
  const std::string record =
      R"({"e":[{"v":"21.5","u":"far","n":"temperature"}],"bt":1})";
  EXPECT_TRUE(eval_record(riotbench::q0(), record));
}

TEST(Eval, SenmlValueMayBeUnquoted) {
  const std::string record = R"({"e":[{"n":"temperature","v":21.5}]})";
  EXPECT_TRUE(eval_record(riotbench::q0(), record));
}

TEST(Eval, SenmlNameValueMustShareObject) {
  const std::string record =
      R"({"e":[{"n":"temperature","v":"99"},{"n":"x","v":"21.5"}]})";
  EXPECT_FALSE(eval_record(riotbench::q0(), record));
}

TEST(Eval, FlatModelKeyLookup) {
  const query q = parse_filter_expression(R"((2.50 <= "tolls_amount" <= 18.00))");
  EXPECT_TRUE(eval_record(q, R"({"tolls_amount":5.0,"total_amount":30.0})"));
  EXPECT_FALSE(eval_record(q, R"({"total_amount":5.0})"));
  EXPECT_FALSE(eval_record(q, R"({"tolls_amount":0.0})"));
}

TEST(Eval, FlatModelSearchesNestedObjects) {
  const query q = parse_filter_expression(R"((1 <= "favourites_count" <= 100))");
  EXPECT_TRUE(eval_record(q, R"({"user":{"favourites_count":5}})"));
}

TEST(Eval, MissingAttributeFailsRangePredicate) {
  const query q = riotbench::qt();
  EXPECT_FALSE(eval_record(q, R"({"fare_amount":10.0})"));
}

TEST(Eval, StringEqualityPredicate) {
  const query q = parse_filter_expression(R"(("payment_type" == "CSH"))");
  EXPECT_TRUE(eval_record(q, R"({"payment_type":"CSH"})"));
  EXPECT_FALSE(eval_record(q, R"({"payment_type":"CRD"})"));
  EXPECT_FALSE(eval_record(q, R"({"payment_type":7})"));
}

TEST(Eval, MalformedRecordIsFalse) {
  EXPECT_FALSE(eval_record(riotbench::qt(), "{not json"));
}

TEST(Eval, DisjunctionSemantics) {
  const query q = parse_filter_expression(
      R"(("a" >= 10) OR ("b" >= 10))");
  EXPECT_TRUE(eval_record(q, R"({"a":20})"));
  EXPECT_TRUE(eval_record(q, R"({"b":20})"));
  EXPECT_FALSE(eval_record(q, R"({"a":1,"b":1})"));
}

TEST(Eval, LabelStreamAndSelectivity) {
  const query q = parse_filter_expression(R"(("a" >= 10))");
  const auto labels = label_stream(q, "{\"a\":20}\n{\"a\":1}\n{\"a\":30}\n");
  ASSERT_EQ(labels.size(), 3u);
  EXPECT_DOUBLE_EQ(selectivity(labels), 2.0 / 3.0);
}

TEST(Eval, LabelStreamFramesLikeTheFilters) {
  // A separator inside a string literal does not end a record - for the
  // filters, so not for the labels either: one label per decision.
  const query q = parse_filter_expression(R"((0 <= "v" <= 2))");
  const std::string stream =
      "{\"a\":\"x\ny\",\"v\":1}\n{\"b\":\"temperature\",\"v\":1}\n";
  const std::vector<bool> decisions =
      core::raw_filter(compile_default(q)).filter_stream(stream);
  ASSERT_EQ(decisions.size(), 2u);
  const std::vector<bool> labels = label_stream(q, stream);
  ASSERT_EQ(labels.size(), decisions.size());
  // The first record's literal holds a raw newline, which the exact
  // evaluator's parser rejects: the label is false there, true after.
  EXPECT_EQ(labels, (std::vector<bool>{false, true}));
  EXPECT_EQ(verify_no_false_negatives(q, stream, decisions).false_negatives,
            0u);
}

// ------------------------------------------------------------------ compile

TEST(Compile, DefaultIsGroupedConjunction) {
  const core::expr_ptr rf = compile_default(riotbench::qs0());
  // Five scope groups under one conjunction.
  EXPECT_EQ(rf->kind, core::expr_kind::conjunction);
  EXPECT_EQ(rf->children.size(), 5u);
  for (const auto& child : rf->children) {
    EXPECT_EQ(child->kind, core::expr_kind::group);
    EXPECT_EQ(child->group, core::group_kind::scope);
  }
  EXPECT_EQ(rf->primitive_count(), 10);
}

TEST(Compile, FlatModelUsesPairGroups) {
  const core::expr_ptr rf = compile_default(riotbench::qt());
  EXPECT_EQ(rf->children[0]->group, core::group_kind::pair);
}

TEST(Compile, PaperNotationForRunningExample) {
  const core::expr_ptr rf = compile_default(riotbench::q0());
  EXPECT_EQ(rf->to_string(), "{ s1(\"temperature\") & v(0.7 <= f <= 35.1) }");
}

TEST(Compile, OmitDropsAttribute) {
  const query q = riotbench::qs0();
  std::vector<attribute_choice> choices(5);
  for (auto& c : choices) c.mode = attribute_mode::omit;
  choices[2].mode = attribute_mode::value_only;  // keep light only
  const core::expr_ptr rf = compile(q, choices);
  EXPECT_EQ(rf->to_string(), "v(0 <= i <= 5153)");
}

TEST(Compile, AllOmittedThrows) {
  const query q = riotbench::qs0();
  const std::vector<attribute_choice> choices(
      5, attribute_choice{attribute_mode::omit, core::string_technique::substring, 1});
  EXPECT_THROW(compile(q, choices), error);
}

TEST(Compile, ChoiceCountMismatchThrows) {
  EXPECT_THROW(compile(riotbench::qs0(), std::vector<attribute_choice>(3)), error);
}

TEST(Compile, BlockFullResolvesToNeedleLength) {
  const query q = parse_jsonpath(R"($.e[?(@.n=="light" & @.v >= 1)])");
  const std::vector<attribute_choice> choices(
      1, attribute_choice{attribute_mode::string_only,
                          core::string_technique::substring, block_full});
  const core::expr_ptr rf = compile(q, choices);
  EXPECT_EQ(rf->to_string(), "s5(\"light\")");
}

TEST(Compile, StringEqualityGroupsKeyAndText) {
  const query q = parse_filter_expression(R"(("payment_type" == "CSH"))");
  const std::vector<attribute_choice> choices(
      1, attribute_choice{attribute_mode::grouped,
                          core::string_technique::substring, 2});
  const core::expr_ptr rf = compile(q, choices);
  EXPECT_EQ(rf->to_string(), "{ s2(\"payment_type\") : s2(\"CSH\") }");
}

TEST(Compile, LabelsForDesignSpaceListings) {
  EXPECT_EQ((attribute_choice{attribute_mode::omit,
                              core::string_technique::substring, 1})
                .label(),
            "-");
  EXPECT_EQ((attribute_choice{attribute_mode::grouped,
                              core::string_technique::substring, 2})
                .label(),
            "g2");
  EXPECT_EQ((attribute_choice{attribute_mode::flat_and,
                              core::string_technique::substring, block_full})
                .label(),
            "fN");
  EXPECT_EQ((attribute_choice{attribute_mode::value_only,
                              core::string_technique::substring, 1})
                .label(),
            "v");
  EXPECT_EQ((attribute_choice{attribute_mode::string_only,
                              core::string_technique::dfa, 1})
                .label(),
            "sD");
}

// --------------------------------- end-to-end: compiled RF vs ground truth

TEST(Integration, NoFalseNegativeOnRunningExample) {
  // exact(record) => rf(record), checked over handcrafted records.
  const query q = riotbench::q0();
  core::raw_filter rf(compile_default(q));
  const std::vector<std::string> records{
      kListing1,
      R"({"e":[{"v":"21.5","u":"far","n":"temperature"}],"bt":1})",
      R"({"e":[{"n":"temperature","v":0.7}]})",
      R"({"e":[{"n":"temperature","v":35.1}]})",
      R"({"e":[{"n":"temperature","v":35.2}]})",
      R"({"e":[{"n":"humidity","v":"12"}]})",
      R"({"e":[]})",
  };
  for (const std::string& record : records) {
    if (eval_record(q, record)) {
      EXPECT_TRUE(rf.accepts(record)) << record;
    }
  }
}

TEST(Integration, StructuralFilterStrictlySharperOnListing1) {
  const query q = riotbench::q0();
  const std::vector<attribute_choice> flat(
      1, attribute_choice{attribute_mode::flat_and,
                          core::string_technique::substring, 1});
  core::raw_filter flat_rf(compile(q, flat));
  core::raw_filter grouped_rf(compile_default(q));
  EXPECT_TRUE(flat_rf.accepts(kListing1));     // the intro's false positive
  EXPECT_FALSE(grouped_rf.accepts(kListing1)); // removed by structure
  EXPECT_FALSE(eval_record(q, kListing1));     // ground truth agrees
}

}  // namespace
}  // namespace jrf::query
