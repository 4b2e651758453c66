#include "query/eval.hpp"

#include <optional>

#include "core/framer.hpp"
#include "json/parser.hpp"
#include "util/error.hpp"

namespace jrf::query {

namespace {

/// Numeric view of a JSON value: numbers directly, strings via exact
/// decimal parse (SenML carries numbers as strings, Listing 1).
std::optional<util::decimal> numeric_of(const json::value& v) {
  if (v.is_number()) return v.as_number();
  if (v.is_string()) return util::decimal::try_parse(v.as_string());
  return std::nullopt;
}

bool range_holds(const predicate& p, const json::value& v) {
  if (!p.range.lo && !p.range.hi) return true;  // existence test
  const auto num = numeric_of(v);
  return num && p.range.contains(*num);
}

bool string_holds(const predicate& p, const json::value& v) {
  return v.is_string() && v.as_string() == p.text;
}

bool value_satisfies(const predicate& p, const json::value& v) {
  return p.k == predicate::kind::range ? range_holds(p, v) : string_holds(p, v);
}

bool flat_search(const predicate& p, const json::value& doc) {
  switch (doc.type()) {
    case json::kind::object:
      for (const auto& [key, member] : doc.as_object()) {
        if (key == p.attribute && value_satisfies(p, member)) return true;
        if (flat_search(p, member)) return true;
      }
      return false;
    case json::kind::array:
      for (const json::value& element : doc.as_array())
        if (flat_search(p, element)) return true;
      return false;
    default:
      return false;
  }
}

bool senml_measurement_matches(const predicate& p, const json::value& obj) {
  bool name_matches = false;
  const json::value* measurement_value = nullptr;
  for (const auto& [key, member] : obj.as_object()) {
    if (key == "n" && member.is_string() && member.as_string() == p.attribute)
      name_matches = true;
    if (key == "v") measurement_value = &member;
  }
  if (!name_matches || measurement_value == nullptr) return false;
  return value_satisfies(p, *measurement_value);
}

bool senml_search(const predicate& p, const json::value& doc) {
  switch (doc.type()) {
    case json::kind::object:
      if (senml_measurement_matches(p, doc)) return true;
      for (const auto& [key, member] : doc.as_object())
        if (senml_search(p, member)) return true;
      return false;
    case json::kind::array:
      for (const json::value& element : doc.as_array())
        if (senml_search(p, element)) return true;
      return false;
    default:
      return false;
  }
}

bool eval_node(const query_node& n, const json::value& doc, data_model model) {
  switch (n.k) {
    case query_node::kind::predicate:
      return eval_predicate(n.pred, doc, model);
    case query_node::kind::conjunction:
      for (const query_node_ptr& child : n.children)
        if (!eval_node(*child, doc, model)) return false;
      return true;
    case query_node::kind::disjunction:
      for (const query_node_ptr& child : n.children)
        if (eval_node(*child, doc, model)) return true;
      return false;
  }
  throw error("query eval: invalid node");
}

}  // namespace

bool eval_predicate(const predicate& p, const json::value& doc,
                    data_model model) {
  return model == data_model::flat ? flat_search(p, doc) : senml_search(p, doc);
}

bool eval(const query& q, const json::value& doc) {
  if (!q.root) throw error("query eval: empty query");
  return eval_node(*q.root, doc, q.model);
}

bool eval_record(const query& q, std::string_view record) {
  try {
    return eval(q, json::parse(record));
  } catch (const parse_error&) {
    return false;
  }
}

std::vector<bool> label_stream(const query& q, std::string_view stream) {
  std::vector<bool> labels;
  core::for_each_record(stream, [&](std::string_view record) {
    labels.push_back(eval_record(q, record));
  });
  return labels;
}

double selectivity(const std::vector<bool>& labels) {
  if (labels.empty()) return 0.0;
  std::size_t matches = 0;
  for (const bool b : labels) matches += b ? 1 : 0;
  return static_cast<double>(matches) / static_cast<double>(labels.size());
}

false_negative_report verify_no_false_negatives(
    const query& q, std::string_view stream,
    const std::vector<bool>& decisions) {
  const auto labels = label_stream(q, stream);
  if (labels.size() != decisions.size())
    throw error("verify_no_false_negatives: " + std::to_string(labels.size()) +
                " records labelled but " + std::to_string(decisions.size()) +
                " decisions given");
  false_negative_report report;
  report.records = labels.size();
  for (std::size_t i = 0; i < labels.size(); ++i) {
    if (!labels[i]) continue;
    ++report.true_matches;
    if (!decisions[i]) {
      ++report.false_negatives;
      report.missed.push_back(i);
    }
  }
  return report;
}

}  // namespace jrf::query
