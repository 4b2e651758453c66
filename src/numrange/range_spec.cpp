#include "numrange/range_spec.hpp"

#include "util/error.hpp"

namespace jrf::numrange {

using util::decimal;

namespace {

/// Increment a non-negative integer digit string ("" means 0).
std::string increment_digits(std::string digits) {
  int i = static_cast<int>(digits.size()) - 1;
  while (i >= 0) {
    if (digits[static_cast<std::size_t>(i)] != '9') {
      ++digits[static_cast<std::size_t>(i)];
      return digits;
    }
    digits[static_cast<std::size_t>(i)] = '0';
    --i;
  }
  return "1" + digits;
}

decimal magnitude_plus_one(const decimal& t) {
  std::string digits = t.abs().int_digits();
  digits = increment_digits(std::move(digits));
  return t.negative() ? decimal::parse("-" + digits) : decimal::parse(digits);
}

}  // namespace

std::string range_spec::to_string() const {
  const char* variable = kind == numeric_kind::integer ? "i" : "f";
  if (lo && hi) {
    std::string out = "v(";
    out += lo->to_string();
    out += " <= ";
    out += variable;
    out += " <= ";
    out += hi->to_string();
    out += ')';
    return out;
  }
  if (lo) return "v(" + std::string(variable) + " >= " + lo->to_string() + ")";
  if (hi) return "v(" + std::string(variable) + " <= " + hi->to_string() + ")";
  return "v(any " + std::string(variable) + ")";
}

range_spec range_spec::integer_range(std::string_view lo, std::string_view hi) {
  return {numeric_kind::integer, decimal::parse(lo), decimal::parse(hi)};
}

range_spec range_spec::real_range(std::string_view lo, std::string_view hi) {
  return {numeric_kind::real, decimal::parse(lo), decimal::parse(hi)};
}

range_spec range_spec::at_least(std::string_view lo, numeric_kind kind) {
  return {kind, decimal::parse(lo), std::nullopt};
}

range_spec range_spec::at_most(std::string_view hi, numeric_kind kind) {
  return {kind, std::nullopt, decimal::parse(hi)};
}

bool range_spec::contains(const util::decimal& value) const {
  if (lo && value < *lo) return false;
  if (hi && *hi < value) return false;
  return true;
}

decimal ceil_to_integer(const decimal& x) {
  const decimal t = x.truncated();
  if (t == x) return t;
  // Positive non-integers round up; negative ones truncate toward zero.
  return x.negative() ? t : magnitude_plus_one(t);
}

decimal floor_to_integer(const decimal& x) {
  const decimal t = x.truncated();
  if (t == x) return t;
  // Negative non-integers round away from zero; positive ones truncate.
  if (!x.negative()) return t;
  if (t.is_zero()) return decimal::parse("-1");
  return magnitude_plus_one(t);
}

}  // namespace jrf::numrange
