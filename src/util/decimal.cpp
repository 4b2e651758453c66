#include "util/decimal.hpp"

#include <algorithm>
#include <cctype>
#include <cstdlib>

#include "util/error.hpp"

namespace jrf::util {
namespace {

bool is_digit(char c) noexcept { return c >= '0' && c <= '9'; }

}  // namespace

decimal::decimal(std::int64_t value) {
  if (value == 0) return;
  negative_ = value < 0;
  // Avoid overflow on INT64_MIN by peeling digits from the negative value.
  std::uint64_t magnitude =
      negative_ ? ~static_cast<std::uint64_t>(value) + 1
                : static_cast<std::uint64_t>(value);
  while (magnitude != 0) {
    digits_.push_back(static_cast<char>('0' + magnitude % 10));
    magnitude /= 10;
  }
  std::ranges::reverse(digits_);
}

decimal decimal::parse(std::string_view text) {
  auto parsed = try_parse(text);
  if (!parsed) throw parse_error("invalid decimal literal: '" + std::string(text) + "'", 0);
  return *parsed;
}

std::optional<decimal> decimal::try_parse(std::string_view text) noexcept {
  decimal out;
  std::size_t i = 0;
  if (i < text.size() && (text[i] == '+' || text[i] == '-')) {
    out.negative_ = text[i] == '-';
    ++i;
  }
  std::size_t int_digits = 0;
  while (i < text.size() && is_digit(text[i])) {
    out.digits_.push_back(text[i]);
    ++i;
    ++int_digits;
  }
  std::size_t frac_digits = 0;
  if (i < text.size() && text[i] == '.') {
    ++i;
    while (i < text.size() && is_digit(text[i])) {
      out.digits_.push_back(text[i]);
      ++i;
      ++frac_digits;
    }
  }
  if (int_digits + frac_digits == 0) return std::nullopt;
  out.scale_ = static_cast<int>(frac_digits);
  if (i < text.size() && (text[i] == 'e' || text[i] == 'E')) {
    ++i;
    bool exp_negative = false;
    if (i < text.size() && (text[i] == '+' || text[i] == '-')) {
      exp_negative = text[i] == '-';
      ++i;
    }
    if (i >= text.size() || !is_digit(text[i])) return std::nullopt;
    long exponent = 0;
    while (i < text.size() && is_digit(text[i])) {
      exponent = std::min(exponent * 10 + (text[i] - '0'), 1000000L);
      ++i;
    }
    if (exp_negative) exponent = -exponent;
    // Applying e^k shifts the decimal point right by k: scale -= k.
    long new_scale = static_cast<long>(out.scale_) - exponent;
    if (new_scale < 0) {
      out.digits_.append(static_cast<std::size_t>(-new_scale), '0');
      new_scale = 0;
    }
    out.scale_ = static_cast<int>(new_scale);
  }
  if (i != text.size()) return std::nullopt;
  out.normalize();
  return out;
}

void decimal::normalize() {
  // Pad so the fraction is never wider than the digit string (e.g. parsing
  // "2.5e-2" leaves 2 digits with scale 3; it denotes 0.025).
  if (static_cast<std::size_t>(scale_) > digits_.size())
    digits_.insert(0, static_cast<std::size_t>(scale_) - digits_.size(), '0');
  // Strip trailing fraction zeros.
  while (scale_ > 0 && !digits_.empty() && digits_.back() == '0') {
    digits_.pop_back();
    --scale_;
  }
  // Strip leading integer zeros.
  const std::size_t int_len = digits_.size() - static_cast<std::size_t>(scale_);
  std::size_t strip = 0;
  while (strip < int_len && digits_[strip] == '0') ++strip;
  digits_.erase(0, strip);
  if (digits_.empty()) {
    negative_ = false;
    scale_ = 0;
  }
}

std::string decimal::int_digits() const {
  return digits_.substr(0, digits_.size() - static_cast<std::size_t>(scale_));
}

std::string decimal::frac_digits() const {
  return digits_.substr(digits_.size() - static_cast<std::size_t>(scale_));
}

decimal decimal::negated() const {
  decimal out = *this;
  if (!out.is_zero()) out.negative_ = !out.negative_;
  return out;
}

decimal decimal::abs() const {
  decimal out = *this;
  out.negative_ = false;
  return out;
}

decimal decimal::truncated() const {
  decimal out;
  out.negative_ = negative_;
  out.digits_ = int_digits();
  out.scale_ = 0;
  out.normalize();
  return out;
}

std::strong_ordering decimal::compare_magnitude(const decimal& a,
                                                const decimal& b) noexcept {
  const auto a_int = a.digits_.size() - static_cast<std::size_t>(a.scale_);
  const auto b_int = b.digits_.size() - static_cast<std::size_t>(b.scale_);
  if (a_int != b_int) return a_int <=> b_int;
  // Equal integer lengths (leading zeros are normalized away): digit strings
  // compare lexicographically once fraction tails are zero-padded to equal
  // length, which is what comparing position by position achieves.
  const std::size_t n = std::max(a.digits_.size(), b.digits_.size());
  for (std::size_t i = 0; i < n; ++i) {
    const char da = i < a.digits_.size() ? a.digits_[i] : '0';
    const char db = i < b.digits_.size() ? b.digits_[i] : '0';
    if (da != db) return da <=> db;
  }
  return std::strong_ordering::equal;
}

std::strong_ordering decimal::operator<=>(const decimal& other) const noexcept {
  if (negative_ != other.negative_)
    return negative_ ? std::strong_ordering::less
                     : std::strong_ordering::greater;
  const auto magnitude = compare_magnitude(*this, other);
  return negative_ ? 0 <=> magnitude : magnitude;
}

bool decimal::operator==(const decimal& other) const noexcept {
  return (*this <=> other) == std::strong_ordering::equal;
}

std::string decimal::to_string() const {
  if (is_zero()) return "0";
  const std::size_t int_len = digits_.size() - static_cast<std::size_t>(scale_);
  std::string out;
  out.reserve(digits_.size() + 3);
  if (negative_) out.push_back('-');
  if (int_len == 0)
    out.push_back('0');
  else
    out.append(digits_, 0, int_len);
  if (scale_ > 0) {
    out.push_back('.');
    out.append(digits_, int_len);
  }
  return out;
}

double decimal::to_double() const { return std::strtod(to_string().c_str(), nullptr); }

bool in_range(const decimal& x, const decimal& lo, const decimal& hi) noexcept {
  return lo <= x && x <= hi;
}

}  // namespace jrf::util
