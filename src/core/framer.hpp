// Escape-aware record framing with a carry: the one module that decides
// what a record boundary is. A record ends at a separator the JSON
// string-literal automaton leaves unmasked (a '"' separator is always
// masked). One bitmap_pass per fed buffer, a ctz walk of its boundary
// bitmap, and the unfinished tail - bytes plus automaton state - carried
// into the next buffer. The chunked filter engine, the facade's shard-less
// router and system::filter_system all frame through it.
#pragma once

#include <cstddef>
#include <span>
#include <string_view>
#include <utility>
#include <vector>

#include "core/bitmaps.hpp"
#include "core/simd.hpp"

namespace jrf::core {

class record_framer {
 public:
  explicit record_framer(unsigned char separator = '\n',
                         simd::simd_level level = simd::simd_level::automatic)
      : separator_(separator), level_(simd::resolve(level)) {}

  /// on_record(record, pass, offset) for every complete non-empty record
  /// of the stream so far, in order; `offset` is the record's first bit in
  /// `pass`. A record inside `bytes` gets pass(); one completed from the
  /// carried tail gets a pass over just its bytes, at offset 0 (a record
  /// starts from the fresh automaton state, so that pass reproduces the
  /// stream's). Both live only for the call, which must not feed again.
  template <class OnRecord>
  void feed(std::span<const unsigned char> bytes, OnRecord&& on_record) {
    if (bytes.empty()) return;
    pass_.compute(bytes.data(), bytes.size(), separator_, state_, level_);
    std::size_t start = 0;
    for (std::size_t b = pass_.next_boundary(0); b != simd::npos;
         b = pass_.next_boundary(b + 1)) {
      if (!carry_.empty()) {
        carry_.insert(carry_.end(), bytes.begin() + start, bytes.begin() + b);
        on_record(carried_record(), std::as_const(tail_pass_), std::size_t{0});
        carry_.clear();
      } else if (b > start) {  // consecutive separators decide nothing
        on_record(bytes.subspan(start, b - start), std::as_const(pass_),
                  start);
      }
      start = b + 1;
    }
    carry_.insert(carry_.end(), bytes.begin() + start, bytes.end());
    state_ = pass_.end_state();
  }
  template <class OnRecord>
  void feed(std::string_view bytes, OnRecord&& on_record) {
    feed({reinterpret_cast<const unsigned char*>(bytes.data()), bytes.size()},
         std::forward<OnRecord>(on_record));
  }

  /// End of stream: the tail decides as if the scalar path's synthesized
  /// separator followed it - on_record like a carried record, unless that
  /// separator would be masked (tail inside a string literal, or a '"'
  /// separator): then on_masked(tail), unevaluated. Resets the framer.
  template <class OnRecord, class OnMasked>
  void flush(OnRecord&& on_record, OnMasked&& on_masked) {
    if (carry_.empty()) return;
    if (state_.in_string || separator_ == '"')
      on_masked(std::span<const unsigned char>(carry_));
    else
      on_record(carried_record(), std::as_const(tail_pass_), std::size_t{0});
    reset();
  }

  /// Surrender the tail and return to the power-on state; feeding the tail
  /// to a power-on framer (this one or a fresh one) restores the position.
  std::vector<unsigned char> take_carry() {
    state_ = {};
    return std::exchange(carry_, {});
  }

  void reset() noexcept {
    carry_.clear();
    state_ = {};
  }

  /// The last fed buffer's pass, valid until the next feed.
  const bitmap_pass& pass() const noexcept { return pass_; }

 private:
  /// The carry as one record, with its own pass from the fresh state.
  std::span<const unsigned char> carried_record() {
    tail_pass_.compute(carry_.data(), carry_.size(), separator_, {}, level_);
    return carry_;
  }

  unsigned char separator_;
  simd::simd_level level_;  // resolved
  framing_state state_;     // at the end of the last feed
  std::vector<unsigned char> carry_;  // unfinished tail
  bitmap_pass pass_;                  // last fed buffer
  bitmap_pass tail_pass_;             // last record completed from carry_
};

/// fn(record) for every record of a whole in-memory stream, exactly as the
/// filter paths frame it: escape-aware boundaries, empty records skipped,
/// and a trailing record without its separator included (also one left
/// inside a string literal, which the filters decide as a reject). So
/// ground-truth labels built from it line up one-to-one with a filter's
/// decisions.
template <class Fn>
void for_each_record(std::string_view stream, Fn&& fn,
                     unsigned char separator = '\n') {
  const auto view = [](std::span<const unsigned char> r) {
    return std::string_view(reinterpret_cast<const char*>(r.data()), r.size());
  };
  record_framer framer(separator);
  framer.feed(stream, [&](std::span<const unsigned char> record,
                          const bitmap_pass&, std::size_t) { fn(view(record)); });
  const std::vector<unsigned char> tail = framer.take_carry();
  if (!tail.empty()) fn(view(tail));
}

}  // namespace jrf::core
