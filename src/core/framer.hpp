// Escape-aware record framing with a carry: the one module that decides
// what a record boundary is. A record ends at a separator the JSON
// string-literal automaton leaves unmasked (a '"' separator is always
// masked). Every fed buffer is walked in windows of at most kWindow bytes:
// one bitmap_pass per window, a ctz walk of its boundary bitmap, and the
// next window restarting at the record after the last boundary. Only a
// record the buffer ends inside (or one longer than a window) goes to the
// carry - bytes plus automaton state - for the next buffer. The chunked
// filter engine, the facade's shard-less router and system::filter_system
// all frame through it, so each holds one window of bitmaps whatever the
// size of the buffers it is fed.
#pragma once

#include <algorithm>
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

  /// Bytes per window. A constant: the windows bound the framer's and its
  /// callers' per-window state, and 64 KiB of bytes and bitmaps stay in L2.
  static constexpr std::size_t kWindow = std::size_t{1} << 16;

  /// on_record(record, pass, offset) for every complete non-empty record
  /// of the stream so far, in order; `offset` is the record's first bit in
  /// `pass`, and the pass also covers the record's terminator, at bit
  /// offset + record.size(). A record inside `bytes` gets its window's
  /// pass(); one completed from the carried tail gets a pass over just its
  /// bytes and the separator, at offset 0 (a record starts from the fresh
  /// automaton state, so that pass reproduces the stream's). Both live
  /// only for the call, which must not feed again. on_window(pass()) runs
  /// after the last record of every window, while its pass still lives.
  template <class OnRecord, class OnWindow>
  void feed(std::span<const unsigned char> bytes, OnRecord&& on_record,
            OnWindow&& on_window) {
    std::size_t pos = 0;
    while (pos < bytes.size()) {
      const std::span<const unsigned char> window =
          bytes.subspan(pos, std::min(kWindow, bytes.size() - pos));
      pass_.compute(window.data(), window.size(), separator_, state_, level_);
      std::size_t start = 0;  // first byte after the last boundary
      for (std::size_t b = pass_.next_boundary(0); b != simd::npos;
           b = pass_.next_boundary(b + 1)) {
        if (!carry_.empty()) {
          carry_.insert(carry_.end(), window.begin(), window.begin() + b);
          on_record(carried_record(), std::as_const(tail_pass_),
                    std::size_t{0});
          carry_.clear();
        } else if (b > start) {  // consecutive separators decide nothing
          on_record(window.subspan(start, b - start), std::as_const(pass_),
                    start);
        }
        start = b + 1;
      }
      on_window(std::as_const(pass_));
      if (start > 0 && pos + window.size() < bytes.size()) {
        state_ = {};  // the next window starts at a record
        pos += start;
        continue;
      }
      // The buffer ends inside a record, or the record outruns a window.
      carry_.insert(carry_.end(), window.begin() + start, window.end());
      state_ = pass_.end_state();
      pos += window.size();
    }
  }
  template <class OnRecord>
  void feed(std::span<const unsigned char> bytes, OnRecord&& on_record) {
    feed(bytes, std::forward<OnRecord>(on_record), [](const bitmap_pass&) {});
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

  /// The last window's pass, valid until the next feed.
  const bitmap_pass& pass() const noexcept { return pass_; }

 private:
  /// The carry as one record, with its own pass from the fresh state over
  /// its bytes and the separator ending it.
  std::span<const unsigned char> carried_record() {
    carry_.push_back(separator_);
    tail_pass_.compute(carry_.data(), carry_.size(), separator_, {}, level_);
    return std::span<const unsigned char>(carry_).first(carry_.size() - 1);
  }

  unsigned char separator_;
  simd::simd_level level_;  // resolved
  framing_state state_;     // at the end of the last feed
  std::vector<unsigned char> carry_;  // unfinished tail
  bitmap_pass pass_;                  // last window
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
