// Numeral automaton: the token DFAs of every run-capable value leaf of a
// plan version, run as one lazily determinized product automaton - the
// software form of the paper's value primitives consuming each byte in the
// same cycle. A product state is the tuple of component states and carries
// the 64-bit run-verdict mask of the components accepting there, so one
// table walk over a token run decides every value leaf. States are built on
// first use; a plan swap only drops the table, and a state cap flushes it,
// so memory stays bounded whatever the input. Per-lane mutable state.
#pragma once

#include <array>
#include <cstddef>
#include <cstdint>
#include <map>
#include <vector>

#include "regex/dfa.hpp"

namespace jrf::core {

class numeral_automaton {
 public:
  static constexpr std::size_t kColumns = 15;  // token bytes, kToken order
  static constexpr std::uint32_t kMaxStates = 1024;  // flush beyond this

  /// Component DFA per verdict bit (null where the bit is unused).
  using components = std::array<const regex::dfa*, 64>;

  /// `max_states` (at least 3) overrides the cap, so tests reach a flush.
  explicit numeral_automaton(std::uint32_t max_states = kMaxStates);

  /// Walk dfas[b] for every bit b of `bits` from now on and drop every
  /// built state. Constant time: construction waits for the next walk.
  void clear(std::uint64_t bits, const components& dfas);

  /// Verdict mask of one token run: bit b set iff dfas[b] accepts the `n`
  /// bytes (token bytes only). Stops at the all-dead state.
  std::uint64_t walk(const unsigned char* bytes, std::size_t n) {
    if (mask_.empty()) [[unlikely]] flush();
    const std::uint32_t* next = next_.data();
    std::uint32_t s = start_;
    for (std::size_t i = 0; i < n; ++i) {
      const std::uint32_t col = kColumn[bytes[i]];
      std::uint32_t t = next[s * kColumns + col];
      if (t == kUnbuilt) [[unlikely]] {
        t = build(s, col);
        next = next_.data();
      }
      s = t;
      if (s == kDead) break;
    }
    return mask_[s];
  }

  /// States built since the last clear() or flush, the dead state included.
  std::size_t states() const noexcept { return mask_.size(); }
  /// Times the table passed the cap and was flushed.
  std::uint64_t flushes() const noexcept { return flushes_; }

 private:
  static constexpr std::uint32_t kDead = 0;  // every component dead
  static constexpr std::uint32_t kUnbuilt = ~std::uint32_t{0};
  static constexpr char kToken[] = "0123456789.+-eE";
  static constexpr std::array<std::uint8_t, 256> kColumn = [] {
    std::array<std::uint8_t, 256> col{};
    for (std::uint8_t c = 0; c < kColumns; ++c)
      col[static_cast<unsigned char>(kToken[c])] = c;
    return col;
  }();

  using tuple = std::vector<int>;  // one state per component, bit order

  void flush();
  /// Append the successor of `from` on `col` (null: the start tuple) to
  /// `to`; returns its mask and clears `dead` unless all components are.
  std::uint64_t advance(const tuple* from, std::uint32_t col, tuple& to,
                        bool& dead) const;
  std::uint32_t build(std::uint32_t state, std::uint32_t col);
  std::uint32_t add(tuple&& states, std::uint64_t mask);

  std::uint32_t max_states_;
  std::uint64_t bits_ = 0;
  components dfas_{};
  std::uint64_t flushes_ = 0;
  std::uint32_t start_ = kDead;
  std::vector<std::uint32_t> next_;  // [state][column]
  std::vector<std::uint64_t> mask_;  // per state
  std::vector<const tuple*> tuple_;  // per state; null for the dead state
  std::map<tuple, std::uint32_t> index_;
};

}  // namespace jrf::core
