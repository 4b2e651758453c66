// Deterministic finite automata over the byte alphabet.
//
// DFAs are the synthesis target of both the number-range filters (paper
// Section III-B) and the exact string matcher variant (i). The byte alphabet
// is partitioned into equivalence classes so transition tables stay small
// and so hardware elaboration can emit one character-class detector per
// class instead of per byte value.
#pragma once

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "regex/class_set.hpp"
#include "regex/nfa.hpp"

namespace jrf::regex {

class dfa {
 public:
  /// Subset construction. The result is complete (a dead state absorbs
  /// undefined transitions) and contains only reachable states.
  static dfa determinize(const nfa& m);

  /// Language intersection/union via product construction (reachable pairs
  /// only). `combine` selects acceptance from the two operands' acceptance.
  static dfa product(const dfa& a, const dfa& b, bool (*combine)(bool, bool));

  /// Hopcroft partition-refinement minimization.
  dfa minimized() const;

  /// Moore-style iterative refinement; same result as minimized(), used as
  /// a cross-check oracle in tests.
  dfa minimized_moore() const;

  int start() const noexcept { return start_; }
  int state_count() const noexcept { return static_cast<int>(accepting_.size()); }
  int class_count() const noexcept { return num_classes_; }

  bool accepting(int state) const { return accepting_[static_cast<std::size_t>(state)] != 0; }

  /// Dead state: non-accepting and closed under all transitions.
  bool dead(int state) const;

  int klass(unsigned char byte) const { return byte_to_class_[byte]; }

  int transition(int state, int cls) const {
    return table_[static_cast<std::size_t>(state) * static_cast<std::size_t>(num_classes_) +
                  static_cast<std::size_t>(cls)];
  }

  int step(int state, unsigned char byte) const { return transition(state, klass(byte)); }

  /// Whole-string membership.
  bool run(std::string_view text) const;

  /// All bytes mapped to the given class.
  class_set class_symbols(int cls) const;

  /// Graphviz rendering (used to reproduce Figure 2).
  std::string to_dot() const;

  /// Human-readable transition listing.
  std::string describe() const;

 private:
  std::vector<std::uint16_t> byte_to_class_ = std::vector<std::uint16_t>(256, 0);
  int num_classes_ = 1;
  int start_ = 0;
  std::vector<int> table_;       // state-major [state][class]
  std::vector<char> accepting_;  // per state

  dfa quotient(const std::vector<int>& state_to_block, int block_count) const;
};

/// Convenience: regex tree -> minimized DFA.
dfa compile(const node_ptr& root);

/// Convenience: regex text -> minimized DFA.
dfa compile(std::string_view pattern);

/// Embed a DFA as an NFA fragment (one state per DFA state plus a fresh
/// accept). Lets DFA-level results (e.g. range intersections) be glued back
/// into Thompson compositions before a final determinize+minimize.
nfa to_nfa(const dfa& d);

}  // namespace jrf::regex
