#include "core/numeral_automaton.hpp"

#include <algorithm>
#include <bit>

namespace jrf::core {

numeral_automaton::numeral_automaton(std::uint32_t max_states)
    : max_states_(std::max<std::uint32_t>(max_states, 3)) {}

void numeral_automaton::clear(std::uint64_t bits, const components& dfas) {
  bits_ = bits;
  dfas_ = dfas;
  mask_.clear();  // the next walk flushes
}

void numeral_automaton::flush() {
  next_.assign(kColumns, kDead);  // the dead state loops
  mask_.assign(1, 0);
  tuple_.assign(1, nullptr);
  index_.clear();
  tuple start;
  bool dead = true;
  const std::uint64_t mask = advance(nullptr, 0, start, dead);
  start_ = dead ? kDead : add(std::move(start), mask);
}

std::uint64_t numeral_automaton::advance(const tuple* from, std::uint32_t col,
                                         tuple& to, bool& dead) const {
  std::uint64_t mask = 0;
  for (std::uint64_t b = bits_; b != 0; b &= b - 1) {
    const regex::dfa& d = *dfas_[static_cast<std::size_t>(std::countr_zero(b))];
    const int t = from == nullptr
                      ? d.start()
                      : d.step((*from)[to.size()],
                               static_cast<unsigned char>(kToken[col]));
    to.push_back(t);
    if (d.accepting(t)) mask |= b & -b;
    dead = dead && d.dead(t);
  }
  return mask;
}

std::uint32_t numeral_automaton::build(std::uint32_t state, std::uint32_t col) {
  tuple to;
  bool dead = true;
  const std::uint64_t mask = advance(tuple_[state], col, to, dead);
  std::uint32_t& slot = next_[state * kColumns + col];
  if (dead) return slot = kDead;
  if (const auto it = index_.find(to); it != index_.end())
    return slot = it->second;
  if (mask_.size() < max_states_) {
    const std::uint32_t id = add(std::move(to), mask);
    return next_[state * kColumns + col] = id;  // add() grew next_
  }
  // Over the cap: flush and carry on from the new state alone (the source
  // state went with the table).
  ++flushes_;
  flush();
  const auto again = index_.find(to);
  return again != index_.end() ? again->second : add(std::move(to), mask);
}

std::uint32_t numeral_automaton::add(tuple&& states, std::uint64_t mask) {
  const auto id = static_cast<std::uint32_t>(mask_.size());
  tuple_.push_back(&index_.emplace(std::move(states), id).first->first);
  mask_.push_back(mask);
  next_.resize(next_.size() + kColumns, kUnbuilt);
  return id;
}

}  // namespace jrf::core
