#include "core/raw_filter.hpp"

#include <algorithm>

#include "util/error.hpp"

namespace jrf::core {

group_tracker::group_tracker(group_kind kind, int member_count)
    : kind_(kind), latched_(static_cast<std::size_t>(member_count), 0) {
  if (member_count < 1) throw error("group tracker: no members");
}

void group_tracker::reset() {
  std::ranges::fill(latched_, 0);
  armed_ = false;
  armed_depth_ = 0;
}

bool group_tracker::step(const structure_state& st, bool separator,
                         std::span<const char> member_fires) {
  // Mirrors the hardware: armed_depth tracks depth_before until armed.
  const int ad_now = armed_ ? armed_depth_ : st.depth_before;
  bool any_fire = false;
  bool all_latched = true;
  for (std::size_t i = 0; i < latched_.size(); ++i) {
    latched_[i] = static_cast<char>(latched_[i] | member_fires[i]);
    any_fire = any_fire || member_fires[i];
    all_latched = all_latched && latched_[i];
  }
  const bool arm_now = armed_ || any_fire;

  bool sample = separator;
  if (kind_ == group_kind::scope)
    sample = sample || (st.scope_close && arm_now && st.depth_before <= ad_now);
  else
    sample = sample || st.pair_boundary;

  const bool fire = sample && arm_now && all_latched;
  if (sample) {
    std::ranges::fill(latched_, 0);
    armed_ = false;
  } else {
    armed_ = arm_now;
  }
  armed_depth_ = ad_now;
  return fire;
}

raw_filter::raw_filter(expr_ptr expr, filter_options options)
    : expr_(std::move(expr)),
      options_(options),
      tracker_(options.depth_bits) {
  if (!expr_) throw error("raw filter: null expression");
  layout_ = compiled_layout::compile(*expr_);
  for (const auto& engine : layout_.engines) engines_.push_back(engine->clone());
  std::size_t max_members = 0;
  for (const compiled_layout::group_info& g : layout_.groups) {
    groups_.emplace_back(g.kind, static_cast<int>(g.members.size()));
    max_members = std::max(max_members, g.members.size());
  }
  leaf_latch_.resize(layout_.bare_engines.size(), 0);
  group_latch_.resize(layout_.groups.size(), 0);
  fires_.resize(layout_.engines.size(), 0);
  member_scratch_.resize(max_members, 0);
}

raw_filter::raw_filter(const raw_filter& other)
    : expr_(other.expr_),
      options_(other.options_),
      tracker_(other.options_.depth_bits),
      layout_(other.layout_),
      groups_(other.groups_),
      leaf_latch_(other.leaf_latch_.size(), 0),
      group_latch_(other.group_latch_.size(), 0),
      fires_(other.fires_.size(), 0),
      member_scratch_(other.member_scratch_.size(), 0) {
  for (const auto& engine : layout_.engines) engines_.push_back(engine->clone());
  for (auto& tracker : groups_) tracker.reset();
}

void raw_filter::reset() {
  tracker_.reset();
  for (auto& engine : engines_) engine->reset();
  for (auto& tracker : groups_) tracker.reset();
  std::ranges::fill(leaf_latch_, 0);
  std::ranges::fill(group_latch_, 0);
}

bool raw_filter::eval_node(const filter_expr& e, std::size_t& leaf_cursor,
                           std::size_t& group_cursor) const {
  switch (e.kind) {
    case expr_kind::primitive:
      return leaf_latch_[leaf_cursor++] != 0;
    case expr_kind::group:
      return group_latch_[group_cursor++] != 0;
    case expr_kind::conjunction: {
      bool all = true;
      for (const expr_ptr& child : e.children)
        all = eval_node(*child, leaf_cursor, group_cursor) && all;
      return all;
    }
    case expr_kind::disjunction: {
      bool any = false;
      for (const expr_ptr& child : e.children)
        any = eval_node(*child, leaf_cursor, group_cursor) || any;
      return any;
    }
  }
  throw error("raw filter: invalid expression node");
}

raw_filter::step_result raw_filter::push(unsigned char byte) {
  // The tracker must see the byte before we can tell whether a separator is
  // masked; primitives see every byte including the separator (a numeric
  // token may terminate exactly there).
  const structure_state st = tracker_.step(byte);
  const bool boundary = byte == options_.separator && !st.masked;

  for (std::size_t i = 0; i < engines_.size(); ++i)
    fires_[i] = engines_[i]->step(byte) ? 1 : 0;

  // Bare leaves latch their fire pulses; groups run their samplers. The two
  // updates touch disjoint engine slots, so order does not matter.
  for (std::size_t g = 0; g < layout_.groups.size(); ++g) {
    const compiled_layout::group_info& info = layout_.groups[g];
    for (std::size_t m = 0; m < info.members.size(); ++m)
      member_scratch_[m] = fires_[info.members[m]];
    const std::span<const char> member_fires{member_scratch_.data(),
                                             info.members.size()};
    const bool fire = groups_[g].step(st, boundary, member_fires);
    group_latch_[g] = static_cast<char>(group_latch_[g] | fire);
  }
  for (std::size_t leaf = 0; leaf < layout_.bare_engines.size(); ++leaf)
    leaf_latch_[leaf] = static_cast<char>(leaf_latch_[leaf] |
                                          fires_[layout_.bare_engines[leaf]]);

  step_result result;
  result.record_boundary = boundary;
  if (boundary) {
    std::size_t leaf_cursor = 0;
    std::size_t group_cursor = 0;
    result.accept = eval_node(*expr_, leaf_cursor, group_cursor);
    reset();
  }
  return result;
}

bool raw_filter::accepts(std::string_view record) {
  reset();
  for (const char c : record) push(static_cast<unsigned char>(c));
  return push(options_.separator).accept;
}

std::vector<bool> raw_filter::filter_stream(std::string_view stream) {
  reset();
  std::vector<bool> decisions;
  bool pending = false;  // bytes seen since the last boundary
  for (const char c : stream) {
    const step_result r = push(static_cast<unsigned char>(c));
    if (r.record_boundary) {
      if (pending) decisions.push_back(r.accept);
      pending = false;
    } else {
      pending = true;
    }
  }
  if (pending) decisions.push_back(push(options_.separator).accept);
  return decisions;
}

double false_positive_rate(const std::vector<bool>& decisions,
                           const std::vector<bool>& labels) {
  if (decisions.size() != labels.size())
    throw error("false_positive_rate: decision/label size mismatch");
  std::size_t false_positives = 0;
  std::size_t negatives = 0;
  for (std::size_t i = 0; i < decisions.size(); ++i) {
    if (labels[i]) continue;
    ++negatives;
    if (decisions[i]) ++false_positives;
  }
  if (negatives == 0) return 0.0;
  return static_cast<double>(false_positives) / static_cast<double>(negatives);
}

}  // namespace jrf::core
