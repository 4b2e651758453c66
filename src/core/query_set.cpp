#include "core/query_set.hpp"

#include <algorithm>

#include "util/error.hpp"

namespace jrf::core {

query_id query_set::add(expr_ptr query) {
  if (!query) throw error("query set: null query expression");
  if (live_) live_->insert(query);  // throws before anything registers
  const query_id id = next_id_++;
  ids_.push_back(id);
  queries_.push_back(std::move(query));
  published_.reset();
  ++revision_;
  return id;
}

bool query_set::remove(query_id id) {
  const auto it = std::ranges::lower_bound(ids_, id);
  if (it == ids_.end() || *it != id) return false;
  const auto at = static_cast<std::size_t>(it - ids_.begin());
  if (live_) live_->erase(at);
  ids_.erase(it);
  queries_.erase(queries_.begin() + static_cast<std::ptrdiff_t>(at));
  published_.reset();
  ++revision_;
  return true;
}

bool query_set::contains(query_id id) const noexcept {
  return std::ranges::binary_search(ids_, id);
}

const expr_ptr& query_set::query(query_id id) const {
  return queries_[ordinal(id)];
}

std::size_t query_set::ordinal(query_id id) const {
  const auto it = std::ranges::lower_bound(ids_, id);
  if (it == ids_.end() || *it != id)
    throw error("query set: unknown query id");
  return static_cast<std::size_t>(it - ids_.begin());
}

compiled_layout query_set::compile(simd::simd_level level) const {
  if (queries_.empty()) throw error("query set: compile of empty set");
  return compiled_layout::compile_set(queries_, level);
}

std::shared_ptr<const plan_version> query_set::plan(simd::simd_level level) {
  if (queries_.empty()) throw error("query set: plan of empty set");
  if (!live_ || live_level_ != level) {
    live_ = compiled_layout::compile_set(queries_, level);
    live_level_ = level;
    published_.reset();
  }
  if (!published_) published_ = std::make_shared<const plan_version>(*live_);
  return published_;
}

std::unique_ptr<filter_engine> query_set::make_engine(engine_kind kind,
                                                      filter_options options) {
  if (queries_.empty()) throw error("query set: engine over empty set");
  if (kind == engine_kind::scalar)
    return make_filter_engine(kind, queries_, options);
  return make_filter_engine(plan(options.simd), options);
}

}  // namespace jrf::core
