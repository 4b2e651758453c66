#include "api/result.hpp"

#include <algorithm>

namespace jrf {

namespace {
// Largest block of a segment: 256 KiB. Blocks double up to it, so a short
// epoch stays small and a long one costs at most one partly filled block.
constexpr std::size_t kMaxBlockWords = std::size_t{1} << 15;
}  // namespace

void verdict_matrix::segment::append(std::span<const std::uint64_t> words,
                                     std::size_t wpr) {
  while (!words.empty()) {
    if (blocks.empty() ||
        blocks.back().size() + wpr > blocks.back().capacity()) {
      const std::size_t want =
          blocks.empty() ? words.size() : 2 * blocks.back().capacity();
      const std::size_t rows = std::max<std::size_t>(
          1, std::min(want, kMaxBlockWords) / wpr);
      blocks.emplace_back().reserve(rows * wpr);
    }
    std::vector<std::uint64_t>& block = blocks.back();
    const std::size_t take = std::min(
        words.size(), (block.capacity() - block.size()) / wpr * wpr);
    block.insert(block.end(), words.begin(),
                 words.begin() + static_cast<std::ptrdiff_t>(take));
    words = words.subspan(take);
  }
}

std::optional<query_column> verdict_matrix::column(std::size_t shard,
                                                   core::query_id id) const {
  if (shard >= shards_.size()) return std::nullopt;
  const history& h = shards_[shard];
  std::optional<query_column> out;
  for (const segment& seg : h.segments) {
    const std::vector<core::query_id>& ids = *seg.ids;
    const auto it = std::lower_bound(ids.begin(), ids.end(), id);
    if (it == ids.end() || *it != id) {
      // Ids are never reused: the first epoch without the query after
      // its span began ends the span.
      if (out) break;
      continue;
    }
    if (!out) out = query_column{id, seg.first_record, {}};
    std::vector<bool>& column = out->decisions;
    const auto rows = static_cast<std::ptrdiff_t>(seg.records);
    if (seg.blocks.empty()) {  // one-query epoch: the any column
      const auto from =
          h.any.begin() + static_cast<std::ptrdiff_t>(seg.first_record);
      column.insert(column.end(), from, from + rows);
      continue;
    }
    // Walk each block one whole word stride at a time: the query's
    // (word, shift) address is fixed across the segment.
    const auto qi = static_cast<std::size_t>(it - ids.begin());
    const std::size_t wpr = (ids.size() + 63) / 64;
    const unsigned shift = static_cast<unsigned>(qi % 64);
    column.reserve(column.size() + static_cast<std::size_t>(rows));
    for (const std::vector<std::uint64_t>& block : seg.blocks) {
      const std::uint64_t* word = block.data() + qi / 64;
      for (std::size_t r = block.size() / wpr; r > 0; --r, word += wpr)
        column.push_back(((*word >> shift) & 1u) != 0);
    }
  }
  return out;
}

}  // namespace jrf
