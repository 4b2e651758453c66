// Result surface of the jrf::pipeline facade.
//
// Every backend - scalar, chunked, system, sharded - reports through the
// same run_result: the merged cycle-quantized throughput_report of the
// Figure-4 model, per-shard service stats, and the per-record decisions
// both merged (shard order) and split per shard. Single-stream backends
// report exactly one shard. Multi-tenant pipelines add the verdict words
// of every resident query, read one query column at a time.
#pragma once

#include <cstddef>
#include <cstdint>
#include <memory>
#include <optional>
#include <span>
#include <string>
#include <utility>
#include <vector>

#include "core/query_set.hpp"
#include "project/columns.hpp"
#include "system/sharded.hpp"
#include "system/system.hpp"

namespace jrf {

/// One resident query's decision column on one shard of a multi-tenant
/// pipeline, as verdict_matrix::column() builds it. Ids are never reused,
/// so every query has exactly one contiguous residency span: decisions[k]
/// is the verdict of per-shard record first_record + k, from the record
/// the query became resident until it was removed (or the stream ended).
struct query_column {
  core::query_id id = 0;
  std::uint64_t first_record = 0;
  std::vector<bool> decisions;
};

/// The per-query verdicts of a multi-tenant run, kept as the verdict words
/// the streams staged them in: per shard, the any-match column and one
/// segment per epoch. Nothing is transposed up front; column() builds one
/// query's residency span when a caller asks for it.
class verdict_matrix {
 public:
  /// One epoch's stretch of a shard's records.
  struct segment {
    /// The query ids resident during the epoch, dense order == bit order.
    /// Ascending: ids are monotone and never reused.
    std::shared_ptr<const std::vector<core::query_id>> ids;
    std::uint64_t first_record = 0;  // per-shard ordinal of row 0
    std::uint64_t records = 0;
    /// ceil(ids/64) little-endian words per row, in blocks of whole rows.
    /// A block never grows past the capacity it was made with, so a long
    /// history adds one block at a time and never reallocates (and, for
    /// the copy, briefly doubles) one ever larger buffer. Empty for a
    /// one-query epoch, whose verdicts are the shard's any-match column.
    std::vector<std::vector<std::uint64_t>> blocks;

    /// Append whole rows of `wpr` words each.
    void append(std::span<const std::uint64_t> words, std::size_t wpr);
  };
  /// One shard's staged history: every record's any-match verdict, and
  /// one segment per epoch the shard ran under, in record order.
  struct history {
    std::vector<bool> any;
    std::vector<segment> segments;
  };

  verdict_matrix() = default;
  explicit verdict_matrix(std::vector<history> shards)
      : shards_(std::move(shards)) {}

  /// True for plain single-query pipelines, which report no matrix.
  bool empty() const noexcept { return shards_.empty(); }
  std::size_t shards() const noexcept { return shards_.size(); }

  /// Query `id`'s residency span on `shard`, or nullopt when the query was
  /// never resident there. Costs O(records of the span).
  std::optional<query_column> column(std::size_t shard,
                                     core::query_id id) const;

 private:
  std::vector<history> shards_;
};

struct run_result {
  /// Merged cycle-quantized accounting (system::model_report semantics;
  /// for the sharded backend this is the merged sharded_report view).
  system::throughput_report report;

  /// One entry per shard: offered/filtered bytes, records, accepted,
  /// backpressure counters, FIFO high-watermark. Single-stream backends
  /// report one shard with zero backpressure by construction.
  std::vector<system::shard_stats> shards;

  /// Per-record decisions, per shard, in each stream's record order.
  std::vector<std::vector<bool>> shard_decisions;

  /// Merged decisions: shard_decisions concatenated in shard order (for
  /// single-stream backends this IS the stream order).
  std::vector<bool> decisions;

  /// Multi-tenant pipelines only (more than one resident query, a verdict
  /// or per-query sink, or any runtime add/remove): the query ids resident
  /// when the stream ended, dense order == decision-bitmap bit order.
  /// Empty for plain single-query pipelines.
  std::vector<core::query_id> query_ids;

  /// Multi-tenant pipelines only: every shard's verdict words, moved out
  /// of the streams' history. verdicts.column(shard, id) answers for every
  /// query ever resident on that shard (including queries removed
  /// mid-stream); its bit k is that query's verdict on per-shard record
  /// first_record + k. Empty for plain single-query pipelines.
  verdict_matrix verdicts;

  /// Projecting pipelines without an on_projection sink: the columnar
  /// batches of every accepted record's extracted paths, in shard order
  /// and per shard in flush order (batch.shard names the stream; each
  /// batch's `records` are that shard's per-record indices, matching
  /// shard_decisions). Empty when projection is off or a sink consumed
  /// the batches as they flushed.
  std::vector<project::column_batch> projection;

  std::uint64_t records() const noexcept { return report.records; }
  std::uint64_t accepted() const noexcept { return report.accepted; }

  std::string to_string() const;
};

}  // namespace jrf
