// Sharded multi-stream system model - the concurrent service core.
//
// filter_system replays the paper's deployment: one stream, whole records
// dealt round-robin to replicated pipelines. Production traffic is N
// independent streams (one per connection / queue / NIC ring), so this
// model binds one filter lane to each input shard:
//
//   * the query is compiled once; every lane is a cheap clone sharing one
//     immutable plan version (engines, DFA tables, gram sets) and owning
//     only its run state; a runtime add/remove moves each lane onto the
//     next version (swap_shard),
//   * each lane owns a bounded input FIFO. offer() is non-blocking: it
//     copies in at most the free FIFO space and reports how much it took,
//     so a full lane pushes back on its producer instead of queueing
//     unbounded ingress (the lane's engine still assembles one in-flight
//     record at a time, so memory per lane is FIFO + longest record),
//   * pump() drains the FIFOs through the lanes' chunked scan path;
//     decisions accumulate per shard and merge into one report. absorb()
//     is the blocking alternative to offer(): it drains the lane and then
//     scans the producer's bytes in place, so a producer that may wait
//     never copies its buffer through the FIFO,
//   * with options.worker_threads > 1 the lanes drain on a util::thread_pool
//     - one task per lane per pump/finish - which is where the model stops
//     being a simulation and becomes a usable service core. Every lane
//     carries its own mutex, so offer() from producer threads never races
//     a worker draining that lane; lanes never share mutable state, so the
//     per-shard decisions and the cycle-quantized report are byte-identical
//     to the serial path for every worker count (asserted by
//     system_concurrency_test),
//   * the cycle-quantized accounting carries over from filter_system: every
//     lane consumes one byte per cycle, DMA burst descriptors charge setup
//     cycles on the shared ingress bus, and the slowest lane bounds the
//     wall time, so lane imbalance shows up as stall cycles exactly as in
//     the paper-reproduction path.
//
// Thread-safety contract: offer(), absorb(), pump(), finish() and report()
// may be called from any thread, concurrently. decisions() returns a
// reference into a lane's engine and therefore requires quiescence: call
// it only when no pump()/finish() is in flight (run() returns quiescent).
#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <mutex>
#include <span>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "core/expr.hpp"
#include "core/filter_engine.hpp"
#include "system/system.hpp"
#include "util/thread_pool.hpp"

namespace jrf::system {

struct shard_stats {
  std::uint64_t offered = 0;   // bytes producers tried to enqueue
  std::uint64_t bytes = 0;     // bytes actually filtered
  std::uint64_t records = 0;
  std::uint64_t accepted = 0;
  std::uint64_t backpressure_events = 0;  // offers truncated by a full FIFO
  std::uint64_t hard_backpressure_events = 0;  // non-empty offers taking 0
  std::size_t fifo_high_watermark = 0;         // max buffered bytes observed
};

struct sharded_report {
  std::vector<shard_stats> shards;
  std::uint64_t bytes = 0;
  std::uint64_t records = 0;
  std::uint64_t accepted = 0;
  std::uint64_t backpressure_events = 0;
  std::uint64_t hard_backpressure_events = 0;
  std::uint64_t cycles = 0;        // slowest lane + DMA descriptor setup
  std::uint64_t stall_cycles = 0;  // DMA setup + lane imbalance
  double seconds = 0.0;
  double gbytes_per_second = 0.0;
  double theoretical_gbps = 0.0;

  std::string to_string() const;
};

/// N independent input streams filtered by N lanes of one compiled query.
class sharded_filter_system {
 public:
  /// `shards` lanes are created; options.lanes is ignored (the stream/lane
  /// binding is 1:1 in sharded mode). options.worker_threads > 1 starts a
  /// pool that pump()/finish() fan the lanes out over.
  sharded_filter_system(core::expr_ptr expr, std::size_t shards,
                        system_options options = {})
      : sharded_filter_system(std::vector<core::expr_ptr>{std::move(expr)},
                              shards, options) {}

  /// Multi-tenant lanes: every shard runs one shared engine layout
  /// evaluating all N queries per record. Decision bitmaps ride along with
  /// the any-match decisions (take_decisions). A one-element vector is
  /// the single-query system exactly.
  sharded_filter_system(std::vector<core::expr_ptr> queries,
                        std::size_t shards, system_options options = {});

  /// Lanes over an already built engine: `engine` becomes shard 0 and the
  /// other shards are its clones (sharing its plan). options.engine and
  /// options.filter are the caller's to honour.
  sharded_filter_system(std::unique_ptr<core::filter_engine> engine,
                        std::size_t shards, system_options options = {});

  std::size_t shard_count() const noexcept { return lanes_.size(); }
  std::size_t query_count() const noexcept {
    return lanes_.front()->engine->query_count();
  }

  /// Non-blocking enqueue: append at most the free FIFO space of `shard`
  /// and return the number of bytes taken (0 = hard backpressure). An
  /// empty view is a no-op and changes no counters. Safe to call from any
  /// producer thread.
  std::size_t offer(std::size_t shard, std::string_view bytes);

  /// Blocking in-place intake: under the lane lock, drain the FIFO, then
  /// scan `bytes` directly from the caller's buffer - no FIFO copy and no
  /// backpressure, so a producer that may block never loops on offer().
  /// Counted as offered and filtered bytes of `shard`.
  void absorb(std::size_t shard, std::string_view bytes);

  /// Drain every lane FIFO through its filter engine, at most
  /// `budget_per_lane` bytes each (0 = drain fully). Lanes drain on the
  /// worker pool when one is configured; returns once every lane is done.
  void pump(std::size_t budget_per_lane = 0);

  /// Drain one lane only (same budget semantics, always on the calling
  /// thread). The per-shard entry point a producer uses to make room in
  /// its own FIFO without touching - or waiting on - any other lane.
  void pump_shard(std::size_t shard, std::size_t budget = 0);

  /// Drain everything and flush trailing records without a final
  /// separator. Further offers start fresh streams.
  void finish();

  /// Per-record decisions of `shard`, in that stream's record order.
  /// Requires quiescence (no pump/finish in flight).
  const std::vector<bool>& decisions(std::size_t shard) const;

  /// One consume batch of a shard's decision stream: the any-match
  /// decisions plus (multi-query lanes only) the parallel bitmap words,
  /// words-per-record each, and every record's byte length (separator
  /// excluded; see core::filter_engine::collect_record_sizes - every lane
  /// collects them). Taken under the lane lock, so a concurrent pump
  /// appends either wholly before or wholly after the batch; stats keep
  /// accumulating across takes.
  struct taken_decisions {
    std::vector<bool> any;
    std::vector<std::uint64_t> words;  // empty for single-query lanes
    std::vector<std::uint32_t> sizes;  // parallel to any
  };
  taken_decisions take_decisions(std::size_t shard);

  /// Live-swap one shard onto another version of its plan (a runtime
  /// query add/remove) WITHOUT losing stream position: the FIFO drains
  /// under the old version, the engine's decisions so far are returned for
  /// the caller to pair with the outgoing query-set epoch, and the engine
  /// then evaluates under `plan` - its in-flight partial record, hook,
  /// size telemetry and record ordinals carry on (chunked engines only;
  /// see core::filter_engine::swap_plan). Offers racing the swap land
  /// wholly before or wholly after it.
  taken_decisions swap_shard(std::size_t shard,
                             std::shared_ptr<const core::plan_version> plan);

  /// Install (or clear, with an empty function) the accepted-record hook
  /// on one shard's engine - the projection surface of the lane (see
  /// core::filter_engine::set_accepted_hook). The hook fires under the
  /// lane mutex from whichever thread drains the lane, so it must not
  /// call back into this system. The hook survives swap_shard, and its
  /// record ordinals keep counting across it.
  void set_accepted_hook(std::size_t shard,
                         core::filter_engine::accepted_hook hook);

  /// Merged accounting over everything filtered so far. A zero-byte run
  /// reports all-zero rates (no NaN/inf).
  sharded_report report() const;

  /// Convenience driver: run one full stream per shard to completion -
  /// one memory_source per stream handed to a concurrent_runner, which
  /// offers DMA-burst-sized slices with pump() interleaved. The sharded
  /// analogue of filter_system::run.
  sharded_report run(std::span<const std::string_view> streams);

  const system_options& options() const noexcept { return options_; }

 private:
  // One lane = one shard: engine + bounded FIFO + stats, all guarded by
  // the lane's mutex so producers (offer) and workers (pump/finish) never
  // race. Lanes are independent - no lock ordering concerns.
  struct lane {
    mutable std::mutex mutex;
    std::unique_ptr<core::filter_engine> engine;
    std::vector<unsigned char> fifo;  // buffered bytes, head first
    std::size_t head = 0;             // consumed prefix of `fifo`
    shard_stats stats;

    std::size_t buffered() const noexcept { return fifo.size() - head; }
  };

  lane& checked(std::size_t shard);
  void pump_lane(lane& l, std::size_t budget);
  void drain_locked(lane& l, std::size_t budget);
  void scan_locked(lane& l, std::span<const unsigned char> bytes);
  static void count_decisions(lane& l, std::size_t before);
  static taken_decisions take_locked(lane& l);
  void for_each_lane(const std::function<void(lane&)>& fn);

  system_options options_;
  std::vector<std::unique_ptr<lane>> lanes_;
  std::unique_ptr<util::thread_pool> pool_;  // null when serial
};

}  // namespace jrf::system
