#include "system/sharded.hpp"

#include <algorithm>
#include <cstdio>

#include "system/ingest.hpp"
#include "util/error.hpp"

namespace jrf::system {

std::string sharded_report::to_string() const {
  char buffer[512];
  std::snprintf(buffer, sizeof buffer,
                "shards=%zu bytes=%llu records=%llu accepted=%llu "
                "backpressure=%llu (hard=%llu) cycles=%llu (stall=%llu) "
                "time=%.4fs rate=%.2f GB/s (theoretical %.2f)",
                shards.size(), static_cast<unsigned long long>(bytes),
                static_cast<unsigned long long>(records),
                static_cast<unsigned long long>(accepted),
                static_cast<unsigned long long>(backpressure_events),
                static_cast<unsigned long long>(hard_backpressure_events),
                static_cast<unsigned long long>(cycles),
                static_cast<unsigned long long>(stall_cycles), seconds,
                gbytes_per_second, theoretical_gbps);
  return buffer;
}

sharded_filter_system::sharded_filter_system(
    std::vector<core::expr_ptr> queries, std::size_t shards,
    system_options options)
    : sharded_filter_system(core::make_filter_engine(options.engine,
                                                     std::move(queries),
                                                     options.filter),
                            shards, options) {}

sharded_filter_system::sharded_filter_system(
    std::unique_ptr<core::filter_engine> engine, std::size_t shards,
    system_options options)
    : options_(options) {
  if (shards < 1) throw error("sharded system: need at least one shard");
  if (options_.lane_fifo_bytes == 0)
    throw error("sharded system: zero lane FIFO size");
  if (options_.dma_burst_bytes == 0)
    throw error("sharded system: zero DMA burst size");
  lanes_.reserve(shards);
  for (std::size_t s = 0; s < shards; ++s)
    lanes_.push_back(std::make_unique<lane>());
  // One compile, N-1 clones: the lanes share one plan.
  lanes_.front()->engine = std::move(engine);
  for (std::size_t s = 1; s < shards; ++s)
    lanes_[s]->engine = lanes_.front()->engine->clone();
  for (auto& l : lanes_) l->engine->collect_record_sizes(true);
  // 0 and 1 both mean "the calling thread pumps": a one-worker pool would
  // only add handoff latency to an identical execution order.
  if (options_.worker_threads > 1)
    pool_ = std::make_unique<util::thread_pool>(options_.worker_threads);
}

sharded_filter_system::lane& sharded_filter_system::checked(std::size_t shard) {
  if (shard >= lanes_.size()) throw error("sharded system: shard out of range");
  return *lanes_[shard];
}

std::size_t sharded_filter_system::offer(std::size_t shard,
                                         std::string_view bytes) {
  lane& l = checked(shard);
  // An empty offer is a no-op: no offered bytes, no backpressure tick, no
  // watermark refresh - a producer polling with empty views must not skew
  // the stats.
  if (bytes.empty()) return 0;
  std::lock_guard<std::mutex> lock(l.mutex);
  l.stats.offered += bytes.size();
  const std::size_t free_space =
      options_.lane_fifo_bytes - std::min(options_.lane_fifo_bytes,
                                          l.buffered());
  const std::size_t take = std::min(free_space, bytes.size());
  if (take < bytes.size()) {
    ++l.stats.backpressure_events;
    // Hard backpressure - a full FIFO refusing every byte - is the signal
    // a producer throttles on, so it gets its own counter.
    if (take == 0) {
      ++l.stats.hard_backpressure_events;
      return 0;
    }
  }
  l.fifo.insert(l.fifo.end(),
                reinterpret_cast<const unsigned char*>(bytes.data()),
                reinterpret_cast<const unsigned char*>(bytes.data()) + take);
  l.stats.fifo_high_watermark =
      std::max(l.stats.fifo_high_watermark, l.buffered());
  return take;
}

void sharded_filter_system::absorb(std::size_t shard,
                                   std::string_view bytes) {
  lane& l = checked(shard);
  if (bytes.empty()) return;
  std::lock_guard<std::mutex> lock(l.mutex);
  // FIFO bytes were offered first, so they are scanned first.
  drain_locked(l, 0);
  l.stats.offered += bytes.size();
  scan_locked(l, {reinterpret_cast<const unsigned char*>(bytes.data()),
                  bytes.size()});
}

void sharded_filter_system::pump_lane(lane& l, std::size_t budget) {
  std::lock_guard<std::mutex> lock(l.mutex);
  drain_locked(l, budget);
}

// Caller holds l.mutex.
void sharded_filter_system::drain_locked(lane& l, std::size_t budget) {
  const std::size_t buffered = l.buffered();
  if (buffered == 0) return;
  const std::size_t take = budget == 0 ? buffered : std::min(budget, buffered);
  scan_locked(l, {l.fifo.data() + l.head, take});
  l.head += take;
  if (l.head == l.fifo.size()) {
    l.fifo.clear();
    l.head = 0;
  } else if (l.head >= options_.lane_fifo_bytes) {
    l.fifo.erase(l.fifo.begin(),
                 l.fifo.begin() + static_cast<std::ptrdiff_t>(l.head));
    l.head = 0;
  }
}

// Caller holds l.mutex.
void sharded_filter_system::scan_locked(lane& l,
                                        std::span<const unsigned char> bytes) {
  const std::size_t before = l.engine->decisions().size();
  l.engine->scan_chunk(bytes);
  l.stats.bytes += bytes.size();
  count_decisions(l, before);
}

// Caller holds l.mutex. Counts the records decided since decisions() held
// `before` entries without rescanning the vector: both counters update
// incrementally, because decisions() is a consume stream once
// take_decisions / swap_shard are in play, so its size is not the lane's
// lifetime record count.
void sharded_filter_system::count_decisions(lane& l, std::size_t before) {
  const auto& decisions = l.engine->decisions();
  for (std::size_t i = before; i < decisions.size(); ++i)
    if (decisions[i]) ++l.stats.accepted;
  l.stats.records += decisions.size() - before;
}

void sharded_filter_system::for_each_lane(
    const std::function<void(lane&)>& fn) {
  if (pool_ == nullptr) {
    for (auto& l : lanes_) fn(*l);
    return;
  }
  // One task per lane: lanes are independent (own mutex, own engine, own
  // stats), so any schedule yields the same per-lane state - concurrency
  // changes wall clock only, never decisions or the modeled report.
  pool_->parallel_for(lanes_.size(),
                      [&](std::size_t i) { fn(*lanes_[i]); });
}

void sharded_filter_system::pump(std::size_t budget_per_lane) {
  for_each_lane([&](lane& l) { pump_lane(l, budget_per_lane); });
}

void sharded_filter_system::pump_shard(std::size_t shard, std::size_t budget) {
  pump_lane(checked(shard), budget);
}

void sharded_filter_system::finish() {
  // Drain + flush + reset under one lock hold: an offer() racing a lane's
  // finish lands either wholly before (framed into this stream) or wholly
  // after (start of a fresh stream) - never with half a record drained and
  // the other half stranded in the FIFO across the flush.
  for_each_lane([&](lane& l) {
    std::lock_guard<std::mutex> lock(l.mutex);
    drain_locked(l, 0);
    const std::size_t before = l.engine->decisions().size();
    l.engine->finish();
    count_decisions(l, before);
    l.engine->reset();
  });
}

// Caller holds l.mutex.
sharded_filter_system::taken_decisions sharded_filter_system::take_locked(
    lane& l) {
  taken_decisions out;
  out.any = l.engine->take_decisions();
  out.words = l.engine->take_decision_words();
  out.sizes = l.engine->take_record_sizes();
  return out;
}

sharded_filter_system::taken_decisions sharded_filter_system::take_decisions(
    std::size_t shard) {
  lane& l = checked(shard);
  std::lock_guard<std::mutex> lock(l.mutex);
  return take_locked(l);
}

sharded_filter_system::taken_decisions sharded_filter_system::swap_shard(
    std::size_t shard, std::shared_ptr<const core::plan_version> plan) {
  lane& l = checked(shard);
  std::lock_guard<std::mutex> lock(l.mutex);
  // Everything buffered decides under the OUTGOING plan: those bytes were
  // accepted into this epoch's stream. The in-flight partial record stays
  // in the engine's framer and decides under the incoming one.
  drain_locked(l, 0);
  taken_decisions out = take_locked(l);
  l.engine->swap_plan(std::move(plan));
  return out;
}

void sharded_filter_system::set_accepted_hook(
    std::size_t shard, core::filter_engine::accepted_hook hook) {
  lane& l = checked(shard);
  std::lock_guard<std::mutex> lock(l.mutex);
  l.engine->set_accepted_hook(std::move(hook));
}

const std::vector<bool>& sharded_filter_system::decisions(
    std::size_t shard) const {
  if (shard >= lanes_.size()) throw error("sharded system: shard out of range");
  return lanes_[shard]->engine->decisions();
}

sharded_report sharded_filter_system::report() const {
  sharded_report out;
  out.shards.reserve(lanes_.size());
  std::uint64_t slowest = 0;
  for (const auto& l : lanes_) {
    std::lock_guard<std::mutex> lock(l->mutex);
    out.shards.push_back(l->stats);
  }
  for (const shard_stats& stats : out.shards) {
    out.bytes += stats.bytes;
    out.records += stats.records;
    out.accepted += stats.accepted;
    out.backpressure_events += stats.backpressure_events;
    out.hard_backpressure_events += stats.hard_backpressure_events;
    slowest = std::max(slowest, stats.bytes);
  }
  // A zero-byte run has no meaningful rates: report zeros rather than the
  // configured peak (and never divide by a zero cycle count).
  if (out.bytes == 0) return out;

  // Same quantization as filter_system, via the shared model: one byte per
  // lane per cycle, the slowest lane bounds completion, every DMA burst
  // descriptor on the shared ingress bus charges setup cycles.
  system_options per_shard = options_;
  per_shard.lanes = static_cast<int>(lanes_.size());
  const throughput_report model =
      model_report(per_shard, out.bytes, out.records, out.accepted, slowest);
  out.cycles = model.cycles;
  out.stall_cycles = model.stall_cycles;
  out.seconds = model.seconds;
  out.gbytes_per_second = model.gbytes_per_second;
  out.theoretical_gbps = model.theoretical_gbps;
  return out;
}

sharded_report sharded_filter_system::run(
    std::span<const std::string_view> streams) {
  if (streams.size() != lanes_.size())
    throw error("sharded system: stream count != shard count");

  // run() is one policy over the ingest machinery: a memory source per
  // stream, burst-sliced offers with pump() interleaved, finish, report.
  // Burst 0 = the options' software pump burst, so the bitmap pass gets
  // whole pump-sized buffers regardless of the modeled DMA descriptor.
  concurrent_runner runner(*this, 0);
  for (std::size_t s = 0; s < streams.size(); ++s)
    runner.bind(s, std::make_unique<memory_source>(streams[s]));
  return runner.run();
}

}  // namespace jrf::system
