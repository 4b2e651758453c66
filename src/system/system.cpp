#include "system/system.hpp"

#include <algorithm>
#include <cstdio>

#include "core/framer.hpp"
#include "util/error.hpp"

namespace jrf::system {

std::string throughput_report::to_string() const {
  char buffer[512];
  std::snprintf(buffer, sizeof buffer,
                "bytes=%llu records=%llu accepted=%llu cycles=%llu "
                "(stall=%llu) time=%.4fs rate=%.2f GB/s (theoretical %.2f, "
                "10GbE line rate %.2f)",
                static_cast<unsigned long long>(bytes),
                static_cast<unsigned long long>(records),
                static_cast<unsigned long long>(accepted),
                static_cast<unsigned long long>(cycles),
                static_cast<unsigned long long>(stall_cycles), seconds,
                gbytes_per_second, theoretical_gbps, line_rate_10gbe);
  return buffer;
}

throughput_report model_report(const system_options& options,
                               std::uint64_t bytes, std::uint64_t records,
                               std::uint64_t accepted,
                               std::uint64_t slowest_lane_bytes) {
  throughput_report report;
  report.bytes = bytes;
  report.records = records;
  report.accepted = accepted;
  report.theoretical_gbps =
      static_cast<double>(options.lanes) * options.clock_mhz * 1e6 / 1e9;

  // DMA: every burst descriptor costs setup cycles during which no lane
  // receives data (shared ingress bus).
  const std::uint64_t bursts =
      (bytes + options.dma_burst_bytes - 1) / options.dma_burst_bytes;
  const std::uint64_t dma_overhead =
      bursts * static_cast<std::uint64_t>(options.dma_setup_cycles);

  const std::uint64_t balanced =
      (bytes + static_cast<std::uint64_t>(options.lanes) - 1) /
      static_cast<std::uint64_t>(options.lanes);
  report.cycles = slowest_lane_bytes + dma_overhead;
  // Clamp: blank-line-heavy input can make the slowest lane shorter than
  // the balanced distribution of raw bytes (separators of empty records
  // reach no lane), and unsigned subtraction must not wrap.
  report.stall_cycles = report.cycles - std::min(report.cycles, balanced);
  report.seconds =
      static_cast<double>(report.cycles) / (options.clock_mhz * 1e6);
  report.gbytes_per_second =
      report.seconds > 0
          ? static_cast<double>(report.bytes) / report.seconds / 1e9
          : 0.0;
  return report;
}

filter_system::filter_system(std::vector<core::expr_ptr> queries,
                             system_options options)
    : options_(options) {
  if (options_.lanes < 1) throw error("filter system: need at least one lane");
  if (options_.dma_burst_bytes == 0)
    throw error("filter system: zero DMA burst size");
  // Compile the query set once (engines interned by spec key); every
  // further lane clones the first, sharing the immutable compile artifacts
  // instead of re-running DFA construction.
  lanes_.push_back(
      core::make_filter_engine(options_.engine, std::move(queries),
                               options_.filter));
  for (int lane = 1; lane < options_.lanes; ++lane)
    lanes_.push_back(lanes_.front()->clone());
}

throughput_report filter_system::run(std::string_view stream) {
  // One feed from the fresh state: every record views `stream`.
  std::vector<std::string_view> records;
  const auto keep = [&records](std::span<const unsigned char> r) {
    records.emplace_back(reinterpret_cast<const char*>(r.data()), r.size());
  };
  core::record_framer framer(options_.filter.separator, options_.filter.simd);
  framer.feed(stream, [&](auto r, const auto&...) { keep(r); });
  const std::vector<unsigned char> tail = framer.take_carry();
  if (!tail.empty()) keep(tail);  // accepts() decides it as a flush would

  // Whole records are dealt round-robin; each lane consumes one byte per
  // cycle, so the slowest lane sets the filtering time.
  lane_ledger ledger(options_.lanes);
  std::uint64_t accepted = 0;
  decisions_.assign(records.size(), false);
  const bool multi = query_count() > 1;
  const std::size_t wpr = words_per_record();
  decision_words_.assign(multi ? records.size() * wpr : 0, 0);
  for (std::size_t r = 0; r < records.size(); ++r) {
    const std::size_t lane = r % static_cast<std::size_t>(options_.lanes);
    ledger.deal(records[r].size());
    decisions_[r] =
        multi ? lanes_[lane]->accepts_bits(records[r],
                                           decision_words_.data() + r * wpr)
              : lanes_[lane]->accepts(records[r]);
    if (decisions_[r]) ++accepted;
  }
  return model_report(options_, stream.size(), records.size(), accepted,
                      ledger.slowest());
}

}  // namespace jrf::system
