// System-architecture model (paper Section IV-B, Figure 4).
//
// The paper's prototype couples a Zynq-7000 processor system with
// programmable logic holding 7 parallel raw-filter pipelines, each
// consuming one byte per cycle at 200 MHz (1.4 GB/s theoretical); 44 MB of
// inflated JSON moved through DMA achieved 1.33 GB/s, enough for a 10 GbE
// line rate of 1.25 GB/s.
//
// This module reproduces that bandwidth accounting with a cycle-quantized
// simulation: a DMA engine streams bursts from memory, a dispatcher deals
// whole records round-robin to the lanes, each lane filters one byte per
// cycle (using the behavioural engines, which the RTL suite proves
// cycle-equivalent to the netlist), and match flags are written back. The
// model charges DMA burst-setup overhead and lane-imbalance stalls - the
// two effects that separate the measured 1.33 GB/s from the 1.4 GB/s
// theoretical peak.
#pragma once

#include <algorithm>
#include <cstdint>
#include <memory>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "core/expr.hpp"
#include "core/filter_engine.hpp"

namespace jrf::system {

struct system_options {
  int lanes = 7;                    // parallel RF pipelines (paper: 7)
  double clock_mhz = 200.0;         // PL clock (paper: 200 MHz)
  std::size_t dma_burst_bytes = 4096;  // bytes moved per DMA descriptor
  int dma_setup_cycles = 12;        // descriptor setup / bus arbitration
  std::size_t lane_fifo_bytes = 8192;  // per-lane input FIFO
  // Bytes the software pump hands a lane per drain round (0 = follow
  // dma_burst_bytes). Distinct from the modeled DMA burst: the cycle
  // accounting always uses dma_burst_bytes, while bigger software bursts
  // only let the buffer-at-a-time bitmap pass amortise over more bytes -
  // decisions and the modeled report are identical for every value.
  std::size_t pump_burst_bytes = 1u << 16;
  // Host worker threads the sharded system pumps its lanes on (0 or 1 =
  // the calling thread). Decisions and the cycle-quantized accounting are
  // identical for every value; only host wall-clock differs.
  std::size_t worker_threads = 0;
  // Software hot path the lanes run on. Decisions and the cycle-quantized
  // accounting are identical for both; only host wall-clock differs.
  core::engine_kind engine = core::engine_kind::chunked;
  // filter.simd selects the vector tier of the lanes' bulk scans
  // (automatic = runtime CPU dispatch); decisions are identical at every
  // level.
  core::filter_options filter;
};

struct throughput_report {
  std::uint64_t bytes = 0;
  std::uint64_t records = 0;
  std::uint64_t accepted = 0;       // records forwarded to the CPU
  std::uint64_t cycles = 0;         // total simulated PL cycles
  std::uint64_t stall_cycles = 0;   // DMA setup + lane imbalance
  double seconds = 0.0;             // cycles / clock
  double gbytes_per_second = 0.0;   // end-to-end achieved rate
  double theoretical_gbps = 0.0;    // lanes * clock (bytes/cycle = 1)
  double line_rate_10gbe = 1.25;    // GB/s reference the paper compares to

  std::string to_string() const;
};

/// The cycle-quantized Figure-4 accounting, shared by every execution path
/// (filter_system::run, the sharded system, the jrf::pipeline facade):
/// the slowest lane bounds the filtering time, every DMA burst descriptor
/// charges setup cycles on the shared ingress bus, and the gap to the
/// perfectly balanced distribution shows up as stall cycles. A zero-byte
/// run reports all-zero rates (no NaN/inf).
throughput_report model_report(const system_options& options,
                               std::uint64_t bytes, std::uint64_t records,
                               std::uint64_t accepted,
                               std::uint64_t slowest_lane_bytes);

/// The Figure-4 dispatcher's lane accounting: whole records are dealt
/// round-robin over the replicated lanes, and each lane is charged its
/// records' bytes plus one separator byte (one byte per cycle). The
/// slowest lane is model_report's slowest_lane_bytes.
class lane_ledger {
 public:
  explicit lane_ledger(int lanes)
      : bytes_(static_cast<std::size_t>(lanes), 0) {}

  void deal(std::uint64_t record_bytes) {
    bytes_[next_] += record_bytes + 1;
    next_ = (next_ + 1) % bytes_.size();
  }
  int lanes() const noexcept { return static_cast<int>(bytes_.size()); }
  std::uint64_t slowest() const noexcept {
    return bytes_.empty() ? 0 : *std::max_element(bytes_.begin(), bytes_.end());
  }

 private:
  std::vector<std::uint64_t> bytes_;
  std::size_t next_ = 0;
};

/// Streams `stream` through the modelled system once and reports the
/// achieved bandwidth. All lanes run the same compiled filter expression
/// (the paper's deployment: one query, replicated pipelines): the query is
/// compiled once and every further lane is a cheap clone sharing the
/// compiled artifacts (DFA tables, gram sets).
class filter_system {
 public:
  filter_system(core::expr_ptr expr, system_options options = {})
      : filter_system(std::vector<core::expr_ptr>{std::move(expr)},
                      options) {}

  /// Multi-tenant deployment: every lane runs ONE shared engine layout
  /// evaluating all N queries per record (engines interned by spec key).
  /// decisions() stays the any-match verdict - `accepted` and the modeled
  /// report keep their meaning of "records forwarded to the CPU" - and
  /// decision_words() carries the per-record per-query bitmap. A
  /// one-element vector is the single-query system exactly.
  filter_system(std::vector<core::expr_ptr> queries,
                system_options options = {});

  throughput_report run(std::string_view stream);

  /// Per-record decisions of the last run (lane-merged, stream order;
  /// any-match for multi-query systems).
  const std::vector<bool>& decisions() const noexcept { return decisions_; }

  /// Per-record decision bitmaps of the last run, words_per_record()
  /// little-endian words per record, bit q = query q (dense order).
  /// Empty for single-query systems.
  const std::vector<std::uint64_t>& decision_words() const noexcept {
    return decision_words_;
  }
  std::size_t query_count() const noexcept {
    return lanes_.front()->query_count();
  }
  std::size_t words_per_record() const noexcept {
    return lanes_.front()->words_per_record();
  }

  const system_options& options() const noexcept { return options_; }

 private:
  system_options options_;
  std::vector<std::unique_ptr<core::filter_engine>> lanes_;
  std::vector<bool> decisions_;
  std::vector<std::uint64_t> decision_words_;
};

}  // namespace jrf::system
