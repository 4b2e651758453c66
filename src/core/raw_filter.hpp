// Behavioural composed raw filter.
//
// Drives the primitive engines, the structure tracker and the structural
// group logic byte by byte over an NDJSON stream and produces one
// accept/reject decision per record, exactly as the elaborated hardware
// would (the RTL equivalence suite holds both sides to that promise).
//
// Record protocol: records are separated by an unmasked separator byte
// ('\n' by default, the NDJSON framing RiotBench replays). All filter state
// resets at the separator, so no information leaks across records.
#pragma once

#include <memory>
#include <span>
#include <string_view>
#include <vector>

#include "core/expr.hpp"
#include "core/filter_engine.hpp"
#include "core/primitive.hpp"
#include "core/structure.hpp"

namespace jrf::core {

/// State machine of one structural group; mirrors the elaborated hardware
/// register for register. Shared by raw_filter and the DSE signal memoizer
/// so both use identical semantics.
///
/// A scope group arms at the first member fire, remembering the nesting
/// level it fired at; it samples (fires when all member latches are set,
/// then clears) at every scope close back at or below that level. A pair
/// group samples at every pair boundary. Both sample at the record
/// separator so tokens ending at end-of-record still count.
class group_tracker {
 public:
  group_tracker(group_kind kind, int member_count);

  void reset();

  /// Update with one byte's structure facts and member fire pulses (one
  /// 0/1 char per member); returns the group fire pulse for this byte.
  bool step(const structure_state& st, bool separator,
            std::span<const char> member_fires);

 private:
  group_kind kind_;
  std::vector<char> latched_;
  bool armed_ = false;
  int armed_depth_ = 0;
};

class raw_filter {
 public:
  explicit raw_filter(expr_ptr expr, filter_options options = {});

  /// Lane copy: duplicates run state, shares the compiled query (expression
  /// tree, DFA tables, gram sets). The copy starts reset.
  raw_filter(const raw_filter& other);
  raw_filter& operator=(const raw_filter&) = delete;
  raw_filter(raw_filter&&) = default;

  /// Return to the power-on state (start of stream).
  void reset();

  struct step_result {
    bool record_boundary = false;  // this byte ended a record
    bool accept = false;           // decision for the ended record
  };

  /// Consume one stream byte.
  step_result push(unsigned char byte);

  /// Decision for a single standalone record (terminator supplied here).
  bool accepts(std::string_view record);

  /// Per-record decisions over an NDJSON stream. A trailing record without
  /// a final separator is flushed implicitly.
  std::vector<bool> filter_stream(std::string_view stream);

  const expr_ptr& expression() const noexcept { return expr_; }
  const filter_options& options() const noexcept { return options_; }

 private:
  bool eval_node(const filter_expr& e, std::size_t& leaf_cursor,
                 std::size_t& group_cursor) const;

  expr_ptr expr_;
  filter_options options_;
  structure_tracker tracker_;
  compiled_layout layout_;         // engines in leaf order + group spans
  // This lane's stepping copies of layout_.engines (step() keeps state).
  std::vector<std::unique_ptr<primitive_engine>> engines_;
  std::vector<group_tracker> groups_;
  std::vector<char> leaf_latch_;   // bare leaves, leaf order
  std::vector<char> group_latch_;  // group order
  std::vector<char> fires_;        // scratch, engine order
  std::vector<char> member_scratch_;  // scratch, one group's member fires
};

/// Fraction of non-matching records the filter let through:
/// FPR = false positives / (false positives + true negatives), the rate the
/// paper's Tables I-VII report. `labels[i]` is the exact-query verdict for
/// record i; streams with no negative records yield 0.
double false_positive_rate(const std::vector<bool>& decisions,
                           const std::vector<bool>& labels);

}  // namespace jrf::core
