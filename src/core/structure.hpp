// Structural awareness (paper Section III-C).
//
// The tracker derives three facts from the raw byte stream without parsing:
//
//   string mask    - whether the current byte lies inside a JSON string
//                    literal (escape-aware: \" does not close a string and
//                    \\ does not escape the following quote),
//   nesting level  - a counter incremented on every unmasked '[' or '{' and
//                    decremented on every unmasked ']' or '}',
//   pair boundary  - unmasked ',' (or a closing bracket), the separators
//                    that terminate a key-value pair.
//
// These signals let raw-filter primitives be combined "in the correct
// structural context": a scope group requires its members to fire inside the
// same still-open scope instance, a pair group requires them to fire before
// the same unescaped comma. Both exist as a behavioural engine and as a
// netlist elaboration; equivalence is tested.
#pragma once

#include <algorithm>
#include <string>

#include "netlist/network.hpp"

namespace jrf::core {

/// The unmasked byte classes the tracker reacts to, as standalone
/// predicates - the single definition the bitmap pass (core/bitmaps.hpp),
/// the vector classifiers and their tests restate the tracker's byte
/// classification from.
constexpr bool is_scope_byte(unsigned char b) noexcept {
  return b == '{' || b == '}' || b == '[' || b == ']';
}
constexpr bool is_structural_byte(unsigned char b) noexcept {
  return is_scope_byte(b) || b == ',';
}

/// Facts about the byte just consumed. `depth` is the nesting level *after*
/// the byte took effect, so a primitive firing on a closing bracket (e.g. a
/// number token sampled at '}') is still attributed to the scope that
/// bracket closes via `depth_before`.
struct structure_state {
  bool masked = false;        // byte is string content or a string delimiter
  bool scope_open = false;    // unmasked '{' or '['
  bool scope_close = false;   // unmasked '}' or ']'
  bool pair_boundary = false; // unmasked ',', '}' or ']'
  int depth_before = 0;       // nesting level the byte was read at
  int depth = 0;              // nesting level after the byte
};

/// Behavioural string-mask + nesting tracker; mirrors the elaborated
/// hardware cycle for cycle.
class structure_tracker {
 public:
  /// `depth_bits` bounds the hardware counter; the software model saturates
  /// at the same limit so both sides agree on pathological inputs.
  explicit structure_tracker(int depth_bits = 5);

  void reset();

  /// Defined inline: raw_filter::push and dse/signals call it once per
  /// input byte, and the call overhead would dominate their loops out of
  /// line.
  structure_state step(unsigned char byte) {
    structure_state st;
    st.depth_before = depth_;
    if (in_string_) {
      st.masked = true;
      if (escaped_) {
        escaped_ = false;
      } else if (byte == '\\') {
        escaped_ = true;
      } else if (byte == '"') {
        in_string_ = false;
      }
    } else if (byte == '"') {
      st.masked = true;
      in_string_ = true;
    } else if (byte == '{' || byte == '[') {
      st.scope_open = true;
      depth_ = std::min(depth_ + 1, max_depth_);
    } else if (byte == '}' || byte == ']') {
      st.scope_close = true;
      st.pair_boundary = true;
      depth_ = std::max(depth_ - 1, 0);
    } else if (byte == ',') {
      st.pair_boundary = true;
    }
    st.depth = depth_;
    return st;
  }

  int depth() const noexcept { return depth_; }
  bool in_string() const noexcept { return in_string_; }
  /// Inside a literal with the escape armed: the next byte - whatever it
  /// is - only clears the flag. Lets batched scans that skip
  /// state-irrelevant bytes know the one byte they must not skip.
  bool escaped() const noexcept { return escaped_; }
  int max_depth() const noexcept { return max_depth_; }

 private:
  int depth_bits_;
  int max_depth_;
  bool in_string_ = false;
  bool escaped_ = false;
  int depth_ = 0;
};

/// Elaborated escape-aware string mask (the quote/backslash automaton on
/// its own). Built in two phases because the record-boundary detector
/// derives its reset from the mask's own output: build_string_mask creates
/// the registers and combinational outputs, connect_string_mask attaches
/// the (reset-gated) next-state data afterwards.
struct string_mask_circuit {
  netlist::node_id masked = netlist::no_node;  // byte is string content/delimiter
  netlist::node_id in_string = netlist::no_node;   // register: inside a literal
  netlist::node_id escape = netlist::no_node;      // register: next char escaped
  netlist::node_id in_string_next = netlist::no_node;  // ungated next-state
  netlist::node_id escape_next = netlist::no_node;     // ungated next-state
};

string_mask_circuit build_string_mask(netlist::network& net,
                                      const netlist::bus& byte,
                                      const std::string& prefix);

void connect_string_mask(netlist::network& net, const string_mask_circuit& mask,
                         netlist::node_id record_reset);

/// Elaborated tracker: one instance is shared by all structural groups of a
/// composed filter. It reuses the filter's string mask (`masked`, from
/// build_string_mask) rather than building a second set of in-string
/// registers.
struct structure_circuit {
  netlist::node_id masked = netlist::no_node;
  netlist::node_id scope_open = netlist::no_node;
  netlist::node_id scope_close = netlist::no_node;
  netlist::node_id pair_boundary = netlist::no_node;
  netlist::bus depth;         // nesting level after this byte (registered+delta)
  netlist::bus depth_before;  // registered nesting level the byte was read at
};

structure_circuit elaborate_structure(netlist::network& net,
                                      const netlist::bus& byte,
                                      netlist::node_id masked,
                                      netlist::node_id record_reset,
                                      int depth_bits,
                                      const std::string& prefix);

}  // namespace jrf::core
