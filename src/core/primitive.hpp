// Raw-filter primitives (paper Section III-A and III-B).
//
// A primitive inspects the record byte stream one byte per cycle and emits a
// one-cycle fire pulse when its pattern is seen. Three string-matching
// techniques are provided:
//   (i)   dfa       - a DFA accepting .*str.* (one state per prefix length)
//   (ii)  B = N     - exact compare of the last N buffered bytes
//   (iii) B < N     - approximate B-gram matcher: compare the last B bytes
//                     against every B-byte substring, count consecutive
//                     hits, fire at count == N-B+1 (Figure 1)
// Technique (ii) is the B = N special case of (iii), as noted in the paper.
//
// The value primitive runs the number-range token DFA (Section III-B) and
// samples it at every non-token byte.
//
// Each primitive exists twice: a behavioural engine (fast, used for dataset
// evaluation and design-space exploration) and a netlist elaboration (used
// for LUT estimation and cycle-accurate RTL simulation). Equivalence of the
// two is part of the test suite.
#pragma once

#include <cstdint>
#include <memory>
#include <span>
#include <string>
#include <variant>
#include <vector>

#include "core/simd.hpp"
#include "netlist/builders.hpp"
#include "netlist/network.hpp"
#include "numrange/builder.hpp"
#include "numrange/range_spec.hpp"
#include "regex/dfa.hpp"

namespace jrf::core {

enum class string_technique {
  dfa,        // (i)
  substring,  // (iii); block == text size gives (ii)
};

/// Description of a string-search primitive.
struct string_spec {
  string_technique technique = string_technique::substring;
  int block = 1;  // B; ignored for technique::dfa
  std::string text;

  /// Paper notation: s1("temperature"), s11("temperature") for B = N,
  /// dfa("temperature") for technique (i).
  std::string to_string() const;

  /// All distinct B-grams of the search string (paper Table IV).
  std::vector<std::string> substrings() const;

  /// Fire threshold N - B + 1.
  int threshold() const;
};

/// Description of a number-range primitive.
struct value_spec {
  numrange::range_spec range;
  numrange::build_options options;

  std::string to_string() const { return range.to_string(); }
};

using primitive_spec = std::variant<string_spec, value_spec>;

std::string to_string(const primitive_spec& spec);

/// Canonical identity of a primitive spec: two specs with equal keys
/// instantiate engines with identical pulse behaviour (string technique,
/// block length and search text; value range kind and bounds plus the
/// numrange build options, which change the compiled DFA). The query-set
/// compiler dedups engines across resident queries on this key, so one
/// engine's pulses fan out to every subscribing query's decision tree.
std::string spec_key(const primitive_spec& spec);

/// Result of elaborating a primitive into gates.
struct elaborated_primitive {
  netlist::node_id fire = netlist::no_node;  // combinational pulse
};

/// Behavioural engine interface. step() consumes one byte and returns the
/// fire pulse for that byte; the engine matches the elaborated hardware
/// cycle for cycle (including counter wrap behaviour).
///
/// Besides the scalar per-byte path the interface exposes one bulk path,
/// fire_bits, used by the chunked filter engine (core/filter_engine.hpp):
/// the engine's fire pulses over a whole window of the stream as a bitmap,
/// the software form of a primitive pulsing on every byte in parallel.
/// Every engine implements it with word-level scans that skip irrelevant
/// bytes but are pulse-identical to step() by construction.
class primitive_engine {
 public:
  virtual ~primitive_engine() = default;

  /// Return to the power-on state (record boundary).
  virtual void reset() = 0;

  /// Consume one byte; true = fire pulse on this byte.
  virtual bool step(unsigned char byte) = 0;

  /// Fresh engine for another lane: duplicates run state, shares immutable
  /// compiled artifacts (DFA tables, gram sets). The copy starts reset.
  virtual std::unique_ptr<primitive_engine> clone() const = 0;

  /// Bulk path: set bit i of `out` (ceil(window.size() / 64) words, all
  /// written) iff step() pulses on window[i], stepping from the power-on
  /// state at the window start and returning to it after every byte whose
  /// bit is set in `boundary` (the window's record boundaries, so each
  /// record's terminator is stepped as part of it). Exact for every record
  /// that starts the window or follows a boundary and ends at a boundary
  /// in it; bits past the last boundary are unspecified. A pure function
  /// of its arguments - it never touches the step() state - so one engine
  /// serves every lane and plan version at once.
  virtual void fire_bits(std::span<const unsigned char> window,
                         std::span<const std::uint64_t> boundary,
                         std::uint64_t* out) const = 0;

  /// True when this engine's pulses are a pure function of the maximal
  /// numeric-token runs of the record (from the bitmap pass's token map),
  /// letting one shared segmentation replace the engine's own fire_bits
  /// scan. Value engines whose DFA rejects the
  /// empty token qualify; everything else answers false.
  virtual bool run_capable() const { return false; }

  /// The number-range token DFA of a value engine, null for the others. A
  /// run_capable() engine pulses at the end of a maximal token run iff it
  /// accepts the run's bytes (a stream ending mid-token never samples).
  virtual const regex::dfa* token_dfa() const { return nullptr; }

  /// Elaborate into the network. `byte` is the stream input; `record_reset`
  /// is a combinational line that is high on record-boundary bytes. The
  /// fire output is combinational for the byte currently applied.
  virtual elaborated_primitive elaborate(netlist::network& net,
                                         const netlist::bus& byte,
                                         netlist::node_id record_reset,
                                         const std::string& prefix) const = 0;
};

/// Instantiate the engine for a spec. `level` pins the vector tier of the
/// bulk scan (fire_bits); automatic follows the
/// runtime-dispatched host level. step() is always scalar - it models the
/// hardware byte per byte - and the bulk paths are pulse-identical to it
/// at every level.
std::unique_ptr<primitive_engine> make_engine(
    const primitive_spec& spec,
    simd::simd_level level = simd::simd_level::automatic);

}  // namespace jrf::core
