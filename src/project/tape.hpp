// Structural-tape field extraction for accepted records.
//
// The filter already pays for one bitmap_pass per ingest buffer (string
// mask, record boundaries, unmasked structural bytes - core/bitmaps.hpp);
// the projection extractor re-uses exactly those bitmaps to locate the
// queried paths inside an ACCEPTED record without re-parsing a byte:
//
//   * member / element boundaries come from a ctz walk of the structural
//     bitmap restricted to the record's bit range (the same event list the
//     group replay consumes),
//   * string spans (keys and string values) are maximal runs of the string
//     mask - the opening quote starts a run of set bits that ends one past
//     the closing quote, so "find the end of this literal" is a
//     next-clear-bit scan, never a byte walk with an escape automaton,
//   * numbers and literals end at the next structural event of their
//     nesting level.
//
// Rejected records are never touched: the extractor only ever runs inside
// the filter engine's accepted-record hook, so projection's marginal cost
// is proportional to the SELECTIVITY of the query - the paper's Table VIII
// sweep quantifies exactly that (bench/ext_projection.cpp).
//
// The result of one record is one field_ref per path target (offset /
// length / type relative to the record). The tape accumulates those rows
// compactly: fixed-width entries plus an arena holding only the projected
// fields' raw bytes (still escaped, exactly as they arrived) - rejected
// records and unprojected bytes retain nothing. Strings are unescaped ON
// DEMAND (tape::text), byte-identically to json::parse.
//
// Matching semantics (mirrored by the reference extraction in
// tests/project_tape_test.cpp):
//   flat  - first member with the attribute as key, pre-order document
//           order (the key is compared before descending into the value,
//           matching query::eval's flat search),
//   senml - a measurement object matches when it has BOTH an "n" member
//           string-equal to the attribute AND a "v" member; the first
//           matching object to COMPLETE claims the target (objects resolve
//           at their closing brace, so nested matches resolve innermost
//           first - real SenML measurement objects are flat, where this
//           coincides with first-in-document order).
#pragma once

#include <cstdint>
#include <span>
#include <string>
#include <string_view>
#include <vector>

#include "core/bitmaps.hpp"
#include "core/simd.hpp"
#include "project/paths.hpp"

namespace jrf::project {

/// JSON type of an extracted field. `missing` = the record has no such
/// path (the null bitmap of a columnar batch comes from this).
enum class value_type : std::uint8_t {
  missing,
  null,
  boolean,
  number,
  string,
  array,
  object,
};

const char* to_string(value_type t);

/// One extracted field, relative to the record it came from: `offset` /
/// `length` delimit the raw value bytes (strings INCLUDE both quotes;
/// containers include their braces; numbers/literals are trimmed of
/// surrounding whitespace).
struct field_ref {
  std::uint32_t offset = 0;
  std::uint32_t length = 0;
  value_type type = value_type::missing;
};

/// Decode a JSON string BODY (no surrounding quotes) exactly like
/// json::parse: the standard single-character escapes plus \uXXXX encoded
/// as UTF-8 (surrogate halves pass through as two separate code points).
/// Malformed escapes pass through literally instead of failing - the
/// filter may accept byte streams the strict parser would reject.
void unescape_to(std::string_view body, std::string& out);
std::string unescape(std::string_view body);

/// Walks one record's queried paths off the bitmaps of the pass that
/// framed it. One instance per filter lane (it owns reusable scratch);
/// extract() is not re-entrant but distinct instances are independent.
class extractor {
 public:
  explicit extractor(path_set paths,
                     core::simd::simd_level level =
                         core::simd::simd_level::automatic);

  const path_set& paths() const noexcept { return paths_; }

  /// Fill `out` (paths().size() entries) with the record's field refs;
  /// absent paths come back as value_type::missing. `pass` must cover the
  /// record and `offset` is the record's first byte as a bit position in
  /// it - exactly the arguments the filter engine's accepted-record hook
  /// delivers.
  void extract(std::span<const unsigned char> record,
               const core::bitmap_pass& pass, std::size_t offset,
               field_ref* out);

 private:
  struct walk;

  path_set paths_;
  core::simd::simd_level level_;
  bool any_flat_ = false;
  bool any_senml_ = false;
  std::vector<std::uint32_t> senml_ordinals_;  // ordinals of senml targets
  std::vector<std::uint32_t> events_;          // structural scratch
  std::vector<unsigned char> claimed_;         // per-target fill flags
  std::vector<unsigned char> senml_flags_;     // stack of per-object n-flags
  std::vector<std::uint32_t> claims_;          // stack of pending flat claims
  std::string scratch_;                        // unescape scratch
};

/// Fixed-width tape entry: one field of one accepted record. `offset` /
/// `length` reference the tape's byte arena (the retained slice of the
/// ingest buffer); `path` is the ordinal in the extractor's path_set and
/// `record` the caller-assigned record ordinal.
struct tape_entry {
  std::uint64_t record = 0;
  std::uint32_t path = 0;
  std::uint32_t offset = 0;
  std::uint32_t length = 0;
  value_type type = value_type::missing;
};

/// Row-regular accumulation of extracted fields: every accepted record
/// appends exactly path_count entries (missing ones included), so row r,
/// path p is entries()[r * path_count + p]. The arena holds the raw
/// (escaped) field bytes only - the compact handoff format between the
/// filter hot path and columnar batching.
class tape {
 public:
  explicit tape(std::size_t path_count);

  /// Append one record's row. `fields` (path_count refs, extractor output)
  /// reference `record_bytes`; the projected slices are copied into the
  /// arena, nothing else is retained.
  void add_record(std::uint64_t record, std::span<const field_ref> fields,
                  std::span<const unsigned char> record_bytes);

  std::size_t path_count() const noexcept { return path_count_; }
  std::size_t rows() const noexcept {
    return path_count_ == 0 ? 0 : entries_.size() / path_count_;
  }
  const std::vector<tape_entry>& entries() const noexcept { return entries_; }
  const tape_entry& entry(std::size_t row, std::size_t path) const;

  /// Raw field bytes, exactly as they appeared in the input (strings keep
  /// their quotes and escapes). Empty for missing fields.
  std::string_view raw(const tape_entry& e) const;

  /// Textual value: strings are unescaped on demand (quotes stripped);
  /// numbers, literals and containers are their raw input text; missing
  /// fields are empty.
  std::string text(const tape_entry& e) const;

  /// Numeric view: JSON numbers directly, numeric STRINGS via their
  /// unescaped text (SenML carries numbers as strings, Listing 1).
  /// Returns false when the field has no numeric reading.
  bool number(const tape_entry& e, double& out) const;

  void clear();

 private:
  std::size_t path_count_;
  std::vector<tape_entry> entries_;
  std::vector<unsigned char> bytes_;
};

}  // namespace jrf::project
