// Multi-tenant query registry (PR 8 tentpole).
//
// A query_set holds N resident filter queries and compiles them into ONE
// shared evaluation plan: a single bitmap_pass and framing walk per ingest
// buffer, primitive engines interned by spec_key (identical substring /
// gram / DFA / value specs evaluate once per record and fan their pulses
// out to every subscribing query's decision tree), structural groups
// dedup'd on (kind, member engines), and a per-record decision bitmap -
// one bit per resident query in dense order.
//
// The registry side is deliberately small: stable uint64 ids (monotone,
// never reused) name queries across add/remove, and `revision()` bumps on
// every mutation. Dense order - the order of ids()/queries() - is the bit
// order of the decision bitmaps; removal shifts later queries down one
// slot, which is why consumers pair every decision batch with the id
// snapshot that produced it.
//
// The set owns the live plan: once plan() has compiled it, every add and
// remove applies just that query's delta to it (compiled_layout::insert /
// erase - no recompile of the resident queries), and plan() publishes the
// result as an immutable plan_version that engines and lanes share.
//
// N=1 is the single-query plan: no trie, the query's own plan root -
// byte- and performance-identical to the pre-multi-tenant path.
#pragma once

#include <cstdint>
#include <memory>
#include <optional>
#include <vector>

#include "core/expr.hpp"
#include "core/filter_engine.hpp"

namespace jrf::core {

/// Stable name of one resident query. Monotone per set, never reused.
using query_id = std::uint64_t;

class query_set {
 public:
  query_set() = default;

  /// Register a query; returns its stable id. Throws on null - and, once
  /// plan() has compiled the live plan, on a query it cannot compile - in
  /// both cases leaving the set unchanged.
  query_id add(expr_ptr query);

  /// Drop a query by id; false when the id is not resident.
  bool remove(query_id id);

  std::size_t size() const noexcept { return queries_.size(); }
  bool empty() const noexcept { return queries_.empty(); }
  bool contains(query_id id) const noexcept;

  /// Resident ids, dense order == decision-bitmap bit order. Ascending:
  /// ids are handed out in increasing order and only ever appended.
  const std::vector<query_id>& ids() const noexcept { return ids_; }
  /// Resident expressions, parallel to ids().
  const std::vector<expr_ptr>& queries() const noexcept { return queries_; }
  /// Expression of one resident query; throws when unknown.
  const expr_ptr& query(query_id id) const;
  /// Dense ordinal (bitmap bit) of an id; throws when unknown.
  std::size_t ordinal(query_id id) const;

  /// Bumps on every add/remove. Starts at 0 for the empty set.
  std::uint64_t revision() const noexcept { return revision_; }

  /// Shared plan over the resident queries, compiled from scratch (throws
  /// when empty): engines interned by spec_key with the primitive ->
  /// subscribers fan-out index populated.
  compiled_layout compile(
      simd::simd_level level = simd::simd_level::automatic) const;

  /// The live plan's current version (throws when empty). The first call -
  /// or one at another vector tier - compiles the resident queries; from
  /// then on add/remove keep the plan current incrementally and this only
  /// publishes the latest mutation.
  std::shared_ptr<const plan_version> plan(
      simd::simd_level level = simd::simd_level::automatic);

  /// One engine evaluating every resident query per record (throws when
  /// empty): the chunked kind runs over plan(options.simd). N=1 returns
  /// the plain single-query engine.
  std::unique_ptr<filter_engine> make_engine(engine_kind kind,
                                             filter_options options = {});

 private:
  std::vector<query_id> ids_;      // dense order, ascending
  std::vector<expr_ptr> queries_;  // parallel to ids_
  query_id next_id_ = 1;
  std::uint64_t revision_ = 0;
  std::optional<compiled_layout> live_;  // once plan() compiled it
  simd::simd_level live_level_ = simd::simd_level::automatic;
  std::shared_ptr<const plan_version> published_;  // live_, current
};

}  // namespace jrf::core
