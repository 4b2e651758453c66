// Filter-engine abstraction layer: the software hot path of the repo.
//
// The paper's FPGA consumes one byte per cycle, and core::raw_filter mirrors
// that with a scalar push(byte) loop. A software model serving real traffic
// wants to move whole buffers per call, so this layer splits "what a filter
// decides" from "how bytes reach it":
//
//   * compiled_layout  - the engine complement of one or more filter
//                        expressions (an interned primitive engine pool,
//                        structural groups, a conjunct-prefix plan trie),
//                        compiled incrementally: a query insert or erase
//                        touches only that query's delta.
//   * plan_version     - one immutable cut of a layout, shared by every
//                        chunked lane behind a shared_ptr; engines' bulk
//                        scan (fire_bits) is pure, so lanes share them too.
//   * filter_engine    - abstract streaming interface: scan_chunk() accepts
//                        arbitrary-size byte chunks, per-record decisions
//                        accumulate in decisions(), finish() flushes a
//                        trailing unterminated record, clone() spawns a
//                        fresh lane off the shared compiled query.
//
// Two implementations exist behind make_filter_engine():
//
//   scalar  - steps one raw_filter::push() per resident query, byte per
//             byte, in lockstep; the paper-faithful reference path.
//   chunked - the batched hot path. core::record_framer cuts the stream
//             into 64 KiB windows and frames their records (escape-aware,
//             so separator bytes inside JSON string literals never split a
//             record); each window evaluates every primitive engine once,
//             into one fire bitmap per leaf, and each record is decided
//             from range tests over its bits, the structural groups by one
//             loop each over their members' bitmaps.
//
// Both paths are decision-identical by construction, and the
// core_chunked_equivalence_test suite holds them to it across the
// riotbench queries and all three datasets.
#pragma once

#include <array>
#include <cstdint>
#include <functional>
#include <memory>
#include <span>
#include <string>
#include <string_view>
#include <unordered_map>
#include <vector>

#include "core/expr.hpp"
#include "core/primitive.hpp"
#include "core/simd.hpp"
#include "regex/dfa.hpp"

namespace jrf::core {

class bitmap_pass;

struct filter_options {
  unsigned char separator = '\n';
  int depth_bits = 5;  // structure tracker counter width
  // Vector tier of the bulk scans (framing, gram candidate scans, token
  // runs). automatic follows simd::active_level() - the CPUID probe
  // clamped by JRF_FORCE_SCALAR / JRF_SIMD_LEVEL; an explicit level is
  // clamped to what the CPU supports. Decisions are identical at every
  // level; only wall-clock differs.
  simd::simd_level simd = simd::simd_level::automatic;
};

/// Engine complement of one or more compiled filter expressions. Shared by
/// raw_filter (scalar path) and the chunked engine so both instantiate
/// primitives with the same group membership - and by the multi-tenant
/// query_set, which interns N queries' primitives into one shared engine
/// pool.
///
/// A multi-query layout is persistent and incremental: insert() compiles
/// only the primitives the pool has not interned yet and threads the
/// query's sorted conjunct path into the trie; erase() drops the query's
/// terminal, prunes empty trie nodes and shifts the later dense ordinals -
/// integer work, no recompile. compile_set() is N inserts into an empty
/// layout. Engines no resident query references stay in their pool slot as
/// tombstones (an insert of the same spec revives them without rebuilding
/// a DFA) until they outnumber the live slots, when the layout compacts.
struct compiled_layout {
  struct group_info {
    group_kind kind = group_kind::scope;
    std::vector<std::size_t> members;  // engine indices, member order
  };

  /// Boolean plan of one query over the shared pools: a leaf names an
  /// engine index, a group names a group ordinal. Pre-resolving the
  /// indices lets evaluation short-circuit without a cursor walk over the
  /// expression tree.
  struct plan_node {
    enum class kind { leaf, group, conj, disj };
    kind k = kind::leaf;
    std::size_t index = 0;  // engine index (leaf) or group ordinal (group)
    std::vector<plan_node> children;
  };

  /// One node of the conjunct-prefix plan trie (layouts of two or more
  /// queries only). Each query's root is decomposed into its top-level
  /// conjuncts; conjuncts are canonicalised (interned engine/group indices
  /// make identical sub-plans structurally equal) and sorted, so queries
  /// sharing a conjunct prefix share a trie path - a sub-plan common to K
  /// queries evaluates ONCE per record and its result fans out to K
  /// verdict bits. Sorting the conjuncts of an AND is semantics-preserving
  /// (evaluation is pure), so trie decisions are byte-identical to the
  /// flat per-query walk.
  struct trie_node {
    plan_node conjunct;  // sub-plan this node contributes to the prefix
    /// Engine-fire bitmap words (ceil(engines/64)) an accepting record MUST
    /// have set for this conjunct to hold: a leaf needs its engine, a group
    /// every member (a member that never pulses can never latch), a
    /// conjunction the union of its children. Disjunctions contribute
    /// nothing (conservative). `(fired & required) == required` failing
    /// prunes this node AND every query below it without touching eval().
    std::vector<std::uint64_t> required;
    /// True when the conjunct is leaves/ANDs only (no group, no
    /// disjunction): then "all required engines fired" IS the conjunct's
    /// truth and a passing mask test needs no eval() at all.
    bool pure = false;
    std::vector<std::size_t> children;  // trie indices
    /// Queries whose conjunct list ends here (ordinals, ascending), plus
    /// their verdict fan-out precomputed as (word index, bit mask) pairs so
    /// a satisfied terminal ORs whole words into the record's bitmap row.
    std::vector<std::uint32_t> terminals;
    std::vector<std::pair<std::uint32_t, std::uint64_t>> fanout;
  };

  /// Pool slots. A multi-query layout's slots are stable across insert()
  /// and erase() until a compaction renumbers them.
  std::vector<std::shared_ptr<const primitive_engine>> engines;
  std::vector<std::string> engine_keys;   // spec_key each
  std::vector<group_info> groups;         // group order
  std::vector<std::size_t> bare_engines;  // bare-leaf cursor -> engine index
  std::vector<plan_node> roots;           // one plan per query
  /// engine index -> ordinals (ascending) of the queries whose plan
  /// references it (directly or through a group). The fan-out index of the
  /// dedup story: one engine's fire pulses feed every subscriber's decision
  /// tree. An empty list marks a tombstone.
  std::vector<std::vector<std::size_t>> engine_subscribers;
  /// Conjunct-prefix trie over `roots` (two or more queries; empty for
  /// single-query layouts). trie_roots indexes the first-level nodes;
  /// slots a prune freed stay empty and unreachable until an insert
  /// reuses them.
  std::vector<trie_node> trie;
  std::vector<std::size_t> trie_roots;

  /// Empty multi-query layout whose engines scan at `level`.
  explicit compiled_layout(
      simd::simd_level level = simd::simd_level::automatic);

  std::size_t query_count() const noexcept { return roots.size(); }

  /// Engine and group slots no resident query references.
  std::size_t tombstones() const noexcept {
    return dead_engines_ + dead_groups_;
  }

  /// The paper's single-query circuit: one engine per leaf occurrence, in
  /// leaf order, with the bare-leaf cursor raw_filter steps (throws on
  /// null/invalid). `level` pins the vector tier of the engines' bulk
  /// scans (automatic = the runtime-dispatched host level).
  static compiled_layout compile(
      const filter_expr& root,
      simd::simd_level level = simd::simd_level::automatic);

  /// Multi-query compile: insert() every query into an empty layout, so
  /// identical substring/gram/DFA/value specs across the set evaluate ONCE
  /// per record and fan out to each subscribing plan. Structural groups
  /// dedup on (kind, member engine indices) the same way. bare_engines
  /// stays empty - the scalar cursor walk is a single-query concept.
  static compiled_layout compile_set(
      std::span<const expr_ptr> queries,
      simd::simd_level level = simd::simd_level::automatic);

  /// Append `query` at dense ordinal query_count() and return it. Builds
  /// engines only for specs the pool has not interned (a tombstone of the
  /// same spec is revived). Throws on a null/invalid query and then
  /// leaves the layout unchanged.
  std::size_t insert(expr_ptr query);

  /// Remove the query at `ordinal`; every later query moves down one
  /// ordinal. Compacts the pool once tombstones pass the threshold.
  void erase(std::size_t ordinal);

 private:
  friend struct plan_version;
  using donor_pool =
      std::unordered_map<std::string, std::shared_ptr<const primitive_engine>>;

  /// One trie node's place in the trie: its parent (npos = first level),
  /// its conjunct signature, and its children by signature.
  struct trie_link {
    std::size_t parent = 0;
    std::string sig;
    std::unordered_map<std::string, std::size_t> children;
  };

  std::size_t insert(expr_ptr query, const donor_pool* donor);
  std::size_t add_engine(std::shared_ptr<const primitive_engine> engine,
                         std::string key);
  void grant_run_bit(std::size_t slot);
  void trie_insert(std::size_t q);
  std::size_t trie_node_for(std::size_t parent, std::string&& sig,
                            const plan_node& conjunct);
  void trie_prune(std::size_t node);
  void compact();

  simd::simd_level level_;
  std::vector<expr_ptr> sources_;  // per query, for compaction
  std::unordered_map<std::string, std::size_t> engine_index_;  // key -> slot
  std::unordered_map<std::string, std::size_t> group_index_;   // key -> slot
  std::vector<std::uint32_t> group_refs_;  // plan references; 0 = tombstone
  std::size_t dead_engines_ = 0;
  std::size_t dead_groups_ = 0;
  // Token-run verdict bits: a live run-capable engine holds one of 64 bits
  // (the lowest free one when it is created or revived); a tombstone gives
  // its bit back, and a freed bit goes to a live engine still without one.
  std::vector<char> run_capable_;  // per slot: holds a bit
  std::vector<std::size_t> run_slot_;
  std::uint64_t free_run_bits_ = ~std::uint64_t{0};
  std::vector<trie_link> links_;  // parallel to trie
  std::unordered_map<std::string, std::size_t> root_links_;
  std::vector<std::size_t> terminal_of_;  // ordinal -> trie node
  std::vector<std::size_t> free_nodes_;   // pruned trie slots

  // insert()'s scratch, kept so compile_set's N inserts allocate once:
  // each primitive's key, its pooled slot (npos when fresh) and, for the
  // first fresh use, its engine; and the sorted conjunct signatures.
  struct keyed_spec {
    std::string key;
    std::size_t pooled;
    std::shared_ptr<const primitive_engine> made;
  };
  std::vector<keyed_spec> specs_;
  std::vector<std::pair<std::string, const plan_node*>> conjuncts_;
};

/// One immutable version of a multi-query compiled_layout: exactly what a
/// chunked lane reads per record. Every lane shares one version behind a
/// shared_ptr; a runtime add/remove publishes a new version, and a lane
/// that has not swapped yet keeps reading the old one. Engines are shared
/// with the layout and every other version (their bulk scans are pure).
struct plan_version {
  explicit plan_version(const compiled_layout& layout);

  std::vector<std::shared_ptr<const primitive_engine>> engines;  // slots
  std::vector<std::uint32_t> live;    // slots a resident query references
  std::vector<char> run_capable;      // per slot: answers from token runs
  std::vector<std::size_t> run_slot;  // per slot: run verdict mask bit
  /// Run verdict bits in use, and the token DFA answering each (null
  /// when free). Only live engines hold bits.
  std::uint64_t run_bits = 0;
  std::array<const regex::dfa*, 64> run_dfas{};
  std::vector<compiled_layout::group_info> groups;
  compiled_layout::plan_node root;    // the plan, when queries == 1
  std::vector<compiled_layout::trie_node> trie;  // queries > 1
  std::vector<std::size_t> trie_roots;
  std::size_t queries = 0;
  expr_ptr front;  // first resident query
};

/// Abstract streaming filter lane. Decisions follow raw_filter semantics:
/// one decision per non-empty record, records separated by an unmasked
/// separator byte, all state reset at the boundary.
///
/// Multi-tenant surface: an engine built over N > 1 queries (the
/// make_filter_engine overload taking a query vector) evaluates every
/// resident query per record. decisions() then holds the any-match verdict
/// and decision_words() the per-record decision bitmap - words_per_record()
/// little-endian words per record, bit q set iff query q (dense order of
/// the query vector) accepted. Single-query engines (query_count() == 1)
/// never emit decision_words: they are byte- and performance-identical to
/// the pre-multi-tenant engines.
class filter_engine {
 public:
  virtual ~filter_engine() = default;

  /// Drop all run state (and any buffered partial record); decisions()
  /// already emitted are kept.
  virtual void reset() = 0;

  /// Consume the next chunk of the stream. Chunk boundaries are arbitrary:
  /// records may split anywhere, including mid-token or mid-escape. The
  /// chunked implementation buffers an in-flight record until its boundary
  /// arrives, so memory is O(longest record) (the scalar path is O(1));
  /// reset() drops the buffer.
  virtual void scan_chunk(std::span<const unsigned char> chunk) = 0;
  void scan_chunk(std::string_view chunk) {
    scan_chunk(std::span<const unsigned char>{
        reinterpret_cast<const unsigned char*>(chunk.data()), chunk.size()});
  }

  /// Flush a trailing record that lacks its final separator (no-op when the
  /// stream ended exactly on a boundary).
  virtual void finish() = 0;

  /// Decision for one standalone record, terminator supplied internally.
  /// Restarts the stream (identical to raw_filter::accepts). Multi-query
  /// engines answer the any-match verdict.
  virtual bool accepts(std::string_view record) = 0;

  /// Multi-query accepts: fill `words` (words_per_record() entries, may be
  /// null) with the record's decision bitmap and return the any-match
  /// verdict (bit 0 is the query of a single-query engine).
  virtual bool accepts_bits(std::string_view record, std::uint64_t* words) = 0;

  /// Fresh engine for another lane: duplicates run state only, sharing the
  /// compiled query (expression tree, DFA tables, gram sets).
  virtual std::unique_ptr<filter_engine> clone() const = 0;

  /// Live-swap support for runtime query add/remove: evaluate every record
  /// decided from now on against `plan`, keeping the stream position (the
  /// framer's in-flight record decides under the new plan), the hook and
  /// the size telemetry; the lane's numeral automaton is dropped, to be
  /// rebuilt lazily over the new plan's value leaves. Take the accumulated
  /// decisions first - the bitmap row width follows the new query count.
  /// The scalar byte paths, whose primitives hold partial-match registers
  /// per query, throw jrf::error.
  virtual void swap_plan(std::shared_ptr<const plan_version> plan);

  /// reset + scan + finish; identical to raw_filter::filter_stream.
  std::vector<bool> filter_stream(std::string_view stream);

  /// Opt-in framing telemetry: when enabled, both engines append the byte
  /// length of every record they decide - the bytes since the previous
  /// boundary, separator excluded (parallel to decisions(), same
  /// skip-empty-records rule). Every system::sharded_filter_system lane
  /// enables it; the api layer's system backend deals these sizes
  /// round-robin over its modelled Figure-4 lanes instead of re-framing
  /// the stream itself.
  void collect_record_sizes(bool on) {
    sizes_enabled_ = on;
    record_sizes_.clear();
  }
  std::vector<std::uint32_t> take_record_sizes() {
    std::vector<std::uint32_t> out;
    out.swap(record_sizes_);
    return out;
  }

  /// Per-record decisions accumulated since the last clear (any-match for
  /// multi-query engines).
  const std::vector<bool>& decisions() const noexcept { return decisions_; }
  std::vector<bool> take_decisions() {
    std::vector<bool> out;
    out.swap(decisions_);
    return out;
  }
  void clear_decisions() {
    decisions_.clear();
    decision_words_.clear();
  }

  /// Resident queries (a single-query engine reports one).
  std::size_t query_count() const noexcept { return query_count_; }
  /// Bitmap words per record: ceil(query_count / 64).
  std::size_t words_per_record() const noexcept {
    return (query_count_ + 63) / 64;
  }

  /// Per-record decision bitmaps, words_per_record() words per record,
  /// parallel to decisions(). Populated ONLY by multi-query engines
  /// (query_count() > 1); single-query engines leave it empty.
  const std::vector<std::uint64_t>& decision_words() const noexcept {
    return decision_words_;
  }
  std::vector<std::uint64_t> take_decision_words() {
    std::vector<std::uint64_t> out;
    out.swap(decision_words_);
    return out;
  }

  /// Decision column of query `q` over the accumulated records: the
  /// bitmap bit for multi-query engines, decisions() itself for q == 0 on
  /// a single-query engine.
  std::vector<bool> decision_column(std::size_t q) const;

  /// Opt-in projection surface: called for every ACCEPTED record of the
  /// stream (any-match on multi-query engines), in record order and
  /// synchronously WITHIN the scan_chunk()/finish() call that decided the
  /// record - in-chunk records fire batched at the end of their scan (the
  /// walks run back-to-back, cache-warm, instead of interleaved with
  /// record evaluation), carried records at their decision. Either way
  /// every fire precedes take_decisions() for that record.
  /// `ordinal` counts every decided record of this engine's stream -
  /// accepted or not - so the hook can index parallel decision storage;
  /// `record` is the record's bytes, `pass` the structural bitmap pass
  /// covering it and `pass_offset` the record's first byte as a bit
  /// position in that pass (the exact arguments project::extractor wants).
  /// The pass and record are only valid for the duration of the call.
  /// Stream-decision paths only - accepts()/accepts_bits() probes never
  /// fire it. clone() does NOT carry the hook (a fresh lane starts bare).
  /// Implemented by the chunked engine; the scalar byte paths throw
  /// jrf::error (they never materialise a bitmap pass).
  using accepted_hook =
      std::function<void(std::uint64_t ordinal,
                         std::span<const unsigned char> record,
                         const bitmap_pass& pass, std::size_t pass_offset)>;
  virtual void set_accepted_hook(accepted_hook hook);
  const accepted_hook& accepted_record_hook() const noexcept { return hook_; }

  const expr_ptr& expression() const noexcept { return expr_; }
  const filter_options& options() const noexcept { return options_; }

 protected:
  /// `first` is the first of `queries` resident queries.
  filter_engine(expr_ptr first, std::size_t queries, filter_options options);

  expr_ptr expr_;  // the first resident query
  std::size_t query_count_;
  filter_options options_;
  std::vector<bool> decisions_;
  std::vector<std::uint64_t> decision_words_;
  bool sizes_enabled_ = false;
  std::vector<std::uint32_t> record_sizes_;
  accepted_hook hook_;  // empty unless set_accepted_hook installed one
};

enum class engine_kind {
  scalar,   // byte-at-a-time raw_filter::push, paper-faithful
  chunked,  // batched framing + bulk record evaluation
};

const char* to_string(engine_kind kind);

std::unique_ptr<filter_engine> make_filter_engine(engine_kind kind,
                                                  expr_ptr expr,
                                                  filter_options options = {});

/// Multi-tenant overload: one engine evaluating every query of the set per
/// record (shared framing, engines interned by spec_key, per-record
/// decision bitmaps). A one-element vector compiles to exactly the
/// single-query engine above - N=1 is byte- and performance-identical to
/// the pre-multi-tenant path by construction.
std::unique_ptr<filter_engine> make_filter_engine(
    engine_kind kind, std::vector<expr_ptr> queries,
    filter_options options = {});

/// A chunked engine over an already published plan version (query_set's
/// live plan): no compile at all.
std::unique_ptr<filter_engine> make_filter_engine(
    std::shared_ptr<const plan_version> plan, filter_options options = {});

}  // namespace jrf::core
