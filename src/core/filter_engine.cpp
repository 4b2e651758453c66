#include "core/filter_engine.hpp"

#include <algorithm>
#include <bit>

#include "core/bitmaps.hpp"
#include "core/framer.hpp"
#include "core/numeral_automaton.hpp"
#include "core/raw_filter.hpp"
#include "core/structure.hpp"
#include "numrange/builder.hpp"
#include "util/error.hpp"

namespace jrf::core {

namespace {

using plan_node = compiled_layout::plan_node;

/// Lower one expression onto a layout's pools - the one compiler behind
/// both layouts. `engine(spec, bare)` names the engine slot of a primitive
/// (bare: a leaf rather than a group member), `group(kind, members)` the
/// group slot over member engine slots.
template <typename Engine, typename Group>
plan_node lower(const filter_expr& e, Engine& engine, Group& group) {
  plan_node node;
  switch (e.kind) {
    case expr_kind::primitive:
      node.k = plan_node::kind::leaf;
      node.index = engine(e.prim, true);
      break;
    case expr_kind::group: {
      std::vector<std::size_t> members;
      members.reserve(e.members.size());
      for (const primitive_spec& m : e.members)
        members.push_back(engine(m, false));
      node.k = plan_node::kind::group;
      node.index = group(e.group, std::move(members));
      break;
    }
    case expr_kind::conjunction:
    case expr_kind::disjunction:
      node.k = e.kind == expr_kind::conjunction ? plan_node::kind::conj
                                                : plan_node::kind::disj;
      node.children.reserve(e.children.size());
      for (const expr_ptr& child : e.children)
        node.children.push_back(lower(*child, engine, group));
      break;
  }
  return node;
}

/// Every primitive spec of `e`, in lower()'s visit order.
template <typename Fn>
void for_each_spec(const filter_expr& e, Fn& fn) {
  switch (e.kind) {
    case expr_kind::primitive:
      fn(e.prim);
      break;
    case expr_kind::group:
      for (const primitive_spec& m : e.members) fn(m);
      break;
    case expr_kind::conjunction:
    case expr_kind::disjunction:
      for (const expr_ptr& child : e.children) for_each_spec(*child, fn);
      break;
  }
}

/// fn(slot, is_group) for every engine and group occurrence of a plan, a
/// group's members included.
template <typename Fn>
void for_each_slot(const compiled_layout& layout, const plan_node& node,
                   Fn& fn) {
  switch (node.k) {
    case plan_node::kind::leaf:
      fn(node.index, false);
      break;
    case plan_node::kind::group:
      fn(node.index, true);
      for (const std::size_t m : layout.groups[node.index].members)
        fn(m, false);
      break;
    case plan_node::kind::conj:
    case plan_node::kind::disj:
      for (const plan_node& child : node.children)
        for_each_slot(layout, child, fn);
      break;
  }
}

/// Canonical signature of a plan sub-tree. Interning already maps identical
/// primitive specs / groups to identical indices, so two structurally equal
/// sub-plans across queries produce the same signature string.
void plan_signature(const plan_node& node, std::string& out) {
  switch (node.k) {
    case plan_node::kind::leaf:
      out += 'l';
      out += std::to_string(node.index);
      break;
    case plan_node::kind::group:
      out += 'g';
      out += std::to_string(node.index);
      break;
    case plan_node::kind::conj:
    case plan_node::kind::disj:
      out += node.k == plan_node::kind::conj ? 'c' : 'd';
      out += '(';
      for (const plan_node& child : node.children) {
        plan_signature(child, out);
        out += ',';
      }
      out += ')';
      break;
  }
}

/// Union the engines whose firing is NECESSARY for `node` to hold into the
/// fired-bitmap mask: a leaf needs its engine, a group every member, a
/// conjunction its children's union. A disjunction needs only the engines
/// required by EVERY branch - approximated as none (conservative: the mask
/// test may pass and eval() still answer false, never the reverse).
void required_engines(const compiled_layout& layout, const plan_node& node,
                      std::vector<std::uint64_t>& mask) {
  switch (node.k) {
    case plan_node::kind::leaf:
      mask[node.index / 64] |= std::uint64_t{1} << (node.index % 64);
      break;
    case plan_node::kind::group:
      for (const std::size_t m : layout.groups[node.index].members)
        mask[m / 64] |= std::uint64_t{1} << (m % 64);
      break;
    case plan_node::kind::conj:
      for (const plan_node& child : node.children)
        required_engines(layout, child, mask);
      break;
    case plan_node::kind::disj:
      break;
  }
}

bool plan_is_pure(const plan_node& node) {
  if (node.k == plan_node::kind::leaf) return true;
  if (node.k != plan_node::kind::conj) return false;
  for (const plan_node& child : node.children)
    if (!plan_is_pure(child)) return false;
  return true;
}

/// Rebuild a trie node's verdict fan-out from its (ascending) terminals.
void refresh_fanout(compiled_layout::trie_node& node) {
  node.fanout.clear();
  for (const std::uint32_t q : node.terminals) {
    const std::uint32_t word = q / 64;
    const std::uint64_t bit = std::uint64_t{1} << (q % 64);
    if (node.fanout.empty() || node.fanout.back().first != word)
      node.fanout.emplace_back(word, bit);
    else
      node.fanout.back().second |= bit;
  }
}

constexpr std::size_t npos = ~std::size_t{0};
/// Compaction runs once tombstones pass this floor AND outnumber the live
/// slots, so the dead never take more than half the pool beyond the floor.
/// The floor lets a small resident set churning through a bounded pool of
/// specs (a few queries plus rotating tenants) keep every spec revivable:
/// at 8, such a set compacted every few swaps and rebuilt a DFA on most
/// adds.
constexpr std::size_t kCompactionFloor = 64;

}  // namespace

compiled_layout::compiled_layout(simd::simd_level level) : level_(level) {}

std::size_t compiled_layout::add_engine(
    std::shared_ptr<const primitive_engine> engine, std::string key) {
  const std::size_t idx = engines.size();
  engines.push_back(std::move(engine));
  engine_keys.push_back(std::move(key));
  engine_subscribers.emplace_back();
  run_capable_.push_back(0);
  run_slot_.push_back(0);
  grant_run_bit(idx);
  // A pool crossing a 64-engine boundary widens every trie mask.
  if (idx % 64 == 0 && idx > 0)
    for (trie_node& node : trie) node.required.resize(idx / 64 + 1, 0);
  return idx;
}

void compiled_layout::grant_run_bit(std::size_t slot) {
  if (run_capable_[slot] || free_run_bits_ == 0 ||
      !engines[slot]->run_capable())
    return;
  const auto bit = static_cast<std::size_t>(std::countr_zero(free_run_bits_));
  free_run_bits_ &= free_run_bits_ - 1;
  run_capable_[slot] = 1;
  run_slot_[slot] = bit;
}

compiled_layout compiled_layout::compile(const filter_expr& root,
                                         simd::simd_level level) {
  compiled_layout layout(level);
  auto engine = [&](const primitive_spec& spec, bool bare) {
    const std::size_t idx =
        layout.add_engine(make_engine(spec, level), spec_key(spec));
    layout.engine_subscribers[idx].push_back(0);
    if (bare) layout.bare_engines.push_back(idx);
    return idx;
  };
  auto group = [&](group_kind kind, std::vector<std::size_t> members) {
    layout.groups.push_back({kind, std::move(members)});
    layout.group_refs_.push_back(1);
    return layout.groups.size() - 1;
  };
  layout.roots.push_back(lower(root, engine, group));
  return layout;
}

compiled_layout compiled_layout::compile_set(std::span<const expr_ptr> queries,
                                             simd::simd_level level) {
  if (queries.empty()) throw error("compile_set: empty query set");
  compiled_layout layout(level);
  layout.roots.reserve(queries.size());
  layout.sources_.reserve(queries.size());
  for (const expr_ptr& query : queries) layout.insert(query);
  return layout;
}

std::size_t compiled_layout::insert(expr_ptr query) {
  return insert(std::move(query), nullptr);
}

std::size_t compiled_layout::insert(expr_ptr query, const donor_pool* donor) {
  if (!query) throw error("compiled layout: null query expression");
  // Phase 1 - everything that can throw: key every primitive and build the
  // engines the pool lacks (from the donor pool when compacting). The
  // layout is untouched until all of them exist.
  std::vector<keyed_spec>& specs = specs_;
  specs.clear();
  auto make = [&](const primitive_spec& spec) {
    keyed_spec k{spec_key(spec), npos, nullptr};
    if (const auto it = engine_index_.find(k.key); it != engine_index_.end()) {
      k.pooled = it->second;
    } else if (std::none_of(specs.begin(), specs.end(), [&](const keyed_spec& o) {
                 return o.key == k.key;
               })) {
      if (donor != nullptr) {
        const auto given = donor->find(k.key);
        if (given != donor->end()) k.made = given->second;
      }
      if (!k.made) k.made = make_engine(spec, level_);
    }
    specs.push_back(std::move(k));
  };
  for_each_spec(*query, make);

  // Phase 2 - intern: lower() visits the specs in phase 1's order.
  const std::size_t q = roots.size();
  std::size_t cursor = 0;
  auto engine = [&](const primitive_spec&, bool) {
    keyed_spec& k = specs[cursor++];
    std::size_t idx = k.pooled;
    if (idx != npos) {
      if (engine_subscribers[idx].empty()) {  // revive
        --dead_engines_;
        grant_run_bit(idx);
      }
    } else if (k.made) {
      idx = add_engine(std::move(k.made), k.key);
      engine_index_.emplace(std::move(k.key), idx);
    } else {
      idx = engine_index_.at(k.key);  // a repeat within this query
    }
    std::vector<std::size_t>& subs = engine_subscribers[idx];
    if (subs.empty() || subs.back() != q) subs.push_back(q);
    return idx;
  };
  auto group = [&](group_kind kind, std::vector<std::size_t> members) {
    // Groups dedup on (kind, member engine indices): two queries with the
    // same structural clause share one tracker replay per record.
    std::string key(kind == group_kind::scope ? "s" : "p");
    for (const std::size_t m : members) {
      key += ':';
      key += std::to_string(m);
    }
    const auto [it, fresh] = group_index_.try_emplace(std::move(key),
                                                      groups.size());
    if (fresh) {
      groups.push_back({kind, std::move(members)});
      group_refs_.push_back(0);
    } else if (group_refs_[it->second] == 0) {
      --dead_groups_;  // revive
    }
    ++group_refs_[it->second];
    return it->second;
  };
  roots.push_back(lower(*query, engine, group));
  sources_.push_back(std::move(query));
  specs.clear();
  // One query needs no trie; the second threads both paths.
  if (roots.size() == 2) trie_insert(0);
  if (roots.size() >= 2) trie_insert(q);
  return q;
}

std::size_t compiled_layout::trie_node_for(std::size_t parent,
                                           std::string&& sig,
                                           const plan_node& conjunct) {
  auto& map = parent == npos ? root_links_ : links_[parent].children;
  if (const auto it = map.find(sig); it != map.end()) return it->second;
  std::size_t idx;
  if (free_nodes_.empty()) {
    idx = trie.size();
    trie.emplace_back();
    links_.emplace_back();
  } else {
    idx = free_nodes_.back();
    free_nodes_.pop_back();
  }
  trie_node& node = trie[idx];
  node.conjunct = conjunct;
  node.required.assign((engines.size() + 63) / 64, 0);
  required_engines(*this, conjunct, node.required);
  node.pure = plan_is_pure(conjunct);
  (parent == npos ? trie_roots : trie[parent].children).push_back(idx);
  (parent == npos ? root_links_ : links_[parent].children).emplace(sig, idx);
  links_[idx].parent = parent;
  links_[idx].sig = std::move(sig);
  return idx;
}

void compiled_layout::trie_insert(std::size_t q) {
  const plan_node& root = roots[q];
  std::vector<std::pair<std::string, const plan_node*>>& conjuncts =
      conjuncts_;
  conjuncts.clear();
  if (root.k == plan_node::kind::conj && !root.children.empty()) {
    for (const plan_node& child : root.children) {
      std::string sig;
      plan_signature(child, sig);
      conjuncts.emplace_back(std::move(sig), &child);
    }
  } else {
    std::string sig;
    plan_signature(root, sig);
    conjuncts.emplace_back(std::move(sig), &root);
  }
  // Sorting an AND's conjuncts is semantics-preserving (evaluation is
  // pure) and maximises shared prefixes across queries.
  std::sort(conjuncts.begin(), conjuncts.end(),
            [](const auto& a, const auto& b) { return a.first < b.first; });
  std::size_t node = npos;
  for (auto& [sig, conjunct] : conjuncts)
    node = trie_node_for(node, std::move(sig), *conjunct);
  conjuncts.clear();
  // q is the largest resident ordinal, so terminals stay ascending and
  // its bit lands in the last fan-out word or opens the next one.
  trie_node& t = trie[node];
  t.terminals.push_back(static_cast<std::uint32_t>(q));
  const auto word = static_cast<std::uint32_t>(q / 64);
  const std::uint64_t bit = std::uint64_t{1} << (q % 64);
  if (t.fanout.empty() || t.fanout.back().first != word)
    t.fanout.emplace_back(word, bit);
  else
    t.fanout.back().second |= bit;
  terminal_of_.push_back(node);
}

void compiled_layout::trie_prune(std::size_t node) {
  while (node != npos && trie[node].terminals.empty() &&
         trie[node].children.empty()) {
    const std::size_t parent = links_[node].parent;
    auto& siblings = parent == npos ? trie_roots : trie[parent].children;
    siblings.erase(std::find(siblings.begin(), siblings.end(), node));
    (parent == npos ? root_links_ : links_[parent].children)
        .erase(links_[node].sig);
    trie[node] = trie_node{};
    links_[node] = trie_link{};
    free_nodes_.push_back(node);
    node = parent;
  }
}

void compiled_layout::erase(std::size_t ordinal) {
  if (ordinal >= roots.size())
    throw error("compiled layout: erase of an unknown ordinal");
  const std::size_t q = ordinal;
  // Drop the query's references: its subscriptions and group uses. A slot
  // left with none is a tombstone and gives back its run verdict bit.
  bool freed_bit = false;
  auto release = [&](std::size_t slot, bool is_group) {
    if (is_group) {
      if (--group_refs_[slot] == 0) ++dead_groups_;
      return;
    }
    std::vector<std::size_t>& subs = engine_subscribers[slot];
    const auto it = std::lower_bound(subs.begin(), subs.end(), q);
    if (it == subs.end() || *it != q) return;  // released already
    subs.erase(it);
    if (!subs.empty()) return;
    ++dead_engines_;
    if (run_capable_[slot]) {
      run_capable_[slot] = 0;
      free_run_bits_ |= std::uint64_t{1} << run_slot_[slot];
      freed_bit = true;
    }
  };
  for_each_slot(*this, roots[q], release);
  // A freed bit goes to a live run-capable engine that had to do without.
  if (freed_bit)
    for (std::size_t e = 0; e < engines.size(); ++e)
      if (!engine_subscribers[e].empty()) grant_run_bit(e);
  // Later queries move down one ordinal: subscriber lists and trie
  // terminals shift, and the fan-out words follow.
  for (std::vector<std::size_t>& subs : engine_subscribers)
    for (auto it = std::upper_bound(subs.begin(), subs.end(), q);
         it != subs.end(); ++it)
      --*it;
  if (roots.size() == 2) {
    // One query left: single-query layouts carry no trie.
    trie.clear();
    trie_roots.clear();
    links_.clear();
    root_links_.clear();
    terminal_of_.clear();
    free_nodes_.clear();
  } else if (!trie.empty()) {
    const std::size_t node = terminal_of_[q];
    std::vector<std::uint32_t>& terms = trie[node].terminals;
    terms.erase(std::lower_bound(terms.begin(), terms.end(),
                                 static_cast<std::uint32_t>(q)));
    refresh_fanout(trie[node]);
    trie_prune(node);
    terminal_of_.erase(terminal_of_.begin() +
                       static_cast<std::ptrdiff_t>(q));
    for (trie_node& t : trie) {
      if (t.terminals.empty() || t.terminals.back() < q) continue;
      for (auto it = std::upper_bound(t.terminals.begin(), t.terminals.end(),
                                      static_cast<std::uint32_t>(q));
           it != t.terminals.end(); ++it)
        --*it;
      refresh_fanout(t);
    }
  }
  roots.erase(roots.begin() + static_cast<std::ptrdiff_t>(q));
  sources_.erase(sources_.begin() + static_cast<std::ptrdiff_t>(q));
  if (tombstones() > kCompactionFloor &&
      2 * tombstones() > engines.size() + groups.size())
    compact();
}

void compiled_layout::compact() {
  // Re-insert the resident queries into an empty layout. The live engines
  // move over by spec key, so no DFA is rebuilt; slots, groups and the
  // trie come out dense, exactly as a from-scratch compile_set lays them.
  donor_pool donor;
  for (std::size_t e = 0; e < engines.size(); ++e)
    if (!engine_subscribers[e].empty()) donor.emplace(engine_keys[e], engines[e]);
  compiled_layout fresh(level_);
  fresh.roots.reserve(sources_.size());
  fresh.sources_.reserve(sources_.size());
  for (const expr_ptr& query : sources_) fresh.insert(query, &donor);
  *this = std::move(fresh);
}

plan_version::plan_version(const compiled_layout& layout)
    : engines(layout.engines),
      run_capable(layout.run_capable_),
      run_slot(layout.run_slot_),
      groups(layout.groups),
      trie(layout.trie),
      trie_roots(layout.trie_roots),
      queries(layout.query_count()) {
  for (std::size_t e = 0; e < engines.size(); ++e) {
    if (layout.engine_subscribers[e].empty()) continue;
    live.push_back(static_cast<std::uint32_t>(e));
    if (!run_capable[e]) continue;
    run_bits |= std::uint64_t{1} << run_slot[e];
    run_dfas[run_slot[e]] = engines[e]->token_dfa();
  }
  for (const compiled_layout::group_info& g : groups)
    max_members = std::max(max_members, g.members.size());
  if (queries == 1) root = layout.roots.front();
  if (!layout.sources_.empty()) front = layout.sources_.front();
}

filter_engine::filter_engine(expr_ptr first, std::size_t queries,
                             filter_options options)
    : expr_(std::move(first)), query_count_(queries), options_(options) {
  if (query_count_ == 0) throw error("filter engine: empty query set");
  if (!expr_) throw error("filter engine: null expression");
}

void filter_engine::swap_plan(std::shared_ptr<const plan_version>) {
  throw error("filter engine: this engine cannot swap its plan in flight "
              "(scalar byte paths hold partial-match state inside their "
              "primitives) - runtime query add/remove needs the chunked "
              "engine");
}

void filter_engine::set_accepted_hook(accepted_hook) {
  throw error("filter engine: this engine cannot surface accepted records "
              "(the scalar byte paths never materialise a bitmap pass) - "
              "projection needs the chunked engine");
}

std::vector<bool> filter_engine::decision_column(std::size_t q) const {
  if (q >= query_count_)
    throw error("filter engine: query ordinal out of range");
  if (query_count_ == 1) return decisions_;
  const std::size_t wpr = words_per_record();
  const std::size_t records = decision_words_.size() / wpr;
  std::vector<bool> out;
  out.reserve(records);
  for (std::size_t r = 0; r < records; ++r)
    out.push_back((decision_words_[r * wpr + q / 64] >> (q % 64)) & 1);
  return out;
}

std::vector<bool> filter_engine::filter_stream(std::string_view stream) {
  reset();
  clear_decisions();
  scan_chunk(stream);
  finish();
  return take_decisions();
}

const char* to_string(engine_kind kind) {
  return kind == engine_kind::scalar ? "scalar" : "chunked";
}

namespace {

// ---------------------------------------------------------------------------
// Scalar engine: the paper-faithful reference. One raw_filter per resident
// query, each pushed one byte at a time, stepped in lockstep. Framing is
// query-independent (the separator/string-literal automaton never consults
// the expression), so every filter reports the same record boundaries and
// filter 0's boundary decides for all of them. No engine dedup here - the
// chunked multi-query path is tested against this one, so it deliberately
// models N independent byte pipelines. N = 1 is the degenerate case: no
// decision words, exactly like the chunked engine.
// ---------------------------------------------------------------------------

class scalar_filter_engine final : public filter_engine {
 public:
  scalar_filter_engine(const std::vector<expr_ptr>& queries,
                       filter_options options)
      : filter_engine(queries.empty() ? nullptr : queries.front(),
                      queries.size(), options) {
    filters_.reserve(queries.size());
    for (const expr_ptr& q : queries) filters_.emplace_back(q, options);
  }

  void reset() override {
    for (raw_filter& f : filters_) f.reset();
    pending_ = 0;
  }

  void scan_chunk(std::span<const unsigned char> chunk) override {
    for (const unsigned char byte : chunk) {
      const raw_filter::step_result r = filters_.front().push(byte);
      if (!r.record_boundary) {
        step_rest(byte, nullptr);
        ++pending_;
      } else if (pending_ == 0) {
        step_rest(byte, nullptr);  // empty record: no decision
      } else {
        decide(r.accept, byte);
      }
    }
  }

  void finish() override {
    if (pending_ == 0) return;
    const raw_filter::step_result r =
        filters_.front().push(options_.separator);
    decide(r.accept, options_.separator);
    // A masked flush separator (trailing record left a string literal
    // open) produces no boundary, so push() did not reset; do it here so
    // the engine is ready for a fresh stream like the chunked path.
    if (!r.record_boundary)
      for (raw_filter& f : filters_) f.reset();
  }

  bool accepts(std::string_view record) override {
    return accepts_bits(record, nullptr);
  }

  bool accepts_bits(std::string_view record, std::uint64_t* words) override {
    pending_ = 0;
    if (words != nullptr)
      std::fill_n(words, words_per_record(), std::uint64_t{0});
    bool any = false;
    for (std::size_t q = 0; q < filters_.size(); ++q) {
      if (filters_[q].accepts(record)) {
        any = true;
        if (words != nullptr)
          words[q / 64] |= std::uint64_t{1} << (q % 64);
      }
    }
    return any;
  }

  std::unique_ptr<filter_engine> clone() const override {
    return std::unique_ptr<filter_engine>(new scalar_filter_engine(*this));
  }

 private:
  scalar_filter_engine(const scalar_filter_engine& other)
      : filter_engine(other.expr_, other.query_count_, other.options_),
        filters_(other.filters_) {}

  /// Push `byte` into filters 1..N-1; with a `row`, set the bit of every
  /// filter that accepts. Returns whether any of them accepted.
  bool step_rest(unsigned char byte, std::uint64_t* row) {
    bool any = false;
    for (std::size_t q = 1; q < filters_.size(); ++q) {
      if (filters_[q].push(byte).accept && row != nullptr) {
        any = true;
        row[q / 64] |= std::uint64_t{1} << (q % 64);
      }
    }
    return any;
  }

  /// Emit the record that `byte` (filter 0's verdict: `first`) ends.
  void decide(bool first, unsigned char byte) {
    bool any = first;
    if (filters_.size() > 1) {
      const std::size_t at = decision_words_.size();
      decision_words_.resize(at + words_per_record(), 0);
      std::uint64_t* row = decision_words_.data() + at;
      if (first) row[0] |= 1;
      any = step_rest(byte, row) || first;
    }
    decisions_.push_back(any);
    if (sizes_enabled_) record_sizes_.push_back(pending_);
    pending_ = 0;
  }

  std::vector<raw_filter> filters_;  // query order
  std::uint32_t pending_ = 0;        // bytes since the last boundary
};

// ---------------------------------------------------------------------------
// Chunked engine: buffer-at-a-time bitmap pipeline.
//
// One core::bitmap_pass sweep per ingest buffer materialises the string
// mask, the record boundaries and the structural events as bitmaps
// (core/bitmaps.hpp); everything downstream is a bit-scan walk:
//
//   framing      = core::record_framer's ctz walk of the boundary bitmap,
//   group events = expand of the structural bitmap restricted to the
//                  record's bit range (positions already unmasked, so the
//                  per-event structure_state is a pure depth automaton),
//   leaves       = primitive_engine::fires_in bulk scans over the record
//                  bytes (unchanged - their pulses don't depend on
//                  structure).
//
// Decision-identity with the scalar path rests on three observations:
//
//  1. Framing. core::record_framer's boundaries are the unmasked
//     separators of the bitmap pass, which computes push()'s string-literal
//     automaton exactly (core/bitmaps.hpp); a record completed from the
//     carry gets a fresh-state pass of its own.
//
//  2. Bare leaves. The record decision samples sticky per-record latches,
//     so a bare leaf contributes exactly "did the engine pulse anywhere in
//     record+separator" - primitive_engine::fires_in, an early-exit bulk
//     scan.
//
//  3. Groups. A group tracker's state only changes on bytes where a member
//     pulses or a sample trigger occurs (unmasked structural byte or the
//     separator); on every other byte its step() degenerates to a no-op
//     (no latch change, no sample, armed depth either held or tracking a
//     value that is only read at arming time). Replaying the tracker over
//     just those bytes - with the exact structure_state each one had - is
//     therefore state-identical, and the group latch is "did the tracker
//     pulse at any sample point". The structural bitmap excludes masked
//     bytes by construction, so the per-event state needs no string
//     automaton at all - only the saturating depth counter.
// ---------------------------------------------------------------------------

class chunked_filter_engine final : public filter_engine {
 public:
  /// Evaluates one plan version: N > 1 queries through the version's
  /// trie, a one-query version through its plan root - byte- and
  /// performance-identical to the pre-multi-tenant engine.
  chunked_filter_engine(std::shared_ptr<const plan_version> plan,
                        filter_options options)
      : filter_engine(plan->front, plan->queries, options),
        level_(simd::resolve(options.simd)),
        max_depth_(structure_tracker(options.depth_bits).max_depth()),
        framer_(options.separator, level_) {
    bind(std::move(plan));
  }

  void reset() override { framer_.reset(); }

  void scan_chunk(std::span<const unsigned char> chunk) override {
    framer_.feed(chunk, [this](const auto&... r) { decide(r...); });
    fire_deferred();
  }

  void finish() override {
    framer_.flush(
        [this](const auto&... r) { decide(r...); },
        [this](std::span<const unsigned char> tail) {
          (void)next_words();  // zeroed bitmap row: no query accepts
          decisions_.push_back(false);
          if (sizes_enabled_)
            record_sizes_.push_back(static_cast<std::uint32_t>(tail.size()));
          ++ordinal_;
        });
  }

  bool accepts(std::string_view record) override {
    return accepts_bits(record, nullptr);
  }

  bool accepts_bits(std::string_view record, std::uint64_t* words) override {
    reset();
    if (words != nullptr)
      std::fill_n(words, words_per_record(), std::uint64_t{0});
    // accepts() == decision of the final (possibly empty) segment: push()
    // discards the state of every earlier segment at its boundary.
    const auto* data = reinterpret_cast<const unsigned char*>(record.data());
    const std::size_t n = record.size();
    record_pass_.compute(data, n, options_.separator, {}, level_);
    std::size_t last_start = 0;
    for (std::size_t b = record_pass_.next_boundary(0); b != simd::npos;
         b = record_pass_.next_boundary(b + 1))
      last_start = b + 1;
    const bool masked =
        record_pass_.end_state().in_string || options_.separator == '"';
    const bool decision =
        masked ? false
               : evaluate_record({data + last_start, n - last_start},
                                 record_pass_, last_start, words);
    reset();
    return decision;
  }

  std::unique_ptr<filter_engine> clone() const override {
    return std::unique_ptr<filter_engine>(new chunked_filter_engine(*this));
  }

  void swap_plan(std::shared_ptr<const plan_version> plan) override {
    bind(std::move(plan));
  }

  /// Projection surface: fires synchronously from the stream-decision
  /// paths for accepted records. `ordinal` counts EVERY decided record of
  /// this instance's stream (monotonic, not reset by reset()/
  /// take_decisions()); a fresh clone restarts at zero.
  void set_accepted_hook(accepted_hook hook) override {
    hook_ = std::move(hook);
  }

 private:
  chunked_filter_engine(const chunked_filter_engine& other)
      : filter_engine(other.expr_, other.query_count_, other.options_),
        level_(other.level_),
        max_depth_(other.max_depth_),
        framer_(other.options_.separator, other.level_) {
    bind(other.plan_);
  }

  /// Point every later record at `plan`: per-plan scratch is resized, and
  /// the numeral automaton restarts over the plan's value leaves.
  void bind(std::shared_ptr<const plan_version> plan) {
    plan_ = std::move(plan);
    const plan_version& p = *plan_;
    numerals_.clear(p.run_bits, p.run_dfas);
    expr_ = p.front;
    query_count_ = p.queries;
    multi_ = p.queries > 1;
    engines_ = p.engines.data();
    run_capable_ = p.run_capable.data();
    run_slot_ = p.run_slot.data();
    fire_cursor_.resize(p.max_members);
    fire_lists_.resize(p.max_members);
    engine_words_ = (p.engines.size() + 63) / 64;
    fired_words_.assign(multi_ ? engine_words_ : 0, 0);
    group_epoch_.assign(multi_ ? p.groups.size() : 0, 0);
    group_val_.assign(multi_ ? p.groups.size() : 0, 0);
  }

  /// Append one zeroed bitmap row to decision_words_ and return its
  /// storage, or nullptr for single-query engines (which never emit
  /// bitmaps - the pre-multi-tenant byte layout exactly).
  std::uint64_t* next_words() {
    if (!multi_) return nullptr;
    const std::size_t wpr = words_per_record();
    decision_words_.resize(decision_words_.size() + wpr, 0);
    return decision_words_.data() + (decision_words_.size() - wpr);
  }

  /// Decide one framed record: evaluate it, log its size and fire its
  /// accepted-record hook. A record inside the framer's buffer pass DEFERS
  /// its hook (that pass outlives the record): running the projection
  /// walks back-to-back in small groups instead of interleaved per record
  /// keeps the walk's code and branch state warm, while flushing every few
  /// dozen records keeps the group's bytes within the cache footprint the
  /// evaluation just touched. A record completed from the carry fires at
  /// once - its bytes and pass die with the callback. Every fire still
  /// lands inside the scan_chunk()/finish() call, before take_decisions().
  void decide(std::span<const unsigned char> record, const bitmap_pass& pass,
              std::size_t offset) {
    const bool accepted = evaluate_record(record, pass, offset, next_words());
    decisions_.push_back(accepted);
    if (sizes_enabled_)
      record_sizes_.push_back(static_cast<std::uint32_t>(record.size()));
    if (accepted && hook_) {
      if (&pass != &framer_.pass()) {
        hook_(ordinal_, record, pass, offset);
      } else {
        deferred_hooks_.push_back({ordinal_, record, offset});
        if (deferred_hooks_.size() >= deferred_batch) fire_deferred();
      }
    }
    ++ordinal_;
  }

  /// Evaluate one record against the bitmaps of the pass that framed it;
  /// `offset` is the record's first byte as a bit position in `pass`.
  /// Returns the any-match verdict; when `words` is non-null (pre-zeroed,
  /// words_per_record() entries) bit q is set for each accepting query.
  /// The bitmap pass, event walks, token runs and run verdicts are shared
  /// across every resident query's plan; multi-query evaluation computes
  /// one engine-fire bitmap per record and walks the conjunct-prefix trie
  /// against it, so a shared conjunct evaluates once and fans out to every
  /// subscribing verdict bit (group outcomes stay memoized per record).
  bool evaluate_record(std::span<const unsigned char> record,
                       const bitmap_pass& pass, std::size_t offset,
                       std::uint64_t* words = nullptr) {
    events_ready_ = false;
    positions_ready_ = false;
    pair_bounds_ready_ = false;
    runs_ready_ = false;
    verdicts_ready_ = false;
    cur_pass_ = &pass;
    cur_offset_ = offset;
    if (!multi_) {
      const bool accepted = eval(plan_->root, record);
      if (accepted && words != nullptr) words[0] = 1;
      return accepted;
    }
    ++record_epoch_;  // pre-increment: the zero-initialised stamps of a
                      // fresh/cloned engine can never falsely hit
    // Engine-fire bitmap: one eager pulse test per UNIQUE engine (run-
    // capable engines answer from the shared token-run verdict union, the
    // rest from early-exit fires_in scans). Every leaf of every resident
    // plan reads its bit from here, and the trie walk below prunes whole
    // query subtrees off it - a record's cost is O(unique engines) plus
    // the trie nodes whose required engines all fired, not O(resident
    // queries).
    std::fill(fired_words_.begin(), fired_words_.end(), 0);
    if (plan_->run_bits != 0) ensure_run_verdicts(record);
    for (const std::uint32_t e : plan_->live) {
      const bool fired =
          run_capable_[e]
              ? ((any_mask_ >> run_slot_[e]) & 1) != 0
              : engines_[e]->fires_in(record, options_.separator);
      if (fired) fired_words_[e / 64] |= std::uint64_t{1} << (e % 64);
    }
    bool any = false;
    for (const std::size_t root : plan_->trie_roots) {
      eval_trie(plan_->trie[root], record, words, any);
      if (any && words == nullptr) break;  // any-match probe: one hit decides
    }
    return any;
  }

  /// One node of the conjunct-prefix trie: prune on the required-engine
  /// mask, evaluate the conjunct (free for pure nodes - the mask test IS
  /// the truth), then fan satisfied terminals out as whole verdict words
  /// and descend. An ancestor conjunct failing skips every query below it.
  void eval_trie(const compiled_layout::trie_node& node,
                 std::span<const unsigned char> record, std::uint64_t* words,
                 bool& any) {
    for (std::size_t w = 0; w < engine_words_; ++w)
      if ((fired_words_[w] & node.required[w]) != node.required[w]) return;
    if (!node.pure && !eval(node.conjunct, record)) return;
    if (!node.fanout.empty()) {
      any = true;
      if (words != nullptr)
        for (const auto& [word, mask] : node.fanout) words[word] |= mask;
    }
    for (const std::size_t child : node.children) {
      eval_trie(plan_->trie[child], record, words, any);
      if (any && words == nullptr) return;
    }
  }

  bool eval(const compiled_layout::plan_node& node,
            std::span<const unsigned char> record) {
    using plan_node = compiled_layout::plan_node;
    switch (node.k) {
      case plan_node::kind::leaf:
        // Multi-query leaves read the eagerly computed engine-fire bitmap
        // (evaluate_record filled it before any plan walk): a leaf's truth
        // is exactly "did the engine pulse in record+separator".
        if (multi_)
          return (fired_words_[node.index / 64] >> (node.index % 64)) & 1;
        if (run_capable_[node.index]) {
          ensure_run_verdicts(record);
          return (any_mask_ >> run_slot_[node.index]) & 1;
        }
        return engines_[node.index]->fires_in(record,
                                                     options_.separator);
      case plan_node::kind::group:
        if (multi_) {
          if (group_epoch_[node.index] == record_epoch_)
            return group_val_[node.index] != 0;
          const bool fired = group_fires(node.index, record);
          group_epoch_[node.index] = record_epoch_;
          group_val_[node.index] = fired ? 1 : 0;
          return fired;
        }
        return group_fires(node.index, record);
      case plan_node::kind::conj:
        for (const plan_node& child : node.children)
          if (!eval(child, record)) return false;
        return true;
      case plan_node::kind::disj:
        for (const plan_node& child : node.children)
          if (eval(child, record)) return true;
        return false;
    }
    throw error("chunked filter: invalid eval node");
  }

  /// One unmasked structural byte of the current record.
  struct struct_event {
    std::uint32_t pos = 0;
    structure_state st;
  };

  /// structure_tracker::step for a byte known to be outside any string
  /// literal - a pure function of the byte and the saturating depth
  /// counter. Every bit of the structural bitmap is unmasked by
  /// construction, so this is the only automaton the event walk needs.
  structure_state step_unmasked(unsigned char byte, int depth) const {
    structure_state st;
    st.depth_before = depth;
    if (byte == '"') {
      st.masked = true;  // only reachable via a '"' separator flush step
    } else if (byte == '{' || byte == '[') {
      st.scope_open = true;
      depth = std::min(depth + 1, max_depth_);
    } else if (byte == '}' || byte == ']') {
      st.scope_close = true;
      st.pair_boundary = true;
      depth = std::max(depth - 1, 0);
    } else if (byte == ',') {
      st.pair_boundary = true;
    }
    st.depth = depth;
    return st;
  }

  /// One expand of the structural bitmap over the record's bit range: the
  /// record-relative positions of every unmasked structural byte.
  void ensure_event_positions(std::span<const unsigned char> record) {
    if (positions_ready_) return;
    event_positions_.clear();
    collect_bits(cur_pass_->structural(), cur_offset_,
                 cur_offset_ + record.size(), level_, event_positions_);
    if (cur_offset_ != 0)
      for (std::uint32_t& pos : event_positions_)
        pos -= static_cast<std::uint32_t>(cur_offset_);
    positions_ready_ = true;
  }

  /// Collect the record's structural events from the bitmap pass: the
  /// structural positions, then the depth automaton over just those
  /// positions. The pass already resolved string masking and escapes, so
  /// the event list and the synthesized separator step are identical to
  /// stepping the full tracker over every byte (the record ends outside
  /// any literal whenever this is called - masked flushes never evaluate).
  void ensure_events(std::span<const unsigned char> record) {
    if (events_ready_) return;
    ensure_event_positions(record);
    events_.clear();
    int depth = 0;
    for (const std::uint32_t pos : event_positions_) {
      const structure_state st = step_unmasked(record[pos], depth);
      depth = st.depth;
      events_.push_back({pos, st});
    }
    separator_st_ = step_unmasked(options_.separator, depth);
    events_ready_ = true;
  }

  /// Pair-boundary positions of the record: the unmasked ',' '}' ']'
  /// bytes, the only sample triggers a pair group reacts to besides the
  /// final separator.
  void ensure_pair_bounds(std::span<const unsigned char> record) {
    if (pair_bounds_ready_) return;
    ensure_event_positions(record);
    pair_bounds_.clear();
    for (const std::uint32_t pos : event_positions_) {
      const unsigned char b = record[pos];
      if (b != '{' && b != '[') pair_bounds_.push_back(pos);
    }
    pair_bounds_ready_ = true;
  }

  /// Maximal numeric-token runs of the record, shared by every
  /// run-capable value engine. Extracted from the ingest pass's token
  /// bitmap (word ops over cached classification) instead of
  /// re-classifying the record's bytes.
  void ensure_runs(std::span<const unsigned char> record) {
    if (runs_ready_) return;
    bit_runs_in(cur_pass_->token(), cur_offset_, cur_offset_ + record.size(),
                runs_);
    runs_ready_ = true;
  }

  /// Verdict mask of every token run of the record - bit run_slot_[e] set
  /// iff live engine e pulses at the run's end - from one numeral-automaton
  /// walk per run. A run the stream ends mid-token (before a token-class
  /// separator) is never sampled, so no engine pulses there.
  void ensure_run_verdicts(std::span<const unsigned char> record) {
    if (verdicts_ready_) return;
    ensure_runs(record);
    run_masks_.clear();
    std::uint64_t any = 0;
    const bool token_separator = numrange::is_token_byte(options_.separator);
    for (const simd::token_run& run : runs_) {
      const std::uint64_t mask =
          run.end == record.size() && token_separator
              ? 0
              : numerals_.walk(record.data() + run.begin, run.end - run.begin);
      run_masks_.push_back(mask);
      any |= mask;
    }
    any_mask_ = any;
    verdicts_ready_ = true;
  }

  /// True when every run-capable member of `info` has its bit in `mask`.
  bool run_members_in(const compiled_layout::group_info& info,
                      std::uint64_t mask) const {
    for (const std::size_t e : info.members)
      if (run_capable_[e] && !((mask >> run_slot_[e]) & 1)) return false;
    return true;
  }

  /// Pair-group fast path. A pair tracker samples at every pair boundary
  /// and the separator, with no depth dependence at all, so the group
  /// fires iff some sampling segment (prev sample, sample] contains at
  /// least one pulse of every member. Only segments holding a pulse of the
  /// first non-run member (the anchor) can qualify, so the anchor streams
  /// its pulses (scan_fires) and each pulse's segment is tested on the
  /// spot: the other listed members by cursor merge over their sorted fire
  /// lists, run-capable value members lazily by walking the shared token
  /// runs of just that segment (token bytes are never pair boundaries, so
  /// no run straddles a segment). The scan stops at the first qualifying
  /// segment - most records are decided within their first few pulses.
  bool pair_group_fires(const compiled_layout::group_info& info,
                        std::span<const unsigned char> record) {
    const std::size_t members = info.members.size();
    bool any_run_members = false;
    std::size_t anchor = members;  // first non-run member, streamed
    for (std::size_t m = 0; m < members; ++m) {
      if (run_capable_[info.members[m]]) {
        any_run_members = true;
        continue;
      }
      if (anchor == members) {
        anchor = m;
        continue;
      }
      fire_lists_[m].clear();
      engines_[info.members[m]]->fire_positions(
          record, options_.separator, fire_lists_[m]);
      // A member that never pulses can never be latched at a sample.
      if (fire_lists_[m].empty()) return false;
    }
    if (any_run_members) {
      ensure_run_verdicts(record);
      if (!run_members_in(info, any_mask_))
        return false;  // member never pulses anywhere in the record
    }
    ensure_pair_bounds(record);

    std::fill(fire_cursor_.begin(),
              fire_cursor_.begin() + static_cast<std::ptrdiff_t>(members), 0);

    if (anchor == members) {
      // Every member is run-capable: walk the segments in order, testing
      // each member against the ORed verdict mask of the segment's runs.
      std::size_t run_lo = 0;  // first token run not consumed by a segment
      const auto segment_fires = [&](std::uint32_t bound) {
        std::uint64_t seg_mask = 0;
        while (run_lo < runs_.size() && runs_[run_lo].end <= bound)
          seg_mask |= run_masks_[run_lo++];
        return run_members_in(info, seg_mask);
      };
      for (const std::uint32_t bound : pair_bounds_)
        if (segment_fires(bound)) return true;
      return segment_fires(static_cast<std::uint32_t>(record.size()));
    }

    bool found = false;
    std::size_t seg = 0;                          // anchor's segment index
    std::size_t tested = pair_bounds_.size() + 1;  // last segment tested
    std::size_t run_lo = 0;  // first token run at or past the segment start
    auto on_fire = [&](std::uint32_t fire) -> bool {
      while (seg < pair_bounds_.size() && pair_bounds_[seg] < fire) ++seg;
      if (seg == tested) return true;  // segment already failed; next pulse
      tested = seg;
      const std::uint32_t bound =
          seg < pair_bounds_.size()
              ? pair_bounds_[seg]
              : static_cast<std::uint32_t>(record.size());
      const std::uint32_t low = seg > 0 ? pair_bounds_[seg - 1] + 1 : 0;
      for (std::size_t m = 0; m < members; ++m) {
        if (m == anchor || run_capable_[info.members[m]]) continue;
        const std::vector<std::uint32_t>& list = fire_lists_[m];
        std::size_t& cursor = fire_cursor_[m];
        while (cursor < list.size() && list[cursor] < low) ++cursor;
        if (cursor == list.size() || list[cursor] > bound)
          return true;  // member silent in this segment; keep scanning
      }
      if (any_run_members) {
        while (run_lo < runs_.size() && runs_[run_lo].end < low) ++run_lo;
        std::uint64_t seg_mask = 0;
        for (std::size_t r = run_lo;
             r < runs_.size() && runs_[r].end <= bound; ++r)
          seg_mask |= run_masks_[r];
        if (!run_members_in(info, seg_mask)) return true;  // keep scanning
      }
      found = true;
      return false;  // stop the scan: the latch is sticky
    };
    using on_fire_t = decltype(on_fire);
    engines_[info.members[anchor]]->scan_fires(
        record, options_.separator,
        [](void* ctx, std::uint32_t pos) {
          return (*static_cast<on_fire_t*>(ctx))(pos);
        },
        &on_fire);
    return found;
  }

  bool group_fires(std::size_t group, std::span<const unsigned char> record) {
    const compiled_layout::group_info& info = plan_->groups[group];
    const std::size_t members = info.members.size();

    if (info.kind == group_kind::pair) return pair_group_fires(info, record);

    // Necessary condition first: a member that never pulses can never be
    // latched at a sample point, so the group cannot fire. Run-capable
    // members answer from one bit of the record-wide verdict union -
    // testing them before any string scan rejects most non-matching
    // records without touching the record bytes again.
    for (const std::size_t e : info.members) {
      if (!run_capable_[e]) continue;
      ensure_run_verdicts(record);
      if (!((any_mask_ >> run_slot_[e]) & 1)) return false;
    }
    // First-window fast path. The replay below arms at p = min over
    // members of the FIRST pulse, so every member's first pulse is inside
    // [p, c] iff max(first pulses) <= c - the first window's verdict needs
    // only one pulse per member. Those come from early-exit scans (no fire
    // lists, no full-record sweeps): most accepting records are decided
    // here, and a member that never pulses rejects without being scanned
    // past its (absent) first occurrence.
    const auto separator_pos = static_cast<std::uint32_t>(record.size());
    constexpr std::uint32_t no_fire = ~std::uint32_t{0};
    std::uint32_t first_min = no_fire;
    std::uint32_t first_max = 0;
    for (std::size_t m = 0; m < members; ++m) {
      std::uint32_t first = no_fire;
      if (run_capable_[info.members[m]]) {
        const std::uint64_t bit = std::uint64_t{1}
                                  << run_slot_[info.members[m]];
        for (std::size_t r = 0; r < runs_.size(); ++r)
          if (run_masks_[r] & bit) {
            first = runs_[r].end;
            break;
          }
      } else {
        engines_[info.members[m]]->scan_fires(
            record, options_.separator,
            [](void* ctx, std::uint32_t pos) {
              *static_cast<std::uint32_t*>(ctx) = pos;
              return false;  // the first pulse decides the first window
            },
            &first);
      }
      if (first == no_fire) return false;  // never latched, never fires
      first_min = std::min(first_min, first);
      first_max = std::max(first_max, first);
    }
    ensure_events(record);
    {
      int depth0 = 0;
      std::size_t ei0 = 0;
      while (ei0 < events_.size() && events_[ei0].pos < first_min) {
        depth0 = events_[ei0].st.depth;
        ++ei0;
      }
      std::uint32_t c0 = separator_pos;
      for (std::size_t ej = ei0; ej < events_.size(); ++ej) {
        const struct_event& ev = events_[ej];
        if (ev.st.scope_close && ev.st.depth_before <= depth0) {
          c0 = ev.pos;
          break;
        }
      }
      if (first_max <= c0) return true;
    }

    // First window did not fire: materialise the full pulse lists and run
    // the general replay (the minority path).
    for (std::size_t m = 0; m < members; ++m) {
      fire_lists_[m].clear();
      if (run_capable_[info.members[m]]) continue;
      engines_[info.members[m]]->fire_positions(
          record, options_.separator, fire_lists_[m]);
    }
    // Only now materialise the run members' pulse lists off the masks.
    for (std::size_t m = 0; m < members; ++m) {
      if (!run_capable_[info.members[m]]) continue;
      fire_lists_[m].clear();
      const std::uint64_t bit = std::uint64_t{1} << run_slot_[info.members[m]];
      for (std::size_t r = 0; r < runs_.size(); ++r)
        if (run_masks_[r] & bit) fire_lists_[m].push_back(runs_[r].end);
    }

    // Windowed replay of the scope tracker. The tracker arms at the first
    // member pulse after a clear, freezing the nesting depth of that byte,
    // and samples (fire iff every member latched, then clear) at the next
    // scope close back at or below that depth - or at the final
    // separator, which always samples. Closes while unarmed are state
    // no-ops, and closes deeper than the armed depth neither fire nor
    // clear, so the whole byte-serial automaton collapses to: per window,
    // find the arming pulse p (earliest remaining pulse of any member),
    // its depth, the qualifying close c, and test whether every member
    // pulses within [p, c]. Each event and pulse is visited O(1) times.
    std::fill(fire_cursor_.begin(), fire_cursor_.begin() +
              static_cast<std::ptrdiff_t>(members), 0);
    std::size_t ei = 0;  // events consumed up to the current arming pulse
    int depth = 0;       // nesting level after events_[0 .. ei)

    for (;;) {
      // Arming pulse: earliest remaining pulse of any member. Pulses at
      // or before the previous sample were consumed by earlier windows.
      std::uint32_t p = separator_pos;
      bool any_left = false;
      for (std::size_t m = 0; m < members; ++m)
        if (fire_cursor_[m] < fire_lists_[m].size()) {
          any_left = true;
          p = std::min(p, fire_lists_[m][fire_cursor_[m]]);
        }
      if (!any_left) return false;  // nothing left to arm on

      // Depth the tracker would freeze: the nesting level before byte p.
      while (ei < events_.size() && events_[ei].pos < p) {
        depth = events_[ei].st.depth;
        ++ei;
      }
      const int armed_depth = depth;

      // Sample position: first scope close at or after p whose
      // depth_before is back at or below the armed depth.
      std::uint32_t c = separator_pos;
      for (std::size_t ej = ei; ej < events_.size(); ++ej) {
        const struct_event& ev = events_[ej];
        if (ev.st.scope_close && ev.st.depth_before <= armed_depth) {
          c = ev.pos;
          break;
        }
      }

      // Fire iff every member pulses inside the window [p, c]; consume
      // the window's pulses either way (the sample clears all latches).
      bool all = true;
      for (std::size_t m = 0; m < members; ++m) {
        const std::vector<std::uint32_t>& list = fire_lists_[m];
        std::size_t& cursor = fire_cursor_[m];
        all = all && cursor < list.size() && list[cursor] <= c;
        while (cursor < list.size() && list[cursor] <= c) ++cursor;
      }
      if (all) return true;  // latch is sticky: one pulse decides
      if (c == separator_pos) return false;
    }
  }

  simd::simd_level level_;               // resolved vector tier
  int max_depth_;                        // saturation bound (depth_bits)
  // The plan version every record evaluates against, plus raw views of its
  // per-slot arrays for the hot loops (valid while plan_ holds it).
  std::shared_ptr<const plan_version> plan_;
  const std::shared_ptr<const primitive_engine>* engines_ = nullptr;
  const char* run_capable_ = nullptr;      // slot order: token-run bulk path
  const std::size_t* run_slot_ = nullptr;  // slot order: verdict-mask bit
  bool multi_ = false;                     // query_count() > 1

  record_framer framer_;        // stream framing (persists across chunks)
  std::uint64_t ordinal_ = 0;   // stream records decided (hook index)

  // Accepted in-buffer records whose hook fire is deferred into small
  // batched groups (never survives past its scan_chunk; see decide).
  struct deferred_hook {
    std::uint64_t ordinal;
    std::span<const unsigned char> record;
    std::size_t offset;
  };
  static constexpr std::size_t deferred_batch = 64;
  std::vector<deferred_hook> deferred_hooks_;

  void fire_deferred() {
    for (const deferred_hook& h : deferred_hooks_)
      hook_(h.ordinal, h.record, framer_.pass(), h.offset);
    deferred_hooks_.clear();
  }

  bitmap_pass record_pass_;  // accepts_bits' standalone record

  // Per-record scratch, reused across records.
  const bitmap_pass* cur_pass_ = nullptr;  // pass that framed the record
  std::size_t cur_offset_ = 0;             // record start bit in cur_pass_
  bool events_ready_ = false;
  bool positions_ready_ = false;
  bool pair_bounds_ready_ = false;
  bool runs_ready_ = false;
  bool verdicts_ready_ = false;
  std::vector<std::uint32_t> event_positions_;  // record-relative
  std::vector<struct_event> events_;
  std::vector<std::uint32_t> pair_bounds_;   // ',' '}' ']' positions
  std::vector<simd::token_run> runs_;        // shared token segmentation
  std::vector<std::uint64_t> run_masks_;     // per run: engine verdict bits
  std::uint64_t any_mask_ = 0;               // union of run_masks_
  structure_state separator_st_;
  std::vector<std::size_t> fire_cursor_;
  std::vector<std::vector<std::uint32_t>> fire_lists_;

  // Multi-query shared-evaluation state (multi_ only). fired_words_ is the
  // per-record engine-fire bitmap every plan leaf reads and the trie's
  // required-mask pruning tests against. Groups keep an epoch-stamped memo
  // (a dedup'd group replays once per record, every subscribing plan reads
  // the cached outcome); record_epoch_ pre-increments so a fresh engine's
  // zero stamps never hit.
  std::size_t engine_words_ = 0;            // ceil(engines / 64)
  std::vector<std::uint64_t> fired_words_;  // per-record engine-fire bitmap
  std::uint64_t record_epoch_ = 0;
  std::vector<std::uint64_t> group_epoch_;  // group order
  std::vector<char> group_val_;             // group order

  numeral_automaton numerals_;  // run verdicts; restarts on every bind
};

}  // namespace

std::unique_ptr<filter_engine> make_filter_engine(engine_kind kind,
                                                  expr_ptr expr,
                                                  filter_options options) {
  return make_filter_engine(kind, std::vector<expr_ptr>{std::move(expr)},
                            options);
}

std::unique_ptr<filter_engine> make_filter_engine(engine_kind kind,
                                                  std::vector<expr_ptr> queries,
                                                  filter_options options) {
  if (kind == engine_kind::scalar)
    return std::make_unique<scalar_filter_engine>(queries, options);
  if (queries.empty()) throw error("filter engine: empty query set");
  return make_filter_engine(
      std::make_shared<const plan_version>(
          compiled_layout::compile_set(queries, options.simd)),
      options);
}

std::unique_ptr<filter_engine> make_filter_engine(
    std::shared_ptr<const plan_version> plan, filter_options options) {
  if (!plan) throw error("filter engine: null plan version");
  return std::make_unique<chunked_filter_engine>(std::move(plan), options);
}

}  // namespace jrf::core
