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
// Chunked engine: window-at-a-time bitmap pipeline.
//
// core::record_framer walks every fed buffer in 64 KiB windows, one
// core::bitmap_pass each (core/bitmaps.hpp): the string mask, the record
// boundaries, the structural bytes and the numeric-token bytes as bitmaps.
// Each window then evaluates every live primitive ONCE, into one fire
// bitmap per leaf engine - the software form of the paper's primitives
// pulsing on every byte in parallel:
//
//   string leaves = primitive_engine::fire_bits: word-level match_words
//                   membership plus the hit-counter run logic,
//   value leaves  = one numeral-automaton walk per token run of the
//                   window, a leaf's bit set at the run's end when the
//                   run's verdict mask holds the leaf's run bit (leaves
//                   past the 64 run bits scan with their own fire_bits).
//                   A lone byte whose one-byte verdict is empty (the 'e'
//                   of a word) is not walked, and a one-query plan whose
//                   value leaves only pair groups read walks just the runs
//                   ending in a segment that holds a pulse of a group's
//                   string anchor: their pulses count nowhere else.
//
// Records are decided the way the circuit samples its latches at the
// separator: each leaf and group gets one record-hit bitmap per window,
// set only at the record terminators E, so a record's decision is one bit
// test at offset + size. segment_any (core/bitmaps.hpp) sets each bound
// whose segment holds a bit:
//
//   leaves       = segment_any of the fire bits over E,
//   pair groups  = per member, segment_any over the pair bounds (unmasked
//                  ',' '}' ']' and E); AND-ed, then carried on to E,
//   scope groups = the same over the scope bounds (unmasked opens, closes
//                  and E), keeping the segments that end at a close or E;
//                  observation 3 names the records this leaves open.
//
// A one-query plan combines those bitmaps word by word into one decision
// bitmap. A multi-query plan sets each record's engine-fire bitmap from
// its leaves' bitmaps and walks the plan trie against it; a group's
// bitmap is built when a record first reads it, so a pruned one never is.
//
// Decision-identity with the scalar path rests on three observations:
//
//  1. Framing. core::record_framer's boundaries are the unmasked
//     separators of the bitmap pass, which computes push()'s string-literal
//     automaton exactly (core/bitmaps.hpp); a record completed from the
//     carry gets a fresh-state pass of its own.
//
//  2. Leaves. The record decision samples sticky per-record latches, so a
//     bare leaf contributes exactly "did the engine pulse anywhere in
//     record+separator" - and a fire bitmap holds the pulses step() emits,
//     restarting after every boundary.
//
//  3. Groups. A group tracker's state only changes on bytes where a member
//     pulses or a sample trigger occurs (unmasked structural byte or the
//     separator); on every other byte its step() is a no-op. A pair tracker
//     samples at every pair bound, so the group fires iff some pair segment
//     holds every member. A scope tracker arms at a member pulse x and
//     samples at c(x): the first close whose depth-before equals x's (the
//     saturating counter moves one step per scope byte), or the separator.
//     It fires iff some x has every member pulsing in [x, c(x)]. When no
//     member pulse of a record lies in a segment ending at an open, c(x)
//     ends x's own segment, so the group fires iff a segment ending at a
//     close or E holds every member. The other records' windows may span a
//     child scope (SenML's never do); those the segments leave unfired are
//     flagged by word operations and step the reference group_tracker over
//     their member pulses, scope bytes and terminator.
// ---------------------------------------------------------------------------

/// Highest set bit in [lo, before), simd::npos when none.
std::size_t prev_bit(const std::uint64_t* words, std::size_t lo,
                     std::size_t before) noexcept {
  if (before <= lo) return simd::npos;
  std::size_t w = (before - 1) >> 6;
  std::uint64_t word = words[w] & (~std::uint64_t{0} >> (63 - ((before - 1) & 63)));
  for (;;) {
    if (word != 0) {
      const std::size_t at =
          (w << 6) + 63 - static_cast<std::size_t>(std::countl_zero(word));
      return at >= lo ? at : simd::npos;
    }
    if (w == lo >> 6) return simd::npos;
    word = words[--w];
  }
}

/// Bit `pos` of a bitmap.
bool bit_at(const std::uint64_t* words, std::size_t pos) noexcept {
  return ((words[pos >> 6] >> (pos & 63)) & 1) != 0;
}

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
    framer_.feed(
        chunk, [this](const auto&... r) { decide(r...); },
        [this](const bitmap_pass&) {
          fire_deferred();
          bits_pass_ = nullptr;  // the next window computes a new pass
        });
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
    // discards the state of every earlier segment at its boundary, and a
    // masked final separator decides nothing.
    const std::size_t n = record.size();
    record_buf_.assign(record.begin(), record.end());
    record_buf_.push_back(static_cast<char>(options_.separator));
    const auto* data = reinterpret_cast<const unsigned char*>(record_buf_.data());
    record_pass_.compute(data, n + 1, options_.separator, {}, level_);
    std::size_t last_start = 0;
    std::size_t last = simd::npos;
    for (std::size_t b = record_pass_.next_boundary(0); b != simd::npos;
         b = record_pass_.next_boundary(b + 1)) {
      if (b < n) last_start = b + 1;
      last = b;
    }
    const bool decision =
        last == n && evaluate_record({data + last_start, n - last_start},
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
  using plan_node = compiled_layout::plan_node;
  using group_info = compiled_layout::group_info;

  chunked_filter_engine(const chunked_filter_engine& other)
      : filter_engine(other.expr_, other.query_count_, other.options_),
        level_(other.level_),
        max_depth_(other.max_depth_),
        framer_(other.options_.separator, other.level_) {
    bind(other.plan_);
  }

  /// Point every later record at `plan`: per-plan scratch is resized, and
  /// the numeral automaton restarts over the plan's value leaves. Nothing
  /// is sized per group here; the record bitmaps grow at the plan's first
  /// window.
  void bind(std::shared_ptr<const plan_version> plan) {
    plan_ = std::move(plan);
    const plan_version& p = *plan_;
    numerals_.clear(p.run_bits, p.run_dfas);
    silent_ready_ = false;  // asked again by the next walk
    expr_ = p.front;
    query_count_ = p.queries;
    multi_ = p.queries > 1;
    engines_ = p.engines.data();
    run_capable_ = p.run_capable.data();
    for (const std::uint32_t e : p.live)
      if (run_capable_[e]) run_owner_[p.run_slot[e]] = e;
    has_scopes_ = has_pairs_ = false;
    for (const group_info& g : p.groups)
      (g.kind == group_kind::scope ? has_scopes_ : has_pairs_) = true;
    bits_pass_ = nullptr;  // the fire bitmaps follow the plan's engines
    pair_anchors_.clear();
    if (!multi_ && p.run_bits != 0 && paired_runs_only(p.root))
      collect_pair_anchors(p.root);
    engine_words_ = (p.engines.size() + 63) / 64;
    fired_words_.assign(multi_ ? engine_words_ : 0, 0);
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
  /// accepted-record hook. A record inside the framer's window pass DEFERS
  /// its hook (that pass outlives the record): running the projection
  /// walks back-to-back in small groups instead of interleaved per record
  /// keeps the walk's code and branch state warm, while flushing every few
  /// dozen records (and at every window's end) keeps the group's bytes
  /// within the cache footprint the evaluation just touched. A record
  /// completed from the carry fires at once - its bytes and pass die with
  /// the callback. Every fire still lands inside the scan_chunk()/finish()
  /// call, before take_decisions().
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

  /// Evaluate one record against the pass that framed it; `offset` is the
  /// record's first byte as a bit position in `pass`, whose bit offset +
  /// record.size() is the record's terminator. Returns the any-match
  /// verdict; when `words` is non-null (pre-zeroed, words_per_record()
  /// entries) bit q is set for each accepting query. The first record of a
  /// pass builds the pass's bitmaps. A one-query plan then reads its
  /// decision bit; a multi-query plan sets the record's engine-fire bitmap
  /// from the leaves' record bits and walks the conjunct-prefix trie
  /// against it, so a shared conjunct evaluates once and fans out to every
  /// subscribing verdict bit.
  bool evaluate_record(std::span<const unsigned char> record,
                       const bitmap_pass& pass, std::size_t offset,
                       std::uint64_t* words = nullptr) {
    if (&pass != bits_pass_) build_bits(pass, record.data() - offset);
    terminator_ = offset + record.size();
    bool any = false;
    if (!multi_) {
      any = bit_at(plan_bits_.data(), terminator_);
      if (any && words != nullptr) words[0] = 1;
    } else {
      // Engine-fire bitmap: one bit test per live engine. Every leaf of
      // every resident plan reads its bit from here, and the trie walk
      // below prunes whole query subtrees off it - a record's cost is
      // O(unique engines) plus the trie nodes whose required engines all
      // fired, not O(resident queries).
      std::fill(fired_words_.begin(), fired_words_.end(), 0);
      for (const std::uint32_t e : plan_->live)
        if (bit_at(hits_.data() + e * stride_, terminator_))
          fired_words_[e / 64] |= std::uint64_t{1} << (e % 64);
      for (const std::size_t root : plan_->trie_roots) {
        eval_trie(plan_->trie[root], words, any);
        if (any && words == nullptr) break;  // any-match probe: one hit decides
      }
    }
    // A carried record's or a probe's pass dies with this call, and the
    // bitmaps grown past a window for it are given back.
    if (&pass != &framer_.pass()) {
      bits_pass_ = nullptr;
      if (stride_ > record_framer::kWindow / 64) release_bitmaps();
    }
    return any;
  }

  /// Free every per-pass bitmap: after a record longer than a window they
  /// would otherwise keep its size for the rest of the stream.
  void release_bitmaps() {
    for (std::vector<std::uint64_t>* v :
         {&bits_, &opens_, &closes_, &scope_bounds_, &pair_bounds_, &segments_,
          &runs_, &scratch_, &plan_bits_, &hits_, &group_bits_})
      std::vector<std::uint64_t>().swap(*v);
  }

  /// The fire bitmap of engine slot `e` over the current pass.
  std::span<const std::uint64_t> bits_of(std::size_t e) const {
    return {bits_.data() + e * stride_, stride_};
  }

  /// Fill one fire bitmap per live engine over `pass` (`window` holds its
  /// bytes), the structural bitmaps the plan's groups read, and the record
  /// bits: the decision bitmap of a one-query plan, every live engine's of
  /// a multi-query plan (whose groups build theirs when first read).
  void build_bits(const bitmap_pass& pass, const unsigned char* window) {
    bits_pass_ = &pass;
    window_ = window;
    const std::size_t n = pass.size();
    const std::span<const std::uint64_t> boundary = pass.boundary();
    ends_ = boundary.data();
    stride_ = (n + 63) / 64;
    if (bits_.size() < plan_->engines.size() * stride_)
      bits_.resize(plan_->engines.size() * stride_);
    for (const std::uint32_t e : plan_->live) {
      std::uint64_t* out = bits_.data() + e * stride_;
      if (run_capable_[e])
        std::fill_n(out, stride_, std::uint64_t{0});
      else
        engines_[e]->fire_bits({window_, n}, boundary, out);
    }
    if (has_scopes_ || has_pairs_) {
      // The unmasked opens and closes, the scope bounds (those and the
      // record boundaries) and the pair bounds: the unmasked ',' '}' ']' -
      // structural minus the opens - and the record boundaries.
      static const simd::byte_set open_bytes{std::string_view("{[")};
      static const simd::byte_set close_bytes{std::string_view("}]")};
      const std::span<const std::uint64_t> structural = pass.structural();
      opens_.resize(stride_);
      simd::match_words(window_, n, open_bytes, level_, opens_.data());
      for (std::size_t w = 0; w < stride_; ++w) opens_[w] &= structural[w];
      if (has_scopes_) {
        closes_.resize(stride_);
        scope_bounds_.resize(stride_);
        simd::match_words(window_, n, close_bytes, level_, closes_.data());
        for (std::size_t w = 0; w < stride_; ++w) {
          closes_[w] &= structural[w];
          scope_bounds_[w] = opens_[w] | closes_[w] | boundary[w];
        }
      }
      if (has_pairs_) {
        pair_bounds_.resize(stride_);
        for (std::size_t w = 0; w < stride_; ++w)
          pair_bounds_[w] = (structural[w] & ~opens_[w]) | boundary[w];
      }
    }
    if (plan_->run_bits != 0) {
      if (!pair_anchors_.empty()) mark_anchor_segments(n);
      walk_runs(pass);
    }
    if (multi_) {
      if (hits_.size() < plan_->engines.size() * stride_)
        hits_.resize(plan_->engines.size() * stride_);
      for (const std::uint32_t e : plan_->live)
        leaf_record_bits(e, hits_.data() + e * stride_);
      group_slot_.assign(plan_->groups.size(), simd::npos);
      group_bits_.clear();
    } else {
      plan_record_bits(plan_->root, 0);
    }
  }

  /// Only pair groups read the value leaves, beside string anchors: their
  /// pulses count only in segments holding an anchor pulse, so only the
  /// runs ending there are walked. Marks those segments in segments_.
  void mark_anchor_segments(std::size_t n) {
    segments_.assign(stride_, 0);
    for (const std::size_t a : pair_anchors_) {
      const std::span<const std::uint64_t> anchor = bits_of(a);
      for (std::size_t p = next_bit(anchor, 0, n); p != simd::npos;) {
        const std::size_t before = prev_bit(pair_bounds_.data(), 0, p);
        const std::size_t low = before == simd::npos ? 0 : before + 1;
        std::size_t bound = next_bit(pair_bounds_, p, n);
        if (bound == simd::npos) bound = n - 1;
        for (std::size_t w = low >> 6; w <= bound >> 6; ++w) {
          std::uint64_t bits = ~std::uint64_t{0};
          if (w == low >> 6) bits &= ~std::uint64_t{0} << (low & 63);
          if (w == bound >> 6) bits &= ~std::uint64_t{0} >> (63 - (bound & 63));
          segments_[w] |= bits;
        }
        p = next_bit(anchor, bound + 1, n);
      }
    }
  }

  /// Token bytes that, alone as a run, pulse no value leaf: their lone
  /// runs need no walk (in JSON text mostly the 'e' of a word). Asked of
  /// the leaves' DFAs directly once per plan, so a swap builds nothing;
  /// the byte set is rebuilt only when the answer changes.
  void find_silent_bytes() {
    std::string silent;
    for (const char c : std::string_view("eE.+-")) {
      bool pulses = false;
      for (std::uint64_t b = plan_->run_bits; b != 0; b &= b - 1) {
        const regex::dfa& d = *plan_->run_dfas[std::countr_zero(b)];
        pulses = pulses ||
                 d.accepting(d.step(d.start(), static_cast<unsigned char>(c)));
      }
      if (!pulses) silent += c;
    }
    if (silent != silent_text_) {
      silent_text_ = silent;
      silent_ = simd::byte_set(std::string_view(silent));
    }
    silent_ready_ = true;
  }

  /// Set every run-capable leaf's bits: one numeral-automaton walk per
  /// maximal token run of the pass, the run's verdict mask naming the
  /// leaves that pulse at its end. Runs never reach across a boundary -
  /// each record's runs restart after it, like the value primitives - and
  /// a run the pass ends inside is left for the pass that completes it.
  void walk_runs(const bitmap_pass& pass) {
    if (!silent_ready_) find_silent_bytes();
    const std::size_t n = pass.size();
    const std::uint64_t* token = pass.token().data();
    const std::uint64_t* boundary = pass.boundary().data();
    // The runs bitmap: token bytes that are no boundary, less the lone
    // silent bytes (a run of one byte whose verdict is empty).
    runs_.resize(stride_);
    for (std::size_t w = 0; w < stride_; ++w) runs_[w] = token[w] & ~boundary[w];
    if (silent_.size() != 0) {
      scratch_.resize(stride_);
      simd::match_words(window_, n, silent_, level_, scratch_.data());
      std::uint64_t before = 0;  // the previous word's top bit
      for (std::size_t w = 0; w < stride_; ++w) {
        const std::uint64_t t = runs_[w];
        const std::uint64_t after = w + 1 < stride_ ? runs_[w + 1] << 63 : 0;
        const std::uint64_t lone = t & ~((t << 1) | before) & ~((t >> 1) | after);
        before = t >> 63;
        runs_[w] = t & ~(lone & scratch_[w]);
      }
    }
    const auto runs = [&](std::size_t w) { return runs_[w]; };
    // A run ending before a token-class separator is never sampled: the
    // separator extends it, then the record restarts.
    const bool token_separator = numrange::is_token_byte(options_.separator);
    // Up to 8 value leaves take every run's verdict bit without a branch
    // on it; more iterate the verdict's set bits.
    std::array<std::uint64_t*, 8> leaf_bits;
    std::array<unsigned, 8> leaf_bit;
    const auto leaves = static_cast<std::size_t>(std::popcount(plan_->run_bits));
    std::size_t k = 0;
    for (std::uint64_t b = plan_->run_bits; b != 0 && k < 8; b &= b - 1, ++k) {
      leaf_bit[k] = static_cast<unsigned>(std::countr_zero(b));
      leaf_bits[k] = bits_.data() + run_owner_[leaf_bit[k]] * stride_;
    }
    std::size_t w = 0;
    std::uint64_t t = runs(0);
    for (;;) {
      while (t == 0) {
        if (++w == stride_) return;
        t = runs(w);
      }
      const std::size_t begin = (w << 6) + std::countr_zero(t);
      std::uint64_t gap = ~t & (~std::uint64_t{0} << (begin & 63));
      while (gap == 0) {
        if (++w == stride_) return;  // the pass ends inside this run
        gap = ~runs(w);
      }
      const std::size_t end = (w << 6) + std::countr_zero(gap);
      if (end >= n) return;
      t = runs(w) & (~std::uint64_t{0} << (end & 63));
      if (token_separator && ((boundary[w] >> (end & 63)) & 1) != 0) continue;
      if (!pair_anchors_.empty() && ((segments_[w] >> (end & 63)) & 1) == 0)
        continue;  // no anchor pulses in this segment
      const std::uint64_t mask = numerals_.walk(window_ + begin, end - begin);
      if (mask == 0) continue;  // most runs: no leaf pulses
      if (leaves <= 8) {
        for (std::size_t i = 0; i < leaves; ++i)
          leaf_bits[i][w] |= ((mask >> leaf_bit[i]) & 1) << (end & 63);
        continue;
      }
      for (std::uint64_t m = mask; m != 0; m &= m - 1)
        bits_[run_owner_[std::countr_zero(m)] * stride_ + w] |=
            std::uint64_t{1} << (end & 63);
    }
  }

  /// True when `node` reads its run-bit value leaves only as pair-group
  /// members after a first member holding no run bit.
  bool paired_runs_only(const plan_node& node) const {
    switch (node.k) {
      case plan_node::kind::leaf:
        return !run_capable_[node.index];
      case plan_node::kind::group: {
        const group_info& g = plan_->groups[node.index];
        if (g.kind == group_kind::scope)
          return std::none_of(g.members.begin(), g.members.end(),
                              [&](std::size_t e) { return run_capable_[e]; });
        return !run_capable_[g.members.front()];
      }
      case plan_node::kind::conj:
      case plan_node::kind::disj:
        return std::all_of(node.children.begin(), node.children.end(),
                           [&](const plan_node& c) { return paired_runs_only(c); });
    }
    return false;
  }

  /// Append the first member (the string anchor) of every pair group of
  /// `node` to pair_anchors_.
  void collect_pair_anchors(const plan_node& node) {
    if (node.k == plan_node::kind::group &&
        plan_->groups[node.index].kind == group_kind::pair)
      pair_anchors_.push_back(plan_->groups[node.index].members.front());
    for (const plan_node& child : node.children) collect_pair_anchors(child);
  }

  /// Record bits of a one-query plan node over the current pass into
  /// bitmap `level` of plan_bits_, its children's in the level above: the
  /// word-wise AND or OR of theirs. Only the bits at record terminators
  /// mean anything.
  void plan_record_bits(const plan_node& node, std::size_t level) {
    if (plan_bits_.size() < (level + 1) * stride_)
      plan_bits_.resize((level + 1) * stride_);
    std::uint64_t* out = plan_bits_.data() + level * stride_;
    switch (node.k) {
      case plan_node::kind::leaf:
        leaf_record_bits(node.index, out);
        return;
      case plan_node::kind::group:
        group_record_bits(node.index, out);
        return;
      case plan_node::kind::conj:
      case plan_node::kind::disj:
        break;
    }
    const bool conj = node.k == plan_node::kind::conj;
    std::fill_n(out, stride_, conj ? ~std::uint64_t{0} : 0);
    for (const plan_node& child : node.children) {
      plan_record_bits(child, level + 1);
      out = plan_bits_.data() + level * stride_;  // the child may grow it
      const std::uint64_t* in = out + stride_;
      std::uint64_t left = 0;  // records still accepted
      for (std::size_t w = 0; w < stride_; ++w) {
        out[w] = conj ? out[w] & in[w] : out[w] | in[w];
        left |= out[w] & ends_[w];
      }
      if (conj && left == 0) return;  // the later children cannot matter
    }
  }

  /// Record bits of engine `e`: did it pulse in the record, terminator
  /// included?
  void leaf_record_bits(std::size_t e, std::uint64_t* out) const {
    const std::uint64_t* fire = bits_.data() + e * stride_;
    bool carry = false;
    for (std::size_t w = 0; w < stride_; ++w)
      out[w] = segment_any(ends_[w], fire[w], carry);
  }

  /// Record bits of group `g` over the current pass into `out` (see the
  /// block comment above the class). When a member pulse of a scope group
  /// sits in a segment ending at an open, the records holding one that
  /// group_pass left unfired step the tracker.
  void group_record_bits(std::size_t g, std::uint64_t* out) {
    const group_info& info = plan_->groups[g];
    if (!group_pass(info, out)) return;
    bool segment_carry = false;
    bool record_carry = false;
    for (std::size_t w = 0; w < stride_; ++w) {
      std::uint64_t pulses = 0;
      for (const std::size_t e : info.members) pulses |= bits_of(e)[w];
      const std::uint64_t at_opens =
          segment_any(scope_bounds_[w], pulses, segment_carry) & opens_[w];
      for (std::uint64_t flagged =
               segment_any(ends_[w], at_opens, record_carry) & ~out[w];
           flagged != 0; flagged &= flagged - 1) {
        const auto bit = static_cast<unsigned>(std::countr_zero(flagged));
        if (step_tracker(info, (w << 6) + bit)) out[w] |= std::uint64_t{1} << bit;
      }
    }
  }

  /// One pass over group `info`'s members, two at a time with their
  /// segment carries in locals (an odd count repeats its last member,
  /// which changes no AND or OR): per member, the segments holding one of
  /// its pulses, AND-ed in `out` - a scope group keeps those ending at a
  /// close or a terminator - and, after the last pair, carried to the
  /// terminators. Returns whether a member pulse of a scope group sits in
  /// a segment ending at an open.
  bool group_pass(const group_info& info, std::uint64_t* out) {
    // Locals throughout: a store to `out` could otherwise alias the
    // members' sizes and the engine's own fields.
    constexpr std::size_t block = 2;
    const bool scope = info.kind == group_kind::scope;
    const std::size_t count = info.members.size();
    const std::size_t words = stride_;
    const std::uint64_t* bounds = scope ? scope_bounds_.data() : pair_bounds_.data();
    // The bounds a group's segments may end at: a pair segment holds
    // member bits only at its bounds anyway.
    const std::uint64_t* stops = scope ? closes_.data() : bounds;
    const std::uint64_t* ends = ends_;
    const std::uint64_t* opens = opens_.data();
    std::uint64_t open_ended = 0;
    for (std::size_t first = 0; first < count; first += block) {
      const bool last = first + block >= count;
      const std::uint64_t fresh = first == 0 ? ~std::uint64_t{0} : 0;
      std::array<const std::uint64_t*, block> fire{};
      std::array<bool, block> held_carry{};
      for (std::size_t m = 0; m < block; ++m)
        fire[m] = bits_.data() + info.members[std::min(first + m, count - 1)] * words;
      bool carry = false;
      for (std::size_t w = 0; w < words; ++w) {
        std::uint64_t all = (out[w] | fresh) & (stops[w] | ends[w]);
        std::uint64_t any = 0;
        for (std::size_t m = 0; m < block; ++m) {
          const std::uint64_t held = segment_any(bounds[w], fire[m][w], held_carry[m]);
          all &= held;
          any |= held;
        }
        open_ended |= any & opens[w];
        const std::uint64_t fired = segment_any(ends[w], all, carry);
        out[w] = last ? fired : all;
      }
    }
    return scope && open_ended != 0;
  }

  /// Scope group `info` on the record ending at terminator `end`, decided
  /// by the reference tracker stepped over the record's member pulses,
  /// scope bytes and terminator - its step() is a no-op on every other
  /// byte. The depth counter restarts at the record's first byte.
  bool step_tracker(const group_info& info, std::size_t end) {
    const std::size_t before = prev_bit(ends_, 0, end);
    const std::size_t lo = before == simd::npos ? 0 : before + 1;
    const std::size_t members = info.members.size();
    group_tracker tracker(group_kind::scope, static_cast<int>(members));
    member_fires_.resize(members);
    int depth = 0;
    for (std::size_t w = lo >> 6; w <= end >> 6; ++w) {
      std::uint64_t events = scope_bounds_[w];
      for (const std::size_t e : info.members) events |= bits_of(e)[w];
      if (w == lo >> 6) events &= ~std::uint64_t{0} << (lo & 63);
      if (w == end >> 6) events &= ~std::uint64_t{0} >> (63 - (end & 63));
      for (; events != 0; events &= events - 1) {
        const auto bit = static_cast<unsigned>(std::countr_zero(events));
        structure_state st;
        st.scope_open = ((opens_[w] >> bit) & 1) != 0;
        st.scope_close = ((closes_[w] >> bit) & 1) != 0;
        st.depth_before = depth;
        if (st.scope_open) depth = std::min(depth + 1, max_depth_);
        if (st.scope_close) depth = std::max(depth - 1, 0);
        st.depth = depth;
        for (std::size_t m = 0; m < members; ++m)
          member_fires_[m] = static_cast<char>((bits_of(info.members[m])[w] >> bit) & 1);
        if (tracker.step(st, (w << 6) + bit == end, member_fires_)) return true;
      }
    }
    return false;
  }

  /// Did group `g` fire in the current record? A multi-query plan builds
  /// a group's record bits the first time a record of the pass asks.
  bool group_fired(std::size_t g) {
    std::size_t& slot = group_slot_[g];
    if (slot == simd::npos) {
      slot = group_bits_.size();
      group_bits_.resize(slot + stride_);
      group_record_bits(g, group_bits_.data() + slot);
    }
    return bit_at(group_bits_.data() + slot, terminator_);
  }

  /// One node of the conjunct-prefix trie: prune on the required-engine
  /// mask, evaluate the conjunct (free for pure nodes - the mask test IS
  /// the truth), then fan satisfied terminals out as whole verdict words
  /// and descend. An ancestor conjunct failing skips every query below it.
  void eval_trie(const compiled_layout::trie_node& node, std::uint64_t* words,
                 bool& any) {
    for (std::size_t w = 0; w < engine_words_; ++w)
      if ((fired_words_[w] & node.required[w]) != node.required[w]) return;
    if (!node.pure && !eval(node.conjunct)) return;
    if (!node.fanout.empty()) {
      any = true;
      if (words != nullptr)
        for (const auto& [word, mask] : node.fanout) words[word] |= mask;
    }
    for (const std::size_t child : node.children) {
      eval_trie(plan_->trie[child], words, any);
      if (any && words == nullptr) return;
    }
  }

  /// A trie conjunct on the current record: leaves read the engine-fire
  /// bitmap, groups their record bits.
  bool eval(const plan_node& node) {
    switch (node.k) {
      case plan_node::kind::leaf:
        return ((fired_words_[node.index / 64] >> (node.index % 64)) & 1) != 0;
      case plan_node::kind::group:
        return group_fired(node.index);
      case plan_node::kind::conj:
        for (const plan_node& child : node.children)
          if (!eval(child)) return false;
        return true;
      case plan_node::kind::disj:
        for (const plan_node& child : node.children)
          if (eval(child)) return true;
        return false;
    }
    throw error("chunked filter: invalid eval node");
  }

  simd::simd_level level_;               // resolved vector tier
  int max_depth_;                        // saturation bound (depth_bits)
  // The plan version every record evaluates against, plus raw views of its
  // per-slot arrays for the hot loops (valid while plan_ holds it).
  std::shared_ptr<const plan_version> plan_;
  const std::shared_ptr<const primitive_engine>* engines_ = nullptr;
  const char* run_capable_ = nullptr;     // slot order: run-bit holders
  std::array<std::uint32_t, 64> run_owner_{};  // run bit -> engine slot
  bool multi_ = false;                    // query_count() > 1
  bool has_scopes_ = false;               // some group is a scope group
  bool has_pairs_ = false;                // some group is a pair group

  record_framer framer_;        // stream framing (persists across chunks)
  std::uint64_t ordinal_ = 0;   // stream records decided (hook index)

  // Accepted in-window records whose hook fire is deferred into small
  // batched groups (never survives past its window; see decide).
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

  std::string record_buf_;   // accepts_bits' record and terminator
  bitmap_pass record_pass_;  // accepts_bits' pass over record_buf_

  // Per-pass state: the bytes and bitmaps of the pass the current record
  // was framed from. bits_pass_ names the pass the bitmaps cover (null
  // once it is gone: a window ended, a carried record or probe was
  // decided, or the plan changed).
  const unsigned char* window_ = nullptr;   // the pass's first byte
  const bitmap_pass* bits_pass_ = nullptr;
  std::size_t stride_ = 0;                  // words per bitmap
  const std::uint64_t* ends_ = nullptr;     // the pass's record terminators
  std::vector<std::uint64_t> bits_;         // [engine slot][word] fire bits
  std::vector<std::uint64_t> opens_;        // unmasked '{' '['
  std::vector<std::uint64_t> closes_;       // unmasked '}' ']'
  std::vector<std::uint64_t> scope_bounds_; // opens, closes, ends
  std::vector<std::uint64_t> pair_bounds_;  // unmasked ',' '}' ']', ends
  std::vector<char> member_fires_;          // step_tracker's member pulses
  // One-query plans whose value leaves only pair groups read: the groups'
  // string anchors, and the segments holding an anchor pulse.
  std::vector<std::size_t> pair_anchors_;
  std::vector<std::uint64_t> segments_;
  simd::byte_set silent_;              // see find_silent_bytes
  std::string silent_text_;            // its bytes
  bool silent_ready_ = false;          // silent_ answers the bound plan
  std::vector<std::uint64_t> runs_;    // the pass's walked token bytes
  std::vector<std::uint64_t> scratch_;

  // Record bits. A one-query plan keeps one bitmap per level of its plan
  // tree, level 0 holding its decisions. A multi-query plan keeps every
  // live engine's, and those of the groups read in this pass, in the
  // order they were first read.
  std::vector<std::uint64_t> plan_bits_;    // [level][word]
  std::vector<std::uint64_t> hits_;         // [engine slot][word]
  std::vector<std::size_t> group_slot_;     // group order: group_bits_ offset
  std::vector<std::uint64_t> group_bits_;   // [read order][word]

  // Multi-query per-record state: the terminator, and the engine-fire
  // bitmap every plan leaf reads and the trie's required-mask pruning
  // tests against.
  std::size_t terminator_ = 0;
  std::size_t engine_words_ = 0;            // ceil(engines / 64)
  std::vector<std::uint64_t> fired_words_;  // per-record engine-fire bitmap

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
