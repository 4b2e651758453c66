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
// A record is decided from its bit range [offset, offset + size] in those
// bitmaps, its terminator included:
//
//   leaves       = a range test; an N > 1 plan fills its engine-fire
//                  bitmap with one range test per live engine and walks
//                  the plan trie against it,
//   scope groups = one loop: the arming pulse is the next bit of any
//                  member, the close comes from the record's scope events
//                  (the window's unmasked opens and closes), and the group
//                  fires when every member has a bit in between,
//   pair groups  = one loop: a segment between consecutive pair bounds
//                  holding a bit of the first member fires when every
//                  member has a bit inside it.
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
//     separator); on every other byte its step() is a no-op. A scope
//     tracker arms at the first member pulse after a clear, freezing the
//     depth before that byte, and samples at the next scope close back at
//     or below that depth, or at the separator; a pair tracker samples at
//     every pair bound and the separator. Each loop iteration is one such
//     armed window, and the group fires iff every member latched in it.
//     The structural bitmap excludes masked bytes by construction, so the
//     event walk needs only the saturating depth counter.
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
    silent_ready_ = false;  // asked again by the next walk
    expr_ = p.front;
    query_count_ = p.queries;
    multi_ = p.queries > 1;
    engines_ = p.engines.data();
    run_capable_ = p.run_capable.data();
    for (const std::uint32_t e : p.live)
      if (run_capable_[e]) run_owner_[p.run_slot[e]] = e;
    has_scopes_ = has_pairs_ = false;
    std::size_t members = 0;
    for (const compiled_layout::group_info& g : p.groups) {
      (g.kind == group_kind::scope ? has_scopes_ : has_pairs_) = true;
      members = std::max(members, g.members.size());
    }
    cursor_.resize(members);
    bits_pass_ = nullptr;  // the fire bitmaps follow the plan's engines
    pair_anchors_.clear();
    if (!multi_ && p.run_bits != 0 && !paired_runs_only(p.root))
      pair_anchors_.clear();
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
  /// pass builds the pass's fire bitmaps, which every later record of it
  /// and every resident query's plan read; multi-query evaluation computes
  /// one engine-fire bitmap per record and walks the conjunct-prefix trie
  /// against it, so a shared conjunct evaluates once and fans out to every
  /// subscribing verdict bit (group outcomes stay memoized per record).
  bool evaluate_record(std::span<const unsigned char> record,
                       const bitmap_pass& pass, std::size_t offset,
                       std::uint64_t* words = nullptr) {
    window_ = record.data() - offset;
    if (&pass != bits_pass_) build_bits(pass);
    lo_ = offset;
    hi_ = offset + record.size() + 1;
    events_ready_ = false;
    bool any = false;
    if (!multi_) {
      any = eval(plan_->root);
      if (any && words != nullptr) words[0] = 1;
    } else {
      ++record_epoch_;  // pre-increment: the zero-initialised stamps of a
                        // fresh/cloned engine can never falsely hit
      // Engine-fire bitmap: one range test per live engine. Every leaf of
      // every resident plan reads its bit from here, and the trie walk
      // below prunes whole query subtrees off it - a record's cost is
      // O(unique engines) plus the trie nodes whose required engines all
      // fired, not O(resident queries).
      std::fill(fired_words_.begin(), fired_words_.end(), 0);
      for (const std::uint32_t e : plan_->live)
        if (next_bit(bits_of(e), lo_, hi_) != simd::npos)
          fired_words_[e / 64] |= std::uint64_t{1} << (e % 64);
      for (const std::size_t root : plan_->trie_roots) {
        eval_trie(plan_->trie[root], words, any);
        if (any && words == nullptr) break;  // any-match probe: one hit decides
      }
    }
    // A carried record's or a probe's pass dies with this call.
    if (&pass != &framer_.pass()) bits_pass_ = nullptr;
    return any;
  }

  /// The fire bitmap of engine slot `e` over the current pass.
  std::span<const std::uint64_t> bits_of(std::size_t e) const {
    return {bits_.data() + e * stride_, stride_};
  }

  /// Did engine `e` pulse anywhere in the current record+terminator?
  bool fired(std::size_t e) const {
    if (multi_) return (fired_words_[e / 64] >> (e % 64)) & 1;
    return next_bit(bits_of(e), lo_, hi_) != simd::npos;
  }

  /// Fill one fire bitmap per live engine over `pass` (window_ holds its
  /// bytes), plus the structural bitmaps the plan's groups read.
  void build_bits(const bitmap_pass& pass) {
    bits_pass_ = &pass;
    const std::size_t n = pass.size();
    const std::span<const unsigned char> window(window_, n);
    const std::span<const std::uint64_t> boundary = pass.boundary();
    stride_ = (n + 63) / 64;
    if (bits_.size() < plan_->engines.size() * stride_)
      bits_.resize(plan_->engines.size() * stride_);
    for (const std::uint32_t e : plan_->live) {
      std::uint64_t* out = bits_.data() + e * stride_;
      if (run_capable_[e])
        std::fill_n(out, stride_, std::uint64_t{0});
      else
        engines_[e]->fire_bits(window, boundary, out);
    }
    if (has_scopes_ || has_pairs_) {
      // The unmasked opens and closes the scope groups' event walk reads,
      // and the pair bounds: the unmasked ',' '}' ']' - structural minus
      // the opens - and the record boundaries.
      static const simd::byte_set open_bytes{std::string_view("{[")};
      static const simd::byte_set close_bytes{std::string_view("}]")};
      const std::span<const std::uint64_t> structural = pass.structural();
      opens_.resize(stride_);
      simd::match_words(window_, n, open_bytes, level_, opens_.data());
      for (std::size_t w = 0; w < stride_; ++w) opens_[w] &= structural[w];
      if (has_scopes_) {
        closes_.resize(stride_);
        simd::match_words(window_, n, close_bytes, level_, closes_.data());
        for (std::size_t w = 0; w < stride_; ++w) closes_[w] &= structural[w];
      }
      if (has_pairs_) {
        pair_bounds_.resize(stride_);
        for (std::size_t w = 0; w < stride_; ++w)
          pair_bounds_[w] = (structural[w] & ~opens_[w]) | boundary[w];
      }
    }
    if (plan_->run_bits == 0) return;
    if (!pair_anchors_.empty()) {
      // Only pair groups read the value leaves, beside string anchors:
      // their pulses count only in segments holding an anchor pulse, so
      // only the runs ending there are walked.
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
    walk_runs(pass);
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
  /// members after a first member holding no run bit; those groups' first
  /// members (their anchors) go to pair_anchors_.
  bool paired_runs_only(const compiled_layout::plan_node& node) {
    using plan_node = compiled_layout::plan_node;
    switch (node.k) {
      case plan_node::kind::leaf:
        return !run_capable_[node.index];
      case plan_node::kind::group: {
        const compiled_layout::group_info& g = plan_->groups[node.index];
        if (g.kind == group_kind::scope)
          return std::none_of(g.members.begin(), g.members.end(),
                              [&](std::size_t e) { return run_capable_[e]; });
        if (run_capable_[g.members.front()]) return false;
        pair_anchors_.push_back(g.members.front());
        return true;
      }
      case plan_node::kind::conj:
      case plan_node::kind::disj:
        for (const plan_node& child : node.children)
          if (!paired_runs_only(child)) return false;
        return true;
    }
    return false;
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

  bool eval(const compiled_layout::plan_node& node) {
    using plan_node = compiled_layout::plan_node;
    switch (node.k) {
      case plan_node::kind::leaf:
        return fired(node.index);
      case plan_node::kind::group:
        if (multi_) {
          if (group_epoch_[node.index] == record_epoch_)
            return group_val_[node.index] != 0;
          const bool fired = group_fires(node.index);
          group_epoch_[node.index] = record_epoch_;
          group_val_[node.index] = fired ? 1 : 0;
          return fired;
        }
        return group_fires(node.index);
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

  /// One unmasked scope byte of the current record: its absolute position,
  /// and the saturating depth counter before and after it.
  struct scope_event {
    std::size_t pos = 0;
    int depth_before = 0;
    int depth = 0;
    bool close = false;
  };

  /// The record's scope events, from the scope bitmaps of its pass:
  /// positions already unmasked, so the walk is the depth automaton alone.
  void ensure_events() {
    if (events_ready_) return;
    events_.clear();
    int depth = 0;
    const std::size_t end = hi_ - 1;  // the terminator samples regardless
    for (std::size_t w = lo_ >> 6; (w << 6) < end; ++w) {
      std::uint64_t scope = opens_[w] | closes_[w];
      if (w == lo_ >> 6) scope &= ~std::uint64_t{0} << (lo_ & 63);
      if (w == (end - 1) >> 6 && (end & 63) != 0)
        scope &= (std::uint64_t{1} << (end & 63)) - 1;
      for (; scope != 0; scope &= scope - 1) {
        const auto bit = static_cast<unsigned>(std::countr_zero(scope));
        scope_event ev{(w << 6) + bit, depth, depth, false};
        if ((closes_[w] >> bit) & 1) {
          ev.close = true;
          depth = std::max(depth - 1, 0);
        } else {
          depth = std::min(depth + 1, max_depth_);
        }
        ev.depth = depth;
        events_.push_back(ev);
      }
    }
    events_ready_ = true;
  }

  bool group_fires(std::size_t group) {
    const compiled_layout::group_info& info = plan_->groups[group];
    // cursor_[m]: member m's next pulse. A member that never pulses can
    // never be latched at a sample point.
    for (std::size_t m = 0; m < info.members.size(); ++m) {
      const std::size_t e = info.members[m];
      if (multi_ && !fired(e)) return false;  // one bit of the fire bitmap
      cursor_[m] = next_bit(bits_of(e), lo_, hi_);
      if (cursor_[m] == simd::npos) return false;
    }
    return info.kind == group_kind::scope ? scope_fires(info)
                                          : pair_fires(info);
  }

  /// Move every member cursor before `from` to the member's next pulse at
  /// or after it; false when a member has none left (no later window can
  /// latch it).
  bool advance_to(const compiled_layout::group_info& info, std::size_t from) {
    for (std::size_t m = 0; m < info.members.size(); ++m) {
      if (cursor_[m] >= from) continue;
      cursor_[m] = next_bit(bits_of(info.members[m]), from, hi_);
      if (cursor_[m] == simd::npos) return false;
    }
    return true;
  }

  /// Windowed replay of the scope tracker: per armed window, the arming
  /// pulse p (the earliest member cursor), the depth before it, the close
  /// c that samples (the first scope close at or after p back at or below
  /// that depth, else the terminator), and whether every member pulses in
  /// [p, c]. The sample clears every latch, so the next window arms past c.
  bool scope_fires(const compiled_layout::group_info& info) {
    ensure_events();
    const std::size_t members = info.members.size();
    const std::size_t terminator = hi_ - 1;  // always samples
    std::size_t ei = 0;  // events before the current arming pulse
    int depth = 0;       // depth after events_[0 .. ei)
    for (;;) {
      const std::size_t p =
          *std::min_element(cursor_.begin(), cursor_.begin() + members);
      while (ei < events_.size() && events_[ei].pos < p)
        depth = events_[ei++].depth;
      std::size_t c = terminator;
      for (std::size_t ej = ei; ej < events_.size(); ++ej)
        if (events_[ej].close && events_[ej].depth_before <= depth) {
          c = events_[ej].pos;
          break;
        }
      if (std::all_of(cursor_.begin(), cursor_.begin() + members,
                      [&](std::size_t at) { return at <= c; }))
        return true;  // the latch is sticky: one window decides
      if (c == terminator || !advance_to(info, c + 1)) return false;
    }
  }

  /// Pair-group replay: the tracker samples at every pair bound and the
  /// terminator, with no depth dependence, so the group fires iff some
  /// segment (previous bound, bound] holds a pulse of every member. Only
  /// segments holding a pulse of the first member can qualify, so the loop
  /// visits just those.
  bool pair_fires(const compiled_layout::group_info& info) {
    const std::size_t terminator = hi_ - 1;
    for (;;) {
      const std::size_t p = cursor_[0];
      std::size_t bound = next_bit(pair_bounds_, p, terminator);
      if (bound == simd::npos) bound = terminator;
      const std::size_t before = prev_bit(pair_bounds_.data(), lo_, p);
      const std::size_t low = before == simd::npos ? lo_ : before + 1;
      if (!advance_to(info, low)) return false;
      if (std::all_of(cursor_.begin(), cursor_.begin() + info.members.size(),
                      [&](std::size_t at) { return at <= bound; }))
        return true;
      if (bound == terminator || !advance_to(info, bound + 1)) return false;
    }
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

  // Per-pass state: the bytes and fire bitmaps of the pass the current
  // record was framed from. bits_pass_ names the pass the bitmaps cover
  // (null once it is gone: a window ended, a carried record or probe was
  // decided, or the plan changed).
  const unsigned char* window_ = nullptr;   // the pass's first byte
  const bitmap_pass* bits_pass_ = nullptr;
  std::size_t stride_ = 0;                  // words per fire bitmap
  std::vector<std::uint64_t> bits_;         // [engine slot][word]
  std::vector<std::uint64_t> opens_;        // unmasked '{' '['
  std::vector<std::uint64_t> closes_;       // unmasked '}' ']'
  std::vector<std::uint64_t> pair_bounds_;  // unmasked ',' '}' ']', ends
  // One-query plans whose value leaves only pair groups read: the groups'
  // string anchors, and the segments holding an anchor pulse.
  std::vector<std::size_t> pair_anchors_;
  std::vector<std::uint64_t> segments_;
  simd::byte_set silent_;              // see find_silent_bytes
  std::string silent_text_;            // its bytes
  bool silent_ready_ = false;          // silent_ answers the bound plan
  std::vector<std::uint64_t> runs_;    // the pass's walked token bytes
  std::vector<std::uint64_t> scratch_;

  // Per-record scratch, reused across records.
  std::size_t lo_ = 0;                     // record's first bit
  std::size_t hi_ = 0;                     // one past its terminator bit
  bool events_ready_ = false;
  std::vector<scope_event> events_;
  std::vector<std::size_t> cursor_;  // per group member: its next pulse

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
