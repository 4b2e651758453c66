#include "regex/dfa.hpp"

#include <algorithm>
#include <map>
#include <numeric>
#include <queue>
#include <set>

#include "regex/parser.hpp"
#include "util/error.hpp"

namespace jrf::regex {
namespace {

/// Partition the byte alphabet so that all bytes in one class behave
/// identically on every edge label in `labels`.
std::pair<std::vector<std::uint16_t>, int> partition_alphabet(
    const std::vector<class_set>& labels) {
  std::vector<class_set> blocks{class_set::all()};
  for (const auto& label : labels) {
    if (label.empty()) continue;
    std::vector<class_set> next;
    next.reserve(blocks.size() + 1);
    for (const auto& block : blocks) {
      const class_set inside = block & label;
      const class_set outside = block & label.complemented();
      if (!inside.empty()) next.push_back(inside);
      if (!outside.empty()) next.push_back(outside);
    }
    blocks = std::move(next);
  }
  std::vector<std::uint16_t> byte_to_class(256, 0);
  for (unsigned b = 0; b < 256; ++b) {
    for (std::size_t k = 0; k < blocks.size(); ++k) {
      if (blocks[k].contains(static_cast<unsigned char>(b))) {
        byte_to_class[b] = static_cast<std::uint16_t>(k);
        break;
      }
    }
  }
  return {std::move(byte_to_class), static_cast<int>(blocks.size())};
}

}  // namespace

dfa dfa::determinize(const nfa& m) {
  dfa out;
  std::vector<class_set> labels;
  for (const auto& s : m.states)
    for (const auto& e : s.edges) labels.push_back(e.on);
  auto [byte_to_class, num_classes] = partition_alphabet(labels);
  out.byte_to_class_ = std::move(byte_to_class);
  out.num_classes_ = num_classes;

  // One representative byte per class.
  std::vector<unsigned char> representative(static_cast<std::size_t>(num_classes), 0);
  for (int b = 255; b >= 0; --b)
    representative[out.byte_to_class_[static_cast<std::size_t>(b)]] =
        static_cast<unsigned char>(b);

  auto closure_of = [&m](std::vector<int> set) {
    std::vector<char> mark(m.states.size(), 0);
    for (int s : set) mark[static_cast<std::size_t>(s)] = 1;
    std::vector<int> work = set;
    while (!work.empty()) {
      const int s = work.back();
      work.pop_back();
      for (int t : m.states[static_cast<std::size_t>(s)].eps) {
        if (!mark[static_cast<std::size_t>(t)]) {
          mark[static_cast<std::size_t>(t)] = 1;
          set.push_back(t);
          work.push_back(t);
        }
      }
    }
    std::ranges::sort(set);
    return set;
  };

  std::map<std::vector<int>, int> ids;
  std::vector<std::vector<int>> subsets;
  auto intern = [&](std::vector<int> subset) {
    auto [it, inserted] = ids.emplace(std::move(subset), static_cast<int>(subsets.size()));
    if (inserted) subsets.push_back(it->first);
    return it->second;
  };

  const int start_id = intern(closure_of({m.start}));
  out.start_ = start_id;

  std::queue<int> work;
  work.push(start_id);
  std::vector<char> queued(1, 1);
  while (!work.empty()) {
    const int id = work.front();
    work.pop();
    const std::vector<int> subset = subsets[static_cast<std::size_t>(id)];
    for (int cls = 0; cls < num_classes; ++cls) {
      const unsigned char byte = representative[static_cast<std::size_t>(cls)];
      std::vector<int> move;
      for (int s : subset) {
        for (const auto& e : m.states[static_cast<std::size_t>(s)].edges)
          if (e.on.contains(byte)) move.push_back(e.target);
      }
      std::ranges::sort(move);
      move.erase(std::unique(move.begin(), move.end()), move.end());
      const int target = intern(closure_of(std::move(move)));
      if (static_cast<std::size_t>(target) >= queued.size()) {
        queued.resize(static_cast<std::size_t>(target) + 1, 0);
      }
      if (!queued[static_cast<std::size_t>(target)]) {
        queued[static_cast<std::size_t>(target)] = 1;
        work.push(target);
      }
      // The table rows are filled after all states are known; remember the
      // transition in a flat list indexed later. To keep a single pass we
      // grow the table lazily here instead.
      const std::size_t need =
          (static_cast<std::size_t>(id) + 1) * static_cast<std::size_t>(num_classes);
      if (out.table_.size() < need) out.table_.resize(need, 0);
      out.table_[static_cast<std::size_t>(id) * static_cast<std::size_t>(num_classes) +
                 static_cast<std::size_t>(cls)] = target;
    }
  }

  out.table_.resize(subsets.size() * static_cast<std::size_t>(num_classes), 0);
  out.accepting_.resize(subsets.size(), 0);
  for (std::size_t i = 0; i < subsets.size(); ++i) {
    out.accepting_[i] =
        std::ranges::binary_search(subsets[i], m.accept) ? 1 : 0;
  }
  return out;
}

bool dfa::dead(int state) const {
  if (accepting(state)) return false;
  for (int cls = 0; cls < num_classes_; ++cls)
    if (transition(state, cls) != state) return false;
  return true;
}

bool dfa::run(std::string_view text) const {
  int s = start_;
  for (char c : text) s = step(s, static_cast<unsigned char>(c));
  return accepting(s);
}

class_set dfa::class_symbols(int cls) const {
  class_set out;
  for (unsigned b = 0; b < 256; ++b)
    if (byte_to_class_[b] == cls) out.add(static_cast<unsigned char>(b));
  return out;
}

dfa dfa::product(const dfa& a, const dfa& b, bool (*combine)(bool, bool)) {
  dfa out;
  // The product alphabet partition must refine both operands' partitions.
  std::vector<class_set> labels;
  for (int cls = 0; cls < a.num_classes_; ++cls) labels.push_back(a.class_symbols(cls));
  for (int cls = 0; cls < b.num_classes_; ++cls) labels.push_back(b.class_symbols(cls));
  auto [byte_to_class, num_classes] = partition_alphabet(labels);
  out.byte_to_class_ = std::move(byte_to_class);
  out.num_classes_ = num_classes;

  std::vector<unsigned char> representative(static_cast<std::size_t>(num_classes), 0);
  for (int byte = 255; byte >= 0; --byte)
    representative[out.byte_to_class_[static_cast<std::size_t>(byte)]] =
        static_cast<unsigned char>(byte);

  std::map<std::pair<int, int>, int> ids;
  std::vector<std::pair<int, int>> pairs;
  auto intern = [&](std::pair<int, int> p) {
    auto [it, inserted] = ids.emplace(p, static_cast<int>(pairs.size()));
    if (inserted) pairs.push_back(p);
    return it->second;
  };

  out.start_ = intern({a.start_, b.start_});
  std::queue<int> work;
  work.push(out.start_);
  std::vector<char> queued(1, 1);
  while (!work.empty()) {
    const int id = work.front();
    work.pop();
    const auto [sa, sb] = pairs[static_cast<std::size_t>(id)];
    for (int cls = 0; cls < num_classes; ++cls) {
      const unsigned char byte = representative[static_cast<std::size_t>(cls)];
      const int target = intern({a.step(sa, byte), b.step(sb, byte)});
      if (static_cast<std::size_t>(target) >= queued.size())
        queued.resize(static_cast<std::size_t>(target) + 1, 0);
      if (!queued[static_cast<std::size_t>(target)]) {
        queued[static_cast<std::size_t>(target)] = 1;
        work.push(target);
      }
      const std::size_t need =
          (static_cast<std::size_t>(id) + 1) * static_cast<std::size_t>(num_classes);
      if (out.table_.size() < need) out.table_.resize(need, 0);
      out.table_[static_cast<std::size_t>(id) * static_cast<std::size_t>(num_classes) +
                 static_cast<std::size_t>(cls)] = target;
    }
  }
  out.table_.resize(pairs.size() * static_cast<std::size_t>(num_classes), 0);
  out.accepting_.resize(pairs.size(), 0);
  for (std::size_t i = 0; i < pairs.size(); ++i)
    out.accepting_[i] = combine(a.accepting(pairs[i].first), b.accepting(pairs[i].second)) ? 1 : 0;
  return out;
}

dfa dfa::quotient(const std::vector<int>& state_to_block, int block_count) const {
  dfa out;
  out.byte_to_class_ = byte_to_class_;
  out.num_classes_ = num_classes_;
  out.start_ = state_to_block[static_cast<std::size_t>(start_)];
  out.table_.assign(static_cast<std::size_t>(block_count) * static_cast<std::size_t>(num_classes_), 0);
  out.accepting_.assign(static_cast<std::size_t>(block_count), 0);
  for (int s = 0; s < state_count(); ++s) {
    const int block = state_to_block[static_cast<std::size_t>(s)];
    out.accepting_[static_cast<std::size_t>(block)] = accepting_[static_cast<std::size_t>(s)];
    for (int cls = 0; cls < num_classes_; ++cls) {
      out.table_[static_cast<std::size_t>(block) * static_cast<std::size_t>(num_classes_) +
                 static_cast<std::size_t>(cls)] =
          state_to_block[static_cast<std::size_t>(transition(s, cls))];
    }
  }
  return out;
}

dfa dfa::minimized() const {
  const int n = state_count();
  const int k = num_classes_;
  if (n <= 1) return *this;

  // Inverse transition lists: preimage[cls][t] = states s with d(s,cls)=t.
  std::vector<std::vector<std::vector<int>>> preimage(
      static_cast<std::size_t>(k),
      std::vector<std::vector<int>>(static_cast<std::size_t>(n)));
  for (int s = 0; s < n; ++s)
    for (int cls = 0; cls < k; ++cls)
      preimage[static_cast<std::size_t>(cls)][static_cast<std::size_t>(transition(s, cls))]
          .push_back(s);

  // Hopcroft's algorithm with sets represented as sorted vectors.
  std::vector<std::set<int>> blocks;
  std::set<int> accepting_set;
  std::set<int> rejecting_set;
  for (int s = 0; s < n; ++s) {
    if (accepting(s))
      accepting_set.insert(s);
    else
      rejecting_set.insert(s);
  }
  std::vector<int> state_to_block(static_cast<std::size_t>(n), 0);
  if (!accepting_set.empty()) blocks.push_back(std::move(accepting_set));
  if (!rejecting_set.empty()) blocks.push_back(std::move(rejecting_set));
  for (std::size_t b = 0; b < blocks.size(); ++b)
    for (int s : blocks[b]) state_to_block[static_cast<std::size_t>(s)] = static_cast<int>(b);

  std::set<std::pair<int, int>> worklist;  // (block index, class)
  for (std::size_t b = 0; b < blocks.size(); ++b)
    for (int cls = 0; cls < k; ++cls) worklist.insert({static_cast<int>(b), cls});

  while (!worklist.empty()) {
    const auto [splitter_block, cls] = *worklist.begin();
    worklist.erase(worklist.begin());

    // X = preimage of splitter under cls.
    std::vector<int> x;
    for (int t : blocks[static_cast<std::size_t>(splitter_block)])
      for (int s : preimage[static_cast<std::size_t>(cls)][static_cast<std::size_t>(t)])
        x.push_back(s);
    if (x.empty()) continue;

    // Group X members by their current block.
    std::map<int, std::vector<int>> touched;
    for (int s : x) touched[state_to_block[static_cast<std::size_t>(s)]].push_back(s);

    for (auto& [block_index, members] : touched) {
      auto& block = blocks[static_cast<std::size_t>(block_index)];
      if (members.size() == block.size()) continue;  // not split
      // Split: move `members` into a new block.
      std::set<int> moved(members.begin(), members.end());
      for (int s : moved) block.erase(s);
      const int new_index = static_cast<int>(blocks.size());
      for (int s : moved) state_to_block[static_cast<std::size_t>(s)] = new_index;
      blocks.push_back(std::move(moved));
      for (int c2 = 0; c2 < k; ++c2) {
        if (worklist.count({block_index, c2})) {
          worklist.insert({new_index, c2});
        } else {
          // Add the smaller half.
          const bool new_smaller =
              blocks[static_cast<std::size_t>(new_index)].size() <=
              blocks[static_cast<std::size_t>(block_index)].size();
          worklist.insert({new_smaller ? new_index : block_index, c2});
        }
      }
    }
  }
  return quotient(state_to_block, static_cast<int>(blocks.size()));
}

dfa dfa::minimized_moore() const {
  const int n = state_count();
  const int k = num_classes_;
  std::vector<int> block(static_cast<std::size_t>(n));
  for (int s = 0; s < n; ++s) block[static_cast<std::size_t>(s)] = accepting(s) ? 1 : 0;
  int block_count = 2;
  for (;;) {
    std::map<std::vector<int>, int> signatures;
    std::vector<int> next(static_cast<std::size_t>(n));
    for (int s = 0; s < n; ++s) {
      std::vector<int> sig;
      sig.reserve(static_cast<std::size_t>(k) + 1);
      sig.push_back(block[static_cast<std::size_t>(s)]);
      for (int cls = 0; cls < k; ++cls)
        sig.push_back(block[static_cast<std::size_t>(transition(s, cls))]);
      auto [it, inserted] = signatures.emplace(std::move(sig), static_cast<int>(signatures.size()));
      next[static_cast<std::size_t>(s)] = it->second;
    }
    const int next_count = static_cast<int>(signatures.size());
    if (next_count == block_count && next == block) break;
    block = std::move(next);
    block_count = next_count;
  }
  return quotient(block, block_count);
}

std::string dfa::to_dot() const {
  std::string out = "digraph dfa {\n  rankdir=LR;\n  node [shape=circle];\n";
  out += "  start [shape=point];\n  start -> s" + std::to_string(start_) + ";\n";
  for (int s = 0; s < state_count(); ++s) {
    if (dead(s)) continue;
    if (accepting(s))
      out += "  s" + std::to_string(s) + " [shape=doublecircle];\n";
    for (int cls = 0; cls < num_classes_; ++cls) {
      const int t = transition(s, cls);
      if (dead(t)) continue;
      out += "  s" + std::to_string(s) + " -> s" + std::to_string(t) + " [label=\"" +
             class_symbols(cls).to_string() + "\"];\n";
    }
  }
  out += "}\n";
  return out;
}

std::string dfa::describe() const {
  std::string out;
  out += "states=" + std::to_string(state_count()) +
         " classes=" + std::to_string(num_classes_) +
         " start=s" + std::to_string(start_) + "\n";
  for (int s = 0; s < state_count(); ++s) {
    out += "  s" + std::to_string(s);
    if (accepting(s)) out += " [accept]";
    if (dead(s)) out += " [dead]";
    out += ":";
    for (int cls = 0; cls < num_classes_; ++cls) {
      const int t = transition(s, cls);
      if (dead(t) && !dead(s)) continue;
      if (dead(s)) break;
      out += " " + class_symbols(cls).to_string() + "->s" + std::to_string(t);
    }
    out += "\n";
  }
  return out;
}

dfa compile(const node_ptr& root) {
  return dfa::determinize(build_nfa(root)).minimized();
}

dfa compile(std::string_view pattern) { return compile(parse(pattern)); }

nfa to_nfa(const dfa& d) {
  nfa out;
  out.states.resize(static_cast<std::size_t>(d.state_count()) + 1);
  const int accept = d.state_count();
  for (int s = 0; s < d.state_count(); ++s) {
    if (d.dead(s)) continue;
    for (int cls = 0; cls < d.class_count(); ++cls) {
      const int t = d.transition(s, cls);
      if (d.dead(t)) continue;
      out.states[static_cast<std::size_t>(s)].edges.push_back({d.class_symbols(cls), t});
    }
    if (d.accepting(s)) out.states[static_cast<std::size_t>(s)].eps.push_back(accept);
  }
  out.start = d.start();
  out.accept = accept;
  return out;
}

}  // namespace jrf::regex
