#include "core/primitive.hpp"

#include <algorithm>
#include <bit>
#include <string_view>

#include "core/simd.hpp"
#include "util/error.hpp"

namespace jrf::core {

using netlist::bus;
using netlist::network;
using netlist::node_id;

std::string string_spec::to_string() const {
  // Built up with += (not nested operator+) so GCC 12's -Wrestrict does
  // not misfire on the rvalue-insert path under -O3 -Werror.
  std::string out = technique == string_technique::dfa
                        ? std::string("dfa(\"")
                        : "s" + std::to_string(block) + "(\"";
  out += text;
  out += "\")";
  return out;
}

std::vector<std::string> string_spec::substrings() const {
  std::vector<std::string> out;
  if (block <= 0 || static_cast<std::size_t>(block) > text.size()) return out;
  for (std::size_t i = 0; i + static_cast<std::size_t>(block) <= text.size(); ++i) {
    std::string gram = text.substr(i, static_cast<std::size_t>(block));
    if (std::ranges::find(out, gram) == out.end()) out.push_back(std::move(gram));
  }
  return out;
}

int string_spec::threshold() const {
  return static_cast<int>(text.size()) - block + 1;
}

std::string to_string(const primitive_spec& spec) {
  return std::visit([](const auto& s) { return s.to_string(); }, spec);
}

std::string spec_key(const primitive_spec& spec) {
  if (const auto* s = std::get_if<string_spec>(&spec)) {
    // to_string already encodes technique + block; the text is embedded
    // verbatim, so distinct texts can never collide.
    return "s|" + s->to_string();
  }
  const auto& v = std::get<value_spec>(spec);
  // range_spec::to_string covers kind (i/f) and both bounds; the build
  // options alter the compiled token DFA, so they are part of identity.
  std::string out = "v|" + v.range.to_string();
  out += v.options.exponent_escape ? "|e1" : "|e0";
  out += v.options.allow_leading_zeros ? "z1" : "z0";
  return out;
}

namespace {

void validate_search_string(const string_spec& spec) {
  if (spec.text.empty()) throw error("string primitive: empty search string");
  if (spec.technique == string_technique::substring &&
      (spec.block < 1 || static_cast<std::size_t>(spec.block) > spec.text.size()))
    throw error("string primitive: block length out of range for " + spec.to_string());
  for (char c : spec.text)
    if (static_cast<unsigned char>(c) < 0x20)
      throw error("string primitive: control characters not supported");
}

int counter_width(int threshold) {
  int bits = 1;
  while ((1 << bits) <= threshold) ++bits;
  return bits;
}

/// (iii) B-gram matcher; (ii) exact compare falls out as B = N.
class substring_engine final : public primitive_engine {
 public:
  explicit substring_engine(string_spec spec,
                            simd::simd_level level = simd::simd_level::automatic)
      : spec_(std::move(spec)),
        grams_(spec_.substrings()),
        threshold_(spec_.threshold()),
        width_(counter_width(threshold_)),
        mask_((1u << width_) - 1),
        buffer_(static_cast<std::size_t>(spec_.block), 0),
        level_(simd::resolve(level)) {
    validate_search_string(spec_);
    std::vector<unsigned char> last_bytes;
    for (const std::string& gram : grams_)
      last_bytes.push_back(static_cast<unsigned char>(gram.back()));
    last_bytes_ = simd::byte_set({last_bytes.data(), last_bytes.size()});
  }

  void reset() override {
    std::ranges::fill(buffer_, 0);
    counter_ = 0;
  }

  std::unique_ptr<primitive_engine> clone() const override {
    auto copy = std::make_unique<substring_engine>(*this);
    copy->reset();
    return copy;
  }

  bool fires_in(std::span<const unsigned char> record,
                unsigned char terminator) const override {
    // Exact compare (B = N, threshold 1): a single gram, any occurrence
    // fires - delegate the scan to the vectored substring search.
    if (threshold_ == 1 && grams_.size() == 1) {
      const std::string& gram = grams_.front();
      if (simd::find_substring(
              record.data(), record.size(),
              reinterpret_cast<const unsigned char*>(gram.data()), gram.size(),
              level_) != simd::npos)
        return true;
      return hit_at(record, terminator, record.size());
    }
    bool fired = false;
    scan(record, terminator, [&](std::size_t) {
      fired = true;
      return false;  // stop
    });
    return fired;
  }

  void fire_positions(std::span<const unsigned char> record,
                      unsigned char terminator,
                      std::vector<std::uint32_t>& out) const override {
    scan(record, terminator, [&](std::size_t pos) {
      out.push_back(static_cast<std::uint32_t>(pos));
      return true;  // keep scanning
    });
  }

  void scan_fires(std::span<const unsigned char> record,
                  unsigned char terminator, fire_sink sink,
                  void* ctx) const override {
    scan(record, terminator, [&](std::size_t pos) {
      return sink(ctx, static_cast<std::uint32_t>(pos));
    });
  }

  bool step(unsigned char byte) override {
    // buffer_[0] is the newest byte after the shift.
    for (std::size_t i = buffer_.size(); i-- > 1;) buffer_[i] = buffer_[i - 1];
    buffer_[0] = byte;
    bool hit = false;
    for (const std::string& gram : grams_) {
      bool all = true;
      for (std::size_t j = 0; j < gram.size(); ++j) {
        // buffer_[k] is k cycles old; gram byte j arrived B-1-j cycles ago.
        if (buffer_[gram.size() - 1 - j] != static_cast<unsigned char>(gram[j])) {
          all = false;
          break;
        }
      }
      if (all) {
        hit = true;
        break;
      }
    }
    counter_ = hit ? ((counter_ + 1) & mask_) : 0;
    return counter_ == static_cast<unsigned>(threshold_);
  }

  elaborated_primitive elaborate(network& net, const bus& byte,
                                 node_id record_reset,
                                 const std::string& prefix) const override {
    const int b = spec_.block;
    // Window: window[0] = current input byte, window[k] = byte k cycles ago.
    std::vector<bus> window{byte};
    if (b > 1) {
      const auto stages =
          netlist::shift_bytes(net, byte, b - 1, record_reset, prefix + ".buf");
      for (const auto& stage : stages) window.push_back(stage);
    }
    std::vector<node_id> hits;
    hits.reserve(grams_.size());
    for (const std::string& gram : grams_) {
      std::vector<node_id> bytes_equal;
      for (std::size_t j = 0; j < gram.size(); ++j)
        bytes_equal.push_back(netlist::eq_const(
            net, window[gram.size() - 1 - j],
            static_cast<unsigned char>(gram[j])));
      hits.push_back(net.and_all(bytes_equal));
    }
    const node_id any_hit = net.or_all(hits);

    const bus counter = netlist::dff_bus(net, prefix + ".cnt", width_);
    const bus plus_one = netlist::increment(net, counter);
    bus counted;
    for (std::size_t i = 0; i < counter.size(); ++i) {
      counted.push_back(net.and_gate(any_hit, plus_one[i]));
      net.connect_dff(counter[i], counted[i], record_reset);
    }
    // The fire pulse compares the pre-reset count: the separator byte is
    // never part of a gram, so `counted` is zero on boundary bytes anyway.
    return {netlist::eq_const(net, counted,
                              static_cast<std::uint64_t>(threshold_))};
  }

 private:
  /// Candidate-driven replay of the hit counter: a position can only hit
  /// when its byte ends some gram, so the scan classifies whole chunks
  /// against the gram-last-byte set (vectored membership mask), confirms
  /// each candidate with the scalar window compare, and resets the counter
  /// across skipped positions (which are all misses). Pulse-for-pulse
  /// identical to stepping every position: misses cannot fire (threshold
  /// >= 1) and candidate order is preserved. B = 1 takes the run-length
  /// path: membership is the whole compare, so whole runs of set mask
  /// bits advance the counter at once.
  template <typename OnFire>
  void scan(std::span<const unsigned char> record, unsigned char terminator,
            OnFire&& on_fire) const {
    if (spec_.block == 1) {
      scan_b1(record, terminator, on_fire);
      return;
    }
    const std::size_t n = record.size();
    const std::size_t width = simd::chunk_width(level_);
    unsigned counter = 0;
    std::size_t next_pos = 0;  // first position the counter has not seen
    for (std::size_t base = 0; base < n; base += width) {
      std::uint64_t mask =
          simd::match_mask(record.data() + base, n - base, last_bytes_, level_);
      while (mask != 0) {
        const auto bit = static_cast<unsigned>(std::countr_zero(mask));
        mask &= mask - 1;
        const std::size_t pos = base + bit;
        if (pos != next_pos) counter = 0;  // skipped positions all missed
        counter = hit_at(record, terminator, pos) ? ((counter + 1) & mask_) : 0;
        next_pos = pos + 1;
        if (counter == static_cast<unsigned>(threshold_) && !on_fire(pos))
          return;
      }
    }
    // Position n: the appended terminator byte.
    if (last_bytes_.contains(terminator)) {
      if (n != next_pos) counter = 0;
      counter = hit_at(record, terminator, n) ? ((counter + 1) & mask_) : 0;
      if (counter == static_cast<unsigned>(threshold_)) on_fire(n);
    }
  }

  /// B = 1 run-length replay. A hit at a position is exactly byte-set
  /// membership (the window compare degenerates to the bitmap test), so a
  /// run of L consecutive set mask bits advances the wrap-around counter
  /// by L in one step instead of L confirms. With counter value v at the
  /// run start, 1-based run offset j fires iff (v + j) mod 2^w ==
  /// threshold (w = the hardware counter width), so the fires inside a run
  /// are j0, j0 + 2^w, ... with j0 = ((threshold - v) mod 2^w, or 2^w when
  /// that is 0). Work per chunk is O(runs + fires), not O(member bytes) -
  /// the payoff on dense member sets (a one-char gram's last-byte set, or
  /// any B = 1 spec whose alphabet covers much of the record). The counter
  /// value, wrap behaviour and emitted pulses match the scalar step()
  /// exactly, including the fire-every-2^w-bytes cadence inside runs
  /// longer than the threshold.
  template <typename OnFire>
  void scan_b1(std::span<const unsigned char> record, unsigned char terminator,
               OnFire&& on_fire) const {
    const std::size_t n = record.size();
    const std::size_t width = simd::chunk_width(level_);
    const unsigned modulus = mask_ + 1;
    const auto thr = static_cast<unsigned>(threshold_);
    unsigned counter = 0;
    for (std::size_t base = 0; base < n; base += width) {
      const std::uint64_t m =
          simd::match_mask(record.data() + base, n - base, last_bytes_, level_);
      const std::size_t valid = std::min(width, n - base);
      if (m == 0) {
        counter = 0;
        continue;
      }
      if (valid == width) {
        // No-fire fast test. The counter resets on every gap, so a full
        // chunk can only fire if the carried-in run reaches its next wrap
        // offset inside the chunk's leading ones, or some interior run is
        // at least `threshold` long (shift-AND ladder). When neither
        // holds, the whole run walk collapses to the carry update.
        bool walk = false;
        if (counter != 0) {
          std::size_t j0 = (thr - counter) & mask_;
          if (j0 == 0) j0 = modulus;
          walk = static_cast<std::size_t>(std::countr_one(m)) >= j0;
        }
        if (!walk) {
          std::uint64_t ladder = m;
          std::size_t len = 1;
          while (len < thr && ladder != 0) {
            const std::size_t step = std::min(len, thr - len);
            ladder &= ladder << step;
            len += step;
          }
          walk = ladder != 0;
        }
        if (!walk) {
          const std::uint64_t full =
              width == 64 ? ~std::uint64_t{0}
                          : (std::uint64_t{1} << width) - 1;
          counter = m == full
                        ? (counter + static_cast<unsigned>(width)) & mask_
                        : static_cast<unsigned>(
                              std::countl_one(m << (64 - width))) &
                              mask_;
          continue;
        }
      }
      std::size_t pos = 0;
      while (pos < valid) {
        const std::uint64_t rest = m >> pos;
        if ((rest & 1) == 0) {
          if (rest == 0) {
            counter = 0;  // the chunk ends in misses
            break;
          }
          pos += static_cast<unsigned>(std::countr_zero(rest));
          counter = 0;  // the gap before the run is all misses
          continue;
        }
        const std::uint64_t inv = ~rest;
        std::size_t len = inv == 0 ? 64 - pos
                                   : static_cast<unsigned>(std::countr_zero(inv));
        len = std::min(len, valid - pos);
        std::size_t j0 = (thr - counter) & mask_;
        if (j0 == 0) j0 = modulus;
        for (std::size_t j = j0; j <= len; j += modulus)
          if (!on_fire(base + pos + j - 1)) return;
        counter = (counter + static_cast<unsigned>(len)) & mask_;
        pos += len;
      }
    }
    // Position n: the appended terminator byte. A miss-final chunk left
    // the counter at zero, exactly like the per-position replay.
    if (last_bytes_.contains(terminator)) {
      counter = (counter + 1) & mask_;
      if (counter == thr) on_fire(n);
    }
  }

  /// Would the scalar window compare hit at `pos`? pos == record.size()
  /// addresses the terminator byte. The shift buffer starts zero-filled and
  /// gram bytes are printable, so windows overlapping the pre-record zeros
  /// never hit - a hit needs pos + 1 >= B.
  bool hit_at(std::span<const unsigned char> record, unsigned char terminator,
              std::size_t pos) const {
    const unsigned char newest = pos < record.size() ? record[pos] : terminator;
    if (!last_bytes_.contains(newest)) return false;
    const std::size_t b = buffer_.size();
    if (pos + 1 < b) return false;
    if (b == 1) return true;  // the bitmap is the whole compare for B = 1
    const std::size_t first = pos - (b - 1);
    for (const std::string& gram : grams_) {
      if (static_cast<unsigned char>(gram.back()) != newest) continue;
      bool all = true;
      for (std::size_t j = 0; j + 1 < b; ++j) {
        if (record[first + j] != static_cast<unsigned char>(gram[j])) {
          all = false;
          break;
        }
      }
      if (all) return true;
    }
    return false;
  }

  string_spec spec_;
  std::vector<std::string> grams_;
  int threshold_;
  int width_;
  unsigned mask_;
  std::vector<unsigned char> buffer_;
  simd::simd_level level_;       // resolved vector tier of the bulk scans
  simd::byte_set last_bytes_;    // byte value -> ends some gram
  unsigned counter_ = 0;
};

/// (i) DFA over .*str — pulses at the last byte of every occurrence
/// (overlapping occurrences included, KMP-style).
class dfa_string_engine final : public primitive_engine {
 public:
  explicit dfa_string_engine(string_spec spec,
                             simd::simd_level level = simd::simd_level::automatic)
      : spec_(std::move(spec)),
        dfa_(std::make_shared<const regex::dfa>(regex::compile(regex::concat(
            {regex::star(regex::chars(regex::class_set::all())),
             regex::literal(spec_.text)})))),
        level_(simd::resolve(level)),
        state_(dfa_->start()) {
    validate_search_string(spec_);
  }

  void reset() override { state_ = dfa_->start(); }

  bool step(unsigned char byte) override {
    state_ = dfa_->step(state_, byte);
    return dfa_->accepting(state_);
  }

  std::unique_ptr<primitive_engine> clone() const override {
    auto copy = std::make_unique<dfa_string_engine>(*this);  // shares dfa_
    copy->reset();
    return copy;
  }

  // The .*text automaton accepts exactly the streams whose last N bytes are
  // `text`, so a pulse at byte i <=> an occurrence of `text` ends at i. The
  // DFA starts fresh at the record boundary, so occurrences cannot span the
  // pre-record gap - the vectored exact substring search over
  // record+terminator is pulse-identical (the DFA prefilter of the paper's
  // technique (i)).
  bool fires_in(std::span<const unsigned char> record,
                unsigned char terminator) const override {
    if (simd::find_substring(record.data(), record.size(), text_data(),
                             spec_.text.size(), level_) != simd::npos)
      return true;
    return ends_at_terminator(record, terminator);
  }

  void fire_positions(std::span<const unsigned char> record,
                      unsigned char terminator,
                      std::vector<std::uint32_t>& out) const override {
    const std::size_t n = spec_.text.size();
    for (std::size_t from = 0; from <= record.size();) {
      const std::size_t at = simd::find_substring(
          record.data() + from, record.size() - from, text_data(), n, level_);
      if (at == simd::npos) break;
      out.push_back(static_cast<std::uint32_t>(from + at + n - 1));
      from += at + 1;  // overlapping occurrences pulse too
    }
    if (ends_at_terminator(record, terminator))
      out.push_back(static_cast<std::uint32_t>(record.size()));
  }

  void scan_fires(std::span<const unsigned char> record,
                  unsigned char terminator, fire_sink sink,
                  void* ctx) const override {
    const std::size_t n = spec_.text.size();
    for (std::size_t from = 0; from <= record.size();) {
      const std::size_t at = simd::find_substring(
          record.data() + from, record.size() - from, text_data(), n, level_);
      if (at == simd::npos) break;
      if (!sink(ctx, static_cast<std::uint32_t>(from + at + n - 1))) return;
      from += at + 1;  // overlapping occurrences pulse too
    }
    if (ends_at_terminator(record, terminator))
      sink(ctx, static_cast<std::uint32_t>(record.size()));
  }

  elaborated_primitive elaborate(network& net, const bus& byte,
                                 node_id record_reset,
                                 const std::string& prefix) const override {
    // Chain-shaped .*needle automata encode compactly in binary (the state
    // is essentially a match-length counter); number-range DFAs use the
    // default one-hot encoding instead (bench_ablation_encoding).
    const auto circuit = netlist::elaborate_dfa(net, *dfa_, byte,
                                                net.constant(true), record_reset,
                                                prefix + ".dfa",
                                                netlist::dfa_encoding::binary);
    // The fire pulse is combinational for the current byte: acceptance of
    // the *next* state. Recompute next-state acceptance from the transition
    // structure: accept iff some (state, class) pair leads to an accepting
    // state.
    std::vector<node_id> terms;
    for (int s = 0; s < dfa_->state_count(); ++s) {
      for (int cls = 0; cls < dfa_->class_count(); ++cls) {
        if (!dfa_->accepting(dfa_->transition(s, cls))) continue;
        const node_id on_class = netlist::in_class(net, byte, dfa_->class_symbols(cls));
        terms.push_back(net.and_gate(circuit.active[static_cast<std::size_t>(s)], on_class));
      }
    }
    return {net.or_all(terms)};
  }

 private:
  const unsigned char* text_data() const noexcept {
    return reinterpret_cast<const unsigned char*>(spec_.text.data());
  }

  /// Occurrence whose final byte is the appended terminator (possible when
  /// the search text ends in the separator byte - printable separators).
  bool ends_at_terminator(std::span<const unsigned char> record,
                          unsigned char terminator) const {
    const std::string& t = spec_.text;
    if (static_cast<unsigned char>(t.back()) != terminator) return false;
    if (record.size() + 1 < t.size()) return false;
    const std::string_view sv{reinterpret_cast<const char*>(record.data()),
                              record.size()};
    return sv.substr(record.size() - (t.size() - 1)) ==
           std::string_view{t}.substr(0, t.size() - 1);
  }

  string_spec spec_;
  std::shared_ptr<const regex::dfa> dfa_;  // shared across lane clones
  simd::simd_level level_;  // resolved vector tier of the bulk scans
  int state_;
};

/// Number-range filter: token DFA sampled at every non-token byte.
class value_engine final : public primitive_engine {
 public:
  explicit value_engine(value_spec spec,
                        simd::simd_level level = simd::simd_level::automatic)
      : spec_(std::move(spec)),
        compiled_(std::make_shared<const compiled_dfa>(
            numrange::build_token_dfa(spec_.range, spec_.options))),
        level_(simd::resolve(level)),
        state_(compiled_->dfa.start()) {}

  void reset() override { state_ = compiled_->dfa.start(); }

  bool step(unsigned char byte) override {
    const regex::dfa& dfa = compiled_->dfa;
    if (numrange::is_token_byte(byte)) {
      state_ = dfa.step(state_, byte);
      return false;
    }
    const bool fire = dfa.accepting(state_);
    state_ = dfa.start();
    return fire;
  }

  std::unique_ptr<primitive_engine> clone() const override {
    auto copy = std::make_unique<value_engine>(*this);  // shares compiled_
    copy->reset();
    return copy;
  }

  // Bulk path: the token DFA only advances on token bytes and is sampled
  // (then restarted) at every non-token byte, so the scan walks maximal
  // token runs and checks acceptance once per run end. Dead states absorb,
  // letting the scan skip the rest of a run; between runs no pulse is
  // possible unless the start state itself accepts.
  bool fires_in(std::span<const unsigned char> record,
                unsigned char terminator) const override {
    bool fired = false;
    scan(record, terminator, [&](std::size_t) {
      fired = true;
      return false;  // stop
    });
    return fired;
  }

  void fire_positions(std::span<const unsigned char> record,
                      unsigned char terminator,
                      std::vector<std::uint32_t>& out) const override {
    scan(record, terminator, [&](std::size_t pos) {
      out.push_back(static_cast<std::uint32_t>(pos));
      return true;  // keep scanning
    });
  }

  void scan_fires(std::span<const unsigned char> record,
                  unsigned char terminator, fire_sink sink,
                  void* ctx) const override {
    scan(record, terminator, [&](std::size_t pos) {
      return sink(ctx, static_cast<std::uint32_t>(pos));
    });
  }

  // Token-run path. With a non-accepting start state a pulse can only
  // occur on the first non-token byte after a maximal token run whose DFA
  // walk ends accepting, so walking precomputed runs reproduces scan()
  // exactly; an accepting start state would also pulse on every non-token
  // byte, which runs alone cannot express, hence the guard.
  bool run_capable() const override {
    return !compiled_->start_accepting;
  }

  const regex::dfa* token_dfa() const override { return &compiled_->dfa; }

  elaborated_primitive elaborate(network& net, const bus& byte,
                                 node_id record_reset,
                                 const std::string& prefix) const override {
    regex::class_set token_class;
    for (unsigned c = 0; c < 256; ++c)
      if (numrange::is_token_byte(static_cast<unsigned char>(c)))
        token_class.add(static_cast<unsigned char>(c));
    const node_id is_token = netlist::in_class(net, byte, token_class);
    const node_id reset = net.or_gate(record_reset, net.not_gate(is_token));
    // advance is constantly true: whenever the DFA would not advance the
    // reset line is high anyway, so the hold path would be dead logic.
    const auto circuit = netlist::elaborate_dfa(net, compiled_->dfa, byte,
                                                net.constant(true), reset,
                                                prefix + ".val");
    return {net.and_gate(net.not_gate(is_token), circuit.accepting)};
  }

 private:
  /// Immutable compile artifacts shared by every lane clone.
  struct compiled_dfa {
    explicit compiled_dfa(regex::dfa d) : dfa(std::move(d)) {
      dead.reserve(static_cast<std::size_t>(dfa.state_count()));
      for (int s = 0; s < dfa.state_count(); ++s)
        dead.push_back(dfa.dead(s) ? 1 : 0);
      start_accepting = dfa.accepting(dfa.start());
    }
    regex::dfa dfa;
    std::vector<char> dead;
    bool start_accepting = false;
  };

  /// Walk record+terminator, invoking on_fire(pos) for every pulse the
  /// scalar path would emit; on_fire returning false stops the scan. The
  /// token runs a live DFA walks stay scalar (each byte feeds a table
  /// step), but both skip loops - past a dead-state token run, and across
  /// the non-token gap after a restart - jump with the vectored
  /// token-class scans.
  template <typename OnFire>
  void scan(std::span<const unsigned char> record, unsigned char terminator,
            OnFire&& on_fire) const {
    const regex::dfa& dfa = compiled_->dfa;
    const auto token = [](unsigned char b) { return numrange::is_token_byte(b); };
    const std::size_t n = record.size();
    const auto byte_at = [&](std::size_t i) {
      return i < n ? record[i] : terminator;
    };
    // First position >= i (capped at n + 1) holding a token byte; position
    // n is the terminator.
    const auto next_token = [&](std::size_t i) {
      if (i < n) {
        const std::size_t at =
            simd::find_token(record.data() + i, n - i, level_);
        if (at != simd::npos) return i + at;
        i = n;
      }
      if (i == n && token(terminator)) return n;
      return n + 1;
    };
    const auto next_non_token = [&](std::size_t i) {
      if (i < n) {
        const std::size_t at =
            simd::find_non_token(record.data() + i, n - i, level_);
        if (at != simd::npos) return i + at;
        i = n;
      }
      if (i == n && !token(terminator)) return n;
      return n + 1;
    };
    int state = dfa.start();
    std::size_t i = 0;
    while (i <= n) {
      const unsigned char byte = byte_at(i);
      if (token(byte)) {
        if (compiled_->dead[static_cast<std::size_t>(state)]) {
          // Dead states absorb: skip the rest of this token run.
          i = next_non_token(i + 1);
          continue;
        }
        state = dfa.step(state, byte);
        ++i;
        continue;
      }
      if (dfa.accepting(state) && !on_fire(i)) return;
      state = dfa.start();
      ++i;
      if (!compiled_->start_accepting) {
        // A restarted DFA cannot pulse again until a token intervenes.
        i = next_token(i);
      }
    }
  }

  value_spec spec_;
  std::shared_ptr<const compiled_dfa> compiled_;
  simd::simd_level level_;  // resolved vector tier of the skip scans
  int state_;
};

}  // namespace

std::unique_ptr<primitive_engine> make_engine(const primitive_spec& spec,
                                              simd::simd_level level) {
  if (const auto* s = std::get_if<string_spec>(&spec)) {
    if (s->technique == string_technique::dfa)
      return std::make_unique<dfa_string_engine>(*s, level);
    return std::make_unique<substring_engine>(*s, level);
  }
  return std::make_unique<value_engine>(std::get<value_spec>(spec), level);
}

}  // namespace jrf::core
