#include "core/primitive.hpp"

#include <algorithm>
#include <array>
#include <bit>
#include <string_view>
#include <utility>

#include "core/bitmaps.hpp"
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
    // Shift-AND steps taking a word's bits to R_target (at most six reach
    // 64; the rest stay 0).
    const auto ladder_to = [](std::size_t target,
                              std::array<unsigned char, 6>& steps) {
      for (std::size_t len = 1, k = 0; len < target; ++k) {
        const std::size_t step = std::min(len, target - len);
        steps[k] = static_cast<unsigned char>(step);
        len += step;
      }
    };
    cadence_.threshold = static_cast<unsigned>(threshold_);
    cadence_.period = mask_ + 1;
    if (threshold_ <= 64) {
      ladder_to(cadence_.threshold, cadence_.ladder);
      for (std::size_t k = cadence_.threshold; k <= 64; k += cadence_.period)
        ++cadence_.terms;
      if (cadence_.terms > 1) ladder_to(cadence_.period, cadence_.period_ladder);
    }
    for (std::size_t bit = 0; bit < 64; bit += cadence_.period)
      cadence_.bits |= std::uint64_t{1} << bit;
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

  void fire_bits(std::span<const unsigned char> window,
                 std::span<const std::uint64_t> boundary,
                 std::uint64_t* out) const override {
    if (spec_.block == 1)
      fire_bits_b1(window, boundary, out);
    else
      fire_bits_grams(window, boundary, out);
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
  /// when its byte ends some gram, so the scan classifies the window
  /// against the gram-last-byte set (into `out`, which each word's pulses
  /// then replace), confirms each candidate with
  /// the scalar window compare, and resets the counter across skipped
  /// positions (which are all misses) and after every record boundary.
  /// Pulse-for-pulse identical to stepping every position: misses cannot
  /// fire (threshold >= 1) and candidate order is preserved.
  void fire_bits_grams(std::span<const unsigned char> window,
                       std::span<const std::uint64_t> boundary,
                       std::uint64_t* out) const {
    const std::size_t n = window.size();
    const auto thr = static_cast<unsigned>(threshold_);
    unsigned counter = 0;
    std::size_t next_pos = 0;  // first position the counter has not seen
    simd::match_words(window.data(), n, last_bytes_, level_, out);
    for (std::size_t w = 0, base = 0; base < n; ++w, base += 64) {
      std::uint64_t mask = std::exchange(out[w], 0);
      while (mask != 0) {
        const auto bit = static_cast<unsigned>(std::countr_zero(mask));
        mask &= mask - 1;
        const std::size_t pos = base + bit;
        if (pos != next_pos) counter = 0;  // skipped positions all missed
        counter = hit_at(window, boundary, pos) ? ((counter + 1) & mask_) : 0;
        next_pos = pos + 1;
        if (counter == thr) out[w] |= std::uint64_t{1} << bit;
        if ((boundary[w] >> bit) & 1) counter = 0;  // the record ends here
      }
    }
  }

  /// B = 1 replay. A hit at a position is exactly byte-set membership (the
  /// window compare degenerates to the bitmap test), and the counter after
  /// L consecutive hits is L mod 2^w (w = the hardware counter width), so
  /// a run fires at hit counts threshold, threshold + 2^w, ... - at its
  /// 1-based offsets j0, j0 + 2^w, ... when it starts from counter value
  /// v, with j0 = ((threshold - v) mod 2^w, or 2^w when that is 0). Each
  /// word takes those pulses in bit-parallel form: the run carried in from
  /// the previous word by the periodic cadence mask shifted to j0, every
  /// run starting inside the word by the "exactly k long" test R_k & ~(R_k
  /// << 1) of the run-length ladders R_k (bit i set iff the k hits ending
  /// at i all lie in the word) for each k of the cadence. A member byte
  /// that is also a record boundary (a printable separator) ends its run,
  /// restarting the counter; such words take the run-by-run walk.
  void fire_bits_b1(std::span<const unsigned char> window,
                    std::span<const std::uint64_t> boundary,
                    std::uint64_t* out) const {
    // Locals, not members: the stores through `out` cannot alias them.
    const cadence c = cadence_;
    const unsigned mask = mask_;
    const auto thr = static_cast<unsigned>(threshold_);
    const std::size_t n = window.size();
    unsigned counter = 0;
    simd::match_words(window.data(), n, last_bytes_, level_, out);
    for (std::size_t w = 0; (w << 6) < n; ++w) {
      const std::uint64_t m = out[w];
      const std::uint64_t cut = m & boundary[w];
      if (cut != 0) {
        out[w] = 0;
        counter = walk_runs_b1(m, cut, counter, out[w]);
        continue;
      }
      const auto lead = static_cast<unsigned>(std::countr_one(m));
      const std::uint64_t lead_bits = low_bits(counter != 0 ? lead : 0);
      const unsigned j0 = ((thr - counter - 1) & mask) + 1;
      const std::uint64_t carried =
          j0 <= 64 ? (c.bits << (j0 - 1)) & lead_bits : 0;
      out[w] = carried | c.interior_fires(m & ~lead_bits);
      counter = (~m == 0 ? counter + 64
                         : static_cast<unsigned>(std::countl_one(m))) &
                mask;
    }
  }

  /// Bits [0, len) of a word, len <= 64.
  static std::uint64_t low_bits(unsigned len) noexcept {
    return len >= 64 ? ~std::uint64_t{0} : (std::uint64_t{1} << len) - 1;
  }

  /// The B = 1 pulse cadence within one word: the hit counts threshold +
  /// t * 2^w that fit, the shift-AND ladders reaching R_threshold and
  /// R_(2^w), and the period's bits.
  struct cadence {
    std::array<unsigned char, 6> ladder{};         // to R_threshold
    std::array<unsigned char, 6> period_ladder{};  // to R_(2^w)
    std::size_t terms = 0;  // thresholds + t * 2^w <= 64
    unsigned threshold = 0;
    unsigned period = 0;
    std::uint64_t bits = 0;  // bits 0, 2^w, 2 * 2^w, ... of a word

    /// R_k of `m` by a shift-AND ladder: bit i set iff bits i-k+1 .. i of
    /// m are all set (bits before the word count as clear).
    static std::uint64_t run_ladder(
        std::uint64_t m, const std::array<unsigned char, 6>& steps) noexcept {
      // Six steps reach any k <= 64; unused steps shift by 0 (a no-op),
      // so the ladder runs without a loop.
      m &= m << steps[0];
      m &= m << steps[1];
      m &= m << steps[2];
      m &= m << steps[3];
      m &= m << steps[4];
      m &= m << steps[5];
      return m;
    }

    /// Pulses of the runs of `m` that start inside the word from counter 0.
    std::uint64_t interior_fires(std::uint64_t m) const noexcept {
      if (terms == 0) return 0;
      std::uint64_t r = run_ladder(m, ladder);  // R_threshold
      std::uint64_t fires = r & ~(r << 1);
      if (r != 0 && terms > 1) {
        // R_(k + 2^w) = R_k & (R_(2^w) << k) for the later cadence points.
        const std::uint64_t p = run_ladder(m, period_ladder);
        unsigned k = threshold;
        for (std::size_t t = 1; t < terms; ++t, k += period) {
          r &= p << k;
          fires |= r & ~(r << 1);
        }
      }
      return fires;
    }
  };

  /// The run-by-run walk of one word whose member bits `m` include record
  /// boundaries `cut`: sets the word's pulses in `fires` and returns the
  /// counter after it.
  unsigned walk_runs_b1(std::uint64_t m, std::uint64_t cut, unsigned counter,
                        std::uint64_t& fires) const {
    const unsigned modulus = mask_ + 1;
    const auto thr = static_cast<unsigned>(threshold_);
    std::size_t pos = 0;
    while (pos < 64) {
      const std::uint64_t rest = m >> pos;
      if ((rest & 1) == 0) {
        if (rest == 0) return 0;  // the word ends in misses
        pos += static_cast<unsigned>(std::countr_zero(rest));
        counter = 0;  // the gap before the run is all misses
        continue;
      }
      const std::uint64_t inv = ~rest;
      std::size_t len = inv == 0 ? 64 - pos
                                 : static_cast<unsigned>(std::countr_zero(inv));
      const std::uint64_t ends = cut >> pos;
      const bool restart =
          ends != 0 && static_cast<std::size_t>(std::countr_zero(ends)) < len;
      if (restart) len = static_cast<std::size_t>(std::countr_zero(ends)) + 1;
      std::size_t j0 = (thr - counter) & mask_;
      if (j0 == 0) j0 = modulus;
      for (std::size_t j = j0; j <= len; j += modulus)
        fires |= std::uint64_t{1} << (pos + j - 1);
      counter = restart ? 0 : (counter + static_cast<unsigned>(len)) & mask_;
      pos += len;
    }
    return counter;
  }

  /// Would the scalar window compare hit at `pos` (a byte of the
  /// gram-last-byte set)? The shift buffer starts zero-filled and restarts
  /// after every record boundary, and gram bytes are printable, so a hit
  /// needs B bytes of the window with no boundary before `pos`.
  bool hit_at(std::span<const unsigned char> window,
              std::span<const std::uint64_t> boundary, std::size_t pos) const {
    const unsigned char newest = window[pos];
    const std::size_t b = buffer_.size();
    if (pos + 1 < b) return false;
    const std::size_t first = pos - (b - 1);
    for (const std::string& gram : grams_) {
      if (static_cast<unsigned char>(gram.back()) != newest) continue;
      bool all = true;
      for (std::size_t j = 0; j + 1 < b; ++j) {
        if (window[first + j] != static_cast<unsigned char>(gram[j])) {
          all = false;
          break;
        }
      }
      if (all) return next_bit(boundary, first, pos) == simd::npos;
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
  cadence cadence_;               // B = 1 (see fire_bits_b1)
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
  // DFA restarts after every record boundary, so an occurrence counts only
  // when no boundary precedes its last byte inside it (one may end on the
  // boundary - a text ending in a printable separator); the vectored exact
  // substring search over the window is pulse-identical (the DFA
  // prefilter of the paper's technique (i)).
  void fire_bits(std::span<const unsigned char> window,
                 std::span<const std::uint64_t> boundary,
                 std::uint64_t* out) const override {
    const std::size_t n = window.size();
    const std::size_t len = spec_.text.size();
    std::fill_n(out, (n + 63) / 64, std::uint64_t{0});
    for (std::size_t from = 0; from < n;) {
      const std::size_t at = simd::find_substring(
          window.data() + from, n - from, text_data(), len, level_);
      if (at == simd::npos) break;
      const std::size_t first = from + at;
      const std::size_t last = first + len - 1;
      if (next_bit(boundary, first, last) == simd::npos)
        out[last >> 6] |= std::uint64_t{1} << (last & 63);
      from = first + 1;  // overlapping occurrences pulse too
    }
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
  // token runs and checks acceptance once per run end, one record (and its
  // terminator) at a time. Dead states absorb, letting the scan skip the
  // rest of a run; between runs no pulse is possible unless the start
  // state itself accepts.
  void fire_bits(std::span<const unsigned char> window,
                 std::span<const std::uint64_t> boundary,
                 std::uint64_t* out) const override {
    const std::size_t n = window.size();
    std::fill_n(out, (n + 63) / 64, std::uint64_t{0});
    std::size_t start = 0;
    for (std::size_t b = next_bit(boundary, 0, n); b != simd::npos;
         b = next_bit(boundary, b + 1, n)) {
      scan(window.subspan(start, b - start), window[b], [&](std::size_t pos) {
        const std::size_t at = start + pos;
        out[at >> 6] |= std::uint64_t{1} << (at & 63);
      });
      start = b + 1;
    }
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
  /// scalar path would emit. The
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
      if (dfa.accepting(state)) on_fire(i);
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
