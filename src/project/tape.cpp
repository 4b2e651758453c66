#include "project/tape.hpp"

#include <bit>
#include <charconv>

#include "util/error.hpp"

namespace jrf::project {

namespace {

inline bool is_ws(unsigned char c) {
  return c == ' ' || c == '\t' || c == '\n' || c == '\r';
}

// First CLEAR bit at position >= from, clamped to limit - the complement
// of core::next_bit, used to find the end of a string-mask run (one past
// the closing quote). The pass keeps bits >= size clear, so the scan is
// always bounded by the caller's limit.
std::size_t next_clear_bit(std::span<const std::uint64_t> words,
                           std::size_t from, std::size_t limit) noexcept {
  if (from >= limit) return limit;
  std::size_t w = from >> 6;
  std::uint64_t inv = ~words[w] & (~std::uint64_t{0} << (from & 63));
  while (inv == 0) {
    if (++w >= words.size()) return limit;
    inv = ~words[w];
  }
  const std::size_t pos =
      (w << 6) + static_cast<std::size_t>(std::countr_zero(inv));
  return pos < limit ? pos : limit;
}

int hex_value(char c) {
  if (c >= '0' && c <= '9') return c - '0';
  if (c >= 'a' && c <= 'f') return c - 'a' + 10;
  if (c >= 'A' && c <= 'F') return c - 'A' + 10;
  return -1;
}

}  // namespace

const char* to_string(value_type t) {
  switch (t) {
    case value_type::missing: return "missing";
    case value_type::null: return "null";
    case value_type::boolean: return "boolean";
    case value_type::number: return "number";
    case value_type::string: return "string";
    case value_type::array: return "array";
    case value_type::object: return "object";
  }
  return "?";
}

void unescape_to(std::string_view body, std::string& out) {
  for (std::size_t i = 0; i < body.size();) {
    const char c = body[i];
    if (c != '\\') {
      out.push_back(c);
      ++i;
      continue;
    }
    if (i + 1 >= body.size()) {  // trailing lone backslash: pass through
      out.push_back('\\');
      break;
    }
    const char e = body[i + 1];
    switch (e) {
      case '"':
      case '\\':
      case '/': out.push_back(e); i += 2; continue;
      case 'b': out.push_back('\b'); i += 2; continue;
      case 'f': out.push_back('\f'); i += 2; continue;
      case 'n': out.push_back('\n'); i += 2; continue;
      case 'r': out.push_back('\r'); i += 2; continue;
      case 't': out.push_back('\t'); i += 2; continue;
      case 'u': {
        int code = 0;
        bool ok = i + 6 <= body.size();
        for (int k = 0; ok && k < 4; ++k) {
          const int h = hex_value(body[i + 2 + k]);
          if (h < 0) ok = false;
          else code = code * 16 + h;
        }
        if (!ok) {  // malformed \u: pass through literally
          out.push_back('\\');
          out.push_back('u');
          i += 2;
          continue;
        }
        // UTF-8 encode; surrogate halves stay separate code points,
        // exactly like json::parse.
        if (code < 0x80) {
          out.push_back(static_cast<char>(code));
        } else if (code < 0x800) {
          out.push_back(static_cast<char>(0xC0 | (code >> 6)));
          out.push_back(static_cast<char>(0x80 | (code & 0x3F)));
        } else {
          out.push_back(static_cast<char>(0xE0 | (code >> 12)));
          out.push_back(static_cast<char>(0x80 | ((code >> 6) & 0x3F)));
          out.push_back(static_cast<char>(0x80 | (code & 0x3F)));
        }
        i += 6;
        continue;
      }
      default:  // unknown escape: pass through literally
        out.push_back('\\');
        out.push_back(e);
        i += 2;
        continue;
    }
  }
}

std::string unescape(std::string_view body) {
  std::string out;
  out.reserve(body.size());
  unescape_to(body, out);
  return out;
}

extractor::extractor(path_set paths, core::simd::simd_level level)
    : paths_(std::move(paths)), level_(core::simd::resolve(level)) {
  for (std::size_t i = 0; i < paths_.size(); ++i) {
    if (paths_.at(i).model == query::data_model::senml) {
      any_senml_ = true;
      senml_ordinals_.push_back(static_cast<std::uint32_t>(i));
    } else {
      any_flat_ = true;
    }
  }
}

// One record's event walk. Every position is record-relative; `events`
// holds the ABSOLUTE structural bit positions of the record's range and
// `ei` the next unconsumed one. The walk parses values by event hops:
// strings end at the next clear string-mask bit, containers at their
// depth-matched closing event, literals before the next event. Flat
// targets claim at key sight (pre-order); senml targets resolve when an
// object closes with both a matching "n" and a "v".
struct extractor::walk {
  extractor& ex;
  std::span<const unsigned char> rec;
  std::size_t base = 0;  // absolute bit position of rec[0]
  const core::bitmap_pass& pass;
  field_ref* out = nullptr;
  std::size_t remaining = 0;  // unclaimed target count
  std::size_t ei = 0;

  std::size_t ev_pos(std::size_t i) const { return ex.events_[i] - base; }

  std::size_t skip_ws(std::size_t p) const {
    while (p < rec.size() && is_ws(rec[p])) ++p;
    return p;
  }

  // One past the closing quote of the string opening at p.
  std::size_t string_end(std::size_t p) const {
    return next_clear_bit(pass.masked(), base + p + 1, base + rec.size()) -
           base;
  }

  void claim(std::uint32_t ord) {
    ex.claimed_[ord] = 1;
    --remaining;
  }

  // Compare a raw string BODY [b, e) against an attribute, unescaping
  // only when the body actually contains a backslash.
  bool body_equals(std::size_t b, std::size_t e, const std::string& attr) {
    const std::string_view body(reinterpret_cast<const char*>(rec.data() + b),
                                e - b);
    if (body.find('\\') == std::string_view::npos) return body == attr;
    ex.scratch_.clear();
    unescape_to(body, ex.scratch_);
    return ex.scratch_ == attr;
  }

  // Consume events to the close of the container we are `depth` levels
  // inside; returns one past the closing byte (record end if truncated).
  std::size_t bail(int depth) {
    while (ei < ex.events_.size()) {
      const std::size_t t = ev_pos(ei);
      const unsigned char c = rec[t];
      ++ei;
      if (c == '{' || c == '[') {
        ++depth;
      } else if (c == '}' || c == ']') {
        if (--depth == 0) return t + 1;
      }
    }
    return rec.size();
  }

  field_ref parse_value(std::size_t p) {
    const unsigned char c = rec[p];
    field_ref f;
    f.offset = static_cast<std::uint32_t>(p);
    if (c == '"') {
      f.length = static_cast<std::uint32_t>(string_end(p) - p);
      f.type = value_type::string;
      return f;
    }
    if (c == '{') {
      f.length = static_cast<std::uint32_t>(parse_object(p) - p);
      f.type = value_type::object;
      return f;
    }
    if (c == '[') {
      f.length = static_cast<std::uint32_t>(parse_array(p) - p);
      f.type = value_type::array;
      return f;
    }
    // Number or literal: runs to the next structural event (its
    // terminator, which stays unconsumed for the enclosing loop),
    // right-trimmed of whitespace.
    std::size_t end = ei < ex.events_.size() ? ev_pos(ei) : rec.size();
    while (end > p && is_ws(rec[end - 1])) --end;
    f.length = static_cast<std::uint32_t>(end - p);
    f.type = (c == 't' || c == 'f') ? value_type::boolean
             : c == 'n'             ? value_type::null
                                    : value_type::number;
    return f;
  }

  // rec[open] == '{' and events_[ei] is that brace. Returns one past the
  // matching '}'.
  std::size_t parse_object(std::size_t open) {
    ++ei;  // the '{'
    const std::size_t nsen = ex.senml_ordinals_.size();
    const std::size_t fbase = ex.senml_flags_.size();
    ex.senml_flags_.resize(fbase + nsen, 0);
    field_ref vref;
    bool has_v = false;
    std::size_t close = rec.size();

    std::size_t p = skip_ws(open + 1);
    if (p < rec.size() && rec[p] == '}') {  // empty object
      if (ei < ex.events_.size()) ++ei;
      close = p + 1;
    } else {
      while (p < rec.size()) {
        if (remaining == 0 || rec[p] != '"') {
          // All targets filled (span-only fast path) or malformed input:
          // hop events to our closing brace.
          close = bail(1);
          break;
        }
        const std::size_t kend = string_end(p);  // one past closing quote
        const std::size_t kb = p + 1, ke = kend > p + 1 ? kend - 1 : p + 1;
        std::size_t q = skip_ws(kend);
        if (q < rec.size() && rec[q] == ':') ++q;
        q = skip_ws(q);
        if (q >= rec.size()) break;
        // Flat targets claim on key sight - BEFORE descending into the
        // value - so the first match in pre-order document order wins.
        const std::size_t cbase = ex.claims_.size();
        if (ex.any_flat_) {
          for (std::size_t ord = 0; ord < ex.paths_.size(); ++ord) {
            const path_target& t = ex.paths_.at(ord);
            if (t.model != query::data_model::flat || ex.claimed_[ord])
              continue;
            if (body_equals(kb, ke, t.attribute)) {
              claim(static_cast<std::uint32_t>(ord));
              ex.claims_.push_back(static_cast<std::uint32_t>(ord));
            }
          }
        }
        // Parse a SCALAR value only when something can consume it: a
        // flat target just claimed this key, or it is a SenML "n"/"v"
        // member. Irrelevant strings, numbers and literals contain no
        // structural events (string interiors are masked), so the next
        // event already is the member's terminator and their string-mask
        // scan can be skipped - most members of a record are irrelevant.
        // Containers always descend: unclaimed targets may live inside.
        const bool senml_member = nsen != 0 && ke - kb == 1 &&
                                  (rec[kb] == 'n' || rec[kb] == 'v');
        field_ref v;
        if (rec[q] == '{' || rec[q] == '[' ||
            ex.claims_.size() > cbase || senml_member)
          v = parse_value(q);
        for (std::size_t i = cbase; i < ex.claims_.size(); ++i)
          out[ex.claims_[i]] = v;
        ex.claims_.resize(cbase);
        // SenML bookkeeping on this object's own "n" / "v" members.
        if (senml_member) {
          if (rec[kb] == 'n' && v.type == value_type::string &&
              v.length >= 2) {
            for (std::size_t i = 0; i < nsen; ++i) {
              if (ex.senml_flags_[fbase + i]) continue;
              const path_target& t = ex.paths_.at(ex.senml_ordinals_[i]);
              if (body_equals(v.offset + 1, v.offset + v.length - 1,
                              t.attribute))
                ex.senml_flags_[fbase + i] = 1;
            }
          } else if (rec[kb] == 'v') {
            vref = v;
            has_v = true;
          }
        }
        // The next event terminates this member: ',' or '}'.
        if (ei >= ex.events_.size()) break;
        const std::size_t t = ev_pos(ei);
        const unsigned char tc = rec[t];
        ++ei;
        if (tc != ',') {  // '}' (or a stray close on malformed input)
          close = t + 1;
          break;
        }
        p = skip_ws(t + 1);
      }
    }
    // Object complete: a measurement object with both a matching "n" and
    // a "v" claims its target (first COMPLETED object wins).
    if (has_v) {
      for (std::size_t i = 0; i < nsen; ++i) {
        const std::uint32_t ord = ex.senml_ordinals_[i];
        if (ex.senml_flags_[fbase + i] && !ex.claimed_[ord]) {
          claim(ord);
          out[ord] = vref;
        }
      }
    }
    ex.senml_flags_.resize(fbase);
    return close;
  }

  // rec[open] == '[' and events_[ei] is that bracket. Returns one past
  // the matching ']'.
  std::size_t parse_array(std::size_t open) {
    ++ei;  // the '['
    std::size_t p = skip_ws(open + 1);
    if (p < rec.size() && rec[p] == ']') {  // empty array
      if (ei < ex.events_.size()) ++ei;
      return p + 1;
    }
    while (p < rec.size()) {
      if (remaining == 0) return bail(1);
      (void)parse_value(p);
      if (ei >= ex.events_.size()) break;
      const std::size_t t = ev_pos(ei);
      const unsigned char tc = rec[t];
      ++ei;
      if (tc != ',') return t + 1;  // ']'
      p = skip_ws(t + 1);
    }
    return rec.size();
  }
};

void extractor::extract(std::span<const unsigned char> record,
                        const core::bitmap_pass& pass, std::size_t offset,
                        field_ref* out) {
  const std::size_t n = paths_.size();
  for (std::size_t i = 0; i < n; ++i) out[i] = field_ref{};
  if (n == 0 || record.empty()) return;
  if (offset + record.size() > pass.size())
    throw error("projection: record range exceeds bitmap pass");
  claimed_.assign(n, 0);
  senml_flags_.clear();
  claims_.clear();
  events_.clear();
  core::collect_bits(pass.structural(), offset, offset + record.size(),
                     level_, events_);
  walk w{*this, record, offset, pass, out, n, 0};
  const std::size_t p = w.skip_ws(0);
  if (p >= record.size()) return;
  (void)w.parse_value(p);
}

tape::tape(std::size_t path_count) : path_count_(path_count) {}

void tape::add_record(std::uint64_t record, std::span<const field_ref> fields,
                      std::span<const unsigned char> record_bytes) {
  if (fields.size() != path_count_)
    throw error("projection: tape row width mismatch");
  for (std::size_t p = 0; p < fields.size(); ++p) {
    const field_ref& f = fields[p];
    tape_entry e;
    e.record = record;
    e.path = static_cast<std::uint32_t>(p);
    e.type = f.type;
    if (f.type != value_type::missing && f.length != 0) {
      if (static_cast<std::size_t>(f.offset) + f.length > record_bytes.size())
        throw error("projection: field ref outside its record");
      e.offset = static_cast<std::uint32_t>(bytes_.size());
      e.length = f.length;
      bytes_.insert(bytes_.end(), record_bytes.begin() + f.offset,
                    record_bytes.begin() + f.offset + f.length);
    }
    entries_.push_back(e);
  }
}

const tape_entry& tape::entry(std::size_t row, std::size_t path) const {
  const std::size_t i = row * path_count_ + path;
  if (path >= path_count_ || i >= entries_.size())
    throw error("projection: tape entry out of range");
  return entries_[i];
}

std::string_view tape::raw(const tape_entry& e) const {
  return {reinterpret_cast<const char*>(bytes_.data()) + e.offset, e.length};
}

std::string tape::text(const tape_entry& e) const {
  const std::string_view r = raw(e);
  if (e.type != value_type::string) return std::string(r);
  // Strip the quotes, decode escapes on demand.
  const std::string_view body =
      r.size() >= 2 ? r.substr(1, r.size() - 2) : std::string_view{};
  return unescape(body);
}

bool tape::number(const tape_entry& e, double& out) const {
  std::string tmp;
  std::string_view s;
  if (e.type == value_type::number) {
    s = raw(e);
  } else if (e.type == value_type::string) {
    tmp = text(e);
    s = tmp;
  } else {
    return false;
  }
  if (s.empty()) return false;
  double v = 0;
  const auto [p, ec] = std::from_chars(s.data(), s.data() + s.size(), v);
  if (ec != std::errc{} || p != s.data() + s.size()) return false;
  out = v;
  return true;
}

void tape::clear() {
  entries_.clear();
  bytes_.clear();
}

}  // namespace jrf::project
