// Seeded differential test of the chunked engine's record decisions.
//
// A util::prng-driven generator writes JSON-like records that aim at the
// decision layer's corners: nesting deeper than the depth counter (2 and 5
// bits), unbalanced closes, braces, commas and separators inside string
// literals, backslash runs of both parities across 64-byte words, numerals
// right before '{' and '[', and records longer than a 64 KiB window.
// Random RiotBench and Table VIII-style queries, compiled with random
// attribute choices in the scope and the pair group kinds, decide them on
// the chunked engine at every SIMD tier this host executes - each query
// alone (N=1) and all of them as one fleet (N>1), fed in random chunk
// splits - and every decision column must equal raw_filter::push's.
//
// ShortPass runs a fixed seed range in tier-1; LongPass (ctest label
// `slow`, and the sanitizer CI job) runs many more seeds and long records.
#include <gtest/gtest.h>

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "core/filter_engine.hpp"
#include "core/framer.hpp"
#include "core/raw_filter.hpp"
#include "core/simd.hpp"
#include "data/smartcity.hpp"
#include "data/taxi.hpp"
#include "query/compile.hpp"
#include "query/ir.hpp"
#include "query/riotbench.hpp"
#include "util/prng.hpp"

namespace jrf {
namespace {

const char* const kKeys[] = {
    "temperature", "humidity",  "light",         "dust",
    "airquality_raw", "trip_time_in_secs", "tip_amount", "fare_amount",
    "tolls_amount", "trip_distance", "n", "v", "e", "u", "bt"};

class record_writer {
 public:
  /// `real` holds RiotBench-shaped records, which the queries accept
  /// more often than generated ones.
  record_writer(util::prng& rng, unsigned char separator,
                std::vector<std::string> real)
      : rng_(rng), separator_(static_cast<char>(separator)),
        real_(std::move(real)) {}

  /// One record's bytes, separator excluded.
  std::string record(bool long_record) {
    out_.clear();
    const std::uint64_t shape = rng_.below(10);
    if (shape < 3) {
      out_ = rng_.pick(real_);
      // Splice a generated value into it now and then.
      if (rng_.below(2) == 0) {
        std::string tail = out_.substr(rng_.below(out_.size() + 1));
        out_.resize(out_.size() - tail.size());
        value(static_cast<int>(rng_.below(4)));
        out_ += tail;
      }
    } else if (shape == 3) {
      deep(static_cast<int>(1 + rng_.below(45)));
    } else if (shape == 4) {
      noise(1 + rng_.below(40));
    } else {
      value(static_cast<int>(rng_.below(6)));
    }
    if (long_record) {
      out_ += "{\"pad\":\"" + std::string(70000 + rng_.below(3000), 'p') + "\",";
      member(2);
      out_ += '}';
    }
    if (rng_.below(6) == 0) unbalance();
    return out_;
  }

 private:
  void spaces() {
    if (rng_.below(4) == 0) out_.append(rng_.below(70), ' ');
  }

  void numeral() {
    static const char* const odd[] = {"e", "E", "-", "+", ".", "1e", "-.5",
                                      "5.", "1-2", "0.5.5", "1e+5", "2E-2"};
    if (rng_.below(8) == 0) {
      out_ += odd[rng_.below(std::size(odd))];
      return;
    }
    if (rng_.below(4) == 0) out_ += '-';
    out_ += std::to_string(rng_.below(rng_.below(3) == 0 ? 100000 : 200));
    if (rng_.below(2) == 0) out_ += "." + std::to_string(rng_.below(1000));
    if (rng_.below(10) == 0) out_ += "e" + std::to_string(rng_.below(4));
  }

  /// A string literal whose body holds braces, commas, the separator and
  /// backslash runs of either parity (an odd run before '"' escapes it,
  /// an even one closes the literal).
  void literal() {
    out_ += '"';
    if (rng_.below(3) == 0) {
      out_ += kKeys[rng_.below(std::size(kKeys))];
    } else {
      const std::size_t len = rng_.below(rng_.below(4) == 0 ? 140 : 12);
      for (std::size_t i = 0; i < len; ++i) {
        switch (rng_.below(12)) {
          case 0: out_ += "{}[],:"[rng_.below(6)]; break;
          case 1: out_ += separator_; break;
          case 2: out_.append(1 + rng_.below(6), '\\'); break;
          case 3: out_ += kKeys[rng_.below(std::size(kKeys))]; break;
          case 4: numeral(); break;
          default: out_ += static_cast<char>('a' + rng_.below(26));
        }
      }
      if (rng_.below(3) == 0) out_.append(rng_.below(5), '\\');
    }
    out_ += '"';
  }

  void member(int depth) {
    spaces();
    out_ += '"';
    out_ += kKeys[rng_.below(std::size(kKeys))];
    out_ += "\":";
    spaces();
    value(depth);
  }

  void value(int depth) {
    const std::uint64_t pick = rng_.below(depth > 0 ? 10 : 4);
    if (pick == 0 || pick == 1) {
      numeral();
      // A numeral right before an open: the value leaf pulses on it.
      if (depth > 0 && rng_.below(6) == 0) {
        out_ += rng_.below(2) == 0 ? '{' : '[';
        value(depth - 1);
        out_ += rng_.below(2) == 0 ? '}' : ']';
      }
    } else if (pick == 2) {
      literal();
    } else if (pick == 3) {
      out_ += rng_.below(2) == 0 ? "true" : "null";
    } else if (pick < 8) {
      // An object; SenML-like measurement objects now and then.
      out_ += '{';
      if (rng_.below(3) == 0) {
        out_ += "\"n\":\"";
        out_ += kKeys[rng_.below(5)];
        out_ += "\",\"v\":";
        numeral();
        if (rng_.below(2) == 0) {
          out_ += ',';
          member(depth - 1);
        }
      } else {
        const std::uint64_t count = rng_.below(5);
        for (std::uint64_t i = 0; i < count; ++i) {
          if (i > 0) out_ += ',';
          member(depth - 1);
        }
      }
      out_ += '}';
    } else {
      out_ += '[';
      const std::uint64_t count = rng_.below(5);
      for (std::uint64_t i = 0; i < count; ++i) {
        if (i > 0) out_ += ',';
        spaces();
        value(depth - 1);
      }
      out_ += ']';
    }
  }

  /// Nesting past the depth counter, members at several levels.
  void deep(int levels) {
    std::string closing;
    for (int i = 0; i < levels; ++i) {
      const bool array = rng_.below(3) == 0;
      out_ += array ? '[' : '{';
      closing += array ? ']' : '}';
      if (rng_.below(3) == 0) {
        member(1);
        out_ += ',';
      }
    }
    member(1);
    for (std::size_t i = closing.size(); i-- > 0;) {
      out_ += closing[i];
      if (rng_.below(5) == 0) {
        out_ += ',';
        member(1);
      }
    }
  }

  void noise(std::size_t len) {
    static const std::string_view alphabet = "{}[],:\"\\ 0123456789.-+eEkntv";
    for (std::size_t i = 0; i < len; ++i) {
      if (rng_.below(8) == 0)
        out_ += kKeys[rng_.below(std::size(kKeys))];
      else
        out_ += alphabet[rng_.below(alphabet.size())];
    }
  }

  /// Unbalanced closes (or opens) at a random place of the record.
  void unbalance() {
    const std::size_t at = rng_.below(out_.size() + 1);
    std::string extra;
    const std::uint64_t count = 1 + rng_.below(4);
    for (std::uint64_t i = 0; i < count; ++i)
      extra += "}]{["[rng_.below(rng_.below(3) == 0 ? 4 : 2)];
    out_.insert(at, extra);
  }

  util::prng& rng_;
  char separator_;
  std::vector<std::string> real_;
  std::string out_;
};

/// A RiotBench query (QS0, QS1, QT, Q0) or a Table VIII-style conjunction
/// of one to three range predicates, compiled with a random choice per
/// predicate in a random group kind; now and then two of them OR-ed.
core::expr_ptr random_query(util::prng& rng) {
  const auto one = [&rng] {
    query::query q;
    const std::uint64_t pick = rng.below(6);
    if (pick == 0) {
      q = query::riotbench::qs0();
    } else if (pick == 1) {
      q = query::riotbench::qs1();
    } else if (pick == 2) {
      q = query::riotbench::qt();
    } else if (pick == 3) {
      q = query::riotbench::q0();
    } else {
      std::vector<query::query_node_ptr> nodes;
      const std::uint64_t count = 1 + rng.below(3);
      for (std::uint64_t i = 0; i < count; ++i) {
        const std::uint64_t low = rng.below(200);
        nodes.push_back(query::pred_node(query::predicate::between(
            kKeys[rng.below(10)], std::to_string(low),
            std::to_string(low + 1 + rng.below(300)))));
      }
      q.name = "table8";
      q.model = rng.below(2) == 0 ? query::data_model::senml
                                  : query::data_model::flat;
      q.root = nodes.size() == 1 ? nodes.front() : query::all_of(nodes);
    }
    using query::attribute_mode;
    static const attribute_mode modes[] = {
        attribute_mode::grouped, attribute_mode::grouped,
        attribute_mode::grouped, attribute_mode::flat_and,
        attribute_mode::string_only, attribute_mode::value_only,
        attribute_mode::omit};
    std::vector<query::attribute_choice> choices(q.predicates().size());
    for (std::size_t p = 0; p < choices.size(); ++p) {
      choices[p].mode = modes[rng.below(p == 0 ? 6 : 7)];
      choices[p].block = 1 + static_cast<int>(rng.below(2));
      if (rng.below(5) == 0)
        choices[p].technique = core::string_technique::dfa;
    }
    query::compile_options options;
    options.group = rng.below(2) == 0 ? core::group_kind::scope
                                      : core::group_kind::pair;
    return query::compile(q, choices, options);
  };
  if (rng.below(6) == 0) return core::disj({one(), one()});
  return one();
}

/// Feed `stream` in pieces cut at random offsets, then finish.
void feed_random_splits(core::filter_engine& engine, std::string_view stream,
                        util::prng& rng) {
  std::size_t pos = 0;
  while (pos < stream.size()) {
    const std::size_t width =
        rng.below(4) == 0 ? 1 + rng.below(80) : 1 + rng.below(100000);
    engine.scan_chunk(stream.substr(pos, width));
    pos += width;
  }
  engine.finish();
}

/// Decisions of raw_filter::push over every generated case, so a pass can
/// check that its queries both accept and reject.
struct tally {
  std::size_t accepted = 0;
  std::size_t rejected = 0;
};

/// One generated case: a stream and a query set from `seed`; every
/// decision column of the chunked engine must equal raw_filter::push's.
void run_case(std::uint64_t seed, bool long_records, tally& seen) {
  util::prng rng(seed);
  core::filter_options base;
  base.depth_bits = rng.below(2) == 0 ? 2 : 5;
  if (rng.below(8) == 0) base.separator = "|,}7"[rng.below(4)];

  std::vector<std::string> real;
  core::for_each_record(data::smartcity_generator(seed).stream(8) +
                            data::taxi_generator(seed).stream(8),
                        [&](std::string_view r) { real.emplace_back(r); });
  record_writer writer(rng, base.separator, std::move(real));
  std::string stream;
  const std::uint64_t records = 10 + rng.below(40);
  for (std::uint64_t r = 0; r < records; ++r) {
    stream += writer.record(long_records && rng.below(20) == 0);
    if (rng.below(30) != 0) stream += static_cast<char>(base.separator);
  }
  std::vector<core::expr_ptr> queries;
  const std::uint64_t count = 1 + rng.below(4);
  for (std::uint64_t q = 0; q < count; ++q) queries.push_back(random_query(rng));

  std::vector<std::vector<bool>> expected;
  for (const core::expr_ptr& q : queries)
    expected.push_back(core::raw_filter(q, base).filter_stream(stream));
  for (const std::vector<bool>& column : expected)
    for (const bool d : column) ++(d ? seen.accepted : seen.rejected);

  for (const core::simd::simd_level level : core::simd::available_levels()) {
    core::filter_options options = base;
    options.simd = level;
    const std::string where = "seed " + std::to_string(seed) + " simd=" +
                              core::simd::to_string(level);
    for (std::size_t q = 0; q < queries.size(); ++q) {
      auto single =
          core::make_filter_engine(core::engine_kind::chunked, queries[q], options);
      feed_random_splits(*single, stream, rng);
      ASSERT_EQ(single->decisions(), expected[q]) << where << " query " << q;
    }
    if (queries.size() < 2) continue;
    auto fleet =
        core::make_filter_engine(core::engine_kind::chunked, queries, options);
    feed_random_splits(*fleet, stream, rng);
    for (std::size_t q = 0; q < queries.size(); ++q)
      ASSERT_EQ(fleet->decision_column(q), expected[q])
          << where << " fleet column " << q;
  }
}

/// Cases `first` .. `last` - 1; a tenth of the accepted (query, record)
/// pairs at least, and as many rejected, or the generator misses the
/// queries.
void run_pass(std::uint64_t first, std::uint64_t last, bool long_records) {
  tally seen;
  for (std::uint64_t seed = first; seed < last; ++seed) {
    run_case(seed, long_records && seed % 4 == 0, seen);
    if (::testing::Test::HasFatalFailure()) return;
  }
  const std::size_t total = seen.accepted + seen.rejected;
  EXPECT_GT(seen.accepted * 10, total);
  EXPECT_GT(seen.rejected * 10, total);
}

TEST(DecisionFuzz, ShortPass) { run_pass(1, 61, true); }

TEST(DecisionFuzz, LongPass) { run_pass(1000, 1600, true); }

}  // namespace
}  // namespace jrf
