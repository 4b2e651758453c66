// The four workloads. Each generates its inputs from the seed outside every
// timed region, runs rounds of its main path for the run's seconds, and
// checks every verdict it receives against the per-record references:
//
//   senml_single  QS0, default facade backend, batch run() - bitmap pass,
//                 framing and the value/string engines do nearly all work.
//   taxi_project  QT over taxi records, projecting every top-level field -
//                 the only workload where project/ carries real weight.
//   fleet_churn   10,000 resident queries streamed with offer()/pump(),
//                 add_query()/remove_query() pairs spread through the stream
//                 - plan trie, verdict words and the epoch swap.
//   socket_qs1    QS1 through net::filter_service at a frozen open-loop rate
//                 - latency of net, the system FIFOs and the streaming API.
//
// Every workload must report every end-to-end metric, so each round also
// runs the two legs of legs.hpp over the workload's own query and records:
// a churn_stream round (query_swap_p5_ms) and a socket window
// (verdict_p50_us, reported per layer). fleet_churn's swaps happen inside
// its passes, and socket_qs1's windows are its main path.
#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdio>
#include <optional>
#include <span>
#include <unistd.h>

#include "api/pipeline.hpp"
#include "common.hpp"
#include "core/filter_engine.hpp"
#include "layers.hpp"
#include "legs.hpp"
#include "project/paths.hpp"
#include "query/compile.hpp"
#include "query/riotbench.hpp"
#include "util/prng.hpp"

namespace perfbench {

namespace {

using namespace jrf;

// The paper's Section IV-B stream size.
constexpr std::size_t kStreamBytes = 44'000'000;
// Fleet passes retain ~1.25 KB of verdict words per record.
constexpr std::size_t kFleetBytes = 1'000'000;
constexpr std::size_t kFleetQueries = 10'000;
constexpr std::size_t kFleetSamples = 8;
constexpr std::size_t kFleetChurnPairs = 1;  // per fleet pass
constexpr std::size_t kFacadeQueries = 100;  // fleet's facade probes
constexpr std::size_t kLegChurnQueries = 16;
// add/remove pairs per churn-stream round. socket_qs1's rounds are its
// 0.5 s windows, so it makes more pairs per round for as many swaps.
constexpr std::size_t kLegPairs = 2;
constexpr std::size_t kSocketLegPairs = 12;
// socket_qs1's frozen offered rate: about a third of the unpaced
// two-shard capacity of a 4-core x86 host.
constexpr double kSocketRate = 100'000.0;
constexpr double kSocketWindow = 0.5;
// Distinct records sent; a run offering more replays them in order.
constexpr std::size_t kSocketPool = 100'000;
// The socket windows of the other workloads: one in each of the first
// kLegWindows rounds. A fixed count keeps the service's retained verdicts
// (1.25 KB per record behind the fleet) out of peak_rss_mb's noise.
constexpr double kLegRate = 20'000.0;
constexpr double kLegWindow = 0.25;
constexpr std::size_t kLegWindows = 16;

std::uint64_t sub_seed(std::uint64_t seed, std::uint64_t tag) {
  util::prng p(seed * 0x9E3779B97F4A7C15ull + tag);
  return p.next_u64();
}

double rate_mbps(std::size_t bytes, const std::vector<double>& pass_s) {
  return static_cast<double>(bytes) / fast_tail(pass_s) / 1e6;
}

/// Rounds for at least `seconds` (and at least three).
template <typename Round>
void for_rounds(double seconds, Round&& round) {
  const auto begin = steady::now();
  for (std::size_t i = 0; i < 3 || seconds_since(begin) < seconds; ++i)
    round(i);
}

/// Share of input bytes in records whose verdict was a drop.
double drop_pct(const corpus& c, const std::vector<char>& verdicts) {
  std::size_t dropped = 0, total = 0;
  for (std::size_t i = 0; i < verdicts.size(); ++i) {
    const std::size_t len = c.starts[i + 1] - c.starts[i];
    total += len;
    if (verdicts[i] == 0) dropped += len;
  }
  return total > 0 ? 100.0 * static_cast<double>(dropped) /
                         static_cast<double>(total)
                   : 0.0;
}

double share_pct(std::uint64_t part, std::uint64_t whole) {
  return whole > 0 ? 100.0 * static_cast<double>(part) /
                         static_cast<double>(whole)
                   : 0.0;
}

/// Accepted records the exact evaluator rejects, as a share of accepts.
double false_positive_pct(const std::vector<char>& verdicts,
                          const std::vector<char>& exact) {
  std::uint64_t accepted = 0, fp = 0;
  for (std::size_t i = 0; i < verdicts.size(); ++i)
    if (verdicts[i] == 1) {
      ++accepted;
      fp += exact[i] == 0;
    }
  return share_pct(fp, accepted);
}

std::string socket_path(const options& o) {
  return o.socket_dir + "/pb-" + std::to_string(::getpid()) + ".sock";
}

pipeline_builder builder_for(const query::query& q) {
  pipeline_builder b = pipeline::make();
  b.from_query(q);
  return b;
}

// ---------------------------------------------------------------------------
// Fleet construction: Table VIII-grammar conjunctions over SmartCity
// attributes from a bounded, Zipf-skewed pool. Every query starts with a
// tail band (each matches well under 10 % of records), so the fleet's
// any-match share stays far below 100 %; 0-2 further predicates come from
// the whole pool, broad context ranges included.

struct band {
  const char* attribute;
  const char* lo;
  const char* hi;
};

constexpr band kTailBands[] = {
    {"temperature", "33.0", "36.0"},   {"temperature", "36.0", "45.0"},
    {"temperature", "-20.0", "5.0"},   {"temperature", "5.0", "9.0"},
    {"humidity", "70.0", "80.0"},      {"humidity", "80.0", "100.0"},
    {"humidity", "0.0", "15.0"},       {"humidity", "15.0", "20.0"},
    {"light", "1345", "3000"},         {"light", "3000", "8000"},
    {"light", "8000", "26282"},        {"light", "26283", "65000"},
    {"dust", "3000.00", "6000.00"},    {"dust", "6000.00", "50000.00"},
    {"airquality_raw", "45", "60"},    {"airquality_raw", "60", "200"},
    {"airquality_raw", "0", "11"},     {"airquality_raw", "12", "14"},
};

constexpr band kContextBands[] = {
    {"temperature", "-50.0", "100.0"}, {"humidity", "0.0", "100.0"},
    {"light", "0", "65000"},           {"dust", "0.00", "100000.00"},
    {"airquality_raw", "0", "500"},    {"temperature", "10.0", "30.0"},
    {"humidity", "30.0", "60.0"},      {"light", "0", "1344"},
    {"dust", "100.00", "2000.00"},     {"airquality_raw", "15", "45"},
};

class zipf_pool {
 public:
  // Rank = table order, weight 1/rank^1.1. The ranking is fixed so that
  // every seed draws a statistically identical fleet; only the draws vary.
  explicit zipf_pool(std::vector<query::predicate> items)
      : items_(std::move(items)) {
    for (std::size_t i = 0; i < items_.size(); ++i)
      weights_.push_back(1.0 / std::pow(static_cast<double>(i + 1), 1.1));
  }
  const query::predicate& draw(util::prng& rng) const {
    return items_[rng.weighted(weights_)];
  }

 private:
  std::vector<query::predicate> items_;
  std::vector<double> weights_;
};

/// The first `count` queries the seed's fleet grammar draws.
std::vector<query::query> make_fleet(std::uint64_t seed, std::size_t count) {
  util::prng rng(sub_seed(seed, 7));
  std::vector<query::predicate> tails, all;
  for (const band& b : kTailBands) {
    tails.push_back(query::predicate::between(b.attribute, b.lo, b.hi));
    all.push_back(tails.back());
  }
  for (const band& b : kContextBands)
    all.push_back(query::predicate::between(b.attribute, b.lo, b.hi));
  const zipf_pool tail_pool(tails), all_pool(all);

  std::vector<query::query> out;
  for (std::size_t i = 0; i < count; ++i) {
    std::vector<query::query_node_ptr> nodes;
    std::vector<std::string> used;
    const query::predicate& first = tail_pool.draw(rng);
    nodes.push_back(query::pred_node(first));
    used.push_back(first.to_string());
    const std::size_t extra = rng.below(3);
    for (std::size_t k = 0; k < extra; ++k) {
      const query::predicate& p = all_pool.draw(rng);
      if (std::find(used.begin(), used.end(), p.to_string()) != used.end())
        continue;
      used.push_back(p.to_string());
      nodes.push_back(query::pred_node(p));
    }
    query::query q;
    q.name = "F";
    q.name += std::to_string(i);
    q.model = query::data_model::senml;
    q.root = nodes.size() == 1 ? nodes.front() : query::all_of(nodes);
    out.push_back(std::move(q));
  }
  return out;
}

std::vector<core::expr_ptr> compile_all(std::span<const query::query> qs) {
  std::vector<core::expr_ptr> out;
  out.reserve(qs.size());
  for (const query::query& q : qs) out.push_back(query::compile_default(q));
  return out;
}

// ---------------------------------------------------------------------------
// Metrics shared by every workload.

void set_end_to_end(report& r, const samples& s, double throughput_mbps,
                    double drop, const socket_outcome& so) {
  if (!s.pass_s.empty())
    std::printf("%zu timed passes: min %.4f q1 %.4f median %.4f q3 %.4f "
                "max %.4f s\n",
                s.pass_s.size(), quantile(s.pass_s, 0),
                quantile(s.pass_s, 0.25), median(s.pass_s),
                quantile(s.pass_s, 0.75), quantile(s.pass_s, 1));
  r.set("throughput_mbps", throughput_mbps, "MB/s");
  r.set("setup_s", median(s.setup_s), "s");
  r.set("drop_pct", drop, "%");
  r.set("query_swap_p5_ms", fast_tail(s.swap_ms), "ms");
  r.set("query_swap_p50_ms", median(s.swap_ms), "ms");
  // 16-30 windows a run: their fastest decile, so not a single window.
  r.set("verdict_p50_us", quantile(so.window_p50_us, 0.1), "us");
  r.set("verdict_p50_all_us", median(so.latency_us), "us");
  r.set("peak_rss_mb", peak_rss_mb(), "MB");
}

void set_layer_samples(report& r, const samples& s, const socket_outcome& so,
                       double rate) {
  r.set("api.build.ms", median(s.build_ms), "ms");
  r.set("api.offer.us_per_call", median(s.offer_us), "us");
  r.set("api.pump.us_per_call", median(s.pump_us), "us");
  r.set("api.finish.ms", median(s.finish_ms), "ms");
  r.set("api.add_query.ms", median(s.add_ms), "ms");
  r.set("api.remove_query.ms", median(s.remove_ms), "ms");
  r.set("api.sink.ns_per_record",
        s.sink_records > 0 ? static_cast<double>(s.sink_ns) /
                                 static_cast<double>(s.sink_records)
                           : 0.0,
        "ns");
  r.set("api.sink_records", static_cast<double>(s.sink_records), "count");

  r.set("net.open.ms", median(so.open_ms), "ms");
  r.set("net.shutdown.ms", so.shutdown_ms, "ms");
  r.set("net.send.us_per_record",
        so.sent > 0 ? so.send_ns / 1e3 / static_cast<double>(so.sent) : 0.0,
        "us");
  r.set("net.connections_accepted",
        static_cast<double>(so.accepted_connections), "count");
  r.set("net.connections_refused",
        static_cast<double>(so.refused_connections), "count");
  r.set("net.verdict_p99_us", quantile(so.latency_us, 0.99), "us");
  r.set("net.verdict_samples", static_cast<double>(so.latency_us.size()),
        "count");
  r.set("loadgen.late_p99_us", quantile(so.late_us, 0.99), "us");
  const double achieved =
      so.send_s > 0 ? static_cast<double>(so.sent) / so.send_s : 0.0;
  r.set("loadgen.achieved_pct", 100.0 * achieved / rate, "%");
  r.set("loadgen.offered_per_s", rate, "1/s");
  r.set("system.backpressure_events",
        static_cast<double>(so.stats.backpressure_events), "count");
  r.set("system.hard_backpressure_events",
        static_cast<double>(so.stats.hard_backpressure_events), "count");
  r.set("system.fifo_high_watermark_bytes",
        static_cast<double>(so.stats.fifo_high_watermark), "B");
}

// ---------------------------------------------------------------------------
// senml_single and taxi_project: batch run() passes over the whole stream.

struct batch_workload {
  query::query q;
  corpus data;
  reference ref;
  std::optional<project::path_set> paths;  // projection on when set
};

/// One timed build + run(); returns the pass's verdicts (2 = missing).
std::vector<char> batch_pass(const batch_workload& w,
                             const std::vector<std::size_t>& accepted_ids,
                             std::size_t pass, tracer& t, report& r,
                             samples& s) {
  const corpus& c = w.data;
  verdict_log log(w.ref.raw, &w.ref.exact, c.records(), 1);
  std::int64_t sink_ns = 0;
  std::uint64_t rows = 0, projection_errors = 0;
  double checksum = 0;
  pipeline_builder builder = builder_for(w.q);
  builder.input(c.bytes);
  if (t.enabled())
    builder.on_decision(
        [&](std::size_t shard, std::uint64_t index, bool accepted) {
          const auto start = steady::now();
          log.on(shard, index, accepted);
          sink_ns += ns_between(start, steady::now());
        });
  else
    builder.on_decision(
        [&](std::size_t shard, std::uint64_t index, bool accepted) {
          log.on(shard, index, accepted);
        });
  if (w.paths)
    builder.project(*w.paths).on_projection(
        [&](std::size_t, const project::column_batch& b) {
          // Reads every column of every batch, as a consumer would.
          for (std::size_t k = 0; k < b.rows(); ++k, ++rows)
            if (rows >= accepted_ids.size() ||
                b.records[k] != accepted_ids[rows])
              ++projection_errors;
          for (const project::column_data& col : b.columns)
            for (std::size_t k = 0; k < b.rows(); ++k)
              checksum += col.numeric_at(k) ? col.numbers[k]
                                            : static_cast<double>(
                                                  col.text_at(k).size());
        });

  std::optional<pipeline> built;
  {
    scoped_span span(t, "api.build", pass);
    const auto start = steady::now();
    auto b = builder.build();
    const double secs = seconds_since(start);
    s.setup_s.push_back(secs);
    s.build_ms.push_back(secs * 1e3);
    if (!b) {
      r.fail("build: " + b.error().message);
      return {};
    }
    built.emplace(std::move(*b));
  }
  {
    scoped_span span(t, "api.run", pass);
    const auto start = steady::now();
    auto result = built->run();
    s.pass_s.push_back(seconds_since(start));
    if (t.enabled()) t.add_aggregate(span.id(), "bench.sink", sink_ns);
    if (!result) {
      r.fail("run: " + result.error().message);
      return {};
    }
    r.check("run_result accepted != raw_filter reference", 1,
            result->accepted() == w.ref.raw_accepted ? 0 : 1);
  }
  s.sink_ns += sink_ns;
  s.sink_records += c.records();
  log.settle(r, "batch run");
  if (w.paths) {
    r.check("projection rows / record ids", accepted_ids.size(),
            projection_errors + (rows == accepted_ids.size() ? 0 : 1));
    r.set("project.checksum", checksum, "count");
  }
  return log.seen();
}

void batch_run(const options& o, const batch_workload& w, tracer& t,
               report& r) {
  std::vector<std::size_t> accepted_ids;
  for (std::size_t i = 0; i < w.data.records(); ++i)
    if (w.ref.raw[i]) accepted_ids.push_back(i);
  const std::vector<core::expr_ptr> churn =
      compile_all(make_fleet(o.seed, kLegChurnQueries));

  samples s;
  churn_stream leg(builder_for(w.q), w.data, w.ref.raw, &w.ref.exact, churn,
                   kLegPairs, t, r, s);
  const query::query q = w.q;
  socket_config sc;
  sc.builder = [q] { return builder_for(q); };
  sc.pool = &w.data;
  sc.expected = &w.ref.raw;
  sc.exact = &w.ref.exact;
  sc.rate = kLegRate;
  sc.max_seconds = kLegWindows * kLegWindow;
  sc.path = socket_path(o);
  socket_session sock(sc, t, r);

  std::vector<char> verdicts;
  for_rounds(o.seconds, [&](std::size_t i) {
    verdicts = batch_pass(w, accepted_ids, i, t, r, s);
    leg.round();
    if (i < kLegWindows) sock.window(kLegWindow);
  });
  leg.finish();
  const socket_outcome so = sock.close();

  const double throughput = rate_mbps(w.data.bytes.size(), s.pass_s);
  set_end_to_end(r, s, throughput, drop_pct(w.data, verdicts), so);
  r.set("false_positive_pct", false_positive_pct(verdicts, w.ref.exact),
        "%");
  if (!t.enabled()) return;
  set_layer_samples(r, s, so, kLegRate);
  layer_inputs in;
  in.data = &w.data;
  in.accepted = &w.ref.raw;
  in.queries = {query::compile_default(q)};
  in.paths = w.paths ? *w.paths : project::derive_paths({q});
  in.facade = sc.builder;
  // taxi_project's passes project; its facade baseline comes from the
  // probe's projection-off runs instead.
  in.facade_s_per_byte = w.paths ? 0.0 : 1e-6 / throughput;
  measure_layers(in, t, r);
}

// ---------------------------------------------------------------------------
// fleet_churn.

struct fleet_state {
  corpus data;
  std::vector<query::query> resident;
  std::vector<core::expr_ptr> churn;
  std::vector<std::size_t> sample;         // resident ordinals checked
  std::vector<reference> sample_ref;       // raw_filter + exact, per sample
  std::vector<std::vector<bool>> standalone;  // chunked engine, per sample
  // Outputs of the latest pass.
  std::vector<char> any;       // any resident or churned query accepted
  std::vector<char> resident_any;  // any resident query accepted
  std::vector<std::vector<char>> columns;  // per sample
  std::uint64_t accepted_pairs = 0;
};

pipeline_builder fleet_builder(const std::vector<query::query>& resident) {
  pipeline_builder b = builder_for(resident.front());
  for (std::size_t i = 1; i < resident.size(); ++i) b.add_query(resident[i]);
  return b;
}

void fleet_pass(fleet_state& f, std::size_t pass, tracer& t, report& r,
                samples& s) {
  const std::size_t n = f.data.records();
  std::vector<char> seen(n, 2), resident(n, 0);
  std::vector<std::vector<char>> cols(f.sample.size(), std::vector<char>(n, 0));
  std::vector<core::query_id> sample_ids;
  std::uint64_t next = 0, order_errors = 0, id_errors = 0, popcount = 0;
  std::int64_t sink_ns = 0;
  // Consumes whole verdict words: any-match, any-resident-match, popcount,
  // plus the sampled queries' bits.
  auto sink = [&](std::size_t shard, std::uint64_t index,
                  std::span<const core::query_id> ids,
                  std::span<const std::uint64_t> words) {
    if (shard != 0 || index != next || index >= n) {
      ++order_errors;
      return;
    }
    next = index + 1;
    bool any = false, any_resident = false;
    for (std::size_t w = 0; w < words.size(); ++w) {
      std::uint64_t word = words[w];
      any = any || word != 0;
      popcount += std::popcount(word);
      // A churned query is the only one past the resident fleet.
      if (w == kFleetQueries / 64 && ids.size() > kFleetQueries)
        word &= ~(1ull << (kFleetQueries % 64));
      any_resident = any_resident || word != 0;
    }
    seen[index] = any ? 1 : 0;
    resident[index] = any_resident ? 1 : 0;
    for (std::size_t k = 0; k < f.sample.size(); ++k) {
      const std::size_t ord = f.sample[k];
      if (ord >= ids.size() || ids[ord] != sample_ids[k]) {
        ++id_errors;
        continue;
      }
      cols[k][index] = static_cast<char>((words[ord / 64] >> (ord % 64)) & 1);
    }
  };

  pipeline_builder builder = fleet_builder(f.resident);
  if (t.enabled())
    builder.on_verdict([&](std::size_t shard, std::uint64_t index,
                           std::span<const core::query_id> ids,
                           std::span<const std::uint64_t> words) {
      const auto start = steady::now();
      sink(shard, index, ids, words);
      sink_ns += ns_between(start, steady::now());
    });
  else
    builder.on_verdict(sink);
  std::optional<pipeline> built;
  {
    scoped_span span(t, "api.build", pass);
    const auto start = steady::now();
    auto b = builder.build();
    const double secs = seconds_since(start);
    s.setup_s.push_back(secs);
    s.build_ms.push_back(secs * 1e3);
    if (!b) {
      r.fail("fleet build: " + b.error().message);
      return;
    }
    built.emplace(std::move(*b));
  }
  const std::vector<core::query_id> ids = built->query_ids();
  for (const std::size_t q : f.sample) sample_ids.push_back(ids[q]);

  {
    scoped_span span(t, "bench.stream", pass);
    const auto start = steady::now();
    stream_with_churn(*built, f.data.bytes, f.churn, t, r, s);
    s.pass_s.push_back(seconds_since(start));
    if (t.enabled()) t.add_aggregate(span.id(), "bench.sink", sink_ns);
  }
  s.sink_ns += sink_ns;
  s.sink_records += next;

  // Every record decided once and in order; sampled columns equal to the
  // standalone engines and to the byte-per-cycle reference; no sampled
  // query dropping a record the exact evaluator accepts.
  const auto missing =
      static_cast<std::uint64_t>(std::count(seen.begin(), seen.end(), 2));
  r.check("fleet: missing/duplicate/out-of-order verdict", n,
          missing + order_errors);
  r.check("fleet: verdict id snapshot", n, id_errors);
  std::uint64_t col_mismatch = 0, raw_mismatch = 0, fn = 0;
  for (std::size_t k = 0; k < f.sample.size(); ++k)
    for (std::size_t i = 0; i < n; ++i) {
      const bool bit = cols[k][i] != 0;
      col_mismatch += bit != f.standalone[k][i];
      raw_mismatch += bit != (f.sample_ref[k].raw[i] != 0);
      fn += !bit && f.sample_ref[k].exact[i] != 0;
    }
  const std::uint64_t pairs = f.sample.size() * n;
  r.check("fleet: sampled column != standalone engine", pairs, col_mismatch);
  r.check("fleet: sampled column != raw_filter", pairs, raw_mismatch);
  r.check("fleet: false negative (sampled)", pairs, fn);
  f.any = std::move(seen);
  f.resident_any = std::move(resident);
  f.columns = std::move(cols);
  f.accepted_pairs = popcount;
}

void fleet_run(const options& o, tracer& t, report& r) {
  fleet_state f;
  f.data = smartcity_corpus(sub_seed(o.seed, 3), kFleetBytes);
  const std::vector<query::query> all =
      make_fleet(o.seed, kFleetQueries + kFleetChurnPairs);
  f.resident.assign(all.begin(), all.begin() + kFleetQueries);
  f.churn = compile_all(std::span(all).subspan(kFleetQueries));
  util::prng pick(sub_seed(o.seed, 11));
  while (f.sample.size() < kFleetSamples) {
    const std::size_t q = pick.below(kFleetQueries);
    if (std::find(f.sample.begin(), f.sample.end(), q) == f.sample.end())
      f.sample.push_back(q);
  }
  for (const std::size_t q : f.sample) {
    f.sample_ref.push_back(make_reference(f.resident[q], f.data));
    auto engine = core::make_filter_engine(
        core::engine_kind::chunked, query::compile_default(f.resident[q]));
    f.standalone.push_back(engine->filter_stream(f.data.bytes));
  }

  // The first pass also fixes the socket windows' expected verdicts: the
  // resident fleet's any-match, checked through the sampled columns.
  samples s;
  fleet_pass(f, 0, t, r, s);
  const std::vector<char> expected = f.resident_any;
  socket_config sc;
  sc.builder = [&f] { return fleet_builder(f.resident); };
  sc.pool = &f.data;
  sc.expected = &expected;
  sc.rate = kLegRate;
  sc.max_seconds = kLegWindows * kLegWindow;
  sc.path = socket_path(o);
  socket_session sock(sc, t, r);
  for_rounds(o.seconds, [&](std::size_t i) {
    fleet_pass(f, i + 1, t, r, s);
    if (i < kLegWindows) sock.window(kLegWindow);
  });
  const socket_outcome so = sock.close();

  std::uint64_t accepted = 0, fp = 0;
  for (std::size_t k = 0; k < f.columns.size(); ++k)
    for (std::size_t i = 0; i < f.data.records(); ++i)
      if (f.columns[k][i]) {
        ++accepted;
        fp += f.sample_ref[k].exact[i] == 0;
      }
  const double throughput = rate_mbps(f.data.bytes.size(), s.pass_s);
  set_end_to_end(r, s, throughput, drop_pct(f.data, f.any), so);
  r.set("false_positive_pct", share_pct(fp, accepted), "%");
  r.set("fleet.accepted_pairs_per_record",
        static_cast<double>(f.accepted_pairs) /
            static_cast<double>(f.data.records()),
        "count");
  if (!t.enabled()) return;
  set_layer_samples(r, s, so, kLegRate);
  // The core and extraction probes see the whole resident fleet; the
  // facade probes host its first kFacadeQueries queries, since each of
  // their 28 runs builds a fresh pipeline.
  layer_inputs in;
  in.data = &f.data;
  in.accepted = &expected;
  in.queries = compile_all(f.resident);
  in.paths = project::derive_paths(f.resident);
  const std::vector<query::query> head(f.resident.begin(),
                                       f.resident.begin() + kFacadeQueries);
  in.facade = [head] { return fleet_builder(head); };
  in.facade_s_per_byte = 1e-6 / throughput;
  measure_layers(in, t, r);
}

// ---------------------------------------------------------------------------
// socket_qs1.

void socket_run(const options& o, tracer& t, report& r) {
  const query::query q = query::riotbench::qs1();
  const corpus pool = smartcity_records(sub_seed(o.seed, 5), kSocketPool);
  const reference ref = make_reference(q, pool);

  samples s;
  pipeline_builder leg_builder = builder_for(q);
  leg_builder.backend(backend_kind::sharded)
      .shards(socket_session::kShards)
      .worker_threads(0);
  churn_stream leg(std::move(leg_builder), pool, ref.raw, &ref.exact,
                   compile_all(make_fleet(o.seed, kLegChurnQueries)),
                   kSocketLegPairs, t, r, s);
  socket_config sc;
  sc.builder = [q] { return builder_for(q); };
  sc.pool = &pool;
  sc.expected = &ref.raw;
  sc.exact = &ref.exact;
  sc.rate = kSocketRate;
  sc.max_seconds = o.seconds + 2 * kSocketWindow;
  sc.path = socket_path(o);
  socket_session sock(sc, t, r);
  for_rounds(o.seconds, [&](std::size_t) {
    sock.window(kSocketWindow);
    leg.round();
    sock.time_open();
  });
  leg.finish();
  const socket_outcome so = sock.close();

  for (const double ms : so.open_ms) s.setup_s.push_back(ms / 1e3);
  const double throughput =
      so.active_s > 0 ? static_cast<double>(so.bytes) / so.active_s / 1e6
                      : 0.0;
  const double drop = share_pct(so.dropped_bytes, so.bytes);
  set_end_to_end(r, s, throughput, drop, so);
  r.set("false_positive_pct", share_pct(so.exact_rejected, so.accepts), "%");
  if (!t.enabled()) return;
  set_layer_samples(r, s, so, kSocketRate);
  layer_inputs in;
  in.data = &pool;
  in.accepted = &ref.raw;
  in.queries = {query::compile_default(q)};
  in.paths = project::derive_paths({q});
  in.facade = sc.builder;
  measure_layers(in, t, r);
}

}  // namespace

bool run_workload(const options& o, tracer& t, report& r) {
  if (o.workload == "senml_single") {
    batch_workload w;
    w.q = query::riotbench::qs0();
    w.data = smartcity_corpus(sub_seed(o.seed, 1), kStreamBytes);
    w.ref = make_reference(w.q, w.data);
    batch_run(o, w, t, r);
    return true;
  }
  if (o.workload == "taxi_project") {
    batch_workload w;
    w.q = query::riotbench::qt();
    w.data = taxi_corpus(sub_seed(o.seed, 2), kStreamBytes);
    w.ref = make_reference(w.q, w.data);
    project::path_set paths;
    for (const char* field :
         {"medallion", "hack_license", "pickup_datetime", "dropoff_datetime",
          "trip_time_in_secs", "trip_distance", "pickup_longitude",
          "pickup_latitude", "dropoff_longitude", "dropoff_latitude",
          "payment_type", "fare_amount", "surcharge", "mta_tax", "tip_amount",
          "tolls_amount", "total_amount"})
      paths.add(query::data_model::flat, field);
    w.paths = paths;
    batch_run(o, w, t, r);
    return true;
  }
  if (o.workload == "fleet_churn") {
    fleet_run(o, t, r);
    return true;
  }
  if (o.workload == "socket_qs1") {
    socket_run(o, t, r);
    return true;
  }
  return false;
}

}  // namespace perfbench
