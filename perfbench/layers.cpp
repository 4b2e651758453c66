#include "layers.hpp"

#include <algorithm>
#include <bit>
#include <cstring>
#include <set>
#include <span>
#include <string>
#include <variant>

#include "core/bitmaps.hpp"
#include "core/filter_engine.hpp"
#include "core/primitive.hpp"
#include "core/simd.hpp"
#include "project/columns.hpp"
#include "project/tape.hpp"

namespace perfbench {

namespace {

using namespace jrf;

// Probes read at most this many bytes of the workload (whole records), so
// a traced run stays within a few seconds even on the 44 MB streams.
constexpr std::size_t kProbeBytes = 8'000'000;
// Ingest chunk handed to the bitmap pass and the engines, as the facade's
// batch path does with its 1 MB reads.
constexpr std::size_t kChunk = 1u << 20;
constexpr int kPairs = 7;

struct slice {
  std::string_view bytes;
  std::size_t records = 0;
};

slice probe_slice(const corpus& c) {
  std::size_t n = 0;
  while (n < c.records() && c.starts[n + 1] <= kProbeBytes) ++n;
  if (n == 0) n = std::min<std::size_t>(1, c.records());
  return {std::string_view(c.bytes).substr(0, c.starts[n]), n};
}

double mbps(std::size_t bytes, double seconds) {
  return seconds > 0 ? static_cast<double>(bytes) / seconds / 1e6 : 0.0;
}

void scan(core::filter_engine& engine, std::string_view bytes) {
  for (std::size_t off = 0; off < bytes.size(); off += kChunk)
    engine.scan_chunk(bytes.substr(off, kChunk));
  engine.finish();
}

// Bare memchr newline sweep: the ceiling beside core.bitmap_pass.mbps.
void floor_probe(const slice& s, tracer& t, report& r) {
  std::vector<double> secs;
  for (int rep = 0; rep < 5; ++rep) {
    scoped_span span(t, "floor.memchr", rep);
    const auto start = steady::now();
    std::size_t lines = 0;
    const char* p = s.bytes.data();
    const char* end = p + s.bytes.size();
    while ((p = static_cast<const char*>(std::memchr(p, '\n', end - p))) !=
           nullptr) {
      ++lines;
      ++p;
    }
    secs.push_back(seconds_since(start));
    r.check("memchr framing", 1, lines == s.records ? 0 : 1);
  }
  r.set("floor.memchr_mbps", mbps(s.bytes.size(), median(secs)), "MB/s");
}

// bitmap_pass::compute over the ingest chunks, then the next_boundary walk
// that frames records off the boundary bitmap. Returns the pass+framing
// cost per record, the baseline the one-leaf engine probes subtract.
double pass_probe(const slice& s, tracer& t, report& r) {
  const auto level = core::simd::active_level();
  core::bitmap_pass pass;
  std::vector<double> pass_s, framing_s;
  for (int rep = 0; rep < 3; ++rep) {
    core::framing_state state{};
    std::int64_t pass_ns = 0, framing_ns = 0;
    std::size_t framed = 0;
    for (std::size_t off = 0, chunk = 0; off < s.bytes.size();
         off += kChunk, ++chunk) {
      const std::size_t len = std::min(kChunk, s.bytes.size() - off);
      const auto* data =
          reinterpret_cast<const unsigned char*>(s.bytes.data() + off);
      {
        scoped_span span(t, "core.bitmap_pass", chunk);
        const auto start = steady::now();
        pass.compute(data, len, '\n', state, level);
        pass_ns += ns_between(start, steady::now());
      }
      state = pass.end_state();
      scoped_span span(t, "core.framing", chunk);
      const auto start = steady::now();
      for (std::size_t pos = pass.next_boundary(0);
           pos != core::simd::npos; pos = pass.next_boundary(pos + 1))
        ++framed;
      framing_ns += ns_between(start, steady::now());
    }
    r.check("bitmap framing", 1, framed == s.records ? 0 : 1);
    pass_s.push_back(static_cast<double>(pass_ns) / 1e9);
    framing_s.push_back(static_cast<double>(framing_ns) / 1e9);
  }
  const double records = static_cast<double>(s.records);
  r.set("core.bitmap_pass.mbps", mbps(s.bytes.size(), median(pass_s)),
        "MB/s");
  r.set("core.framing.ns_per_record", median(framing_s) * 1e9 / records,
        "ns");
  return (median(pass_s) + median(framing_s)) * 1e9 / records;
}

// Every unique primitive of the resident queries as a one-leaf chunked
// engine: its cost over the pass+framing baseline, and how often it fires.
void engine_probe(const layer_inputs& in, const slice& s, double baseline_ns,
                  tracer& t, report& r) {
  std::vector<core::primitive_spec> specs;
  std::set<std::string> seen;
  for (const core::expr_ptr& q : in.queries)
    for (const core::primitive_spec& spec : q->primitives())
      if (seen.insert(core::spec_key(spec)).second) specs.push_back(spec);

  std::vector<double> value_ns, string_ns, fire_pct;
  for (std::size_t i = 0; i < specs.size(); ++i) {
    const bool is_value = std::holds_alternative<core::value_spec>(specs[i]);
    auto engine = core::make_filter_engine(core::engine_kind::chunked,
                                           core::leaf(specs[i]));
    scoped_span span(t, is_value ? "core.engine.value" : "core.engine.string",
                     i);
    const auto start = steady::now();
    scan(*engine, s.bytes);
    const double ns = static_cast<double>(ns_between(start, steady::now()));
    const auto& decisions = engine->decisions();
    const double fired = static_cast<double>(
        std::count(decisions.begin(), decisions.end(), true));
    fire_pct.push_back(100.0 * fired / static_cast<double>(s.records));
    (is_value ? value_ns : string_ns)
        .push_back(ns / static_cast<double>(s.records) - baseline_ns);
    r.check("one-leaf engine framing", 1,
            decisions.size() == s.records ? 0 : 1);
  }
  auto mean = [](const std::vector<double>& v) {
    double sum = 0;
    for (double x : v) sum += x;
    return v.empty() ? 0.0 : sum / static_cast<double>(v.size());
  };
  r.set("core.engine.value.ns_per_record", mean(value_ns), "ns");
  r.set("core.engine.string.ns_per_record", mean(string_ns), "ns");
  r.set("core.engine.fire_pct", mean(fire_pct), "%");
  r.set("core.engine.value_count", static_cast<double>(value_ns.size()),
        "count");
  r.set("core.engine.string_count", static_cast<double>(string_ns.size()),
        "count");
}

// compile_set (or compile for one query), the plan's shape, and a direct
// filter_engine scan with no facade. Returns the scan's seconds per byte.
double compile_scan_probe(const layer_inputs& in, const slice& s, tracer& t,
                          report& r) {
  std::vector<double> compile_ms;
  std::size_t unique_engines = 0, trie_nodes = 0;
  for (int rep = 0; rep < 3; ++rep) {
    scoped_span span(t, "core.compile", rep);
    const auto start = steady::now();
    const core::compiled_layout layout =
        in.queries.size() == 1
            ? core::compiled_layout::compile(*in.queries.front())
            : core::compiled_layout::compile_set(in.queries);
    compile_ms.push_back(seconds_since(start) * 1e3);
    unique_engines = layout.engines.size();
    trie_nodes = layout.trie.size();
  }
  r.set("core.compile.ms", median(compile_ms), "ms");
  r.set("core.unique_engines", static_cast<double>(unique_engines), "count");
  r.set("core.trie_nodes", static_cast<double>(trie_nodes), "count");

  std::vector<double> scan_s;
  const auto budget = steady::now();
  for (int rep = 0; rep < 5 && (rep < 1 || seconds_since(budget) < 1.0);
       ++rep) {
    auto engine =
        core::make_filter_engine(core::engine_kind::chunked, in.queries);
    r.set("core.verdict_bytes_per_record",
          8.0 * static_cast<double>(engine->words_per_record()), "B");
    {
      scoped_span span(t, "core.scan", rep);
      const auto start = steady::now();
      scan(*engine, s.bytes);
      scan_s.push_back(seconds_since(start));
    }
    const auto& d = engine->decisions();
    std::uint64_t bad = d.size() == s.records ? 0 : 1;
    for (std::size_t i = 0; i < std::min(d.size(), s.records); ++i)
      bad += d[i] != ((*in.accepted)[i] != 0);
    r.check("core.scan any-match vs reference", s.records, bad);
  }
  r.set("core.scan.mbps", mbps(s.bytes.size(), median(scan_s)), "MB/s");
  return median(scan_s) / static_cast<double>(s.bytes.size());
}

// extractor::extract on the accepted records (bitmap pass per record-
// aligned chunk, as the engine's accepted hook delivers it), then the tape
// and column builder on the extracted rows.
void extract_probe(const layer_inputs& in, const slice& s, tracer& t,
                   report& r) {
  const auto level = core::simd::active_level();
  project::extractor ex(in.paths, level);
  project::tape tape(in.paths.size());
  project::column_builder columns(in.paths);
  std::vector<project::field_ref> refs(in.paths.size());
  core::bitmap_pass pass;
  const corpus& c = *in.data;
  std::int64_t extract_ns = 0, append_ns = 0;
  std::uint64_t rows = 0, text_bytes = 0, present = 0;

  // Transposes the tape into a batch and reads every column; returns the
  // library's share of that time.
  auto flush = [&]() -> std::int64_t {
    const auto start = steady::now();
    columns.append(tape);
    tape.clear();
    const project::column_batch batch = columns.flush();
    const std::int64_t ns = ns_between(start, steady::now());
    for (const project::column_data& col : batch.columns) {
      text_bytes += col.text.size();
      for (std::uint64_t w : col.present) present += std::popcount(w);
    }
    return ns;
  };

  std::size_t first = 0, chunk = 0;
  while (first < s.records) {
    std::size_t last = first + 1;
    while (last < s.records && c.starts[last + 1] - c.starts[first] <= kChunk)
      ++last;
    const std::size_t base = c.starts[first];
    const std::size_t len = c.starts[last] - base;
    pass.compute(reinterpret_cast<const unsigned char*>(c.bytes.data() + base),
                 len, '\n', core::framing_state{}, level);
    scoped_span walk(t, "project.walk", chunk++);
    std::int64_t chunk_extract = 0, chunk_append = 0;
    for (std::size_t i = first; i < last; ++i) {
      if ((*in.accepted)[i] == 0) continue;
      const std::string_view rec = c.record(i);
      const std::span<const unsigned char> bytes(
          reinterpret_cast<const unsigned char*>(rec.data()), rec.size());
      auto start = steady::now();
      ex.extract(bytes, pass, c.starts[i] - base, refs.data());
      auto mid = steady::now();
      tape.add_record(i, refs, bytes);
      chunk_extract += ns_between(start, mid);
      chunk_append += ns_between(mid, steady::now());
      if (++rows % 1024 == 0) chunk_append += flush();
    }
    extract_ns += chunk_extract;
    append_ns += chunk_append;
    if (t.enabled()) {
      t.add_aggregate(walk.id(), "project.extract", chunk_extract);
      t.add_aggregate(walk.id(), "project.append", chunk_append);
    }
    first = last;
  }
  if (tape.rows() > 0) append_ns += flush();
  const double n = static_cast<double>(std::max<std::uint64_t>(rows, 1));
  r.set("project.extract.ns_per_row", static_cast<double>(extract_ns) / n,
        "ns");
  r.set("project.append.ns_per_row", static_cast<double>(append_ns) / n,
        "ns");
  r.set("project.rows", static_cast<double>(rows), "count");
  r.set("project.text_bytes", static_cast<double>(text_bytes), "B");
  r.set("project.present_fields", static_cast<double>(present), "count");
}

// One facade batch run over the slice: projection on or off, or with the
// traced per-record sink that the end-to-end loops use.
double facade_run(const layer_inputs& in, const slice& s, bool project,
                  tracer& t, report& r) {
  std::uint64_t decided = 0, rows = 0;
  std::int64_t sink_ns = 0;
  auto builder = in.facade();
  builder.input(s.bytes);
  if (t.enabled())
    builder.on_decision([&](std::size_t, std::uint64_t, bool) {
      const auto start = steady::now();
      ++decided;
      sink_ns += ns_between(start, steady::now());
    });
  else
    builder.on_decision([&](std::size_t, std::uint64_t, bool) { ++decided; });
  if (project)
    builder.project(in.paths).on_projection(
        [&](std::size_t, const project::column_batch& b) { rows += b.rows(); });
  auto built = builder.build();
  if (!built) {
    r.fail("facade build: " + built.error().message);
    return 0.0;
  }
  scoped_span span(t, "api.run");
  const auto start = steady::now();
  auto result = built->run();
  const double seconds = seconds_since(start);
  if (t.enabled()) t.add_aggregate(span.id(), "bench.sink", sink_ns);
  if (!result) {
    r.fail("facade run: " + result.error().message);
    return 0.0;
  }
  r.check("facade records", 1, decided == s.records ? 0 : 1);
  if (project)
    r.check("facade projected rows", 1, rows == result->accepted() ? 0 : 1);
  return seconds;
}

// Projection off vs on, paired and interleaved (the order alternates per
// pair), as a median with quartiles; then the same pairing for the
// tracing instrumentation itself.
void paired_probes(const layer_inputs& in, const slice& s, double scan_spb,
                   tracer& t, report& r) {
  tracer quiet(false);
  std::vector<double> overhead, off_s;
  for (int pair = 0; pair < kPairs; ++pair) {
    double off = 0, on = 0;
    if (pair % 2 == 0) {
      off = facade_run(in, s, false, quiet, r);
      on = facade_run(in, s, true, quiet, r);
    } else {
      on = facade_run(in, s, true, quiet, r);
      off = facade_run(in, s, false, quiet, r);
    }
    if (off > 0 && on > 0) overhead.push_back(100.0 * (on / off - 1.0));
    off_s.push_back(off);
  }
  r.set("project.overhead_pct", median(overhead), "%");
  r.set("project.overhead_q1_pct", quantile(overhead, 0.25), "%");
  r.set("project.overhead_q3_pct", quantile(overhead, 0.75), "%");

  const double facade_spb =
      in.facade_s_per_byte > 0
          ? in.facade_s_per_byte
          : median(off_s) / static_cast<double>(s.bytes.size());
  r.set("api.overhead_pct", 100.0 * (facade_spb - scan_spb) / facade_spb,
        "%");
  r.set("api.facade.mbps", 1e-6 / facade_spb, "MB/s");

  std::vector<double> traced, plain;
  for (int pair = 0; pair < kPairs; ++pair) {
    if (pair % 2 == 0) {
      traced.push_back(facade_run(in, s, false, t, r));
      plain.push_back(facade_run(in, s, false, quiet, r));
    } else {
      plain.push_back(facade_run(in, s, false, quiet, r));
      traced.push_back(facade_run(in, s, false, t, r));
    }
  }
  r.set("trace.overhead_pct", 100.0 * (median(traced) / median(plain) - 1.0),
        "%");
}

}  // namespace

void measure_layers(const layer_inputs& in, tracer& t, report& r) {
  const slice s = probe_slice(*in.data);
  floor_probe(s, t, r);
  const double baseline_ns = pass_probe(s, t, r);
  engine_probe(in, s, baseline_ns, t, r);
  const double scan_spb = compile_scan_probe(in, s, t, r);
  extract_probe(in, s, t, r);
  paired_probes(in, s, scan_spb, t, r);
}

}  // namespace perfbench
