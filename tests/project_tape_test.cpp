// Projection subsystem suite (tier-1).
//
// Ground truth is the strict DOM parser: for every record the extractor's
// field refs - and the tape/columnar accessors built on them - must agree
// byte-for-byte with a reference extraction over json::parse, implementing
// exactly the matching semantics tape.hpp documents:
//   flat  - first member whose key equals the attribute, in document
//           (pre-order) byte order, any depth;
//   senml - first object to COMPLETE that carries both an "n" member
//           string-equal to the attribute and a "v" member (innermost
//           first; duplicate "v" members: last one wins).
// The sweep runs the riotbench queries over both generated datasets across
// every available SIMD tier, then the facade wiring: records straddling
// offer() chunks, escaped strings (including \uXXXX), and the projection
// batches every backend returns through run_result.
#include <gtest/gtest.h>

#include <cstddef>
#include <cstdint>
#include <optional>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "api/pipeline.hpp"
#include "core/bitmaps.hpp"
#include "core/simd.hpp"
#include "data/smartcity.hpp"
#include "data/taxi.hpp"
#include "json/parser.hpp"
#include "json/value.hpp"
#include "project/columns.hpp"
#include "project/paths.hpp"
#include "project/tape.hpp"
#include "query/parse.hpp"
#include "query/riotbench.hpp"
#include "util/decimal.hpp"

namespace {

using namespace jrf;

// --- reference extraction over the DOM --------------------------------

// Flat: linear document order - each key is checked as it is encountered,
// descending into member values between sibling keys.
const json::value* find_flat(const json::value& v, std::string_view attr) {
  if (v.is_object()) {
    for (const auto& [key, val] : v.as_object()) {
      if (key == attr) return &val;
      if (const json::value* hit = find_flat(val, attr)) return hit;
    }
  } else if (v.is_array()) {
    for (const json::value& e : v.as_array())
      if (const json::value* hit = find_flat(e, attr)) return hit;
  }
  return nullptr;
}

// SenML: first object to complete (post-order) with a matching "n" and a
// "v"; the claimed value is the LAST "v" member of that object.
const json::value* find_senml(const json::value& v, std::string_view attr) {
  if (v.is_object()) {
    for (const auto& [key, val] : v.as_object())
      if (const json::value* hit = find_senml(val, attr)) return hit;
    bool name_matches = false;
    const json::value* measurement = nullptr;
    for (const auto& [key, val] : v.as_object()) {
      if (key == "n" && val.is_string() && val.as_string() == attr)
        name_matches = true;
      if (key == "v") measurement = &val;
    }
    if (name_matches && measurement != nullptr) return measurement;
  } else if (v.is_array()) {
    for (const json::value& e : v.as_array())
      if (const json::value* hit = find_senml(e, attr)) return hit;
  }
  return nullptr;
}

const json::value* reference_find(const json::value& doc,
                                  const project::path_target& target) {
  return target.model == query::data_model::flat
             ? find_flat(doc, target.attribute)
             : find_senml(doc, target.attribute);
}

project::value_type expected_type(const json::value& v) {
  switch (v.type()) {
    case json::kind::null: return project::value_type::null;
    case json::kind::boolean: return project::value_type::boolean;
    case json::kind::number: return project::value_type::number;
    case json::kind::string: return project::value_type::string;
    case json::kind::array: return project::value_type::array;
    case json::kind::object: return project::value_type::object;
  }
  return project::value_type::missing;
}

// One tape row against the DOM reference: type, then the value - strings
// byte-identical post-unescape, numbers by exact decimal equality, and
// containers by re-parsing the raw slice into an equal DOM.
void expect_row_matches(const project::tape& t, std::size_t row,
                        const project::path_set& paths,
                        const json::value& doc, const std::string& where) {
  for (std::size_t p = 0; p < paths.size(); ++p) {
    const project::tape_entry& e = t.entry(row, p);
    const json::value* ref = reference_find(doc, paths.at(p));
    const std::string ctx =
        where + " path=" + paths.at(p).to_string() + " row=" +
        std::to_string(row);
    if (ref == nullptr) {
      EXPECT_EQ(e.type, project::value_type::missing) << ctx;
      EXPECT_STREQ(project::to_string(e.type), "missing") << ctx;
      EXPECT_TRUE(t.raw(e).empty()) << ctx;
      continue;
    }
    ASSERT_EQ(e.type, expected_type(*ref)) << ctx;
    switch (e.type) {
      case project::value_type::string:
        EXPECT_STREQ(project::to_string(e.type), "string") << ctx;
        EXPECT_EQ(t.text(e), ref->as_string()) << ctx;
        break;
      case project::value_type::number:
        EXPECT_STREQ(project::to_string(e.type), "number") << ctx;
        EXPECT_EQ(util::decimal::parse(t.raw(e)), ref->as_number()) << ctx;
        break;
      case project::value_type::boolean:
        EXPECT_STREQ(project::to_string(e.type), "boolean") << ctx;
        EXPECT_EQ(t.raw(e) == "true", ref->as_bool()) << ctx;
        break;
      case project::value_type::null:
        EXPECT_STREQ(project::to_string(e.type), "null") << ctx;
        EXPECT_EQ(t.raw(e), "null") << ctx;
        break;
      case project::value_type::array:
      case project::value_type::object:
        EXPECT_STREQ(project::to_string(e.type),
                     ref->is_array() ? "array" : "object")
            << ctx;
        EXPECT_EQ(json::parse(t.raw(e)), *ref) << ctx;
        break;
      case project::value_type::missing:
        break;  // unreachable, handled above
    }
    // The numeric view mirrors json::value::numeric (numbers plus numeric
    // strings - SenML's quoted decimals).
    double got = 0.0;
    const bool numeric = t.number(e, got);
    const std::optional<util::decimal> want = ref->numeric();
    ASSERT_EQ(numeric, want.has_value()) << ctx;
    if (numeric) {
      EXPECT_DOUBLE_EQ(got, want->to_double()) << ctx;
    }
  }
}

std::vector<std::string_view> split_records(std::string_view stream) {
  std::vector<std::string_view> records;
  while (!stream.empty()) {
    const std::size_t nl = stream.find('\n');
    records.push_back(stream.substr(0, nl));
    if (nl == std::string_view::npos) break;
    stream.remove_prefix(nl + 1);
  }
  return records;
}

struct workload {
  std::string name;
  query::query q;
  std::string stream;
};

const std::vector<workload>& workloads() {
  static const std::vector<workload> cases = [] {
    std::vector<workload> out;
    data::smartcity_generator city;
    out.push_back({"qs0_smartcity", query::riotbench::qs0(), city.stream(300)});
    out.push_back({"qs1_smartcity", query::riotbench::qs1(), city.stream(300)});
    data::taxi_generator taxi;
    out.push_back({"qt_taxi", query::riotbench::qt(), taxi.stream(300)});
    // Every value type at a projected path, plus missing attributes.
    out.push_back({"value_types",
                   query::parse_filter_expression(
                       R"(("a" >= 1) AND ("b" >= 1) AND ("c" >= 1))"),
                   "{\"a\":null,\"b\":true,\"c\":[1,{\"d\":2}]}\n"
                   "{\"a\":{\"x\":false},\"b\":\"s\",\"c\":3.5}\n"
                   "{\"b\":false}\n"});
    return out;
  }();
  return cases;
}

}  // namespace

// ---------------------------------------------------------------------------
// path_set derivation.

TEST(ProjectPaths, DeriveDedupsAcrossQueries) {
  // QS0 and QS1 range over the same five SenML attributes: the fleet's
  // shared path set carries each once, ordinals in first-seen order.
  const project::path_set paths = project::derive_paths(
      {query::riotbench::qs0(), query::riotbench::qs1()});
  EXPECT_EQ(paths.size(), 5u);
  EXPECT_EQ(paths.at(0).attribute, "temperature");
  EXPECT_EQ(paths.at(0).model, query::data_model::senml);
  project::path_set expected;
  for (const query::predicate& p : query::riotbench::qs0().predicates())
    expected.add(query::data_model::senml, p.attribute);
  EXPECT_EQ(paths, expected);
}

TEST(ProjectPaths, RejectsEmptyAttribute) {
  project::path_set paths;
  EXPECT_THROW(paths.add(query::data_model::flat, ""), jrf::error);
}

// ---------------------------------------------------------------------------
// Extractor / tape / columns vs the DOM reference, every SIMD tier.

TEST(ProjectTape, MatchesParserOnRiotbenchWorkloads) {
  for (const workload& w : workloads()) {
    const project::path_set paths = project::derive_paths({w.q});
    const std::vector<std::string_view> records = split_records(w.stream);
    for (const core::simd::simd_level level : core::simd::available_levels()) {
      // One pass over the whole stream, records extracted at their true
      // offsets - exactly how the filter engine hands records to the hook.
      core::bitmap_pass pass;
      pass.compute(reinterpret_cast<const unsigned char*>(w.stream.data()),
                   w.stream.size(), '\n', {}, level);
      project::extractor ex(paths, level);
      project::tape t(paths.size());
      std::vector<project::field_ref> refs(paths.size());
      const std::string where =
          w.name + " simd=" + core::simd::to_string(level);
      std::size_t offset = 0;
      std::vector<json::value> docs;
      for (const std::string_view rec : records) {
        const auto* bytes =
            reinterpret_cast<const unsigned char*>(rec.data());
        ex.extract({bytes, rec.size()}, pass, offset, refs.data());
        t.add_record(docs.size(), refs, {bytes, rec.size()});
        docs.push_back(json::parse(rec));
        offset += rec.size() + 1;
      }
      ASSERT_EQ(t.rows(), records.size()) << where;
      for (std::size_t r = 0; r < t.rows(); ++r)
        expect_row_matches(t, r, paths, docs[r], where);

      // The columnar pivot preserves every row: presence, type, numeric
      // view and text all round-trip through column_builder.
      project::column_builder builder(paths);
      builder.append(t);
      const project::column_batch batch = builder.flush(7);
      ASSERT_EQ(batch.rows(), t.rows()) << where;
      EXPECT_EQ(batch.shard, 7u) << where;
      ASSERT_EQ(batch.columns.size(), paths.size()) << where;
      for (std::size_t r = 0; r < batch.rows(); ++r) {
        EXPECT_EQ(batch.records[r], r) << where;
        for (std::size_t p = 0; p < paths.size(); ++p) {
          const project::column_data& col = batch.columns[p];
          const project::tape_entry& e = t.entry(r, p);
          EXPECT_EQ(col.name, paths.at(p).attribute) << where;
          EXPECT_EQ(col.types[r], e.type) << where;
          EXPECT_EQ(col.present_at(r),
                    e.type != project::value_type::missing)
              << where;
          EXPECT_EQ(col.text_at(r), t.text(e)) << where;
          double num = 0.0;
          const bool numeric = t.number(e, num);
          EXPECT_EQ(col.numeric_at(r), numeric) << where;
          if (numeric) {
            EXPECT_DOUBLE_EQ(col.numbers[r], num) << where;
          }
        }
      }
    }
  }
}

TEST(ProjectTape, EscapedStringsUnescapeLikeParser) {
  // Escapes in keys and values: quotes, backslashes, control escapes,
  // \uXXXX (2- and 3-byte UTF-8), and a senml "n" that only matches after
  // unescaping.
  const std::vector<std::string> flat_records = {
      R"({"msg":"line1\nline2","path":"C:\\dir\\f.txt"})",
      R"({"quote":"she said \"hi\"","tab":"a\tb"})",
      R"({"unicode":"caf\u00e9 \u20ac","slash":"a\/b"})",
      R"({"outer":{"msg":"nested \"deep\""},"msg":"shadowed"})",
  };
  project::path_set fpaths;
  fpaths.add(query::data_model::flat, "msg");
  fpaths.add(query::data_model::flat, "path");
  fpaths.add(query::data_model::flat, "quote");
  fpaths.add(query::data_model::flat, "tab");
  fpaths.add(query::data_model::flat, "unicode");
  fpaths.add(query::data_model::flat, "slash");
  const std::string senml_record =
      R"({"e":[{"n":"temp\u00e9rature","v":"21.5","u":"\u00b0C"}]})";
  project::path_set spaths;
  spaths.add(query::data_model::senml, "temp\xc3\xa9rature");

  for (const core::simd::simd_level level : core::simd::available_levels()) {
    const std::string where =
        std::string("simd=") + core::simd::to_string(level);
    for (const std::string& rec : flat_records) {
      core::bitmap_pass pass;
      pass.compute(reinterpret_cast<const unsigned char*>(rec.data()),
                   rec.size(), '\n', {}, level);
      project::extractor ex(fpaths, level);
      project::tape t(fpaths.size());
      std::vector<project::field_ref> refs(fpaths.size());
      const auto* bytes = reinterpret_cast<const unsigned char*>(rec.data());
      ex.extract({bytes, rec.size()}, pass, 0, refs.data());
      t.add_record(0, refs, {bytes, rec.size()});
      expect_row_matches(t, 0, fpaths, json::parse(rec), where + " " + rec);
    }
    // "outer.msg" resolves to the NESTED occurrence: it is first in byte
    // order even though a shallower "msg" follows.
    {
      const std::string& rec = flat_records.back();
      core::bitmap_pass pass;
      pass.compute(reinterpret_cast<const unsigned char*>(rec.data()),
                   rec.size(), '\n', {}, level);
      project::extractor ex(fpaths, level);
      std::vector<project::field_ref> refs(fpaths.size());
      const auto* bytes = reinterpret_cast<const unsigned char*>(rec.data());
      ex.extract({bytes, rec.size()}, pass, 0, refs.data());
      const std::string_view raw(rec.data() + refs[0].offset,
                                 refs[0].length);
      EXPECT_EQ(raw, "\"nested \\\"deep\\\"\"") << where;
    }
    {
      core::bitmap_pass pass;
      pass.compute(
          reinterpret_cast<const unsigned char*>(senml_record.data()),
          senml_record.size(), '\n', {}, level);
      project::extractor ex(spaths, level);
      project::tape t(spaths.size());
      std::vector<project::field_ref> refs(spaths.size());
      const auto* bytes =
          reinterpret_cast<const unsigned char*>(senml_record.data());
      ex.extract({bytes, senml_record.size()}, pass, 0, refs.data());
      t.add_record(0, refs, {bytes, senml_record.size()});
      expect_row_matches(t, 0, spaths, json::parse(senml_record),
                         where + " senml-escaped-n");
    }
  }
}

TEST(ProjectTape, SenmlClaimsInnermostCompletionAndLastV) {
  // The outer object matches too, but the nested measurement completes
  // first; its duplicate "v" resolves to the last one.
  const std::string rec =
      R"({"n":"temperature","v":1,"inner":{"n":"temperature","v":2,"v":3}})";
  project::path_set paths;
  paths.add(query::data_model::senml, "temperature");
  core::bitmap_pass pass;
  pass.compute(reinterpret_cast<const unsigned char*>(rec.data()), rec.size(),
               '\n', {}, core::simd::simd_level::automatic);
  project::extractor ex(paths);
  std::vector<project::field_ref> refs(paths.size());
  const auto* bytes = reinterpret_cast<const unsigned char*>(rec.data());
  ex.extract({bytes, rec.size()}, pass, 0, refs.data());
  ASSERT_EQ(refs[0].type, project::value_type::number);
  EXPECT_EQ(std::string_view(rec.data() + refs[0].offset, refs[0].length),
            "3");
  // The DOM reference agrees - the semantics are shared, not coincidental.
  // find_senml returns a pointer into the document, so the parsed value
  // must outlive it.
  const json::value doc = json::parse(rec);
  const json::value* ref = find_senml(doc, "temperature");
  ASSERT_NE(ref, nullptr);
  EXPECT_EQ(ref->as_number(), util::decimal::parse("3"));
}

// ---------------------------------------------------------------------------
// Facade wiring: chunk-straddling records and run_result::projection.

namespace {

// Run one workload through a facade backend with projection on and check
// every batch row against the DOM reference.
void expect_projection_matches(const workload& w, run_result& result,
                               const std::string& where) {
  const project::path_set paths = project::derive_paths({w.q});
  const std::vector<std::string_view> records = split_records(w.stream);
  // Accepted per-shard record index -> document (single-stream backends:
  // the per-shard index IS the stream index).
  std::size_t rows = 0;
  for (const project::column_batch& batch : result.projection) {
    EXPECT_EQ(batch.columns.size(), paths.size()) << where;
    for (std::size_t r = 0; r < batch.rows(); ++r) {
      const std::uint64_t index = batch.records[r];
      ASSERT_LT(index, records.size()) << where;
      ASSERT_LT(index, result.shard_decisions[batch.shard].size()) << where;
      EXPECT_TRUE(result.shard_decisions[batch.shard][index]) << where;
      const json::value doc = json::parse(records[index]);
      for (std::size_t p = 0; p < paths.size(); ++p) {
        const json::value* ref = reference_find(doc, paths.at(p));
        const project::column_data& col = batch.columns[p];
        const std::string ctx = where + " record=" + std::to_string(index) +
                                " path=" + paths.at(p).to_string();
        ASSERT_EQ(col.present_at(r), ref != nullptr) << ctx;
        if (ref == nullptr) continue;
        if (ref->is_string()) {
          EXPECT_EQ(col.text_at(r), ref->as_string()) << ctx;
        }
        const std::optional<util::decimal> want = ref->numeric();
        ASSERT_EQ(col.numeric_at(r), want.has_value()) << ctx;
        if (want) {
          EXPECT_DOUBLE_EQ(col.numbers[r], want->to_double()) << ctx;
        }
      }
      ++rows;
    }
  }
  EXPECT_EQ(rows, static_cast<std::size_t>(result.accepted())) << where;
}

}  // namespace

TEST(ProjectPipeline, ChunkStraddlingRecordsProjectExactly) {
  // Offers far smaller than a record: every record straddles chunk
  // boundaries, so extraction runs on the engine's reassembled carry with
  // a record-local bitmap pass.
  for (const workload& w : workloads()) {
    auto built = pipeline::make()
                     .from_query(w.q)
                     .backend(backend_kind::chunked)
                     .project()
                     .projection_batch_rows(3)  // exercise partial flushes
                     .build();
    ASSERT_TRUE(built.has_value()) << built.error().message;
    std::string_view rest = w.stream;
    while (!rest.empty()) {
      const std::size_t step = std::min<std::size_t>(13, rest.size());
      ASSERT_TRUE(built->offer(rest.substr(0, step)).has_value());
      rest.remove_prefix(step);
    }
    auto result = built->finish();
    ASSERT_TRUE(result.has_value()) << result.error().message;
    expect_projection_matches(w, *result, w.name + " straddle");
  }
}

TEST(ProjectPipeline, RowsAcrossWindowEdgesProjectExactly) {
  // Streams of several 64 KiB engine windows, batch and offered in
  // chunks of 64 KiB - 1 / + 0 / + 1: records straddling a window edge
  // project from the pass they are decided on, like every other record.
  data::smartcity_generator city(11);
  data::taxi_generator taxi(11);
  const std::vector<workload> cases{
      {"qs0_windows", query::riotbench::qs0(), city.stream(1200)},
      {"qt_windows", query::riotbench::qt(), taxi.stream(1200)},
  };
  for (const workload& w : cases) {
    ASSERT_GT(w.stream.size(), std::size_t{3} << 16) << w.name;
    for (const std::size_t width :
         {w.stream.size(), std::size_t{65535}, std::size_t{65536},
          std::size_t{65537}}) {
      auto built = pipeline::make()
                       .from_query(w.q)
                       .backend(backend_kind::chunked)
                       .project()
                       .build();
      ASSERT_TRUE(built.has_value()) << built.error().message;
      for (std::size_t off = 0; off < w.stream.size(); off += width)
        ASSERT_TRUE(
            built->offer(std::string_view(w.stream).substr(off, width))
                .has_value());
      auto result = built->finish();
      ASSERT_TRUE(result.has_value()) << result.error().message;
      EXPECT_GT(result->accepted(), 0u) << w.name;
      expect_projection_matches(w, *result,
                                w.name + " width=" + std::to_string(width));
    }
  }
}

TEST(ProjectPipeline, AllBackendsReturnIdenticalProjection) {
  for (const workload& w : workloads()) {
    for (const backend_kind kind :
         {backend_kind::chunked, backend_kind::system,
          backend_kind::sharded}) {
      auto built = pipeline::make()
                       .from_query(w.q)
                       .backend(kind)
                       .input(w.stream)
                       .project()
                       .build();
      ASSERT_TRUE(built.has_value()) << built.error().message;
      auto result = built->run();
      ASSERT_TRUE(result.has_value()) << result.error().message;
      expect_projection_matches(w, *result,
                                w.name + " backend=" +
                                    std::to_string(static_cast<int>(kind)));
    }
  }
}

TEST(ProjectPipeline, SinkStreamsBatchesInsteadOfRetaining) {
  const workload& w = workloads().front();
  std::vector<project::column_batch> streamed;
  auto built = pipeline::make()
                   .from_query(w.q)
                   .backend(backend_kind::chunked)
                   .projection_batch_rows(5)
                   .on_projection([&](std::size_t shard,
                                      const project::column_batch& batch) {
                     EXPECT_EQ(shard, 0u);
                     streamed.push_back(batch);
                   })
                   .input(w.stream)
                   .build();
  ASSERT_TRUE(built.has_value()) << built.error().message;
  auto result = built->run();
  ASSERT_TRUE(result.has_value()) << result.error().message;
  EXPECT_TRUE(result->projection.empty());  // the sink consumed the batches
  std::size_t rows = 0;
  for (const project::column_batch& b : streamed) {
    EXPECT_LE(b.rows(), 5u);
    rows += b.rows();
  }
  EXPECT_EQ(rows, static_cast<std::size_t>(result->accepted()));
  // Re-run without the sink: the retained batches carry the same rows.
  run_result retained = *pipeline::make()
                             .from_query(w.q)
                             .backend(backend_kind::chunked)
                             .project()
                             .input(w.stream)
                             .build()
                             ->run();
  expect_projection_matches(w, retained, w.name + " retained");
}

TEST(ProjectPipeline, ScalarBackendsAreRejectedAtBuild) {
  const workload& w = workloads().front();
  auto scalar_backend = pipeline::make()
                            .from_query(w.q)
                            .backend(backend_kind::scalar)
                            .project()
                            .build();
  EXPECT_FALSE(scalar_backend.has_value());
  auto scalar_engine = pipeline::make()
                           .from_query(w.q)
                           .backend(backend_kind::system)
                           .engine(core::engine_kind::scalar)
                           .project()
                           .build();
  EXPECT_FALSE(scalar_engine.has_value());
  auto zero_batch = pipeline::make()
                        .from_query(w.q)
                        .project()
                        .projection_batch_rows(0)
                        .build();
  EXPECT_FALSE(zero_batch.has_value());
}
