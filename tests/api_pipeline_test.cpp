// jrf::pipeline facade suite (tier-1).
//
// Two halves:
//   * equivalence - for every backend the facade's per-record decisions are
//     byte-identical to the layer it fronts (filter_engine, filter_system,
//     sharded_filter_system), across riotbench queries x datasets x worker
//     counts, batch and streaming surfaces alike;
//   * error paths - build()/run()/offer()/finish() never throw across the
//     API boundary: malformed query text comes back as an expected error
//     carrying the parse_error byte offset, and invalid configurations
//     (zero lanes / FIFO / burst / shards, duplicate query sources, missing
//     input files) are diagnosed without aborting.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstddef>
#include <cstdio>
#include <fstream>
#include <string>
#include <string_view>
#include <vector>

#include "api/pipeline.hpp"
#include "core/filter_engine.hpp"
#include "core/raw_filter.hpp"
#include "core/simd.hpp"
#include "data/smartcity.hpp"
#include "data/stream.hpp"
#include "data/taxi.hpp"
#include "numrange/range_spec.hpp"
#include "project/paths.hpp"
#include "query/compile.hpp"
#include "query/eval.hpp"
#include "query/parse.hpp"
#include "query/riotbench.hpp"
#include "system/sharded.hpp"
#include "system/system.hpp"
#include "util/error.hpp"
#include "util/prng.hpp"

namespace {

using namespace jrf;

struct workload {
  std::string name;
  query::query q;
  std::string stream;
};

const std::vector<workload>& workloads() {
  static const std::vector<workload> cases = [] {
    std::vector<workload> out;
    data::smartcity_generator city;
    out.push_back({"qs0_smartcity", query::riotbench::qs0(), city.stream(400)});
    out.push_back({"qs1_smartcity", query::riotbench::qs1(), city.stream(400)});
    data::taxi_generator taxi;
    out.push_back({"qt_taxi", query::riotbench::qt(), taxi.stream(400)});
    return out;
  }();
  return cases;
}

std::vector<bool> facade_decisions(const workload& w, backend_kind kind) {
  auto built = pipeline::make()
                   .from_query(w.q)
                   .backend(kind)
                   .input(w.stream)
                   .build();
  EXPECT_TRUE(built.has_value()) << (built ? "" : built.error().message);
  auto result = built->run();
  EXPECT_TRUE(result.has_value()) << (result ? "" : result.error().message);
  return result->decisions;
}

}  // namespace

// ---------------------------------------------------------------------------
// Equivalence: facade vs the layer each backend fronts.

TEST(ApiPipelineEquivalence, ScalarAndChunkedMatchFilterEngine) {
  for (const workload& w : workloads()) {
    const core::expr_ptr rf = query::compile_default(w.q);
    for (const core::engine_kind kind :
         {core::engine_kind::scalar, core::engine_kind::chunked}) {
      const auto reference =
          core::make_filter_engine(kind, rf)->filter_stream(w.stream);
      const auto facade = facade_decisions(
          w, kind == core::engine_kind::scalar ? backend_kind::scalar
                                               : backend_kind::chunked);
      EXPECT_EQ(facade, reference)
          << w.name << " " << core::to_string(kind);
    }
  }
}

TEST(ApiPipelineEquivalence, SystemBackendMatchesFilterSystem) {
  for (const workload& w : workloads()) {
    const core::expr_ptr rf = query::compile_default(w.q);
    for (const core::engine_kind engine :
         {core::engine_kind::chunked, core::engine_kind::scalar}) {
      for (const int lanes : {1, 3, 7}) {
        system::system_options so;
        so.lanes = lanes;
        so.engine = engine;
        system::filter_system reference(rf, so);
        const auto reference_report = reference.run(w.stream);

        auto built = pipeline::make()
                         .from_query(w.q)
                         .backend(backend_kind::system)
                         .engine(engine)
                         .lanes(lanes)
                         .input(w.stream)
                         .build();
        ASSERT_TRUE(built.has_value()) << built.error().message;
        auto result = built->run();
        ASSERT_TRUE(result.has_value()) << result.error().message;

        EXPECT_EQ(result->decisions, reference.decisions())
            << w.name << " lanes=" << lanes;
        // The facade reuses system::model_report, so the whole cycle-model
        // accounting matches, not just the verdict counts.
        EXPECT_EQ(result->report.bytes, reference_report.bytes);
        EXPECT_EQ(result->report.records, reference_report.records);
        EXPECT_EQ(result->report.accepted, reference_report.accepted);
        EXPECT_EQ(result->report.cycles, reference_report.cycles);
        EXPECT_EQ(result->report.stall_cycles, reference_report.stall_cycles);
        EXPECT_DOUBLE_EQ(result->report.gbytes_per_second,
                         reference_report.gbytes_per_second);

        // Streaming: odd-sized offers split records mid-token, so the lane
        // accounting rests on the engine's record-size telemetry across
        // chunk boundaries. The whole report must still match.
        auto streaming = pipeline::make()
                             .from_query(w.q)
                             .backend(backend_kind::system)
                             .engine(engine)
                             .lanes(lanes)
                             .build();
        ASSERT_TRUE(streaming.has_value()) << streaming.error().message;
        std::string_view rest = w.stream;
        std::size_t step = 1;  // odd offer sizes 1, 3, ..., 149, 1, ...
        while (!rest.empty()) {
          const std::size_t n = std::min(step, rest.size());
          ASSERT_TRUE(streaming->offer(rest.substr(0, n)).has_value());
          rest.remove_prefix(n);
          step = step >= 149 ? 1 : step + 2;
        }
        auto streamed = streaming->finish();
        ASSERT_TRUE(streamed.has_value()) << streamed.error().message;
        const system::throughput_report& r = streamed->report;
        EXPECT_EQ(streamed->decisions, reference.decisions())
            << w.name << " " << core::to_string(engine) << " lanes=" << lanes;
        EXPECT_EQ(r.bytes, reference_report.bytes);
        EXPECT_EQ(r.records, reference_report.records);
        EXPECT_EQ(r.accepted, reference_report.accepted);
        EXPECT_EQ(r.cycles, reference_report.cycles);
        EXPECT_EQ(r.stall_cycles, reference_report.stall_cycles);
        EXPECT_DOUBLE_EQ(r.seconds, reference_report.seconds);
        EXPECT_DOUBLE_EQ(r.gbytes_per_second,
                         reference_report.gbytes_per_second);
        EXPECT_DOUBLE_EQ(r.theoretical_gbps, reference_report.theoretical_gbps);
      }
    }
  }
}

TEST(ApiPipelineEquivalence, ShardedBackendMatchesShardedSystem) {
  for (const workload& w : workloads()) {
    const core::expr_ptr rf = query::compile_default(w.q);
    const auto shards = data::shard_records(w.stream, 5);
    const std::vector<std::string_view> views{shards.begin(), shards.end()};

    for (const std::size_t workers : {std::size_t{0}, std::size_t{2},
                                      std::size_t{4}}) {
      system::system_options so;
      so.worker_threads = workers;
      system::sharded_filter_system reference(rf, views.size(), so);
      const auto reference_report = reference.run(views);

      auto builder = pipeline::make();
      builder.from_query(w.q)
          .backend(backend_kind::sharded)
          .worker_threads(workers);
      for (const std::string_view view : views) builder.input(view);
      auto built = builder.build();
      ASSERT_TRUE(built.has_value()) << built.error().message;
      auto result = built->run();
      ASSERT_TRUE(result.has_value()) << result.error().message;

      ASSERT_EQ(result->shard_decisions.size(), views.size());
      for (std::size_t s = 0; s < views.size(); ++s)
        EXPECT_EQ(result->shard_decisions[s], reference.decisions(s))
            << w.name << " workers=" << workers << " shard=" << s;
      EXPECT_EQ(result->report.accepted, reference_report.accepted);
      EXPECT_EQ(result->report.records, reference_report.records);
      EXPECT_EQ(result->report.cycles, reference_report.cycles);
      ASSERT_EQ(result->shards.size(), reference_report.shards.size());
      for (std::size_t s = 0; s < views.size(); ++s)
        EXPECT_EQ(result->shards[s].bytes, reference_report.shards[s].bytes);
    }
  }
}

TEST(ApiPipelineEquivalence, ShardedDfaGroupMembersMatchStandalone) {
  // DFA string primitives (technique (i)) as group members on a 2-shard
  // pipeline: every shard runs a clone of the compiled engines, and the
  // pair group streams its non-anchor members' fire lists.
  const auto substring = [](int block, const char* text) {
    return core::primitive_spec{
        core::string_spec{core::string_technique::substring, block, text}};
  };
  const auto dfa = [](const char* text) {
    return core::primitive_spec{
        core::string_spec{core::string_technique::dfa, 1, text}};
  };
  const core::expr_ptr expr = core::conj(
      {core::make_group(core::group_kind::pair,
                        {substring(3, "temp"), dfa("temperature")}),
       core::make_group(
           core::group_kind::scope,
           {dfa("humidity"),
            core::primitive_spec{core::value_spec{
                numrange::range_spec::real_range("30", "40"), {}}}})});
  const auto shards =
      data::shard_records(data::smartcity_generator().stream(300), 2);

  auto builder = pipeline::make();
  builder.raw_filter(expr).backend(backend_kind::sharded).worker_threads(2);
  for (const std::string& shard : shards) builder.input(shard);
  auto built = builder.build();
  ASSERT_TRUE(built.has_value()) << built.error().message;
  auto result = built->run();
  ASSERT_TRUE(result.has_value()) << result.error().message;
  ASSERT_EQ(result->shard_decisions.size(), 2u);
  for (std::size_t s = 0; s < shards.size(); ++s) {
    const auto expected = core::raw_filter(expr).filter_stream(shards[s]);
    EXPECT_EQ(result->shard_decisions[s], expected) << "shard " << s;
    EXPECT_NE(std::count(expected.begin(), expected.end(), true), 0);
    EXPECT_NE(std::count(expected.begin(), expected.end(), false), 0);
  }
}

TEST(ApiPipelineEquivalence, BuilderSettersReachThePipeline) {
  const workload& w = workloads().front();
  const auto baseline = facade_decisions(w, backend_kind::chunked);
  const auto decide = [&](pipeline_builder& builder) {
    auto built = builder.build();
    EXPECT_TRUE(built.has_value()) << (built ? "" : built.error().message);
    if (!built) return std::vector<bool>{};
    auto result = built->run();
    EXPECT_TRUE(result.has_value()) << (result ? "" : result.error().message);
    return result ? result->decisions : std::vector<bool>{};
  };

  EXPECT_STREQ(to_string(backend_kind::scalar), "scalar");
  EXPECT_STREQ(to_string(backend_kind::chunked), "chunked");
  EXPECT_STREQ(to_string(backend_kind::system), "system");
  EXPECT_STREQ(to_string(backend_kind::sharded), "sharded");

  // A pinned vector tier, by enum or by name, never changes a decision.
  std::vector<std::string> names{"auto"};
  for (const core::simd::simd_level level : core::simd::available_levels()) {
    names.emplace_back(core::simd::to_string(level));
    auto builder = pipeline::make();
    builder.from_query(w.q).backend(backend_kind::chunked).simd(level).input(
        w.stream);
    EXPECT_EQ(decide(builder), baseline) << core::simd::to_string(level);
  }
  for (const std::string& name : names) {
    auto builder = pipeline::make();
    builder.from_query(w.q).backend(backend_kind::chunked).simd(name).input(
        w.stream);
    EXPECT_EQ(decide(builder), baseline) << name;
  }

  // A pipeline-owned copy of the input, or the same bytes from a file,
  // decide like the borrowed view: streamed into one lane, or bound as a
  // shard's source.
  const std::string path = ::testing::TempDir() + "jrf-api-input.ndjson";
  {
    std::ofstream out(path, std::ios::binary);
    out << w.stream;
  }
  for (const backend_kind kind : {backend_kind::chunked, backend_kind::sharded}) {
    auto by_text = pipeline::make();
    by_text.from_query(w.q).backend(kind).input_text(std::string(w.stream));
    EXPECT_EQ(decide(by_text), baseline) << to_string(kind);
    auto by_file = pipeline::make();
    by_file.from_query(w.q).backend(kind).input_file(path);
    EXPECT_EQ(decide(by_file), baseline) << to_string(kind);
  }
  std::remove(path.c_str());

  // The group-kind override reaches query compilation (the two kinds
  // decide this stream differently).
  std::vector<std::vector<bool>> by_group;
  for (const core::group_kind kind :
       {core::group_kind::scope, core::group_kind::pair}) {
    query::compile_options options;
    options.group = kind;
    by_group.push_back(
        core::raw_filter(query::compile_default(w.q, 2, options))
            .filter_stream(w.stream));
    auto builder = pipeline::make();
    builder.from_query(w.q).block(2).group(kind).backend(
        backend_kind::chunked).input(w.stream);
    EXPECT_EQ(decide(builder), by_group.back())
        << (kind == core::group_kind::scope ? "scope" : "pair");
  }
  EXPECT_NE(by_group[0], by_group[1]);

  // Move assignment hands over the builder's and the pipeline's state.
  auto builder = pipeline::make();
  builder = pipeline::make();
  builder.from_query(w.q).backend(backend_kind::chunked).input(w.stream);
  auto first = builder.build();
  ASSERT_TRUE(first.has_value()) << first.error().message;
  auto second = pipeline::make()
                    .from_query(w.q)
                    .backend(backend_kind::scalar)
                    .input(w.stream)
                    .build();
  ASSERT_TRUE(second.has_value()) << second.error().message;
  pipeline moved = std::move(*second);
  moved = std::move(*first);
  auto result = moved.run();
  ASSERT_TRUE(result.has_value()) << result.error().message;
  EXPECT_EQ(result->decisions, baseline);
}

TEST(ApiPipelineEquivalence, ExplicitProjectionPathsMatchDerivedPaths) {
  // project(path_set) names the targets itself, so it also serves a raw
  // expression, whose paths cannot be derived.
  const workload& w = workloads().front();
  const auto project_run = [&](pipeline_builder& builder) {
    builder.backend(backend_kind::chunked).input(w.stream);
    auto built = builder.build();
    EXPECT_TRUE(built.has_value()) << (built ? "" : built.error().message);
    if (!built) return std::vector<project::column_batch>{};
    auto result = built->run();
    EXPECT_TRUE(result.has_value()) << (result ? "" : result.error().message);
    if (!result) return std::vector<project::column_batch>{};
    return std::move(result->projection);
  };
  auto derived_builder = pipeline::make();
  derived_builder.from_query(w.q).project();
  const auto derived = project_run(derived_builder);
  auto named_builder = pipeline::make();
  named_builder.raw_filter(query::compile_default(w.q))
      .project(project::derive_paths({w.q}));
  const auto named = project_run(named_builder);

  ASSERT_FALSE(derived.empty());
  ASSERT_EQ(named.size(), derived.size());
  for (std::size_t b = 0; b < derived.size(); ++b) {
    EXPECT_EQ(named[b].records, derived[b].records) << "batch " << b;
    ASSERT_EQ(named[b].columns.size(), derived[b].columns.size());
    for (std::size_t c = 0; c < derived[b].columns.size(); ++c) {
      EXPECT_EQ(named[b].columns[c].name, derived[b].columns[c].name);
      EXPECT_EQ(named[b].columns[c].types, derived[b].columns[c].types);
      EXPECT_EQ(named[b].columns[c].text, derived[b].columns[c].text);
    }
  }
}

TEST(ApiPipelineEquivalence, AllBackendsAgreeOnDecisions) {
  // One stream, every backend: the merged decision vector is identical
  // (sharded with a single input degenerates to one lane, stream order).
  for (const workload& w : workloads()) {
    const auto scalar = facade_decisions(w, backend_kind::scalar);
    ASSERT_FALSE(scalar.empty());
    EXPECT_EQ(facade_decisions(w, backend_kind::chunked), scalar) << w.name;
    EXPECT_EQ(facade_decisions(w, backend_kind::system), scalar) << w.name;
    EXPECT_EQ(facade_decisions(w, backend_kind::sharded), scalar) << w.name;
  }
}

TEST(ApiPipelineEquivalence, NoFalseNegativesThroughTheFacade) {
  for (const workload& w : workloads()) {
    const auto decisions = facade_decisions(w, backend_kind::system);
    const auto check =
        query::verify_no_false_negatives(w.q, w.stream, decisions);
    EXPECT_GT(check.true_matches, 0u) << w.name;
    EXPECT_TRUE(check.ok()) << w.name << ": dropped "
                            << check.false_negatives << " true matches";
  }
}

// ---------------------------------------------------------------------------
// Streaming surface: offer()/pump()/finish() and the decision sink.

TEST(ApiPipelineStreaming, ChunkedStreamingMatchesBatch) {
  const workload& w = workloads().front();
  const auto batch = facade_decisions(w, backend_kind::chunked);

  std::vector<std::pair<std::size_t, bool>> sunk;
  auto built = pipeline::make()
                   .from_query(w.q)
                   .backend(backend_kind::chunked)
                   .on_decision([&](std::size_t shard, std::uint64_t index,
                                    bool accepted) {
                     EXPECT_EQ(shard, 0u);
                     sunk.emplace_back(index, accepted);
                   })
                   .build();
  ASSERT_TRUE(built.has_value()) << built.error().message;

  // Ragged chunks: boundaries land mid-record, mid-token, everywhere.
  std::string_view rest = w.stream;
  while (!rest.empty()) {
    const std::size_t step = std::min<std::size_t>(97, rest.size());
    auto taken = built->offer(rest.substr(0, step));
    ASSERT_TRUE(taken.has_value()) << taken.error().message;
    EXPECT_EQ(*taken, step);
    rest.remove_prefix(step);
  }
  auto result = built->finish();
  ASSERT_TRUE(result.has_value()) << result.error().message;

  EXPECT_EQ(result->decisions, batch);
  ASSERT_EQ(sunk.size(), batch.size());
  for (std::size_t i = 0; i < sunk.size(); ++i) {
    EXPECT_EQ(sunk[i].first, i);       // in order, exactly once
    EXPECT_EQ(sunk[i].second, batch[i]);
  }
}

TEST(ApiPipelineStreaming, SystemStreamingMatchesFilterSystem) {
  const workload& w = workloads().back();
  const core::expr_ptr rf = query::compile_default(w.q);
  system::filter_system reference(rf);
  reference.run(w.stream);

  auto built = pipeline::make()
                   .from_query(w.q)
                   .backend(backend_kind::system)
                   .build();
  ASSERT_TRUE(built.has_value()) << built.error().message;
  std::string_view rest = w.stream;
  while (!rest.empty()) {
    const std::size_t step = std::min<std::size_t>(61, rest.size());
    ASSERT_TRUE(built->offer(rest.substr(0, step)).has_value());
    rest.remove_prefix(step);
  }
  auto result = built->finish();
  ASSERT_TRUE(result.has_value()) << result.error().message;
  EXPECT_EQ(result->decisions, reference.decisions());
}

TEST(ApiPipelineStreaming, ShardedStreamingUnderBackpressure) {
  const workload& w = workloads().front();
  const auto shards = data::shard_records(w.stream, 3);

  std::vector<std::vector<bool>> sunk(shards.size());
  auto built = pipeline::make()
                   .from_query(w.q)
                   .backend(backend_kind::sharded)
                   .shards(shards.size())
                   .worker_threads(2)
                   .lane_fifo_bytes(256)  // far smaller than the offers
                   .on_decision([&](std::size_t shard, std::uint64_t index,
                                    bool accepted) {
                     EXPECT_EQ(index, sunk[shard].size());
                     sunk[shard].push_back(accepted);
                   })
                   .build();
  ASSERT_TRUE(built.has_value()) << built.error().message;
  EXPECT_EQ(built->shard_count(), shards.size());

  // Offer each shard's whole stream in one call: far larger than the lane
  // FIFO, so offer() must drain in-line and still absorb every byte.
  for (std::size_t s = 0; s < shards.size(); ++s) {
    auto taken = built->offer(s, shards[s]);
    ASSERT_TRUE(taken.has_value()) << taken.error().message;
    EXPECT_EQ(*taken, shards[s].size());
  }
  ASSERT_TRUE(built->pump().has_value());
  auto result = built->finish();
  ASSERT_TRUE(result.has_value()) << result.error().message;

  // Decisions per shard equal a fresh serial sharded run of the same feeds.
  const core::expr_ptr rf = query::compile_default(w.q);
  const std::vector<std::string_view> views{shards.begin(), shards.end()};
  system::sharded_filter_system reference(rf, views.size());
  reference.run(views);
  for (std::size_t s = 0; s < shards.size(); ++s) {
    EXPECT_EQ(result->shard_decisions[s], reference.decisions(s));
    EXPECT_EQ(sunk[s], result->shard_decisions[s]) << "shard " << s;
  }
}

TEST(ApiPipelineStreaming, TryOfferPartialAbsorptionUnderFullFifo) {
  // A lane FIFO far smaller than the offer: try_offer must absorb exactly
  // the free space, report hard backpressure with 0 (never block, never
  // drain in-line), and resume after the caller pumps that shard.
  const workload& w = workloads().front();
  auto built = pipeline::make()
                   .from_query(w.q)
                   .backend(backend_kind::sharded)
                   .shards(1)
                   .lane_fifo_bytes(64)
                   .build();
  ASSERT_TRUE(built.has_value()) << built.error().message;

  std::string_view rest = w.stream;
  std::uint64_t absorbed = 0;
  bool saw_partial = false;
  bool saw_hard = false;
  while (!rest.empty()) {
    auto taken = built->try_offer(0, rest);
    ASSERT_TRUE(taken.has_value()) << taken.error().message;
    EXPECT_LE(*taken, 64u);  // never more than the FIFO can hold
    if (*taken == 0) {
      saw_hard = true;
      ASSERT_TRUE(built->pump(0).has_value());
      continue;
    }
    if (*taken < rest.size()) saw_partial = true;
    absorbed += *taken;
    rest.remove_prefix(*taken);
  }
  EXPECT_TRUE(saw_partial);
  EXPECT_EQ(absorbed, w.stream.size());

  // A bounded second offer absorbs only what fits behind the unpumped
  // tail; the live stats() snapshot shows the backpressure the loop hit.
  auto tail = built->try_offer(0, w.stream);
  ASSERT_TRUE(tail.has_value());
  EXPECT_LE(*tail, 64u);
  auto stats = built->stats();
  ASSERT_TRUE(stats.has_value()) << stats.error().message;
  ASSERT_EQ(stats->size(), 1u);
  if (saw_hard) {
    EXPECT_GT((*stats)[0].hard_backpressure_events, 0u);
  }

  auto result = built->finish();
  ASSERT_TRUE(result.has_value()) << result.error().message;
  // Every absorbed byte got filtered (finish drains the FIFO remainder),
  // and the decisions are byte-identical to a batch scan over exactly the
  // absorbed prefix sequence.
  ASSERT_EQ(result->shards.size(), 1u);
  EXPECT_EQ(result->shards[0].bytes, absorbed + *tail);
  const core::expr_ptr rf = query::compile_default(w.q);
  const std::string absorbed_stream =
      w.stream + w.stream.substr(0, static_cast<std::size_t>(*tail));
  EXPECT_EQ(result->decisions,
            core::make_filter_engine(core::engine_kind::chunked, rf)
                ->filter_stream(absorbed_stream));
}

TEST(ApiPipelineStreaming, TryOfferMatchesOfferDecisions) {
  // try_offer + pump(shard) and blocking offer() absorb the same streams
  // into byte-identical decisions, across queries x datasets x workers.
  for (const workload& w : workloads()) {
    const auto shards = data::shard_records(w.stream, 3);
    for (const std::size_t workers : {std::size_t{0}, std::size_t{2}}) {
      auto make = [&] {
        auto builder = pipeline::make();
        builder.from_query(w.q)
            .backend(backend_kind::sharded)
            .shards(shards.size())
            .worker_threads(workers)
            .lane_fifo_bytes(512);
        return builder.build();
      };
      auto blocking = make();
      auto nonblocking = make();
      ASSERT_TRUE(blocking.has_value()) << blocking.error().message;
      ASSERT_TRUE(nonblocking.has_value()) << nonblocking.error().message;

      for (std::size_t s = 0; s < shards.size(); ++s) {
        ASSERT_TRUE(blocking->offer(s, shards[s]).has_value());
        std::string_view rest = shards[s];
        while (!rest.empty()) {
          auto taken = nonblocking->try_offer(s, rest);
          ASSERT_TRUE(taken.has_value()) << taken.error().message;
          if (*taken == 0) {
            ASSERT_TRUE(nonblocking->pump(s).has_value());
            continue;
          }
          rest.remove_prefix(*taken);
        }
      }
      auto blocking_result = blocking->finish();
      auto nonblocking_result = nonblocking->finish();
      ASSERT_TRUE(blocking_result.has_value());
      ASSERT_TRUE(nonblocking_result.has_value());
      for (std::size_t s = 0; s < shards.size(); ++s)
        EXPECT_EQ(nonblocking_result->shard_decisions[s],
                  blocking_result->shard_decisions[s])
            << w.name << " workers=" << workers << " shard=" << s;
    }
    // The single-stream backends run one lane with the same bounded FIFO:
    // try_offer takes at most its free space there too.
    for (const backend_kind kind : {backend_kind::chunked,
                                    backend_kind::system,
                                    backend_kind::scalar}) {
      auto make = [&] {
        return pipeline::make()
            .from_query(w.q)
            .backend(kind)
            .lane_fifo_bytes(512)
            .build();
      };
      auto blocking = make();
      auto nonblocking = make();
      ASSERT_TRUE(blocking.has_value()) << blocking.error().message;
      ASSERT_TRUE(nonblocking.has_value()) << nonblocking.error().message;
      ASSERT_TRUE(blocking->offer(0, w.stream).has_value());
      std::string_view rest = w.stream;
      while (!rest.empty()) {
        auto taken = nonblocking->try_offer(0, rest);
        ASSERT_TRUE(taken.has_value()) << taken.error().message;
        EXPECT_LE(*taken, 512u) << w.name << " " << to_string(kind);
        if (*taken == 0) {
          ASSERT_TRUE(nonblocking->pump(0).has_value());
          continue;
        }
        rest.remove_prefix(*taken);
      }
      auto blocking_result = blocking->finish();
      auto nonblocking_result = nonblocking->finish();
      ASSERT_TRUE(blocking_result.has_value());
      ASSERT_TRUE(nonblocking_result.has_value());
      EXPECT_EQ(nonblocking_result->decisions, blocking_result->decisions)
          << w.name << " " << to_string(kind);
      EXPECT_EQ(nonblocking_result->report.cycles,
                blocking_result->report.cycles)
          << w.name << " " << to_string(kind);
    }
  }
}

TEST(ApiPipelineStreaming, ReentrantSinkDoesNotDeadlock) {
  // Regression: deliver() used to invoke the sink holding the facade
  // mutex, so a sink calling back into offer()/pump() self-deadlocked on
  // the non-recursive lock. Decisions are now handed over outside every
  // internal lock - this test re-enters both calls from inside the sink.
  const workload& w = workloads().front();
  const auto batch = facade_decisions(w, backend_kind::chunked);

  pipeline* self = nullptr;
  const std::string extra = "{\"e\":[]}\n";
  std::vector<bool> sunk;
  bool reentered = false;
  auto built = pipeline::make()
                   .from_query(w.q)
                   .backend(backend_kind::chunked)
                   .on_decision([&](std::size_t, std::uint64_t index,
                                    bool accepted) {
                     EXPECT_EQ(index, sunk.size());  // order survives
                     sunk.push_back(accepted);
                     if (!reentered) {
                       reentered = true;
                       // Both re-entrant calls must return, not deadlock.
                       ASSERT_TRUE(self->pump().has_value());
                       ASSERT_TRUE(self->offer(extra).has_value());
                     }
                   })
                   .build();
  ASSERT_TRUE(built.has_value()) << built.error().message;
  self = &*built;

  ASSERT_TRUE(built->offer(w.stream).has_value());
  auto result = built->finish();
  ASSERT_TRUE(result.has_value()) << result.error().message;
  ASSERT_TRUE(reentered);

  // The re-entrant offer() injected one extra record after the first
  // complete record's decision; every verdict still arrived exactly once,
  // in record order.
  const core::expr_ptr rf = query::compile_default(w.q);
  const auto reference =
      core::make_filter_engine(core::engine_kind::chunked, rf)
          ->filter_stream(w.stream + extra);
  EXPECT_EQ(result->decisions.size(), batch.size() + 1);
  EXPECT_EQ(sunk.size(), result->decisions.size());
  EXPECT_EQ(sunk, result->decisions);
  // Same multiset of verdicts as the reference over stream+extra (the
  // extra record lands mid-stream in arrival order, at the tail in the
  // reference, so compare counts).
  const auto count = [](const std::vector<bool>& v) {
    std::size_t accepted = 0;
    for (const bool d : v) accepted += d ? 1 : 0;
    return accepted;
  };
  EXPECT_EQ(count(sunk), count(reference));
}

TEST(ApiPipelineStreaming, ConvenienceOfferRoundRobinsAcrossShards) {
  // Regression: offer(bytes) used to hard-pin every byte to shard 0,
  // silently serializing a multi-shard pipeline. It now deals complete
  // records round-robin - byte-identical to data::shard_records - even
  // when the chunking is ragged (boundaries mid-record).
  for (const workload& w : workloads()) {
    const auto shards = data::shard_records(w.stream, 3);
    std::vector<std::vector<bool>> sunk(shards.size());
    auto built = pipeline::make()
                     .from_query(w.q)
                     .backend(backend_kind::sharded)
                     .shards(shards.size())
                     .on_decision([&](std::size_t shard, std::uint64_t index,
                                      bool accepted) {
                       ASSERT_LT(shard, sunk.size());
                       EXPECT_EQ(index, sunk[shard].size());
                       sunk[shard].push_back(accepted);
                     })
                     .build();
    ASSERT_TRUE(built.has_value()) << built.error().message;

    std::string_view rest = w.stream;
    while (!rest.empty()) {
      const std::size_t step = std::min<std::size_t>(61, rest.size());
      ASSERT_TRUE(built->offer(rest.substr(0, step)).has_value());
      rest.remove_prefix(step);
    }
    auto result = built->finish();
    ASSERT_TRUE(result.has_value()) << result.error().message;

    const core::expr_ptr rf = query::compile_default(w.q);
    const std::vector<std::string_view> views{shards.begin(), shards.end()};
    system::sharded_filter_system reference(rf, views.size());
    reference.run(views);
    for (std::size_t s = 0; s < shards.size(); ++s) {
      EXPECT_EQ(result->shard_decisions[s], reference.decisions(s))
          << w.name << " shard=" << s;
      EXPECT_EQ(sunk[s], result->shard_decisions[s]) << w.name;
      EXPECT_FALSE(result->shard_decisions[s].empty())
          << w.name << ": shard " << s << " never saw a record";
    }
  }
}

TEST(ApiPipelineStreaming, ConvenienceOfferDealsTheScalarFilterRecords) {
  // The records the shard-less offer() deals are the records push()
  // frames, even where data::shard_records would split: separators and
  // escaped quotes inside string literals, and a tail still inside an open
  // literal. Ragged offer() chunks, every SIMD tier.
  util::prng rng(22);
  const std::vector<std::string> pieces = {"a\nb", "q\\\"\n", "\\\\",
                                           "temperature", "x"};
  std::string stream;
  for (int r = 0; r < 91; ++r) {
    stream += "{\"id\":" + std::to_string(r) + ",\"s\":\"";
    for (std::size_t k = 1 + rng.below(3); k-- > 0;) stream += rng.pick(pieces);
    stream += "\"}\n";
    if (rng.chance(0.1)) stream += '\n';  // empty record
  }
  stream += "{\"s\":\"temperature\nopen";  // owed to shard 91 % 3 = 1
  const core::expr_ptr rf = core::string_leaf("temperature", 1);

  // push()'s records dealt round-robin; the tail goes to the shard owed it.
  constexpr std::size_t kShards = 3;
  std::vector<std::string> dealt(kShards);
  core::raw_filter framing(rf);
  std::string current;
  std::size_t next = 0;
  for (const char c : stream) {
    if (!framing.push(static_cast<unsigned char>(c)).record_boundary) {
      current += c;
    } else if (!current.empty()) {
      dealt[next] += current + '\n';
      next = (next + 1) % kShards;
      current.clear();
    }
  }
  dealt[next] += current;

  for (const core::simd::simd_level level : core::simd::available_levels()) {
    auto built = pipeline::make()
                     .raw_filter(rf)
                     .backend(backend_kind::sharded)
                     .shards(kShards)
                     .simd(level)
                     .build();
    ASSERT_TRUE(built.has_value()) << built.error().message;
    std::string_view rest = stream;
    while (!rest.empty()) {
      const std::size_t step = std::min<std::size_t>(1 + rng.below(100),
                                                     rest.size());
      ASSERT_TRUE(built->offer(rest.substr(0, step)).has_value());
      rest.remove_prefix(step);
    }
    auto result = built->finish();
    ASSERT_TRUE(result.has_value()) << result.error().message;
    for (std::size_t s = 0; s < kShards; ++s)
      EXPECT_EQ(result->shard_decisions[s],
                core::raw_filter(rf).filter_stream(dealt[s]))
          << "shard=" << s << " simd=" << core::simd::to_string(level);
  }
}

// ---------------------------------------------------------------------------
// Error paths: the boundary never throws, offsets survive.

namespace {

std::size_t reference_offset_filter_expression(std::string_view text) {
  try {
    (void)query::parse_filter_expression(text);
  } catch (const parse_error& e) {
    return e.offset();
  }
  ADD_FAILURE() << "reference parse unexpectedly succeeded";
  return static_cast<std::size_t>(-1);
}

std::size_t reference_offset_jsonpath(std::string_view text) {
  try {
    (void)query::parse_jsonpath(text);
  } catch (const parse_error& e) {
    return e.offset();
  }
  ADD_FAILURE() << "reference parse unexpectedly succeeded";
  return static_cast<std::size_t>(-1);
}

}  // namespace

TEST(ApiPipelineErrors, MalformedFilterExpressionPreservesOffset) {
  const std::string_view bad[] = {
      "",                                     // empty query text
      "(0.7 <= \"temperature\" <= )",         // missing bound
      "(0.7 <= \"temperature\" <= 35.1) AND", // dangling conjunction
      "(0.7 <= temperature <= 35.1)",         // unquoted attribute
  };
  for (const std::string_view text : bad) {
    auto built = pipeline::make().filter_expression(text).build();
    ASSERT_FALSE(built.has_value()) << "accepted: " << text;
    ASSERT_TRUE(built.error().offset.has_value()) << text;
    EXPECT_EQ(*built.error().offset, reference_offset_filter_expression(text))
        << text;
    EXPECT_FALSE(built.error().message.empty());
  }
}

TEST(ApiPipelineErrors, MalformedJsonPathPreservesOffset) {
  const std::string_view bad[] = {
      "",
      "$.e[?(@.n==\"temperature\"",          // unterminated filter
      "e[?(@.n==\"t\" & @.v >= 1)]",         // missing $.
  };
  for (const std::string_view text : bad) {
    auto built = pipeline::make().jsonpath(text).build();
    ASSERT_FALSE(built.has_value()) << "accepted: " << text;
    ASSERT_TRUE(built.error().offset.has_value()) << text;
    EXPECT_EQ(*built.error().offset, reference_offset_jsonpath(text)) << text;
  }
}

TEST(ApiPipelineErrors, ConfigurationValidation) {
  const query::query q = query::riotbench::q0();

  // No query source at all.
  auto none = pipeline::make().input("{}\n").build();
  ASSERT_FALSE(none.has_value());
  EXPECT_FALSE(none.error().offset.has_value());

  // Two query sources.
  auto twice = pipeline::make()
                   .from_query(q)
                   .jsonpath("$.e[?(@.n==\"t\" & @.v >= 1)]")
                   .build();
  ASSERT_FALSE(twice.has_value());

  // Zero lanes on the system backend.
  auto zero_lanes = pipeline::make()
                        .from_query(q)
                        .backend(backend_kind::system)
                        .lanes(0)
                        .build();
  ASSERT_FALSE(zero_lanes.has_value());

  // Zero-byte lane FIFO on the sharded backend.
  auto zero_fifo = pipeline::make()
                       .from_query(q)
                       .backend(backend_kind::sharded)
                       .lane_fifo_bytes(0)
                       .build();
  ASSERT_FALSE(zero_fifo.has_value());

  // Zero shards without bound inputs on the sharded backend.
  auto zero_shards = pipeline::make()
                         .from_query(q)
                         .backend(backend_kind::sharded)
                         .shards(0)
                         .build();
  ASSERT_FALSE(zero_shards.has_value());

  // Zero DMA burst.
  auto zero_burst =
      pipeline::make().from_query(q).dma_burst_bytes(0).build();
  ASSERT_FALSE(zero_burst.has_value());

  // Unknown SIMD level name; the diagnosis lists the valid ones.
  auto bad_simd = pipeline::make().from_query(q).simd("altivec").build();
  ASSERT_FALSE(bad_simd.has_value());
  EXPECT_NE(bad_simd.error().message.find("auto / scalar"), std::string::npos)
      << bad_simd.error().message;

  // Negative block length; null raw expressions.
  ASSERT_FALSE(pipeline::make().from_query(q).block(-1).build().has_value());
  ASSERT_FALSE(pipeline::make().raw_filter(nullptr).build().has_value());
  ASSERT_FALSE(
      pipeline::make().from_query(q).add_raw_filter(nullptr).build().has_value());

  // Projection without usable paths, or with a structural separator.
  ASSERT_FALSE(pipeline::make()
                   .from_query(q)
                   .project(project::path_set{})
                   .build()
                   .has_value());
  ASSERT_FALSE(pipeline::make()
                   .raw_filter(query::compile_default(q))
                   .project()
                   .build()
                   .has_value());
  ASSERT_FALSE(
      pipeline::make().from_query(q).separator(',').project().build().has_value());
}

TEST(ApiPipelineErrors, SurfaceMisuseIsDiagnosed) {
  const query::query q = query::riotbench::q0();
  const std::string stream = "{\"e\":[{\"n\":\"t\",\"v\":\"1\"}]}\n";

  // run() without inputs.
  auto empty = pipeline::make().from_query(q).build();
  ASSERT_TRUE(empty.has_value());
  ASSERT_FALSE(empty->run().has_value());

  // offer() on a batch pipeline / run() after streaming started.
  auto batch = pipeline::make().from_query(q).input(stream).build();
  ASSERT_TRUE(batch.has_value());
  ASSERT_FALSE(batch->offer(stream).has_value());
  ASSERT_TRUE(batch->run().has_value());
  ASSERT_FALSE(batch->run().has_value());  // second run

  auto streaming = pipeline::make().from_query(q).build();
  ASSERT_TRUE(streaming.has_value());
  ASSERT_TRUE(streaming->offer(stream).has_value());
  ASSERT_FALSE(streaming->run().has_value());
  ASSERT_TRUE(streaming->finish().has_value());
  ASSERT_FALSE(streaming->offer(stream).has_value());  // after finish
  ASSERT_FALSE(streaming->finish().has_value());       // double finish

  // Out-of-range shard on a single-stream backend.
  auto single = pipeline::make().from_query(q).build();
  ASSERT_TRUE(single.has_value());
  ASSERT_FALSE(single->offer(3, stream).has_value());

  // Missing input file surfaces from run(), with the path in the message.
  auto missing = pipeline::make()
                     .from_query(q)
                     .input_file("/nonexistent/jrf-no-such-file.ndjson")
                     .build();
  ASSERT_TRUE(missing.has_value());
  auto result = missing->run();
  ASSERT_FALSE(result.has_value());
  EXPECT_NE(result.error().message.find("jrf-no-such-file"),
            std::string::npos);
}

TEST(ApiPipelineEquivalence, BlankLineHeavyStreamDoesNotUnderflowStalls) {
  // Blank lines carry bytes to no lane, so the slowest lane can finish in
  // fewer cycles than the balanced distribution of raw bytes; the stall
  // accounting must clamp at zero instead of wrapping the unsigned math.
  std::string stream = "{\"a\":1}\n";
  stream.append(50000, '\n');
  auto built = pipeline::make()
                   .filter_expression("(0 <= \"a\" <= 9)")
                   .backend(backend_kind::system)
                   .lanes(7)
                   .input(stream)
                   .build();
  ASSERT_TRUE(built.has_value()) << built.error().message;
  auto result = built->run();
  ASSERT_TRUE(result.has_value()) << result.error().message;
  EXPECT_EQ(result->records(), 1u);
  EXPECT_LE(result->report.stall_cycles, result->report.cycles);
}

TEST(ApiPipelineEquivalence, CustomSeparatorConsistentAcrossBackends) {
  // ';'-separated records: the system backend's record dealing must frame
  // on the configured separator byte exactly like the engine backends.
  const std::string stream = "{\"a\":\"1\"};{\"a\":\"7\"};{\"a\":\"3\"};";
  const char* expr = "(0 <= \"a\" <= 5)";
  std::vector<std::vector<bool>> per_backend;
  for (const backend_kind kind :
       {backend_kind::scalar, backend_kind::chunked, backend_kind::system,
        backend_kind::sharded}) {
    auto built = pipeline::make()
                     .filter_expression(expr)
                     .separator(';')
                     .backend(kind)
                     .input(stream)
                     .build();
    ASSERT_TRUE(built.has_value()) << built.error().message;
    auto result = built->run();
    ASSERT_TRUE(result.has_value()) << result.error().message;
    per_backend.push_back(result->decisions);
  }
  const std::vector<bool> expected{true, false, true};
  for (const auto& decisions : per_backend) EXPECT_EQ(decisions, expected);
}

TEST(ApiPipelineErrors, NullSourceDiagnosedOnEveryBackend) {
  const query::query q = query::riotbench::q0();
  for (const backend_kind kind :
       {backend_kind::scalar, backend_kind::chunked, backend_kind::system,
        backend_kind::sharded}) {
    auto built = pipeline::make()
                     .from_query(q)
                     .backend(kind)
                     .source(nullptr)
                     .build();
    EXPECT_FALSE(built.has_value()) << to_string(kind);
  }
}

TEST(ApiPipelineErrors, ShardCountConflictingWithInputsIsDiagnosed) {
  const query::query q = query::riotbench::q0();
  const std::string stream = "{\"e\":[{\"n\":\"t\",\"v\":\"1\"}]}\n";
  auto conflicting = pipeline::make()
                         .from_query(q)
                         .backend(backend_kind::sharded)
                         .shards(5)
                         .input(stream)
                         .input(stream)
                         .build();
  ASSERT_FALSE(conflicting.has_value());
  EXPECT_NE(conflicting.error().message.find("conflicts"), std::string::npos);

  // A matching explicit count is fine.
  auto matching = pipeline::make()
                      .from_query(q)
                      .backend(backend_kind::sharded)
                      .shards(2)
                      .input(stream)
                      .input(stream)
                      .build();
  EXPECT_TRUE(matching.has_value());
}

TEST(ApiPipelineErrors, FailedBuildLeavesBuilderRetryable) {
  const std::string stream = "{\"e\":[{\"n\":\"t\",\"v\":\"1\"}]}\n";
  std::size_t sunk = 0;
  auto builder = pipeline::make();
  builder.jsonpath("$.e[?(@.n==\"t\"")  // malformed: unterminated filter
      .on_decision(
          [&](std::size_t, std::uint64_t, bool) { ++sunk; })
      .input(stream);
  ASSERT_FALSE(builder.build().has_value());

  // Correct the query text (same source kind = replacement, not a
  // duplicate) and retry: the bound input and sink must have survived.
  builder.jsonpath("$.e[?(@.n==\"t\" & @.v >= 1)]");
  auto built = builder.build();
  ASSERT_TRUE(built.has_value()) << built.error().message;
  auto result = built->run();
  ASSERT_TRUE(result.has_value()) << result.error().message;
  EXPECT_EQ(result->records(), 1u);
  EXPECT_EQ(sunk, 1u);
}

TEST(ApiPipelineErrors, BuilderReuseIsDiagnosedNotUndefined) {
  const query::query q = query::riotbench::q0();
  auto builder = pipeline::make();
  builder.from_query(q).input("{}\n");
  ASSERT_TRUE(builder.build().has_value());
  // Setters on a spent builder must stay memory-safe, and a second build()
  // must come back as a diagnosed error, not a crash.
  builder.lanes(2).backend(backend_kind::system);
  auto again = builder.build();
  ASSERT_FALSE(again.has_value());
  EXPECT_NE(again.error().message.find("already consumed"),
            std::string::npos);
}

TEST(ApiPipelineErrors, ExpectedValueRethrowsAsJrfError) {
  auto built = pipeline::make().filter_expression("(bogus").build();
  ASSERT_FALSE(built.has_value());
  EXPECT_THROW((void)built.value(), jrf::error);
}

// ---------------------------------------------------------------------------
// verify_no_false_negatives helper contract.

TEST(VerifyNoFalseNegatives, CountsMissedTrueMatches) {
  const workload& w = workloads().front();
  const auto labels = query::label_stream(w.q, w.stream);

  // A perfect oracle has zero false negatives.
  const auto perfect = query::verify_no_false_negatives(w.q, w.stream, labels);
  EXPECT_TRUE(perfect.ok());
  EXPECT_EQ(perfect.records, labels.size());
  EXPECT_GT(perfect.true_matches, 0u);

  // Dropping everything misses every true match, with indices reported.
  const std::vector<bool> drop_all(labels.size(), false);
  const auto missed = query::verify_no_false_negatives(w.q, w.stream, drop_all);
  EXPECT_FALSE(missed.ok());
  EXPECT_EQ(missed.false_negatives, missed.true_matches);
  EXPECT_EQ(missed.missed.size(), missed.false_negatives);

  // A decision-count mismatch is a harness bug and throws.
  EXPECT_THROW((void)query::verify_no_false_negatives(
                   w.q, w.stream, std::vector<bool>(labels.size() + 1, true)),
               jrf::error);
}
