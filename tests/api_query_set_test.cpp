// Multi-tenant surface of the jrf::pipeline facade (PR 8 tentpole):
// builder-time query fleets, per-query decision columns read from
// run_result's verdict matrix, verdict-bitmap sinks, and the runtime
// add_query()/remove_query() epoch swap exercised mid-stream - on the
// chunked backend deterministically (exact first_record accounting,
// including a swap landing inside a record, whose in-flight bytes must
// carry over) and on the sharded backend with worker threads plus
// concurrent producers (the TSan target). Every column is held byte-identical to
// running that query alone.
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <barrier>
#include <cstddef>
#include <cstdint>
#include <map>
#include <memory>
#include <optional>
#include <span>
#include <string>
#include <string_view>
#include <thread>
#include <vector>

#include "api/pipeline.hpp"
#include "core/filter_engine.hpp"
#include "core/raw_filter.hpp"
#include "data/smartcity.hpp"
#include "data/stream.hpp"
#include "project/columns.hpp"
#include "query/compile.hpp"
#include "query/riotbench.hpp"
#include "system/system.hpp"

namespace {

using namespace jrf;

const std::string& telemetry() {
  static const std::string stream = [] {
    data::smartcity_generator city;
    return city.stream(240);
  }();
  return stream;
}

core::expr_ptr primary_expr() {
  return query::compile_default(query::riotbench::qs0());
}

core::expr_ptr second_expr() {
  return query::compile_default(query::riotbench::qs1());
}

std::vector<bool> standalone(const core::expr_ptr& expr,
                             std::string_view stream) {
  return core::raw_filter(expr).filter_stream(stream);
}

std::vector<bool> slice(const std::vector<bool>& column, std::size_t from) {
  return {column.begin() + static_cast<std::ptrdiff_t>(from), column.end()};
}

/// Byte offset just past record `count` of `stream` (separator '\n'; the
/// smartcity generator never embeds the separator inside a string).
std::size_t record_boundary(std::string_view stream, std::size_t count) {
  std::size_t offset = 0;
  for (std::size_t r = 0; r < count; ++r)
    offset = stream.find('\n', offset) + 1;
  return offset;
}

}  // namespace

// ---------------------------------------------------------------------------
// Builder-time fleets.

TEST(ApiQuerySet, BuilderFleetColumnsMatchStandaloneRuns) {
  const char* text = R"((0.7 <= "temperature" <= 35.1))";
  auto single = pipeline::make()
                    .filter_expression(text)
                    .backend(backend_kind::chunked)
                    .input(telemetry())
                    .build();
  ASSERT_TRUE(single.has_value()) << single.error().message;
  auto single_run = single->run();
  ASSERT_TRUE(single_run.has_value()) << single_run.error().message;
  // Plain single-query pipelines carry no fleet bookkeeping at all.
  EXPECT_TRUE(single_run->query_ids.empty());
  EXPECT_TRUE(single_run->verdicts.empty());

  auto built = pipeline::make()
                   .from_query(query::riotbench::qs0())
                   .add_raw_filter(second_expr())
                   .add_filter_expression(text)
                   .backend(backend_kind::chunked)
                   .input(telemetry())
                   .build();
  ASSERT_TRUE(built.has_value()) << built.error().message;
  const std::vector<core::query_id> ids = built->query_ids();
  ASSERT_EQ(ids.size(), 3u);
  EXPECT_EQ(ids, (std::vector<core::query_id>{1, 2, 3}));

  auto result = built->run();
  ASSERT_TRUE(result.has_value()) << result.error().message;
  EXPECT_EQ(result->query_ids, ids);
  ASSERT_EQ(result->verdicts.shards(), 1u);
  // Exactly the three resident queries have a column.
  ASSERT_FALSE(result->verdicts.column(0, ids.back() + 1).has_value());

  const std::vector<std::vector<bool>> expected{
      standalone(primary_expr(), telemetry()),
      standalone(second_expr(), telemetry()),
      single_run->decisions,
  };
  for (std::size_t q = 0; q < 3; ++q) {
    const auto column = result->verdicts.column(0, ids[q]);
    ASSERT_TRUE(column.has_value()) << "query " << q;
    EXPECT_EQ(column->first_record, 0u);
    EXPECT_EQ(column->decisions, expected[q]) << "query " << q;
  }

  // The any-match decision stream is the OR of the columns.
  ASSERT_EQ(result->decisions.size(), expected[0].size());
  for (std::size_t r = 0; r < result->decisions.size(); ++r)
    EXPECT_EQ(result->decisions[r],
              expected[0][r] || expected[1][r] || expected[2][r])
        << "record " << r;
}

TEST(ApiQuerySet, VerdictSinkReceivesEpochConsistentBitmaps) {
  struct verdict {
    std::uint64_t index;
    std::vector<core::query_id> ids;
    std::uint64_t word;
  };
  std::vector<verdict> seen;
  auto built = pipeline::make()
                   .from_query(query::riotbench::qs0())
                   .add_raw_filter(second_expr())
                   .backend(backend_kind::chunked)
                   .on_verdict([&](std::size_t shard, std::uint64_t index,
                                   std::span<const core::query_id> ids,
                                   std::span<const std::uint64_t> words) {
                     EXPECT_EQ(shard, 0u);
                     ASSERT_EQ(words.size(), 1u);
                     seen.push_back(
                         {index, {ids.begin(), ids.end()}, words[0]});
                   })
                   .build();
  ASSERT_TRUE(built.has_value()) << built.error().message;
  ASSERT_TRUE(built->offer(telemetry()).has_value());
  auto result = built->finish();
  ASSERT_TRUE(result.has_value()) << result.error().message;

  const std::vector<bool> col0 = standalone(primary_expr(), telemetry());
  const std::vector<bool> col1 = standalone(second_expr(), telemetry());
  ASSERT_EQ(seen.size(), col0.size());
  for (std::size_t r = 0; r < seen.size(); ++r) {
    EXPECT_EQ(seen[r].index, r);
    EXPECT_EQ(seen[r].ids, (std::vector<core::query_id>{1, 2}));
    EXPECT_EQ((seen[r].word >> 0) & 1u, col0[r] ? 1u : 0u) << "record " << r;
    EXPECT_EQ((seen[r].word >> 1) & 1u, col1[r] ? 1u : 0u) << "record " << r;
  }
}

// ---------------------------------------------------------------------------
// Runtime add/remove mid-stream (the epoch swap).

TEST(ApiQuerySet, RuntimeAddMidStreamOnChunkedBackend) {
  const std::string& stream = telemetry();
  const std::vector<bool> col_a = standalone(primary_expr(), stream);
  const std::vector<bool> col_b = standalone(second_expr(), stream);
  constexpr std::size_t kSwapRecord = 100;
  const std::size_t cut = record_boundary(stream, kSwapRecord);

  auto built = pipeline::make()
                   .from_query(query::riotbench::qs0())
                   .backend(backend_kind::chunked)
                   .build();
  ASSERT_TRUE(built.has_value()) << built.error().message;

  std::vector<std::uint64_t> sink_indices;
  std::vector<bool> sink_decisions;
  ASSERT_TRUE(built->offer(std::string_view(stream).substr(0, cut))
                  .has_value());
  auto added = built->add_query(
      second_expr(), [&](std::size_t shard, std::uint64_t index,
                         bool accepted) {
        EXPECT_EQ(shard, 0u);
        sink_indices.push_back(index);
        sink_decisions.push_back(accepted);
      });
  ASSERT_TRUE(added.has_value()) << added.error().message;
  EXPECT_EQ(built->query_ids(),
            (std::vector<core::query_id>{1, *added}));
  ASSERT_TRUE(built->offer(std::string_view(stream).substr(cut))
                  .has_value());
  auto result = built->finish();
  ASSERT_TRUE(result.has_value()) << result.error().message;

  // The primary decision stream is unbroken across the swap; the added
  // query's column starts exactly at the swap record.
  ASSERT_EQ(result->verdicts.shards(), 1u);
  const auto a = result->verdicts.column(0, 1);
  const auto b = result->verdicts.column(0, *added);
  ASSERT_TRUE(a.has_value());
  ASSERT_TRUE(b.has_value());
  EXPECT_EQ(a->first_record, 0u);
  EXPECT_EQ(a->decisions, col_a);
  EXPECT_EQ(b->first_record, kSwapRecord);
  EXPECT_EQ(b->decisions, slice(col_b, kSwapRecord));

  // The per-query sink saw the added query's records and no others.
  ASSERT_EQ(sink_indices.size(), col_b.size() - kSwapRecord);
  for (std::size_t k = 0; k < sink_indices.size(); ++k) {
    EXPECT_EQ(sink_indices[k], kSwapRecord + k);
    EXPECT_EQ(sink_decisions[k], col_b[kSwapRecord + k]) << "record " << k;
  }
}

TEST(ApiQuerySet, RuntimeAddInsideARecordReplaysTheCarry) {
  // The swap lands mid-record: the in-flight bytes must survive the plan
  // swap, and the straddling record decides under the NEW epoch with its
  // full content.
  const std::string& stream = telemetry();
  const std::vector<bool> col_a = standalone(primary_expr(), stream);
  const std::vector<bool> col_b = standalone(second_expr(), stream);
  constexpr std::size_t kSwapRecord = 60;
  const std::size_t boundary = record_boundary(stream, kSwapRecord);
  const std::size_t next = record_boundary(stream, kSwapRecord + 1);
  const std::size_t cut = boundary + (next - boundary) / 2;  // mid-record
  ASSERT_GT(cut, boundary);
  ASSERT_LT(cut, next - 1);

  auto built = pipeline::make()
                   .from_query(query::riotbench::qs0())
                   .backend(backend_kind::chunked)
                   .build();
  ASSERT_TRUE(built.has_value()) << built.error().message;
  ASSERT_TRUE(built->offer(std::string_view(stream).substr(0, cut))
                  .has_value());
  auto added = built->add_query(second_expr());
  ASSERT_TRUE(added.has_value()) << added.error().message;
  ASSERT_TRUE(built->offer(std::string_view(stream).substr(cut))
                  .has_value());
  auto result = built->finish();
  ASSERT_TRUE(result.has_value()) << result.error().message;

  const auto a = result->verdicts.column(0, 1);
  const auto b = result->verdicts.column(0, *added);
  ASSERT_TRUE(a.has_value());
  ASSERT_TRUE(b.has_value());
  EXPECT_EQ(a->decisions, col_a);
  // Only kSwapRecord records were complete at the swap; the straddler
  // belongs to the new epoch.
  EXPECT_EQ(b->first_record, kSwapRecord);
  EXPECT_EQ(b->decisions, slice(col_b, kSwapRecord));
}

TEST(ApiQuerySet, RuntimeRemoveMidStreamEndsTheColumn) {
  const std::string& stream = telemetry();
  const std::vector<bool> col_a = standalone(primary_expr(), stream);
  const std::vector<bool> col_b = standalone(second_expr(), stream);
  constexpr std::size_t kRemoveRecord = 150;
  const std::size_t cut = record_boundary(stream, kRemoveRecord);

  auto built = pipeline::make()
                   .from_query(query::riotbench::qs0())
                   .add_raw_filter(second_expr())
                   .backend(backend_kind::chunked)
                   .build();
  ASSERT_TRUE(built.has_value()) << built.error().message;
  ASSERT_TRUE(built->offer(std::string_view(stream).substr(0, cut))
                  .has_value());
  auto removed = built->remove_query(2);
  ASSERT_TRUE(removed.has_value()) << removed.error().message;
  EXPECT_EQ(built->query_ids(), (std::vector<core::query_id>{1}));
  ASSERT_TRUE(built->offer(std::string_view(stream).substr(cut))
                  .has_value());
  auto result = built->finish();
  ASSERT_TRUE(result.has_value()) << result.error().message;

  EXPECT_EQ(result->query_ids, (std::vector<core::query_id>{1}));
  const auto a = result->verdicts.column(0, 1);
  const auto b = result->verdicts.column(0, 2);
  ASSERT_TRUE(a.has_value());
  ASSERT_TRUE(b.has_value());
  EXPECT_EQ(a->decisions, col_a);
  EXPECT_EQ(b->first_record, 0u);
  ASSERT_EQ(b->decisions.size(), kRemoveRecord);
  EXPECT_EQ(b->decisions, std::vector<bool>(col_b.begin(),
                                            col_b.begin() + kRemoveRecord));

  // Any-match: OR of both queries while b was resident, a alone after.
  ASSERT_EQ(result->decisions.size(), col_a.size());
  for (std::size_t r = 0; r < result->decisions.size(); ++r)
    EXPECT_EQ(result->decisions[r],
              r < kRemoveRecord ? (col_a[r] || col_b[r]) : col_a[r])
        << "record " << r;
}

TEST(ApiQuerySet, QueryResidentWithoutRecordsHasEmptyColumn) {
  // A query whose residency decides no record still has a column: empty,
  // starting at the records decided before it became resident. Two ways
  // to get there: an add right before finish(), and an add/remove pair
  // with no record between them.
  const std::string& stream = telemetry();
  constexpr std::size_t kSwapRecord = 2;
  const std::size_t cut = record_boundary(stream, kSwapRecord);
  const char* const temperature = R"((0.7 <= "temperature" <= 35.1))";

  auto added_last = pipeline::make()
                        .from_query(query::riotbench::qs0())
                        .add_raw_filter(second_expr())
                        .backend(backend_kind::chunked)
                        .build();
  ASSERT_TRUE(added_last.has_value()) << added_last.error().message;
  ASSERT_TRUE(added_last->offer(std::string_view(stream).substr(0, cut))
                  .has_value());
  auto third = added_last->add_query(temperature);
  ASSERT_TRUE(third.has_value()) << third.error().message;
  auto result = added_last->finish();
  ASSERT_TRUE(result.has_value()) << result.error().message;
  EXPECT_EQ(result->query_ids, (std::vector<core::query_id>{1, 2, *third}));
  for (const core::query_id id : result->query_ids)
    EXPECT_TRUE(result->verdicts.column(0, id).has_value()) << "query " << id;
  auto column = result->verdicts.column(0, *third);
  ASSERT_TRUE(column.has_value());
  EXPECT_EQ(column->first_record, kSwapRecord);
  EXPECT_TRUE(column->decisions.empty());

  auto add_remove = pipeline::make()
                        .from_query(query::riotbench::qs0())
                        .backend(backend_kind::chunked)
                        .build();
  ASSERT_TRUE(add_remove.has_value()) << add_remove.error().message;
  ASSERT_TRUE(add_remove->offer(std::string_view(stream).substr(0, cut))
                  .has_value());
  auto transient = add_remove->add_query(second_expr());
  ASSERT_TRUE(transient.has_value()) << transient.error().message;
  ASSERT_TRUE(add_remove->remove_query(*transient).has_value());
  ASSERT_TRUE(add_remove->offer(std::string_view(stream).substr(cut))
                  .has_value());
  result = add_remove->finish();
  ASSERT_TRUE(result.has_value()) << result.error().message;
  column = result->verdicts.column(0, *transient);
  ASSERT_TRUE(column.has_value());
  EXPECT_EQ(column->first_record, kSwapRecord);
  EXPECT_TRUE(column->decisions.empty());
  const auto primary = result->verdicts.column(0, 1);
  ASSERT_TRUE(primary.has_value());
  EXPECT_EQ(primary->decisions, standalone(primary_expr(), stream));
}

TEST(ApiQuerySet, RuntimeMutationOnSystemBackend) {
  // The system backend (replicated lanes, records dealt round-robin) also
  // supports the swap; the any-match stream must stay consistent with the
  // residency intervals.
  const std::string& stream = telemetry();
  const std::vector<bool> col_a = standalone(primary_expr(), stream);
  const std::vector<bool> col_b = standalone(second_expr(), stream);
  constexpr std::size_t kSwapRecord = 80;
  const std::size_t cut = record_boundary(stream, kSwapRecord);

  auto built = pipeline::make()
                   .from_query(query::riotbench::qs0())
                   .backend(backend_kind::system)
                   .lanes(3)
                   .build();
  ASSERT_TRUE(built.has_value()) << built.error().message;
  ASSERT_TRUE(built->offer(std::string_view(stream).substr(0, cut))
                  .has_value());
  auto added = built->add_query(second_expr());
  ASSERT_TRUE(added.has_value()) << added.error().message;
  ASSERT_TRUE(built->offer(std::string_view(stream).substr(cut))
                  .has_value());
  auto result = built->finish();
  ASSERT_TRUE(result.has_value()) << result.error().message;

  const auto a = result->verdicts.column(0, 1);
  const auto b = result->verdicts.column(0, *added);
  ASSERT_TRUE(a.has_value());
  ASSERT_TRUE(b.has_value());
  EXPECT_EQ(a->decisions, col_a);
  EXPECT_EQ(b->first_record, kSwapRecord);
  EXPECT_EQ(b->decisions, slice(col_b, kSwapRecord));

  // The Figure-4 report deals record sizes across the swap: it equals the
  // modelled system at the same lane count over the same stream.
  system::system_options so;
  so.lanes = 3;
  system::filter_system reference(primary_expr(), so);
  const system::throughput_report expected = reference.run(stream);
  EXPECT_EQ(result->report.bytes, expected.bytes);
  EXPECT_EQ(result->report.records, expected.records);
  EXPECT_EQ(result->report.cycles, expected.cycles);
  EXPECT_EQ(result->report.stall_cycles, expected.stall_cycles);
}

TEST(ApiQuerySet, ShardedWorkersWithConcurrentProducers) {
  // The TSan target: two producer threads stream their shards while the
  // main thread adds a query at a barrier between the two halves. Timing
  // of the per-shard swap is nondeterministic relative to lane drains, so
  // the assertions are slice-based: every column must equal the standalone
  // run over [first_record, end) of ITS shard, and the added query must
  // cover at least the second half on every shard.
  data::smartcity_generator gen_a(0xA11CE), gen_b(0xB0B);
  const std::vector<std::string> shards{gen_a.stream(160), gen_b.stream(160)};
  const std::size_t half_records = 80;

  auto built = pipeline::make()
                   .from_query(query::riotbench::qs0())
                   .backend(backend_kind::sharded)
                   .shards(2)
                   .worker_threads(2)
                   .build();
  ASSERT_TRUE(built.has_value()) << built.error().message;

  std::barrier gate(3);
  std::atomic<core::query_id> added_id{0};
  std::atomic<bool> offer_failed{false};
  std::vector<std::thread> producers;
  for (std::size_t s = 0; s < shards.size(); ++s)
    producers.emplace_back([&, s] {
      // No gtest assertions off the main thread: failures set a flag.
      const std::string_view stream = shards[s];
      const std::size_t cut = record_boundary(stream, half_records);
      std::string_view first = stream.substr(0, cut);
      while (!first.empty()) {
        const std::size_t step = std::min<std::size_t>(97, first.size());
        if (!built->offer(s, first.substr(0, step)).has_value()) {
          offer_failed.store(true);
          break;
        }
        first.remove_prefix(step);
      }
      gate.arrive_and_wait();  // half offered on every shard
      gate.arrive_and_wait();  // main thread swapped the epoch
      std::string_view rest = stream.substr(cut);
      while (!rest.empty()) {
        const std::size_t step = std::min<std::size_t>(61, rest.size());
        if (!built->offer(s, rest.substr(0, step)).has_value()) {
          offer_failed.store(true);
          break;
        }
        rest.remove_prefix(step);
      }
    });

  gate.arrive_and_wait();
  auto added = built->add_query(second_expr());
  ASSERT_TRUE(added.has_value()) << added.error().message;
  added_id.store(*added);
  gate.arrive_and_wait();
  for (auto& t : producers) t.join();
  ASSERT_FALSE(offer_failed.load()) << "a producer offer() errored";
  auto result = built->finish();
  ASSERT_TRUE(result.has_value()) << result.error().message;

  ASSERT_EQ(result->verdicts.shards(), shards.size());
  for (std::size_t s = 0; s < shards.size(); ++s) {
    const std::vector<bool> col_a = standalone(primary_expr(), shards[s]);
    const std::vector<bool> col_b = standalone(second_expr(), shards[s]);
    const auto a = result->verdicts.column(s, 1);
    const auto b = result->verdicts.column(s, added_id.load());
    ASSERT_TRUE(a.has_value()) << "shard " << s;
    ASSERT_TRUE(b.has_value()) << "shard " << s;
    EXPECT_EQ(a->first_record, 0u);
    EXPECT_EQ(a->decisions, col_a) << "shard " << s;
    // The swap happened after `half_records` complete records were
    // offered and before any of the second half: the column starts
    // somewhere in [0, half_records] and runs to the end of the stream.
    EXPECT_LE(b->first_record, half_records) << "shard " << s;
    EXPECT_EQ(b->first_record + b->decisions.size(), col_b.size())
        << "shard " << s;
    EXPECT_EQ(b->decisions, slice(col_b, b->first_record)) << "shard " << s;
  }
}

TEST(ApiQuerySet, ShardedLanesDecideAcrossPublishedPlanVersions) {
  // The plan-version handoff (the TSan / ASan target): producers keep
  // offering and pumping - so pool workers decide on whatever plan version
  // their lane holds - while the main thread publishes a run of adds and
  // removes. The shared version is the only state that crosses threads;
  // every column must still equal the standalone run over its residency
  // span of its shard.
  data::smartcity_generator gen_a(0x5EED), gen_b(0xFEED);
  const std::vector<std::string> shards{gen_a.stream(240), gen_b.stream(240)};
  const std::vector<core::expr_ptr> churn{
      second_expr(),
      query::compile_default(query::riotbench::q0()),
      core::conj({primary_expr(), second_expr()}),
      query::compile_default(query::riotbench::qs0(), 2)};

  auto built = pipeline::make()
                   .from_query(query::riotbench::qs0())
                   .backend(backend_kind::sharded)
                   .shards(shards.size())
                   .worker_threads(2)
                   .build();
  ASSERT_TRUE(built.has_value()) << built.error().message;

  std::atomic<std::size_t> started{0};
  std::atomic<bool> failed{false};
  std::vector<std::thread> producers;
  for (std::size_t s = 0; s < shards.size(); ++s)
    producers.emplace_back([&, s] {
      std::string_view rest = shards[s];
      bool announced = false;
      while (!rest.empty()) {
        const auto taken = built->try_offer(s, rest.substr(0, 71));
        if (!taken.has_value() || !built->pump().has_value()) {
          failed.store(true);
          return;
        }
        rest.remove_prefix(*taken);
        if (!announced && rest.size() < shards[s].size() / 2) {
          announced = true;
          started.fetch_add(1);
        }
      }
    });

  // Mutate while both shards are mid-stream.
  while (started.load() < shards.size() && !failed.load())
    std::this_thread::yield();
  std::map<core::query_id, core::expr_ptr> added;
  std::vector<core::query_id> resident;
  for (std::size_t k = 0; k < 2 * churn.size(); ++k) {
    if (k % 3 == 2 && !resident.empty()) {
      ASSERT_TRUE(built->remove_query(resident.front()).has_value());
      resident.erase(resident.begin());
      continue;
    }
    auto id = built->add_query(churn[k % churn.size()]);
    ASSERT_TRUE(id.has_value()) << id.error().message;
    added[*id] = churn[k % churn.size()];
    resident.push_back(*id);
  }
  for (auto& t : producers) t.join();
  ASSERT_FALSE(failed.load()) << "a producer try_offer()/pump() errored";
  auto result = built->finish();
  ASSERT_TRUE(result.has_value()) << result.error().message;

  for (std::size_t s = 0; s < shards.size(); ++s) {
    const auto a = result->verdicts.column(s, 1);
    ASSERT_TRUE(a.has_value());
    EXPECT_EQ(a->decisions, standalone(primary_expr(), shards[s]));
    for (const auto& [id, expr] : added) {
      const auto col = result->verdicts.column(s, id);
      ASSERT_TRUE(col.has_value()) << "shard " << s << " id " << id;
      const std::vector<bool> whole = standalone(expr, shards[s]);
      ASSERT_LE(col->first_record + col->decisions.size(), whole.size());
      const auto from =
          whole.begin() + static_cast<std::ptrdiff_t>(col->first_record);
      EXPECT_EQ(col->decisions,
                std::vector<bool>(from, from + static_cast<std::ptrdiff_t>(
                                                   col->decisions.size())))
          << "shard " << s << " id " << id;
    }
  }
}

TEST(ApiQuerySet, VerdictColumnsMatchVerdictWords) {
  // Pins the verdict matrix to the delivery path: every column equals the
  // bits the on_verdict sink delivered for that query on that shard. The
  // build-time set has one query, so its first epoch stores no words and
  // reads its column from the any-match history.
  data::smartcity_generator gen_a(0xA11CE), gen_b(0xB0B);
  const std::vector<std::string> shards{gen_a.stream(200), gen_b.stream(200)};
  struct delivered {
    std::uint64_t first = 0;
    std::vector<bool> bits;
  };
  // One map per shard: query id -> the rows the sink saw for it.
  std::vector<std::map<core::query_id, delivered>> seen(shards.size());
  std::vector<std::uint64_t> rows(shards.size(), 0);
  auto built =
      pipeline::make()
          .from_query(query::riotbench::qs0())
          .backend(backend_kind::sharded)
          .shards(shards.size())
          .on_verdict([&](std::size_t shard, std::uint64_t index,
                          std::span<const core::query_id> ids,
                          std::span<const std::uint64_t> words) {
            EXPECT_EQ(index, rows[shard]++) << "shard " << shard;
            for (std::size_t qi = 0; qi < ids.size(); ++qi) {
              const auto [it, fresh] = seen[shard].try_emplace(ids[qi]);
              if (fresh) it->second.first = index;
              EXPECT_EQ(it->second.first + it->second.bits.size(), index)
                  << "query " << ids[qi] << " skipped a row";
              const std::uint64_t bit = (words[qi / 64] >> (qi % 64)) & 1u;
              it->second.bits.push_back(bit != 0);
            }
          })
          .build();
  ASSERT_TRUE(built.has_value()) << built.error().message;

  // Offer every shard's stream in four quarters; the set changes between
  // them: add, add, then remove the first added query.
  const auto offer_quarter = [&](std::size_t q) {
    for (std::size_t s = 0; s < shards.size(); ++s) {
      const std::size_t from = record_boundary(shards[s], q * 50);
      const std::size_t to = record_boundary(shards[s], (q + 1) * 50);
      ASSERT_TRUE(
          built->offer(s, std::string_view(shards[s]).substr(from, to - from))
              .has_value());
    }
  };
  offer_quarter(0);
  auto first_added = built->add_query(second_expr());
  ASSERT_TRUE(first_added.has_value()) << first_added.error().message;
  offer_quarter(1);
  auto second_added = built->add_query(R"((0.7 <= "temperature" <= 35.1))");
  ASSERT_TRUE(second_added.has_value()) << second_added.error().message;
  offer_quarter(2);
  ASSERT_TRUE(built->remove_query(*first_added).has_value());
  offer_quarter(3);
  auto result = built->finish();
  ASSERT_TRUE(result.has_value()) << result.error().message;

  ASSERT_EQ(result->verdicts.shards(), shards.size());
  for (std::size_t s = 0; s < shards.size(); ++s) {
    EXPECT_EQ(rows[s], 200u) << "shard " << s;
    EXPECT_EQ(seen[s].size(), 3u) << "shard " << s;
    for (const auto& [id, sink] : seen[s]) {
      const auto column = result->verdicts.column(s, id);
      ASSERT_TRUE(column.has_value()) << "shard " << s << " query " << id;
      EXPECT_EQ(column->first_record, sink.first)
          << "shard " << s << " query " << id;
      EXPECT_EQ(column->decisions, sink.bits)
          << "shard " << s << " query " << id;
    }
  }
}

// ---------------------------------------------------------------------------
// Runtime sinks and error paths.

TEST(ApiQuerySet, AttachQuerySinkMidStream) {
  const std::string& stream = telemetry();
  const std::vector<bool> col_a = standalone(primary_expr(), stream);
  constexpr std::size_t kAttachRecord = 120;
  const std::size_t cut = record_boundary(stream, kAttachRecord);

  auto built = pipeline::make()
                   .from_query(query::riotbench::qs0())
                   .backend(backend_kind::chunked)
                   .build();
  ASSERT_TRUE(built.has_value()) << built.error().message;
  ASSERT_TRUE(built->offer(std::string_view(stream).substr(0, cut))
                  .has_value());
  std::vector<std::uint64_t> indices;
  auto attached = built->on_query_decision(
      1, [&](std::size_t, std::uint64_t index, bool accepted) {
        indices.push_back(index);
        EXPECT_EQ(accepted, col_a[index]) << "record " << index;
      });
  ASSERT_TRUE(attached.has_value()) << attached.error().message;
  ASSERT_TRUE(built->offer(std::string_view(stream).substr(cut))
                  .has_value());
  ASSERT_TRUE(built->finish().has_value());

  ASSERT_EQ(indices.size(), col_a.size() - kAttachRecord);
  EXPECT_EQ(indices.front(), kAttachRecord);
  EXPECT_EQ(indices.back(), col_a.size() - 1);
}

TEST(ApiQuerySet, AttachQuerySinkWorksOnScalarBackend) {
  // Sink attachment is registry-only (no engine swap), so even the scalar
  // backend - which rejects add/remove - supports it.
  auto built = pipeline::make()
                   .from_query(query::riotbench::qs0())
                   .backend(backend_kind::scalar)
                   .build();
  ASSERT_TRUE(built.has_value()) << built.error().message;
  std::vector<bool> seen;
  ASSERT_TRUE(built
                  ->on_query_decision(
                      1, [&](std::size_t, std::uint64_t, bool accepted) {
                        seen.push_back(accepted);
                      })
                  .has_value());
  ASSERT_TRUE(built->offer(telemetry()).has_value());
  ASSERT_TRUE(built->finish().has_value());
  EXPECT_EQ(seen, standalone(primary_expr(), telemetry()));
}

TEST(ApiQuerySet, QuerySinkSurvivesAnOrdinalShift) {
  // Removing an earlier query shifts every later query's dense ordinal
  // (its bitmap bit). A per-query sink is keyed by id, so it must keep
  // receiving its own query's verdicts across the shift.
  const std::string& stream = telemetry();
  const char* const temperature = R"((0.7 <= "temperature" <= 35.1))";
  const std::vector<bool> col_b = standalone(second_expr(), stream);
  constexpr std::size_t kRemoveRecord = 90;
  const std::size_t cut = record_boundary(stream, kRemoveRecord);

  for (const backend_kind kind :
       {backend_kind::chunked, backend_kind::system}) {
    auto built = pipeline::make()
                     .from_query(query::riotbench::qs0())
                     .add_filter_expression(temperature)
                     .add_raw_filter(second_expr())
                     .backend(kind)
                     .build();
    ASSERT_TRUE(built.has_value()) << built.error().message;
    ASSERT_EQ(built->query_ids(), (std::vector<core::query_id>{1, 2, 3}));
    std::vector<bool> seen;
    std::vector<std::uint64_t> indices;
    ASSERT_TRUE(built
                    ->on_query_decision(3, [&](std::size_t, std::uint64_t index,
                                               bool accepted) {
                      indices.push_back(index);
                      seen.push_back(accepted);
                    })
                    .has_value());
    ASSERT_TRUE(built->offer(std::string_view(stream).substr(0, cut))
                    .has_value());
    ASSERT_TRUE(built->remove_query(2).has_value());  // 3: ordinal 2 -> 1
    ASSERT_TRUE(built->offer(std::string_view(stream).substr(cut))
                    .has_value());
    ASSERT_TRUE(built->finish().has_value());

    EXPECT_EQ(seen, col_b) << to_string(kind);
    ASSERT_EQ(indices.size(), col_b.size());
    for (std::size_t i = 0; i < indices.size(); ++i)
      ASSERT_EQ(indices[i], i) << to_string(kind);
  }
}

TEST(ApiQuerySet, QuerySinksReplaceAndDetachById) {
  // Sinks attached out of ordinal order, one replaced and one detached
  // (an empty sink) mid-stream: each receives exactly its own query's
  // verdicts for the records decided while it was attached.
  const std::string& stream = telemetry();
  const std::vector<bool> col_a = standalone(primary_expr(), stream);
  const std::vector<bool> col_b = standalone(second_expr(), stream);
  const std::size_t first_cut = record_boundary(stream, 70);
  const std::size_t second_cut = record_boundary(stream, 140);
  auto built = pipeline::make()
                   .from_query(query::riotbench::qs0())
                   .add_filter_expression(R"((0.7 <= "temperature" <= 35.1))")
                   .add_raw_filter(second_expr())
                   .backend(backend_kind::chunked)
                   .build();
  ASSERT_TRUE(built.has_value()) << built.error().message;
  struct log {
    std::vector<std::uint64_t> indices;
    std::vector<bool> bits;
  };
  log first, third_before, third_after;
  const auto into = [](log& l) {
    return [&l](std::size_t, std::uint64_t index, bool accepted) {
      l.indices.push_back(index);
      l.bits.push_back(accepted);
    };
  };
  ASSERT_TRUE(built->on_query_decision(3, into(third_before)).has_value());
  ASSERT_TRUE(built->on_query_decision(1, into(first)).has_value());
  ASSERT_TRUE(built->offer(std::string_view(stream).substr(0, first_cut))
                  .has_value());
  ASSERT_TRUE(built->on_query_decision(3, into(third_after)).has_value());
  ASSERT_TRUE(built
                  ->offer(std::string_view(stream).substr(
                      first_cut, second_cut - first_cut))
                  .has_value());
  ASSERT_TRUE(built->on_query_decision(1, {}).has_value());
  ASSERT_TRUE(built->offer(std::string_view(stream).substr(second_cut))
                  .has_value());
  ASSERT_TRUE(built->finish().has_value());

  const auto expect_span = [](const log& l, const std::vector<bool>& column,
                              std::size_t from, std::size_t to) {
    ASSERT_EQ(l.indices.size(), to - from);
    for (std::size_t i = 0; i < l.indices.size(); ++i) {
      ASSERT_EQ(l.indices[i], from + i);
      ASSERT_EQ(l.bits[i], column[from + i]) << "record " << from + i;
    }
  };
  expect_span(first, col_a, 0, 140);
  expect_span(third_before, col_b, 0, 70);
  expect_span(third_after, col_b, 70, col_b.size());
}

TEST(ApiQuerySet, LiveStatsMatchDeliveredDecisions) {
  // stats() on a single-stream pipeline is a live view of the same
  // counters finish() reports: after every offer it equals what the sink
  // has seen, across a runtime add, and the final result agrees.
  const std::string& stream = telemetry();
  const std::size_t cut = record_boundary(stream, 100) + 17;  // mid-record
  for (const backend_kind kind :
       {backend_kind::chunked, backend_kind::system}) {
    std::uint64_t records = 0;
    std::uint64_t accepted = 0;
    auto built = pipeline::make()
                     .from_query(query::riotbench::qs0())
                     .backend(kind)
                     .on_decision([&](std::size_t, std::uint64_t, bool a) {
                       ++records;
                       accepted += a ? 1 : 0;
                     })
                     .build();
    ASSERT_TRUE(built.has_value()) << built.error().message;
    const auto expect_live = [&](const char* when) {
      auto stats = built->stats();
      ASSERT_TRUE(stats.has_value()) << stats.error().message;
      ASSERT_EQ(stats->size(), 1u);
      EXPECT_EQ(stats->front().records, records) << to_string(kind) << when;
      EXPECT_EQ(stats->front().accepted, accepted) << to_string(kind) << when;
    };
    std::string_view rest = stream;
    bool added = false;
    while (!rest.empty()) {
      const std::size_t n = std::min<std::size_t>(997, rest.size());
      ASSERT_TRUE(built->offer(rest.substr(0, n)).has_value());
      rest.remove_prefix(n);
      expect_live(" after offer");
      if (!added && stream.size() - rest.size() >= cut) {
        ASSERT_TRUE(built->add_query(second_expr()).has_value());
        expect_live(" after add");
        added = true;
      }
    }
    auto result = built->finish();
    ASSERT_TRUE(result.has_value()) << result.error().message;
    EXPECT_EQ(result->records(), records) << to_string(kind);
    EXPECT_EQ(result->accepted(), accepted) << to_string(kind);
    EXPECT_EQ(result->shards.front().records, records) << to_string(kind);
    EXPECT_EQ(result->shards.front().accepted, accepted) << to_string(kind);
    EXPECT_GT(accepted, 0u);
  }
}

TEST(ApiQuerySet, ProjectedRowsNumberOnAcrossRuntimeSwaps) {
  // A runtime add/remove swaps each lane's plan in place, so the record
  // ordinals that number projected rows run on across the swap. Adding
  // and then removing a copy of the resident query leaves the any-match
  // verdicts - and so every projected row, index and columns - exactly as
  // the same stream projects without the swaps. A query that widens the
  // verdict still projects exactly the accepted records.
  const std::string& stream = telemetry();
  for (const backend_kind kind : {backend_kind::chunked, backend_kind::sharded}) {
    const auto project_run = [&](const core::expr_ptr& rider) {
      auto built = pipeline::make()
                       .from_query(query::riotbench::qs0())
                       .project()
                       .projection_batch_rows(16)
                       .backend(kind)
                       .build();
      EXPECT_TRUE(built.has_value()) << (built ? "" : built.error().message);
      if (!built) return run_result{};
      std::optional<core::query_id> id;
      std::string_view rest = stream;
      while (!rest.empty()) {
        const std::size_t n = std::min<std::size_t>(997, rest.size());
        EXPECT_TRUE(built->offer(rest.substr(0, n)).has_value());
        rest.remove_prefix(n);
        const std::size_t done = stream.size() - rest.size();
        if (rider && !id && done >= stream.size() / 3) {
          auto added = built->add_query(rider);
          EXPECT_TRUE(added.has_value());
          if (added) id = *added;
        } else if (id && done >= 2 * stream.size() / 3) {
          EXPECT_TRUE(built->remove_query(*id).has_value());
          id.reset();
          break;
        }
      }
      while (!rest.empty()) {
        const std::size_t n = std::min<std::size_t>(997, rest.size());
        EXPECT_TRUE(built->offer(rest.substr(0, n)).has_value());
        rest.remove_prefix(n);
      }
      auto result = built->finish();
      EXPECT_TRUE(result.has_value()) << (result ? "" : result.error().message);
      return result ? std::move(*result) : run_result{};
    };
    const auto rows = [](const run_result& r) {
      std::vector<std::uint64_t> out;
      for (const project::column_batch& b : r.projection)
        out.insert(out.end(), b.records.begin(), b.records.end());
      return out;
    };
    const auto accepted = [](const run_result& r) {
      std::vector<std::uint64_t> out;
      for (std::size_t i = 0; i < r.decisions.size(); ++i)
        if (r.decisions[i]) out.push_back(i);
      return out;
    };
    const run_result plain = project_run(nullptr);
    const run_result swapped = project_run(primary_expr());
    ASSERT_GT(plain.projection.size(), 2u) << to_string(kind);
    EXPECT_EQ(rows(plain), accepted(plain)) << to_string(kind);
    EXPECT_EQ(swapped.decisions, plain.decisions) << to_string(kind);
    ASSERT_EQ(swapped.projection.size(), plain.projection.size());
    for (std::size_t b = 0; b < plain.projection.size(); ++b) {
      const project::column_batch& want = plain.projection[b];
      const project::column_batch& got = swapped.projection[b];
      EXPECT_EQ(got.records, want.records) << to_string(kind) << " batch " << b;
      ASSERT_EQ(got.columns.size(), want.columns.size());
      for (std::size_t c = 0; c < want.columns.size(); ++c) {
        EXPECT_EQ(got.columns[c].types, want.columns[c].types);
        EXPECT_EQ(got.columns[c].text, want.columns[c].text);
      }
    }
    const run_result widened = project_run(second_expr());
    EXPECT_NE(widened.decisions, plain.decisions) << to_string(kind);
    EXPECT_EQ(rows(widened), accepted(widened)) << to_string(kind);
  }
}

TEST(ApiQuerySet, MutationErrorPaths) {
  // Scalar backend: no plan swap, so add/remove are diagnosed up front.
  auto scalar = pipeline::make()
                    .from_query(query::riotbench::qs0())
                    .backend(backend_kind::scalar)
                    .build();
  ASSERT_TRUE(scalar.has_value()) << scalar.error().message;
  EXPECT_FALSE(scalar->add_query(second_expr()).has_value());

  auto sharded_scalar = pipeline::make()
                            .from_query(query::riotbench::qs0())
                            .backend(backend_kind::sharded)
                            .engine(core::engine_kind::scalar)
                            .build();
  ASSERT_TRUE(sharded_scalar.has_value()) << sharded_scalar.error().message;
  EXPECT_FALSE(sharded_scalar->add_query(second_expr()).has_value());

  // The system backend runs one engine of the configured kind, so the
  // scalar engine refuses add/remove there too.
  auto system_scalar = pipeline::make()
                           .from_query(query::riotbench::qs0())
                           .backend(backend_kind::system)
                           .engine(core::engine_kind::scalar)
                           .build();
  ASSERT_TRUE(system_scalar.has_value()) << system_scalar.error().message;
  EXPECT_FALSE(system_scalar->add_query(second_expr()).has_value());
  EXPECT_FALSE(system_scalar->remove_query(1).has_value());

  auto built = pipeline::make()
                   .from_query(query::riotbench::qs0())
                   .backend(backend_kind::chunked)
                   .build();
  ASSERT_TRUE(built.has_value()) << built.error().message;
  // Null expression, malformed text, unknown ids, and the last resident
  // query are all expected errors - never exceptions or aborts.
  EXPECT_FALSE(built->add_query(core::expr_ptr{}).has_value());
  EXPECT_FALSE(built->add_query("(((").has_value());
  EXPECT_FALSE(built->remove_query(99).has_value());
  EXPECT_FALSE(built->on_query_decision(99, nullptr).has_value());
  EXPECT_FALSE(built->remove_query(1).has_value())
      << "removing the last resident query must be refused";

  // A failed add leaves the pipeline fully usable.
  ASSERT_TRUE(built->offer(telemetry()).has_value());
  auto result = built->finish();
  ASSERT_TRUE(result.has_value()) << result.error().message;
  EXPECT_EQ(result->decisions, standalone(primary_expr(), telemetry()));
}

TEST(ApiQuerySet, FailedRuntimeAddRollsBack) {
  // A mid-stream add whose compile fails (an empty substring has no
  // engine) is rolled back: the half-registered query is dropped, and the
  // rest of the stream decides exactly as in a run without the add.
  const std::string& stream = telemetry();
  const std::size_t cut = record_boundary(stream, 100) + 7;  // mid-record
  const auto run = [&](bool failed_add) {
    auto built = pipeline::make()
                     .from_query(query::riotbench::qs0())
                     .add_raw_filter(second_expr())
                     .backend(backend_kind::chunked)
                     .build();
    EXPECT_TRUE(built.has_value()) << built.error().message;
    EXPECT_TRUE(built->offer(std::string_view(stream).substr(0, cut))
                    .has_value());
    if (failed_add) {
      EXPECT_FALSE(built->add_query(core::string_leaf("", 1)).has_value());
      EXPECT_EQ(built->query_ids(), (std::vector<core::query_id>{1, 2}));
    }
    EXPECT_TRUE(
        built->offer(std::string_view(stream).substr(cut)).has_value());
    auto result = built->finish();
    EXPECT_TRUE(result.has_value()) << result.error().message;
    return std::move(*result);
  };
  const run_result with = run(true);
  const run_result without = run(false);
  EXPECT_EQ(with.decisions, without.decisions);
  EXPECT_EQ(with.query_ids, without.query_ids);
  for (const core::query_id id : {core::query_id{1}, core::query_id{2}}) {
    const auto a = with.verdicts.column(0, id);
    const auto b = without.verdicts.column(0, id);
    ASSERT_TRUE(a.has_value() && b.has_value()) << id;
    EXPECT_EQ(a->first_record, b->first_record) << id;
    EXPECT_EQ(a->decisions, b->decisions) << id;
  }
}

TEST(ApiQuerySet, RuntimeJsonpathAndTextCompile) {
  auto built = pipeline::make()
                   .from_query(query::riotbench::qs0())
                   .backend(backend_kind::chunked)
                   .build();
  ASSERT_TRUE(built.has_value()) << built.error().message;
  auto by_text =
      built->add_query(R"((0.7 <= "temperature" <= 35.1))");
  ASSERT_TRUE(by_text.has_value()) << by_text.error().message;
  auto by_path = built->add_jsonpath(
      R"($.e[?(@.n=="temperature" & @.v >= 0.7 & @.v <= 35.1)])");
  ASSERT_TRUE(by_path.has_value()) << by_path.error().message;
  EXPECT_EQ(built->query_ids().size(), 3u);
  ASSERT_TRUE(built->offer(telemetry()).has_value());
  auto result = built->finish();
  ASSERT_TRUE(result.has_value()) << result.error().message;

  // Each runtime-compiled query's column equals a single-query pipeline
  // built from the same source text, starting at record 0 (nothing
  // streamed before the adds).
  const auto text_column = result->verdicts.column(0, *by_text);
  const auto path_column = result->verdicts.column(0, *by_path);
  ASSERT_TRUE(text_column.has_value());
  ASSERT_TRUE(path_column.has_value());
  EXPECT_EQ(text_column->first_record, 0u);
  EXPECT_EQ(path_column->first_record, 0u);

  auto text_alone = pipeline::make()
                        .filter_expression(R"((0.7 <= "temperature" <= 35.1))")
                        .backend(backend_kind::chunked)
                        .input(telemetry())
                        .build();
  ASSERT_TRUE(text_alone.has_value()) << text_alone.error().message;
  auto path_alone =
      pipeline::make()
          .jsonpath(R"($.e[?(@.n=="temperature" & @.v >= 0.7 & @.v <= 35.1)])")
          .backend(backend_kind::chunked)
          .input(telemetry())
          .build();
  ASSERT_TRUE(path_alone.has_value()) << path_alone.error().message;
  auto text_run = text_alone->run();
  auto path_run = path_alone->run();
  ASSERT_TRUE(text_run.has_value()) << text_run.error().message;
  ASSERT_TRUE(path_run.has_value()) << path_run.error().message;
  EXPECT_EQ(text_column->decisions, text_run->decisions);
  EXPECT_EQ(path_column->decisions, path_run->decisions);

  // The same JSONPath added at build time instead of at runtime.
  auto fleet =
      pipeline::make()
          .from_query(query::riotbench::qs0())
          .add_jsonpath(R"($.e[?(@.n=="temperature" & @.v >= 0.7 & @.v <= 35.1)])")
          .backend(backend_kind::chunked)
          .input(telemetry())
          .build();
  ASSERT_TRUE(fleet.has_value()) << fleet.error().message;
  ASSERT_EQ(fleet->query_ids().size(), 2u);
  auto fleet_run = fleet->run();
  ASSERT_TRUE(fleet_run.has_value()) << fleet_run.error().message;
  const auto built_path_column =
      fleet_run->verdicts.column(0, fleet->query_ids()[1]);
  ASSERT_TRUE(built_path_column.has_value());
  EXPECT_EQ(built_path_column->decisions, path_run->decisions);
}

TEST(ApiQuerySet, VerdictSegmentBlocksNeverMove) {
  // A long multi-query epoch stores its rows in blocks that are never
  // reallocated, each holding whole rows; column() reads them back in
  // record order across every block boundary.
  constexpr std::size_t kIds = 130;  // three words per row
  constexpr std::size_t wpr = (kIds + 63) / 64;
  constexpr std::size_t kRows = 12'000;
  std::vector<core::query_id> ids(kIds);
  for (std::size_t i = 0; i < kIds; ++i)
    ids[i] = static_cast<core::query_id>(i + 1);
  std::vector<std::uint64_t> words(kRows * wpr);
  std::uint64_t x = 0x9E3779B97F4A7C15ull;
  for (std::uint64_t& w : words) {
    x ^= x << 13;
    x ^= x >> 7;
    x ^= x << 17;
    w = x;
  }

  verdict_matrix::history h;
  h.any.assign(kRows, true);
  h.segments.push_back(
      {std::make_shared<const std::vector<core::query_id>>(ids), 0, kRows,
       {}});
  verdict_matrix::segment& seg = h.segments.back();
  std::vector<const std::uint64_t*> placed;
  std::size_t row = 0;
  for (const std::size_t batch : {1u, 7u, 500u, 3001u, 64u, 8427u}) {
    seg.append(std::span(words).subspan(row * wpr, batch * wpr), wpr);
    row += batch;
    for (std::size_t b = 0; b < placed.size(); ++b)
      EXPECT_EQ(seg.blocks[b].data(), placed[b]) << "block " << b << " moved";
    for (std::size_t b = placed.size(); b < seg.blocks.size(); ++b)
      placed.push_back(seg.blocks[b].data());
  }
  ASSERT_EQ(row, kRows);
  EXPECT_GT(seg.blocks.size(), 2u);
  std::size_t stored = 0;
  for (const std::vector<std::uint64_t>& block : seg.blocks) {
    EXPECT_EQ(block.size() % wpr, 0u);
    stored += block.size();
  }
  EXPECT_EQ(stored, words.size());

  const verdict_matrix matrix(std::vector<verdict_matrix::history>{h});
  for (const std::size_t qi : {std::size_t{0}, std::size_t{63},
                               std::size_t{64}, std::size_t{129}}) {
    const auto column = matrix.column(0, ids[qi]);
    ASSERT_TRUE(column.has_value()) << "query " << ids[qi];
    EXPECT_EQ(column->first_record, 0u);
    std::vector<bool> expected(kRows);
    for (std::size_t r = 0; r < kRows; ++r)
      expected[r] = ((words[r * wpr + qi / 64] >> (qi % 64)) & 1u) != 0;
    EXPECT_EQ(column->decisions, expected) << "query " << ids[qi];
  }
}
