// Facade smoke: one translation unit compiled against the umbrella header
// alone - no internal module includes. Proves an embedding application can
// drive the whole flow (query text -> compiled raw filter -> sharded
// concurrent execution -> decisions, and a two-query fleet's verdict
// matrix) through jrf::pipeline and jrf.hpp only. Runs in CI next to the
// examples.
#include <cstdio>
#include <optional>

#include "jrf.hpp"

int main() {
  using namespace jrf;

  // Two independent SenML feeds, filtered by the paper's Listing 2 query
  // on the concurrent sharded backend.
  data::smartcity_generator sensors;
  const std::string feed_a = sensors.stream(200);
  const std::string feed_b = sensors.stream(200);

  auto built =
      pipeline::make()
          .jsonpath(R"($.e[?(@.n=="temperature" & @.v >= 0.7 & @.v <= 35.1)])")
          .backend(backend_kind::sharded)
          .worker_threads(2)
          .input(feed_a)
          .input(feed_b)
          .build();
  if (!built) {
    std::fprintf(stderr, "build failed: %s\n", built.error().message.c_str());
    return 1;
  }

  auto result = built->run();
  if (!result) {
    std::fprintf(stderr, "run failed: %s\n", result.error().message.c_str());
    return 1;
  }
  std::printf("facade smoke: %s\n", result->to_string().c_str());

  // The error path must cross the boundary as a value, never a throw.
  auto bad = pipeline::make().filter_expression("(1 <= \"x\" <=").build();
  if (bad || !bad.error().offset) {
    std::fprintf(stderr, "expected a parse error with an offset\n");
    return 1;
  }
  std::printf("facade smoke: parse error surfaced at offset %zu as expected\n",
              *bad.error().offset);

  if (result->records() == 0 || result->shards.size() != 2) {
    std::fprintf(stderr, "unexpected result shape\n");
    return 1;
  }

  // The same feeds under a two-query fleet: the primary query's column on
  // shard 0, read from the verdict matrix, equals the single-query run.
  auto fleet =
      pipeline::make()
          .jsonpath(R"($.e[?(@.n=="temperature" & @.v >= 0.7 & @.v <= 35.1)])")
          .add_filter_expression(R"((20 <= "humidity" <= 60))")
          .backend(backend_kind::sharded)
          .worker_threads(2)
          .input(feed_a)
          .input(feed_b)
          .build();
  if (!fleet) {
    std::fprintf(stderr, "fleet build failed: %s\n",
                 fleet.error().message.c_str());
    return 1;
  }
  auto fleet_result = fleet->run();
  if (!fleet_result) {
    std::fprintf(stderr, "fleet run failed: %s\n",
                 fleet_result.error().message.c_str());
    return 1;
  }
  const std::optional<query_column> column =
      fleet_result->verdicts.column(0, fleet->query_ids().front());
  if (!column || column->first_record != 0 ||
      column->decisions != result->shard_decisions[0]) {
    std::fprintf(stderr, "fleet column differs from the single-query run\n");
    return 1;
  }
  std::printf("facade smoke: fleet column matches (%zu records)\n",
              column->decisions.size());
  return 0;
}
