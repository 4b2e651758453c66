// net::filter_service suite (tier-1).
//
// The socket front-end end to end, over Unix-domain sockets (no ports, no
// CI flakes; one TCP case covers the ephemeral-port path):
//
//   * decisions arriving over N concurrent connections are byte-identical
//     to a reference sharded run over the same per-shard streams,
//   * the verdict echo comes back in per-shard record order, matching the
//     engine's filter_stream verdicts bit for bit,
//   * a client dropping mid-record still gets every byte it sent before
//     the drop filtered (graceful drain: EOF ends the connection, finish()
//     flushes the trailing partial record - no lost records),
//   * the projection echo (echo_projection) sends one tab-separated line
//     of projected field values per ACCEPTED record, interleaved with the
//     verdict/bitmap echoes in per-record order, and a vanished client
//     never wedges the projection line queue,
//   * the periodic stats snapshot fires while producers stream.
//
// Clients connect sequentially and wait on connections_accepted() so the
// connection->shard mapping is deterministic (connection i -> shard i).
#include <gtest/gtest.h>
#include <unistd.h>

#include <atomic>
#include <chrono>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "api/pipeline.hpp"
#include "core/filter_engine.hpp"
#include "data/smartcity.hpp"
#include "data/stream.hpp"
#include "json/parser.hpp"
#include "json/value.hpp"
#include "net/service.hpp"
#include "net/socket.hpp"
#include "project/paths.hpp"
#include "query/compile.hpp"
#include "query/riotbench.hpp"
#include "system/sharded.hpp"

namespace {

using namespace jrf;

net::endpoint unique_unix_endpoint() {
  static std::atomic<int> counter{0};
  net::endpoint ep;
  ep.unix_path = "/tmp/jrf-net-test-" + std::to_string(::getpid()) + "-" +
                 std::to_string(counter.fetch_add(1)) + ".sock";
  return ep;
}

const std::string& telemetry() {
  static const std::string stream = [] {
    data::smartcity_generator city;
    return city.stream(300);
  }();
  return stream;
}

pipeline_builder sharded_builder(std::size_t shards, std::size_t workers) {
  auto builder = pipeline::make();
  builder.from_query(query::riotbench::qs1())
      .backend(backend_kind::sharded)
      .shards(shards)
      .worker_threads(workers);
  return builder;
}

/// Connect to `service` as its next connection and wait until the
/// acceptor registered it, pinning this client to the next shard.
net::socket_fd connect_and_wait(const net::filter_service& service,
                                std::uint64_t expected_count) {
  net::socket_fd fd = net::connect_to(service.where());
  while (service.connections_accepted() < expected_count)
    std::this_thread::yield();
  return fd;
}

}  // namespace

TEST(NetService, ConcurrentConnectionsMatchReferenceShardedRun) {
  const auto shards = data::shard_records(telemetry(), 3);
  net::service_options options;
  options.listen = unique_unix_endpoint();
  auto service =
      net::filter_service::open(sharded_builder(shards.size(), 2), options);
  ASSERT_TRUE(service.has_value()) << service.error().message;
  EXPECT_EQ(service->shard_count(), shards.size());

  // One client per shard, all streaming concurrently in ragged chunks.
  std::vector<net::socket_fd> clients;
  for (std::size_t c = 0; c < shards.size(); ++c)
    clients.push_back(connect_and_wait(*service, c + 1));
  std::vector<std::thread> senders;
  for (std::size_t c = 0; c < shards.size(); ++c)
    senders.emplace_back([&, c] {
      std::string_view rest = shards[c];
      while (!rest.empty()) {
        const std::size_t step = std::min<std::size_t>(97, rest.size());
        net::write_all(clients[c], rest.substr(0, step));
        rest.remove_prefix(step);
      }
      clients[c].shutdown_write();  // EOF: this shard drains
    });
  for (auto& t : senders) t.join();

  auto result = service->shutdown();
  ASSERT_TRUE(result.has_value()) << result.error().message;

  const core::expr_ptr rf = query::compile_default(query::riotbench::qs1());
  const std::vector<std::string_view> views{shards.begin(), shards.end()};
  system::sharded_filter_system reference(rf, views.size());
  reference.run(views);
  ASSERT_EQ(result->shard_decisions.size(), shards.size());
  for (std::size_t s = 0; s < shards.size(); ++s)
    EXPECT_EQ(result->shard_decisions[s], reference.decisions(s))
        << "shard " << s;

  // Shut-down service rejects a second shutdown with a diagnosis.
  EXPECT_FALSE(service->shutdown().has_value());
}

TEST(NetService, EchoedVerdictsArriveInRecordOrder) {
  net::service_options options;
  options.listen = unique_unix_endpoint();
  options.echo_decisions = true;
  auto service = net::filter_service::open(sharded_builder(1, 0), options);
  ASSERT_TRUE(service.has_value()) << service.error().message;

  net::socket_fd client = connect_and_wait(*service, 1);
  // Read the echo concurrently with the send: with a small kernel buffer
  // a blocked echo write must not deadlock against a blocked record send.
  std::string verdicts;
  std::thread reader([&] {
    char buffer[512];
    while (true) {
      const std::size_t n = net::read_some(client, buffer, sizeof buffer);
      if (n == 0) break;
      verdicts.append(buffer, n);
    }
  });
  net::write_all(client, telemetry());
  client.shutdown_write();
  auto result = service->shutdown();
  ASSERT_TRUE(result.has_value()) << result.error().message;
  reader.join();

  const core::expr_ptr rf = query::compile_default(query::riotbench::qs1());
  const auto reference = core::make_filter_engine(core::engine_kind::chunked,
                                                  rf)
                             ->filter_stream(telemetry());
  std::string expected;
  for (const bool accepted : reference) expected += accepted ? '1' : '0';
  EXPECT_EQ(verdicts, expected);
  EXPECT_EQ(result->records(), reference.size());
}

TEST(NetService, ClientDropMidRecordDrainsEverythingSent) {
  // Graceful drain on an abrupt disconnect: the client vanishes halfway
  // through a record; every byte that reached the service is still
  // filtered, the trailing partial record flushed by finish() - exactly
  // filter_stream over the sent prefix, no lost records.
  const std::string& stream = telemetry();
  const std::size_t cut = stream.size() / 2;  // mid-record with high odds
  const std::string sent = stream.substr(0, cut);

  net::service_options options;
  options.listen = unique_unix_endpoint();
  auto service = net::filter_service::open(sharded_builder(1, 0), options);
  ASSERT_TRUE(service.has_value()) << service.error().message;
  {
    net::socket_fd client = connect_and_wait(*service, 1);
    net::write_all(client, sent);
  }  // full close: the producer sees EOF mid-stream

  auto result = service->shutdown();
  ASSERT_TRUE(result.has_value()) << result.error().message;

  const core::expr_ptr rf = query::compile_default(query::riotbench::qs1());
  EXPECT_EQ(result->decisions,
            core::make_filter_engine(core::engine_kind::chunked, rf)
                ->filter_stream(sent));
}

TEST(NetService, TcpEphemeralPortRoundTrip) {
  net::service_options options;
  options.listen.port = 0;  // ask the kernel
  auto service = net::filter_service::open(sharded_builder(1, 0), options);
  ASSERT_TRUE(service.has_value()) << service.error().message;
  EXPECT_GT(service->where().port, 0) << "ephemeral port not resolved";

  net::socket_fd client = connect_and_wait(*service, 1);
  net::write_all(client, telemetry());
  client.shutdown_write();
  auto result = service->shutdown();
  ASSERT_TRUE(result.has_value()) << result.error().message;

  const core::expr_ptr rf = query::compile_default(query::riotbench::qs1());
  EXPECT_EQ(result->decisions,
            core::make_filter_engine(core::engine_kind::chunked, rf)
                ->filter_stream(telemetry()));
}

TEST(NetService, IdleConnectionTimedOutCountedAndDrained) {
  // The slow-loris guard: a connection that goes quiet past idle_timeout
  // is closed (both directions - the peer observes EOF), counted in
  // connections_idle_closed(), and every byte it delivered before going
  // idle is still filtered.
  const std::string& stream = telemetry();
  const std::size_t cut = stream.size() / 2;
  const std::string sent = stream.substr(0, cut);

  net::service_options options;
  options.listen = unique_unix_endpoint();
  options.idle_timeout = std::chrono::milliseconds(50);
  auto service = net::filter_service::open(sharded_builder(1, 0), options);
  ASSERT_TRUE(service.has_value()) << service.error().message;

  net::socket_fd client = connect_and_wait(*service, 1);
  net::write_all(client, sent);
  // Go quiet, keeping the socket open: the service must cut us loose.
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(10);
  while (service->connections_idle_closed() == 0 &&
         std::chrono::steady_clock::now() < deadline)
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  EXPECT_EQ(service->connections_idle_closed(), 1u);

  // The close is visible from the client side as EOF.
  char buffer[64];
  EXPECT_EQ(net::read_some(client, buffer, sizeof buffer), 0u);

  auto result = service->shutdown();
  ASSERT_TRUE(result.has_value()) << result.error().message;
  const core::expr_ptr rf = query::compile_default(query::riotbench::qs1());
  EXPECT_EQ(result->decisions,
            core::make_filter_engine(core::engine_kind::chunked, rf)
                ->filter_stream(sent));
}

TEST(NetService, ActiveConnectionOutlivesIdleTimeout) {
  // A producer that keeps sending - however slowly, as long as each gap
  // stays under the timeout - is never cut.
  net::service_options options;
  options.listen = unique_unix_endpoint();
  options.idle_timeout = std::chrono::milliseconds(250);
  auto service = net::filter_service::open(sharded_builder(1, 0), options);
  ASSERT_TRUE(service.has_value()) << service.error().message;

  net::socket_fd client = connect_and_wait(*service, 1);
  std::string_view rest = telemetry();
  const std::size_t step = rest.size() / 4 + 1;
  while (!rest.empty()) {
    const std::size_t take = std::min(step, rest.size());
    net::write_all(client, rest.substr(0, take));
    rest.remove_prefix(take);
    std::this_thread::sleep_for(std::chrono::milliseconds(20));
  }
  client.shutdown_write();
  auto result = service->shutdown();
  ASSERT_TRUE(result.has_value()) << result.error().message;
  EXPECT_EQ(service->connections_idle_closed(), 0u);

  const core::expr_ptr rf = query::compile_default(query::riotbench::qs1());
  EXPECT_EQ(result->decisions,
            core::make_filter_engine(core::engine_kind::chunked, rf)
                ->filter_stream(telemetry()));
}

TEST(NetService, ConnectionCapShedsExcessAtAcceptTime) {
  net::service_options options;
  options.listen = unique_unix_endpoint();
  options.max_connections = 1;
  auto service = net::filter_service::open(sharded_builder(1, 0), options);
  ASSERT_TRUE(service.has_value()) << service.error().message;

  net::socket_fd first = connect_and_wait(*service, 1);

  // A second connection is shed before a byte is read: the peer observes
  // an immediate EOF and the refusal is counted. connections_accepted()
  // never moves for a shed socket.
  {
    net::socket_fd excess = net::connect_to(service->where());
    char buffer[8];
    EXPECT_EQ(net::read_some(excess, buffer, sizeof buffer), 0u);
  }
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(10);
  while (service->connections_refused() == 0 &&
         std::chrono::steady_clock::now() < deadline)
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  EXPECT_GE(service->connections_refused(), 1u);
  EXPECT_EQ(service->connections_accepted(), 1u);

  // The live producer is untouched by the shed...
  net::write_all(first, telemetry());
  first.shutdown_write();

  // ...and once it drains, the slot frees up for a new connection. A shed
  // attempt turns readable immediately (EOF, the service never writes
  // here); an accepted one stays silent, confirmed by the counter.
  net::socket_fd replacement;
  while (!replacement.valid() &&
         std::chrono::steady_clock::now() < deadline) {
    net::socket_fd attempt = net::connect_to(service->where());
    while (std::chrono::steady_clock::now() < deadline) {
      if (net::wait_readable(attempt, 50)) break;  // EOF: shed - reconnect
      if (service->connections_accepted() >= 2) {
        replacement = std::move(attempt);
        break;
      }
    }
  }
  EXPECT_EQ(service->connections_accepted(), 2u)
      << "slot never freed after the first producer drained";

  auto result = service->shutdown();
  ASSERT_TRUE(result.has_value()) << result.error().message;
  const core::expr_ptr rf = query::compile_default(query::riotbench::qs1());
  EXPECT_EQ(result->decisions,
            core::make_filter_engine(core::engine_kind::chunked, rf)
                ->filter_stream(telemetry()));
}

TEST(NetService, QueryBitmapEchoOneLinePerRecord) {
  // The multi-tenant echo protocol: one text line per record, one '1'/'0'
  // per resident query in dense id order, '\n'-terminated. Line length ==
  // query count keeps a reader in sync.
  auto builder = pipeline::make();
  builder.from_query(query::riotbench::qs1())
      .add_query(query::riotbench::qs0())
      .backend(backend_kind::sharded)
      .shards(1)
      .worker_threads(0);

  net::service_options options;
  options.listen = unique_unix_endpoint();
  options.echo_query_bitmaps = true;
  auto service = net::filter_service::open(std::move(builder), options);
  ASSERT_TRUE(service.has_value()) << service.error().message;

  net::socket_fd client = connect_and_wait(*service, 1);
  std::string echoed;
  std::thread reader([&] {
    char buffer[512];
    while (true) {
      const std::size_t n = net::read_some(client, buffer, sizeof buffer);
      if (n == 0) break;
      echoed.append(buffer, n);
    }
  });
  net::write_all(client, telemetry());
  client.shutdown_write();
  auto result = service->shutdown();
  ASSERT_TRUE(result.has_value()) << result.error().message;
  reader.join();

  const auto col0 =
      core::make_filter_engine(
          core::engine_kind::chunked,
          query::compile_default(query::riotbench::qs1()))
          ->filter_stream(telemetry());
  const auto col1 =
      core::make_filter_engine(
          core::engine_kind::chunked,
          query::compile_default(query::riotbench::qs0()))
          ->filter_stream(telemetry());
  std::string expected;
  for (std::size_t r = 0; r < col0.size(); ++r) {
    expected += col0[r] ? '1' : '0';
    expected += col1[r] ? '1' : '0';
    expected += '\n';
  }
  EXPECT_EQ(echoed, expected);
  EXPECT_EQ(result->records(), col0.size());

  // The drain's verdict matrix holds the same bits the echo rendered.
  const auto first = result->verdicts.column(0, 1);
  const auto second = result->verdicts.column(0, 2);
  ASSERT_TRUE(first.has_value());
  ASSERT_TRUE(second.has_value());
  EXPECT_EQ(first->first_record, 0u);
  EXPECT_EQ(second->first_record, 0u);
  EXPECT_EQ(first->decisions, col0);
  EXPECT_EQ(second->decisions, col1);
}

namespace {

/// The SmartCity measurement value of `attr` in one parsed record (SenML:
/// the "v" sibling of the matching "n" inside the "e" array) - the DOM
/// reference for the projection echo's field text. Empty when absent.
std::string senml_value(const json::value& doc, std::string_view attr) {
  const json::value* e = doc.find("e");
  if (e == nullptr || !e->is_array()) return {};
  for (const json::value& m : e->as_array()) {
    const json::value* n = m.find("n");
    if (n == nullptr || !n->is_string() || n->as_string() != attr) continue;
    const json::value* v = m.find("v");
    if (v != nullptr && v->is_string()) return v->as_string();
  }
  return {};
}

/// One expected projection line per set bit of `decisions`: the derived
/// paths' values, tab-separated, '\n'-terminated.
std::string expected_projection_lines(const std::string& stream,
                                      const std::vector<bool>& decisions,
                                      const project::path_set& paths) {
  std::string expected;
  std::string_view rest = stream;
  for (const bool accepted : decisions) {
    const std::size_t nl = rest.find('\n');
    const std::string_view record = rest.substr(0, nl);
    rest.remove_prefix(nl == std::string_view::npos ? rest.size() : nl + 1);
    if (!accepted) continue;
    const json::value doc = json::parse(record);
    for (std::size_t p = 0; p < paths.size(); ++p) {
      if (p > 0) expected.push_back('\t');
      expected += senml_value(doc, paths.at(p).attribute);
    }
    expected.push_back('\n');
  }
  return expected;
}

}  // namespace

TEST(NetService, ProjectionEchoOneLinePerAcceptedRecord) {
  // echo_projection alone: the socket carries nothing but the accepted
  // records' projected fields, one line each, in per-shard record order.
  net::service_options options;
  options.listen = unique_unix_endpoint();
  options.echo_projection = true;
  auto service = net::filter_service::open(sharded_builder(1, 0), options);
  ASSERT_TRUE(service.has_value()) << service.error().message;

  net::socket_fd client = connect_and_wait(*service, 1);
  std::string echoed;
  std::thread reader([&] {
    char buffer[512];
    while (true) {
      const std::size_t n = net::read_some(client, buffer, sizeof buffer);
      if (n == 0) break;
      echoed.append(buffer, n);
    }
  });
  net::write_all(client, telemetry());
  client.shutdown_write();
  auto result = service->shutdown();
  ASSERT_TRUE(result.has_value()) << result.error().message;
  reader.join();

  const auto reference =
      core::make_filter_engine(
          core::engine_kind::chunked,
          query::compile_default(query::riotbench::qs1()))
          ->filter_stream(telemetry());
  EXPECT_EQ(result->decisions, reference);
  const project::path_set paths =
      project::derive_paths({query::riotbench::qs1()});
  EXPECT_EQ(echoed,
            expected_projection_lines(telemetry(), reference, paths));
}

TEST(NetService, ProjectionEchoComposesWithVerdictAndBitmapEcho) {
  // All three echo modes on one socket, two resident queries sharing the
  // five SmartCity paths: per record a '1'/'0' verdict byte, then (when
  // accepted) the projection line, then the bitmap line - the sink order
  // the pipeline guarantees.
  auto builder = pipeline::make();
  builder.from_query(query::riotbench::qs1())
      .add_query(query::riotbench::qs0())
      .backend(backend_kind::sharded)
      .shards(1)
      .worker_threads(0);

  net::service_options options;
  options.listen = unique_unix_endpoint();
  options.echo_decisions = true;
  options.echo_query_bitmaps = true;
  options.echo_projection = true;
  auto service = net::filter_service::open(std::move(builder), options);
  ASSERT_TRUE(service.has_value()) << service.error().message;

  net::socket_fd client = connect_and_wait(*service, 1);
  std::string echoed;
  std::thread reader([&] {
    char buffer[512];
    while (true) {
      const std::size_t n = net::read_some(client, buffer, sizeof buffer);
      if (n == 0) break;
      echoed.append(buffer, n);
    }
  });
  net::write_all(client, telemetry());
  client.shutdown_write();
  auto result = service->shutdown();
  ASSERT_TRUE(result.has_value()) << result.error().message;
  reader.join();

  const auto col0 =
      core::make_filter_engine(
          core::engine_kind::chunked,
          query::compile_default(query::riotbench::qs1()))
          ->filter_stream(telemetry());
  const auto col1 =
      core::make_filter_engine(
          core::engine_kind::chunked,
          query::compile_default(query::riotbench::qs0()))
          ->filter_stream(telemetry());
  const project::path_set paths = project::derive_paths(
      {query::riotbench::qs1(), query::riotbench::qs0()});
  ASSERT_EQ(paths.size(), 5u);  // deduped across the fleet

  std::string expected;
  std::string_view rest = telemetry();
  for (std::size_t r = 0; r < col0.size(); ++r) {
    const std::size_t nl = rest.find('\n');
    const std::string_view record = rest.substr(0, nl);
    rest.remove_prefix(nl == std::string_view::npos ? rest.size() : nl + 1);
    const bool any = col0[r] || col1[r];
    expected += any ? '1' : '0';
    if (any) {
      const json::value doc = json::parse(record);
      for (std::size_t p = 0; p < paths.size(); ++p) {
        if (p > 0) expected.push_back('\t');
        expected += senml_value(doc, paths.at(p).attribute);
      }
      expected.push_back('\n');
    }
    expected += col0[r] ? '1' : '0';
    expected += col1[r] ? '1' : '0';
    expected.push_back('\n');
  }
  EXPECT_EQ(echoed, expected);
  EXPECT_EQ(result->records(), col0.size());
}

TEST(NetService, ProjectionEchoSurvivesClientDroppingMidRecord) {
  // The client vanishes mid-record without ever reading its echo: failed
  // echo writes drop the echo stream (never the ingest), the staged
  // projection lines keep draining (popped whether or not the write
  // lands), and the service still filters every byte that arrived.
  const std::string& stream = telemetry();
  const std::size_t cut = stream.size() / 2;
  const std::string sent = stream.substr(0, cut);

  net::service_options options;
  options.listen = unique_unix_endpoint();
  options.echo_projection = true;
  auto service = net::filter_service::open(sharded_builder(1, 0), options);
  ASSERT_TRUE(service.has_value()) << service.error().message;
  {
    net::socket_fd client = connect_and_wait(*service, 1);
    net::write_all(client, sent);
  }  // full close, echo lines now hit a dead peer

  auto result = service->shutdown();
  ASSERT_TRUE(result.has_value()) << result.error().message;
  const core::expr_ptr rf = query::compile_default(query::riotbench::qs1());
  EXPECT_EQ(result->decisions,
            core::make_filter_engine(core::engine_kind::chunked, rf)
                ->filter_stream(sent));
}

TEST(NetService, StatsSnapshotFiresWhileStreaming) {
  std::atomic<std::uint64_t> snapshots{0};
  std::atomic<std::uint64_t> records_seen{0};
  net::service_options options;
  options.listen = unique_unix_endpoint();
  options.stats_period = std::chrono::milliseconds(5);
  options.on_stats = [&](const std::vector<system::shard_stats>& stats) {
    std::uint64_t records = 0;
    for (const auto& s : stats) records += s.records;
    records_seen.store(records);
    snapshots.fetch_add(1);
  };
  auto service = net::filter_service::open(sharded_builder(2, 0), options);
  ASSERT_TRUE(service.has_value()) << service.error().message;

  net::socket_fd client = connect_and_wait(*service, 1);
  net::write_all(client, telemetry());
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(10);
  while (snapshots.load() < 2 && std::chrono::steady_clock::now() < deadline)
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  EXPECT_GE(snapshots.load(), 2u) << "stats thread never fired";

  // The same accounting on demand, one entry per shard.
  auto live = service->stats();
  ASSERT_TRUE(live.has_value()) << live.error().message;
  ASSERT_EQ(live->size(), service->shard_count());
  std::uint64_t live_records = 0;
  for (const auto& s : *live) live_records += s.records;

  client.shutdown_write();
  auto result = service->shutdown();
  ASSERT_TRUE(result.has_value()) << result.error().message;
  EXPECT_LE(live_records, result->records());
}

TEST(NetService, OpenFailuresComeBackAsErrors) {
  // A builder that cannot build.
  net::service_options options;
  options.listen = unique_unix_endpoint();
  auto no_query = net::filter_service::open(pipeline::make(), options);
  ASSERT_FALSE(no_query.has_value());
  EXPECT_FALSE(no_query.error().message.empty());

  // A socket path that cannot be bound names the endpoint.
  options.listen.unix_path = "/nonexistent-jrf-dir/service.sock";
  auto unbound = net::filter_service::open(sharded_builder(1, 0), options);
  ASSERT_FALSE(unbound.has_value());
  EXPECT_NE(unbound.error().message.find("unix:/nonexistent-jrf-dir"),
            std::string::npos)
      << unbound.error().message;
}

TEST(NetService, MoveAssignmentDrainsTheReplacedService) {
  net::service_options first_options;
  first_options.listen = unique_unix_endpoint();
  auto first = net::filter_service::open(sharded_builder(1, 0), first_options);
  ASSERT_TRUE(first.has_value()) << first.error().message;
  net::service_options second_options;
  second_options.listen = unique_unix_endpoint();
  auto second =
      net::filter_service::open(sharded_builder(1, 0), second_options);
  ASSERT_TRUE(second.has_value()) << second.error().message;

  {
    net::socket_fd client = connect_and_wait(*first, 1);
    net::write_all(client, telemetry());
    client.shutdown_write();
    // The replaced service drains like a destroyed one: its acceptor and
    // producer threads are joined, its socket path unlinked.
    *first = std::move(*second);
  }
  EXPECT_NE(::access(first_options.listen.unix_path.c_str(), F_OK), 0);
  EXPECT_EQ(first->where().unix_path, second_options.listen.unix_path);

  net::socket_fd client = connect_and_wait(*first, 1);
  net::write_all(client, telemetry());
  client.shutdown_write();
  auto result = first->shutdown();
  ASSERT_TRUE(result.has_value()) << result.error().message;
  EXPECT_EQ(result->records(), 300u);
}
