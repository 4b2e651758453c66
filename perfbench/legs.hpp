// The two measurement legs every workload interleaves with its main path,
// one round or window per main pass, so they sample the same stretch of
// time as the passes do:
//
//   churn_stream    a streaming pipeline of the workload's configuration,
//                   fed a slice of the stream per round, spread over the
//                   round's add_query()/remove_query() pairs;
//   socket_session  the workload's query behind net::filter_service on a
//                   Unix socket, one connection per shard, driven open loop
//                   in windows at a fixed rate.
//
// Plus the per-record verdict checking and the timing samples they share
// with the main paths.
#pragma once

#include <atomic>
#include <cstdint>
#include <functional>
#include <memory>
#include <optional>
#include <string>
#include <string_view>
#include <thread>
#include <vector>

#include "api/pipeline.hpp"
#include "common.hpp"
#include "core/expr.hpp"
#include "net/service.hpp"
#include "net/socket.hpp"

namespace perfbench {

/// Streams are offered in 64 KB calls, as a socket reader would.
inline constexpr std::size_t kOfferBytes = 64 * 1024;

/// Neighbour load on a shared host slows whole passes by 25-100 % for
/// seconds at a time, so the median of a run's samples tracks the host
/// more than the code. The fastest 5 % track the code: they ignore the
/// slowed samples, hold in runs where the host was calm for only a few
/// seconds, and still rest on two or more samples (30+ passes a run).
inline double fast_tail(const std::vector<double>& v) {
  return quantile(v, 0.05);
}

/// Timings every workload contributes to.
struct samples {
  std::vector<double> setup_s, pass_s, swap_ms, add_ms, remove_ms, offer_us,
      pump_us, finish_ms, build_ms;
  std::int64_t sink_ns = 0;
  std::uint64_t sink_records = 0;
};

/// Order, completeness and value checks of one stream of single-query
/// verdicts. Records are dealt round-robin across `shards` (per-shard index
/// k of shard s is merged record k * shards + s).
class verdict_log {
 public:
  verdict_log(const std::vector<char>& expected, const std::vector<char>* exact,
              std::size_t records, std::size_t shards);

  void on(std::size_t shard, std::uint64_t index, bool accepted);
  /// Counts the checks into `r`; `where` names the path in failure logs.
  void settle(report& r, const std::string& where) const;
  /// Per record: 1 accepted, 0 dropped, 2 no verdict.
  const std::vector<char>& seen() const { return seen_; }

 private:
  const std::vector<char>& expected_;
  const std::vector<char>* exact_;
  std::vector<char> seen_;
  std::vector<std::uint64_t> next_;
  std::size_t shards_;
  std::uint64_t order_errors_ = 0, mismatches_ = 0, false_negatives_ = 0;
};

/// offer() + pump() per 64 KB chunk of `bytes`, one add_query()/
/// remove_query() pair per churn query spread evenly over the chunks, then
/// finish(). Every call is timed into `s` and checked into `r`.
void stream_with_churn(jrf::pipeline& p, std::string_view bytes,
                       const std::vector<jrf::core::expr_ptr>& churn,
                       tracer& t, report& r, samples& s);

class churn_stream {
 public:
  /// Builds the pipeline (timed into s.build_ms) and attaches a checking
  /// sink to its primary query; `expected`/`exact` index the records of
  /// `data`. Each round makes `pairs` add/remove pairs.
  churn_stream(jrf::pipeline_builder builder, const corpus& data,
               const std::vector<char>& expected,
               const std::vector<char>* exact,
               std::vector<jrf::core::expr_ptr> churn, std::size_t pairs,
               tracer& t, report& r, samples& s);
  churn_stream(const churn_stream&) = delete;
  churn_stream& operator=(const churn_stream&) = delete;

  /// `pairs` times: add_query(), the pair's share of the round's slice of
  /// the stream (possibly none), remove_query().
  void round();
  /// The rest of the stream, finish(), and the verdict checks.
  void finish();

 private:
  void offer_chunk();

  std::vector<jrf::core::expr_ptr> churn_;
  tracer& t_;
  report& r_;
  samples& s_;
  std::string_view bytes_;
  std::size_t pairs_, offset_ = 0, swaps_ = 0;
  std::optional<verdict_log> log_;
  std::optional<jrf::pipeline> p_;
};

struct socket_config {
  std::function<jrf::pipeline_builder()> builder;  // query only
  const corpus* pool = nullptr;  // records sent, cycled in order
  const std::vector<char>* expected = nullptr;  // verdict per pool record
  const std::vector<char>* exact = nullptr;     // exact label, or null
  double rate = 0;              // records per second inside a window
  double max_seconds = 0;       // total window time the session may run
  std::string path;             // Unix socket path
};

struct socket_outcome {
  std::vector<double> open_ms;
  double shutdown_ms = 0;
  std::vector<double> window_p50_us;   // per window
  std::vector<double> latency_us;      // every record, due -> verdict
  std::vector<double> late_us;         // every record, due -> send
  std::uint64_t sent = 0, echoed = 0, accepts = 0, exact_rejected = 0;
  std::uint64_t bytes = 0, dropped_bytes = 0;
  double send_ns = 0;
  double active_s = 0;  // window starts to their last verdicts
  double send_s = 0;    // window starts to their last sends
  jrf::system::shard_stats stats;  // summed; high watermark = max
  std::uint64_t accepted_connections = 0, refused_connections = 0;
};

/// Record k of the session (aggregate order) goes to connection
/// k % shards; inside a window it is due at window start + i / rate, and
/// its latency runs from that due time to its echoed verdict byte, so a
/// generator stall counts against the run. The calling thread paces the
/// sends; one reader thread per connection collects verdicts.
class socket_session {
 public:
  static constexpr std::size_t kShards = 2;

  socket_session(const socket_config& cfg, tracer& t, report& r);
  ~socket_session();
  socket_session(const socket_session&) = delete;
  socket_session& operator=(const socket_session&) = delete;

  /// One open-loop window; returns once every verdict of it arrived (or a
  /// 10 s timeout counted the missing ones as failures).
  void window(double seconds);
  /// Open and shut down a second, idle service of the same configuration,
  /// timing the open as one more set-up sample.
  void time_open();
  /// Join the readers, shut the service down, run the final checks.
  socket_outcome close();

 private:
  struct connection {
    jrf::net::socket_fd fd;
    std::vector<steady::time_point> due;
    std::vector<float> latency_us;
    std::atomic<std::size_t> sent{0}, got{0};
    std::uint64_t accepts = 0, mismatches = 0, false_negatives = 0,
                  exact_rejected = 0, extra = 0, bytes = 0, dropped_bytes = 0;
    bool failed = false;
    std::thread reader;
  };

  void read_loop(std::size_t c);
  jrf::pipeline_builder sharded_builder() const;
  static jrf::net::service_options options(const std::string& path);

  socket_config cfg_;
  tracer& t_;
  report& r_;
  socket_outcome out_;
  std::optional<jrf::net::filter_service> service_;
  std::vector<std::unique_ptr<connection>> conns_;
  std::atomic<bool> stopping_{false};
  std::size_t next_record_ = 0;  // aggregate index of the next send
  std::size_t capacity_ = 0;     // records per connection
  bool closed_ = false;
};

}  // namespace perfbench
