#include "legs.hpp"

#include <sys/prctl.h>

#include <algorithm>
#include <cmath>

namespace perfbench {

using namespace jrf;

// ---------------------------------------------------------------------------
// verdict_log

verdict_log::verdict_log(const std::vector<char>& expected,
                         const std::vector<char>* exact, std::size_t records,
                         std::size_t shards)
    : expected_(expected), exact_(exact), seen_(records, 2),
      next_(shards, 0), shards_(shards) {}

void verdict_log::on(std::size_t shard, std::uint64_t index, bool accepted) {
  if (shard >= shards_ || index != next_[shard]) ++order_errors_;
  if (shard < shards_) next_[shard] = index + 1;
  const std::uint64_t merged = index * shards_ + shard;
  if (merged >= seen_.size() || seen_[merged] != 2) {
    ++order_errors_;
    return;
  }
  seen_[merged] = accepted ? 1 : 0;
  if (accepted != (expected_[merged] != 0)) ++mismatches_;
  if (!accepted && exact_ != nullptr && (*exact_)[merged] != 0)
    ++false_negatives_;
}

void verdict_log::settle(report& r, const std::string& where) const {
  const auto missing = static_cast<std::uint64_t>(
      std::count(seen_.begin(), seen_.end(), char{2}));
  const std::uint64_t n = seen_.size();
  r.check(where + ": missing/duplicate/out-of-order verdict", n,
          missing + order_errors_);
  r.check(where + ": verdict differs from reference", n, mismatches_);
  r.check(where + ": false negative", n, false_negatives_);
}

// ---------------------------------------------------------------------------
// Streaming calls

namespace {

void timed_offer(pipeline& p, std::string_view chunk, std::size_t id,
                 tracer& t, report& r, samples& s) {
  {
    scoped_span span(t, "api.offer", id);
    const auto start = steady::now();
    auto taken = p.offer(chunk);
    s.offer_us.push_back(seconds_since(start) * 1e6);
    r.check("offer", 1, taken && *taken == chunk.size() ? 0 : 1);
  }
  scoped_span span(t, "api.pump", id);
  const auto start = steady::now();
  auto pumped = p.pump();
  s.pump_us.push_back(seconds_since(start) * 1e6);
  r.check("pump", 1, pumped ? 0 : 1);
}

core::query_id timed_add(pipeline& p, const core::expr_ptr& q,
                         std::size_t id, tracer& t, report& r, samples& s) {
  scoped_span span(t, "api.add_query", id);
  const auto start = steady::now();
  auto added = p.add_query(q);
  const double ms = seconds_since(start) * 1e3;
  s.add_ms.push_back(ms);
  s.swap_ms.push_back(ms);
  r.check("add_query", 1, added ? 0 : 1);
  return added ? *added : 0;  // ids start at 1
}

void timed_remove(pipeline& p, core::query_id q, std::size_t id, tracer& t,
                  report& r, samples& s) {
  scoped_span span(t, "api.remove_query", id);
  const auto start = steady::now();
  const bool ok = q != 0 && p.remove_query(q).has_value();
  const double ms = seconds_since(start) * 1e3;
  s.remove_ms.push_back(ms);
  s.swap_ms.push_back(ms);
  r.check("remove_query", 1, ok ? 0 : 1);
}

void timed_finish(pipeline& p, tracer& t, report& r, samples& s) {
  scoped_span span(t, "api.finish");
  const auto start = steady::now();
  auto result = p.finish();
  s.finish_ms.push_back(seconds_since(start) * 1e3);
  r.check("finish", 1, result ? 0 : 1);
}

}  // namespace

void stream_with_churn(pipeline& p, std::string_view bytes,
                       const std::vector<core::expr_ptr>& churn, tracer& t,
                       report& r, samples& s) {
  const std::size_t chunks = (bytes.size() + kOfferBytes - 1) / kOfferBytes;
  const std::size_t events = 2 * churn.size();
  std::size_t event = 0;
  core::query_id churned = 0;
  for (std::size_t ci = 0; ci < chunks; ++ci) {
    timed_offer(p, bytes.substr(ci * kOfferBytes, kOfferBytes), ci, t, r, s);
    for (; event < events && (event + 1) * chunks / (events + 1) <= ci;
         ++event) {
      if (event % 2 == 0)
        churned = timed_add(p, churn[event / 2], event, t, r, s);
      else
        timed_remove(p, churned, event, t, r, s);
    }
  }
  timed_finish(p, t, r, s);
}

// ---------------------------------------------------------------------------
// churn_stream

namespace {
// Stream chunks per round, whatever the number of pairs; the leg reads at
// most kLegBytes of the workload.
constexpr std::size_t kRoundChunks = 4;
constexpr std::size_t kLegBytes = 8'000'000;
}  // namespace

churn_stream::churn_stream(pipeline_builder builder, const corpus& data,
                           const std::vector<char>& expected,
                           const std::vector<char>* exact,
                           std::vector<core::expr_ptr> churn,
                           std::size_t pairs, tracer& t, report& r,
                           samples& s)
    : churn_(std::move(churn)), t_(t), r_(r), s_(s), pairs_(pairs) {
  std::size_t records = 0;
  while (records < data.records() && data.starts[records + 1] <= kLegBytes)
    ++records;
  bytes_ = std::string_view(data.bytes).substr(0, data.starts[records]);
  {
    scoped_span span(t, "api.build");
    const auto start = steady::now();
    auto built = builder.build();
    s.build_ms.push_back(seconds_since(start) * 1e3);
    if (!built) {
      r.fail("churn stream build: " + built.error().message);
      return;
    }
    p_.emplace(std::move(*built));
  }
  log_.emplace(expected, exact, records, p_->shard_count());
  auto attached = p_->on_query_decision(
      p_->query_ids().front(),
      [this](std::size_t shard, std::uint64_t index, bool accepted) {
        if (!t_.enabled()) return log_->on(shard, index, accepted);
        const auto start = steady::now();
        log_->on(shard, index, accepted);
        s_.sink_ns += ns_between(start, steady::now());
        ++s_.sink_records;
      });
  if (!attached) {
    r.fail("churn stream: on_query_decision: " + attached.error().message);
    p_.reset();
  }
}

void churn_stream::offer_chunk() {
  if (offset_ >= bytes_.size()) return;
  const std::string_view chunk = bytes_.substr(offset_, kOfferBytes);
  timed_offer(*p_, chunk, offset_ / kOfferBytes, t_, r_, s_);
  offset_ += chunk.size();
}

void churn_stream::round() {
  if (!p_ || churn_.empty()) return;
  for (std::size_t pair = 0; pair < pairs_; ++pair, ++swaps_) {
    const core::query_id id =
        timed_add(*p_, churn_[swaps_ % churn_.size()], swaps_, t_, r_, s_);
    for (std::size_t i = pair * kRoundChunks / pairs_;
         i < (pair + 1) * kRoundChunks / pairs_; ++i)
      offer_chunk();
    timed_remove(*p_, id, swaps_, t_, r_, s_);
  }
}

void churn_stream::finish() {
  if (!p_) return;
  while (offset_ < bytes_.size()) offer_chunk();
  timed_finish(*p_, t_, r_, s_);
  log_->settle(r_, "churn stream");
  p_.reset();
}

// ---------------------------------------------------------------------------
// socket_session

socket_session::socket_session(const socket_config& cfg, tracer& t,
                               report& r)
    : cfg_(cfg), t_(t), r_(r) {
  {
    scoped_span span(t_, "net.open");
    const auto start = steady::now();
    auto svc = net::filter_service::open(sharded_builder(), options(cfg_.path));
    out_.open_ms.push_back(seconds_since(start) * 1e3);
    if (!svc) {
      r_.fail("socket open: " + svc.error().message);
      return;
    }
    service_.emplace(std::move(*svc));
  }

  capacity_ = static_cast<std::size_t>(
                  std::ceil(cfg_.rate * cfg_.max_seconds / kShards)) +
              16;
  for (std::size_t c = 0; c < kShards; ++c) {
    auto conn = std::make_unique<connection>();
    try {
      conn->fd = net::connect_to(service_->where());
    } catch (const std::exception& e) {
      r_.fail(std::string("socket connect: ") + e.what());
      break;
    }
    // Connection c must be the service's connection c (it feeds shard c).
    while (service_->connections_accepted() < c + 1)
      std::this_thread::yield();
    conn->due.resize(capacity_);
    conn->latency_us.resize(capacity_);
    conns_.push_back(std::move(conn));
  }
  for (std::size_t c = 0; c < conns_.size(); ++c)
    conns_[c]->reader = std::thread([this, c] { read_loop(c); });
}

socket_session::~socket_session() {
  if (!closed_) close();
}

pipeline_builder socket_session::sharded_builder() const {
  pipeline_builder b = cfg_.builder();
  b.backend(backend_kind::sharded).shards(kShards).worker_threads(0);
  return b;
}

net::service_options socket_session::options(const std::string& path) {
  net::service_options opts;
  opts.listen.unix_path = path;
  opts.echo_decisions = true;
  return opts;
}

void socket_session::time_open() {
  const std::string path = cfg_.path + "s";
  const auto start = steady::now();
  auto svc = net::filter_service::open(sharded_builder(), options(path));
  out_.open_ms.push_back(seconds_since(start) * 1e3);
  r_.check("socket open/shutdown cycle", 1, svc && svc->shutdown() ? 0 : 1);
  net::unlink_endpoint(net::endpoint{path, {}, 0});
}

void socket_session::read_loop(std::size_t c) {
  connection& cn = *conns_[c];
  const corpus& pool = *cfg_.pool;
  const std::size_t pool_n = pool.records();
  char buffer[4096];
  try {
    while (true) {
      if (!net::wait_readable(cn.fd, 200)) {
        if (stopping_.load(std::memory_order_acquire)) break;
        continue;
      }
      const std::size_t n = net::read_some(cn.fd, buffer, sizeof buffer);
      if (n == 0) break;
      const steady::time_point now = steady::now();
      for (std::size_t b = 0; b < n; ++b) {
        const std::size_t j = cn.got.load(std::memory_order_relaxed);
        // A verdict cannot outrun its record's send.
        if (j >= cn.sent.load(std::memory_order_acquire)) {
          ++cn.extra;
          continue;
        }
        const std::size_t rec = (j * kShards + c) % pool_n;
        const bool accepted = buffer[b] == '1';
        cn.latency_us[j] = static_cast<float>(ns_between(cn.due[j], now) / 1e3);
        const std::size_t len = pool.starts[rec + 1] - pool.starts[rec];
        cn.bytes += len;
        if (accepted) {
          ++cn.accepts;
          if (cfg_.exact && (*cfg_.exact)[rec] == 0) ++cn.exact_rejected;
        } else {
          cn.dropped_bytes += len;
          if (cfg_.exact && (*cfg_.exact)[rec] != 0) ++cn.false_negatives;
        }
        if (accepted != ((*cfg_.expected)[rec] != 0)) ++cn.mismatches;
        cn.got.store(j + 1, std::memory_order_release);
      }
    }
  } catch (const std::exception&) {
    cn.failed = true;
  }
}

void socket_session::window(double seconds) {
  if (!service_ || conns_.size() != kShards) return;
  // 1 ns timer slack: sleep_until otherwise overshoots by ~50 us.
  prctl(PR_SET_TIMERSLACK, 1UL, 0UL, 0UL, 0UL);
  const corpus& pool = *cfg_.pool;
  const std::size_t pool_n = pool.records();
  const double interval_ns = 1e9 / cfg_.rate;
  const auto count = static_cast<std::size_t>(seconds * cfg_.rate);
  const std::size_t first = next_record_;
  std::size_t first_j[kShards];
  for (std::size_t c = 0; c < kShards; ++c)
    first_j[c] = conns_[c]->sent.load(std::memory_order_relaxed);
  const steady::time_point start = steady::now() + std::chrono::microseconds(200);
  auto due = [&](std::size_t i) {
    return start + std::chrono::nanoseconds(static_cast<std::int64_t>(
                       interval_ns * static_cast<double>(i)));
  };

  std::string batch[kShards];
  std::size_t i = 0;  // records of this window handed to a connection
  bool full = false;
  steady::time_point last_send = start;
  try {
    while (i < count && !full) {
      const steady::time_point now = steady::now();
      if (due(i) > now) {
        std::this_thread::sleep_until(due(i));
        continue;
      }
      for (std::string& b : batch) b.clear();
      std::size_t pending[kShards] = {};
      for (; i < count && due(i) <= now; ++i) {
        const std::size_t k = first + i;
        connection& cn = *conns_[k % kShards];
        const std::size_t j = cn.sent.load(std::memory_order_relaxed) +
                              pending[k % kShards];
        if (j >= capacity_) {
          r_.fail("socket session: windows exceed the record budget");
          full = true;
          break;
        }
        cn.due[j] = due(i);
        batch[k % kShards] += pool.line(k % pool_n);
        ++pending[k % kShards];
      }
      const steady::time_point send = steady::now();
      for (std::size_t c = 0; c < kShards; ++c) {
        if (pending[c] == 0) continue;
        connection& cn = *conns_[c];
        const std::size_t j0 = cn.sent.load(std::memory_order_relaxed);
        for (std::size_t j = j0; j < j0 + pending[c]; ++j)
          out_.late_us.push_back(
              static_cast<double>(ns_between(cn.due[j], send)) / 1e3);
        cn.sent.store(j0 + pending[c], std::memory_order_release);
        net::write_all(cn.fd, batch[c]);
      }
      last_send = steady::now();
      out_.send_ns += static_cast<double>(ns_between(send, last_send));
    }
  } catch (const std::exception& e) {
    r_.fail(std::string("socket send: ") + e.what());
  }
  next_record_ = first + i;
  out_.send_s += std::chrono::duration<double>(last_send - start).count();

  // Wait for this window's verdicts.
  const steady::time_point deadline = steady::now() + std::chrono::seconds(10);
  for (auto& cn : conns_)
    while (cn->got.load(std::memory_order_acquire) <
               cn->sent.load(std::memory_order_relaxed) &&
           steady::now() < deadline && !cn->failed)
      std::this_thread::sleep_for(std::chrono::microseconds(100));
  out_.active_s += seconds_since(start);

  std::vector<double> lat;
  for (std::size_t c = 0; c < kShards; ++c) {
    const connection& cn = *conns_[c];
    const std::size_t got = cn.got.load(std::memory_order_acquire);
    for (std::size_t j = first_j[c]; j < got; ++j)
      lat.push_back(cn.latency_us[j]);
  }
  out_.latency_us.insert(out_.latency_us.end(), lat.begin(), lat.end());
  if (!lat.empty()) out_.window_p50_us.push_back(median(std::move(lat)));
}

socket_outcome socket_session::close() {
  closed_ = true;
  stopping_.store(true, std::memory_order_release);
  for (auto& cn : conns_) {
    cn->fd.shutdown_write();
    cn->fd.shutdown_read();
  }
  for (auto& cn : conns_)
    if (cn->reader.joinable()) cn->reader.join();
  if (!service_) return out_;

  if (auto stats = service_->stats()) {
    for (const system::shard_stats& st : *stats) {
      out_.stats.backpressure_events += st.backpressure_events;
      out_.stats.hard_backpressure_events += st.hard_backpressure_events;
      out_.stats.fifo_high_watermark =
          std::max(out_.stats.fifo_high_watermark, st.fifo_high_watermark);
    }
  }
  out_.accepted_connections = service_->connections_accepted();
  out_.refused_connections = service_->connections_refused();
  std::optional<run_result> result;
  {
    scoped_span span(t_, "net.shutdown");
    const auto start = steady::now();
    auto done = service_->shutdown();
    out_.shutdown_ms = seconds_since(start) * 1e3;
    if (done)
      result.emplace(std::move(*done));
    else
      r_.fail("socket shutdown: " + done.error().message);
  }
  service_.reset();
  net::unlink_endpoint(net::endpoint{cfg_.path, {}, 0});

  std::uint64_t lost = 0, extra = 0, mismatches = 0, false_negatives = 0;
  for (const auto& cn : conns_) {
    const std::size_t sent = cn->sent.load(), got = cn->got.load();
    out_.sent += sent;
    out_.echoed += got;
    out_.accepts += cn->accepts;
    out_.exact_rejected += cn->exact_rejected;
    out_.bytes += cn->bytes;
    out_.dropped_bytes += cn->dropped_bytes;
    lost += sent - got;
    extra += cn->extra;
    mismatches += cn->mismatches;
    false_negatives += cn->false_negatives;
  }
  r_.check("socket: missing or extra verdict", out_.sent, lost + extra);
  r_.check("socket: verdict differs from reference", out_.sent, mismatches);
  r_.check("socket: false negative", out_.sent, false_negatives);
  r_.check("socket: refused connection", kShards, out_.refused_connections);
  if (result) {
    r_.check("socket: service records != sent", 1,
             result->records() == out_.sent ? 0 : 1);
    r_.check("socket: echoed accepts != run_result accepted", 1,
             result->accepted() == out_.accepts ? 0 : 1);
  }
  return out_;
}

}  // namespace perfbench
