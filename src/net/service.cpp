#include "net/service.hpp"

#include <atomic>
#include <condition_variable>
#include <cstring>
#include <deque>
#include <mutex>
#include <optional>
#include <string_view>
#include <thread>
#include <utility>

#include "net/source.hpp"

namespace jrf::net {

// Locking inside the service (below every pipeline lock - the sink runs
// with no pipeline lock held):  conn_mutex > echo_mutex > write_mutex.
// The acceptor takes conn_mutex/echo_mutex to register; the sink takes
// echo_mutex to find the shard's connection, then its write_mutex to
// serialize verdict bytes against other sink calls.
struct filter_service::impl {
  struct connection {
    std::size_t shard;
    socket_source source;  // owns the fd; verdicts echo on descriptor()
    std::mutex write_mutex;
    bool peer_writable = true;  // cleared on the first failed echo write
    std::thread producer;

    connection(std::size_t s, socket_fd fd, std::size_t chunk_bytes)
        : shard(s), source(std::move(fd), chunk_bytes) {}
  };

  service_options opts;
  std::optional<pipeline> pipe;  // set right after build() succeeds
  endpoint bound;
  socket_fd listener;

  std::atomic<bool> stopping{false};
  std::atomic<std::uint64_t> accepted{0};
  std::atomic<std::uint64_t> refused{0};      // shed by max_connections
  std::atomic<std::uint64_t> idle_closed{0};  // closed by idle_timeout
  std::atomic<std::size_t> live{0};           // producers still running
  bool shut_down = false;  // shutdown() ran (guarded by shutdown_mutex)
  std::mutex shutdown_mutex;

  std::mutex conn_mutex;
  std::vector<std::unique_ptr<connection>> connections;
  std::mutex echo_mutex;
  std::vector<connection*> echo_owner;  // per shard, latest connection wins

  // echo_projection staging: the projection sink runs UNDER the pipeline's
  // per-shard ordering lock (strictly before that record's decision sink
  // can fire), so it only formats the line and parks it here; deliver() -
  // which runs outside every pipeline lock - pops one line per accepted
  // record and writes it. Each queue's mutex is a leaf: taken from both
  // sides, ordered below everything else, nothing acquired inside it.
  struct projection_queue {
    std::mutex mutex;
    std::deque<std::string> lines;
  };
  std::vector<std::unique_ptr<projection_queue>> proj_queues;  // per shard

  std::thread acceptor;
  std::thread stats_thread;
  std::mutex stats_mutex;
  std::condition_variable stats_cv;

  explicit impl(service_options o) : opts(std::move(o)) {}

  // The pipeline's decision sink. Runs outside every pipeline lock, so
  // echoing (and whatever the user callback does) cannot deadlock the
  // streaming surface.
  void deliver(std::size_t shard, std::uint64_t index, bool accepted_record) {
    if (opts.on_decision) opts.on_decision(shard, index, accepted_record);
    if (opts.echo_decisions) {
      const char verdict = accepted_record ? '1' : '0';
      echo_to_owner(shard, std::string_view(&verdict, 1));
    }
    if (opts.echo_projection && accepted_record) {
      // Pop unconditionally: a dropped client must not wedge the queue,
      // so the line leaves the queue whether or not the write lands.
      std::string line;
      {
        projection_queue& q = *proj_queues[shard];
        std::lock_guard<std::mutex> lock(q.mutex);
        if (!q.lines.empty()) {
          line = std::move(q.lines.front());
          q.lines.pop_front();
        }
      }
      if (!line.empty()) echo_to_owner(shard, line);
    }
  }

  // The pipeline's projection sink (echo_projection; batch size 1, so one
  // batch = one accepted record). Runs under the pipeline's per-shard
  // ordering lock - strictly before deliver() sees this record - so it
  // must not write to the socket here (a slow peer would stall the filter
  // lane): it formats the line and stages it for deliver() to pop.
  void stage_projection(std::size_t shard,
                        const project::column_batch& batch) {
    for (std::size_t row = 0; row < batch.rows(); ++row) {
      std::string line;
      for (std::size_t col = 0; col < batch.columns.size(); ++col) {
        if (col > 0) line.push_back('\t');
        const std::string_view text = batch.columns[col].text_at(row);
        line.append(text.data(), text.size());
      }
      line.push_back('\n');
      projection_queue& q = *proj_queues[shard];
      std::lock_guard<std::mutex> lock(q.mutex);
      q.lines.push_back(std::move(line));
    }
  }

  // Find the shard's echo connection and write `payload` to it, dropping
  // this connection's echo stream on the first failed write (peer stopped
  // reading or vanished - ingest is unaffected).
  void echo_to_owner(std::size_t shard, std::string_view payload) {
    connection* owner = nullptr;
    {
      std::lock_guard<std::mutex> lock(echo_mutex);
      if (shard < echo_owner.size()) owner = echo_owner[shard];
    }
    if (owner == nullptr) return;
    std::lock_guard<std::mutex> lock(owner->write_mutex);
    if (!owner->peer_writable) return;
    try {
      write_all(owner->source.descriptor(), payload);
    } catch (const std::exception&) {
      owner->peer_writable = false;
    }
  }

  // The pipeline's verdict-bitmap sink (registered when the bitmap echo
  // or an on_verdict callback is configured). One text line per record:
  // a '1'/'0' per resident query in dense id order, '\n'-terminated - the
  // line length is the epoch's query count, which is what keeps a reader
  // in sync across runtime add/remove.
  void deliver_bits(std::size_t shard, std::uint64_t index,
                    std::span<const core::query_id> ids,
                    std::span<const std::uint64_t> words) {
    if (opts.on_verdict) opts.on_verdict(shard, index, ids, words);
    if (!opts.echo_query_bitmaps) return;
    // Render whole verdict words: each bitmap byte expands to eight
    // '0'/'1' characters with one SWAR multiply (bit q of byte lanes ->
    // byte q, normalised to 0/1, ASCII-biased) instead of a shift-and-
    // branch poke per resident query.
    std::string line(ids.size() + 1, '\n');
    char* out = line.data();
    std::size_t remaining = ids.size();
    for (std::size_t w = 0; remaining > 0; ++w) {
      std::uint64_t word = words[w];
      std::size_t take = remaining < 64 ? remaining : 64;
      remaining -= take;
      for (; take >= 8; take -= 8, word >>= 8, out += 8) {
        const std::uint64_t spread =
            ((word & 0xff) * 0x0101010101010101ull) & 0x8040201008040201ull;
        const std::uint64_t chars =
            (((spread + 0x7f7f7f7f7f7f7f7full) >> 7) & 0x0101010101010101ull) +
            0x3030303030303030ull;
        std::memcpy(out, &chars, sizeof chars);
      }
      for (; take > 0; --take, word >>= 1)
        *out++ = static_cast<char>('0' + (word & 1));
    }
    echo_to_owner(shard, line);
  }

  // One producer thread per connection: pull from the socket, push with
  // try_offer, drain only OUR lane under hard backpressure. EOF (peer
  // close or the drain path's shutdown_read) ends the loop; the bytes
  // already absorbed stay in the pipeline for finish().
  void serve(connection& c) {
    const int idle_ms = static_cast<int>(opts.idle_timeout.count());
    try {
      while (!c.source.exhausted()) {
        // serve() drains its chunk fully every round, so the source buffer
        // is empty here and the next peek() would block in recv(): the
        // idle guard bounds that wait. A drain's shutdown_read still wakes
        // the poll immediately (EOF counts as readable).
        if (idle_ms > 0 &&
            !wait_readable(c.source.descriptor(), idle_ms)) {
          idle_closed.fetch_add(1, std::memory_order_relaxed);
          c.source.shutdown_read();
          c.source.shutdown_write();
          break;
        }
        const std::string_view chunk = c.source.peek(opts.chunk_bytes);
        if (chunk.empty()) continue;  // EOF flips exhausted() next round
        std::string_view rest = chunk;
        while (!rest.empty()) {
          const auto taken = pipe->try_offer(c.shard, rest);
          if (!taken) return;  // pipeline finished under us: stop ingesting
          if (*taken == 0) {
            // Hard backpressure (counted in the shard's stats): make room
            // in our own lane and re-offer. Never touches other shards.
            (void)pipe->pump(c.shard);
            continue;
          }
          rest.remove_prefix(static_cast<std::size_t>(*taken));
        }
        c.source.consume(chunk.size());
        // Drain eagerly: verdicts (and their echo) leave per chunk, which
        // is what keeps per-record decision latency flat under load.
        (void)pipe->pump(c.shard);
      }
      (void)pipe->pump(c.shard);
    } catch (const std::exception&) {
      // Socket error on this connection only: its bytes so far are in the
      // pipeline; the service keeps running.
    }
  }

  void accept_loop() {
    const std::size_t shards = pipe->shard_count();
    while (!stopping.load(std::memory_order_acquire)) {
      // Bounded poll: a shutdown is noticed within one timeout even if no
      // client ever connects.
      socket_fd fd = accept_connection(listener, /*timeout_ms=*/100);
      if (!fd.valid()) continue;
      // Connection cap: shed at accept time, before a byte is read. The
      // socket closes immediately (RAII) - the peer sees EOF, the counter
      // makes the shed observable, and live producers are untouched.
      if (opts.max_connections > 0 &&
          live.load(std::memory_order_acquire) >= opts.max_connections) {
        refused.fetch_add(1, std::memory_order_relaxed);
        continue;
      }
      const std::size_t shard =
          accepted.load(std::memory_order_relaxed) % shards;
      auto conn = std::make_unique<connection>(shard, std::move(fd),
                                               opts.chunk_bytes);
      connection* raw = conn.get();
      {
        std::lock_guard<std::mutex> lock(conn_mutex);
        connections.push_back(std::move(conn));
      }
      {
        std::lock_guard<std::mutex> lock(echo_mutex);
        echo_owner[shard] = raw;
      }
      // Publish before the producer starts: a client that connected and
      // observed this count has its shard mapping fixed.
      live.fetch_add(1, std::memory_order_release);
      accepted.fetch_add(1, std::memory_order_release);
      raw->producer = std::thread([this, raw] {
        serve(*raw);
        live.fetch_sub(1, std::memory_order_release);
      });
    }
  }

  void stats_loop() {
    std::unique_lock<std::mutex> lock(stats_mutex);
    while (!stopping.load(std::memory_order_acquire)) {
      stats_cv.wait_for(lock, opts.stats_period);
      if (stopping.load(std::memory_order_acquire)) break;
      auto snapshot = pipe->stats();
      if (snapshot && opts.on_stats) opts.on_stats(*snapshot);
    }
  }

  expected<run_result> drain() {
    {
      std::lock_guard<std::mutex> lock(shutdown_mutex);
      if (shut_down)
        return unexpected("net: filter_service already shut down");
      shut_down = true;
    }
    stopping.store(true, std::memory_order_release);
    if (acceptor.joinable()) acceptor.join();
    listener.close();
    unlink_endpoint(bound);
    {
      // Half-close every read side: producers blocked in recv() wake with
      // EOF, absorb what they already buffered, and exit.
      std::lock_guard<std::mutex> lock(conn_mutex);
      for (auto& c : connections) c->source.shutdown_read();
    }
    // No lock while joining: producers take conn-independent paths only.
    for (auto& c : connections)
      if (c->producer.joinable()) c->producer.join();
    stats_cv.notify_all();
    if (stats_thread.joinable()) stats_thread.join();
    // Producers are quiescent: finish() flushes trailing records and
    // delivers the final verdicts - the echo flows out before the
    // connections close below.
    auto result = pipe->finish();
    for (auto& c : connections) c->source.shutdown_write();
    connections.clear();
    return result;
  }
};

filter_service::filter_service(std::unique_ptr<impl> im)
    : impl_(std::move(im)) {}

filter_service::~filter_service() {
  if (impl_) (void)impl_->drain();
}

filter_service::filter_service(filter_service&&) noexcept = default;
// The replaced service drains first, as on destruction: dropping a live
// impl would destroy its joinable acceptor thread.
filter_service& filter_service::operator=(filter_service&& other) noexcept {
  if (this != &other) {
    if (impl_) (void)impl_->drain();
    impl_ = std::move(other.impl_);
  }
  return *this;
}

expected<filter_service> filter_service::open(pipeline_builder builder,
                                              service_options options) {
  auto im = std::make_unique<impl>(std::move(options));
  impl* raw = im.get();
  // The service owns the builder's sink slot (applications hook
  // service_options::on_decision): every verdict funnels through
  // impl::deliver for the echo path. The impl address is stable - the
  // unique_ptr moves, the pointee does not.
  builder.on_decision(
      [raw](std::size_t shard, std::uint64_t index, bool accepted) {
        raw->deliver(shard, index, accepted);
      });
  // The verdict slot is only claimed when something consumes it: an
  // unconditional registration would flip single-query pipelines into
  // multi-tenant bookkeeping for nothing.
  if (raw->opts.echo_query_bitmaps || raw->opts.on_verdict)
    builder.on_verdict([raw](std::size_t shard, std::uint64_t index,
                             std::span<const core::query_id> ids,
                             std::span<const std::uint64_t> words) {
      raw->deliver_bits(shard, index, ids, words);
    });
  // Projection echo: derive the paths from the builder's query sources,
  // flush one batch per accepted record so each line can ride out with
  // that record's verdict, and stage lines for deliver() to write.
  if (raw->opts.echo_projection)
    builder.project().projection_batch_rows(1).on_projection(
        [raw](std::size_t shard, const project::column_batch& batch) {
          raw->stage_projection(shard, batch);
        });
  auto built = builder.build();
  if (!built) return unexpected(built.error());
  im->pipe.emplace(std::move(*built));
  if (im->opts.echo_projection) {
    im->proj_queues.reserve(im->pipe->shard_count());
    for (std::size_t s = 0; s < im->pipe->shard_count(); ++s)
      im->proj_queues.push_back(std::make_unique<impl::projection_queue>());
  }
  try {
    im->listener = listen_on(im->opts.listen);
    im->bound = local_endpoint(im->listener, im->opts.listen);
  } catch (const std::exception& e) {
    return unexpected(error_info::from(e));
  }
  im->echo_owner.assign(im->pipe->shard_count(), nullptr);
  im->acceptor = std::thread([raw] { raw->accept_loop(); });
  if (im->opts.stats_period.count() > 0 && im->opts.on_stats)
    im->stats_thread = std::thread([raw] { raw->stats_loop(); });
  return filter_service(std::move(im));
}

const endpoint& filter_service::where() const noexcept { return impl_->bound; }

std::size_t filter_service::shard_count() const noexcept {
  return impl_->pipe->shard_count();
}

std::uint64_t filter_service::connections_accepted() const noexcept {
  return impl_->accepted.load(std::memory_order_acquire);
}

std::uint64_t filter_service::connections_refused() const noexcept {
  return impl_->refused.load(std::memory_order_acquire);
}

std::uint64_t filter_service::connections_idle_closed() const noexcept {
  return impl_->idle_closed.load(std::memory_order_acquire);
}

expected<std::vector<system::shard_stats>> filter_service::stats() const {
  return impl_->pipe->stats();
}

expected<run_result> filter_service::shutdown() { return impl_->drain(); }

}  // namespace jrf::net
