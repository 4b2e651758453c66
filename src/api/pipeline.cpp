#include "api/pipeline.hpp"

#include <atomic>
#include <deque>
#include <mutex>
#include <optional>
#include <thread>
#include <utility>

#include "core/bitmaps.hpp"
#include "core/framer.hpp"
#include "project/tape.hpp"
#include "query/compile.hpp"
#include "query/parse.hpp"
#include "system/sharded.hpp"
#include "system/system.hpp"

namespace jrf {

namespace {

// One bound input, whatever shape the builder was given. Owned text and
// custom sources live here until run() consumes them.
struct input_spec {
  enum class kind { view, text, file, custom };

  kind k = kind::view;
  std::string_view view;
  std::string text;
  std::string path;
  std::unique_ptr<system::ingest_source> source;
};

std::unique_ptr<system::ingest_source> open_source(input_spec& in) {
  switch (in.k) {
    case input_spec::kind::view:
      return std::make_unique<system::memory_source>(in.view);
    case input_spec::kind::text:
      return std::make_unique<system::memory_source>(in.text);
    case input_spec::kind::file:
      return std::make_unique<system::chunked_file_source>(in.path);
    case input_spec::kind::custom:
      return std::move(in.source);
  }
  throw error("pipeline: invalid input binding");
}

}  // namespace

const char* to_string(backend_kind kind) {
  switch (kind) {
    case backend_kind::scalar: return "scalar";
    case backend_kind::chunked: return "chunked";
    case backend_kind::system: return "system";
    case backend_kind::sharded: return "sharded";
  }
  return "?";
}

std::string run_result::to_string() const {
  std::string out = report.to_string();
  if (shards.size() > 1) {
    std::uint64_t backpressure = 0;
    std::uint64_t hard = 0;
    for (const auto& s : shards) {
      backpressure += s.backpressure_events;
      hard += s.hard_backpressure_events;
    }
    out += " [" + std::to_string(shards.size()) +
           " shards, backpressure=" + std::to_string(backpressure) +
           " (hard=" + std::to_string(hard) + ")]";
  }
  return out;
}


// ---------------------------------------------------------------------------
// pipeline::impl - the execution state behind the facade. The streaming
// surface is the primitive; run() is a driver loop over it (plus the
// concurrent_runner policy when every input is its own shard).
//
// build() resolves the backend once: an engine kind, a stream count, a
// worker count and a modelled Figure-4 lane count. Every backend then runs
// on one system::sharded_filter_system - one lane per stream, so the
// single-stream backends are one lane - and every stream stages its
// decisions the same way: the lane's consume stream (take_decisions, plus
// verdict words when the epoch has more than one query) into the stream's
// history and delivery batches. The two execution branches left are the
// system backend's lane ledger and run()'s input binding.
//
// Locking. The facade no longer owns one global mutex: each stream carries
// its own gate, so producers on different shards never serialize above the
// per-lane locks of the sharded system. The lock order, for every path
// that holds more than one lock, is
//
//   state_mutex  >  router_mutex  >  stream gate s  >  sink_mutex s
//
// where state_mutex is never held while acquiring any later lock (the
// entry points validate under it, release, then take the locks they
// need), finish() acquires every gate in index order, and the decision
// sink is only ever invoked with NO internal lock held - which is what
// makes re-entrant offer()/try_offer()/pump() calls from a sink legal.

struct pipeline::impl {
  pipeline_options opts;
  std::optional<query::query> q;  // set when built from text / query
  core::expr_ptr expr;            // query 0 (the primary source)
  decision_sink sink;
  verdict_sink vsink;
  std::vector<input_spec> inputs;
  // run() binding: one shard per input (sharded backend), or every input
  // a segment of the one stream.
  bool shard_per_input = false;
  core::engine_kind engine_kind = core::engine_kind::chunked;  // resolved

  // --- multi-tenant query registry ---------------------------------------
  // qset names the resident queries (stable ids, dense order = bitmap bit
  // order); every epoch of the set is frozen into an immutable
  // query_registry snapshot so decision batches staged across a runtime
  // add/remove stay paired with the id set they actually decided under.
  // All mutation goes through mutation_mutex, which is never held while a
  // query compiles under a stream gate - the whole point of the epoch
  // scheme is that live traffic keeps flowing during the compile.
  struct query_registry {
    std::vector<core::query_id> ids;  // dense order, ascending
    /// (ordinal, sink) of the subscribed queries, ascending by ordinal:
    /// delivery visits only these, and an epoch copies only these.
    std::vector<std::pair<std::uint32_t, decision_sink>> sinks;
    std::uint64_t epoch = 0;  // 0 = the build-time set

    std::size_t wpr() const noexcept { return (ids.size() + 63) / 64; }

    /// Subscribe the query at `ordinal` to `sink`, replacing its old one
    /// (an empty sink unsubscribes it).
    void set_sink(std::size_t ordinal, decision_sink sink) {
      const auto q = static_cast<std::uint32_t>(ordinal);
      const auto it = std::lower_bound(
          sinks.begin(), sinks.end(), q,
          [](const auto& entry, std::uint32_t o) { return entry.first < o; });
      const bool held = it != sinks.end() && it->first == q;
      if (!sink) {
        if (held) sinks.erase(it);
      } else if (held) {
        it->second = std::move(sink);
      } else {
        sinks.emplace(it, q, std::move(sink));
      }
    }
  };
  using registry_ptr = std::shared_ptr<const query_registry>;

  core::query_set qset;        // resident queries (mutation_mutex)
  registry_ptr reg;            // current epoch snapshot (mutation_mutex)
  mutable std::mutex mutation_mutex;

  enum class phase { idle, streaming, done };
  std::atomic<phase> state{phase::idle};
  std::mutex state_mutex;  // guards phase transitions

  // One per stream: the gate serializes this stream's offers/pumps and
  // guards its history; the delivery half stages decision batches (under
  // the gate) so they can be handed to the sinks outside every lock, in
  // per-shard record order.
  struct stream_state {
    std::mutex gate;

    // Epoch of the engine currently resident on this stream.
    registry_ptr reg;

    // Every decision taken off the engine: the any-match column feeds
    // collect()'s decisions, and the per-epoch segments of verdict words
    // move into run_result::verdicts at the end. The last segment is always
    // the resident epoch's. A one-query epoch stores no words - its column
    // IS the any-match column - so a single-query stream keeps one bit per
    // record.
    verdict_matrix::history history;

    // One taken batch awaiting delivery, with the epoch it decided under
    // (carried once per batch, not per row).
    struct staged_batch {
      registry_ptr reg;
      std::uint64_t first = 0;  // per-shard index of any[0]
      std::vector<bool> any;
      std::vector<std::uint64_t> words;  // wpr() per row, or empty
    };
    std::mutex sink_mutex;          // guards the delivery fields below
    std::deque<staged_batch> staged;
    bool delivering = false;        // a flush loop is live for this shard
  };
  std::vector<std::unique_ptr<stream_state>> streams;

  // Record router behind the shard-less offer(bytes) overload on a
  // multi-stream pipeline: the engines' record framer plus round-robin
  // dealing of the complete records it frames.
  std::mutex router_mutex;
  core::record_framer router;
  std::size_t router_next_shard = 0;

  // Execution: one sharded-system lane per stream (FIFO, engine, stats).
  std::unique_ptr<system::sharded_filter_system> lanes;
  // System backend: the lane's record sizes dealt round-robin over the
  // modelled lanes (gate-guarded); the report then carries the Figure-4
  // cycle model. Without it every stream is one lane.
  std::optional<system::lane_ledger> ledger;

  // --- projection ---------------------------------------------------------
  // One extraction lane per stream, driven by the engines' accepted-record
  // hook. The hook fires under the lane mutex - the lock that orders that
  // shard's decisions - so batches flush, and the sink fires, strictly
  // BEFORE any flush_decisions can deliver the verdicts of the records
  // they contain.
  // collect() runs quiescent (run()/finish() exclusivity), so the final
  // partial-batch flush needs no extra lock; the pool-join / gate
  // hand-offs of the backends give the happens-before edges.
  bool project_enabled = false;
  project::path_set paths;  // frozen at build(); runtime adds don't extend
  projection_sink psink;
  struct projection_state {
    std::unique_ptr<project::extractor> extractor;
    std::vector<project::field_ref> refs;  // one per path, reused
    project::tape tape;
    std::unique_ptr<project::column_builder> builder;
    std::vector<project::column_batch> retained;  // no sink: run_result

    explicit projection_state(const project::path_set& p,
                              core::simd::simd_level level)
        : extractor(std::make_unique<project::extractor>(p, level)),
          refs(p.size()),
          tape(p.size()),
          builder(std::make_unique<project::column_builder>(p)) {}
  };
  std::vector<std::unique_ptr<projection_state>> projection;

  /// The accepted-record hook body of one shard: extract onto the tape,
  /// flush a batch every projection_batch_rows accepted records. Runs
  /// under the shard's decision-ordering lock (see above).
  void project_record(std::size_t shard, std::uint64_t ordinal,
                      std::span<const unsigned char> record,
                      const core::bitmap_pass& pass, std::size_t offset) {
    projection_state& ps = *projection[shard];
    ps.extractor->extract(record, pass, offset, ps.refs.data());
    ps.tape.add_record(ordinal, ps.refs, record);
    if (ps.tape.rows() >= opts.projection_batch_rows)
      flush_projection(shard);
  }

  /// Pivot the accumulated tape rows into one column batch and hand it to
  /// the sink (or retain it for run_result::projection). No-op when
  /// nothing accumulated - the final flush of an exactly-full stream.
  void flush_projection(std::size_t shard) {
    projection_state& ps = *projection[shard];
    if (ps.tape.rows() == 0) return;
    ps.builder->append(ps.tape);
    ps.tape.clear();
    project::column_batch batch = ps.builder->flush(shard);
    if (psink)
      psink(shard, batch);
    else
      ps.retained.push_back(std::move(batch));
  }

  /// Stand the execution up once, at build(): `shards` lanes pumped by
  /// `workers` threads, whose records the report deals over `model_lanes`
  /// Figure-4 lanes (0 = each stream is one lane).
  void bring_up(std::size_t shards, std::size_t workers, int model_lanes) {
    system::system_options so;
    so.dma_burst_bytes = opts.dma_burst_bytes;
    so.lane_fifo_bytes = opts.lane_fifo_bytes;
    so.worker_threads = workers;
    so.engine = engine_kind;
    so.filter = opts.filter;
    lanes = std::make_unique<system::sharded_filter_system>(
        qset.make_engine(engine_kind, opts.filter), shards, so);
    if (model_lanes > 0) ledger.emplace(model_lanes);
    router = core::record_framer(opts.filter.separator, opts.filter.simd);
    for (std::size_t shard = 0; shard < shards; ++shard) {
      streams.push_back(std::make_unique<stream_state>());
      streams.back()->reg = reg;
      open_segment(*streams.back());
      if (!project_enabled) continue;
      projection.push_back(
          std::make_unique<projection_state>(paths, opts.filter.simd));
      // The hook survives every swap_shard.
      lanes->set_accepted_hook(
          shard, [this, shard](std::uint64_t ordinal,
                               std::span<const unsigned char> record,
                               const core::bitmap_pass& pass,
                               std::size_t offset) {
            project_record(shard, ordinal, record, pass, offset);
          });
    }
  }

  bool sinks_for(const query_registry& r) const {
    return sink || vsink || !r.sinks.empty();
  }

  /// Open the resident epoch's segment at the stream's next record - even
  /// if the epoch then decides no record here, so every query ever
  /// resident has a column. The ids alias the registry snapshot.
  static void open_segment(stream_state& st) {
    st.history.segments.push_back(
        {std::shared_ptr<const std::vector<core::query_id>>(st.reg,
                                                            &st.reg->ids),
         st.history.any.size(), 0, {}});
  }

  /// Append one taken decision batch to the shard's history (the resident
  /// epoch's segment) and stage it for delivery when any sink wants it.
  /// Caller holds the gate; `taken` is the lane's consume-stream batch
  /// (words only when the epoch has more than one query). Returns the
  /// batch's record count.
  std::uint64_t archive_batch(
      std::size_t shard,
      system::sharded_filter_system::taken_decisions&& taken) {
    if (ledger)
      for (const std::uint32_t n : taken.sizes) ledger->deal(n);
    std::vector<bool>& any = taken.any;
    const std::size_t n = any.size();
    if (n == 0) return 0;
    stream_state& st = *streams[shard];
    const std::uint64_t first = st.history.any.size();
    st.history.any.insert(st.history.any.end(), any.begin(), any.end());
    verdict_matrix::segment& seg = st.history.segments.back();
    seg.records += n;
    seg.append(taken.words, st.reg->wpr());
    if (sinks_for(*st.reg)) {
      std::lock_guard<std::mutex> lock(st.sink_mutex);
      st.staged.push_back(
          {st.reg, first, std::move(any), std::move(taken.words)});
    }
    return n;
  }

  /// Take the decisions the lane emitted since the last call into the
  /// shard's history. Caller holds the shard's gate; the sinks are NOT
  /// invoked here - flush_decisions does that with no lock held. Returns
  /// how many new decisions were taken.
  std::uint64_t stage_decisions(std::size_t shard) {
    return archive_batch(shard, lanes->take_decisions(shard));
  }

  /// Hand staged decisions to the sinks, in record order, outside every
  /// internal lock - a sink may therefore re-enter the streaming surface.
  /// One flush loop runs per shard at a time: a second caller (including a
  /// re-entrant one) returns immediately and the live loop picks up
  /// whatever it staged.
  void flush_decisions(std::size_t shard) {
    stream_state& st = *streams[shard];
    std::unique_lock<std::mutex> lock(st.sink_mutex);
    if (st.delivering) return;
    st.delivering = true;
    while (!st.staged.empty()) {
      const stream_state::staged_batch batch = std::move(st.staged.front());
      st.staged.pop_front();
      lock.unlock();
      deliver(shard, batch);
      lock.lock();
    }
    st.delivering = false;
  }

  void deliver(std::size_t shard,
               const stream_state::staged_batch& batch) const {
    const query_registry& r = *batch.reg;
    const std::size_t wpr = r.wpr();
    std::uint64_t one_word = 0;  // a one-query epoch's row: the any bit
    for (std::size_t i = 0; i < batch.any.size(); ++i) {
      const std::uint64_t index = batch.first + i;
      const bool accepted = batch.any[i];
      if (sink) sink(shard, index, accepted);
      one_word = accepted ? 1 : 0;
      const std::uint64_t* row =
          batch.words.empty() ? &one_word : batch.words.data() + i * wpr;
      if (vsink)
        vsink(shard, index, std::span<const core::query_id>(r.ids),
              std::span<const std::uint64_t>(row, wpr));
      // Only the queries that actually have a sink are visited - the
      // registry indexes them once per epoch, so a 10k-query fleet with
      // two subscribed sinks costs two calls per record, not 10k probes.
      for (const auto& [qi, query_sink] : r.sinks)
        query_sink(shard, index, ((row[qi / 64] >> (qi % 64)) & 1u) != 0);
    }
  }

  /// Deal `bytes` into per-shard batches of complete records (round-robin,
  /// separator re-appended per record). Caller holds router_mutex; the
  /// trailing partial record stays in the framer until a later call (or
  /// finish) completes it.
  std::vector<std::string> route_records(std::string_view bytes) {
    std::vector<std::string> batches(streams.size());
    router.feed(bytes, [&](std::span<const unsigned char> record,
                           const auto&...) {
      std::string& batch = batches[router_next_shard];
      batch.append(reinterpret_cast<const char*>(record.data()), record.size());
      batch.push_back(static_cast<char>(opts.filter.separator));
      router_next_shard = (router_next_shard + 1) % streams.size();
    });
    return batches;
  }

  run_result collect() {
    run_result result;
    const system::sharded_report sr = lanes->report();
    result.shards = sr.shards;
    if (ledger) {
      // The Figure-4 model of the system backend: the stream's records
      // dealt over the modelled lanes.
      system::system_options modelled = lanes->options();
      modelled.lanes = ledger->lanes();
      result.report = system::model_report(modelled, sr.bytes, sr.records,
                                           sr.accepted, ledger->slowest());
    } else {
      result.report.bytes = sr.bytes;
      result.report.records = sr.records;
      result.report.accepted = sr.accepted;
      result.report.cycles = sr.cycles;
      result.report.stall_cycles = sr.stall_cycles;
      result.report.seconds = sr.seconds;
      result.report.gbytes_per_second = sr.gbytes_per_second;
      result.report.theoretical_gbps = sr.theoretical_gbps;
    }
    // Multi-tenant pipelines (more than one resident query, a verdict
    // sink, or any epoch swap) also report their verdict words: each
    // stream's history moves into the result as staged.
    const bool multi = vsink || reg->ids.size() > 1 || reg->epoch > 0;
    std::vector<verdict_matrix::history> histories;
    for (const auto& st : streams) {
      const std::vector<bool>& any = st->history.any;
      result.shard_decisions.push_back(any);
      result.decisions.insert(result.decisions.end(), any.begin(), any.end());
      if (multi) histories.push_back(std::move(st->history));
    }
    if (multi) {
      result.query_ids = reg->ids;
      result.verdicts = verdict_matrix(std::move(histories));
    }
    if (project_enabled) {
      // Quiescent by contract (run()/finish() exclusivity): flush each
      // shard's partial tail batch, then surface everything a sink did
      // not already consume.
      for (std::size_t shard = 0; shard < projection.size(); ++shard) {
        flush_projection(shard);
        projection_state& ps = *projection[shard];
        result.projection.insert(result.projection.end(),
                                 std::make_move_iterator(ps.retained.begin()),
                                 std::make_move_iterator(ps.retained.end()));
        ps.retained.clear();
      }
    }
    return result;
  }

  /// Pull `in` dry into the one stream, absorbing whatever the source
  /// holds each round: an in-memory input in one scan, a file per source
  /// chunk.
  void feed(input_spec& in) {
    const std::unique_ptr<system::ingest_source> source = open_source(in);
    while (!source->exhausted()) {
      const std::string_view chunk = source->peek(0);
      if (chunk.empty()) {
        // Throttled source, nothing this round: give the producer's clock
        // a chance to advance instead of pegging a core on the poll.
        std::this_thread::yield();
        continue;
      }
      lanes->absorb(0, chunk);
      source->consume(chunk.size());
    }
  }

  run_result run_batch() {
    if (shard_per_input) {
      system::concurrent_runner runner(*lanes, opts.dma_burst_bytes);
      for (std::size_t shard = 0; shard < inputs.size(); ++shard)
        runner.bind(shard, open_source(inputs[shard]));
      runner.run();
    } else {
      for (input_spec& in : inputs) feed(in);
      lanes->finish();
    }
    // run() is exclusive (state moved to done before this), so staging
    // needs no gates; the sink still fires outside the stage step.
    for (std::size_t shard = 0; shard < streams.size(); ++shard) {
      stage_decisions(shard);
      flush_decisions(shard);
    }
    return collect();
  }

  // --- runtime query management ------------------------------------------

  /// Why this pipeline cannot change its query set mid-stream, or nullopt
  /// when it can. A swap needs an engine that moves onto a new plan
  /// version keeping its in-flight record (swap_plan), which only the
  /// chunked engine does.
  std::optional<std::string> mutation_unsupported() const {
    if (engine_kind != core::engine_kind::chunked)
      return std::string(
          "pipeline: runtime add/remove needs the chunked engine - the "
          "scalar engine replays fixed byte-per-cycle pipelines that cannot "
          "change their query set mid-record");
    return std::nullopt;
  }

  /// New epoch snapshot for the current qset, carrying the per-query
  /// sinks of the old epoch over by id: a removed query's sink goes, the
  /// later ones shift to their new ordinals (order is kept, so the table
  /// stays sorted). Caller holds mutation_mutex.
  std::shared_ptr<query_registry> snapshot_registry() const {
    auto nreg = std::make_shared<query_registry>();
    nreg->ids = qset.ids();
    if (reg) {
      nreg->epoch = reg->epoch + 1;
      nreg->sinks.reserve(reg->sinks.size());
      for (const auto& [old, query_sink] : reg->sinks)
        if (qset.contains(reg->ids[old]))
          nreg->sinks.emplace_back(
              static_cast<std::uint32_t>(qset.ordinal(reg->ids[old])),
              query_sink);
    }
    return nreg;
  }

  /// Move every stream onto the `nreg` epoch - with the query set's next
  /// plan version when `rebuild` (add/remove), or registry-only (sink
  /// attach). Caller holds mutation_mutex. qset already applied the
  /// mutation's delta to its live plan outside every stream gate, so live
  /// traffic kept flowing; each stream now pauses only for its own drain
  /// and a pointer swap. Decisions taken during the swap archive under the
  /// OUTGOING epoch - those records decided before the new set existed.
  /// Streams not swapped yet keep deciding on the old version.
  void swap_epoch(registry_ptr nreg, bool rebuild) {
    std::shared_ptr<const core::plan_version> plan;
    if (rebuild) plan = qset.plan(opts.filter.simd);
    for (std::size_t shard = 0; shard < streams.size(); ++shard) {
      stream_state& st = *streams[shard];
      std::lock_guard<std::mutex> gate(st.gate);
      stage_decisions(shard);
      // swap_shard drains the FIFO under the OLD version first; its tail
      // decisions belong to the outgoing epoch. The projected path set
      // stays frozen - runtime adds decide normally but do not extend it.
      if (rebuild) archive_batch(shard, lanes->swap_shard(shard, plan));
      st.reg = nreg;
      open_segment(st);
    }
    reg = std::move(nreg);
    for (std::size_t shard = 0; shard < streams.size(); ++shard)
      flush_decisions(shard);
  }

  core::query_id add_query_impl(core::expr_ptr qexpr,
                                decision_sink query_sink) {
    if (!qexpr) throw error("pipeline: add_query(null expression)");
    std::lock_guard<std::mutex> mu(mutation_mutex);
    if (done()) throw error("pipeline: add_query() after finish()/run()");
    if (auto why = mutation_unsupported()) throw error(*why);
    // Compiles just this query into the live plan; a query that does not
    // compile throws here with the set and every stream untouched.
    const core::query_id id = qset.add(std::move(qexpr));
    auto nreg = snapshot_registry();
    if (query_sink) nreg->set_sink(qset.ordinal(id), std::move(query_sink));
    swap_epoch(std::move(nreg), true);
    return id;
  }

  void remove_query_impl(core::query_id id) {
    std::lock_guard<std::mutex> mu(mutation_mutex);
    if (done()) throw error("pipeline: remove_query() after finish()/run()");
    if (auto why = mutation_unsupported()) throw error(*why);
    if (!qset.contains(id))
      throw error("pipeline: remove_query(" + std::to_string(id) +
                  "): unknown query id");
    if (qset.size() == 1)
      throw error("pipeline: cannot remove the last resident query");
    qset.remove(id);
    swap_epoch(snapshot_registry(), true);
  }

  void attach_query_sink(core::query_id id, decision_sink s) {
    std::lock_guard<std::mutex> mu(mutation_mutex);
    if (done())
      throw error("pipeline: on_query_decision() after finish()/run()");
    if (!qset.contains(id))
      throw error("pipeline: on_query_decision(" + std::to_string(id) +
                  "): unknown query id");
    auto nreg = snapshot_registry();
    nreg->set_sink(qset.ordinal(id), std::move(s));
    // Registry-only epoch: the engines already evaluate this query, only
    // the delivery plan changes - every backend supports it.
    swap_epoch(std::move(nreg), false);
  }

  /// Shared entry gate of the streaming calls: validate under state_mutex,
  /// flip to streaming, stand the execution up. Returns an error message
  /// or nullopt; never holds state_mutex beyond the check.
  std::optional<std::string> enter_streaming(const char* op,
                                            std::size_t shard) {
    std::lock_guard<std::mutex> lock(state_mutex);
    if (state.load(std::memory_order_relaxed) == phase::done)
      return std::string("pipeline: ") + op + "() after finish()/run()";
    if (!inputs.empty())
      return std::string("pipeline: ") + op +
             "() on a pipeline with bound inputs - use run(), or build "
             "without inputs to stream";
    if (shard >= streams.size())
      return "pipeline: shard " + std::to_string(shard) +
             " out of range (" + std::to_string(streams.size()) +
             " streams)";
    state.store(phase::streaming, std::memory_order_relaxed);
    return std::nullopt;
  }

  bool done() const {
    return state.load(std::memory_order_acquire) == phase::done;
  }
};

// ---------------------------------------------------------------------------
// pipeline

pipeline::pipeline(std::unique_ptr<impl> impl) : impl_(std::move(impl)) {}
pipeline::~pipeline() = default;
pipeline::pipeline(pipeline&&) noexcept = default;
pipeline& pipeline::operator=(pipeline&&) noexcept = default;

pipeline_builder pipeline::make() { return pipeline_builder{}; }

const core::expr_ptr& pipeline::expression() const noexcept {
  return impl_->expr;
}

const query::query* pipeline::parsed_query() const noexcept {
  return impl_->q ? &*impl_->q : nullptr;
}

std::size_t pipeline::shard_count() const noexcept {
  return impl_->streams.size();
}

expected<run_result> pipeline::run() {
  {
    std::lock_guard<std::mutex> lock(impl_->state_mutex);
    if (impl_->state.load(std::memory_order_relaxed) != impl::phase::idle)
      return unexpected("pipeline: run() after the pipeline already executed "
                        "(streaming surface or a previous run)");
    if (impl_->inputs.empty())
      return unexpected("pipeline: run() needs at least one bound input "
                        "(input / input_text / input_file / source)");
    impl_->state.store(impl::phase::done, std::memory_order_release);
  }
  // state_mutex is released before the batch executes, so a sink that
  // (wrongly) re-enters the pipeline gets a clean error, not a deadlock.
  try {
    return impl_->run_batch();
  } catch (const parse_error& e) {
    return unexpected(error_info::from(e));
  } catch (const std::exception& e) {
    return unexpected(error_info::from(e));
  }
}

expected<std::uint64_t> pipeline::offer(std::size_t shard,
                                        std::string_view bytes) {
  try {
    if (auto err = impl_->enter_streaming("offer", shard))
      return unexpected(std::move(*err));
    impl::stream_state& st = *impl_->streams[shard];
    {
      std::lock_guard<std::mutex> gate(st.gate);
      // Re-check after winning the gate: a finish() that overtook us
      // (gates are taken after the state flips) must not be scanned past.
      if (impl_->done())
        return unexpected("pipeline: offer() after finish()/run()");
      impl_->lanes->absorb(shard, bytes);
      impl_->stage_decisions(shard);
    }
    impl_->flush_decisions(shard);
    return static_cast<std::uint64_t>(bytes.size());
  } catch (const std::exception& e) {
    return unexpected(error_info::from(e));
  }
}

expected<std::uint64_t> pipeline::offer(std::string_view bytes) {
  if (impl_->streams.size() <= 1) return offer(0, bytes);
  // Multi-stream pipeline, no shard named: deal complete records
  // round-robin (record k -> shard k % streams). The router is one shared
  // cursor, so shard-less producers serialize on it - producers that want
  // the concurrent path name their shard.
  try {
    if (auto err = impl_->enter_streaming("offer", 0))
      return unexpected(std::move(*err));
    {
      std::lock_guard<std::mutex> router(impl_->router_mutex);
      const std::vector<std::string> batches = impl_->route_records(bytes);
      for (std::size_t shard = 0; shard < batches.size(); ++shard) {
        if (batches[shard].empty()) continue;
        std::lock_guard<std::mutex> gate(impl_->streams[shard]->gate);
        if (impl_->done())
          return unexpected("pipeline: offer() after finish()/run()");
        impl_->lanes->absorb(shard, batches[shard]);
        impl_->stage_decisions(shard);
      }
    }
    for (std::size_t shard = 0; shard < impl_->streams.size(); ++shard)
      impl_->flush_decisions(shard);
    return static_cast<std::uint64_t>(bytes.size());
  } catch (const std::exception& e) {
    return unexpected(error_info::from(e));
  }
}

expected<std::uint64_t> pipeline::try_offer(std::size_t shard,
                                            std::string_view bytes) {
  try {
    if (auto err = impl_->enter_streaming("try_offer", shard))
      return unexpected(std::move(*err));
    std::lock_guard<std::mutex> gate(impl_->streams[shard]->gate);
    if (impl_->done())
      return unexpected("pipeline: try_offer() after finish()/run()");
    // Bounded by the lane's free FIFO space; never drains in-line, so
    // there is nothing new to stage or deliver.
    return static_cast<std::uint64_t>(impl_->lanes->offer(shard, bytes));
  } catch (const std::exception& e) {
    return unexpected(error_info::from(e));
  }
}

expected<std::uint64_t> pipeline::pump() {
  try {
    {
      std::lock_guard<std::mutex> lock(impl_->state_mutex);
      if (impl_->state.load(std::memory_order_relaxed) == impl::phase::done)
        return unexpected("pipeline: pump() after finish()/run()");
    }
    std::uint64_t observed = 0;
    for (std::size_t shard = 0; shard < impl_->streams.size(); ++shard) {
      {
        std::lock_guard<std::mutex> gate(impl_->streams[shard]->gate);
        if (impl_->done()) break;
        impl_->lanes->pump_shard(shard);
        observed += impl_->stage_decisions(shard);
      }
      impl_->flush_decisions(shard);
    }
    return observed;
  } catch (const std::exception& e) {
    return unexpected(error_info::from(e));
  }
}

expected<std::uint64_t> pipeline::pump(std::size_t shard) {
  try {
    {
      std::lock_guard<std::mutex> lock(impl_->state_mutex);
      if (impl_->state.load(std::memory_order_relaxed) == impl::phase::done)
        return unexpected("pipeline: pump() after finish()/run()");
      if (shard >= impl_->streams.size())
        return unexpected("pipeline: shard " + std::to_string(shard) +
                          " out of range (" +
                          std::to_string(impl_->streams.size()) +
                          " streams)");
    }
    std::uint64_t observed = 0;
    {
      std::lock_guard<std::mutex> gate(impl_->streams[shard]->gate);
      if (!impl_->done()) {
        impl_->lanes->pump_shard(shard);
        observed = impl_->stage_decisions(shard);
      }
    }
    impl_->flush_decisions(shard);
    return observed;
  } catch (const std::exception& e) {
    return unexpected(error_info::from(e));
  }
}

expected<run_result> pipeline::finish() {
  try {
    {
      std::lock_guard<std::mutex> lock(impl_->state_mutex);
      if (impl_->state.load(std::memory_order_relaxed) == impl::phase::done)
        return unexpected("pipeline: finish() after finish()/run()");
      if (!impl_->inputs.empty())
        return unexpected("pipeline: finish() on a pipeline with bound "
                          "inputs - use run()");
      impl_->state.store(impl::phase::done, std::memory_order_release);
    }
    // Quiesce: in-flight offers either finished before the store above or
    // will fail their post-gate re-check; waiting on every gate (in index
    // order, after the router so a shard-less offer cannot interleave)
    // guarantees the former have drained before the final flush.
    std::lock_guard<std::mutex> router(impl_->router_mutex);
    std::vector<std::unique_lock<std::mutex>> gates;
    gates.reserve(impl_->streams.size());
    for (auto& st : impl_->streams) gates.emplace_back(st->gate);
    // Trailing partial record of the shard-less overload: it belongs to
    // the shard the round-robin cursor owes it to.
    const std::vector<unsigned char> tail = impl_->router.take_carry();
    impl_->lanes->absorb(
        impl_->router_next_shard,
        {reinterpret_cast<const char*>(tail.data()), tail.size()});
    impl_->lanes->finish();
    for (std::size_t shard = 0; shard < impl_->streams.size(); ++shard)
      impl_->stage_decisions(shard);
    gates.clear();
    for (std::size_t shard = 0; shard < impl_->streams.size(); ++shard)
      impl_->flush_decisions(shard);
    return impl_->collect();
  } catch (const std::exception& e) {
    return unexpected(error_info::from(e));
  }
}

namespace {

core::expr_ptr compile_for(const pipeline_options& opts,
                           const query::query& q) {
  query::compile_options co;
  co.group = opts.group;
  return query::compile_default(q, opts.block, co);
}

}  // namespace

expected<core::query_id> pipeline::add_query(core::expr_ptr expr,
                                             decision_sink query_sink) {
  try {
    return impl_->add_query_impl(std::move(expr), std::move(query_sink));
  } catch (const std::exception& e) {
    return unexpected(error_info::from(e));
  }
}

expected<core::query_id> pipeline::add_query(std::string_view filter_expression,
                                             decision_sink query_sink,
                                             query::data_model model) {
  try {
    const query::query q =
        query::parse_filter_expression(filter_expression, model);
    return impl_->add_query_impl(compile_for(impl_->opts, q),
                                 std::move(query_sink));
  } catch (const parse_error& e) {
    return unexpected(error_info::from(e));
  } catch (const std::exception& e) {
    return unexpected(error_info::from(e));
  }
}

expected<core::query_id> pipeline::add_jsonpath(std::string_view text,
                                                decision_sink query_sink) {
  try {
    const query::query q = query::parse_jsonpath(text);
    return impl_->add_query_impl(compile_for(impl_->opts, q),
                                 std::move(query_sink));
  } catch (const parse_error& e) {
    return unexpected(error_info::from(e));
  } catch (const std::exception& e) {
    return unexpected(error_info::from(e));
  }
}

expected<bool> pipeline::remove_query(core::query_id id) {
  try {
    impl_->remove_query_impl(id);
    return true;
  } catch (const std::exception& e) {
    return unexpected(error_info::from(e));
  }
}

expected<bool> pipeline::on_query_decision(core::query_id id,
                                           decision_sink sink) {
  try {
    impl_->attach_query_sink(id, std::move(sink));
    return true;
  } catch (const std::exception& e) {
    return unexpected(error_info::from(e));
  }
}

std::vector<core::query_id> pipeline::query_ids() const {
  std::lock_guard<std::mutex> mu(impl_->mutation_mutex);
  return impl_->qset.ids();
}

expected<std::vector<system::shard_stats>> pipeline::stats() const {
  try {
    return impl_->lanes->report().shards;
  } catch (const std::exception& e) {
    return unexpected(error_info::from(e));
  }
}

// ---------------------------------------------------------------------------
// pipeline_builder

struct pipeline_builder::state {
  pipeline_options opts;
  enum class source_kind { filter_expr, jsonpath, parsed, expr };
  /// One query source: the primary (filter_expression / jsonpath /
  /// from_query / raw_filter) or an add_* resident query.
  struct query_source {
    source_kind k = source_kind::expr;
    std::string text;
    query::data_model model = query::data_model::flat;
    std::optional<query::query> parsed;
    core::expr_ptr expr;
  };
  // Resident queries in id order: entry 0 is the primary source once one
  // is set, then every add_* query in call order.
  std::vector<query_source> queries;
  bool has_primary = false;
  bool duplicate_query = false;
  bool consumed = false;    // build() succeeded; the builder is spent
  bool shards_set = false;  // shards() called explicitly
  std::optional<std::string> bad_simd;  // unparseable simd("...") argument

  std::vector<input_spec> inputs;
  decision_sink sink;
  verdict_sink vsink;

  // Projection: project() / project(path_set) / on_projection().
  bool project = false;
  std::optional<project::path_set> project_paths;  // explicit targets
  projection_sink psink;

  void set_primary(query_source src) {
    if (!has_primary) {
      queries.insert(queries.begin(), std::move(src));
      has_primary = true;
      return;
    }
    // Re-setting the same kind replaces it (the retry-after-parse-error
    // flow); mixing kinds is the misuse the duplicate diagnosis catches.
    if (queries.front().k != src.k) duplicate_query = true;
    queries.front() = std::move(src);
  }
};

pipeline_builder::pipeline_builder() : state_(std::make_unique<state>()) {}
pipeline_builder::~pipeline_builder() = default;
pipeline_builder::pipeline_builder(pipeline_builder&&) noexcept = default;
pipeline_builder& pipeline_builder::operator=(pipeline_builder&&) noexcept =
    default;

pipeline_builder& pipeline_builder::filter_expression(std::string_view text,
                                                      query::data_model model) {
  state_->set_primary(
      {state::source_kind::filter_expr, std::string(text), model, {}, {}});
  return *this;
}

pipeline_builder& pipeline_builder::jsonpath(std::string_view text) {
  state_->set_primary({state::source_kind::jsonpath, std::string(text),
                       query::data_model::flat, {}, {}});
  return *this;
}

pipeline_builder& pipeline_builder::from_query(query::query q) {
  state_->set_primary({state::source_kind::parsed, {},
                       query::data_model::flat, std::move(q), {}});
  return *this;
}

pipeline_builder& pipeline_builder::raw_filter(core::expr_ptr expr) {
  state_->set_primary({state::source_kind::expr, {}, query::data_model::flat,
                       {}, std::move(expr)});
  return *this;
}

pipeline_builder& pipeline_builder::add_filter_expression(
    std::string_view text, query::data_model model) {
  state_->queries.push_back(
      {state::source_kind::filter_expr, std::string(text), model, {}, {}});
  return *this;
}

pipeline_builder& pipeline_builder::add_jsonpath(std::string_view text) {
  state_->queries.push_back({state::source_kind::jsonpath, std::string(text),
                             query::data_model::flat, {}, {}});
  return *this;
}

pipeline_builder& pipeline_builder::add_query(query::query q) {
  state_->queries.push_back({state::source_kind::parsed, {},
                             query::data_model::flat, std::move(q), {}});
  return *this;
}

pipeline_builder& pipeline_builder::add_raw_filter(core::expr_ptr expr) {
  state_->queries.push_back({state::source_kind::expr, {},
                             query::data_model::flat, {}, std::move(expr)});
  return *this;
}

pipeline_builder& pipeline_builder::block(int b) {
  state_->opts.block = b;
  return *this;
}

pipeline_builder& pipeline_builder::group(core::group_kind kind) {
  state_->opts.group = kind;
  return *this;
}

pipeline_builder& pipeline_builder::backend(backend_kind kind) {
  state_->opts.backend = kind;
  return *this;
}

pipeline_builder& pipeline_builder::lanes(int n) {
  state_->opts.lanes = n;
  return *this;
}

pipeline_builder& pipeline_builder::shards(std::size_t n) {
  state_->opts.shards = n;
  state_->shards_set = true;
  return *this;
}

pipeline_builder& pipeline_builder::worker_threads(std::size_t n) {
  state_->opts.worker_threads = n;
  return *this;
}

pipeline_builder& pipeline_builder::lane_fifo_bytes(std::size_t n) {
  state_->opts.lane_fifo_bytes = n;
  return *this;
}

pipeline_builder& pipeline_builder::dma_burst_bytes(std::size_t n) {
  state_->opts.dma_burst_bytes = n;
  return *this;
}

pipeline_builder& pipeline_builder::engine(core::engine_kind kind) {
  state_->opts.engine = kind;
  return *this;
}

pipeline_builder& pipeline_builder::separator(unsigned char s) {
  state_->opts.filter.separator = s;
  return *this;
}

pipeline_builder& pipeline_builder::simd(core::simd::simd_level level) {
  state_->opts.filter.simd = level;
  state_->bad_simd.reset();
  return *this;
}

pipeline_builder& pipeline_builder::simd(std::string_view level) {
  // Unknown names are diagnosed at build(), keeping the fluent chain
  // noexcept like every other setter.
  const auto parsed = core::simd::parse_level(level);
  if (parsed.has_value()) {
    state_->opts.filter.simd = *parsed;
    state_->bad_simd.reset();
  } else {
    state_->bad_simd = std::string(level);
  }
  return *this;
}

pipeline_builder& pipeline_builder::input(std::string_view buffer) {
  input_spec in;
  in.k = input_spec::kind::view;
  in.view = buffer;
  state_->inputs.push_back(std::move(in));
  return *this;
}

pipeline_builder& pipeline_builder::input_text(std::string text) {
  input_spec in;
  in.k = input_spec::kind::text;
  in.text = std::move(text);
  state_->inputs.push_back(std::move(in));
  return *this;
}

pipeline_builder& pipeline_builder::input_file(std::string path) {
  input_spec in;
  in.k = input_spec::kind::file;
  in.path = std::move(path);
  state_->inputs.push_back(std::move(in));
  return *this;
}

pipeline_builder& pipeline_builder::source(
    std::unique_ptr<system::ingest_source> src) {
  input_spec in;
  in.k = input_spec::kind::custom;
  in.source = std::move(src);
  state_->inputs.push_back(std::move(in));
  return *this;
}

pipeline_builder& pipeline_builder::on_decision(decision_sink sink) {
  state_->sink = std::move(sink);
  return *this;
}

pipeline_builder& pipeline_builder::on_verdict(verdict_sink sink) {
  state_->vsink = std::move(sink);
  return *this;
}

pipeline_builder& pipeline_builder::project() {
  state_->project = true;
  return *this;
}

pipeline_builder& pipeline_builder::project(project::path_set paths) {
  state_->project = true;
  state_->project_paths = std::move(paths);
  return *this;
}

pipeline_builder& pipeline_builder::projection_batch_rows(std::size_t rows) {
  state_->opts.projection_batch_rows = rows;
  return *this;
}

pipeline_builder& pipeline_builder::on_projection(projection_sink sink) {
  // A sink implies projection (derive mode unless project(path_set) also
  // names the targets explicitly).
  state_->project = true;
  state_->psink = std::move(sink);
  return *this;
}

expected<pipeline> pipeline_builder::build() {
  state& s = *state_;
  if (s.consumed)
    return unexpected("pipeline builder: build() already consumed this "
                      "builder");

  // --- configuration validation (before any parsing work) ---
  if (!s.has_primary)
    return unexpected("pipeline: no query source given - call one of "
                      "filter_expression / jsonpath / from_query / "
                      "raw_filter");
  if (s.duplicate_query)
    return unexpected("pipeline: more than one query source given - exactly "
                      "one of filter_expression / jsonpath / from_query / "
                      "raw_filter");
  if (s.opts.dma_burst_bytes == 0)
    return unexpected("pipeline: dma_burst_bytes must be non-zero");
  if (s.opts.lane_fifo_bytes == 0)
    return unexpected("pipeline: lane_fifo_bytes must be non-zero");
  if (s.opts.block < 0)
    return unexpected("pipeline: negative block length");
  if (s.bad_simd)
    return unexpected("pipeline: unknown simd level \"" + *s.bad_simd +
                      "\" - one of auto / scalar / sse2 / avx2 / avx512");
  if (s.opts.backend == backend_kind::system && s.opts.lanes < 1)
    return unexpected("pipeline: the system backend needs at least one lane");
  for (const input_spec& in : s.inputs)
    if (in.k == input_spec::kind::custom && !in.source)
      return unexpected("pipeline: null ingest source bound");
  for (std::size_t i = 0; i < s.queries.size(); ++i)
    if (s.queries[i].k == state::source_kind::expr && !s.queries[i].expr)
      return unexpected(i == 0 ? "pipeline: raw_filter(null expression)"
                               : "pipeline: add_raw_filter(null expression)");
  if (s.opts.backend == backend_kind::sharded) {
    if (s.inputs.empty() && s.opts.shards == 0)
      return unexpected("pipeline: the sharded backend needs shards >= 1 "
                        "(or bound inputs, one shard each)");
    if (s.shards_set && !s.inputs.empty() &&
        s.opts.shards != s.inputs.size())
      return unexpected("pipeline: shards(" + std::to_string(s.opts.shards) +
                        ") conflicts with " + std::to_string(s.inputs.size()) +
                        " bound inputs - sharded mode binds one shard per "
                        "input");
  }

  // --- backend resolution: the one place backend_kind is consulted. The
  // result is an engine kind, a stream count with its worker threads, and
  // the Figure-4 lanes the system backend models. Every backend but
  // sharded is one stream, pumped on the calling thread.
  core::engine_kind engine = s.opts.engine;
  std::size_t shards = 1;
  std::size_t workers = 0;
  int model_lanes = 0;
  bool shard_per_input = false;
  switch (s.opts.backend) {
    case backend_kind::scalar:
      engine = core::engine_kind::scalar;
      break;
    case backend_kind::chunked:
      engine = core::engine_kind::chunked;
      break;
    case backend_kind::system:
      model_lanes = s.opts.lanes;
      break;
    case backend_kind::sharded:
      shards = s.inputs.empty() ? s.opts.shards : s.inputs.size();
      workers = s.opts.worker_threads;
      shard_per_input = true;
      break;
  }

  if (s.project) {
    if (engine != core::engine_kind::chunked)
      return unexpected("pipeline: projection needs the chunked engine - "
                        "the scalar engine cannot surface accepted records");
    if (s.opts.projection_batch_rows == 0)
      return unexpected("pipeline: projection_batch_rows must be non-zero");
    // The extraction walk reads the records' structural bitmap; a record
    // separator that IS a structural byte would fold separator hits into
    // the walk's event stream.
    if (std::string_view("{}[],\"").find(
            static_cast<char>(s.opts.filter.separator)) !=
        std::string_view::npos)
      return unexpected("pipeline: projection cannot run with a JSON "
                        "structural byte as the record separator");
    if (s.project_paths && s.project_paths->empty())
      return unexpected("pipeline: project(path_set) given an empty set");
  }

  // --- parse + compile: the exception/expected boundary. parse_error byte
  // offsets cross it intact via error_info::offset. A failed build leaves
  // the builder fully retryable: the sink and query sources are copied,
  // and the (move-only) inputs are handed back on the error path.
  auto impl = std::make_unique<pipeline::impl>();
  impl->opts = s.opts;
  impl->sink = s.sink;
  impl->vsink = s.vsink;
  impl->inputs = std::move(s.inputs);
  impl->shard_per_input = shard_per_input;
  impl->engine_kind = engine;
  try {
    // The resident query set in id order (the primary source is query 0).
    // Projection derive mode reads the parsed query forms, so they are
    // kept alongside the compiled expressions; raw expressions carry no
    // attribute names - derive mode refuses them below.
    std::vector<query::query> parsed_queries;
    bool raw_expr_query = false;
    for (const state::query_source& src : s.queries) {
      std::optional<query::query> parsed;
      switch (src.k) {
        case state::source_kind::filter_expr:
          parsed = query::parse_filter_expression(src.text, src.model);
          break;
        case state::source_kind::jsonpath:
          parsed = query::parse_jsonpath(src.text);
          break;
        case state::source_kind::parsed:
          parsed = src.parsed;
          break;
        case state::source_kind::expr:
          break;
      }
      core::expr_ptr compiled =
          parsed ? compile_for(s.opts, *parsed) : src.expr;
      if (impl->qset.size() == 0) {
        impl->q = parsed;
        impl->expr = compiled;
      }
      impl->qset.add(std::move(compiled));
      if (parsed)
        parsed_queries.push_back(std::move(*parsed));
      else
        raw_expr_query = true;
    }
    if (s.project) {
      if (s.project_paths) {
        impl->paths = *s.project_paths;
      } else {
        if (raw_expr_query)
          throw error("pipeline: projection cannot derive paths from a raw "
                      "filter expression - name the targets with "
                      "project(path_set)");
        impl->paths = project::derive_paths(parsed_queries);
      }
      if (impl->paths.empty())
        throw error("pipeline: projection derived no paths from the "
                    "resident queries");
      impl->project_enabled = true;
      impl->psink = s.psink;
    }
    impl->reg = impl->snapshot_registry();
    // Stand the execution state up eagerly: engine compilation and the
    // worker pool belong to build(), so run()/offer() spend their time on
    // steady-state filtering only (the wall-clock benches time run()
    // alone, matching a pre-constructed filter_system).
    impl->bring_up(shards, workers, model_lanes);
  } catch (const std::exception& e) {
    s.inputs = std::move(impl->inputs);
    const auto* pe = dynamic_cast<const parse_error*>(&e);
    return unexpected(pe ? error_info::from(*pe) : error_info::from(e));
  }

  s.consumed = true;
  return pipeline(std::move(impl));
}

}  // namespace jrf
