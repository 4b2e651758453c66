// jrf::pipeline - the one public entry point from query text to filtered
// decisions (the deployment flow of the paper: compile a query to a raw
// filter, replicate it across lanes, feed it a byte stream at line rate).
//
// The inner layers stay exposed for tests and research code, but every
// example, bench driver and embedding application stands the system up the
// same way:
//
//   auto built = jrf::pipeline::make()
//                    .jsonpath(R"($.e[?(@.n=="temperature" & @.v >= 0.7
//                                       & @.v <= 35.1)])")
//                    .backend(jrf::backend_kind::sharded)
//                    .worker_threads(4)
//                    .input(feed0).input(feed1)
//                    .build();                  // expected<pipeline>
//   if (!built) { /* built.error().message, built.error().offset */ }
//   auto result = built->run();                 // expected<run_result>
//
// Query sources (exactly one primary): filter-expression text (Table VIII
// syntax), JSONPath text (Listing 2), a parsed query::query, or a prebuilt
// core::expr_ptr. A pipeline may additionally host a whole query FLEET:
// add_filter_expression()/add_jsonpath()/add_query()/add_raw_filter()
// append resident queries at build time, and add_query()/remove_query()
// swap them in and out at runtime without stalling the stream. All
// resident queries compile into ONE shared evaluation plan (single bitmap
// pass and framing walk per ingest buffer, primitive engines interned by
// spec key), each record gets a per-query decision bitmap, and the
// any-match decision keeps its single-query meaning. Every backend runs
// on one system::sharded_filter_system - one lane (bounded FIFO + engine)
// per stream - and the backend picks the engine, the stream count and the
// report; decisions are byte-identical across all four:
//
//   scalar  - one lane of core::filter_engine(scalar): the paper-faithful
//             byte-per-cycle reference path,
//   chunked - one lane of core::filter_engine(chunked): the batched hot
//             path,
//   system  - one lane of core::filter_engine(engine) with
//             system::filter_system's decisions and Figure-4 report: the
//             lane's record sizes are dealt round-robin over `lanes`
//             modelled replicated lanes,
//   sharded - `shards` lanes (one per bound input in batch mode), an
//             optional worker pool, and concurrent_runner driving run().
//
// The API boundary is non-throwing: build(), run(), offer(), try_offer(),
// pump() and finish() return jrf::expected, preserving parse_error byte
// offsets. Batch mode binds inputs up front and calls run() once;
// streaming mode pushes bytes with offer() (blocking: drains the lane and
// scans the bytes in place) or try_offer() (non-blocking: bounded by the
// lane's free FIFO space, never drains in-line) and collects the tail
// with finish(). A decision sink registered with on_decision() receives
// every per-record verdict as lanes drain, so push producers can consume
// matches without buffering them.
//
// Concurrency contract of the streaming surface: calls on DIFFERENT
// shards run concurrently - each stream carries its own lock, so N
// producer threads feeding N shards never serialize on the facade (the
// per-lane locks underneath were always there; the facade no longer adds
// a global mutex on top). Calls on the SAME shard are serialized.
// Decisions are delivered to the sink outside every internal lock, in
// per-shard record order, so a sink may safely call back into offer() /
// try_offer() / pump() (re-entrant finish()/run() are diagnosed as
// errors, never deadlocks).
#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <optional>
#include <span>
#include <string>
#include <string_view>
#include <vector>

#include "api/result.hpp"
#include "core/expr.hpp"
#include "core/filter_engine.hpp"
#include "core/query_set.hpp"
#include "project/columns.hpp"
#include "project/paths.hpp"
#include "query/ir.hpp"
#include "system/ingest.hpp"
#include "util/error.hpp"

namespace jrf {

enum class backend_kind { scalar, chunked, system, sharded };

const char* to_string(backend_kind kind);

/// Per-record verdict callback: (shard, record index within that shard's
/// stream, accepted).
using decision_sink =
    std::function<void(std::size_t, std::uint64_t, bool)>;

/// Per-record decision-bitmap callback of a multi-tenant pipeline:
/// (shard, record index within that shard's stream, resident query ids in
/// dense order, bitmap words - (ids.size() + 63) / 64 little-endian words,
/// bit q = ids[q] accepted this record). The spans are valid only for the
/// duration of the call; the id snapshot is the set the record actually
/// decided under, so verdicts staged across a runtime add/remove carry
/// their own epoch.
using verdict_sink = std::function<void(
    std::size_t, std::uint64_t, std::span<const core::query_id>,
    std::span<const std::uint64_t>)>;

/// Projected-fields callback of a projecting pipeline: (shard, batch). The
/// batch's `records` carry the same per-shard record indices the decision
/// sink sees. UNLIKE the decision sinks, the projection sink is invoked
/// SYNCHRONOUSLY inside the pipeline's internal locks, at the moment the
/// accepted record is decided - that ordering guarantee (the batch for
/// record k is delivered before any decision sink can report k) is what
/// lets a consumer pair verdicts with fields without buffering. The sink
/// must therefore NOT call back into the pipeline; distinct shards may
/// invoke it concurrently, the same shard never does.
using projection_sink =
    std::function<void(std::size_t, const project::column_batch&)>;

/// The builder's option block: every field is set through its
/// pipeline_builder setter and defaults to the value shown.
struct pipeline_options {
  backend_kind backend = backend_kind::system;

  // Execution. The modelled clock and DMA setup cost are the
  // system::system_options defaults (200 MHz, 12 cycles).
  int lanes = 7;                   // system backend: modelled lanes
  std::size_t shards = 1;          // sharded streaming: lane/FIFO count
  std::size_t worker_threads = 0;  // sharded: pool pumping the lanes
  std::size_t lane_fifo_bytes = 8192;  // every stream's lane FIFO
  std::size_t dma_burst_bytes = 4096;
  core::engine_kind engine = core::engine_kind::chunked;  // system/sharded

  // Projection: accepted records per columnar batch. A registered
  // on_projection sink receives a batch whenever a shard accumulates this
  // many accepted records (plus one final partial batch at finish/run);
  // without a sink the batches land in run_result::projection.
  std::size_t projection_batch_rows = 1024;

  // Compilation (ignored when built from a prebuilt core::expr_ptr).
  int block = 1;                          // string-matcher block length B
  std::optional<core::group_kind> group;  // group-kind override

  core::filter_options filter;  // separator byte, tracker depth bits
};

class pipeline;

/// Fluent builder. Every setter returns *this; build() validates the whole
/// configuration and returns expected<pipeline> - it never throws.
class pipeline_builder {
 public:
  pipeline_builder();
  ~pipeline_builder();
  pipeline_builder(pipeline_builder&&) noexcept;
  pipeline_builder& operator=(pipeline_builder&&) noexcept;

  // --- query source (exactly one required; re-setting the same kind
  // replaces it, e.g. retrying corrected text after a parse error) ---
  /// Table VIII filter-expression text, e.g.
  /// (0.7 <= "temperature" <= 35.1) AND (12 <= "airquality_raw" <= 49).
  pipeline_builder& filter_expression(
      std::string_view text,
      query::data_model model = query::data_model::flat);
  /// JSONPath text (the paper's Listing 2 subset); always SenML model.
  pipeline_builder& jsonpath(std::string_view text);
  /// An already parsed / programmatically built query.
  pipeline_builder& from_query(query::query q);
  /// A prebuilt raw-filter expression (skips query compilation; block and
  /// group options are ignored).
  pipeline_builder& raw_filter(core::expr_ptr expr);

  // --- additional resident queries (multi-tenant query set) ---
  // The primary source above is query 0; each add_* appends one more
  // resident query, all compiled into ONE shared evaluation plan (one
  // bitmap pass and framing walk per ingest buffer, primitive engines
  // interned by spec key across queries). Ids are assigned in call order
  // starting at 1; pipeline::query_ids() returns them after build.
  pipeline_builder& add_filter_expression(
      std::string_view text,
      query::data_model model = query::data_model::flat);
  pipeline_builder& add_jsonpath(std::string_view text);
  pipeline_builder& add_query(query::query q);
  pipeline_builder& add_raw_filter(core::expr_ptr expr);

  // --- compile options ---
  pipeline_builder& block(int b);
  pipeline_builder& group(core::group_kind kind);

  // --- execution backend ---
  pipeline_builder& backend(backend_kind kind);
  pipeline_builder& lanes(int n);
  pipeline_builder& shards(std::size_t n);
  pipeline_builder& worker_threads(std::size_t n);
  pipeline_builder& lane_fifo_bytes(std::size_t n);
  pipeline_builder& dma_burst_bytes(std::size_t n);
  pipeline_builder& engine(core::engine_kind kind);
  pipeline_builder& separator(unsigned char s);
  /// Vector tier of the bulk scans (default automatic = runtime CPU
  /// dispatch clamped by JRF_FORCE_SCALAR / JRF_SIMD_LEVEL). Decisions are
  /// identical at every level; only wall-clock differs.
  pipeline_builder& simd(core::simd::simd_level level);
  /// Same, by name ("auto", "scalar", "sse2", "avx2", "avx512");
  /// unknown names surface as api::error at build().
  pipeline_builder& simd(std::string_view level);

  // --- inputs (sharded: one shard per input; other backends: sequential
  // segments of the single stream) ---
  /// Caller-owned buffer, zero copy; must outlive run().
  pipeline_builder& input(std::string_view buffer);
  /// Pipeline-owned copy of the text.
  pipeline_builder& input_text(std::string text);
  /// Streamed from disk in bounded chunks; missing files surface as an
  /// expected error from run(), not at build time.
  pipeline_builder& input_file(std::string path);
  /// Custom pull-based producer.
  pipeline_builder& source(std::unique_ptr<system::ingest_source> src);

  // --- decision push sinks ---
  pipeline_builder& on_decision(decision_sink sink);
  /// Per-record decision bitmap (multi-tenant). With one resident query
  /// the bitmap is one word holding the any-match bit; registering it
  /// also makes run_result report its verdict matrix.
  pipeline_builder& on_verdict(verdict_sink sink);

  // --- projection (src/project/: structural-tape field extraction) ---
  /// Extract the queried JSON paths of every ACCEPTED record into columnar
  /// batches - rejected records cost nothing beyond the verdict. The
  /// no-argument form derives the path targets from the resident queries
  /// (every predicate attribute, deduped across the fleet; requires
  /// parseable query sources, not raw expressions); the path_set overload
  /// names them explicitly. The set is frozen at build(): queries added at
  /// runtime decide normally but do NOT extend the projected paths.
  /// Projection needs the chunked engine, which materialises bitmap
  /// passes (the same rule as runtime add/remove): the chunked backend,
  /// or system/sharded with engine(chunked) - the scalar engine is
  /// rejected at build().
  pipeline_builder& project();
  pipeline_builder& project(project::path_set paths);
  /// Accepted records per batch (default 1024; 1 = one batch per record).
  pipeline_builder& projection_batch_rows(std::size_t rows);
  /// Per-batch push sink (see projection_sink's ordering/locking
  /// contract). Registering one implies project() if not already set;
  /// without one, batches accumulate into run_result::projection.
  pipeline_builder& on_projection(projection_sink sink);

  /// Validate, parse and compile. All failures - malformed query text
  /// (with its parse_error byte offset), zero lanes/shards/FIFO/burst,
  /// missing or duplicate query source - come back as expected errors.
  expected<pipeline> build();

 private:
  struct state;
  std::unique_ptr<state> state_;
};

/// A built pipeline: one compiled query bound to one execution backend.
/// Use either the batch surface (inputs bound in the builder + run()) or
/// the streaming surface (offer()/pump()/finish()), never both.
class pipeline {
 public:
  ~pipeline();
  pipeline(pipeline&&) noexcept;
  pipeline& operator=(pipeline&&) noexcept;

  /// Entry point of the fluent flow: jrf::pipeline::make()...build().
  static pipeline_builder make();

  /// Drive every bound input to exhaustion under backpressure and report.
  /// Callable once; errors if the streaming surface was used.
  expected<run_result> run();

  /// Streaming push into `shard` (sharded backend) or the single stream
  /// (other backends, shard 0). Absorbs the whole view and returns its
  /// size: the shard's lane FIFO drains first (only this shard's lane),
  /// then the bytes are scanned in place, never copied through the FIFO.
  expected<std::uint64_t> offer(std::size_t shard, std::string_view bytes);

  /// Convenience overload without a shard. Single-stream pipelines feed
  /// shard 0. A multi-shard sharded pipeline deals complete records
  /// round-robin across its shards (record k of the merged input goes to
  /// shard k % shard_count() at per-shard index k / shard_count()), framed
  /// by the engines' core::record_framer: a separator inside a string
  /// literal ends no record (data::shard_records splits there). A record
  /// split across offer() calls is carried until its boundary arrives
  /// (finish() flushes a trailing partial record to the shard it was
  /// destined for); empty records decide nothing. Decision order is per
  /// shard; interleave shard_decisions round-robin to recover the merged
  /// input order.
  expected<std::uint64_t> offer(std::string_view bytes);

  /// Non-blocking push: absorb at most what `shard` can take right now
  /// and return the byte count - on every backend, the lane's free FIFO
  /// space (lane_fifo_bytes). 0 means hard backpressure (counted in that
  /// shard's hard_backpressure_events); the caller re-offers the rest
  /// after pump(shard), throttles, or sheds. try_offer() never drains a
  /// FIFO in-line, so its bytes decide at the next pump() / offer() /
  /// finish() on that shard.
  expected<std::uint64_t> try_offer(std::size_t shard,
                                    std::string_view bytes);

  /// Drain buffered lane bytes and deliver pending verdicts to the sink;
  /// returns how many new decisions were observed. The one-argument form
  /// pumps a single shard's lane - the partner of try_offer() for a
  /// producer that must not touch other shards.
  expected<std::uint64_t> pump();
  expected<std::uint64_t> pump(std::size_t shard);

  /// Flush trailing unterminated records, deliver the final verdicts and
  /// return the merged result. Ends the streaming surface.
  expected<run_result> finish();

  // --- runtime query management (multi-tenant) ---
  // add_query()/remove_query() move every stream onto the next version of
  // one incremental shared plan WITHOUT stalling the stream. The plan
  // compiles only the delta, outside every stream lock (live traffic keeps
  // flowing): an add builds just the primitives the pool lacks and threads
  // one trie path, a remove prunes one path and shifts later ordinals - a
  // swap costs about 0.2-0.3 ms at 10k resident queries, not a recompile
  // of the fleet. Each stream then pauses only for its own drain and a
  // pointer swap onto the immutable new version; streams not swapped yet
  // keep deciding on the old one. Bytes offered before the swap decide
  // under the outgoing query set, bytes after under the incoming one -
  // never half-and-half; a record in flight at the swap decides under the
  // incoming set. Requires the chunked engine: the chunked backend, or
  // system / sharded with engine(chunked); the scalar engine reports an
  // error. A query that does not compile is rejected with the set and
  // every stream untouched. The optional per-query sink receives (shard,
  // per-shard record index, accepted) for THAT query only, while it is
  // resident.
  expected<core::query_id> add_query(core::expr_ptr expr,
                                     decision_sink query_sink = nullptr);
  /// Table VIII filter-expression text, compiled with the builder's
  /// block/group options.
  expected<core::query_id> add_query(
      std::string_view filter_expression, decision_sink query_sink = nullptr,
      query::data_model model = query::data_model::flat);
  expected<core::query_id> add_jsonpath(std::string_view text,
                                        decision_sink query_sink = nullptr);
  /// Errors on an unknown id and on the last resident query (a pipeline
  /// always evaluates at least one).
  expected<bool> remove_query(core::query_id id);
  /// Attach (or replace; nullptr detaches) the per-query sink of a
  /// resident query. Works on every backend - no engine swap involved.
  expected<bool> on_query_decision(core::query_id id, decision_sink sink);
  /// Resident query ids, dense order == decision-bitmap bit order.
  std::vector<core::query_id> query_ids() const;

  /// Live per-shard accounting snapshot (offered/filtered bytes, records,
  /// accepted, backpressure counters) - safe to call concurrently with
  /// streaming producers, e.g. for a periodic service stats report.
  expected<std::vector<system::shard_stats>> stats() const;

  const core::expr_ptr& expression() const noexcept;
  /// The parsed query when built from text or query::query (for exact
  /// ground-truth cross-checks); nullptr when built from a raw expr.
  const query::query* parsed_query() const noexcept;
  /// Streams this pipeline executes: bound inputs (batch) or the
  /// configured shard count (streaming).
  std::size_t shard_count() const noexcept;

 private:
  friend class pipeline_builder;
  struct impl;
  explicit pipeline(std::unique_ptr<impl> impl);
  std::unique_ptr<impl> impl_;
};

}  // namespace jrf
