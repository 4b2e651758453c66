// Shared pieces of the filter-path benchmark: clocks and order statistics,
// the seeded corpora, the per-record reference verdicts every check
// compares against, the span recorder of traced runs, and the report that
// collects metrics and check failures for main.cpp to print.
#pragma once

#include <chrono>
#include <cstdint>
#include <map>
#include <string>
#include <string_view>
#include <vector>

#include "query/ir.hpp"

namespace perfbench {

using steady = std::chrono::steady_clock;

inline double seconds_since(steady::time_point start) {
  return std::chrono::duration<double>(steady::now() - start).count();
}

inline std::int64_t ns_between(steady::time_point a, steady::time_point b) {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(b - a).count();
}

/// Linear-interpolated quantile (q in [0, 1]) of an unsorted sample; 0 for
/// an empty one.
double quantile(std::vector<double> values, double q);
inline double median(std::vector<double> values) {
  return quantile(std::move(values), 0.5);
}

/// Peak resident set of this process so far, in MB (getrusage).
double peak_rss_mb();

/// An NDJSON byte stream of freshly generated records plus the offset of
/// every record, so checks can address record i without re-framing.
struct corpus {
  std::string bytes;
  std::vector<std::size_t> starts;  // record i = [starts[i], starts[i+1]-1)

  std::size_t records() const { return starts.size() - 1; }
  /// Record i without its '\n'.
  std::string_view record(std::size_t i) const {
    return std::string_view(bytes).substr(starts[i],
                                          starts[i + 1] - starts[i] - 1);
  }
  /// Record i with its '\n' (its share of the stream's bytes).
  std::string_view line(std::size_t i) const {
    return std::string_view(bytes).substr(starts[i],
                                          starts[i + 1] - starts[i]);
  }
};

corpus smartcity_corpus(std::uint64_t seed, std::size_t min_bytes);
corpus smartcity_records(std::uint64_t seed, std::size_t count);
corpus taxi_corpus(std::uint64_t seed, std::size_t min_bytes);

/// Per-record ground truth for one query, computed outside every timed
/// region: the byte-per-cycle core::raw_filter verdict (what every fast
/// path must reproduce exactly) and the exact query:: evaluator's label
/// (what no verdict may contradict with a drop).
struct reference {
  std::vector<char> raw;
  std::vector<char> exact;
  std::uint64_t raw_accepted = 0;
};

reference make_reference(const jrf::query::query& q, const corpus& c);

/// In-memory span recorder. Spans come only from the benchmark's own code
/// around calls into the library, on the main thread; a disabled tracer
/// records nothing. Self time = duration minus the union of the children.
class tracer {
 public:
  explicit tracer(bool enabled) : enabled_(enabled) {}
  bool enabled() const { return enabled_; }

  /// Open a span under the innermost open one; returns its id.
  std::size_t open(const char* name, std::uint64_t batch = 0);
  void close(std::size_t id);
  /// A child of `parent` whose time was summed elsewhere (sink callbacks
  /// run per record, so they are timed in aggregate, not one span each).
  void add_aggregate(std::size_t parent, const char* name,
                     std::int64_t total_ns);

  struct span {
    const char* name;
    std::int64_t start_ns;
    std::int64_t end_ns;
    std::int64_t parent;  // -1 = root
    std::uint64_t batch;
  };
  const std::vector<span>& spans() const { return spans_; }

  struct row {
    std::string name;
    std::uint64_t calls = 0;
    double total_ms = 0.0;
    double self_ms = 0.0;
  };
  /// Per span name: call count, total and self time (ordered by name).
  std::vector<row> self_times() const;

  /// Tab-separated spans (name, start_ns, end_ns, parent, batch).
  bool write(const std::string& path) const;

 private:
  std::int64_t now_ns() const;

  bool enabled_;
  steady::time_point origin_ = steady::now();
  std::vector<span> spans_;
  std::vector<std::size_t> stack_;
  std::map<std::size_t, std::int64_t> aggregate_end_;
};

/// RAII span; a no-op on a disabled tracer.
class scoped_span {
 public:
  scoped_span(tracer& t, const char* name, std::uint64_t batch = 0)
      : t_(t), id_(t.enabled() ? t.open(name, batch) : 0) {}
  ~scoped_span() {
    if (t_.enabled()) t_.close(id_);
  }
  scoped_span(const scoped_span&) = delete;
  scoped_span& operator=(const scoped_span&) = delete;
  std::size_t id() const { return id_; }

 private:
  tracer& t_;
  std::size_t id_;
};

/// Metrics plus the operation ledger every check writes into.
struct report {
  struct metric {
    double value = 0.0;
    std::string unit;
  };
  std::map<std::string, metric> metrics;
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::vector<std::string> failures;  // first few, for the log

  void set(const std::string& name, double value, const std::string& unit) {
    metrics[name] = metric{value, unit};
  }
  /// Count `n` failed operations, keeping the message for the log.
  void fail(const std::string& what, std::uint64_t n = 1);
  /// Count a check over `n` operations that found `bad` violations.
  void check(const std::string& what, std::uint64_t n, std::uint64_t bad) {
    attempted += n;
    if (bad > 0) fail(what, bad);
  }
};

struct options {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  std::string spans_path;   // traced runs write their spans here
  std::string socket_dir;   // where the Unix sockets of the service live
};

/// One workload: fills `r` with every end-to-end metric and, when traced,
/// every per-layer metric. Returns false for an unknown workload name.
bool run_workload(const options& o, tracer& t, report& r);

}  // namespace perfbench
