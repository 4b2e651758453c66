#include "common.hpp"

#include <sys/resource.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <thread>

#include "core/raw_filter.hpp"
#include "data/smartcity.hpp"
#include "data/taxi.hpp"
#include "query/compile.hpp"
#include "query/eval.hpp"

namespace perfbench {

double quantile(std::vector<double> values, double q) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const double pos = q * static_cast<double>(values.size() - 1);
  const std::size_t lo = static_cast<std::size_t>(std::floor(pos));
  const std::size_t hi = std::min(lo + 1, values.size() - 1);
  const double frac = pos - static_cast<double>(lo);
  return values[lo] + (values[hi] - values[lo]) * frac;
}

double peak_rss_mb() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // KiB on Linux
}

namespace {

// Records until the stream holds `min_bytes` or `max_records` records.
template <typename Generator>
corpus generate(Generator& gen, std::size_t min_bytes,
                std::size_t max_records) {
  corpus c;
  c.starts.push_back(0);
  while (c.bytes.size() < min_bytes && c.records() < max_records) {
    c.bytes += gen.record();
    c.bytes += '\n';
    c.starts.push_back(c.bytes.size());
  }
  return c;
}

constexpr std::size_t kUnbounded = static_cast<std::size_t>(-1);

}  // namespace

corpus smartcity_corpus(std::uint64_t seed, std::size_t min_bytes) {
  jrf::data::smartcity_generator gen(seed);
  return generate(gen, min_bytes, kUnbounded);
}

corpus smartcity_records(std::uint64_t seed, std::size_t count) {
  jrf::data::smartcity_generator gen(seed);
  return generate(gen, kUnbounded, count);
}

corpus taxi_corpus(std::uint64_t seed, std::size_t min_bytes) {
  jrf::data::taxi_generator gen(seed);
  return generate(gen, min_bytes, kUnbounded);
}

reference make_reference(const jrf::query::query& q, const corpus& c) {
  // Both references are per-record pure functions, so the records split
  // into contiguous ranges across a few threads (the byte-per-cycle
  // filter runs at ~10 MB/s; this keeps set-up time per seed short).
  reference ref;
  const std::size_t n = c.records();
  ref.raw.assign(n, 0);
  ref.exact.assign(n, 0);
  const jrf::core::expr_ptr expr = jrf::query::compile_default(q);
  const unsigned threads =
      std::clamp(std::thread::hardware_concurrency(), 1u, 4u);
  std::vector<std::thread> pool;
  for (unsigned t = 0; t < threads; ++t)
    pool.emplace_back([&, t] {
      jrf::core::raw_filter filter(expr);
      for (std::size_t i = n * t / threads; i < n * (t + 1) / threads; ++i) {
        ref.raw[i] = filter.accepts(c.record(i)) ? 1 : 0;
        ref.exact[i] = jrf::query::eval_record(q, c.record(i)) ? 1 : 0;
      }
    });
  for (std::thread& th : pool) th.join();
  for (const char v : ref.raw) ref.raw_accepted += v;
  return ref;
}

std::int64_t tracer::now_ns() const { return ns_between(origin_, steady::now()); }

std::size_t tracer::open(const char* name, std::uint64_t batch) {
  const std::int64_t parent =
      stack_.empty() ? -1 : static_cast<std::int64_t>(stack_.back());
  spans_.push_back(span{name, now_ns(), 0, parent, batch});
  stack_.push_back(spans_.size() - 1);
  return spans_.size() - 1;
}

void tracer::close(std::size_t id) {
  spans_[id].end_ns = now_ns();
  if (!stack_.empty() && stack_.back() == id) stack_.pop_back();
}

void tracer::add_aggregate(std::size_t parent, const char* name,
                           std::int64_t total_ns) {
  if (!enabled_) return;
  // Aggregates of one parent are laid end to end from its start, so their
  // union is their sum.
  std::int64_t& cursor = aggregate_end_[parent];
  const span& p = spans_[parent];
  const std::int64_t start = std::max(cursor, p.start_ns);
  cursor = start + std::max<std::int64_t>(total_ns, 0);
  spans_.push_back(span{name, start, cursor,
                        static_cast<std::int64_t>(parent), p.batch});
}

std::vector<tracer::row> tracer::self_times() const {
  std::vector<std::vector<std::pair<std::int64_t, std::int64_t>>> children(
      spans_.size());
  for (const span& s : spans_)
    if (s.parent >= 0)
      children[static_cast<std::size_t>(s.parent)].emplace_back(s.start_ns,
                                                                s.end_ns);
  std::map<std::string, row> rows;
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const span& s = spans_[i];
    auto& kids = children[i];
    std::sort(kids.begin(), kids.end());
    std::int64_t covered = 0, reach = s.start_ns;
    for (const auto& [begin, end] : kids) {
      const std::int64_t b = std::max(begin, reach);
      const std::int64_t e = std::min(end, s.end_ns);
      if (e > b) covered += e - b;
      reach = std::max(reach, e);
    }
    row& r = rows[s.name];
    r.name = s.name;
    r.calls += 1;
    r.total_ms += static_cast<double>(s.end_ns - s.start_ns) / 1e6;
    r.self_ms += static_cast<double>(s.end_ns - s.start_ns - covered) / 1e6;
  }
  std::vector<row> out;
  for (auto& [name, r] : rows) out.push_back(r);
  return out;
}

bool tracer::write(const std::string& path) const {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return false;
  std::fprintf(f, "name\tstart_ns\tend_ns\tparent\tbatch\n");
  for (const span& s : spans_)
    std::fprintf(f, "%s\t%lld\t%lld\t%lld\t%llu\n", s.name,
                 static_cast<long long>(s.start_ns),
                 static_cast<long long>(s.end_ns),
                 static_cast<long long>(s.parent),
                 static_cast<unsigned long long>(s.batch));
  return std::fclose(f) == 0;
}

void report::fail(const std::string& what, std::uint64_t n) {
  failed += n;
  if (failures.size() < 16)
    failures.push_back(what + " (" + std::to_string(n) + ")");
}

}  // namespace perfbench
