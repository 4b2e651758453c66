// perfbench - the repository's filter-path benchmark driver.
//
//   perfbench --workload NAME --seed N --seconds S --trace 0|1
//             [--spans PATH] [--socket-dir DIR]
//
// Runs one workload (see workloads.cpp) and prints a human-readable log,
// then one JSON line with every metric it measured, the operations it
// checked and how many of them failed. perfbench/run.py builds this binary
// and reduces that line to the metrics BENCHMARK.json declares. A traced
// run (--trace 1) also prints the per-layer self-time ledger and writes
// its spans to --spans.
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <exception>
#include <map>
#include <string>

#include "common.hpp"

namespace {

using namespace perfbench;

void usage() {
  std::fprintf(stderr,
               "usage: perfbench --workload senml_single|taxi_project|"
               "fleet_churn|socket_qs1 --seed N --seconds S --trace 0|1 "
               "[--spans PATH] [--socket-dir DIR]\n");
}

std::string json_number(double v) {
  if (!std::isfinite(v)) return "null";
  char buf[64];
  std::snprintf(buf, sizeof buf, "%.17g", v);
  return buf;
}

void print_ledger(const tracer& t, const report& r) {
  const std::vector<tracer::row> rows = t.self_times();
  std::map<std::string, double> layer_self;
  double total = 0;
  for (const tracer::row& row : rows) {
    const std::string layer = row.name.substr(0, row.name.find('.'));
    layer_self[layer] += row.self_ms;
    total += row.self_ms;
  }
  std::printf("\nper-layer self time (traced run)\n");
  std::printf("%-8s %-24s %8s %12s %12s %7s\n", "layer", "span", "calls",
              "total ms", "self ms", "self %");
  for (const tracer::row& row : rows)
    std::printf("%-8s %-24s %8llu %12.3f %12.3f %6.2f%%\n",
                row.name.substr(0, row.name.find('.')).c_str(),
                row.name.c_str(), static_cast<unsigned long long>(row.calls),
                row.total_ms, row.self_ms,
                total > 0 ? 100.0 * row.self_ms / total : 0.0);
  for (const auto& [layer, ms] : layer_self)
    std::printf("%-8s %-24s %8s %12s %12.3f %6.2f%%\n", layer.c_str(),
                "(layer total)", "", "", ms,
                total > 0 ? 100.0 * ms / total : 0.0);
  const auto overhead = r.metrics.find("trace.overhead_pct");
  if (overhead != r.metrics.end())
    std::printf("tracing overhead: %.2f%% (traced vs untraced facade "
                "passes, paired)\n",
                overhead->second.value);
}

}  // namespace

int main(int argc, char** argv) {
  options o;
  bool have_workload = false;
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string key = argv[i];
    const char* value = argv[i + 1];
    if (key == "--workload") {
      o.workload = value;
      have_workload = true;
    } else if (key == "--seed") {
      o.seed = std::strtoull(value, nullptr, 10);
    } else if (key == "--seconds") {
      o.seconds = std::strtod(value, nullptr);
    } else if (key == "--trace") {
      o.trace = std::string(value) == "1";
    } else if (key == "--spans") {
      o.spans_path = value;
    } else if (key == "--socket-dir") {
      o.socket_dir = value;
    } else {
      usage();
      return 2;
    }
  }
  if (!have_workload || argc % 2 == 0 || !(o.seconds > 0)) {
    usage();
    return 2;
  }
  if (o.socket_dir.empty()) o.socket_dir = ".";

  tracer t(o.trace);
  report r;
  try {
    if (!run_workload(o, t, r)) {
      usage();
      return 2;
    }
  } catch (const std::exception& e) {
    r.fail(std::string("uncaught error: ") + e.what());
  }

  std::printf("workload %s seed %llu seconds %.1f trace %d\n",
              o.workload.c_str(), static_cast<unsigned long long>(o.seed),
              o.seconds, o.trace ? 1 : 0);
  for (const auto& [name, m] : r.metrics)
    std::printf("  %-36s %16.4f %s\n", name.c_str(), m.value,
                m.unit.c_str());
  std::printf("checked %llu operations, %llu failed (failed_pct %.4f %%)\n",
              static_cast<unsigned long long>(r.attempted),
              static_cast<unsigned long long>(r.failed),
              r.attempted > 0 ? 100.0 * static_cast<double>(r.failed) /
                                    static_cast<double>(r.attempted)
                              : 0.0);
  for (const std::string& f : r.failures)
    std::printf("  FAILED: %s\n", f.c_str());
  if (o.trace) {
    print_ledger(t, r);
    if (!o.spans_path.empty() && !t.write(o.spans_path))
      std::fprintf(stderr, "perfbench: cannot write %s\n",
                   o.spans_path.c_str());
  }

  std::string line = "{\"workload\": \"" + o.workload +
                     "\", \"attempted\": " + std::to_string(r.attempted) +
                     ", \"failed\": " + std::to_string(r.failed) +
                     ", \"metrics\": {";
  bool first = true;
  for (const auto& [name, m] : r.metrics) {
    line += (first ? "\"" : ", \"") + name + "\": {\"value\": " +
            json_number(m.value) + ", \"unit\": \"" + m.unit + "\"}";
    first = false;
  }
  line += "}}";
  std::printf("%s\n", line.c_str());
  return 0;
}
