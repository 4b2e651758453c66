// Per-layer probes of a traced run: direct, timed calls into each layer's
// public functions over the workload's own bytes and queries.
#pragma once

#include <functional>
#include <vector>

#include "api/pipeline.hpp"
#include "common.hpp"
#include "core/expr.hpp"
#include "project/paths.hpp"

namespace perfbench {

struct layer_inputs {
  const corpus* data = nullptr;          // the workload's bytes
  /// Per record: accepted by any resident query (raw_filter semantics).
  const std::vector<char>* accepted = nullptr;
  std::vector<jrf::core::expr_ptr> queries;  // every resident query
  jrf::project::path_set paths;          // projection targets
  /// Batch facade builder of the workload's query (no input, no sinks).
  std::function<jrf::pipeline_builder()> facade;
  /// Facade seconds per byte of the workload's own main path; 0 = take it
  /// from the probe's projection-off facade runs.
  double facade_s_per_byte = 0.0;
};

/// Fills the core.*, project.*, api.overhead_pct, floor.* and trace.*
/// metrics of `r`; violations of the probes' own checks count as failures.
void measure_layers(const layer_inputs& in, tracer& t, report& r);

}  // namespace perfbench
