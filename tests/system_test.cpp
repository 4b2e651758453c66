// Tests for the system-architecture model (Section IV-B).
#include "system/system.hpp"

#include <gtest/gtest.h>

#include "core/expr.hpp"
#include "core/raw_filter.hpp"
#include "data/smartcity.hpp"
#include "data/stream.hpp"
#include "util/error.hpp"

namespace jrf::system {
namespace {

core::expr_ptr simple_filter() { return core::string_leaf("temperature", 1); }

TEST(FilterSystem, DecisionsMatchSingleFilterReference) {
  // Seven parallel lanes must produce exactly the decisions one filter
  // produces over the whole stream, in stream order - also when a
  // separator sits inside a string literal and so ends no record.
  data::smartcity_generator gen;
  for (const std::string& stream :
       {gen.stream(500),
        std::string("{\"a\":\"x\ny\"}\n{\"b\":\"temperature\"}\n")}) {
    filter_system sys(simple_filter());
    sys.run(stream);

    core::raw_filter reference(simple_filter());
    const auto expected = reference.filter_stream(stream);
    ASSERT_EQ(sys.decisions().size(), expected.size());
    for (std::size_t i = 0; i < expected.size(); ++i)
      EXPECT_EQ(sys.decisions()[i], expected[i]) << i;
  }
}

TEST(FilterSystem, SevenLanesBeat10GbELineRate) {
  // The paper's headline: 7 x 1 B/cycle @ 200 MHz sustains 1.33 GB/s,
  // above the 1.25 GB/s of 10 GbE.
  data::smartcity_generator gen;
  const std::string stream = data::inflate(gen.stream(200), 2u << 20);

  filter_system sys(simple_filter());
  const auto report = sys.run(stream);
  EXPECT_NEAR(report.theoretical_gbps, 1.4, 0.01);
  EXPECT_GT(report.gbytes_per_second, report.line_rate_10gbe);
  EXPECT_LT(report.gbytes_per_second, report.theoretical_gbps);
}

TEST(FilterSystem, ThroughputScalesWithLanes) {
  data::smartcity_generator gen;
  const std::string stream = data::inflate(gen.stream(200), 1u << 20);

  double previous = 0.0;
  for (const int lanes : {1, 2, 4, 7}) {
    system_options options;
    options.lanes = lanes;
    filter_system sys(simple_filter(), options);
    const double rate = sys.run(stream).gbytes_per_second;
    EXPECT_GT(rate, previous) << lanes;
    previous = rate;
  }
}

TEST(FilterSystem, DmaOverheadReducesBelowTheoretical) {
  data::smartcity_generator gen;
  const std::string stream = data::inflate(gen.stream(100), 1u << 20);

  system_options costly;
  costly.dma_setup_cycles = 4000;  // pathological descriptor overhead
  filter_system slow(simple_filter(), costly);
  filter_system fast(simple_filter());
  EXPECT_LT(slow.run(stream).gbytes_per_second,
            fast.run(stream).gbytes_per_second);
}

TEST(FilterSystem, SingleLaneApproachesClockRate) {
  data::smartcity_generator gen;
  const std::string stream = data::inflate(gen.stream(100), 1u << 20);
  system_options options;
  options.lanes = 1;
  filter_system sys(simple_filter(), options);
  const auto report = sys.run(stream);
  // 1 byte/cycle at 200 MHz = 0.2 GB/s peak.
  EXPECT_NEAR(report.gbytes_per_second, 0.2, 0.01);
}

TEST(FilterSystem, AcceptedCountsMatchDecisions) {
  data::smartcity_generator gen;
  const std::string stream = gen.stream(300);
  filter_system sys(simple_filter());
  const auto report = sys.run(stream);
  std::size_t accepted = 0;
  for (const bool d : sys.decisions()) accepted += d ? 1 : 0;
  EXPECT_EQ(report.accepted, accepted);
  EXPECT_EQ(report.records, sys.decisions().size());
}

TEST(FilterSystem, RejectsBadOptions) {
  system_options zero_lanes;
  zero_lanes.lanes = 0;
  EXPECT_THROW(filter_system(simple_filter(), zero_lanes), error);
  system_options zero_burst;
  zero_burst.dma_burst_bytes = 0;
  EXPECT_THROW(filter_system(simple_filter(), zero_burst), error);
}

}  // namespace
}  // namespace jrf::system
