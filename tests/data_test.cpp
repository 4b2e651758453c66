// Tests for the synthetic dataset generators: schema validity, determinism,
// and the calibration targets the paper's evaluation depends on
// (Table VIII selectivities, Table I-III collision structure).
#include <gtest/gtest.h>

#include <string>

#include "core/raw_filter.hpp"
#include "data/smartcity.hpp"
#include "data/stream.hpp"
#include "data/taxi.hpp"
#include "data/twitter.hpp"
#include "json/ndjson.hpp"
#include "json/parser.hpp"
#include "query/eval.hpp"
#include "query/riotbench.hpp"

namespace jrf::data {
namespace {

constexpr std::size_t kCalibrationRecords = 12000;

// ------------------------------------------------------------------- schema

TEST(SmartCity, RecordsAreValidJson) {
  smartcity_generator gen;
  for (int i = 0; i < 200; ++i)
    EXPECT_NO_THROW(json::parse(gen.record())) << i;
}

TEST(SmartCity, SchemaMatchesListing1) {
  smartcity_generator gen(1);  // seed without maintenance record up front
  const json::value doc = json::parse(gen.record());
  ASSERT_TRUE(doc.is_object());
  const auto& members = doc.as_object();
  ASSERT_EQ(members.size(), 2u);
  EXPECT_EQ(members[0].first, "e");
  EXPECT_EQ(members[1].first, "bt");
  const auto& measurements = members[0].second.as_array();
  ASSERT_EQ(measurements.size(), 5u);
  // Each measurement is {"v":...,"u":...,"n":...} in Listing 1 order.
  for (const auto& m : measurements) {
    const auto& fields = m.as_object();
    ASSERT_EQ(fields.size(), 3u);
    EXPECT_EQ(fields[0].first, "v");
    EXPECT_EQ(fields[1].first, "u");
    EXPECT_EQ(fields[2].first, "n");
    EXPECT_TRUE(fields[0].second.is_string());  // values quoted as in SenML
  }
  EXPECT_EQ(measurements[0].as_object()[2].second.as_string(), "temperature");
  EXPECT_EQ(measurements[4].as_object()[2].second.as_string(), "airquality_raw");
}

TEST(SmartCity, TimestampsAdvance) {
  smartcity_generator gen;
  const json::value a = json::parse(gen.record());
  const json::value b = json::parse(gen.record());
  const auto bt = [](const json::value& doc) {
    return doc.as_object().back().second.as_number().to_double();
  };
  EXPECT_GT(bt(b), bt(a));
}

TEST(Taxi, RecordsAreValidJson) {
  taxi_generator gen;
  for (int i = 0; i < 200; ++i)
    EXPECT_NO_THROW(json::parse(gen.record())) << i;
}

TEST(Taxi, TotalAmountAlwaysPresentTollsSometimes) {
  taxi_generator gen;
  int with_tolls = 0;
  const int n = 2000;
  for (int i = 0; i < n; ++i) {
    const std::string record = gen.record();
    EXPECT_NE(record.find("total_amount"), std::string::npos);
    if (record.find("tolls_amount") != std::string::npos) ++with_tolls;
  }
  // Presence rate around the configured ~12-16 %.
  EXPECT_GT(with_tolls, n / 20);
  EXPECT_LT(with_tolls, n / 3);
}

TEST(Taxi, CorrelatedTripFields) {
  // trip_time_in_secs tracks trip_distance (paper: "highly dependent").
  taxi_generator gen;
  double short_trip_time = 0;
  double long_trip_time = 0;
  int short_count = 0;
  int long_count = 0;
  for (int i = 0; i < 2000; ++i) {
    const json::value doc = json::parse(gen.record());
    double distance = 0;
    double secs = 0;
    for (const auto& [key, value] : doc.as_object()) {
      if (key == "trip_distance") distance = value.as_number().to_double();
      if (key == "trip_time_in_secs") secs = value.as_number().to_double();
    }
    if (distance < 1.5) {
      short_trip_time += secs;
      ++short_count;
    } else if (distance > 5.0) {
      long_trip_time += secs;
      ++long_count;
    }
  }
  ASSERT_GT(short_count, 0);
  ASSERT_GT(long_count, 0);
  EXPECT_GT(long_trip_time / long_count, 2.0 * short_trip_time / short_count);
}

TEST(Twitter, RecordsHaveSixCsvFields) {
  twitter_generator gen;
  for (int i = 0; i < 100; ++i) {
    const std::string record = gen.record();
    // Six quoted fields -> 12 quotes minimum (text itself adds none; the
    // generator never emits '"' inside fields).
    EXPECT_EQ(std::count(record.begin(), record.end(), '"'), 12) << record;
  }
}

// -------------------------------------------------------------- determinism

TEST(Generators, SameSeedSameStream) {
  EXPECT_EQ(smartcity_generator(7).stream(50), smartcity_generator(7).stream(50));
  EXPECT_EQ(taxi_generator(7).stream(50), taxi_generator(7).stream(50));
  EXPECT_EQ(twitter_generator(7).stream(50), twitter_generator(7).stream(50));
}

TEST(Generators, DifferentSeedDifferentStream) {
  EXPECT_NE(smartcity_generator(1).stream(50), smartcity_generator(2).stream(50));
}

// -------------------------------------------------- selectivity calibration

TEST(Calibration, QS0SelectivityNearPaper) {
  smartcity_generator gen;
  const std::string stream = gen.stream(kCalibrationRecords);
  const double sel = query::selectivity(query::label_stream(query::riotbench::qs0(), stream));
  // Paper Table VIII: 63.9 %.
  EXPECT_NEAR(sel, 0.639, 0.05);
}

TEST(Calibration, QS1SelectivityNearPaper) {
  smartcity_generator gen;
  const std::string stream = gen.stream(kCalibrationRecords);
  const double sel = query::selectivity(query::label_stream(query::riotbench::qs1(), stream));
  // Paper Table VIII: 5.4 %.
  EXPECT_NEAR(sel, 0.054, 0.03);
}

TEST(Calibration, QTSelectivityNearPaper) {
  taxi_generator gen;
  const std::string stream = gen.stream(kCalibrationRecords);
  const double sel = query::selectivity(query::label_stream(query::riotbench::qt(), stream));
  // Paper Table VIII: 5.7 %.
  EXPECT_NEAR(sel, 0.057, 0.03);
}

// ------------------------------------------- collision structure (Table II/III)

double string_fpr(std::string_view stream, const std::string& needle, int block) {
  core::raw_filter rf(core::string_leaf(needle, block));
  return core::false_positive_rate(rf.filter_stream(stream),
                                   contains_labels(stream, needle));
}

TEST(Collisions, TaxiTollsAnagramTrap) {
  taxi_generator gen;
  const std::string stream = gen.stream(4000);
  // Paper Table II: s1("tolls_amount") FPR 1.000 via "total_amount",
  // fixed by B = 2.
  EXPECT_GT(string_fpr(stream, "tolls_amount", 1), 0.99);
  EXPECT_DOUBLE_EQ(string_fpr(stream, "tolls_amount", 2), 0.0);
}

TEST(Collisions, TwitterUserRunsNearUbiquitous) {
  twitter_generator gen;
  const std::string stream = gen.stream(4000);
  // Paper Table III: s1("user") FPR 1.000.
  EXPECT_GT(string_fpr(stream, "user", 1), 0.75);
}

TEST(Collisions, TwitterLangModerate) {
  twitter_generator gen;
  const std::string stream = gen.stream(4000);
  // Paper Table III: s1("lang") FPR 0.181.
  const double fpr = string_fpr(stream, "lang", 1);
  EXPECT_GT(fpr, 0.05);
  EXPECT_LT(fpr, 0.45);
}

TEST(Collisions, TwitterLocationRare) {
  twitter_generator gen;
  const std::string stream = gen.stream(4000);
  // Paper Table III: s1("location") FPR 0.049.
  const double fpr = string_fpr(stream, "location", 1);
  EXPECT_GT(fpr, 0.005);
  EXPECT_LT(fpr, 0.15);
}

TEST(Collisions, TwitterLongStringsClean) {
  twitter_generator gen;
  const std::string stream = gen.stream(4000);
  // Paper Table III: created_at 0.001, favourites_count 0.001.
  EXPECT_LT(string_fpr(stream, "created_at", 1), 0.01);
  EXPECT_LT(string_fpr(stream, "favourites_count", 1), 0.01);
}

TEST(Collisions, B2NeverWorseThanB1) {
  twitter_generator gen;
  const std::string stream = gen.stream(2000);
  for (const std::string needle :
       {"user", "lang", "location", "created_at"}) {
    EXPECT_LE(string_fpr(stream, needle, 2), string_fpr(stream, needle, 1))
        << needle;
  }
}

// ------------------------------------------------------------------- stream

TEST(Stream, InflateReachesTarget) {
  const std::string base = "{\"a\":1}\n{\"b\":2}\n";
  const std::string big = inflate(base, 1000);
  EXPECT_GE(big.size(), 1000u);
  EXPECT_EQ(big.size() % base.size(), 0u);
  EXPECT_EQ(big.substr(0, base.size()), base);
}

TEST(Stream, ContainsLabels) {
  const auto labels = contains_labels("abc\nxbcx\nzzz\n", "bc");
  ASSERT_EQ(labels.size(), 3u);
  EXPECT_TRUE(labels[0]);
  EXPECT_TRUE(labels[1]);
  EXPECT_FALSE(labels[2]);
}

TEST(Stream, RecordsAreFramedEscapeAware) {
  // A separator inside a string literal (raw or after an escaped quote)
  // stays inside its record, exactly as the filters frame it; a trailing
  // record without its separator still counts.
  const std::string stream =
      "{\"a\":\"x\ny\"}\n\n{\"b\":\"q\\\"\n\"}\n{\"c\":1}";
  const auto labels = contains_labels(stream, "\n");
  ASSERT_EQ(labels.size(), 3u);
  EXPECT_TRUE(labels[0]);
  EXPECT_TRUE(labels[1]);
  EXPECT_FALSE(labels[2]);
  EXPECT_DOUBLE_EQ(mean_record_bytes(stream),
                   static_cast<double>(stream.size()) / 3.0);
  const auto shards = shard_records(stream, 2);
  EXPECT_EQ(shards[0], "{\"a\":\"x\ny\"}\n{\"c\":1}\n");
  EXPECT_EQ(shards[1], "{\"b\":\"q\\\"\n\"}\n");
}

TEST(Stream, MeanRecordBytes) {
  EXPECT_DOUBLE_EQ(mean_record_bytes("abcd\nab\n"), 4.0);
}

}  // namespace
}  // namespace jrf::data
