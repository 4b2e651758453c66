#include "json/ndjson.hpp"

#include <gtest/gtest.h>

#include "core/framer.hpp"

namespace jrf::json {
namespace {

TEST(Ndjson, SplitBasic) {
  const auto records = split_records("{\"a\":1}\n{\"b\":2}\n");
  ASSERT_EQ(records.size(), 2u);
  EXPECT_EQ(records[0], "{\"a\":1}");
  EXPECT_EQ(records[1], "{\"b\":2}");
}

TEST(Ndjson, TrailingRecordWithoutNewline) {
  const auto records = split_records("{}\n{\"x\":1}");
  ASSERT_EQ(records.size(), 2u);
  EXPECT_EQ(records[1], "{\"x\":1}");
}

TEST(Ndjson, SkipsEmptyLines) {
  const auto records = split_records("\n\n{}\n\n{}\n\n");
  EXPECT_EQ(records.size(), 2u);
}

TEST(Ndjson, EmptyStream) {
  EXPECT_TRUE(split_records("").empty());
  EXPECT_TRUE(split_records("\n").empty());
}

TEST(Ndjson, ForEachVisitsAll) {
  // Record iteration over NDJSON goes through the filters' own framing.
  int count = 0;
  core::for_each_record("a\nb\nc\n", [&](std::string_view) { ++count; });
  EXPECT_EQ(count, 3);
}

TEST(Ndjson, JoinRoundTrip) {
  const std::vector<std::string> records{"{\"a\":1}", "{\"b\":2}"};
  const std::string stream = join_records(records);
  EXPECT_EQ(stream, "{\"a\":1}\n{\"b\":2}\n");
  const auto split = split_records(stream);
  ASSERT_EQ(split.size(), 2u);
  EXPECT_EQ(split[0], records[0]);
  EXPECT_EQ(split[1], records[1]);
}

}  // namespace
}  // namespace jrf::json
