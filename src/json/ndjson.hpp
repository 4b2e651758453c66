// Newline-delimited JSON record framing.
//
// The hardware raw filters operate on a byte stream of concatenated records
// separated by '\n' (the format RiotBench replays). This helper splits such
// streams escape-unaware, for the data generators and test drivers.
#pragma once

#include <string>
#include <string_view>
#include <vector>

namespace jrf::json {

/// Split an NDJSON stream into record views (no copies). A trailing record
/// without a final separator is included. Empty lines are skipped. The
/// separator defaults to '\n' (RiotBench framing). Escape-unaware: a
/// separator inside a string literal splits the record, unlike the
/// filters' core::record_framer.
std::vector<std::string_view> split_records(std::string_view stream,
                                            unsigned char separator = '\n');

/// Join records into a stream with '\n' separators (including a trailing
/// newline, matching the generator output format).
std::string join_records(const std::vector<std::string>& records);

}  // namespace jrf::json
