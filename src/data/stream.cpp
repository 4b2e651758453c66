#include "data/stream.hpp"

#include "core/framer.hpp"
#include "util/error.hpp"

namespace jrf::data {

std::string inflate(std::string_view stream, std::size_t target_bytes) {
  if (stream.empty()) throw error("inflate: empty stream");
  std::string out;
  out.reserve(target_bytes + stream.size());
  while (out.size() < target_bytes) out += stream;
  return out;
}

std::vector<std::string> shard_records(std::string_view stream,
                                       std::size_t shards) {
  if (shards == 0) throw error("shard_records: zero shards");
  std::vector<std::string> out(shards);
  std::size_t next = 0;
  core::for_each_record(stream, [&](std::string_view record) {
    out[next] += record;
    out[next] += '\n';
    next = (next + 1) % shards;
  });
  return out;
}

void for_each_chunk(std::string_view stream, std::size_t chunk_bytes,
                    const std::function<void(std::string_view)>& fn) {
  if (chunk_bytes == 0) throw error("for_each_chunk: zero chunk size");
  for (std::size_t pos = 0; pos < stream.size(); pos += chunk_bytes)
    fn(stream.substr(pos, chunk_bytes));
}

std::vector<bool> contains_labels(std::string_view stream,
                                  std::string_view needle) {
  std::vector<bool> labels;
  core::for_each_record(stream, [&](std::string_view record) {
    labels.push_back(record.find(needle) != std::string_view::npos);
  });
  return labels;
}

double mean_record_bytes(std::string_view stream) {
  std::size_t records = 0;
  core::for_each_record(stream, [&](std::string_view) { ++records; });
  if (records == 0) return 0.0;
  return static_cast<double>(stream.size()) / static_cast<double>(records);
}

}  // namespace jrf::data
