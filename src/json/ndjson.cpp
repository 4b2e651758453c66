#include "json/ndjson.hpp"

#include <cstring>

namespace jrf::json {

std::vector<std::string_view> split_records(std::string_view stream,
                                            unsigned char separator) {
  // Raw, escape-unaware splitting (the documented contract): a separator
  // inside a string literal splits here, but not in core::record_framer,
  // which frames every filter path. memchr is the fastest available byte
  // scan - the libc kernel is already vectorised for whatever the host has.
  std::vector<std::string_view> out;
  std::size_t start = 0;
  while (start < stream.size()) {
    const void* hit = std::memchr(stream.data() + start, separator,
                                  stream.size() - start);
    if (hit == nullptr) {
      out.push_back(stream.substr(start));
      break;
    }
    const std::size_t i = static_cast<std::size_t>(
        static_cast<const char*>(hit) - stream.data());
    if (i > start) out.push_back(stream.substr(start, i - start));
    start = i + 1;
  }
  return out;
}

std::string join_records(const std::vector<std::string>& records) {
  std::size_t total = 0;
  for (const auto& r : records) total += r.size() + 1;
  std::string out;
  out.reserve(total);
  for (const auto& r : records) {
    out += r;
    out.push_back('\n');
  }
  return out;
}

}  // namespace jrf::json
