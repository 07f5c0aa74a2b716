#ifndef GKEYS_TOOLS_NUMERIC_FLAG_H_
#define GKEYS_TOOLS_NUMERIC_FLAG_H_

// The one checked parse behind every numeric command-line flag of gkeys
// and gkeys_workload.

#include <charconv>
#include <cstdio>
#include <string>
#include <string_view>
#include <system_error>
#include <type_traits>

namespace gkeys {

/// Parses `text`, the value of `flag`, as a number of type T in [lo, hi]:
/// std::from_chars must consume all of it. Otherwise prints one
/// InvalidArgument line naming the flag and returns false; the command
/// then exits 2 before reading any input.
template <typename T>
bool ParseNumericFlag(const char* flag, std::string_view text, T lo, T hi,
                      T* out) {
  const char* end = text.data() + text.size();
  auto [last, ec] = std::from_chars(text.data(), end, *out);
  if (ec == std::errc() && last == end && *out >= lo && *out <= hi) {
    return true;
  }
  auto bound = [](T v) {
    if constexpr (std::is_integral_v<T>) {
      return std::to_string(v);
    } else {
      char buf[32];
      std::snprintf(buf, sizeof(buf), "%g", v);
      return std::string(buf);
    }
  };
  std::fprintf(stderr,
               "InvalidArgument: %s must be %s in [%s, %s], got '%.*s'\n",
               flag, std::is_integral_v<T> ? "an integer" : "a number",
               bound(lo).c_str(), bound(hi).c_str(),
               static_cast<int>(text.size()), text.data());
  return false;
}

}  // namespace gkeys

#endif  // GKEYS_TOOLS_NUMERIC_FLAG_H_
