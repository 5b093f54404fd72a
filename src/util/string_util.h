// Small string helpers shared across modules.
#ifndef CROWDSELECT_UTIL_STRING_UTIL_H_
#define CROWDSELECT_UTIL_STRING_UTIL_H_

#include <charconv>
#include <string>
#include <string_view>
#include <system_error>
#include <vector>

namespace crowdselect {

/// ASCII lower-casing (the corpora are synthetic ASCII).
std::string ToLowerAscii(std::string_view s);

/// Splits on any of the characters in `delims`; drops empty pieces.
std::vector<std::string> SplitAny(std::string_view s, std::string_view delims);

/// Trims ASCII whitespace from both ends.
std::string_view TrimAscii(std::string_view s);

/// printf-style formatting into a std::string.
std::string StringPrintf(const char* fmt, ...)
    __attribute__((format(printf, 1, 2)));

/// Joins pieces with a separator.
std::string Join(const std::vector<std::string>& pieces, std::string_view sep);

/// Parses all of `text` as one number. std::from_chars takes no leading
/// space or '+', so "abc", "", " 5" and "5x" all fail.
template <typename T>
bool ParseWhole(std::string_view text, T* out) {
  const char* end = text.data() + text.size();
  const auto [ptr, ec] = std::from_chars(text.data(), end, *out);
  return ec == std::errc() && ptr == end;
}

}  // namespace crowdselect

#endif  // CROWDSELECT_UTIL_STRING_UTIL_H_
