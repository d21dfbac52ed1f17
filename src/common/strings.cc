#include "src/common/strings.h"

#include <cerrno>
#include <cmath>
#include <cstdarg>
#include <cstdio>
#include <cstdlib>
#include <cstring>

namespace yieldhide {

std::vector<std::string_view> SplitString(std::string_view input, char sep,
                                          bool skip_empty) {
  std::vector<std::string_view> out;
  size_t start = 0;
  while (start <= input.size()) {
    size_t end = input.find(sep, start);
    if (end == std::string_view::npos) {
      end = input.size();
    }
    std::string_view piece = input.substr(start, end - start);
    if (!piece.empty() || !skip_empty) {
      out.push_back(piece);
    }
    if (end == input.size()) {
      break;
    }
    start = end + 1;
  }
  return out;
}

std::string_view TrimString(std::string_view input) {
  size_t begin = 0;
  while (begin < input.size() && std::isspace(static_cast<unsigned char>(input[begin]))) {
    ++begin;
  }
  size_t end = input.size();
  while (end > begin && std::isspace(static_cast<unsigned char>(input[end - 1]))) {
    --end;
  }
  return input.substr(begin, end - begin);
}

bool StartsWith(std::string_view s, std::string_view prefix) {
  return s.size() >= prefix.size() && s.substr(0, prefix.size()) == prefix;
}

Result<int64_t> ParseInt64(std::string_view s) {
  if (s.empty()) {
    return InvalidArgumentError("empty integer");
  }
  std::string buf(s);
  errno = 0;
  char* end = nullptr;
  const long long v = std::strtoll(buf.c_str(), &end, 0);
  if (errno == ERANGE) {
    return OutOfRangeError("integer out of range: " + buf);
  }
  if (end != buf.c_str() + buf.size()) {
    return InvalidArgumentError("not an integer: " + buf);
  }
  return static_cast<int64_t>(v);
}

Result<uint64_t> ParseUint64(std::string_view s) {
  if (s.empty()) {
    return InvalidArgumentError("empty integer");
  }
  if (s[0] == '-') {
    return InvalidArgumentError("negative value for unsigned: " + std::string(s));
  }
  std::string buf(s);
  errno = 0;
  char* end = nullptr;
  const unsigned long long v = std::strtoull(buf.c_str(), &end, 0);
  if (errno == ERANGE) {
    return OutOfRangeError("integer out of range: " + buf);
  }
  if (end != buf.c_str() + buf.size()) {
    return InvalidArgumentError("not an integer: " + buf);
  }
  return static_cast<uint64_t>(v);
}

Result<double> ParseDouble(std::string_view s) {
  if (s.empty()) {
    return InvalidArgumentError("empty double");
  }
  std::string buf(s);
  errno = 0;
  char* end = nullptr;
  const double v = std::strtod(buf.c_str(), &end);
  if (errno == ERANGE) {
    return OutOfRangeError("double out of range: " + buf);
  }
  if (end != buf.c_str() + buf.size()) {
    return InvalidArgumentError("not a double: " + buf);
  }
  if (!std::isfinite(v)) {
    return InvalidArgumentError("not a finite double: " + buf);
  }
  return v;
}

std::string StrFormat(const char* fmt, ...) {
  va_list args;
  va_start(args, fmt);
  va_list copy;
  va_copy(copy, args);
  const int needed = std::vsnprintf(nullptr, 0, fmt, copy);
  va_end(copy);
  std::string out;
  if (needed > 0) {
    out.resize(static_cast<size_t>(needed));
    std::vsnprintf(out.data(), out.size() + 1, fmt, args);
  }
  va_end(args);
  return out;
}

std::string WithCommas(uint64_t n) {
  std::string digits = std::to_string(n);
  std::string out;
  out.reserve(digits.size() + digits.size() / 3);
  const size_t lead = digits.size() % 3 == 0 ? 3 : digits.size() % 3;
  for (size_t i = 0; i < digits.size(); ++i) {
    if (i != 0 && (i - lead) % 3 == 0 && i >= lead) {
      out.push_back(',');
    }
    out.push_back(digits[i]);
  }
  return out;
}

}  // namespace yieldhide
