// Small string helpers shared by the assembler, profile (de)serializer, and
// report printers.
#ifndef YIELDHIDE_SRC_COMMON_STRINGS_H_
#define YIELDHIDE_SRC_COMMON_STRINGS_H_

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "src/common/status.h"

namespace yieldhide {

// Splits on `sep`, dropping empty pieces when `skip_empty`.
std::vector<std::string_view> SplitString(std::string_view input, char sep,
                                          bool skip_empty = true);

// Strips ASCII whitespace from both ends.
std::string_view TrimString(std::string_view input);

bool StartsWith(std::string_view s, std::string_view prefix);

// Strict number parsing; the whole string must be consumed. ParseDouble also
// rejects "nan" and "inf", so every parsed double is finite.
Result<int64_t> ParseInt64(std::string_view s);
Result<uint64_t> ParseUint64(std::string_view s);
Result<double> ParseDouble(std::string_view s);

// printf-style formatting into a std::string.
std::string StrFormat(const char* fmt, ...) __attribute__((format(printf, 1, 2)));

// Renders n with thousands separators ("1,234,567") for report output.
std::string WithCommas(uint64_t n);

}  // namespace yieldhide

#endif  // YIELDHIDE_SRC_COMMON_STRINGS_H_
