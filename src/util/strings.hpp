// Small string helpers used across the codebase.
#pragma once

#include <string>
#include <string_view>
#include <vector>

namespace scoris::util {

/// Split `s` on `sep`, keeping empty fields.
[[nodiscard]] std::vector<std::string> split(std::string_view s, char sep);

/// Split on any run of whitespace, dropping empty fields.
[[nodiscard]] std::vector<std::string> split_ws(std::string_view s);

/// Strip leading and trailing ASCII whitespace.
[[nodiscard]] std::string_view trim(std::string_view s);

}  // namespace scoris::util
