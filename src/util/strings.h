// Small string utilities shared by the parsers (description files, template
// files, controller command lines) and by report formatting.
#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

namespace dpm::util {

/// Splits on any character in `seps`; empty fields are dropped.
std::vector<std::string> split(std::string_view s, std::string_view seps);

/// Splits on `sep` keeping empty fields (for positional formats).
std::vector<std::string> split_keep_empty(std::string_view s, char sep);

std::string_view trim(std::string_view s);
std::string to_lower(std::string_view s);

/// Strict integer parse of the whole string, accepting exactly what
/// std::from_chars accepts for int64 (an optional '-', then decimal
/// digits); nullopt on anything else or on overflow.
std::optional<std::int64_t> parse_int(std::string_view s);
/// Integer parse in the given base (2..16), whole string.
std::optional<std::int64_t> parse_int_base(std::string_view s, int base);

/// printf-style formatting into a std::string.
std::string strprintf(const char* fmt, ...) __attribute__((format(printf, 1, 2)));

/// Joins with `sep`.
std::string join(const std::vector<std::string>& parts, std::string_view sep);

/// True if `s` consists only of the paper's legal parameter characters:
/// digits, letters, '/', '.', '-', '_' and ':' (we admit '-' for flag
/// negation and '_' / ':' for names).
bool is_word(std::string_view s);

}  // namespace dpm::util
