#include "util/strings.h"

#include <cctype>
#include <charconv>
#include <cstdarg>
#include <cstdio>

namespace dpm::util {

std::vector<std::string> split(std::string_view s, std::string_view seps) {
  std::vector<std::string> out;
  std::size_t start = 0;
  for (std::size_t i = 0; i <= s.size(); ++i) {
    if (i == s.size() || seps.find(s[i]) != std::string_view::npos) {
      if (i > start) out.emplace_back(s.substr(start, i - start));
      start = i + 1;
    }
  }
  return out;
}

std::vector<std::string> split_keep_empty(std::string_view s, char sep) {
  std::vector<std::string> out;
  std::size_t start = 0;
  for (std::size_t i = 0; i <= s.size(); ++i) {
    if (i == s.size() || s[i] == sep) {
      out.emplace_back(s.substr(start, i - start));
      start = i + 1;
    }
  }
  return out;
}

std::string_view trim(std::string_view s) {
  std::size_t b = 0, e = s.size();
  while (b < e && std::isspace(static_cast<unsigned char>(s[b]))) ++b;
  while (e > b && std::isspace(static_cast<unsigned char>(s[e - 1]))) --e;
  return s.substr(b, e - b);
}

std::string to_lower(std::string_view s) {
  std::string out(s);
  for (char& c : out) c = static_cast<char>(std::tolower(static_cast<unsigned char>(c)));
  return out;
}

// std::from_chars' int64 grammar by hand (it is on the trace reader's
// per-field path): an optional '-', then decimal digits; no '+', no spaces.
std::optional<std::int64_t> parse_int(std::string_view s) {
  const char* p = s.data();
  const char* const end = p + s.size();
  const bool neg = p < end && *p == '-';
  if (neg) ++p;
  if (p == end) return std::nullopt;
  while (p < end && *p == '0') ++p;  // leading zeros do not count
  if (end - p > 19) return std::nullopt;  // > 19 digits overflows int64
  std::uint64_t v = 0;
  for (; p < end; ++p) {
    const unsigned d = static_cast<unsigned char>(*p) - unsigned{'0'};
    if (d > 9) return std::nullopt;
    v = v * 10 + d;  // < 10^19: cannot wrap
  }
  const std::uint64_t limit = std::uint64_t{1} << 63;  // |INT64_MIN|
  if (v > limit - (neg ? 0 : 1)) return std::nullopt;
  return static_cast<std::int64_t>(neg ? 0 - v : v);
}

std::optional<std::int64_t> parse_int_base(std::string_view s, int base) {
  if (s.empty() || base < 2 || base > 16) return std::nullopt;
  bool neg = false;
  if (s.front() == '-') {
    neg = true;
    s.remove_prefix(1);
    if (s.empty()) return std::nullopt;
  }
  std::int64_t v = 0;
  auto [p, ec] = std::from_chars(s.data(), s.data() + s.size(), v, base);
  if (ec != std::errc{} || p != s.data() + s.size()) return std::nullopt;
  return neg ? -v : v;
}

std::string strprintf(const char* fmt, ...) {
  va_list ap;
  va_start(ap, fmt);
  va_list ap2;
  va_copy(ap2, ap);
  const int n = std::vsnprintf(nullptr, 0, fmt, ap);
  va_end(ap);
  std::string out;
  if (n > 0) {
    out.resize(static_cast<std::size_t>(n));
    std::vsnprintf(out.data(), out.size() + 1, fmt, ap2);
  }
  va_end(ap2);
  return out;
}

std::string join(const std::vector<std::string>& parts, std::string_view sep) {
  std::string out;
  for (std::size_t i = 0; i < parts.size(); ++i) {
    if (i) out += sep;
    out += parts[i];
  }
  return out;
}

bool is_word(std::string_view s) {
  if (s.empty()) return false;
  for (char c : s) {
    if (!std::isalnum(static_cast<unsigned char>(c)) && c != '/' && c != '.' &&
        c != '-' && c != '_' && c != ':') {
      return false;
    }
  }
  return true;
}

}  // namespace dpm::util
