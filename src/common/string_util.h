// Small string helpers used across the library (formatting, splitting,
// human-readable units). Kept dependency-free.

#ifndef LTC_COMMON_STRING_UTIL_H_
#define LTC_COMMON_STRING_UTIL_H_

#include <charconv>
#include <cstdint>
#include <string>
#include <string_view>
#include <type_traits>
#include <vector>

namespace ltc {

/// printf-style formatting into a std::string. Formats once into a stack
/// buffer; only output longer than that buffer is formatted a second time.
std::string StrFormat(const char* fmt, ...) __attribute__((format(printf, 1, 2)));

/// Joins `parts` with `sep` ("a", "b" -> "a,b").
std::string Join(const std::vector<std::string>& parts, const std::string& sep);

/// Splits `s` on the character `sep`; keeps empty fields.
std::vector<std::string> Split(const std::string& s, char sep);

/// Removes leading/trailing ASCII whitespace.
std::string Trim(const std::string& s);

/// Trim() without the copy: a view of `s` minus its leading/trailing ASCII
/// whitespace.
std::string_view TrimView(std::string_view s);

/// True if `s` starts with `prefix`.
bool StartsWith(const std::string& s, const std::string& prefix);

/// True if `s` ends with `suffix`.
bool EndsWith(const std::string& s, const std::string& suffix);

/// "12.3 KiB", "4.0 MiB", ... (binary units).
std::string HumanBytes(std::uint64_t bytes);

/// "1.23 s", "45.6 ms", "789 us" — picks a readable unit.
std::string HumanDuration(double seconds);

/// Fixed-precision double ("%.*f").
std::string DoubleToString(double v, int precision = 6);

/// Escapes `s` for embedding in a JSON string literal (quotes, backslashes,
/// newlines) — shared by the exp and svc JSON emitters.
std::string JsonEscape(const std::string& s);

// ---------------------------------------------------------------------------
// The number codec behind every persisted text artifact (WAL, wire payload,
// events file, snapshot, assignment log). Writers append in place with
// std::to_chars; readers parse with std::from_chars. Both are exact, so the
// bytes are those printf/strtod would produce, without their format-string
// and locale overhead.

/// Appends `v` exactly as printf "%.{precision}g" prints it in the C
/// locale (std::to_chars with chars_format::general is specified as that
/// conversion). precision 17 — the default — round-trips every finite
/// double and is the format of every persisted double (DESIGN.md §14).
void AppendDouble(std::string* out, double v, int precision = 17);

/// Appends the decimal form of an integer: printf "%d"/"%lld"/"%llu" bytes.
template <typename Int>
void AppendInt(std::string* out, Int v) {
  static_assert(std::is_integral_v<Int> && !std::is_same_v<Int, bool>,
                "AppendInt takes an integer");
  char buf[24];  // "-9223372036854775808" and UINT64_MAX are 20 chars.
  const std::to_chars_result r = std::to_chars(buf, buf + sizeof(buf), v);
  out->append(buf, r.ptr);
}

/// Appends one text record: `tag`, then each field after a single space,
/// then '\n'. Integer fields print as AppendInt, double fields as
/// AppendDouble at precision 17 — AppendRecord(out, "pt", 3, 0.5, 2.0)
/// appends "pt 3 0.5 2\n".
template <typename... Fields>
void AppendRecord(std::string* out, std::string_view tag,
                  const Fields&... fields) {
  out->append(tag);
  [[maybe_unused]] auto field = [out](const auto& v) {
    using T = std::decay_t<decltype(v)>;
    out->push_back(' ');
    if constexpr (std::is_same_v<T, double>) {
      AppendDouble(out, v);
    } else {
      AppendInt(out, v);
    }
  };
  (field(fields), ...);
  out->push_back('\n');
}

/// Parses a double/int64 with full-string validation. The accepted forms
/// are strtod's/strtoll's (a leading '+' or whitespace, hex floats, inf,
/// nan), with the full string consumed and the value in range; decimal
/// input takes the std::from_chars fast path. Subnormal doubles — which
/// "%.17g" does print — parse, although strtod flags them ERANGE.
bool ParseDouble(std::string_view s, double* out);
bool ParseInt64(std::string_view s, std::int64_t* out);

}  // namespace ltc

#endif  // LTC_COMMON_STRING_UTIL_H_
