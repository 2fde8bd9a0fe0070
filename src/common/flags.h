// Command-line flags and bench environment knobs, parsed one checked way.
//
// Each CLI builds one Flags table and registers every flag once: its
// spelling ("--name METAVAR", or a bare "--name" for a presence flag), the
// field it sets and a help line. --help prints the table with each field's
// value at registration as that flag's default, so a CLI sets its own
// defaults on its config objects before it registers them.
//
// A value must parse in full (std::from_chars), fit the field's type and,
// for floating point, be finite. A malformed or missing value, or an
// unknown flag, is an error naming the flag and the value; parse_or_exit
// prints it and exits 2 before the CLI does any work.
#pragma once

#include <charconv>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <functional>
#include <limits>
#include <string>
#include <string_view>
#include <type_traits>
#include <vector>

#include "common/check.h"

namespace paintplace {

/// A std::chrono::duration, bound by its count.
template <class T>
concept Duration = requires(T d) { typename T::period; d.count(); };

/// Parses all of `text` as one T: an integer that fits T, a finite float or
/// double, a std::string, or a std::chrono::duration's count. A float is
/// read as a double and then narrowed, which rounds exactly like
/// static_cast<float>(std::atof(text)). Returns false, leaving `out`
/// untouched, when the text is anything else.
template <class T>
bool parse_value(std::string_view text, T& out) {
  const char* const end = text.data() + text.size();
  if constexpr (std::is_same_v<T, std::string>) {
    out = std::string(text);
    return true;
  } else if constexpr (Duration<T>) {
    typename T::rep count{};
    if (!parse_value(text, count)) return false;
    out = T(count);
    return true;
  } else if constexpr (std::is_floating_point_v<T>) {
    double v = 0.0;
    const auto [stop, ec] = std::from_chars(text.data(), end, v);
    if (ec != std::errc() || stop != end || !std::isfinite(v) ||
        std::fabs(v) > static_cast<double>(std::numeric_limits<T>::max())) {
      return false;
    }
    out = static_cast<T>(v);
    return true;
  } else {
    static_assert(std::is_integral_v<T> && !std::is_same_v<T, bool>,
                  "parse_value: unsupported type");
    T v{};
    const auto [stop, ec] = std::from_chars(text.data(), end, v);
    if (ec != std::errc() || stop != end) return false;
    out = v;
    return true;
  }
}

/// What parse_value<T> accepts, for error messages.
template <class T>
std::string expected_value() {
  if constexpr (std::is_floating_point_v<T>) {
    return "a finite number";
  } else if constexpr (Duration<T>) {
    return expected_value<typename T::rep>();
  } else if constexpr (std::is_integral_v<T>) {
    return "an integer in [" + std::to_string(std::numeric_limits<T>::min()) + ", " +
           std::to_string(std::numeric_limits<T>::max()) + "]";
  } else {
    return "";
  }
}

/// A value as --help shows it as a default ("" shows none).
template <class T>
std::string flag_text(const T& value) {
  if constexpr (std::is_same_v<T, std::string>) {
    return value;
  } else if constexpr (Duration<T>) {
    return std::to_string(value.count());
  } else if constexpr (std::is_floating_point_v<T>) {
    char buf[32];
    std::snprintf(buf, sizeof(buf), "%g", static_cast<double>(value));
    return buf;
  } else {
    return std::to_string(value);
  }
}

/// The environment variable `name` parsed by parse_value<T>, or `fallback`
/// when it is unset. A malformed value throws CheckError naming the variable.
template <class T>
T env_or(const char* name, T fallback) {
  const char* text = std::getenv(name);
  if (text == nullptr) return fallback;
  PP_CHECK_MSG(parse_value(text, fallback), name << ": invalid value '" << text << "' (expected "
                                                 << expected_value<T>() << ")");
  return fallback;
}

class Flags {
 public:
  /// A custom flag's parser: stores the value and returns true, or returns
  /// false to reject it.
  using Setter = std::function<bool(std::string_view)>;

  /// `program` prefixes errors; --help opens with "program — summary".
  Flags(std::string program, std::string summary);

  /// A value flag bound to `field` (see parse_value for the types).
  template <class T>
  Flags& add(std::string_view spec, T& field, std::string help) {
    return add(spec, [&field](std::string_view v) { return parse_value(v, field); },
               flag_text(field), std::move(help), expected_value<T>());
  }
  /// A presence flag: when given, it stores `value` in `field`.
  Flags& add(std::string_view name, bool& field, std::string help, bool value = true);
  /// A value flag with its own parser. --help shows `shown` as the default;
  /// an error about a rejected value quotes `expected` when it is set.
  Flags& add(std::string_view spec, Setter set, std::string shown, std::string help,
             std::string expected = "");

  /// Parses argv[1..argc) into the bound fields, in order. Returns "" on
  /// success, or an error naming the flag (and the value, if any). --help or
  /// -h stops the parse and marks given("--help").
  std::string parse(int argc, const char* const* argv);
  /// parse(), then print usage() and exit 0 on --help, or print the error to
  /// stderr and exit 2.
  void parse_or_exit(int argc, const char* const* argv);

  /// Whether the flag `name` (or "--help") appeared on the command line.
  bool given(std::string_view name) const;
  /// The --help text: one line per flag, each with its default.
  std::string usage() const;

 private:
  struct Flag {
    std::string name;
    std::string metavar;  ///< empty for a presence flag
    std::string help;
    std::string shown;
    std::string expected;
    Setter set;
    bool given = false;
  };

  const Flag* find(std::string_view name) const;

  std::string program_;
  std::string summary_;
  std::vector<Flag> flags_;
  bool help_ = false;
};

}  // namespace paintplace
