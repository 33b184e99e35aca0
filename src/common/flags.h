// A tiny command-line flag parser used by examples and bench binaries.
//
// Flags are registered at file scope via the Flag<T> template and parsed once
// in main with ParseCommandLine. Supported syntaxes:
//   --name=value     --name value     --bool_flag     --no-bool_flag
// Unknown flags produce an error Status so typos never silently change an
// experiment.
//
// One name may be registered more than once (a binary that links a library
// main next to its own flags, e.g. bench_serve_e2e with svc/serve_main.cc's
// --tasks): every registration receives the parsed value, and usage lists
// the name once.

#ifndef LTC_COMMON_FLAGS_H_
#define LTC_COMMON_FLAGS_H_

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "common/status.h"

namespace ltc {

namespace internal {

/// Type-erased flag registry entry.
class FlagBase {
 public:
  FlagBase(std::string name, std::string help);
  virtual ~FlagBase() = default;

  const std::string& name() const { return name_; }
  const std::string& help() const { return help_; }

  /// Parses a textual value into the flag; returns error on bad syntax.
  virtual Status Parse(const std::string& text) = 0;
  /// True if the flag is boolean (enables --flag / --no-flag forms).
  virtual bool IsBool() const { return false; }
  /// Current value rendered as text (for --help output).
  virtual std::string ValueString() const = 0;

 private:
  std::string name_;
  std::string help_;
};

/// Global name -> every flag registered under it, in registration order.
std::map<std::string, std::vector<FlagBase*>>& FlagRegistry();

}  // namespace internal

/// \brief A typed command-line flag. Instantiate at namespace scope:
/// \code
///   ltc::Flag<int64_t> FLAG_reps("reps", 3, "repetitions per point");
/// \endcode
template <typename T>
class Flag : public internal::FlagBase {
 public:
  Flag(std::string name, T default_value, std::string help)
      : FlagBase(std::move(name), std::move(help)),
        value_(std::move(default_value)) {}

  const T& Get() const { return value_; }
  void Set(T v) { value_ = std::move(v); }

  Status Parse(const std::string& text) override;
  bool IsBool() const override;
  std::string ValueString() const override;

 private:
  T value_;
};

/// Parses argv, mutating registered flags. Non-flag arguments are appended to
/// *positional (may be nullptr to disallow them). Handles --help by printing
/// usage and returning a FailedPrecondition status the caller can exit on.
Status ParseCommandLine(int argc, char** argv,
                        std::vector<std::string>* positional = nullptr);

/// Renders a usage block listing every registered flag.
std::string FlagUsage();

}  // namespace ltc

#endif  // LTC_COMMON_FLAGS_H_
