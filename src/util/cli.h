// Tiny declarative command-line flag parser shared by benches and examples.
//
// Supports `--flag value`, `--flag=value`, and boolean `--flag` /
// `--no-flag`.  Unknown flags are reported as errors so typos in bench
// invocations do not silently fall back to defaults.
#pragma once

#include <cstdint>
#include <functional>
#include <map>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

namespace hsw {

class CommandLine {
 public:
  // `binary_summary` is printed at the top of --help output.
  explicit CommandLine(std::string binary_summary);

  void add_string(std::string name, std::string* target, std::string help);
  void add_int(std::string name, std::int64_t* target, std::string help);
  void add_double(std::string name, double* target, std::string help);
  void add_bool(std::string name, bool* target, std::string help);
  // Byte-size flag accepting "64KiB"-style values (see parse_bytes()).
  void add_bytes(std::string name, std::uint64_t* target, std::string help);

  // Post-parse validation hook.  Checks run in registration order after all
  // flags were assigned; a check that returns a message fails the parse with
  // ParseStatus::kError (message printed to stderr, like a bad flag value).
  // This is how binaries keep cross-flag policy ("--observe resources
  // requires --engine simulated") inside the single ParseStatus exit path
  // instead of sprinkling exit() calls after parsing.
  void add_check(std::function<std::optional<std::string>()> check);

  // Result of parse_status(): callers that exit on failure should use a
  // nonzero exit code for kError (a typo must fail CI) and zero for kHelp.
  enum class ParseStatus { kOk, kHelp, kError };

  // Parses the arguments.  kHelp means --help/-h was given (help text was
  // printed to stdout); kError means a bad flag or value (message printed
  // to stderr).  Positional arguments are collected in `positional()`.
  ParseStatus parse_status(int argc, const char* const* argv);

  // Legacy boolean form: true on success, false on --help *or* error.
  bool parse(int argc, const char* const* argv) {
    return parse_status(argc, argv) == ParseStatus::kOk;
  }

  [[nodiscard]] const std::vector<std::string>& positional() const {
    return positional_;
  }
  [[nodiscard]] std::string help() const;

 private:
  struct Flag {
    std::string help;
    std::string default_value;
    bool is_bool = false;
    std::function<bool(std::string_view)> assign;
  };

  std::string summary_;
  std::map<std::string, Flag, std::less<>> flags_;
  std::vector<std::function<std::optional<std::string>()>> checks_;
  std::vector<std::string> positional_;
};

}  // namespace hsw
