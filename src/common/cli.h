// Minimal command-line flag parsing for the example binaries.
//
// Supports `--name value` and `--name=value`, plus declared boolean
// switches (`--name` with no value); everything else is collected as
// positional arguments. Unknown flags are an error so typos surface.
// `--help` is a switch every command line accepts; tools answer it with
// their usage text and exit 0.
#pragma once

#include <cstdint>
#include <map>
#include <optional>
#include <string>
#include <vector>

namespace fsbb {

/// Parsed command line: declared flags plus positional arguments.
class CliArgs {
 public:
  /// Parses argv. `known_flags` lists every accepted value-carrying
  /// `--flag name`; `bool_flags` lists switches that take no value (their
  /// presence stores "1", so has() answers them). `--help` is always
  /// accepted (see help()). Throws CheckFailure on unknown flags or
  /// missing values.
  static CliArgs parse(int argc, const char* const* argv,
                       const std::vector<std::string>& known_flags,
                       const std::vector<std::string>& bool_flags = {});

  /// True when `--help` was given.
  bool help() const { return has(kHelp); }

  bool has(const std::string& name) const;
  std::optional<std::string> get(const std::string& name) const;
  std::string get_or(const std::string& name, std::string fallback) const;
  std::int64_t get_int_or(const std::string& name, std::int64_t fallback) const;
  double get_double_or(const std::string& name, double fallback) const;

  const std::vector<std::string>& positional() const { return positional_; }
  const std::string& program() const { return program_; }

 private:
  static constexpr const char* kHelp = "help";

  std::string program_;
  std::map<std::string, std::string> flags_;
  std::vector<std::string> positional_;
};

}  // namespace fsbb
