// Strict number grammar and one declarative option table for every
// command-line front end (e2efa-sim, fuzz, trace-tool, the benches and the
// examples).
//
// One declaration per option yields both its parser and its --help line:
//
//   OptionTable t("fuzz", "usage: fuzz [options]\n");
//   t.positive("--seconds", "T", "measured seconds per run (default 3)", &seconds)
//       .u64("--seed", "N", "first scenario seed (default 1)", &seed)
//       .flag("--quiet", "suppress per-iteration progress", &quiet);
//   t.parse_or_exit(argc, argv);
//
// Every value goes through the grammar below, so "0.1x", "nan", "1e400",
// "-5" for an unsigned value and integers past their type are errors that
// name the option, never silently truncated or wrapped values.
#pragma once

#include <cstdint>
#include <functional>
#include <optional>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

namespace e2efa {

/// Strict token grammar. Each parser returns nullopt unless the whole token
/// is one decimal number (an optional leading '+' aside, no whitespace)
/// representable in the result type; parse_double also rejects inf and nan.
std::optional<double> parse_double(std::string_view tok);
std::optional<int> parse_int(std::string_view tok);
std::optional<std::uint64_t> parse_uint64(std::string_view tok);

/// Splits "A<sep>B" at the first sep; nullopt when sep is absent.
std::optional<std::pair<std::string_view, std::string_view>> split_pair(
    std::string_view s, char sep);

/// A list of named options parsed from argv. Entries without a metavar are
/// flags; all others take exactly one value, the next argument.
class OptionTable {
 public:
  /// Applies the option's value (empty for a flag). Returns an error
  /// message, or "" when the value is accepted.
  using Setter = std::function<std::string(const std::string& value)>;

  /// `prog` prefixes error messages; `header` opens usage() and ends in a
  /// newline ("usage: prog [options]\n", plus any text about positionals).
  OptionTable(std::string prog, std::string header);

  OptionTable& add(std::string name, std::string metavar, std::string help,
                   Setter set);
  OptionTable& flag(std::string name, std::string help, bool* out);
  /// A non-empty string value.
  OptionTable& text(std::string name, std::string metavar, std::string help,
                    std::string* out);
  /// A finite double in [lo, hi].
  OptionTable& real(std::string name, std::string metavar, std::string help,
                    double* out, double lo, double hi);
  /// A finite double > 0.
  OptionTable& positive(std::string name, std::string metavar, std::string help,
                        double* out);
  /// An int in [lo, hi].
  OptionTable& integer(std::string name, std::string metavar, std::string help,
                       int* out, int lo, int hi);
  OptionTable& u64(std::string name, std::string metavar, std::string help,
                   std::uint64_t* out);

  enum class Status { kOk, kHelp, kError };

  /// Parses argv[first, argc). --help / -h stops with kHelp; any error
  /// stops with kError and a message in *error that names the option.
  Status parse(int argc, const char* const* argv, std::string* error,
               int first = 1) const;

  /// The header, then one line per entry with multi-line help indented to
  /// one column, then --help.
  std::string usage() const;

  /// parse() under the front-end policy: --help prints usage() to stdout
  /// and exits 0; an error goes to fail().
  void parse_or_exit(int argc, const char* const* argv, int first = 1) const;

  /// Prints "prog: error" and usage() to stderr and exits 2. For the checks
  /// a front end makes after parsing.
  [[noreturn]] void fail(const std::string& error) const;

 private:
  struct Entry {
    std::string name, metavar, help;
    Setter set;
  };
  std::string prog_, header_;
  std::vector<Entry> entries_;
};

}  // namespace e2efa
