#ifndef GEPC_COMMON_FLAGS_H_
#define GEPC_COMMON_FLAGS_H_

#include <cstdint>
#include <functional>
#include <initializer_list>
#include <limits>
#include <set>
#include <string>
#include <vector>

#include "common/result.h"
#include "common/status.h"

namespace gepc {

/// One command-line flag a tool accepts, named without its leading "--".
/// Build flags with the factories below; each stores into its target only
/// when the flag is given, so the target's prior value is the default.
///
/// Every flag accepts both `--name value` and `--name=value`, except that
/// Bool flags take no value at all and OptionalValue flags attach theirs
/// only with `=`.
struct Flag {
  enum class Arity { kNone, kRequired, kOptional };
  /// Parses and stores one occurrence's value ("" when none was given).
  using Setter = std::function<Status(const std::string& value)>;

  std::string name;
  Arity arity = Arity::kRequired;
  Setter set;

  static Flag String(std::string name, std::string* out);
  /// Sets `*out` to true; `--name=x` is an error.
  static Flag Bool(std::string name, bool* out);
  /// A base-10 integer in [min, max]; trailing garbage ("4x") is an error.
  static Flag Int(std::string name, int* out, int min, int max);
  /// A base-10 unsigned 64-bit integer (no sign).
  static Flag Uint64(std::string name, uint64_t* out);
  /// A finite number >= min (> min when `min_exclusive`) and <= max.
  static Flag Double(std::string name, double* out, double min,
                     double max = std::numeric_limits<double>::max(),
                     bool min_exclusive = false);
  /// One of `choices`, verbatim.
  static Flag Enum(std::string name, std::string* out,
                   std::vector<std::string> choices);
  /// Parses the value with `set`, for values with their own grammar
  /// (HOST:PORT, weight lists, ...).
  static Flag Custom(std::string name, Setter set);
  /// May be given any number of times; each value is appended.
  static Flag Repeated(std::string name, std::vector<std::string>* out);
  /// `--name` stores "" and `--name=VALUE` stores VALUE. The separate-token
  /// form is not accepted: the next token is parsed as an argument of its
  /// own, so `--name FILE` fails as a stray positional.
  static Flag OptionalValue(std::string name, std::string* out);
};

/// The table of flags one tool (or one subcommand) accepts. Parse is
/// strict: an unknown flag, a missing or malformed value, a value on a Bool
/// flag and any positional argument are all errors. A scalar flag given
/// twice keeps the last value.
class FlagTable {
 public:
  FlagTable(std::initializer_list<Flag> flags);

  /// Parses argv[first, argc). Errors are kInvalidArgument and name the
  /// offending flag or argument; targets already stored stay stored.
  Status Parse(int argc, char** argv, int first = 1);

  /// Whether `name` appeared on the command line.
  bool IsSet(const std::string& name) const;

 private:
  std::vector<Flag> flags_;
  std::set<std::string> given_;
};

/// The subcommand word of `tool <command> [flags...]`.
Result<std::string> CommandWord(int argc, char** argv);

/// Parses "PORT" or "HOST:PORT" into `*host` (left unchanged for a bare
/// PORT) and `*port`. The host, when present, must be non-empty; the port
/// must lie in [min_port, 65535].
Status ParseHostPort(const std::string& spec, int min_port, std::string* host,
                     int* port);

}  // namespace gepc

#endif  // GEPC_COMMON_FLAGS_H_
