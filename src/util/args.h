// Declarative command-line flags for the tools. Each flag is written once —
// name, kind, default, help and bounds — and a Command lists the flags it
// accepts. Args parses argv against that list:
//   --flag value   |   --flag=value   |   --switch
// A switch never takes a value; an integer or number must be the whole token
// and lie inside its bounds; a one-of value must be one of the listed values.
#pragma once

#include <cstddef>
#include <functional>  // std::less<>
#include <map>
#include <string>
#include <string_view>
#include <vector>

#include "util/common.h"

namespace gapsp {

enum class FlagKind { kSwitch, kInteger, kNumber, kText, kOneOf };

struct Flag {
  std::string_view name;
  FlagKind kind = FlagKind::kSwitch;
  /// What a read returns when the flag is absent; an integer or number with
  /// "" has no default and is read only after has(). kOneOf: the accepted
  /// values, '|'-separated, the first being the default.
  std::string_view dflt;
  std::string_view help;
  double lo = 0;  ///< kInteger / kNumber: inclusive bounds
  double hi = 0;
};

struct Command {
  std::string_view name;  ///< "" for the tool's default command
  std::string_view help;
  std::vector<Flag> flags;
};

/// An unknown flag or a stray argument: the tool prints usage() and exits 2.
class UsageError : public Error {
 public:
  using Error::Error;
};

/// Parses all of `text` as a base-10 integer; `what` names it in the Error.
long long parse_integer(std::string_view text, const std::string& what);

class Args {
 public:
  /// Parses argv[first, argc) against `cmd`, which must outlive the Args.
  /// Throws UsageError on an unknown flag or a positional argument, and
  /// Error on a repeated flag, a missing, malformed or out-of-bounds value,
  /// or a switch given a value.
  Args(const Command& cmd, int argc, const char* const* argv, int first = 1);

  /// Whether the flag was given. The reads return its value or the table's
  /// default; text() also reads a kOneOf, whose position choice() returns.
  bool has(std::string_view name) const;
  std::string text(std::string_view name) const;
  long long integer(std::string_view name) const;
  double number(std::string_view name) const;
  std::size_t choice(std::string_view name) const;

 private:
  /// The flag `name` of `kind` (kText admits kOneOf); a mismatch is a bug.
  const Flag& flag(std::string_view name, FlagKind kind) const;
  std::string given_or_default(const Flag& f) const;

  const Command& cmd_;
  std::map<std::string, std::string, std::less<>> given_;
};

/// `cmd`'s usage: its help and one line per flag, with default and bounds.
std::string usage(std::string_view prog, const Command& cmd);

}  // namespace gapsp
