// The one command-line grammar of every tool (DESIGN.md §15). A tool
// declares its keys once (OptionKey); Options::parse tokenises argv against
// that table, cli_help prints the help from it, and every getter parses its
// value strictly, throwing OptionError, which run_cli turns into exit 2. The
// bag remembers which keys were looked up, so a tool can reject, after
// reading every option it uses, each key it never read.
#pragma once

#include <cstddef>
#include <cstdint>
#include <functional>
#include <map>
#include <set>
#include <stdexcept>
#include <string>
#include <vector>

#include "common/types.hpp"

namespace tlrob {

/// A malformed, missing, repeated or unused option or option value. The
/// message names the key (or the token) and the offending value.
class OptionError : public std::invalid_argument {
 public:
  using std::invalid_argument::invalid_argument;
};

/// One declared key. `name` uses '_' separators; `value` labels the value
/// in the help ("N", "PATH"), and "" declares a flag, which never takes the
/// following token; `help` is the key's one help line.
struct OptionKey {
  const char* name;
  const char* value;
  const char* help;
};

/// A tool's whole command line: its name, the synopsis printed after
/// "usage: <name> ", its keys, and how many positional arguments it takes.
struct CliSpec {
  std::string name;
  std::string synopsis;
  std::vector<OptionKey> keys;
  std::size_t max_positional = 0;
};

/// The display form of a key in messages and help: "--max-cycles", "-p".
std::string option_flag(const std::string& key);

/// The one number parser. `text` must be, as a whole, an unsigned integer
/// no greater than `max`: decimal, or hexadecimal after "0x" ("010" is
/// ten). A sign, whitespace, trailing characters, an empty token and
/// overflow are rejected with an OptionError naming `what` and `text`.
u64 parse_unsigned(const std::string& what, const std::string& text, u64 max = UINT64_MAX);

/// The one boolean parser: exactly 0/1, true/false, yes/no or on/off;
/// anything else is an OptionError naming `what` and `text`.
bool parse_bool(const std::string& what, const std::string& text);

class Options {
 public:
  Options() = default;

  /// Tokenises main()'s argv (argv[0] is skipped) against `keys`, per the
  /// grammar of DESIGN.md §15: `key=value`, `--key=value`, `--key value`
  /// and `--flag` ("1"); '-' in a key reads as '_'; the token after a value
  /// key is its value unless it starts with "--" (so `--insts -5` reaches
  /// get_u64's check); `help`/`h` are implicit flags; an undeclared key is
  /// kept for reject_unread to name. Throws OptionError on a repeated key
  /// and on a value key without a value.
  static Options parse(int argc, const char* const* argv, const std::vector<OptionKey>& keys);

  /// Sets a key directly (tests and library callers; no declaration).
  void set(const std::string& key, const std::string& value) { values_[key] = value; }

  /// Every lookup (has, get, get_*) marks `key` as read. On a bag built by
  /// parse, looking up an undeclared key is a program bug (logic_error):
  /// the help would not list it.
  bool has(const std::string& key) const;

  std::string get(const std::string& key, const std::string& fallback = "") const;
  /// The strict numeric getters: parse_unsigned's rules, and for a double
  /// a whole non-negative finite decimal ("0.5", "1e-3").
  u64 get_u64(const std::string& key, u64 fallback, u64 max = UINT64_MAX) const;
  u32 get_u32(const std::string& key, u32 fallback) const;
  double get_double(const std::string& key, double fallback) const;
  /// parse_bool's spellings.
  bool get_bool(const std::string& key, bool fallback) const;

  /// Comma-separated list value ("1,2,5" -> {"1","2","5"}); an absent key
  /// yields an empty vector, an empty item ("1,,5", "") an OptionError.
  std::vector<std::string> get_list(const std::string& key) const;
  /// The same list with every item a u32.
  std::vector<u32> get_u32_list(const std::string& key) const;

  const std::vector<std::string>& positional() const { return positional_; }

  /// Throws OptionError ("<user> does not use key k=") when a set key has
  /// not been read. A tool calls it once it has read every option it uses,
  /// so a typo or a retired key exits 2 instead of running the default.
  void reject_unread(const std::string& user) const;

 private:
  /// values_.find(key), recording the lookup.
  std::map<std::string, std::string>::const_iterator find(const std::string& key) const;

  std::map<std::string, std::string> values_;
  std::set<std::string> declared_;  // empty unless built by parse
  mutable std::set<std::string> read_;
  std::vector<std::string> positional_;
};

/// The help text of `cli`, generated from its key table.
std::string cli_help(const CliSpec& cli);

/// The front door of every tool's main(): parses argv against `cli`, prints
/// cli_help on --help/-h (exit 0), rejects surplus positional arguments, and
/// runs `body`. Any exception — a malformed option, an unknown benchmark, a
/// bad enum value — ends as "error: <what>" on stderr and exit 2.
int run_cli(int argc, const char* const* argv, const CliSpec& cli,
            const std::function<int(const Options&)>& body);

}  // namespace tlrob
