// Minimal "key=value" option-bag used by the tools, examples and tests to
// override experiment parameters from the command line without pulling in a
// flags library. The bag remembers which keys were looked up, so a tool can
// reject, after reading every option it uses, each key it never read.
#pragma once

#include <map>
#include <optional>
#include <set>
#include <string>
#include <vector>

#include "common/types.hpp"

namespace tlrob {

/// Parses arguments of the form `key=value` (or bare `key`, stored as "1").
/// Unrecognised positional arguments are kept in order and retrievable.
class Options {
 public:
  Options() = default;

  /// Parse from main()'s argv (argv[0] is skipped).
  static Options from_args(int argc, const char* const* argv);

  /// Parse from a pre-split token list.
  static Options from_tokens(const std::vector<std::string>& tokens);

  void set(const std::string& key, const std::string& value) { values_[key] = value; }

  /// Every lookup (has, get, get_*) marks `key` as read.
  bool has(const std::string& key) const;

  std::string get(const std::string& key, const std::string& fallback = "") const;
  u64 get_u64(const std::string& key, u64 fallback) const;
  double get_double(const std::string& key, double fallback) const;
  bool get_bool(const std::string& key, bool fallback) const;

  /// Comma-separated list value ("1,2,5" -> {"1","2","5"}); empty items are
  /// dropped, an absent key yields an empty vector.
  std::vector<std::string> get_list(const std::string& key) const;

  const std::vector<std::string>& positional() const { return positional_; }

  /// Every set key that no lookup has read yet, in sorted order. A tool
  /// calls this once it has read every option it uses and exits 2 when the
  /// result is non-empty: such a key would otherwise be silently dropped.
  std::vector<std::string> unread_keys() const;

 private:
  /// values_.find(key), recording the lookup.
  std::map<std::string, std::string>::const_iterator find(const std::string& key) const;

  std::map<std::string, std::string> values_;
  mutable std::set<std::string> read_;
  std::vector<std::string> positional_;
};

}  // namespace tlrob
