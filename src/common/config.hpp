// Minimal "key=value" option-bag used by benches, examples and tests to
// override experiment parameters from the command line without pulling in a
// flags library.
#pragma once

#include <map>
#include <optional>
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

  bool has(const std::string& key) const { return values_.count(key) != 0; }

  std::string get(const std::string& key, const std::string& fallback = "") const;
  u64 get_u64(const std::string& key, u64 fallback) const;
  double get_double(const std::string& key, double fallback) const;
  bool get_bool(const std::string& key, bool fallback) const;

  /// Comma-separated list value ("1,2,5" -> {"1","2","5"}); empty items are
  /// dropped, an absent key yields an empty vector.
  std::vector<std::string> get_list(const std::string& key) const;

  const std::vector<std::string>& positional() const { return positional_; }

  /// Every key that was set, in sorted order.
  std::vector<std::string> keys() const;

 private:
  std::map<std::string, std::string> values_;
  std::vector<std::string> positional_;
};

}  // namespace tlrob
