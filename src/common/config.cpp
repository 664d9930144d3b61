#include "common/config.hpp"

#include <cstdlib>

namespace tlrob {

Options Options::from_args(int argc, const char* const* argv) {
  std::vector<std::string> tokens;
  for (int i = 1; i < argc; ++i) tokens.emplace_back(argv[i]);
  return from_tokens(tokens);
}

Options Options::from_tokens(const std::vector<std::string>& tokens) {
  Options opts;
  for (const auto& tok : tokens) {
    // Accept both "key=value" and "--key=value".
    size_t dashes = 0;
    while (dashes < tok.size() && tok[dashes] == '-') ++dashes;
    const std::string t = tok.substr(dashes);
    auto eq = t.find('=');
    if (eq == std::string::npos) {
      if (tok.size() > 1 && tok[0] == '-') {
        // (insert_or_assign sidesteps GCC 12's -Wrestrict false positive on
        // map-subscript assignment from a literal, PR105329.)
        opts.values_.insert_or_assign(t, std::string("1"));  // bare flag
      } else {
        opts.positional_.push_back(tok);
      }
    } else {
      opts.values_[t.substr(0, eq)] = t.substr(eq + 1);
    }
  }
  return opts;
}

std::map<std::string, std::string>::const_iterator Options::find(
    const std::string& key) const {
  read_.insert(key);
  return values_.find(key);
}

bool Options::has(const std::string& key) const { return find(key) != values_.end(); }

std::string Options::get(const std::string& key, const std::string& fallback) const {
  auto it = find(key);
  return it == values_.end() ? fallback : it->second;
}

u64 Options::get_u64(const std::string& key, u64 fallback) const {
  auto it = find(key);
  return it == values_.end() ? fallback : std::strtoull(it->second.c_str(), nullptr, 0);
}

double Options::get_double(const std::string& key, double fallback) const {
  auto it = find(key);
  return it == values_.end() ? fallback : std::strtod(it->second.c_str(), nullptr);
}

std::vector<std::string> Options::get_list(const std::string& key) const {
  std::vector<std::string> out;
  const std::string csv = get(key);
  size_t start = 0;
  while (start <= csv.size()) {
    const size_t comma = csv.find(',', start);
    const std::string item =
        csv.substr(start, comma == std::string::npos ? std::string::npos : comma - start);
    if (!item.empty()) out.push_back(item);
    if (comma == std::string::npos) break;
    start = comma + 1;
  }
  return out;
}

std::vector<std::string> Options::unread_keys() const {
  std::vector<std::string> out;
  for (const auto& [key, value] : values_)
    if (read_.count(key) == 0) out.push_back(key);
  return out;
}

bool Options::get_bool(const std::string& key, bool fallback) const {
  auto it = find(key);
  if (it == values_.end()) return fallback;
  const std::string& v = it->second;
  return !(v == "0" || v == "false" || v == "no" || v == "off");
}

}  // namespace tlrob
