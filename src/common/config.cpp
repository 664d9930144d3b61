#include "common/config.hpp"

#include <algorithm>
#include <charconv>
#include <cmath>
#include <cstdio>
#include <exception>

namespace tlrob {

namespace {

[[noreturn]] void bad_value(const std::string& what, const char* expected,
                            const std::string& text) {
  throw OptionError(what + ": expected " + expected + ", got '" + text + "'");
}

double parse_real(const std::string& what, const std::string& text) {
  double value = 0.0;
  const char* last = text.data() + text.size();
  const auto [end, ec] = std::from_chars(text.data(), last, value);
  if (ec != std::errc() || end != last || text[0] == '-' || !std::isfinite(value))
    bad_value(what, "a non-negative number", text);
  return value;
}

}  // namespace

std::string option_flag(const std::string& key) {
  std::string flag = (key.size() == 1 ? "-" : "--") + key;
  std::replace(flag.begin(), flag.end(), '_', '-');
  return flag;
}

u64 parse_unsigned(const std::string& what, const std::string& text, u64 max) {
  const bool hex = text.size() > 2 && text[0] == '0' && (text[1] == 'x' || text[1] == 'X');
  const char* first = text.data() + (hex ? 2 : 0);
  const char* last = text.data() + text.size();
  u64 value = 0;
  const auto [end, ec] = std::from_chars(first, last, value, hex ? 16 : 10);
  if (ec == std::errc::result_out_of_range || (ec == std::errc() && end == last && value > max))
    bad_value(what, ("an unsigned integer <= " + std::to_string(max)).c_str(), text);
  if (ec != std::errc() || end != last) bad_value(what, "an unsigned integer", text);
  return value;
}

bool parse_bool(const std::string& what, const std::string& text) {
  if (text == "1" || text == "true" || text == "yes" || text == "on") return true;
  if (text == "0" || text == "false" || text == "no" || text == "off") return false;
  bad_value(what, "0|1|true|false|yes|no|on|off", text);
}

Options Options::parse(int argc, const char* const* argv, const std::vector<OptionKey>& keys) {
  Options opts;
  std::map<std::string, bool> is_flag{{"help", true}, {"h", true}};
  for (const OptionKey& k : keys) is_flag[k.name] = *k.value == '\0';
  for (const auto& entry : is_flag) opts.declared_.insert(entry.first);

  auto store = [&opts](std::string key, std::string value) {
    std::replace(key.begin(), key.end(), '-', '_');
    if (!opts.values_.emplace(key, std::move(value)).second)
      throw OptionError(option_flag(key) + ": given more than once");
  };
  auto starts_with_dashes = [](const char* tok) { return tok[0] == '-' && tok[1] == '-'; };

  for (int i = 1; i < argc; ++i) {
    const std::string tok = argv[i];
    const size_t dashes = std::min(tok.find_first_not_of('-'), tok.size());
    const size_t eq = tok.find('=');
    if (eq != std::string::npos) {
      store(tok.substr(dashes, eq - dashes), tok.substr(eq + 1));
    } else if (dashes == 0 || dashes == tok.size()) {
      opts.positional_.push_back(tok);  // a name, or a lone "-"
    } else {
      std::string key = tok.substr(dashes);
      std::replace(key.begin(), key.end(), '-', '_');
      const auto decl = is_flag.find(key);
      if (decl != is_flag.end() && decl->second) {
        store(key, "1");
        continue;
      }
      const bool has_value = i + 1 < argc && !starts_with_dashes(argv[i + 1]);
      if (decl != is_flag.end() && !has_value)
        throw OptionError(option_flag(key) + ": expected a value");
      store(key, has_value ? argv[++i] : "");
    }
  }
  return opts;
}

std::map<std::string, std::string>::const_iterator Options::find(
    const std::string& key) const {
  if (!declared_.empty() && declared_.count(key) == 0)
    throw std::logic_error("option key '" + key + "' is read but not declared");
  read_.insert(key);
  return values_.find(key);
}

bool Options::has(const std::string& key) const { return find(key) != values_.end(); }

std::string Options::get(const std::string& key, const std::string& fallback) const {
  auto it = find(key);
  return it == values_.end() ? fallback : it->second;
}

u64 Options::get_u64(const std::string& key, u64 fallback, u64 max) const {
  auto it = find(key);
  return it == values_.end() ? fallback : parse_unsigned(option_flag(key), it->second, max);
}

u32 Options::get_u32(const std::string& key, u32 fallback) const {
  return static_cast<u32>(get_u64(key, fallback, UINT32_MAX));
}

double Options::get_double(const std::string& key, double fallback) const {
  auto it = find(key);
  return it == values_.end() ? fallback : parse_real(option_flag(key), it->second);
}

bool Options::get_bool(const std::string& key, bool fallback) const {
  auto it = find(key);
  return it == values_.end() ? fallback : parse_bool(option_flag(key), it->second);
}

std::vector<std::string> Options::get_list(const std::string& key) const {
  std::vector<std::string> out;
  if (!has(key)) return out;
  const std::string csv = get(key);
  for (size_t start = 0;;) {
    const size_t comma = csv.find(',', start);
    out.push_back(csv.substr(start, comma == std::string::npos ? comma : comma - start));
    if (out.back().empty()) bad_value(option_flag(key), "a list without empty items", csv);
    if (comma == std::string::npos) return out;
    start = comma + 1;
  }
}

std::vector<u32> Options::get_u32_list(const std::string& key) const {
  std::vector<u32> out;
  for (const std::string& item : get_list(key))
    out.push_back(static_cast<u32>(parse_unsigned(option_flag(key), item, UINT32_MAX)));
  return out;
}

void Options::reject_unread(const std::string& user) const {
  std::string unread;
  size_t count = 0;
  for (const auto& [key, value] : values_) {
    if (read_.count(key) != 0) continue;
    unread += " " + key + "=";
    ++count;
  }
  if (count != 0)
    throw OptionError(user + " does not use key" + (count == 1 ? "" : "s") + unread);
}

std::string cli_help(const CliSpec& cli) {
  std::string out = "usage: " + cli.name + " " + cli.synopsis +
                    "\n\noptions (key=value, --key=value, --key value or --flag; '-' and '_'\n"
                    "are interchangeable in keys):\n";
  std::vector<OptionKey> keys = cli.keys;
  keys.push_back({"help", "", "print this help and exit (also -h)"});
  for (const OptionKey& k : keys) {
    std::string line = "  " + option_flag(k.name);
    if (*k.value != '\0') line += std::string(" ") + k.value;
    line.resize(std::max<size_t>(line.size() + 2, 26), ' ');
    out += line + k.help + "\n";
  }
  out += "a malformed value, a repeated key or a key the run does not use exits 2\n";
  return out;
}

int run_cli(int argc, const char* const* argv, const CliSpec& cli,
            const std::function<int(const Options&)>& body) {
  try {
    const Options opts = Options::parse(argc, argv, cli.keys);
    if (opts.get_bool("help", false) || opts.get_bool("h", false)) {
      std::fputs(cli_help(cli).c_str(), stdout);
      return 0;
    }
    if (opts.positional().size() > cli.max_positional)
      throw OptionError(cli.name + ": unexpected argument '" +
                        opts.positional()[cli.max_positional] + "'");
    return body(opts);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "error: %s\n", e.what());
    return 2;
  }
}

}  // namespace tlrob
