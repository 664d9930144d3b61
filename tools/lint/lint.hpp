// tlrob-lint: the repo's own determinism & concurrency static analyzer.
//
// Everything this repository certifies rests on one property: bit-identical
// golden fingerprints across all 13 presets at any --jobs N. The golden
// suite and TSan enforce that property dynamically; tlrob-lint enforces the
// *contracts that make it true* statically, as named rules:
//
//   D1  no iteration over unordered containers in an emission path
//       (stat/fingerprint/JSONL/CSV writers): hash-order is an invisible
//       input, so anything emitted from it is nondeterministic.
//   D2  no nondeterminism sources in the simulator core (src/sim, pipeline,
//       rob, memory): rand()/random_device, wall-clock reads, pointer-
//       valued map/set keys (address-order is ASLR-order).
//   D3  every StatGroup counter name referenced in code appears in the
//       DESIGN.md §9 counter-name registry, and every exact registry entry
//       is live in code (a counter name in a golden fixture is API).
//   C1  every mutex declared in a concurrent module guards something:
//       it must be named by at least one TLROB_GUARDED_BY /
//       TLROB_PT_GUARDED_BY annotation (common/thread_annotations.hpp).
//   C2  no naked .lock()/.unlock() in concurrent modules — a Mutex is held
//       through a scoped MutexLock (RAII) or not at all.
//
// Suppression: `// tlrob-lint: allow(D2) <why>` on (or directly above) the
// offending line; `allow-file(...)` for a whole file. Every suppression is
// a reviewed, justified exception — exactly like a NOLINT.
//
// The analysis is token-level (lexer.cpp + rules.cpp): no compiler front end
// is needed to build or run it.
#pragma once

#include <string>
#include <vector>

#include "common/types.hpp"
#include "lint/lexer.hpp"

namespace tlrob::lint {

struct Finding {
  std::string rule;  // "D1".."D3", "C1", "C2"
  std::string path;  // display (root-relative) path
  u32 line = 0;
  std::string message;

  /// "path:line: [rule] message" — the stable output format.
  std::string format() const;
};

/// One entry of the DESIGN.md §9 counter-name registry. `name` may end in
/// '*' (prefix pattern, for dynamically composed families like obs.t*).
struct RegistryEntry {
  std::string name;
  u32 line = 0;  // in DESIGN.md, for reverse-direction findings
  bool is_pattern() const { return !name.empty() && name.back() == '*'; }
};

struct LintOptions {
  /// When true, every rule runs on every file regardless of its scope list
  /// (fixture tests use this; the repo run scopes by path).
  bool all_scopes = false;

  /// Rules to run; empty = all.
  std::vector<std::string> rules;

  /// Counter registry parsed from DESIGN.md (rule D3 is skipped when empty
  /// unless all_scopes forces fixtures through it with a fixture registry).
  std::vector<RegistryEntry> registry;

  bool rule_enabled(const std::string& id) const;
};

/// True when `rule` applies to root-relative path `p` (substring scopes).
bool in_scope(const std::string& rule, const std::string& p);

/// Token-level backend: runs every enabled per-file rule over `file`.
/// (D3's cross-file direction lives in run_registry_check.)
std::vector<Finding> run_file_rules(const LexedFile& file, const LintOptions& opts);

/// D3 both directions over a set of already-lexed files: code literals vs
/// opts.registry, then exact registry entries vs code (all_scopes lifts the
/// path scoping, as in run_file_rules). `design_path` labels
/// reverse-direction findings.
std::vector<Finding> run_registry_check(const std::vector<LexedFile>& files,
                                        const LintOptions& opts,
                                        const std::string& design_path);

/// Parses the ```counter-registry fenced block out of DESIGN.md §9.
/// Returns empty (and sets *error) when the file or block is missing.
std::vector<RegistryEntry> parse_registry(const std::string& design_path, std::string* error);

/// Translation units listed in a compile_commands.json (absolute paths).
/// Throws std::runtime_error when the database is unreadable or malformed.
std::vector<std::string> compile_db_files(const std::string& db_path);

/// The rule catalogue as "ID  description" lines (for --list-rules and the
/// DESIGN.md §11 doc to stay in sync by eyeball).
std::vector<std::string> rule_catalogue();

}  // namespace tlrob::lint
