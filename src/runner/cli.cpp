#include "runner/cli.hpp"

#include <cstdint>
#include <fstream>
#include <iostream>
#include <memory>
#include <stdexcept>

#include "common/thread_pool.hpp"
#include "sim/config_override.hpp"
#include "trace/resolve.hpp"

namespace tlrob::runner {

const std::vector<CliSpec>& tool_clis() {
  static const std::vector<CliSpec> clis = {
      {"tlrob-campaign",
       "[preset[,preset...] | all] [options]\n"
       "       tlrob-campaign --schemes a,b --thresholds n,m [options]",
       {{"jobs", "N", "worker threads (0 = hardware concurrency; never more than cells)"},
        {"insts", "N", "committed-instruction target per run (default 120000)"},
        {"warmup", "N", "warmup commits excluded from statistics (default 60000)"},
        {"json", "PATH", "JSON-lines sink ('-' = stdout)"},
        {"csv", "PATH", "CSV sink ('-' = stdout)"},
        {"manifest", "PATH", "completion journal enabling --resume"},
        {"resume", "", "replay successful cells from the manifest"},
        {"no_render", "", "suppress the stdout tables (sink-only run)"},
        {"max_cycles", "N", "per-job cycle cap / timeout (0 = derived bound)"},
        {"seed", "N", "base RNG seed (default 12345)"},
        {"per_job_seeds", "", "derive a distinct deterministic seed per cell"},
        {"sample_interval", "N", "interval telemetry every N cycles (0 = off)"},
        {"sample_dir", "DIR", "write each job's series to DIR/samples_job<index>.jsonl"},
        {"workload", "SPEC",
         "per-thread workloads replacing the mixes (name,trace:F,tracegen:,mix:N)"},
        {"schemes", "LIST", "sweep: baseline32|baseline128|rrob|relaxed|cdr|prob|adaptive"},
        {"thresholds", "LIST", "sweep: DoD thresholds crossed with the schemes (default 16)"},
        {"mixes", "LIST", "sweep: 1-based Table 2 mix subset (default: all 11)"},
        {"name", "NAME", "sweep: campaign name (default custom)"},
        {"cores", "N", "sweep: split each column's threads over N cores"},
        {"llc", "SPEC", "sweep: shared LLC size_kb[:ways[:latency[:mshrs]]]"},
        {"dram", "SPEC", "sweep: DRAM channels[:banks[:tcas[:trcd[:trp]]]]"},
        {"list", "", "list the presets and exit"}},
       1},
      {"simulate", "[bench names ...] [key=value ...]",
       [] {
         std::vector<OptionKey> keys = {
             {"mix", "N",
              "Table 2 mix (default 1); SPEC profile names instead give one per thread"},
             {"insts", "N", "committed-instruction target (default 120000)"},
             {"warmup", "N", "warmup commits excluded from statistics (default 60000)"},
             {"max_cycles", "N", "cycle cap (0 = derived bound)"},
             {"stats", "", "dump every counter"},
             {"trace", "START:END", "core 0's pipeline events in that cycle window, to stderr"},
             {"sample", "N", "interval telemetry every N cycles"},
             {"sample_out", "PATH", "series as JSON lines ('-' = stdout)"},
             {"sample_csv", "PATH", "series as CSV ('-' = stdout)"},
             {"trace_json", "PATH", "Chrome trace-event JSON: every core, the shared backend"},
             {"profile", "", "host-side per-stage wall-time profile, to stderr"}};
         keys.insert(keys.end(), machine_option_keys().begin(), machine_option_keys().end());
         return keys;
       }(),
       SIZE_MAX},
      {"tlrob-mktrace", "--profile NAME --records N --out PATH [--seed N]",
       {{"profile", "NAME", "synthetic SPEC profile to transcribe (--list names them)"},
        {"records", "N", "dynamic instructions to emit, one 64-byte record each"},
        {"out", "PATH", "output file; a '.gz' suffix selects gzip compression"},
        {"seed", "N", "generator seed (default 1); same inputs give the same bytes"},
        {"list", "", "list the available profiles and exit"}},
       0},
      {"tlrob-golden", "[--dir DIR] [--preset LIST] [--regen]",
       {{"dir", "DIR", "fixture directory (default tests/golden)"},
        {"preset", "LIST", "comma-separated presets to check (default: all)"},
        {"regen", "", "rewrite the fixtures instead of checking them"}},
       0},
      {"tlrob-lint", "-p compile_commands.json [--root DIR] | --all-scopes [options] file...",
       {{"p", "FILE", "compile database: repo mode lints every unit in it"},
        {"root", "DIR", "repository root (default .)"},
        {"design", "FILE", "DESIGN.md registry for rule D3 (repo mode: <root>/DESIGN.md)"},
        {"rules", "LIST", "comma-separated rule ids to run (default: all)"},
        {"all_scopes", "", "lint the named files with path scoping disabled"},
        {"list_rules", "", "print the rule catalogue and exit"}},
       SIZE_MAX},
      {"campaign_sweep", "[key=value ...]",
       {{"insts", "N", "committed-instruction target (default 8000)"},
        {"warmup", "N", "warmup commits (default 2000)"},
        {"jobs", "N", "worker threads (0 = hardware concurrency)"}},
       0},
  };
  return clis;
}

const CliSpec& tool_cli(const std::string& name) {
  for (const CliSpec& cli : tool_clis())
    if (cli.name == name) return cli;
  throw std::invalid_argument("no command line declared for " + name);
}

namespace {

ConfigColumn scheme_column(const std::string& scheme, u32 threshold) {
  if (scheme == "baseline32") return {"Baseline_32", baseline32_config(), 0};
  if (scheme == "baseline128") return {"Baseline_128", baseline128_config(), 0};
  const RobScheme kind = parse_scheme(scheme);  // throws on unknown names
  std::string prefix;
  switch (kind) {
    case RobScheme::kReactive: prefix = "R-ROB"; break;
    case RobScheme::kRelaxedReactive: prefix = "RelaxedR"; break;
    case RobScheme::kCdr: prefix = "CDR-ROB"; break;
    case RobScheme::kPredictive: prefix = "P-ROB"; break;
    case RobScheme::kAdaptive: prefix = "Adaptive"; break;
    case RobScheme::kBaseline: return {"Baseline_32", baseline32_config(), 0};
  }
  return {prefix + std::to_string(threshold), two_level_config(kind, threshold), 0};
}

/// `spec` under the run options every campaign takes, preset or custom
/// sweep: the run length, a --workload replacing its mixes, and the seeding,
/// cycle-cap and telemetry overrides (an absent option keeps the spec's
/// value). Throws before anything runs on a workload some column's core
/// count does not divide.
CampaignSpec with_run_options(CampaignSpec spec, const Options& opts) {
  spec.lengths = {{opts.get_u64("insts", 120000), opts.get_u64("warmup", 60000)}};
  const std::string workload = opts.get("workload", "");
  if (!workload.empty()) {
    const Mix mix = trace::workload_mix(workload);
    // The workload list sets the thread count: a 2-entry trace mix runs a
    // 2-thread machine under every column. It is core-major: an N-core
    // column splits it into N equal per-core thread groups.
    for (auto& c : spec.columns) {
      if (mix.benchmarks.size() % c.config.num_cores != 0)
        throw std::invalid_argument("workload size " + std::to_string(mix.benchmarks.size()) +
                                    " not divisible by cores=" +
                                    std::to_string(c.config.num_cores));
      c.config.num_threads = static_cast<u32>(mix.benchmarks.size() / c.config.num_cores);
    }
    spec.mixes = {mix};
  }
  spec.seed = opts.get_u64("seed", spec.seed);
  spec.per_job_seeds = opts.get_bool("per_job_seeds", spec.per_job_seeds);
  spec.max_cycles = opts.get_u64("max_cycles", spec.max_cycles);
  spec.sample_interval = opts.get_u64("sample_interval", spec.sample_interval);
  spec.sample_dir = opts.get("sample_dir", spec.sample_dir);
  return spec;
}

}  // namespace

CampaignSpec custom_campaign(const Options& opts) {
  CampaignSpec spec;
  spec.name = opts.get("name", "custom");

  auto schemes = opts.get_list("schemes");
  if (schemes.empty()) schemes = {"baseline32", "rrob"};
  std::vector<u32> thresholds = opts.get_u32_list("thresholds");
  if (thresholds.empty()) thresholds = {16};
  for (const auto& scheme : schemes) {
    if (scheme == "baseline32" || scheme == "baseline128" || scheme == "baseline") {
      spec.columns.push_back(scheme_column(scheme, 0));
      continue;
    }
    for (const u32 th : thresholds) spec.columns.push_back(scheme_column(scheme, th));
  }

  // CMP topology applies uniformly across columns: --cores N gives every
  // column an N-core machine, --llc/--dram shape the shared backend. The
  // machine-wide thread count is preserved — N cores split the column's
  // threads (4-thread Table 2 mixes become 2 cores x 2 threads) — so the
  // same mixes drive any core count.
  for (auto& c : spec.columns) {
    const u32 cores = opts.get_u32("cores", c.config.num_cores);
    if (cores == 0) throw OptionError("--cores: expected at least 1, got '0'");
    if (c.config.num_threads % cores != 0)
      throw std::invalid_argument("threads=" + std::to_string(c.config.num_threads) +
                                  " not divisible by cores=" + std::to_string(cores));
    c.config.num_threads /= cores;
    c.config.num_cores = cores;
    if (opts.has("llc")) apply_llc_spec(c.config.llc, opts.get("llc"));
    if (opts.has("dram")) apply_dram_spec(c.config.dram, opts.get("dram"));
  }

  const std::vector<u32> mix_ids = opts.get_u32_list("mixes");
  if (!opts.get("workload").empty() && !mix_ids.empty())
    throw std::invalid_argument("--workload and --mixes are mutually exclusive");
  if (mix_ids.empty()) {
    spec.mixes = table2_mixes();
  } else {
    for (const u32 id : mix_ids) spec.mixes.push_back(table2_mix(id));
  }
  return with_run_options(std::move(spec), opts);
}

// A function-try-block: an option error anywhere in the run — a malformed
// value, an unread key — exits 2 before any cell runs.
int run_from_options(const std::string& preset, const Options& opts) try {
  // Read every option the run uses first, then reject, before any sink is
  // opened or any cell runs, every option nothing read: a misspelt or retired
  // flag, or a custom-sweep option given to a preset, must not quietly fall
  // back to a default.
  const bool json = opts.has("json");
  const bool csv = opts.has("csv");
  const std::string json_path = opts.get("json");
  const std::string csv_path = opts.get("csv");
  const bool render = !opts.get_bool("no_render", false);
  const u32 jobs = WorkStealingPool::resolve_threads(opts.get_u32("jobs", 0));
  const std::string manifest_path = opts.get("manifest", "");
  const bool resume = opts.get_bool("resume", false);
  if (resume && manifest_path.empty())
    throw OptionError("--resume: needs --manifest, the journal it replays");

  const std::vector<std::string> presets =
      preset.empty() ? std::vector<std::string>{} : preset_list(preset);
  // CsvSink::begin writes one header per campaign, and every campaign names
  // its series files samples_job<index>.jsonl: one file or directory, one
  // preset.
  if (csv && presets.size() > 1)
    throw OptionError("--csv: takes one preset, got '" + preset + "' (use --json)");
  if (opts.has("sample_dir") && presets.size() > 1)
    throw OptionError("--sample-dir: takes one preset, got '" + preset + "'");

  // One campaign per named preset, or the one custom sweep, each with the
  // run options applied, all built before the first one runs: a workload
  // that one of them cannot split exits 2 with nothing written.
  std::vector<CampaignSpec> specs;
  for (const std::string& name : presets)
    specs.push_back(with_run_options(preset_campaign(name, {}), opts));
  if (presets.empty()) specs.push_back(custom_campaign(opts));
  opts.reject_unread(preset.empty() ? "a custom sweep" : "preset " + preset);

  // Structured sinks ("-" = stdout).
  std::vector<std::unique_ptr<std::ofstream>> files;
  std::vector<std::unique_ptr<ResultSink>> owned;
  auto open_sink = [&](const std::string& path, bool as_csv) -> ResultSink* {
    std::ostream* os = &std::cout;
    if (path != "-") {
      files.push_back(std::make_unique<std::ofstream>(path, std::ios::trunc));
      if (!files.back()->is_open())
        throw std::runtime_error("cannot open sink file: " + path);
      os = files.back().get();
    }
    if (as_csv)
      owned.push_back(std::make_unique<CsvSink>(*os));
    else
      owned.push_back(std::make_unique<JsonlSink>(*os));
    return owned.back().get();
  };

  std::vector<ResultSink*> sinks;
  if (json) sinks.push_back(open_sink(json_path, /*as_csv=*/false));
  if (csv) sinks.push_back(open_sink(csv_path, /*as_csv=*/true));

  // Campaigns run one after another in one process, so the cell memo
  // simulates a cell that several presets share once; each campaign's
  // records reach the sinks in its own expansion order, as in a run of it
  // alone.
  bool failed = false;
  for (size_t i = 0; i < specs.size(); ++i) {
    EngineOptions eng;
    eng.jobs = jobs;
    eng.manifest_path = manifest_path;
    // Later campaigns append to the journal the first one opened. Resuming
    // replays nothing of it: job_key holds the campaign, and no preset is
    // named twice.
    eng.resume = resume || i > 0;
    // A custom sweep renders the untitled FT table and no epilogue.
    const Rendering rendering = presets.empty() ? Rendering{} : preset_rendering(presets[i]);
    FtTableSink table(stdout, rendering.title == nullptr ? "" : rendering.title);
    if (render && rendering.title != nullptr) eng.sinks.push_back(&table);
    eng.sinks.insert(eng.sinks.end(), sinks.begin(), sinks.end());

    const CampaignResult result = run_campaign(specs[i], eng);
    if (render && rendering.epilogue != nullptr) rendering.epilogue(result, specs[i], stdout);
    std::cerr << "campaign " << specs[i].name << ": " << result.records.size() << " cells, "
              << result.ok << " ok, " << result.failed << " failed, " << result.resumed
              << " resumed, " << result.reused << " reused (" << result.workers << " worker"
              << (result.workers == 1 ? "" : "s") << ")\n";
    failed |= result.failed > 0;
  }
  return failed ? 1 : 0;
} catch (const OptionError& e) {
  std::cerr << "error: " << e.what() << "\n";
  return 2;
}

}  // namespace tlrob::runner
