#include "runner/cli.hpp"

#include <algorithm>
#include <fstream>
#include <iostream>
#include <memory>
#include <stdexcept>

#include "common/thread_pool.hpp"
#include "sim/config_override.hpp"
#include "trace/resolve.hpp"

namespace tlrob::runner {

namespace {

/// Flags that never take a following-token value.
bool is_bare_flag(const std::string& key) {
  return key == "resume" || key == "per_job_seeds" || key == "no_render" ||
         key == "list" || key == "help";
}

std::string normalise_key(std::string key) {
  std::replace(key.begin(), key.end(), '-', '_');
  return key;
}

}  // namespace

Options parse_cli_args(int argc, const char* const* argv) {
  std::vector<std::string> tokens;
  for (int i = 1; i < argc; ++i) {
    std::string tok = argv[i];
    if (tok.size() > 1 && tok[0] == '-' && tok.find('=') == std::string::npos) {
      size_t dashes = 0;
      while (dashes < tok.size() && tok[dashes] == '-') ++dashes;
      const std::string key = normalise_key(tok.substr(dashes));
      // A lone "-" is a value (stdout for --json/--csv), not a flag.
      const bool next_is_value =
          i + 1 < argc && (argv[i + 1][0] != '-' || std::string(argv[i + 1]) == "-") &&
          std::string(argv[i + 1]).find('=') == std::string::npos;
      if (!is_bare_flag(key) && next_is_value) {
        tokens.push_back(key + "=" + argv[++i]);
        continue;
      }
      tokens.push_back("--" + key);
      continue;
    }
    const auto eq = tok.find('=');
    if (eq != std::string::npos) {
      size_t dashes = 0;
      while (dashes < eq && tok[dashes] == '-') ++dashes;
      tokens.push_back(normalise_key(tok.substr(dashes, eq - dashes)) + tok.substr(eq));
      continue;
    }
    tokens.push_back(tok);  // positional
  }
  return Options::from_tokens(tokens);
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

}  // namespace

CampaignSpec custom_campaign(const Options& opts) {
  CampaignSpec spec;
  spec.name = opts.get("name", "custom");

  auto schemes = opts.get_list("schemes");
  if (schemes.empty()) schemes = {"baseline32", "rrob"};
  std::vector<u32> thresholds;
  for (const auto& t : opts.get_list("thresholds"))
    thresholds.push_back(static_cast<u32>(std::stoul(t)));
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
    const u32 cores = static_cast<u32>(opts.get_u64("cores", c.config.num_cores));
    if (cores > 1) {
      if (c.config.num_threads % cores != 0)
        throw std::invalid_argument("threads=" + std::to_string(c.config.num_threads) +
                                    " not divisible by cores=" + std::to_string(cores));
      c.config.num_threads /= cores;
    }
    c.config.num_cores = cores;
    if (opts.has("llc")) apply_llc_spec(c.config.llc, opts.get("llc"));
    if (opts.has("dram")) apply_dram_spec(c.config.dram, opts.get("dram"));
  }

  const std::string workload = opts.get("workload", "");
  const auto mix_ids = opts.get_list("mixes");
  if (!workload.empty()) {
    if (!mix_ids.empty())
      throw std::invalid_argument("--workload and --mixes are mutually exclusive");
    const Mix mix = trace::workload_mix(workload);
    // The workload list sets the thread count: a 2-entry trace mix runs a
    // 2-thread machine under every column. On a CMP the list is core-major
    // and must divide evenly into per-core thread counts.
    for (auto& c : spec.columns) {
      const u32 cores = c.config.num_cores == 0 ? 1 : c.config.num_cores;
      if (mix.benchmarks.size() % cores != 0)
        throw std::invalid_argument("workload size " + std::to_string(mix.benchmarks.size()) +
                                    " not divisible by cores=" + std::to_string(cores));
      c.config.num_threads = static_cast<u32>(mix.benchmarks.size() / cores);
    }
    spec.mixes = {mix};
  } else if (mix_ids.empty()) {
    spec.mixes = table2_mixes();
  } else {
    for (const auto& id : mix_ids)
      spec.mixes.push_back(table2_mix(static_cast<u32>(std::stoul(id))));
  }

  spec.lengths = {{opts.get_u64("insts", 120000), opts.get_u64("warmup", 60000)}};
  spec.seed = opts.get_u64("seed", spec.seed);
  spec.per_job_seeds = opts.get_bool("per_job_seeds", false);
  spec.max_cycles = opts.get_u64("max_cycles", 0);
  spec.sample_interval = opts.get_u64("sample_interval", 0);
  spec.sample_dir = opts.get("sample_dir", "");
  return spec;
}

int run_from_options(const std::string& preset, const Options& opts) {
  // Read every option the run uses first, then reject, before any sink is
  // opened or any cell runs, every option nothing read: a misspelt or retired
  // flag, or a custom-sweep option given to a preset, must not quietly fall
  // back to a default.
  const bool json = opts.has("json");
  const bool csv = opts.has("csv");
  const std::string json_path = opts.get("json");
  const std::string csv_path = opts.get("csv");
  const bool render = !opts.get_bool("no_render", false);
  const u32 jobs = WorkStealingPool::resolve_threads(static_cast<u32>(opts.get_u64("jobs", 0)));
  const std::string manifest_path = opts.get("manifest", "");
  const bool resume = opts.get_bool("resume", false);

  PresetOptions popts;
  CampaignSpec spec;
  if (!preset.empty()) {
    popts.length = {opts.get_u64("insts", 120000), opts.get_u64("warmup", 60000)};
    popts.jobs = jobs;
    popts.manifest_path = manifest_path;
    popts.resume = resume;
    popts.render = render;
    popts.sample_interval = opts.get_u64("sample_interval", 0);
    popts.sample_dir = opts.get("sample_dir", "");
    popts.workload = opts.get("workload", "");
    if (opts.has("seed")) popts.seed = opts.get_u64("seed", 0);
    popts.per_job_seeds = opts.get_bool("per_job_seeds", false);
    popts.max_cycles = opts.get_u64("max_cycles", 0);
  } else {
    spec = custom_campaign(opts);
  }

  const std::vector<std::string> unread = opts.unread_keys();
  if (!unread.empty()) {
    std::cerr << "error: " << (preset.empty() ? "a custom sweep" : "preset " + preset)
              << " does not use option" << (unread.size() == 1 ? "" : "s");
    for (std::string key : unread) {
      std::replace(key.begin(), key.end(), '_', '-');
      std::cerr << " --" << key;
    }
    std::cerr << " (see tlrob-campaign --help)\n";
    return 2;
  }

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

  CampaignResult result;
  std::string campaign_name;
  if (!preset.empty()) {
    popts.extra_sinks = sinks;
    result = run_preset(preset, popts);
    campaign_name = preset;
  } else {
    EngineOptions eng;
    eng.jobs = jobs;
    eng.manifest_path = manifest_path;
    eng.resume = resume;
    FtTableSink table(stdout);
    if (render) eng.sinks.push_back(&table);
    for (ResultSink* s : sinks) eng.sinks.push_back(s);
    result = run_campaign(spec, eng);
    campaign_name = spec.name;
  }

  std::cerr << "campaign " << campaign_name << ": " << result.records.size() << " cells, "
            << result.ok << " ok, " << result.failed << " failed, " << result.resumed
            << " resumed (" << jobs << " worker" << (jobs == 1 ? "" : "s") << ")\n";
  return result.failed > 0 ? 1 : 0;
}

}  // namespace tlrob::runner
