#include "workloads.hpp"

#include <algorithm>
#include <cmath>
#include <stdexcept>
#include <thread>

#include "runner/presets.hpp"
#include "sim/presets.hpp"

namespace perfbench {

using tlrob::runner::CampaignSpec;
using tlrob::runner::ConfigColumn;
using tlrob::runner::RunLengthSpec;

namespace {

/// The paper-evidence presets: every figure, Table 2 and the five ablations.
const std::vector<std::string> kPaperPresets = {
    "fig1",   "fig2",   "fig3",   "fig4",
    "fig5",   "fig6",   "fig7",   "table2",
    "ablation_threshold",     "ablation_fetch_policy", "ablation_regfile",
    "ablation_early_release", "ablation_adaptive"};

const std::vector<std::string> kCmpProfiles = {"mcf", "art", "equake", "lucas"};
const std::vector<std::string> kTraceProfiles = {"crafty", "gzip", "eon", "mesa"};

// Run lengths (committed instructions on the fastest thread), sized so one
// pass of each workload takes 2-5 s on a 4-thread host and the simulated
// metrics move little from seed to seed.
constexpr u64 kPaperInsts = 10000;
constexpr u64 kCmpInsts = 40000;
constexpr u64 kTraceInsts = 200000;
constexpr u64 kTraceRecords = 120000;
constexpr u64 kCmpProbeInsts = 4000;

u64 scaled(u64 v, double scale) {
  return std::max<u64>(200, static_cast<u64>(std::llround(static_cast<double>(v) * scale)));
}

RunLengthSpec length(u64 insts, double scale) {
  const u64 n = scaled(insts, scale);
  return RunLengthSpec{n, n / 2};
}

CampaignSpec two_column_spec(const std::string& name, tlrob::MachineConfig base,
                             tlrob::MachineConfig rrob, const std::vector<std::string>& mix,
                             const RunLengthSpec& rl, u64 seed) {
  CampaignSpec spec;
  spec.name = name;
  spec.columns = {ConfigColumn{"Baseline_32", std::move(base), 0},
                  ConfigColumn{"R-ROB16", std::move(rrob), 0}};
  spec.mixes = {tlrob::Mix{name, mix, "benchmark"}};
  spec.lengths = {rl};
  spec.seed = seed;
  return spec;
}

void collect_inputs(Workload& w) {
  for (const CampaignSpec& spec : w.campaigns)
    for (const tlrob::Mix& mix : spec.mixes)
      for (const std::string& b : mix.benchmarks)
        if (std::find(w.inputs.begin(), w.inputs.end(), b) == w.inputs.end())
          w.inputs.push_back(b);
}

}  // namespace

Workload make_workload(const std::string& name, u64 seed, double scale) {
  using tlrob::RobScheme;
  Workload w;
  w.name = name;
  w.seed = seed;
  w.scale = scale;
  w.cmp_probe_insts = scaled(kCmpProbeInsts, scale);
  if (name == "paper_evidence") {
    const RunLengthSpec rl = length(kPaperInsts, scale);
    for (const std::string& preset : kPaperPresets) {
      CampaignSpec spec = tlrob::runner::preset_campaign(preset, rl);
      spec.seed = seed;
      w.campaigns.push_back(std::move(spec));
    }
    w.jobs = std::max(1u, std::thread::hardware_concurrency());
    w.probe_campaigns = {"fig2", "fig6"};
    w.probe_insts = 4 * rl.insts;
    collect_inputs(w);
    w.profiles = w.inputs;
  } else if (name == "cmp_backend") {
    std::vector<std::string> mix;
    for (u32 core = 0; core < 4; ++core)
      mix.insert(mix.end(), kCmpProfiles.begin(), kCmpProfiles.end());
    w.campaigns = {two_column_spec(name, tlrob::cmp_config(4, RobScheme::kBaseline, 16),
                                   tlrob::cmp_config(4, RobScheme::kReactive, 16), mix,
                                   length(kCmpInsts, scale), seed)};
    w.probe_insts = scaled(kCmpInsts / 8, scale);
    collect_inputs(w);
    w.profiles = kCmpProfiles;
  } else if (name == "compute_trace") {
    std::vector<std::string> mix;
    const std::string records = std::to_string(scaled(kTraceRecords, scale));
    for (const std::string& p : kTraceProfiles)
      mix.push_back("tracegen:" + p + "@" + records + "@" + std::to_string(seed));
    w.campaigns = {two_column_spec(name, tlrob::baseline32_config(),
                                   tlrob::two_level_config(RobScheme::kReactive, 16), mix,
                                   length(kTraceInsts, scale), seed)};
    w.probe_insts = scaled(kTraceInsts / 8, scale);
    w.traced_inputs = true;
    collect_inputs(w);
    w.profiles = kTraceProfiles;
  } else {
    throw std::invalid_argument("unknown workload '" + name +
                                "' (paper_evidence, cmp_backend, compute_trace)");
  }
  return w;
}

const std::vector<std::pair<std::string, double>>& paper_gains_pct() {
  static const std::vector<std::pair<std::string, double>> gains = {
      {"R-ROB16", 30.53}, {"RelaxedR15", 28.9}, {"CDR-ROB15", 31.5},
      {"P-ROB3", 19.71},  {"P-ROB5", 20.72}};
  return gains;
}

}  // namespace perfbench
