// Campaign-runner tests: record serialisation, the work-stealing pool, the
// thread-safe single-thread-IPC memo, and the engine's three contracts —
// serial/parallel bit-identity, failure isolation, and manifest resume.
#include <gtest/gtest.h>

#include <atomic>
#include <cstdio>
#include <fstream>
#include <iostream>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "runner/cli.hpp"
#include "runner/engine.hpp"
#include "runner/render.hpp"
#include "common/thread_pool.hpp"
#include "sim/experiment.hpp"

namespace tlrob::runner {
namespace {

// Small enough to keep the suite fast, long enough to commit real work.
constexpr u64 kInsts = 1500;
constexpr u64 kWarmup = 300;

CampaignSpec small_spec(const std::string& name = "test_campaign") {
  CampaignSpec spec;
  spec.name = name;
  spec.columns = {{"Baseline_32", baseline32_config(), 0},
                  {"R-ROB16", two_level_config(RobScheme::kReactive, 16), 0}};
  spec.mixes = {table2_mix(1), table2_mix(2)};
  spec.lengths = {{kInsts, kWarmup}};
  return spec;
}

std::string temp_path(const std::string& stem) {
  return testing::TempDir() + stem + ".jsonl";
}

TEST(RunnerJson, RecordRoundTrip) {
  JobRecord r;
  r.job = 7;
  r.campaign = "camp \"quoted\"\n";
  r.config = "R-ROB16";
  r.mix = "Mix 3";
  r.scheme = "rrob";
  r.threshold = 16;
  r.insts = 120000;
  r.warmup = 60000;
  r.max_cycles = 123456789012345ULL;
  r.seed = 0xdeadbeefcafef00dULL;  // must survive without a double round trip
  r.status = JobStatus::kFailed;
  r.error = "cycle cap exceeded";
  r.cycles = 991;
  r.ft = 0.123456789012345678;
  r.throughput = 3.25;
  r.benchmarks = {"art", "mcf"};
  r.committed = {17, 23};
  r.mt_ipc = {0.25, 0.5};
  r.st_ipc = {1.0, 2.0};
  r.dod_true = {5, 12.5, {1, 2, 3}};
  r.dod_proxy = {2, 7.0, {4, 0, 1}};
  r.counters = {{"a.b", 1}, {"c", 2}};

  const JobRecord p = record_from_json_line(to_json_line(r));
  EXPECT_EQ(p.job, r.job);
  EXPECT_EQ(p.campaign, r.campaign);
  EXPECT_EQ(p.config, r.config);
  EXPECT_EQ(p.mix, r.mix);
  EXPECT_EQ(p.scheme, r.scheme);
  EXPECT_EQ(p.threshold, r.threshold);
  EXPECT_EQ(p.max_cycles, r.max_cycles);
  EXPECT_EQ(p.seed, r.seed);
  EXPECT_EQ(p.status, r.status);
  EXPECT_EQ(p.error, r.error);
  EXPECT_EQ(p.cycles, r.cycles);
  EXPECT_DOUBLE_EQ(p.ft, r.ft);
  EXPECT_EQ(p.benchmarks, r.benchmarks);
  EXPECT_EQ(p.committed, r.committed);
  EXPECT_EQ(p.mt_ipc, r.mt_ipc);
  EXPECT_EQ(p.st_ipc, r.st_ipc);
  EXPECT_EQ(p.dod_true.samples, r.dod_true.samples);
  EXPECT_DOUBLE_EQ(p.dod_true.sum, r.dod_true.sum);
  EXPECT_EQ(p.dod_true.buckets, r.dod_true.buckets);
  EXPECT_EQ(p.counters, r.counters);
  EXPECT_EQ(p.key(), r.key());

  // Serialisation is deterministic: a second pass produces identical bytes.
  EXPECT_EQ(to_json_line(r), to_json_line(p));

  EXPECT_THROW(record_from_json_line("{broken"), std::invalid_argument);
  EXPECT_THROW(record_from_json_line("[1,2]"), std::invalid_argument);
}

TEST(RunnerPool, RunsEverySubmittedTask) {
  std::atomic<int> count{0};
  {
    WorkStealingPool pool(4);
    EXPECT_EQ(pool.size(), 4u);
    for (int i = 0; i < 500; ++i)
      pool.submit([&count] { count.fetch_add(1, std::memory_order_relaxed); });
    pool.wait_idle();
    EXPECT_EQ(count.load(), 500);
    // Reuse after wait_idle.
    pool.submit([&count] { count.fetch_add(1, std::memory_order_relaxed); });
    pool.wait_idle();
    EXPECT_EQ(count.load(), 501);
  }
}

TEST(RunnerPool, NestedSubmissionsAreStealable) {
  std::atomic<int> count{0};
  WorkStealingPool pool(3);
  for (int i = 0; i < 8; ++i) {
    pool.submit([&pool, &count] {
      for (int j = 0; j < 50; ++j)
        pool.submit([&count] { count.fetch_add(1, std::memory_order_relaxed); });
    });
  }
  pool.wait_idle();
  EXPECT_EQ(count.load(), 8 * 50);
}

TEST(RunnerPool, ResolveThreadsDefaultsToHardware) {
  EXPECT_GE(WorkStealingPool::resolve_threads(0), 1u);
  EXPECT_EQ(WorkStealingPool::resolve_threads(7), 7u);
}

// Satellite regression for the single_thread_ipc memo: hammer the same and
// different keys from many threads; every result must equal the serial
// value and (under TSan) produce no data race.
TEST(RunnerReferenceCache, SingleThreadIpcIsThreadSafe) {
  const double art = single_thread_ipc("art", 800);
  const double mcf = single_thread_ipc("mcf", 800);
  std::vector<std::thread> threads;
  std::vector<double> results(16, 0.0);
  threads.reserve(16);
  for (int t = 0; t < 16; ++t)
    threads.emplace_back([t, &results] {
      results[t] = single_thread_ipc(t % 2 == 0 ? "art" : "mcf", 800);
      // Distinct key computed concurrently with the lookups above.
      (void)single_thread_ipc("crafty", 700 + static_cast<u64>(t % 4));
    });
  for (auto& t : threads) t.join();
  for (int t = 0; t < 16; ++t) EXPECT_DOUBLE_EQ(results[t], t % 2 == 0 ? art : mcf);
}

TEST(RunnerCampaign, ExpansionOrderAndSeeds) {
  CampaignSpec spec = small_spec();
  const auto jobs = expand(spec);
  ASSERT_EQ(jobs.size(), 4u);
  // Mix-major, column-minor: the streaming order of the rendered table.
  EXPECT_EQ(jobs[0].config_name, "Baseline_32");
  EXPECT_EQ(jobs[0].mix.name, "Mix 1");
  EXPECT_EQ(jobs[1].config_name, "R-ROB16");
  EXPECT_EQ(jobs[1].mix.name, "Mix 1");
  EXPECT_EQ(jobs[2].mix.name, "Mix 2");
  for (size_t i = 0; i < jobs.size(); ++i) {
    EXPECT_EQ(jobs[i].index, i);
    EXPECT_EQ(jobs[i].seed, spec.seed);  // fixed seed by default
  }

  spec.per_job_seeds = true;
  const auto seeded = expand(spec);
  EXPECT_NE(seeded[0].seed, seeded[1].seed);
  EXPECT_EQ(seeded[0].seed, expand(spec)[0].seed);  // still deterministic

  CampaignSpec empty;
  EXPECT_THROW(expand(empty), std::invalid_argument);
}

TEST(RunnerEngine, ExecuteJobMatchesDirectSimulation) {
  const CampaignSpec spec = small_spec();
  const JobSpec js = expand(spec)[0];
  const JobRecord rec = execute_job(js);
  ASSERT_TRUE(rec.ok()) << rec.error;

  MachineConfig cfg = js.config;
  cfg.seed = js.seed;
  const RunResult direct =
      run_benchmarks(cfg, mix_benchmarks(js.mix), js.insts, 0, js.warmup);
  ASSERT_EQ(direct.threads.size(), rec.mt_ipc.size());
  std::vector<double> mt, st;
  for (const auto& t : direct.threads) {
    mt.push_back(t.ipc);
    st.push_back(single_thread_ipc(t.benchmark, js.insts));
  }
  EXPECT_EQ(rec.cycles, direct.cycles);
  EXPECT_EQ(rec.ft, fair_throughput(mt, st));
  EXPECT_EQ(rec.throughput, direct.total_throughput());
  EXPECT_EQ(rec.counters, direct.counters);
}

// The tentpole determinism guarantee: a parallel campaign produces
// byte-identical sink output to a serial one.
TEST(RunnerEngine, SerialAndParallelSinksAreByteIdentical) {
  auto run_with_jobs = [](u32 jobs, std::string* json_out, std::string* csv_out) {
    std::ostringstream json, csv;
    JsonlSink jsink(json);
    CsvSink csink(csv);
    EngineOptions eng;
    eng.jobs = jobs;
    eng.sinks = {&jsink, &csink};
    const CampaignResult res = run_campaign(small_spec(), eng);
    EXPECT_EQ(res.ok, 4u);
    EXPECT_EQ(res.failed, 0u);
    *json_out = json.str();
    *csv_out = csv.str();
  };

  std::string json1, csv1, json4, csv4;
  run_with_jobs(1, &json1, &csv1);
  run_with_jobs(4, &json4, &csv4);
  EXPECT_FALSE(json1.empty());
  EXPECT_EQ(json1, json4);
  EXPECT_EQ(csv1, csv4);
}

// The same contract on multi-core cells: a cmp_mix campaign's records (and
// so every sink's bytes) do not depend on the worker count.
TEST(RunnerEngine, CmpMixRecordsIdenticalAcrossPoolJobs) {
  const CampaignSpec spec = preset_campaign("cmp_mix", {1500, 400});
  EngineOptions serial_opts;
  serial_opts.jobs = 1;
  const CampaignResult serial = run_campaign(spec, serial_opts);
  EngineOptions pool_opts;
  pool_opts.jobs = 2;
  const CampaignResult pooled = run_campaign(spec, pool_opts);

  ASSERT_EQ(serial.records.size(), pooled.records.size());
  EXPECT_EQ(serial.failed, 0u);
  for (size_t i = 0; i < serial.records.size(); ++i)
    EXPECT_EQ(to_json_line(serial.records[i]), to_json_line(pooled.records[i])) << "record " << i;
}

// Failure isolation: a cell whose cycle cap is too small for its commit
// target reports `failed`; the rest of the campaign completes.
TEST(RunnerEngine, FailureInjectionMarksOnlyTheCappedColumn) {
  CampaignSpec spec = small_spec();
  spec.columns[1].max_cycles = 50;  // far below what kInsts commits need

  std::ostringstream json;
  JsonlSink jsink(json);
  EngineOptions eng;
  eng.jobs = 2;
  eng.sinks = {&jsink};
  const CampaignResult res = run_campaign(spec, eng);

  EXPECT_EQ(res.ok, 2u);
  EXPECT_EQ(res.failed, 2u);
  ASSERT_EQ(res.records.size(), 4u);
  for (const auto& rec : res.records) {
    if (rec.config == "R-ROB16") {
      EXPECT_FALSE(rec.ok());
      EXPECT_NE(rec.error.find("cycle cap"), std::string::npos) << rec.error;
    } else {
      EXPECT_TRUE(rec.ok()) << rec.error;
    }
  }
  // Failed cells drop out of the renderer aggregates but stay in the sinks.
  EXPECT_EQ(column_records(res, "R-ROB16").size(), 0u);
  EXPECT_EQ(column_records(res, "Baseline_32").size(), 2u);
  EXPECT_NE(json.str().find("\"status\":\"failed\""), std::string::npos);
}

TEST(RunnerEngine, ResumeFromManifestSkipsCompletedCells) {
  const std::string manifest = temp_path("tlrob_resume_manifest");
  std::remove(manifest.c_str());

  // Phase 1: a partial campaign — one configuration column only.
  CampaignSpec partial = small_spec("resume_campaign");
  partial.columns.resize(1);
  {
    EngineOptions eng;
    eng.jobs = 1;
    eng.manifest_path = manifest;
    const CampaignResult res = run_campaign(partial, eng);
    EXPECT_EQ(res.ok, 2u);
  }

  // Phase 2: the full campaign, resumed — the two completed cells replay
  // from the manifest, only the new column executes.
  const CampaignSpec full = small_spec("resume_campaign");
  std::string resumed_json;
  {
    std::ostringstream json;
    JsonlSink jsink(json);
    EngineOptions eng;
    eng.jobs = 1;
    eng.manifest_path = manifest;
    eng.resume = true;
    eng.sinks = {&jsink};
    const CampaignResult res = run_campaign(full, eng);
    EXPECT_EQ(res.resumed, 2u);
    EXPECT_EQ(res.ok, 2u);
    EXPECT_EQ(res.failed, 0u);
    resumed_json = json.str();
  }

  // The resumed output is byte-identical to a from-scratch run.
  std::string fresh_json;
  {
    std::ostringstream json;
    JsonlSink jsink(json);
    EngineOptions eng;
    eng.jobs = 1;
    eng.sinks = {&jsink};
    (void)run_campaign(full, eng);
    fresh_json = json.str();
  }
  EXPECT_EQ(resumed_json, fresh_json);

  // Resuming the now-complete campaign executes nothing.
  {
    EngineOptions eng;
    eng.jobs = 1;
    eng.manifest_path = manifest;
    eng.resume = true;
    const CampaignResult res = run_campaign(full, eng);
    EXPECT_EQ(res.resumed, 4u);
    EXPECT_EQ(res.ok, 0u);
  }
  std::remove(manifest.c_str());
}

TEST(RunnerEngine, ResumeIsManifestLineOrderIndependent) {
  // The manifest is journalled in completion order, which varies with
  // worker count and crash timing. load_manifest keys an ordered map (lint
  // rule D1), so the emitted campaign must be byte-identical no matter how
  // the journal lines are permuted on disk.
  const std::string manifest = temp_path("tlrob_shuffle_manifest");
  const std::string reversed = temp_path("tlrob_shuffle_manifest_rev");
  std::remove(manifest.c_str());

  const CampaignSpec spec = small_spec("shuffle_campaign");
  {
    EngineOptions eng;
    eng.jobs = 1;
    eng.manifest_path = manifest;
    const CampaignResult res = run_campaign(spec, eng);
    EXPECT_EQ(res.ok, 4u);
  }

  // Rewrite the journal with its lines reversed (an adversarial completion
  // order), plus noise a crash could leave behind.
  std::vector<std::string> lines;
  {
    std::ifstream in(manifest);
    std::string line;
    while (std::getline(in, line))
      if (!line.empty()) lines.push_back(line);
  }
  ASSERT_EQ(lines.size(), 4u);
  {
    std::ofstream out(reversed);
    out << "\n";  // blank line: skipped
    for (auto it = lines.rbegin(); it != lines.rend(); ++it) out << *it << "\n";
    out << "{truncated by a crash";  // malformed tail: skipped
  }

  auto resume_json = [&](const std::string& path) {
    std::ostringstream json;
    JsonlSink jsink(json);
    EngineOptions eng;
    eng.jobs = 1;
    eng.manifest_path = path;
    eng.resume = true;
    eng.sinks = {&jsink};
    const CampaignResult res = run_campaign(spec, eng);
    EXPECT_EQ(res.resumed, 4u);
    EXPECT_EQ(res.ok, 0u);
    return json.str();
  };
  const std::string from_journal_order = resume_json(manifest);
  const std::string from_reversed = resume_json(reversed);
  EXPECT_FALSE(from_journal_order.empty());
  EXPECT_EQ(from_journal_order, from_reversed);

  std::remove(manifest.c_str());
  std::remove(reversed.c_str());
}

TEST(RunnerCli, ParsesMixedOptionForms) {
  const char* argv[] = {"prog",   "fig2",         "--jobs",   "4",
                        "--insts=2000", "warmup=500", "--resume", "--max-cycles", "123"};
  const Options opts = parse_cli_args(9, argv);
  EXPECT_EQ(opts.get_u64("jobs", 0), 4u);
  EXPECT_EQ(opts.get_u64("insts", 0), 2000u);
  EXPECT_EQ(opts.get_u64("warmup", 0), 500u);
  EXPECT_TRUE(opts.get_bool("resume", false));
  EXPECT_EQ(opts.get_u64("max_cycles", 0), 123u);
  ASSERT_EQ(opts.positional().size(), 1u);
  EXPECT_EQ(opts.positional()[0], "fig2");
}

TEST(RunnerCli, LoneDashIsASinkPathNotAFlag) {
  const char* argv[] = {"prog", "fig1", "--json", "-", "--csv", "-", "--no-render"};
  const Options opts = parse_cli_args(7, argv);
  EXPECT_EQ(opts.get("json", ""), "-");
  EXPECT_EQ(opts.get("csv", ""), "-");
  EXPECT_TRUE(opts.get_bool("no_render", false));
  ASSERT_EQ(opts.positional().size(), 1u);
  EXPECT_EQ(opts.positional()[0], "fig1");
}

/// Runs `preset` through the CLI front end with the given extra arguments
/// and `--json - --no-render` at a short length; returns the stdout records.
std::vector<std::string> preset_records(const std::string& preset,
                                        std::vector<const char*> extra) {
  std::vector<const char*> argv = {"prog",    preset.c_str(), "--json", "-", "--no-render",
                                   "--insts", "1000",         "--warmup", "200"};
  argv.insert(argv.end(), extra.begin(), extra.end());
  const Options opts = parse_cli_args(static_cast<int>(argv.size()), argv.data());
  std::ostringstream captured;
  std::streambuf* saved = std::cout.rdbuf(captured.rdbuf());
  const int code = run_from_options(preset, opts);
  std::cout.rdbuf(saved);
  EXPECT_EQ(code, 0);
  std::vector<std::string> lines;
  std::istringstream in(captured.str());
  for (std::string line; std::getline(in, line);) lines.push_back(line);
  return lines;
}

TEST(RunnerCli, SpaceFormJsonDashWritesRecordsToStdout) {
  const std::vector<std::string> lines = preset_records("fig1", {});
  ASSERT_EQ(lines.size(), 11u);  // one record per fig1 cell
  for (const std::string& line : lines) EXPECT_EQ(line.rfind("{\"job\":", 0), 0u) << line;
}

TEST(RunnerCli, PresetsHonourSeedPerJobSeedsAndMaxCycles) {
  const std::vector<std::string> seeded = preset_records("fig2", {"--seed", "7"});
  ASSERT_EQ(seeded.size(), 33u);
  for (const std::string& line : seeded)
    EXPECT_NE(line.find("\"seed\":7,"), std::string::npos) << line;

  // Without the options the preset keeps its own seed and cap.
  for (const std::string& line : preset_records("fig1", {})) {
    EXPECT_NE(line.find("\"seed\":12345,"), std::string::npos) << line;
    EXPECT_NE(line.find("\"max_cycles\":0,"), std::string::npos) << line;
  }

  auto seed_of = [](const std::string& line) {
    const size_t at = line.find("\"seed\":");
    return at == std::string::npos ? std::string() : line.substr(at, line.find(',', at) - at);
  };
  const std::vector<std::string> per_job = preset_records("fig1", {"--per-job-seeds"});
  ASSERT_GE(per_job.size(), 2u);
  EXPECT_NE(seed_of(per_job[0]), "\"seed\":12345");
  EXPECT_NE(seed_of(per_job[0]), seed_of(per_job[1]));

  for (const std::string& line : preset_records("fig1", {"--max-cycles", "900000"}))
    EXPECT_NE(line.find("\"max_cycles\":900000,"), std::string::npos) << line;
}

/// Runs the CLI front end on `args` (preset first, or none for a custom
/// sweep) and returns the exit code; `out` receives stdout.
int cli_exit_code(const std::string& preset, std::vector<const char*> args, std::string* out) {
  std::vector<const char*> argv = {"prog"};
  if (!preset.empty()) argv.push_back(preset.c_str());
  argv.insert(argv.end(), args.begin(), args.end());
  const Options opts = parse_cli_args(static_cast<int>(argv.size()), argv.data());
  std::ostringstream captured, errors;
  std::streambuf* saved_out = std::cout.rdbuf(captured.rdbuf());
  std::streambuf* saved_err = std::cerr.rdbuf(errors.rdbuf());
  const int code = run_from_options(preset, opts);
  std::cout.rdbuf(saved_out);
  std::cerr.rdbuf(saved_err);
  *out = captured.str();
  return code;
}

// An option the run would not read exits 2 before any cell runs, instead of
// silently falling back to a default: retired flags, typos, and custom-sweep
// options given to a preset.
TEST(RunnerCli, UnusedOptionsExitTwoBeforeAnyCellRuns) {
  const std::vector<std::vector<const char*>> rejected = {
      {"--parallel-cores", "2"},
      {"--parallel-quantum", "97"},
      {"--allow-"
       "oversubscribe"},  // split so the retired flag's name stays out of code searches
      {"--sed", "7"},
      {"--cores", "2"},
      {"--force-cmp"}};
  for (const auto& extra : rejected) {
    std::vector<const char*> args = {"--json", "-", "--no-render", "--insts", "1000"};
    args.insert(args.end(), extra.begin(), extra.end());
    std::string out;
    EXPECT_EQ(cli_exit_code("fig1", args, &out), 2) << extra.front();
    EXPECT_EQ(out, "") << extra.front();
  }
  std::string out;
  EXPECT_EQ(cli_exit_code("", {"--schemes", "rrob", "--mixes", "1", "--sed", "7", "--json", "-"},
                          &out),
            2);
  EXPECT_EQ(out, "");
  EXPECT_EQ(cli_exit_code("", {"--schemes", "rrob", "--mixes", "1", "--force-cmp", "--json", "-"},
                          &out),
            2);
  EXPECT_EQ(out, "");
}

TEST(RunnerCli, CustomSweepAcceptsItsOwnOptions) {
  std::string out;
  EXPECT_EQ(cli_exit_code("",
                          {"--schemes", "rrob", "--mixes", "1", "--cores", "2", "--llc",
                           "512:8:24:16", "--dram", "2:8", "--name", "cli", "--insts", "1000",
                           "--warmup", "200", "--jobs", "1", "--json", "-", "--no-render"},
                          &out),
            0);
  EXPECT_NE(out.find("\"llc.accesses\""), std::string::npos) << out;
}

TEST(RunnerCli, CustomCampaignFromOptions) {
  Options opts;
  opts.set("schemes", "baseline32,rrob,prob");
  opts.set("thresholds", "8,16");
  opts.set("mixes", "1,3");
  opts.set("insts", "2000");
  opts.set("warmup", "400");
  const CampaignSpec spec = custom_campaign(opts);
  ASSERT_EQ(spec.columns.size(), 5u);  // baseline + 2 schemes x 2 thresholds
  EXPECT_EQ(spec.columns[0].name, "Baseline_32");
  EXPECT_EQ(spec.columns[1].name, "R-ROB8");
  EXPECT_EQ(spec.columns[2].name, "R-ROB16");
  EXPECT_EQ(spec.columns[3].name, "P-ROB8");
  EXPECT_EQ(spec.columns[4].name, "P-ROB16");
  ASSERT_EQ(spec.mixes.size(), 2u);
  EXPECT_EQ(spec.mixes[1].name, "Mix 3");
  EXPECT_EQ(spec.lengths[0].insts, 2000u);

  Options bad;
  bad.set("schemes", "nonsense");
  EXPECT_THROW(custom_campaign(bad), std::invalid_argument);
}

TEST(RunnerPresets, AllPresetsExpand) {
  for (const auto& name : preset_names()) {
    EXPECT_TRUE(is_preset(name));
    EXPECT_FALSE(preset_summary(name).empty());
    const CampaignSpec spec = preset_campaign(name, {1000, 200});
    EXPECT_FALSE(expand(spec).empty()) << name;
  }
  EXPECT_FALSE(is_preset("fig99"));
  EXPECT_THROW(preset_campaign("fig99", {1000, 200}), std::invalid_argument);
}

}  // namespace
}  // namespace tlrob::runner
