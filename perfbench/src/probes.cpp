#include "probes.hpp"

#include <time.h>

#include <algorithm>
#include <chrono>
#include <memory>
#include <set>
#include <stdexcept>

#include "branch/predictor.hpp"
#include "common/thread_pool.hpp"
#include "memory/cache.hpp"
#include "memory/dram.hpp"
#include "memory/memory_system.hpp"
#include "memory/shared_memory.hpp"
#include "pipeline/issue_queue.hpp"
#include "rob/dod_predictor.hpp"
#include "runner/campaign.hpp"
#include "sim/cmp.hpp"
#include "sim/event_wheel.hpp"
#include "sim/experiment.hpp"
#include "sim/presets.hpp"
#include "sim/smt_sim.hpp"
#include "trace/resolve.hpp"

namespace perfbench {

using tlrob::Addr;
using tlrob::ArchOp;
using tlrob::Cycle;
using tlrob::MachineConfig;
using tlrob::runner::JobSpec;

double seconds_since(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

double median(std::vector<double> v) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const size_t n = v.size();
  return n % 2 == 1 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

double process_cpu_s() {
  timespec ts{};
  clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &ts);
  return static_cast<double>(ts.tv_sec) + static_cast<double>(ts.tv_nsec) * 1e-9;
}

namespace {

/// run_benchmarks' engine choice, repeated here because the sim probe
/// needs the machine object itself for its cycle accounting.
bool uses_cmp_engine(const MachineConfig& cfg) {
  return cfg.num_cores > 1 || cfg.llc.enabled || cfg.force_cmp_engine;
}

std::string cell_key(const JobSpec& js) {
  std::string k = tlrob::describe(js.config);
  for (const std::string& b : js.mix.benchmarks) k += b + ",";
  return k + std::to_string(js.insts) + "/" + std::to_string(js.warmup) + "/" +
         std::to_string(js.seed);
}

// -- sim probe ---------------------------------------------------------------

struct CellCost {
  std::string column;
  u64 total_cycles = 0;  // summed over cores
  u64 ff_cycles = 0;
  u64 executed_cycles = 0;
  u64 committed = 0;  // warm-up included
  double run_s = 0.0;
};

CellCost run_cell(const JobSpec& js, SpanRecorder& rec) {
  MachineConfig cfg = js.config;
  cfg.seed = js.seed;
  const std::vector<tlrob::Benchmark> benches = tlrob::trace::resolve_mix_benchmarks(js.mix);
  CellCost c;
  c.column = js.config_name;
  auto account = [&](tlrob::SmtCore& core) {
    c.total_cycles += core.now();
    c.ff_cycles += core.fast_forwarded_cycles();
    c.executed_cycles += core.executed_cycles();
    for (u32 t = 0; t < cfg.num_threads; ++t) c.committed += core.committed(t);
  };
  const auto t0 = Clock::now();
  if (uses_cmp_engine(cfg)) {
    tlrob::CmpMachine m(cfg, benches);
    {
      SpanRecorder::Scope s(rec, "sim.CmpMachine.run");
      (void)m.run(js.insts, js.max_cycles, js.warmup);
    }
    c.run_s = seconds_since(t0);
    for (u32 i = 0; i < m.num_cores(); ++i) account(m.core(i));
  } else {
    tlrob::SmtCore core(cfg, benches);
    {
      SpanRecorder::Scope s(rec, "sim.SmtCore.run");
      (void)core.run(js.insts, js.max_cycles, js.warmup);
    }
    c.run_s = seconds_since(t0);
    account(core);
  }
  return c;
}

}  // namespace

void sim_probe(const Workload& w, SpanRecorder& rec, Values& out) {
  std::vector<JobSpec> cells;
  std::set<std::string> seen;
  for (const auto& spec : w.campaigns) {
    if (!w.probe_campaigns.empty() &&
        std::find(w.probe_campaigns.begin(), w.probe_campaigns.end(), spec.name) ==
            w.probe_campaigns.end())
      continue;
    for (const JobSpec& js : tlrob::runner::expand(spec))
      if (seen.insert(cell_key(js)).second) cells.push_back(js);
  }
  std::vector<CellCost> costs(cells.size());
  if (w.jobs == 1) {
    for (size_t i = 0; i < cells.size(); ++i) costs[i] = run_cell(cells[i], rec);
  } else {
    tlrob::WorkStealingPool pool(w.jobs);
    for (size_t i = 0; i < cells.size(); ++i)
      pool.submit([&, i] { costs[i] = run_cell(cells[i], rec); });
    pool.wait_idle();
  }

  auto ff_share = [&](const std::string& column) {
    u64 ff = 0;
    u64 total = 0;
    for (const CellCost& c : costs)
      if (column.empty() || c.column == column) {
        ff += c.ff_cycles;
        total += c.total_cycles;
      }
    return total == 0 ? 0.0 : static_cast<double>(ff) / static_cast<double>(total);
  };
  out["sim.ff_share"] = ff_share("");
  out["sim.ff_share.Baseline_32"] = ff_share("Baseline_32");
  out["sim.ff_share.R-ROB16"] = ff_share("R-ROB16");
  double run_s = 0.0;
  u64 executed = 0;
  u64 committed = 0;
  for (const CellCost& c : costs) {
    run_s += c.run_s;
    executed += c.executed_cycles;
    committed += c.committed;
  }
  out["sim.ns_per_tick"] = executed == 0 ? 0.0 : run_s * 1e9 / static_cast<double>(executed);
  out["sim.ns_per_inst"] = committed == 0 ? 0.0 : run_s * 1e9 / static_cast<double>(committed);
}

// -- parallel CMP engine and self-profiler probes ------------------------------

namespace {

/// Alternating runs per side of an A/B probe; single-thread host time
/// varies by tens of percent from run to run, so the median needs several.
constexpr int kAbRuns = 5;

struct Timed {
  double wall_s = 0.0;
  double cpu_s = 0.0;
  tlrob::RunResult result;
};

Timed timed_run(const MachineConfig& cfg, const std::vector<std::string>& names, u64 insts) {
  const std::vector<tlrob::Benchmark> benches =
      tlrob::trace::resolve_mix_benchmarks(tlrob::Mix{"probe", names, ""});
  Timed t;
  const double cpu0 = process_cpu_s();
  const auto t0 = Clock::now();
  t.result = tlrob::run_benchmarks(cfg, benches, insts, 0, insts / 2);
  t.wall_s = seconds_since(t0);
  t.cpu_s = process_cpu_s() - cpu0;
  return t;
}

bool same_result(const tlrob::RunResult& a, const tlrob::RunResult& b) {
  if (a.cycles != b.cycles || a.threads.size() != b.threads.size()) return false;
  for (size_t i = 0; i < a.threads.size(); ++i)
    if (a.threads[i].committed != b.threads[i].committed) return false;
  return true;
}

/// Runs `off` and `on` alternately (off first), kAbRuns times each, and
/// returns the medians of (wall, cpu) per side; false if any result differs.
bool ab_runs(const MachineConfig& off, const MachineConfig& on,
             const std::vector<std::string>& names, u64 insts, Timed& off_med, Timed& on_med) {
  std::vector<double> off_wall, on_wall, off_cpu, on_cpu;
  bool same = true;
  tlrob::RunResult ref;
  for (int i = 0; i < kAbRuns; ++i) {
    const Timed a = timed_run(off, names, insts);
    const Timed b = timed_run(on, names, insts);
    if (i == 0) ref = a.result;
    same = same && same_result(ref, a.result) && same_result(ref, b.result);
    off_wall.push_back(a.wall_s);
    off_cpu.push_back(a.cpu_s);
    on_wall.push_back(b.wall_s);
    on_cpu.push_back(b.cpu_s);
  }
  off_med.wall_s = median(off_wall);
  off_med.cpu_s = median(off_cpu);
  on_med.wall_s = median(on_wall);
  on_med.cpu_s = median(on_cpu);
  return same;
}

}  // namespace

bool parallel_probe(const Workload& w, Values& out) {
  // cmp_backend's own Baseline_32 machine; the other workloads put their
  // first mix on every core of it.
  const JobSpec first = tlrob::runner::expand(w.campaigns.front()).front();
  MachineConfig serial = tlrob::cmp_config(4, tlrob::RobScheme::kBaseline, 16);
  serial.seed = w.seed;
  std::vector<std::string> names;
  while (names.size() < serial.num_cores * serial.num_threads)
    names.insert(names.end(), first.mix.benchmarks.begin(), first.mix.benchmarks.end());
  names.resize(serial.num_cores * serial.num_threads);
  MachineConfig parallel = serial;
  parallel.parallel_cores = serial.num_cores;
  Timed s, p;
  const bool same = ab_runs(serial, parallel, names, w.cmp_probe_insts, s, p);
  out["sim.cmp.parallel_speedup"] = s.wall_s / p.wall_s;
  out["sim.cmp.parallel_cpu_ratio"] = p.cpu_s / s.cpu_s;
  return same;
}

bool profiler_probe(const Workload& w, Values& out) {
  for (const auto& spec : w.campaigns)
    for (const JobSpec& js : tlrob::runner::expand(spec)) {
      if (js.config_name != "R-ROB16") continue;
      MachineConfig off = js.config;
      off.seed = js.seed;
      off.telemetry.profile = false;
      MachineConfig on = off;
      on.telemetry.profile = true;
      Timed a, b;
      const bool same = ab_runs(off, on, js.mix.benchmarks, w.probe_insts, a, b);
      out["obs.profiler_overhead_pct"] = 100.0 * (b.wall_s / a.wall_s - 1.0);
      return same;
    }
  throw std::logic_error(w.name + " has no R-ROB16 column");
}

// -- layer probe -----------------------------------------------------------------

namespace {

/// Hardware threads the per-layer streams are spread over.
constexpr u32 kThreads = 4;

struct MemOp {
  Addr addr = 0;
  bool store = false;
  u32 tid = 0;
};

/// The interleaved ops, plus the memory ops and the positions of the
/// control ops and loads pulled out once, so a layer's pass walks only the
/// operations it serves.
struct Stream {
  std::vector<ArchOp> ops;
  std::vector<u32> tid;
  std::vector<MemOp> mem;
  std::vector<size_t> ctrl;
  std::vector<size_t> loads;
};

struct Generated {
  std::vector<std::vector<ArchOp>> per_profile;
  double seconds = 0.0;
  u64 ops = 0;
};

/// Draws `n` ops from each benchmark's thread source (the same factory
/// SmtCore uses), timing only the next() calls.
Generated generate(const std::vector<tlrob::Benchmark>& benches, u64 n, u64 seed,
                   SpanRecorder& rec, const char* layer) {
  Generated g;
  for (size_t i = 0; i < benches.size(); ++i) {
    const tlrob::Benchmark& b = benches[i];
    const Addr base = static_cast<Addr>(i + 1) << 36;
    const u64 salt = seed + 7919ULL * (i + 1);
    std::unique_ptr<tlrob::ThreadContext> ctx =
        b.source_factory ? b.source_factory(b, base, salt)
                         : std::make_unique<tlrob::ThreadContext>(b, base, salt);
    std::vector<ArchOp> ops(n);
    const auto t0 = Clock::now();
    {
      SpanRecorder::Scope s(rec, layer);
      for (u64 k = 0; k < n; ++k) ops[k] = ctx->next();
    }
    g.seconds += seconds_since(t0);
    g.ops += n;
    g.per_profile.push_back(std::move(ops));
  }
  return g;
}

/// Ops of every profile, interleaved round-robin as an SMT front end
/// would fetch them; tid = profile index mod kThreads.
Stream interleave(const std::vector<std::vector<ArchOp>>& per_profile) {
  Stream s;
  size_t longest = 0;
  for (const auto& v : per_profile) longest = std::max(longest, v.size());
  for (size_t k = 0; k < longest; ++k)
    for (size_t i = 0; i < per_profile.size(); ++i)
      if (k < per_profile[i].size()) {
        const ArchOp& op = per_profile[i][k];
        const u32 tid = static_cast<u32>(i % kThreads);
        if (tlrob::is_memory(op.si->op)) s.mem.push_back({op.mem_addr, op.si->is_store(), tid});
        if (tlrob::is_control(op.si->op)) s.ctrl.push_back(s.ops.size());
        if (op.si->is_load()) s.loads.push_back(s.ops.size());
        s.ops.push_back(op);
        s.tid.push_back(tid);
      }
  return s;
}

constexpr int kLayerPasses = 5;

struct PassCost {
  u64 ops = 0;
  double seconds = 0.0;
};

/// Times `body` (which returns its operation count) inside a span.
template <typename Body>
PassCost timed_pass(SpanRecorder& rec, const char* layer, Body&& body) {
  const auto t0 = Clock::now();
  u64 ops = 0;
  {
    SpanRecorder::Scope s(rec, layer);
    ops = body();
  }
  return {ops, seconds_since(t0)};
}

/// Median host ns per operation over kLayerPasses passes; each `pass` builds
/// fresh layer state and returns timed_pass's cost for the stream.
template <typename Pass>
double median_ns(Pass&& pass) {
  std::vector<double> ns;
  for (int rep = 0; rep < kLayerPasses; ++rep) {
    const PassCost c = pass();
    ns.push_back(c.ops == 0 ? 0.0 : c.seconds * 1e9 / static_cast<double>(c.ops));
  }
  return median(ns);
}

/// Total ops drawn per layer probe, split evenly over the profiles.
constexpr u64 kStreamOps = 240000;
/// Profiles whose trace decode is timed (each needs a tracegen: synthesis).
constexpr size_t kDecodeProfiles = 4;

}  // namespace

void layer_probe(const Workload& w, SpanRecorder& rec, Values& out) {
  const u64 per_profile = std::max<u64>(
      1000, static_cast<u64>(static_cast<double>(kStreamOps) * std::min(1.0, w.scale)) /
                w.profiles.size());

  // The synthetic generators and trace decode, on the workload's profiles.
  std::vector<tlrob::Benchmark> synthetic;
  for (const std::string& p : w.profiles) synthetic.push_back(tlrob::trace::resolve_benchmark(p));
  Generated gen = generate(synthetic, per_profile, w.seed, rec, "workload.ThreadContext.next");
  out["workload.gen_uops_per_s"] = static_cast<double>(gen.ops) / gen.seconds;

  std::vector<tlrob::Benchmark> traces;
  for (size_t i = 0; i < std::min(kDecodeProfiles, w.profiles.size()); ++i)
    traces.push_back(tlrob::trace::resolve_benchmark("tracegen:" + w.profiles[i] + "@" +
                                                     std::to_string(per_profile) + "@" +
                                                     std::to_string(w.seed)));
  Generated dec = generate(traces, per_profile, w.seed, rec, "trace.TraceThreadSource.next");
  out["trace.decode_uops_per_s"] = static_cast<double>(dec.ops) / dec.seconds;

  // Every later layer replays the ops of the workload's own backend.
  const Stream st = interleave(w.traced_inputs ? dec.per_profile : gen.per_profile);
  const MachineConfig cfg;

  out["memory.cache.ns_per_access"] = median_ns([&] {
    tlrob::Cache cache("l1d", cfg.memory.l1d);
    return timed_pass(rec, "memory.Cache", [&] {
      Cycle now = 0;
      bool dirty = false;
      for (const MemOp& m : st.mem) {
        ++now;
        if (!cache.probe(m.addr, now).present) cache.fill(m.addr, now, now + 10, false, &dirty);
      }
      return static_cast<u64>(st.mem.size());
    });
  });

  out["memory.system.ns_per_access"] = median_ns([&] {
    tlrob::MemorySystem mem(cfg.memory);
    return timed_pass(rec, "memory.MemorySystem", [&] {
      Cycle now = 0;
      for (const MemOp& m : st.mem) {
        now += 2;
        (void)mem.access_data(m.addr, m.store, now);
      }
      return static_cast<u64>(st.mem.size());
    });
  });

  out["memory.llc.ns_per_fill"] = median_ns([&] {
    tlrob::LlcConfig llc = cfg.llc;
    llc.enabled = true;
    tlrob::SharedMemory shared(llc, cfg.dram);
    return timed_pass(rec, "memory.SharedMemory", [&] {
      Cycle now = 0;
      for (const MemOp& m : st.mem) {
        now += 4;
        (void)shared.request_fill(m.addr, now, m.tid);
      }
      return static_cast<u64>(st.mem.size());
    });
  });

  out["memory.dram.ns_per_read"] = median_ns([&] {
    tlrob::DramModel dram(cfg.dram);
    return timed_pass(rec, "memory.DramModel", [&] {
      Cycle now = 0;
      for (const MemOp& m : st.mem) {
        now += 4;
        (void)dram.read(m.addr, now);
      }
      return static_cast<u64>(st.mem.size());
    });
  });

  // One event per op, due after a latency drawn from the op (loads far,
  // the rest near); one cycle of due events is drained per 8 ops.
  out["sim.event_wheel.ns_per_op"] = median_ns([&] {
    tlrob::EventWheel wheel;
    return timed_pass(rec, "sim.EventWheel", [&] {
      u64 handled = 0;
      Cycle now = 0;
      auto count = [&](const tlrob::SimEvent&) { ++handled; };
      for (size_t i = 0; i < st.ops.size(); ++i) {
        const ArchOp& op = st.ops[i];
        const Cycle lat = op.si->is_load() ? 2 + ((op.mem_addr >> 5) & 255) : 1 + (i & 3);
        wheel.schedule(now + lat, tlrob::EvKind::kFuComplete,
                       tlrob::InstRef{st.tid[i], i, 0});
        if ((i & 7) == 7) wheel.process_due(++now, count);
      }
      wheel.process_due(now + wheel.horizon(), count);
      return static_cast<u64>(st.ops.size()) + handled;
    });
  });

  // Dataflow through the shared IQ: rename each op's sources to the
  // registers of their last writers, insert up to dispatch_width ops per
  // cycle, then select up to issue_width ready candidates, retire them from
  // the queue and wake their consumers. Every destination gets a fresh
  // register, so no value is ever overwritten while a consumer waits.
  out["pipeline.iq.ns_per_op"] = median_ns([&] {
    tlrob::IssueQueue iq(cfg.iq_entries, kThreads);
    std::vector<tlrob::DynInst> pool(cfg.iq_entries);
    std::vector<tlrob::DynInst*> free_list;
    for (auto& di : pool) free_list.push_back(&di);
    std::vector<tlrob::u8> ready(st.ops.size() + 1, 1);  // register 0: initial values
    std::vector<tlrob::PhysReg> map(kThreads * tlrob::kNumArchRegs, 0);
    std::vector<tlrob::DynInst*> cands;
    return timed_pass(rec, "pipeline.IssueQueue", [&] {
      tlrob::PhysReg next_reg = 1;
      auto classify = [&](tlrob::PhysReg r) {
        return ready[r] != 0 ? tlrob::IssueQueue::SrcState::kReady
                             : tlrob::IssueQueue::SrcState::kWaitEvent;
      };
      auto select = [&] {
        iq.collect_issue_candidates(cands, classify);
        const size_t n = std::min<size_t>(cands.size(), cfg.issue_width);
        for (size_t k = 0; k < n; ++k) {
          tlrob::DynInst* di = cands[k];
          iq.mark_issued(di);
          iq.remove(di);
          if (di->dest_phys != tlrob::kInvalidPhysReg) {
            ready[di->dest_phys] = 1;
            iq.wake_waiters(di->dest_phys);
          }
          free_list.push_back(di);
        }
      };
      size_t i = 0;
      while (i < st.ops.size()) {
        for (u32 k = 0; k < cfg.dispatch_width && i < st.ops.size() && iq.has_free(); ++k, ++i) {
          const tlrob::StaticInst& si = *st.ops[i].si;
          tlrob::PhysReg* m = &map[st.tid[i] * tlrob::kNumArchRegs];
          tlrob::DynInst* di = free_list.back();
          free_list.pop_back();
          *di = tlrob::DynInst{};
          di->tid = st.tid[i];
          di->op = si.op;
          for (int s = 0; s < 2; ++s)
            if (si.src[s] < tlrob::kNumArchRegs) di->src_phys[s] = m[si.src[s]];
          if (si.dest < tlrob::kNumArchRegs) {
            di->dest_phys = next_reg++;
            ready[di->dest_phys] = 0;
            m[si.dest] = di->dest_phys;
          }
          iq.insert(di);
        }
        select();
      }
      while (iq.occupancy() > 0) select();
      return static_cast<u64>(st.ops.size());
    });
  });

  out["branch.ns_per_predict"] = median_ns([&] {
    tlrob::BranchPredictor bp(cfg.predictor, kThreads);
    return timed_pass(rec, "branch.BranchPredictor", [&] {
      for (const size_t i : st.ctrl) {
        const ArchOp& op = st.ops[i];
        const Addr fallthrough = op.pc + 4;
        const Addr target = op.taken ? op.target_pc : op.pc + 64;
        const tlrob::BranchPrediction p = bp.predict(st.tid[i], *op.si, target, fallthrough,
                                                     fallthrough);
        bp.train(st.tid[i], *op.si, p, op.taken, op.target_pc);
        if (p.taken != op.taken) bp.recover(st.tid[i], *op.si, p, op.taken);
      }
      return static_cast<u64>(st.ctrl.size());
    });
  });

  out["rob.dodpred.ns_per_op"] = median_ns([&] {
    tlrob::DodPredictor dp;
    return timed_pass(rec, "rob.DodPredictor", [&] {
      for (const size_t i : st.loads) {
        (void)dp.predict(st.tid[i], st.ops[i].pc);
        dp.update(st.tid[i], st.ops[i].pc, static_cast<u32>(i % 24));
      }
      return static_cast<u64>(st.loads.size());
    });
  });
}

}  // namespace perfbench
