// Composite per-core front-end predictor: gshare direction prediction, BTB,
// and per-thread return address stacks.
//
// Model notes (documented in DESIGN.md): direct branch/jump/call targets are
// available to our short front end at fetch (decode-time target computation),
// so the BTB influences statistics but not correctness; the two mispredict
// sources that cost cycles are conditional-branch *direction* (gshare) and
// *return* targets (RAS).
#pragma once

#include <compare>
#include <vector>

#include "branch/btb.hpp"
#include "branch/gshare.hpp"
#include "branch/ras.hpp"
#include "common/stats.hpp"
#include "isa/static_inst.hpp"

namespace tlrob {

struct PredictorConfig {
  u32 gshare_entries = 2048;  // Table 1: 2K-entry gShare
  u32 history_bits = 10;      // 10-bit global history per thread
  u32 btb_entries = 2048;     // 2048-entry, 2-way
  u32 btb_ways = 2;

  auto operator<=>(const PredictorConfig&) const = default;
};

struct BranchPrediction {
  bool taken = true;        // predicted direction (unconditional ops: true)
  Addr target = 0;          // predicted target (returns: RAS; else static)
  u16 history_before = 0;   // gshare snapshot (conditional branches)
  u32 ras_checkpoint = 0;   // RAS top-of-stack snapshot
  bool used_ras = false;
};

class BranchPredictor {
 public:
  BranchPredictor(const PredictorConfig& cfg, u32 num_threads);

  /// Predicts a control instruction at fetch. `static_target` is the taken
  /// target PC (direct ops), `fallthrough` the not-taken successor PC, and
  /// `return_pc` the PC pushed for calls.
  BranchPrediction predict(ThreadId tid, const StaticInst& si, Addr static_target,
                           Addr fallthrough, Addr return_pc);

  /// Trains tables when a correct-path control instruction resolves.
  void train(ThreadId tid, const StaticInst& si, const BranchPrediction& pred,
             bool actual_taken, Addr actual_target);

  /// Restores per-thread speculative state after the squash caused by a
  /// mispredicted control instruction.
  void recover(ThreadId tid, const StaticInst& si, const BranchPrediction& pred,
               bool actual_taken);

  StatGroup& stats() { return stats_; }
  ReturnAddressStack& ras(ThreadId tid) { return ras_[tid]; }

 private:
  Gshare gshare_;
  Btb btb_;
  std::vector<ReturnAddressStack> ras_;
  StatGroup stats_;
  // Cached stat handles (StatGroup map nodes are address-stable); predict()
  // runs per fetched control op and train() per resolved one, so the
  // string-keyed lookups were measurable. Declared after stats_.
  Counter* cnt_btb_hits_;
  Counter* cnt_cond_;
  Counter* cnt_cond_mispredict_;
  Counter* cnt_returns_;
  Counter* cnt_ras_mispredict_;
};

}  // namespace tlrob
