// In-memory span recorder for the traced benchmark run.
//
// A span is one timed call into a tlrob layer, made from the benchmark's own
// code: layer name, start, end (steady_clock ns since the recorder's epoch),
// the span that was open on the same thread when it began (its parent) and
// the recording thread. Spans are appended to a per-thread buffer and only
// merged and written out when the run ends, so recording costs two clock
// reads and one vector push per call.
#pragma once

#include <chrono>
#include <map>
#include <memory>
#include <mutex>
#include <ostream>
#include <string>
#include <vector>

#include "common/types.hpp"

namespace perfbench {

using tlrob::u32;
using tlrob::u64;

struct SpanRec {
  const char* layer = "";  // string literal, never owned
  u64 start_ns = 0;
  u64 end_ns = 0;
  u64 id = 0;      // unique per recorder
  u64 parent = 0;  // 0 = root
  u32 thread = 0;
};

struct LayerTotals {
  u64 count = 0;
  double total_s = 0.0;  // sum of span durations
  double self_s = 0.0;   // total minus time covered by child spans
};

class SpanRecorder {
 public:
  SpanRecorder() : epoch_(std::chrono::steady_clock::now()) {}
  SpanRecorder(const SpanRecorder&) = delete;
  SpanRecorder& operator=(const SpanRecorder&) = delete;

  u64 now_ns() const {
    return static_cast<u64>(std::chrono::duration_cast<std::chrono::nanoseconds>(
                                std::chrono::steady_clock::now() - epoch_)
                                .count());
  }

  /// RAII span: opens on construction, records on destruction.
  class Scope {
   public:
    Scope(SpanRecorder& rec, const char* layer);
    ~Scope();
    Scope(const Scope&) = delete;
    Scope& operator=(const Scope&) = delete;

   private:
    SpanRecorder& rec_;
    SpanRec span_;
  };

  /// All spans of all threads, ordered by id.
  std::vector<SpanRec> spans() const;

  /// Count, total and self time per layer name.
  std::map<std::string, LayerTotals> totals() const;

  /// One JSON object per span, one per line.
  void write_jsonl(std::ostream& os) const;

 private:
  struct ThreadBuf {
    u32 thread = 0;
    std::vector<SpanRec> spans;
    std::vector<u64> open;  // ids of the spans open on this thread
  };
  ThreadBuf& buf();

  std::chrono::steady_clock::time_point epoch_;
  mutable std::mutex mu_;  // guards bufs_ and next_id_
  std::vector<std::unique_ptr<ThreadBuf>> bufs_;
  u64 next_id_ = 1;
};

}  // namespace perfbench
