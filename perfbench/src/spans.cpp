#include "spans.hpp"

#include <algorithm>
#include <unordered_map>

#include "runner/json.hpp"

namespace perfbench {

namespace {

/// Span ids carry the recording thread in their top bits, so threads mint
/// ids without sharing a counter.
constexpr u32 kThreadShift = 40;

struct ThreadSlot {
  const SpanRecorder* owner = nullptr;
  void* buf = nullptr;
};
thread_local ThreadSlot tls_slot;

}  // namespace

SpanRecorder::ThreadBuf& SpanRecorder::buf() {
  if (tls_slot.owner != this) {
    std::lock_guard<std::mutex> lock(mu_);
    bufs_.push_back(std::make_unique<ThreadBuf>());
    bufs_.back()->thread = static_cast<u32>(bufs_.size());
    tls_slot = {this, bufs_.back().get()};
  }
  return *static_cast<ThreadBuf*>(tls_slot.buf);
}

SpanRecorder::Scope::Scope(SpanRecorder& rec, const char* layer) : rec_(rec) {
  ThreadBuf& b = rec_.buf();
  span_.layer = layer;
  span_.thread = b.thread;
  span_.id = (u64{b.thread} << kThreadShift) | (b.spans.size() + b.open.size() + 1);
  span_.parent = b.open.empty() ? 0 : b.open.back();
  b.open.push_back(span_.id);
  span_.start_ns = rec_.now_ns();
}

SpanRecorder::Scope::~Scope() {
  span_.end_ns = rec_.now_ns();
  ThreadBuf& b = rec_.buf();
  b.open.pop_back();
  b.spans.push_back(span_);
}

std::vector<SpanRec> SpanRecorder::spans() const {
  std::lock_guard<std::mutex> lock(mu_);
  std::vector<SpanRec> all;
  for (const auto& b : bufs_) all.insert(all.end(), b->spans.begin(), b->spans.end());
  std::sort(all.begin(), all.end(),
            [](const SpanRec& a, const SpanRec& b) { return a.id < b.id; });
  return all;
}

std::map<std::string, LayerTotals> SpanRecorder::totals() const {
  const std::vector<SpanRec> all = spans();
  std::unordered_map<u64, u64> child_ns;  // parent id -> summed child durations
  for (const SpanRec& s : all)
    if (s.parent != 0) child_ns[s.parent] += s.end_ns - s.start_ns;
  std::map<std::string, LayerTotals> out;
  for (const SpanRec& s : all) {
    const u64 dur = s.end_ns - s.start_ns;
    const auto it = child_ns.find(s.id);
    const u64 covered = it == child_ns.end() ? 0 : std::min(it->second, dur);
    LayerTotals& t = out[s.layer];
    ++t.count;
    t.total_s += static_cast<double>(dur) * 1e-9;
    t.self_s += static_cast<double>(dur - covered) * 1e-9;
  }
  return out;
}

void SpanRecorder::write_jsonl(std::ostream& os) const {
  for (const SpanRec& s : spans())
    os << "{\"layer\":" << tlrob::runner::json_escape(s.layer) << ",\"start_ns\":" << s.start_ns
       << ",\"end_ns\":" << s.end_ns << ",\"id\":" << s.id << ",\"parent\":" << s.parent
       << ",\"thread\":" << s.thread << "}\n";
}

}  // namespace perfbench
