// Lightweight named-statistics registry.
//
// Every simulator component registers scalar counters and averages with a
// StatGroup; the experiment harness and benches print or diff them. This is
// the moral equivalent of SimpleScalar's stat database, reduced to what the
// reproduction needs.
#pragma once

#include <map>
#include <ostream>
#include <string>

#include "common/types.hpp"

namespace tlrob {

/// A monotonically increasing event counter.
class Counter {
 public:
  void inc(u64 by = 1) { value_ += by; }
  void reset() { value_ = 0; }
  u64 value() const { return value_; }

 private:
  u64 value_ = 0;
};

/// Running mean of observed samples.
class Average {
 public:
  void sample(double v) {
    sum_ += v;
    ++count_;
  }
  /// `n` samples of the same value at once (bit-identical to n sample(v)
  /// calls while v * n and the sum stay exactly representable, e.g. integers).
  void sample(double v, u64 n) {
    sum_ += v * static_cast<double>(n);
    count_ += n;
  }
  void reset() {
    sum_ = 0;
    count_ = 0;
  }
  u64 count() const { return count_; }
  double sum() const { return sum_; }
  double mean() const { return count_ == 0 ? 0.0 : sum_ / static_cast<double>(count_); }

 private:
  double sum_ = 0;
  u64 count_ = 0;
};

/// A flat, ordered collection of named counters and averages.
///
/// Lookup is by full dotted name ("commit.insts"). Creation is idempotent:
/// the first lookup creates the stat, later lookups return the same object.
class StatGroup {
 public:
  Counter& counter(const std::string& name) { return counters_[name]; }
  Average& average(const std::string& name) { return averages_[name]; }

  bool has_counter(const std::string& name) const { return counters_.count(name) != 0; }
  bool has_average(const std::string& name) const { return averages_.count(name) != 0; }

  /// Value of a counter, or 0 if it was never touched.
  u64 counter_value(const std::string& name) const;

  void reset();

  /// Prints "name value" lines in name order.
  void print(std::ostream& os) const;

  const std::map<std::string, Counter>& counters_map() const { return counters_; }
  const std::map<std::string, Average>& averages_map() const { return averages_; }

 private:
  std::map<std::string, Counter> counters_;
  std::map<std::string, Average> averages_;
};

}  // namespace tlrob
