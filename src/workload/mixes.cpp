#include "workload/mixes.hpp"

#include <stdexcept>
#include <string>

#include "workload/spec_profiles.hpp"

namespace tlrob {

const std::vector<Mix>& table2_mixes() {
  // Classification strings follow Table 2. The scanned table in the source
  // text garbles some of the classification row spans; the mix compositions
  // themselves are unambiguous and are what the experiments consume.
  static const std::vector<Mix> mixes = {
      {"Mix 1", {"ammp", "art", "mgrid", "apsi"}, "4 Low IPC"},
      {"Mix 2", {"art", "mgrid", "apsi", "parser"}, "3 Low IPC + 1 Mid IPC"},
      {"Mix 3", {"ammp", "mgrid", "apsi", "parser"}, "3 Low IPC + 1 Mid IPC"},
      {"Mix 4", {"art", "mgrid", "apsi", "vortex"}, "3 Low IPC + 1 Mid IPC"},
      {"Mix 5", {"ammp", "apsi", "parser", "crafty"}, "2 Low IPC + 2 Mid IPC"},
      {"Mix 6", {"art", "apsi", "parser", "gap"}, "2 Low IPC + 2 Mid IPC"},
      {"Mix 7", {"ammp", "apsi", "vortex", "eon"}, "2 Low IPC + 2 Mid IPC"},
      {"Mix 8", {"art", "parser", "vpr", "gzip"}, "2 Low IPC + 2 Mid IPC"},
      {"Mix 9", {"mgrid", "parser", "perlbmk", "mcf"}, "mixed"},
      {"Mix 10", {"lucas", "twolf", "bzip2", "wupwise"}, "mixed"},
      {"Mix 11", {"equake", "mesa", "swim", "twolf"}, "mixed"},
  };
  return mixes;
}

const Mix& table2_mix(u32 index) {
  const auto& mixes = table2_mixes();
  if (index < 1 || index > mixes.size())
    throw std::out_of_range("mix index must be 1.." + std::to_string(mixes.size()) + ", got " +
                            std::to_string(index));
  return mixes[index - 1];
}

std::vector<Benchmark> mix_benchmarks(const Mix& mix) {
  std::vector<Benchmark> v;
  v.reserve(mix.benchmarks.size());
  for (const auto& name : mix.benchmarks) v.push_back(spec_benchmark(name));
  return v;
}

}  // namespace tlrob
