#include "obs/telemetry_config.hpp"

#include <cstdlib>

#include "common/config.hpp"

namespace tlrob::obs {

TelemetryConfig default_telemetry_config() {
  // Computed once: the environment is the process-wide switch, not a
  // per-config knob (explicit assignment to MachineConfig::telemetry
  // overrides).
  static const TelemetryConfig cached = [] {
    TelemetryConfig cfg;
    // Strict like the command line: a malformed value is an OptionError
    // (exit 2 from run_cli), never a different interval or a silent off.
    if (const char* s = std::getenv("TLROB_SAMPLE"); s != nullptr && *s != '\0')
      cfg.sample_interval = parse_unsigned("$TLROB_SAMPLE", s);
    if (const char* p = std::getenv("TLROB_PROFILE"); p != nullptr && *p != '\0')
      cfg.profile = parse_bool("$TLROB_PROFILE", p);
    return cfg;
  }();
  return cached;
}

}  // namespace tlrob::obs
