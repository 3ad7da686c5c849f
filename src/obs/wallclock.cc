#include "obs/wallclock.h"

#include <cstdio>
#include <iomanip>

namespace osumac::obs {

namespace {

/// %.17g — round-trip-exact doubles, matching the sweep emitters.
std::string G17(double v) {
  char buf[64];
  std::snprintf(buf, sizeof buf, "%.17g", v);
  return buf;
}

}  // namespace

void WallTimerRegistry::Report(std::ostream& out) const {
  out << "# wall-clock timers (ms)\n";
  out << std::fixed << std::setprecision(3);
  for (const auto& [name, stats] : timers_) {
    out << "#   " << name << ": n=" << stats.size()
        << " total=" << stats.Sum() * 1e3 << " mean=" << stats.Mean() * 1e3
        << " max=" << stats.Max() * 1e3 << '\n';
  }
}

void WriteWallTimersJson(std::ostream& out, const WallTimerRegistry& registry,
                         const std::string& provenance) {
  out << "{\n  \"provenance\": \"" << provenance << "\",\n  \"phases\": [\n";
  bool first = true;
  for (const auto& [name, stats] : registry.timers()) {
    if (!first) out << ",\n";
    first = false;
    out << "    {\"name\": \"" << name << "\", \"count\": " << stats.size()
        << ", \"total_seconds\": " << G17(stats.Sum())
        << ", \"mean_seconds\": " << G17(stats.Mean())
        << ", \"median_seconds\": " << G17(stats.Median())
        << ", \"max_seconds\": " << G17(stats.Max()) << "}";
  }
  out << "\n  ]\n}\n";
}

}  // namespace osumac::obs
