// Copyright (c) dpstarj authors. Licensed under the MIT license.

#include "perf_util.h"

#include <cstdio>
#include <fstream>

#include "net/json.h"

namespace perfbench {

using dpstarj::net::Json;

HostCpu ReadHostCpu() {
  std::ifstream stat("/proc/stat");
  std::string cpu;
  stat >> cpu;
  HostCpu h;
  double v = 0.0;
  // user nice system idle iowait irq softirq steal
  for (int i = 0; i < 8 && stat >> v; ++i) {
    h.total += v;
    if (i == 7) {
      h.steal = v;
    } else if (i != 3 && i != 4) {
      h.busy += v;
    }
  }
  return h;
}

bool SpanLog::WriteJsonLines(const std::string& path) const {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return false;
  std::lock_guard<std::mutex> lock(mu_);
  bool ok = true;
  for (const Span& s : spans_) {
    Json line = Json::Object();
    line.Set("id", Json::Number(static_cast<double>(s.id)));
    line.Set("parent", Json::Number(static_cast<double>(s.parent)));
    line.Set("request", Json::Number(static_cast<double>(s.request)));
    line.Set("name", Json::Str(s.name));
    line.Set("start_ns", Json::Number(static_cast<double>(s.start_ns)));
    line.Set("end_ns", Json::Number(static_cast<double>(s.end_ns)));
    const std::string text = line.Dump() + "\n";
    ok = ok && std::fwrite(text.data(), 1, text.size(), f) == text.size();
  }
  return std::fclose(f) == 0 && ok;
}

std::string MetricSet::ToJson() const {
  std::string out = "{";
  for (const auto& [name, entry] : metrics_) {
    char value[64];
    std::snprintf(value, sizeof(value), "%.17g", entry.first);
    if (out.size() > 1) out += ", ";
    out += Json::Str(name).Dump() + ": {\"value\": " + value +
           ", \"unit\": " + Json::Str(entry.second).Dump() + "}";
  }
  return out + "}";
}

}  // namespace perfbench
