#include "bench.h"

#include <cstdio>
#include <fstream>
#include <sstream>

namespace uobench {

std::string JsonEscape(const std::string& s) {
  std::string out = "\"";
  for (char c : s) {
    switch (c) {
      case '"': out += "\\\""; break;
      case '\\': out += "\\\\"; break;
      case '\n': out += "\\n"; break;
      case '\t': out += "\\t"; break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof(buf), "\\u%04x", c);
          out += buf;
        } else {
          out.push_back(c);
        }
    }
  }
  return out + "\"";
}

namespace {

std::string Number(double v) {
  if (!std::isfinite(v)) return "null";
  char buf[40];
  std::snprintf(buf, sizeof(buf), "%.17g", v);
  return buf;
}

std::string RenderMetrics(const std::map<std::string, Metric>& metrics) {
  std::string out = "{";
  bool first = true;
  for (const auto& [name, m] : metrics) {
    if (!first) out += ",";
    first = false;
    out += JsonEscape(name) + ":{\"value\":" + Number(m.value) +
           ",\"unit\":" + JsonEscape(m.unit) + "}";
  }
  return out + "}";
}

}  // namespace

std::string RenderReport(const Report& report) {
  std::string out = "{\"correct\":";
  out += report.correct ? "true" : "false";
  out += ",\"attempted\":" + std::to_string(report.attempted);
  out += ",\"failed\":" + std::to_string(report.failed);
  out += ",\"errors\":[";
  for (size_t i = 0; i < report.errors.size(); ++i) {
    if (i > 0) out += ",";
    out += JsonEscape(report.errors[i]);
  }
  out += "],\"end_to_end\":" + RenderMetrics(report.end_to_end);
  out += ",\"per_layer\":" + RenderMetrics(report.per_layer);
  out += ",\"context\":{";
  bool first = true;
  for (const auto& [key, json] : report.context) {
    if (!first) out += ",";
    first = false;
    out += JsonEscape(key) + ":" + json;
  }
  return out + "}}";
}

double PeakRssMb() {
  std::ifstream status("/proc/self/status");
  std::string line;
  while (std::getline(status, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      std::istringstream in(line.substr(6));
      double kb = 0.0;
      in >> kb;
      return kb / 1024.0;
    }
  }
  return 0.0;
}

}  // namespace uobench
