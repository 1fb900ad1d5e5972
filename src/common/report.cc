#include "common/report.h"

#include <cmath>
#include <cstdio>
#include <type_traits>
#include <variant>

namespace nonserial {

namespace {

void AppendEscaped(std::string* out, const std::string& text) {
  out->push_back('"');
  for (char c : text) {
    switch (c) {
      case '"':
        *out += "\\\"";
        break;
      case '\\':
        *out += "\\\\";
        break;
      case '\n':
        *out += "\\n";
        break;
      case '\t':
        *out += "\\t";
        break;
      case '\r':
        *out += "\\r";
        break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof(buf), "\\u%04x", c);
          *out += buf;
        } else {
          out->push_back(c);
        }
    }
  }
  out->push_back('"');
}

void AppendNewlineIndent(std::string* out, int indent, int depth) {
  if (indent <= 0) return;
  out->push_back('\n');
  out->append(static_cast<size_t>(indent) * depth, ' ');
}

}  // namespace

Json& Json::operator[](const std::string& key) {
  if (type_ == Type::kNull) type_ = Type::kObject;
  for (auto& [k, v] : members_) {
    if (k == key) return v;
  }
  members_.emplace_back(key, Json());
  return members_.back().second;
}

void Json::Push(Json value) {
  if (type_ == Type::kNull) type_ = Type::kArray;
  members_.emplace_back(std::string(), std::move(value));
}

std::string Json::Dump(int indent) const {
  std::string out;
  DumpTo(&out, indent, 0);
  return out;
}

void Json::DumpTo(std::string* out, int indent, int depth) const {
  switch (type_) {
    case Type::kNull:
      *out += "null";
      return;
    case Type::kBool:
      *out += bool_ ? "true" : "false";
      return;
    case Type::kInt: {
      char buf[32];
      std::snprintf(buf, sizeof(buf), "%lld",
                    static_cast<long long>(int_));
      *out += buf;
      return;
    }
    case Type::kDouble: {
      if (!std::isfinite(double_)) {
        *out += "null";  // JSON has no Inf/NaN.
        return;
      }
      char buf[64];
      std::snprintf(buf, sizeof(buf), "%.6g", double_);
      *out += buf;
      return;
    }
    case Type::kString:
      AppendEscaped(out, string_);
      return;
    case Type::kArray: {
      if (members_.empty()) {
        *out += "[]";
        return;
      }
      out->push_back('[');
      for (size_t i = 0; i < members_.size(); ++i) {
        if (i > 0) out->push_back(',');
        AppendNewlineIndent(out, indent, depth + 1);
        members_[i].second.DumpTo(out, indent, depth + 1);
      }
      AppendNewlineIndent(out, indent, depth);
      out->push_back(']');
      return;
    }
    case Type::kObject: {
      if (members_.empty()) {
        *out += "{}";
        return;
      }
      out->push_back('{');
      for (size_t i = 0; i < members_.size(); ++i) {
        if (i > 0) out->push_back(',');
        AppendNewlineIndent(out, indent, depth + 1);
        AppendEscaped(out, members_[i].first);
        *out += indent > 0 ? ": " : ":";
        members_[i].second.DumpTo(out, indent, depth + 1);
      }
      AppendNewlineIndent(out, indent, depth);
      out->push_back('}');
      return;
    }
  }
}

namespace {

Json HistogramJson(const Histogram& h) {
  Json out = Json::Object();
  out["count"] = h.count();
  out["mean"] = h.mean();
  out["p50"] = h.ApproxPercentile(0.5);
  out["p99"] = h.ApproxPercentile(0.99);
  out["max"] = h.max();
  return out;
}

}  // namespace

Json MetricsJson(const ProtocolMetrics& m) {
  Json out = Json::Object();
  for (const MetricRow& row : MetricTable()) {
    Json& slot = *row.group == '\0' ? out[row.key] : out[row.group][row.key];
    std::visit(
        [&](auto field) {
          using Field = decltype(field);
          if constexpr (std::is_same_v<Field, Counter ProtocolMetrics::*>) {
            slot = (m.*field).value();
          } else if constexpr (std::is_same_v<Field,
                                              Histogram ProtocolMetrics::*>) {
            slot = HistogramJson(m.*field);
          } else {
            slot = (m.*field)();
          }
        },
        row.field);
  }
  return out;
}

std::string ProtocolMetrics::ToJson() const { return MetricsJson(*this).Dump(2); }

ReportBuilder::ReportBuilder(std::string bench) : bench_(std::move(bench)) {}

void ReportBuilder::AttachEventTallies(
    const std::map<std::string, std::map<std::string, int64_t>>& tallies) {
  events_ = Json::Object();
  for (const auto& [protocol, kinds] : tallies) {
    Json& per_protocol = events_[protocol];
    for (const auto& [kind, count] : kinds) per_protocol[kind] = count;
  }
}

Json ReportBuilder::Build() const {
  Json out = Json::Object();
  out["schema_version"] = kReportSchemaVersion;
  out["bench"] = bench_;
  out["ok"] = ok_;
  out["config"] = config_;
  out["results"] = results_;
  if (!metrics_.is_null()) out["metrics"] = metrics_;
  if (!events_.is_null()) out["events"] = events_;
  return out;
}

Json ChromeTraceJson(const SpanTimeline& timeline) {
  Json events = Json::Array();
  for (const auto& [lane, name] : timeline.lane_names()) {
    Json meta = Json::Object();
    meta["name"] = "thread_name";
    meta["ph"] = "M";
    meta["pid"] = 0;
    meta["tid"] = lane;
    meta["args"]["name"] = name;
    events.Push(std::move(meta));
  }
  for (const PhaseSpan& span : timeline.spans()) {
    Json event = Json::Object();
    event["name"] = span.phase;
    event["ph"] = "X";
    event["ts"] = span.start_us;
    event["dur"] = span.dur_us;
    event["pid"] = 0;
    event["tid"] = span.lane;
    Json& args = event["args"];
    args["attempt"] = span.attempt;
    args["ok"] = span.ok;
    events.Push(std::move(event));
  }
  Json out = Json::Object();
  out["traceEvents"] = std::move(events);
  out["displayTimeUnit"] = "ms";
  return out;
}

}  // namespace nonserial
