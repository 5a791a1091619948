#include "net/json.h"

#include <cmath>
#include <cstdlib>

#include "service/report_digest.h"
#include "util/string_util.h"

namespace hypdb {
namespace net {

// ---- JsonValue ----------------------------------------------------------

JsonValue JsonValue::Bool(bool v) {
  JsonValue out;
  out.type_ = Type::kBool;
  out.bool_ = v;
  return out;
}

JsonValue JsonValue::Int(int64_t v) {
  JsonValue out;
  out.type_ = Type::kInt;
  out.int_ = v;
  return out;
}

JsonValue JsonValue::Double(double v) {
  JsonValue out;
  out.type_ = Type::kDouble;
  out.double_ = v;
  return out;
}

JsonValue JsonValue::Str(std::string v) {
  JsonValue out;
  out.type_ = Type::kString;
  out.string_ = std::move(v);
  return out;
}

JsonValue JsonValue::MakeArray() {
  JsonValue out;
  out.type_ = Type::kArray;
  return out;
}

JsonValue JsonValue::MakeObject() {
  JsonValue out;
  out.type_ = Type::kObject;
  return out;
}

JsonValue& JsonValue::Append(JsonValue v) {
  array_.push_back(std::move(v));
  return *this;
}

JsonValue& JsonValue::Set(const std::string& key, JsonValue v) {
  for (auto& member : members_) {
    if (member.first == key) {
      member.second = std::move(v);
      return *this;
    }
  }
  members_.emplace_back(key, std::move(v));
  return *this;
}

const JsonValue* JsonValue::Find(const std::string& key) const {
  if (type_ != Type::kObject) return nullptr;
  for (const auto& member : members_) {
    if (member.first == key) return &member.second;
  }
  return nullptr;
}

bool JsonValue::operator==(const JsonValue& other) const {
  if (is_number() && other.is_number()) {
    if (type_ == Type::kInt && other.type_ == Type::kInt) {
      return int_ == other.int_;
    }
    return number_value() == other.number_value();
  }
  if (type_ != other.type_) return false;
  switch (type_) {
    case Type::kNull:
      return true;
    case Type::kBool:
      return bool_ == other.bool_;
    case Type::kInt:
    case Type::kDouble:
      return true;  // handled above
    case Type::kString:
      return string_ == other.string_;
    case Type::kArray:
      return array_ == other.array_;
    case Type::kObject:
      return members_ == other.members_;
  }
  return false;
}

// ---- parser -------------------------------------------------------------

namespace {

class Parser {
 public:
  Parser(const std::string& text, int max_depth)
      : text_(text), max_depth_(max_depth) {}

  StatusOr<JsonValue> Parse() {
    SkipWhitespace();
    JsonValue value;
    HYPDB_RETURN_IF_ERROR(ParseValue(&value, 0));
    SkipWhitespace();
    if (pos_ != text_.size()) {
      return Error("trailing characters after the JSON value");
    }
    return value;
  }

 private:
  Status Error(const std::string& what) const {
    return Status::InvalidArgument(
        StrFormat("JSON parse error at byte %zu: %s", pos_, what.c_str()));
  }

  void SkipWhitespace() {
    while (pos_ < text_.size()) {
      const char c = text_[pos_];
      if (c != ' ' && c != '\t' && c != '\n' && c != '\r') break;
      ++pos_;
    }
  }

  bool Consume(char c) {
    if (pos_ < text_.size() && text_[pos_] == c) {
      ++pos_;
      return true;
    }
    return false;
  }

  Status ParseValue(JsonValue* out, int depth) {
    if (pos_ >= text_.size()) return Error("unexpected end of input");
    switch (text_[pos_]) {
      case '{':
        return ParseObject(out, depth);
      case '[':
        return ParseArray(out, depth);
      case '"':
        return ParseString(out);
      case 't':
      case 'f':
        return ParseKeyword(out);
      case 'n':
        return ParseKeyword(out);
      default:
        return ParseNumber(out);
    }
  }

  Status ParseKeyword(JsonValue* out) {
    if (text_.compare(pos_, 4, "true") == 0) {
      pos_ += 4;
      *out = JsonValue::Bool(true);
      return Status::Ok();
    }
    if (text_.compare(pos_, 5, "false") == 0) {
      pos_ += 5;
      *out = JsonValue::Bool(false);
      return Status::Ok();
    }
    if (text_.compare(pos_, 4, "null") == 0) {
      pos_ += 4;
      *out = JsonValue();
      return Status::Ok();
    }
    return Error("invalid literal (expected true/false/null)");
  }

  Status ParseObject(JsonValue* out, int depth) {
    if (depth >= max_depth_) return Error("nesting exceeds the depth limit");
    ++pos_;  // '{'
    *out = JsonValue::MakeObject();
    SkipWhitespace();
    if (Consume('}')) return Status::Ok();
    for (;;) {
      SkipWhitespace();
      if (pos_ >= text_.size() || text_[pos_] != '"') {
        return Error("expected a quoted object key");
      }
      JsonValue key;
      HYPDB_RETURN_IF_ERROR(ParseString(&key));
      SkipWhitespace();
      if (!Consume(':')) return Error("expected ':' after object key");
      SkipWhitespace();
      JsonValue value;
      HYPDB_RETURN_IF_ERROR(ParseValue(&value, depth + 1));
      // Last duplicate wins, matching Set(); strictness here would reject
      // inputs most ecosystems accept.
      out->Set(key.string_value(), std::move(value));
      SkipWhitespace();
      if (Consume(',')) continue;
      if (Consume('}')) return Status::Ok();
      return Error("expected ',' or '}' in object");
    }
  }

  Status ParseArray(JsonValue* out, int depth) {
    if (depth >= max_depth_) return Error("nesting exceeds the depth limit");
    ++pos_;  // '['
    *out = JsonValue::MakeArray();
    SkipWhitespace();
    if (Consume(']')) return Status::Ok();
    for (;;) {
      SkipWhitespace();
      JsonValue value;
      HYPDB_RETURN_IF_ERROR(ParseValue(&value, depth + 1));
      out->Append(std::move(value));
      SkipWhitespace();
      if (Consume(',')) continue;
      if (Consume(']')) return Status::Ok();
      return Error("expected ',' or ']' in array");
    }
  }

  Status AppendUtf8(std::string* s, uint32_t cp) {
    if (cp < 0x80) {
      s->push_back(static_cast<char>(cp));
    } else if (cp < 0x800) {
      s->push_back(static_cast<char>(0xC0 | (cp >> 6)));
      s->push_back(static_cast<char>(0x80 | (cp & 0x3F)));
    } else if (cp < 0x10000) {
      s->push_back(static_cast<char>(0xE0 | (cp >> 12)));
      s->push_back(static_cast<char>(0x80 | ((cp >> 6) & 0x3F)));
      s->push_back(static_cast<char>(0x80 | (cp & 0x3F)));
    } else {
      s->push_back(static_cast<char>(0xF0 | (cp >> 18)));
      s->push_back(static_cast<char>(0x80 | ((cp >> 12) & 0x3F)));
      s->push_back(static_cast<char>(0x80 | ((cp >> 6) & 0x3F)));
      s->push_back(static_cast<char>(0x80 | (cp & 0x3F)));
    }
    return Status::Ok();
  }

  StatusOr<uint32_t> ParseHex4() {
    if (pos_ + 4 > text_.size()) return Error("truncated \\u escape");
    uint32_t value = 0;
    for (int i = 0; i < 4; ++i) {
      const char c = text_[pos_ + i];
      value <<= 4;
      if (c >= '0' && c <= '9') {
        value |= static_cast<uint32_t>(c - '0');
      } else if (c >= 'a' && c <= 'f') {
        value |= static_cast<uint32_t>(c - 'a' + 10);
      } else if (c >= 'A' && c <= 'F') {
        value |= static_cast<uint32_t>(c - 'A' + 10);
      } else {
        return Error("invalid hex digit in \\u escape");
      }
    }
    pos_ += 4;
    return value;
  }

  Status ParseString(JsonValue* out) {
    ++pos_;  // '"'
    std::string s;
    for (;;) {
      if (pos_ >= text_.size()) return Error("unterminated string");
      const unsigned char c = static_cast<unsigned char>(text_[pos_]);
      if (c == '"') {
        ++pos_;
        *out = JsonValue::Str(std::move(s));
        return Status::Ok();
      }
      if (c < 0x20) return Error("raw control character in string");
      if (c != '\\') {
        s.push_back(static_cast<char>(c));
        ++pos_;
        continue;
      }
      ++pos_;  // '\'
      if (pos_ >= text_.size()) return Error("truncated escape");
      const char escape = text_[pos_++];
      switch (escape) {
        case '"': s.push_back('"'); break;
        case '\\': s.push_back('\\'); break;
        case '/': s.push_back('/'); break;
        case 'b': s.push_back('\b'); break;
        case 'f': s.push_back('\f'); break;
        case 'n': s.push_back('\n'); break;
        case 'r': s.push_back('\r'); break;
        case 't': s.push_back('\t'); break;
        case 'u': {
          HYPDB_ASSIGN_OR_RETURN(uint32_t cp, ParseHex4());
          if (cp >= 0xDC00 && cp <= 0xDFFF) {
            return Error("lone low surrogate");
          }
          if (cp >= 0xD800 && cp <= 0xDBFF) {
            // High surrogate: a \uDC00-\uDFFF low surrogate must follow.
            if (!(Consume('\\') && Consume('u'))) {
              return Error("high surrogate not followed by \\u escape");
            }
            HYPDB_ASSIGN_OR_RETURN(uint32_t low, ParseHex4());
            if (low < 0xDC00 || low > 0xDFFF) {
              return Error("high surrogate not followed by low surrogate");
            }
            cp = 0x10000 + ((cp - 0xD800) << 10) + (low - 0xDC00);
          }
          HYPDB_RETURN_IF_ERROR(AppendUtf8(&s, cp));
          break;
        }
        default:
          return Error("invalid escape character");
      }
    }
  }

  Status ParseNumber(JsonValue* out) {
    const size_t start = pos_;
    if (Consume('-')) {
      // fallthrough to digits
    }
    if (pos_ >= text_.size() || text_[pos_] < '0' || text_[pos_] > '9') {
      return Error("invalid number");
    }
    if (text_[pos_] == '0') {
      ++pos_;
      if (pos_ < text_.size() && text_[pos_] >= '0' && text_[pos_] <= '9') {
        return Error("leading zero in number");
      }
    } else {
      while (pos_ < text_.size() && text_[pos_] >= '0' && text_[pos_] <= '9') {
        ++pos_;
      }
    }
    bool integral = true;
    if (Consume('.')) {
      integral = false;
      if (pos_ >= text_.size() || text_[pos_] < '0' || text_[pos_] > '9') {
        return Error("digits required after decimal point");
      }
      while (pos_ < text_.size() && text_[pos_] >= '0' && text_[pos_] <= '9') {
        ++pos_;
      }
    }
    if (pos_ < text_.size() && (text_[pos_] == 'e' || text_[pos_] == 'E')) {
      integral = false;
      ++pos_;
      if (pos_ < text_.size() && (text_[pos_] == '+' || text_[pos_] == '-')) {
        ++pos_;
      }
      if (pos_ >= text_.size() || text_[pos_] < '0' || text_[pos_] > '9') {
        return Error("digits required in exponent");
      }
      while (pos_ < text_.size() && text_[pos_] >= '0' && text_[pos_] <= '9') {
        ++pos_;
      }
    }
    const std::string token = text_.substr(start, pos_ - start);
    if (integral) {
      errno = 0;
      char* end = nullptr;
      const long long v = std::strtoll(token.c_str(), &end, 10);
      if (errno == 0 && end && *end == '\0') {
        *out = JsonValue::Int(static_cast<int64_t>(v));
        return Status::Ok();
      }
      // Out of int64 range: fall back to double precision.
    }
    errno = 0;
    char* end = nullptr;
    const double v = std::strtod(token.c_str(), &end);
    if (!end || *end != '\0') return Error("invalid number");
    if (!std::isfinite(v)) return Error("number out of double range");
    *out = JsonValue::Double(v);
    return Status::Ok();
  }

  const std::string& text_;
  const int max_depth_;
  size_t pos_ = 0;
};

}  // namespace

StatusOr<JsonValue> ParseJson(const std::string& text,
                              JsonParseOptions options) {
  return Parser(text, options.max_depth).Parse();
}

// ---- serializer ---------------------------------------------------------

namespace {

void SerializeString(const std::string& s, std::string* out) {
  out->push_back('"');
  for (const char raw : s) {
    const unsigned char c = static_cast<unsigned char>(raw);
    switch (c) {
      case '"': *out += "\\\""; break;
      case '\\': *out += "\\\\"; break;
      case '\b': *out += "\\b"; break;
      case '\f': *out += "\\f"; break;
      case '\n': *out += "\\n"; break;
      case '\r': *out += "\\r"; break;
      case '\t': *out += "\\t"; break;
      default:
        if (c < 0x20) {
          *out += StrFormat("\\u%04x", c);
        } else {
          out->push_back(raw);  // UTF-8 bytes pass through
        }
    }
  }
  out->push_back('"');
}

void SerializeValue(const JsonValue& v, std::string* out) {
  switch (v.type()) {
    case JsonValue::Type::kNull:
      *out += "null";
      return;
    case JsonValue::Type::kBool:
      *out += v.bool_value() ? "true" : "false";
      return;
    case JsonValue::Type::kInt:
      *out += StrFormat("%lld", static_cast<long long>(v.int_value()));
      return;
    case JsonValue::Type::kDouble: {
      const double d = v.number_value();
      if (!std::isfinite(d)) {
        *out += "null";  // JSON has no NaN/Inf
      } else {
        *out += StrFormat("%.17g", d);
      }
      return;
    }
    case JsonValue::Type::kString:
      SerializeString(v.string_value(), out);
      return;
    case JsonValue::Type::kArray: {
      out->push_back('[');
      bool first = true;
      for (const JsonValue& item : v.array()) {
        if (!first) out->push_back(',');
        first = false;
        SerializeValue(item, out);
      }
      out->push_back(']');
      return;
    }
    case JsonValue::Type::kObject: {
      out->push_back('{');
      bool first = true;
      for (const auto& member : v.members()) {
        if (!first) out->push_back(',');
        first = false;
        SerializeString(member.first, out);
        out->push_back(':');
        SerializeValue(member.second, out);
      }
      out->push_back('}');
      return;
    }
  }
}

}  // namespace

std::string SerializeJson(const JsonValue& value) {
  std::string out;
  SerializeValue(value, &out);
  return out;
}

// ---- service types -> JSON ----------------------------------------------

namespace {

JsonValue StringsToJson(const std::vector<std::string>& strings) {
  JsonValue out = JsonValue::MakeArray();
  for (const std::string& s : strings) out.Append(JsonValue::Str(s));
  return out;
}

JsonValue BalanceToJson(const BalanceTest& b) {
  JsonValue out = JsonValue::MakeObject();
  out.Set("variables", StringsToJson(b.variables));
  out.Set("statistic", JsonValue::Double(b.ci.statistic));
  out.Set("p_value", JsonValue::Double(b.ci.p_value));
  out.Set("p_adjusted", JsonValue::Double(b.p_adjusted));
  out.Set("biased", JsonValue::Bool(b.biased));
  out.Set("biased_fdr", JsonValue::Bool(b.biased_fdr));
  return out;
}

}  // namespace

JsonValue ToJson(const CountEngineStats& stats) {
  JsonValue out = JsonValue::MakeObject();
  out.Set("queries", JsonValue::Int(stats.queries));
  out.Set("scans", JsonValue::Int(stats.scans));
  out.Set("cache_hits", JsonValue::Int(stats.cache_hits));
  out.Set("marginalizations", JsonValue::Int(stats.marginalizations));
  out.Set("predicate_slices", JsonValue::Int(stats.predicate_slices));
  out.Set("cube_hits", JsonValue::Int(stats.cube_hits));
  out.Set("fallback_calls", JsonValue::Int(stats.fallback_calls));
  out.Set("evictions", JsonValue::Int(stats.evictions));
  out.Set("delta_patches", JsonValue::Int(stats.delta_patches));
  out.Set("rows_scanned", JsonValue::Int(stats.rows_scanned));
  return out;
}

namespace {

// Chrome-trace category per event kind: groups the timeline rows and
// lets Perfetto filter by family.
const char* TraceEventCategory(TraceEventKind kind) {
  switch (kind) {
    case TraceEventKind::kStage: return "stage";
    case TraceEventKind::kKernelScan:
    case TraceEventKind::kMorselBatch: return "kernel";
    case TraceEventKind::kCiTest:
    case TraceEventKind::kDiscoveryWait:
    case TraceEventKind::kDiscoveryHit:
    case TraceEventKind::kDiscoveryCompute: return "discovery";
    case TraceEventKind::kCacheHit:
    case TraceEventKind::kCacheMiss:
    case TraceEventKind::kCacheMarginalize:
    case TraceEventKind::kCacheEvict:
    case TraceEventKind::kCachePrefetch: return "cache";
    case TraceEventKind::kSliceServe:
    case TraceEventKind::kSliceFallback: return "slice";
    case TraceEventKind::kIngestAppend:
    case TraceEventKind::kDeltaPatch: return "ingest";
    case TraceEventKind::kNone: break;
  }
  return "other";
}

bool TraceEventIsSpan(TraceEventKind kind) {
  return kind == TraceEventKind::kStage ||
         kind == TraceEventKind::kKernelScan ||
         kind == TraceEventKind::kCiTest ||
         kind == TraceEventKind::kDiscoveryWait ||
         kind == TraceEventKind::kIngestAppend ||
         kind == TraceEventKind::kDeltaPatch;
}

}  // namespace

JsonValue TraceEventToJson(const TraceEventRecord& e) {
  JsonValue out = JsonValue::MakeObject();
  out.Set("event", JsonValue::Str(TraceEventKindName(e.kind)));
  out.Set("thread", JsonValue::Int(static_cast<int64_t>(e.thread_id)));
  out.Set("start_seconds", JsonValue::Double(e.start_seconds));
  out.Set("seconds", JsonValue::Double(e.dur_seconds));
  switch (e.kind) {
    case TraceEventKind::kStage:
      out.Set("name", JsonValue::Str(e.arg0 < kNumTraceStages
                                         ? TraceStageName(
                                               static_cast<TraceStage>(e.arg0))
                                         : "unknown"));
      out.Set("arg", JsonValue::Int(static_cast<int64_t>(e.arg1)));
      break;
    case TraceEventKind::kKernelScan:
      out.Set("tier",
              JsonValue::Str(e.arg0 < 3 ? TraceKernelTierName(
                                              static_cast<TraceKernelTier>(
                                                  e.arg0))
                                        : "unknown"));
      out.Set("rows", JsonValue::Int(static_cast<int64_t>(e.arg1)));
      break;
    default:
      out.Set("arg0", JsonValue::Int(static_cast<int64_t>(e.arg0)));
      out.Set("arg1", JsonValue::Int(static_cast<int64_t>(e.arg1)));
      break;
  }
  return out;
}

JsonValue ChromeTraceJson(const RequestStats& stats) {
  JsonValue events = JsonValue::MakeArray();
  // The scheduler-side timeline (queue + stage tiling) renders as
  // pid 1 / tid 0 "X" spans, so the synthetic and engine-deep views sit
  // side by side on one clock (both axes are submit-relative seconds).
  for (const TraceSpan& span : stats.trace) {
    JsonValue e = JsonValue::MakeObject();
    e.Set("name", JsonValue::Str(span.name));
    e.Set("cat", JsonValue::Str("timeline"));
    e.Set("ph", JsonValue::Str("X"));
    e.Set("ts", JsonValue::Double(span.start_seconds * 1e6));
    e.Set("dur", JsonValue::Double(span.seconds * 1e6));
    e.Set("pid", JsonValue::Int(1));
    e.Set("tid", JsonValue::Int(0));
    events.Append(std::move(e));
  }
  for (const TraceEventRecord& rec : stats.events) {
    JsonValue e = JsonValue::MakeObject();
    std::string name = TraceEventKindName(rec.kind);
    JsonValue args = JsonValue::MakeObject();
    switch (rec.kind) {
      case TraceEventKind::kStage:
        name = rec.arg0 < kNumTraceStages
                   ? TraceStageName(static_cast<TraceStage>(rec.arg0))
                   : "unknown_stage";
        args.Set("arg", JsonValue::Int(static_cast<int64_t>(rec.arg1)));
        break;
      case TraceEventKind::kKernelScan:
        args.Set("tier", JsonValue::Str(
                             rec.arg0 < 3
                                 ? TraceKernelTierName(
                                       static_cast<TraceKernelTier>(rec.arg0))
                                 : "unknown"));
        args.Set("rows", JsonValue::Int(static_cast<int64_t>(rec.arg1)));
        break;
      default:
        args.Set("arg0", JsonValue::Int(static_cast<int64_t>(rec.arg0)));
        args.Set("arg1", JsonValue::Int(static_cast<int64_t>(rec.arg1)));
        break;
    }
    e.Set("name", JsonValue::Str(std::move(name)));
    e.Set("cat", JsonValue::Str(TraceEventCategory(rec.kind)));
    if (TraceEventIsSpan(rec.kind)) {
      e.Set("ph", JsonValue::Str("X"));
      e.Set("ts", JsonValue::Double(rec.start_seconds * 1e6));
      e.Set("dur", JsonValue::Double(rec.dur_seconds * 1e6));
    } else {
      e.Set("ph", JsonValue::Str("i"));
      e.Set("ts", JsonValue::Double(rec.start_seconds * 1e6));
      e.Set("s", JsonValue::Str("t"));
    }
    e.Set("pid", JsonValue::Int(1));
    e.Set("tid", JsonValue::Int(static_cast<int64_t>(rec.thread_id)));
    e.Set("args", std::move(args));
    events.Append(std::move(e));
  }
  JsonValue out = JsonValue::MakeObject();
  out.Set("traceEvents", std::move(events));
  out.Set("displayTimeUnit", JsonValue::Str("ms"));
  JsonValue other = JsonValue::MakeObject();
  other.Set("ticket", JsonValue::Int(static_cast<int64_t>(stats.ticket)));
  other.Set("trace_level", JsonValue::Int(stats.trace_level));
  other.Set("queue_seconds", JsonValue::Double(stats.queue_seconds));
  other.Set("run_seconds", JsonValue::Double(stats.run_seconds));
  out.Set("otherData", std::move(other));
  return out;
}

JsonValue ToJson(const RequestStats& stats) {
  JsonValue out = JsonValue::MakeObject();
  out.Set("ticket", JsonValue::Int(static_cast<int64_t>(stats.ticket)));
  out.Set("worker", JsonValue::Int(stats.worker_id));
  out.Set("queue_seconds", JsonValue::Double(stats.queue_seconds));
  out.Set("run_seconds", JsonValue::Double(stats.run_seconds));
  out.Set("discovery",
          JsonValue::Str(stats.discovery_coalesced ? "coalesced"
                         : stats.discovery_reused  ? "cached"
                                                   : "computed"));
  // Only when a batch union prefetch actually covered this request —
  // absent otherwise, so the un-planned wire format stays byte-stable.
  if (stats.union_prefetched) {
    out.Set("union_prefetched", JsonValue::Bool(true));
  }
  out.Set("engine_delta", ToJson(stats.engine_delta));
  // Trace timeline: where the latency went, spans in execution order on
  // the submit-relative axis. Serialization cannot be a span in its own
  // response; it is measured into the hypdb_http_serialize_seconds
  // histogram instead.
  JsonValue trace = JsonValue::MakeArray();
  for (const TraceSpan& span : stats.trace) {
    JsonValue s = JsonValue::MakeObject();
    s.Set("span", JsonValue::Str(span.name));
    s.Set("start_seconds", JsonValue::Double(span.start_seconds));
    s.Set("seconds", JsonValue::Double(span.seconds));
    trace.Append(std::move(s));
  }
  out.Set("trace", std::move(trace));
  // Engine-deep ring events — only for traced requests, so the wire
  // format of untraced (trace_level 0) requests stays byte-stable with
  // the pre-tracing protocol.
  if (stats.trace_level > 0) {
    out.Set("trace_level", JsonValue::Int(stats.trace_level));
    JsonValue events = JsonValue::MakeArray();
    for (const TraceEventRecord& e : stats.events) {
      events.Append(TraceEventToJson(e));
    }
    out.Set("events", std::move(events));
  }
  // Session stage jobs only — absent members keep the analyze-path wire
  // format (and its golden digests) byte-stable.
  if (stats.session_id != 0) {
    out.Set("session",
            JsonValue::Int(static_cast<int64_t>(stats.session_id)));
    out.Set("stage", JsonValue::Str(stats.stage));
    out.Set("stage_reused", JsonValue::Bool(stats.stage_reused));
    out.Set("session_complete", JsonValue::Bool(stats.session_complete));
  }
  return out;
}

JsonValue ToJson(const DiscoveryReport& discovery) {
  JsonValue out = JsonValue::MakeObject();
  out.Set("covariates", StringsToJson(discovery.covariates));
  out.Set("mediators", StringsToJson(discovery.mediators));
  out.Set("dropped_fd", StringsToJson(discovery.dropped_fd));
  out.Set("dropped_keys", StringsToJson(discovery.dropped_keys));
  out.Set("covariates_fell_back",
          JsonValue::Bool(discovery.covariates_fell_back));
  out.Set("mediators_fell_back",
          JsonValue::Bool(discovery.mediators_fell_back));
  out.Set("tests_used", JsonValue::Int(discovery.tests_used));
  return out;
}

JsonValue ToJson(const DiscoveryCacheStats& stats) {
  JsonValue out = JsonValue::MakeObject();
  out.Set("hits", JsonValue::Int(stats.hits));
  out.Set("misses", JsonValue::Int(stats.misses));
  out.Set("coalesced", JsonValue::Int(stats.coalesced));
  out.Set("invalidations", JsonValue::Int(stats.invalidations));
  out.Set("evictions", JsonValue::Int(stats.evictions));
  out.Set("stale_refreshes", JsonValue::Int(stats.stale_refreshes));
  return out;
}

JsonValue ToJson(const DatasetInfo& info) {
  JsonValue out = JsonValue::MakeObject();
  out.Set("name", JsonValue::Str(info.name));
  out.Set("epoch", JsonValue::Int(info.epoch));
  out.Set("rows", JsonValue::Int(info.rows));
  out.Set("columns", JsonValue::Int(info.columns));
  out.Set("shards", JsonValue::Int(info.shards));
  out.Set("bytes_copied", JsonValue::Int(info.bytes_copied));
  out.Set("watermark", JsonValue::Int(info.watermark));
  out.Set("cache", ToJson(info.cache));
  out.Set("cube_cells", JsonValue::Int(info.cube_cells));
  out.Set("cache_hit_ratio", JsonValue::Double(info.cache_hit_ratio));
  out.Set("evictions", JsonValue::Int(info.evictions));
  return out;
}

JsonValue ToJson(const CacheOccupancy& cache) {
  JsonValue out = JsonValue::MakeObject();
  out.Set("cached_cells", JsonValue::Int(cache.cached_cells));
  out.Set("pinned_cells", JsonValue::Int(cache.pinned_cells));
  out.Set("budget_cells", JsonValue::Int(cache.budget_cells));
  out.Set("entries", JsonValue::Int(cache.entries));
  return out;
}

JsonValue ToJson(const QueryAnswers& plain) {
  JsonValue answers = JsonValue::MakeObject();
  answers.Set("outcomes", StringsToJson(plain.outcome_names));
  JsonValue contexts = JsonValue::MakeArray();
  for (const auto& ctx : plain.contexts) {
    JsonValue c = JsonValue::MakeObject();
    c.Set("context", StringsToJson(ctx.context_labels));
    JsonValue groups = JsonValue::MakeArray();
    for (const auto& g : ctx.groups) {
      JsonValue group = JsonValue::MakeObject();
      group.Set("treatment", JsonValue::Str(g.treatment_label));
      group.Set("rows", JsonValue::Int(g.count));
      JsonValue averages = JsonValue::MakeArray();
      for (double a : g.averages) averages.Append(JsonValue::Double(a));
      group.Set("averages", std::move(averages));
      groups.Append(std::move(group));
    }
    c.Set("groups", std::move(groups));
    contexts.Append(std::move(c));
  }
  answers.Set("contexts", std::move(contexts));
  return answers;
}

JsonValue ToJson(const std::vector<ContextBias>& bias) {
  JsonValue out = JsonValue::MakeArray();
  for (const auto& b : bias) {
    JsonValue entry = JsonValue::MakeObject();
    entry.Set("context", StringsToJson(b.context_labels));
    entry.Set("rows", JsonValue::Int(b.rows));
    entry.Set("total", BalanceToJson(b.total));
    if (b.has_direct) entry.Set("direct", BalanceToJson(b.direct));
    out.Append(std::move(entry));
  }
  return out;
}

JsonValue ToJson(const ContextExplanation& explanation) {
  JsonValue out = JsonValue::MakeObject();
  out.Set("context", StringsToJson(explanation.context_labels));
  JsonValue coarse = JsonValue::MakeArray();
  for (const auto& r : explanation.coarse) {
    JsonValue entry = JsonValue::MakeObject();
    entry.Set("attribute", JsonValue::Str(r.attribute));
    entry.Set("responsibility", JsonValue::Double(r.rho));
    coarse.Append(std::move(entry));
  }
  out.Set("coarse", std::move(coarse));
  JsonValue fine = JsonValue::MakeArray();
  for (const auto& f : explanation.fine) {
    JsonValue entry = JsonValue::MakeObject();
    entry.Set("covariate", JsonValue::Str(f.covariate));
    JsonValue triples = JsonValue::MakeArray();
    for (const auto& t : f.top) {
      JsonValue triple = JsonValue::MakeObject();
      triple.Set("rank", JsonValue::Int(t.borda_rank));
      triple.Set("t", JsonValue::Str(t.t_label));
      triple.Set("y", JsonValue::Str(t.y_label));
      triple.Set("z", JsonValue::Str(t.z_label));
      triple.Set("kappa_tz", JsonValue::Double(t.kappa_tz));
      triple.Set("kappa_yz", JsonValue::Double(t.kappa_yz));
      triples.Append(std::move(triple));
    }
    entry.Set("top", std::move(triples));
    fine.Append(std::move(entry));
  }
  out.Set("fine", std::move(fine));
  return out;
}

namespace {

JsonValue AdjustedGroupsToJson(const std::vector<AdjustedGroup>& groups) {
  JsonValue out = JsonValue::MakeArray();
  for (const auto& g : groups) {
    JsonValue entry = JsonValue::MakeObject();
    entry.Set("treatment", JsonValue::Str(g.treatment_label));
    entry.Set("rows", JsonValue::Int(g.rows));
    JsonValue means = JsonValue::MakeArray();
    for (double m : g.means) means.Append(JsonValue::Double(m));
    entry.Set("means", std::move(means));
    out.Append(std::move(entry));
  }
  return out;
}

JsonValue CiResultsToJson(const std::vector<CiResult>& results) {
  JsonValue out = JsonValue::MakeArray();
  for (const auto& r : results) {
    JsonValue entry = JsonValue::MakeObject();
    entry.Set("statistic", JsonValue::Double(r.statistic));
    entry.Set("p_value", JsonValue::Double(r.p_value));
    out.Append(std::move(entry));
  }
  return out;
}

}  // namespace

JsonValue ToJson(const ContextRewrite& rewrite) {
  JsonValue out = JsonValue::MakeObject();
  out.Set("context", StringsToJson(rewrite.context_labels));
  out.Set("rows", JsonValue::Int(rewrite.rows));
  out.Set("total", AdjustedGroupsToJson(rewrite.total));
  out.Set("blocks_seen", JsonValue::Int(rewrite.blocks_seen));
  out.Set("blocks_used", JsonValue::Int(rewrite.blocks_used));
  if (rewrite.has_direct) {
    out.Set("direct", AdjustedGroupsToJson(rewrite.direct));
    out.Set("direct_reference", JsonValue::Str(rewrite.direct_reference));
  }
  out.Set("plain_sig", CiResultsToJson(rewrite.plain_sig));
  out.Set("total_sig", CiResultsToJson(rewrite.total_sig));
  out.Set("direct_sig", CiResultsToJson(rewrite.direct_sig));
  return out;
}

JsonValue ToJson(const SessionInfo& info) {
  JsonValue out = JsonValue::MakeObject();
  out.Set("session", JsonValue::Int(static_cast<int64_t>(info.id)));
  out.Set("dataset", JsonValue::Str(info.dataset));
  out.Set("epoch", JsonValue::Int(info.epoch));
  out.Set("sql", JsonValue::Str(info.sql));
  out.Set("complete", JsonValue::Bool(info.complete));
  out.Set("contexts", JsonValue::Int(info.contexts));
  out.Set("age_seconds", JsonValue::Double(info.age_seconds));
  out.Set("idle_seconds", JsonValue::Double(info.idle_seconds));
  JsonValue stages = JsonValue::MakeArray();
  for (const auto& s : info.stages) {
    JsonValue stage = JsonValue::MakeObject();
    stage.Set("stage", JsonValue::Str(s.stage));
    stage.Set("done", JsonValue::Bool(s.done));
    stage.Set("runs", JsonValue::Int(s.runs));
    stage.Set("reuses", JsonValue::Int(s.reuses));
    stage.Set("seconds", JsonValue::Double(s.seconds));
    stages.Append(std::move(stage));
  }
  out.Set("stages", std::move(stages));
  return out;
}

JsonValue ToJson(const ServiceReport& report) {
  const HypDbReport& r = report.report;
  JsonValue out = JsonValue::MakeObject();
  out.Set("digest", JsonValue::Str(CanonicalReportDigest(r)));
  out.Set("any_bias", JsonValue::Bool(r.AnyBias()));

  JsonValue sql = JsonValue::MakeObject();
  sql.Set("plain", JsonValue::Str(r.sql_plain));
  sql.Set("total", JsonValue::Str(r.sql_total));
  sql.Set("direct", JsonValue::Str(r.sql_direct));
  out.Set("sql", std::move(sql));

  out.Set("discovery", ToJson(r.discovery));
  out.Set("answers", ToJson(r.plain));
  out.Set("bias", ToJson(r.bias));

  out.Set("rendered", JsonValue::Str(RenderReport(r)));
  out.Set("stats", ToJson(report.stats));
  return out;
}

JsonValue SessionStageToJson(const ServiceReport& report) {
  const HypDbReport& r = report.report;
  const RequestStats& stats = report.stats;
  JsonValue out = JsonValue::MakeObject();
  out.Set("session",
          JsonValue::Int(static_cast<int64_t>(stats.session_id)));
  out.Set("stage", JsonValue::Str(stats.stage));
  out.Set("reused", JsonValue::Bool(stats.stage_reused));
  out.Set("complete", JsonValue::Bool(stats.session_complete));

  // The advanced stage's payload, through the same piece renderers the
  // full report body uses.
  if (stats.stage == "answers") {
    out.Set("answers", ToJson(r.plain));
  } else if (stats.stage == "discover") {
    out.Set("discovery", ToJson(r.discovery));
    JsonValue sql = JsonValue::MakeObject();
    sql.Set("plain", JsonValue::Str(r.sql_plain));
    sql.Set("total", JsonValue::Str(r.sql_total));
    sql.Set("direct", JsonValue::Str(r.sql_direct));
    out.Set("sql", std::move(sql));
  } else if (stats.stage == "detect") {
    out.Set("bias", ToJson(r.bias));
    out.Set("any_bias", JsonValue::Bool(r.AnyBias()));
  } else if (stats.stage == "explain") {
    if (report.stage_explanation.has_value()) {
      out.Set("explanation", ToJson(*report.stage_explanation));
    } else {
      JsonValue explanations = JsonValue::MakeArray();
      for (const auto& e : r.explanations) explanations.Append(ToJson(e));
      out.Set("explanations", std::move(explanations));
    }
  } else if (stats.stage == "rewrite") {
    if (report.stage_rewrite.has_value()) {
      out.Set("rewrite", ToJson(*report.stage_rewrite));
    } else {
      JsonValue rewrites = JsonValue::MakeArray();
      for (const auto& rw : r.rewrites) rewrites.Append(ToJson(rw));
      out.Set("rewrites", std::move(rewrites));
    }
  }
  // Once every stage has run, the snapshot is the full report: publish
  // the canonical digest so any client can check bit-identity against
  // the one-shot /v1/analyze path.
  if (stats.session_complete) {
    out.Set("digest", JsonValue::Str(CanonicalReportDigest(r)));
    out.Set("any_bias", JsonValue::Bool(r.AnyBias()));
  }
  out.Set("stats", ToJson(stats));
  return out;
}

JsonValue ErrorToJson(const Status& status) {
  JsonValue out = JsonValue::MakeObject();
  out.Set("code", JsonValue::Str(StatusCodeName(status.code())));
  out.Set("message", JsonValue::Str(status.message()));
  return out;
}

Status StatusFromJson(const JsonValue& v) {
  const JsonValue* code = v.Find("code");
  const JsonValue* message = v.Find("message");
  const std::string text =
      message != nullptr && message->is_string() ? message->string_value()
                                                 : SerializeJson(v);
  if (code == nullptr || !code->is_string()) {
    return Status::Internal("malformed wire error: " + SerializeJson(v));
  }
  static constexpr StatusCode kCodes[] = {
      StatusCode::kInvalidArgument, StatusCode::kNotFound,
      StatusCode::kOutOfRange,      StatusCode::kFailedPrecondition,
      StatusCode::kUnimplemented,   StatusCode::kInternal,
      StatusCode::kIoError,         StatusCode::kCancelled,
      StatusCode::kDeadlineExceeded, StatusCode::kGone};
  for (const StatusCode c : kCodes) {
    if (code->string_value() == StatusCodeName(c)) return Status(c, text);
  }
  return Status::Internal(code->string_value() + ": " + text);
}

JsonValue ServiceStatsToJson(const HypDbService& service) {
  JsonValue out = JsonValue::MakeObject();
  out.Set("workers", JsonValue::Int(service.num_workers()));
  out.Set("sessions", JsonValue::Int(service.num_sessions()));
  out.Set("discovery_cache", ToJson(service.discovery_stats()));
  JsonValue datasets = JsonValue::MakeArray();
  for (const DatasetInfo& info : service.Datasets()) {
    JsonValue entry = ToJson(info);
    auto engine = service.engine_stats(info.name);
    if (engine.ok()) entry.Set("engine", ToJson(*engine));
    datasets.Append(std::move(entry));
  }
  out.Set("datasets", std::move(datasets));
  return out;
}

JsonValue MetricsToJson(const MetricsSnapshot& snapshot) {
  JsonValue families = JsonValue::MakeArray();
  for (const auto& family : snapshot.families) {
    JsonValue f = JsonValue::MakeObject();
    f.Set("name", JsonValue::Str(family.name));
    switch (family.type) {
      case MetricType::kCounter:
        f.Set("type", JsonValue::Str("counter"));
        break;
      case MetricType::kGauge:
        f.Set("type", JsonValue::Str("gauge"));
        break;
      case MetricType::kHistogram:
        f.Set("type", JsonValue::Str("histogram"));
        break;
    }
    f.Set("help", JsonValue::Str(family.help));
    JsonValue samples = JsonValue::MakeArray();
    for (const auto& sample : family.samples) {
      JsonValue s = JsonValue::MakeObject();
      if (!sample.labels.empty()) {
        JsonValue labels = JsonValue::MakeObject();
        for (const auto& [name, value] : sample.labels) {
          labels.Set(name, JsonValue::Str(value));
        }
        s.Set("labels", std::move(labels));
      }
      if (family.type == MetricType::kHistogram) {
        const HistogramSnapshot& h = sample.histogram;
        s.Set("count", JsonValue::Int(h.count));
        s.Set("sum_seconds", JsonValue::Double(h.sum_seconds));
        s.Set("p50", JsonValue::Double(h.Quantile(0.50)));
        s.Set("p95", JsonValue::Double(h.Quantile(0.95)));
        s.Set("p99", JsonValue::Double(h.Quantile(0.99)));
        // Raw (non-cumulative) buckets; `le` as a string because JSON
        // has no +Inf. Empty buckets are skipped to keep scrapes small.
        JsonValue buckets = JsonValue::MakeArray();
        for (size_t i = 0; i < h.counts.size(); ++i) {
          if (h.counts[i] == 0) continue;
          JsonValue b = JsonValue::MakeObject();
          const double bound = h.upper_bounds[i];
          b.Set("le", JsonValue::Str(std::isinf(bound)
                                         ? "+Inf"
                                         : StrFormat("%.17g", bound)));
          b.Set("count", JsonValue::Int(h.counts[i]));
          buckets.Append(std::move(b));
        }
        s.Set("buckets", std::move(buckets));
      } else if (sample.value == std::floor(sample.value) &&
                 std::fabs(sample.value) < 1e15) {
        s.Set("value",
              JsonValue::Int(static_cast<int64_t>(sample.value)));
      } else {
        s.Set("value", JsonValue::Double(sample.value));
      }
      samples.Append(std::move(s));
    }
    f.Set("samples", std::move(samples));
    families.Append(std::move(f));
  }
  JsonValue out = JsonValue::MakeObject();
  out.Set("families", std::move(families));
  return out;
}

// ---- JSON -> commands ---------------------------------------------------

namespace {

Status ExpectObject(const JsonValue& v, const char* what) {
  if (!v.is_object()) {
    return Status::InvalidArgument(StrFormat("%s must be a JSON object",
                                             what));
  }
  return Status::Ok();
}

/// Applies the "options" override object onto `options`. Strict: unknown
/// keys and wrong types are errors, never silently dropped.
Status ApplyOptionOverrides(const JsonValue& overrides,
                            HypDbOptions* options) {
  HYPDB_RETURN_IF_ERROR(ExpectObject(overrides, "\"options\""));
  for (const auto& [key, value] : overrides.members()) {
    if (key == "alpha" && value.is_number()) {
      options->alpha = value.number_value();
    } else if (key == "discover_mediators" && value.is_bool()) {
      options->discover_mediators = value.bool_value();
    } else if (key == "compute_significance" && value.is_bool()) {
      options->compute_significance = value.bool_value();
    } else if (key == "apply_fd_filter" && value.is_bool()) {
      options->apply_fd_filter = value.bool_value();
    } else if (key == "seed" && value.is_int()) {
      options->seed = static_cast<uint64_t>(value.int_value());
    } else if (key == "scan_threads" && value.is_int()) {
      options->engine.scan_threads = static_cast<int>(value.int_value());
    } else if (key == "direct_reference" && value.is_string()) {
      options->direct_reference = value.string_value();
    } else if (key == "materialization" && value.is_string()) {
      HYPDB_ASSIGN_OR_RETURN(
          options->engine.materialization,
          ParseMaterializationMode(value.string_value()));
    } else {
      return Status::InvalidArgument(
          "unknown or mistyped analysis option \"" + key + "\"");
    }
  }
  return Status::Ok();
}

}  // namespace

StatusOr<WireAnalyzeRequest> AnalyzeRequestFromJson(
    const JsonValue& v, const HypDbOptions& base_options) {
  HYPDB_RETURN_IF_ERROR(ExpectObject(v, "analyze request"));
  WireAnalyzeRequest out;
  bool saw_dataset = false;
  bool saw_sql = false;
  for (const auto& [key, value] : v.members()) {
    if (key == "cmd") continue;  // line-JSON envelope member
    if (key == "dataset" && value.is_string()) {
      out.request.dataset = value.string_value();
      saw_dataset = true;
    } else if (key == "sql" && value.is_string()) {
      out.request.sql = value.string_value();
      saw_sql = true;
    } else if (key == "options") {
      HypDbOptions options = base_options;
      HYPDB_RETURN_IF_ERROR(ApplyOptionOverrides(value, &options));
      out.request.options = options;
    } else if (key == "deadline_seconds" && value.is_number()) {
      out.submit.deadline_seconds = value.number_value();
    } else if (key == "trace_level" && value.is_int()) {
      const int64_t level = value.int_value();
      if (level < 0 || level > 2) {
        return Status::InvalidArgument(
            "trace_level must be 0 (off), 1 (stages/kernel/cache) or 2 "
            "(deep)");
      }
      out.submit.trace_level = static_cast<int>(level);
    } else {
      return Status::InvalidArgument(
          "unknown or mistyped analyze-request member \"" + key + "\"");
    }
  }
  if (!saw_dataset || !saw_sql) {
    return Status::InvalidArgument(
        "analyze request requires string members \"dataset\" and \"sql\"");
  }
  return out;
}

StatusOr<RegisterCommand> RegisterCommandFromJson(const JsonValue& v) {
  HYPDB_RETURN_IF_ERROR(ExpectObject(v, "register request"));
  RegisterCommand out;
  for (const auto& [key, value] : v.members()) {
    if (key == "cmd") continue;  // line-JSON envelope member
    if (key == "name" && value.is_string()) {
      out.name = value.string_value();
    } else if (key == "csv" && value.is_string()) {
      out.csv_path = value.string_value();
    } else if (key == "generator" && value.is_string()) {
      out.generator = value.string_value();
    } else {
      return Status::InvalidArgument(
          "unknown or mistyped register member \"" + key + "\"");
    }
  }
  if (out.name.empty()) {
    return Status::InvalidArgument(
        "register request requires a non-empty \"name\"");
  }
  if (out.csv_path.empty() == out.generator.empty()) {
    return Status::InvalidArgument(
        "register request requires exactly one of \"csv\" or \"generator\"");
  }
  return out;
}

StatusOr<AppendCommand> AppendCommandFromJson(const JsonValue& v) {
  HYPDB_RETURN_IF_ERROR(ExpectObject(v, "append request"));
  AppendCommand out;
  bool saw_rows = false;
  for (const auto& [key, value] : v.members()) {
    if (key == "cmd") continue;  // line-JSON envelope member
    if (key == "name" && value.is_string()) {
      out.name = value.string_value();
    } else if (key == "rows" && value.is_array()) {
      saw_rows = true;
      out.rows.reserve(value.array().size());
      for (const JsonValue& row : value.array()) {
        if (!row.is_array()) {
          return Status::InvalidArgument(
              "\"rows\" must be an array of rows, each an array of string "
              "labels in schema column order");
        }
        std::vector<std::string> labels;
        labels.reserve(row.array().size());
        for (const JsonValue& label : row.array()) {
          if (!label.is_string()) {
            return Status::InvalidArgument(
                "row labels must be strings (dictionary codes are assigned "
                "server-side)");
          }
          labels.push_back(label.string_value());
        }
        out.rows.push_back(std::move(labels));
      }
    } else {
      return Status::InvalidArgument(
          "unknown or mistyped append member \"" + key + "\"");
    }
  }
  if (!saw_rows) {
    return Status::InvalidArgument(
        "append request requires a \"rows\" array");
  }
  return out;
}

}  // namespace net
}  // namespace hypdb
