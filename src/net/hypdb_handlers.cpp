#include "net/hypdb_handlers.h"

#include <cerrno>
#include <cstdlib>

#include "datagen/adult_data.h"
#include "datagen/berkeley_data.h"
#include "datagen/cancer_data.h"
#include "datagen/flight_data.h"
#include "datagen/staples_data.h"
#include "engine/groupby_kernel.h"
#include "util/build_info.h"
#include "util/stopwatch.h"
#include "util/string_util.h"

namespace hypdb {
namespace net {

int HttpStatusForCode(StatusCode code) {
  switch (code) {
    case StatusCode::kOk: return 200;
    case StatusCode::kInvalidArgument: return 400;
    case StatusCode::kNotFound: return 404;
    case StatusCode::kOutOfRange: return 400;
    case StatusCode::kFailedPrecondition: return 409;
    case StatusCode::kUnimplemented: return 501;
    case StatusCode::kInternal: return 500;
    case StatusCode::kIoError: return 500;
    case StatusCode::kCancelled: return 409;
    case StatusCode::kDeadlineExceeded: return 408;
    case StatusCode::kGone: return 410;
  }
  return 500;
}

StatusOr<Table> GenerateNamedDataset(const std::string& kind) {
  if (kind == "berkeley") return GenerateBerkeleyData();
  if (kind == "flight") return GenerateFlightData();
  if (kind == "adult") return GenerateAdultData();
  if (kind == "staples") return GenerateStaplesData();
  if (kind == "cancer") return GenerateCancerData();
  return Status::InvalidArgument(
      "unknown generator '" + kind +
      "' (expected berkeley|flight|adult|staples|cancer)");
}

namespace {

/// Splits "/v1/requests/7?wait=1" into path and a query-parameter check.
struct Target {
  std::string path;
  std::string query;

  bool HasParam(const std::string& name) const {
    for (const std::string& param : Split(query, '&')) {
      const size_t eq = param.find('=');
      const std::string key =
          eq == std::string::npos ? param : param.substr(0, eq);
      const std::string value =
          eq == std::string::npos ? "" : param.substr(eq + 1);
      if (key == name && value != "0" && value != "false") return true;
    }
    return false;
  }

  /// Value of the first `name=value` parameter; "" when absent.
  std::string ParamValue(const std::string& name) const {
    for (const std::string& param : Split(query, '&')) {
      const size_t eq = param.find('=');
      if (eq != std::string::npos && param.substr(0, eq) == name) {
        return param.substr(eq + 1);
      }
    }
    return "";
  }
};

Target SplitTarget(const std::string& target) {
  const size_t question = target.find('?');
  if (question == std::string::npos) return {target, ""};
  return {target.substr(0, question), target.substr(question + 1)};
}

StatusOr<uint64_t> ParseId(const std::string& id) {
  if (id.empty() || id.find_first_not_of("0123456789") != std::string::npos) {
    return Status::InvalidArgument("malformed request id '" + id + "'");
  }
  errno = 0;
  const uint64_t ticket = std::strtoull(id.c_str(), nullptr, 10);
  if (errno != 0 || ticket == 0) {
    return Status::InvalidArgument("request id out of range: " + id);
  }
  return ticket;
}

/// ASSIGN_OR_RETURN for HttpResponse-returning routing code: failures
/// become the mapped 4xx/5xx error response instead of a Status.
#define HYPDB_ASSIGN_OR_RETURN_HTTP(lhs, rexpr)                    \
  HYPDB_ASSIGN_OR_RETURN_HTTP_IMPL_(                               \
      HYPDB_STATUS_CONCAT_(_http_statusor_, __LINE__), lhs, rexpr)
#define HYPDB_ASSIGN_OR_RETURN_HTTP_IMPL_(tmp, lhs, rexpr) \
  auto tmp = (rexpr);                                      \
  if (!tmp.ok()) return ErrorResponse(tmp.status());       \
  lhs = std::move(tmp).value()

StatusOr<uint64_t> TicketFromJson(const JsonValue& body) {
  const JsonValue* ticket = body.Find("ticket");
  if (ticket == nullptr || !ticket->is_int() || ticket->int_value() <= 0) {
    return Status::InvalidArgument(
        "expected a positive integer \"ticket\" member");
  }
  return static_cast<uint64_t>(ticket->int_value());
}

}  // namespace

HttpResponse HypDbHandlers::JsonResponse(int status,
                                         const JsonValue& body) const {
  HttpResponse response;
  response.status = status;
  Stopwatch watch;
  response.body = SerializeJson(body);
  serialize_.Observe(watch.ElapsedSeconds());
  return response;
}

HttpResponse HypDbHandlers::ErrorResponse(const Status& status) const {
  return JsonResponse(HttpStatusForCode(status.code()), ErrorToJson(status));
}

HttpResponse HypDbHandlers::ResultResponse(
    const StatusOr<JsonValue>& result) const {
  if (!result.ok()) return ErrorResponse(result.status());
  return JsonResponse(200, *result);
}

JsonValue HypDbHandlers::Healthz() const {
  JsonValue out = JsonValue::MakeObject();
  out.Set("ok", JsonValue::Bool(true));
  out.Set("workers", JsonValue::Int(service_->num_workers()));
  out.Set("uptime_seconds", JsonValue::Double(service_->uptime_seconds()));
  out.Set("datasets",
          JsonValue::Int(static_cast<int64_t>(service_->Datasets().size())));
  out.Set("queue_depth", JsonValue::Int(service_->queue_depth()));
  out.Set("sessions", JsonValue::Int(service_->num_sessions()));
  out.Set("simd",
          JsonValue::Str(GroupByKernelSimdActive() ? "avx2" : "scalar"));
  out.Set("materialization",
          JsonValue::Str(MaterializationModeName(
              service_->options().analysis.engine.materialization)));
  // Build identity, mirroring the hypdb_build_info metric: lets a probe
  // (or an operator's curl) confirm which binary is actually serving.
  out.Set("version", JsonValue::Str(BuildVersion()));
  out.Set("compiler", JsonValue::Str(BuildCompiler()));
  out.Set("build_type", JsonValue::Str(BuildType()));
  // Per-dataset storage shape: a probe watching an ingest pipeline reads
  // row/watermark progression and buffer-growth copies here without the
  // full dataset list.
  // Cache occupancy rides along so an operator sees pool pressure
  // (cells/budget, hit ratio, evictions) and advisor cube residency from
  // one readiness probe.
  JsonValue storage = JsonValue::MakeObject();
  for (const DatasetInfo& info : service_->Datasets()) {
    JsonValue shape = JsonValue::MakeObject();
    shape.Set("rows", JsonValue::Int(info.rows));
    shape.Set("bytes_copied", JsonValue::Int(info.bytes_copied));
    shape.Set("watermark", JsonValue::Int(info.watermark));
    shape.Set("cache", ToJson(info.cache));
    shape.Set("cube_cells", JsonValue::Int(info.cube_cells));
    shape.Set("cache_hit_ratio", JsonValue::Double(info.cache_hit_ratio));
    shape.Set("evictions", JsonValue::Int(info.evictions));
    storage.Set(info.name, std::move(shape));
  }
  out.Set("storage", std::move(storage));
  return out;
}

StatusOr<JsonValue> HypDbHandlers::Register(const JsonValue& body) {
  HYPDB_ASSIGN_OR_RETURN(RegisterCommand command,
                         RegisterCommandFromJson(body));
  int64_t epoch = 0;
  if (!command.csv_path.empty()) {
    HYPDB_ASSIGN_OR_RETURN(
        epoch, service_->RegisterCsv(command.name, command.csv_path));
  } else {
    HYPDB_ASSIGN_OR_RETURN(Table table,
                           GenerateNamedDataset(command.generator));
    epoch = service_->RegisterTable(command.name,
                                    MakeTable(std::move(table)));
  }
  HYPDB_ASSIGN_OR_RETURN(TablePtr table, service_->Dataset(command.name));
  JsonValue out = JsonValue::MakeObject();
  out.Set("name", JsonValue::Str(command.name));
  out.Set("epoch", JsonValue::Int(epoch));
  out.Set("rows", JsonValue::Int(table->NumRows()));
  out.Set("columns", JsonValue::Int(table->NumColumns()));
  return out;
}

StatusOr<JsonValue> HypDbHandlers::Append(const JsonValue& body,
                                          const std::string& path_name) {
  HYPDB_ASSIGN_OR_RETURN(AppendCommand command, AppendCommandFromJson(body));
  if (!path_name.empty()) {
    if (!command.name.empty() && command.name != path_name) {
      return Status::InvalidArgument(
          "body \"name\" '" + command.name +
          "' does not match the URL dataset '" + path_name + "'");
    }
    command.name = path_name;
  }
  if (command.name.empty()) {
    return Status::InvalidArgument(
        "append requires a dataset \"name\"");
  }
  HYPDB_ASSIGN_OR_RETURN(int64_t watermark,
                         service_->AppendRows(command.name, command.rows));
  JsonValue out = JsonValue::MakeObject();
  out.Set("name", JsonValue::Str(command.name));
  out.Set("appended", JsonValue::Int(static_cast<int64_t>(command.rows.size())));
  out.Set("watermark", JsonValue::Int(watermark));
  return out;
}

StatusOr<JsonValue> HypDbHandlers::Analyze(const JsonValue& body) {
  HYPDB_ASSIGN_OR_RETURN(
      WireAnalyzeRequest wire,
      AnalyzeRequestFromJson(body, service_->options().analysis));
  // Submit + Wait rather than the sync facade so deadlines apply to
  // synchronous requests too.
  const uint64_t ticket =
      service_->Submit(std::move(wire.request), wire.submit);
  HYPDB_ASSIGN_OR_RETURN(ServiceReport report, service_->Wait(ticket));
  return ToJson(report);
}

StatusOr<JsonValue> HypDbHandlers::Submit(const JsonValue& body) {
  HYPDB_ASSIGN_OR_RETURN(
      WireAnalyzeRequest wire,
      AnalyzeRequestFromJson(body, service_->options().analysis));
  const uint64_t ticket =
      service_->Submit(std::move(wire.request), wire.submit);
  JsonValue out = JsonValue::MakeObject();
  out.Set("ticket", JsonValue::Int(static_cast<int64_t>(ticket)));
  return out;
}

StatusOr<JsonValue> HypDbHandlers::Poll(uint64_t ticket) {
  JsonValue out = JsonValue::MakeObject();
  out.Set("ticket", JsonValue::Int(static_cast<int64_t>(ticket)));
  out.Set("done", JsonValue::Bool(service_->Done(ticket)));
  return out;
}

StatusOr<JsonValue> HypDbHandlers::WaitFor(uint64_t ticket) {
  HYPDB_ASSIGN_OR_RETURN(ServiceReport report, service_->Wait(ticket));
  return ToJson(report);
}

StatusOr<JsonValue> HypDbHandlers::SessionCreate(const JsonValue& body) {
  HYPDB_ASSIGN_OR_RETURN(
      WireAnalyzeRequest wire,
      AnalyzeRequestFromJson(body, service_->options().analysis));
  HYPDB_ASSIGN_OR_RETURN(SessionInfo info,
                         service_->CreateSession(wire.request));
  return ToJson(info);
}

StatusOr<JsonValue> HypDbHandlers::SessionStep(uint64_t session,
                                               const std::string& stage,
                                               const JsonValue& body) {
  std::optional<int> context;
  SubmitOptions submit;
  if (body.is_object()) {
    // Strict like every other wire body: only the step parameters are
    // legal here (HandleLine strips its cmd/session/stage envelope
    // members before delegating).
    for (const auto& [key, value] : body.members()) {
      if (key == "context" && value.is_int()) {
        context = static_cast<int>(value.int_value());
      } else if (key == "deadline_seconds" && value.is_number()) {
        submit.deadline_seconds = value.number_value();
      } else {
        return Status::InvalidArgument(
            "unknown or mistyped step member \"" + key + "\"");
      }
    }
  } else if (!body.is_null()) {
    return Status::InvalidArgument("step body must be a JSON object");
  }
  HYPDB_ASSIGN_OR_RETURN(
      ServiceReport report,
      service_->AdvanceSession(session, stage, context, submit));
  // The "report" stage is the full analysis: answer with the same body
  // /v1/analyze serves (digest-comparable by any client).
  if (stage == "report" || stage == "run") return ToJson(report);
  return SessionStageToJson(report);
}

StatusOr<JsonValue> HypDbHandlers::SessionInspect(uint64_t session) {
  HYPDB_ASSIGN_OR_RETURN(SessionInfo info,
                         service_->InspectSession(session));
  JsonValue out = ToJson(info);
  if (info.complete) {
    HYPDB_ASSIGN_OR_RETURN(ServiceReport snapshot,
                           service_->SessionSnapshot(session));
    out.Set("report", ToJson(snapshot));
  }
  return out;
}

StatusOr<JsonValue> HypDbHandlers::SessionClose(uint64_t session) {
  HYPDB_RETURN_IF_ERROR(service_->CloseSession(session));
  JsonValue out = JsonValue::MakeObject();
  out.Set("session", JsonValue::Int(static_cast<int64_t>(session)));
  out.Set("closed", JsonValue::Bool(true));
  return out;
}

JsonValue HypDbHandlers::SessionList() {
  JsonValue out = JsonValue::MakeArray();
  for (const SessionInfo& info : service_->Sessions()) {
    out.Append(ToJson(info));
  }
  return out;
}

StatusOr<JsonValue> HypDbHandlers::Cancel(uint64_t ticket) {
  if (!service_->Cancel(ticket)) {
    if (service_->Done(ticket)) {
      return Status::FailedPrecondition(
          "request " + std::to_string(ticket) +
          " already finished (or is unknown); nothing to cancel");
    }
    return Status::FailedPrecondition(
        "request " + std::to_string(ticket) +
        " is already running; in-flight work is not aborted");
  }
  JsonValue out = JsonValue::MakeObject();
  out.Set("ticket", JsonValue::Int(static_cast<int64_t>(ticket)));
  out.Set("cancelled", JsonValue::Bool(true));
  return out;
}

StatusOr<JsonValue> HypDbHandlers::RequestTrace(uint64_t ticket,
                                                bool chrome) {
  HYPDB_ASSIGN_OR_RETURN(RequestStats stats,
                         service_->RequestTrace(ticket));
  return chrome ? ChromeTraceJson(stats) : ToJson(stats);
}

HypDbHandlers::Route HypDbHandlers::ClassifyRoute(const std::string& target) {
  const std::string path = target.substr(0, target.find('?'));
  if (path == "/healthz") return kRouteHealthz;
  if (path == "/metrics") return kRouteMetrics;
  if (path == "/v1/stats") return kRouteStats;
  if (path == "/v1/datasets") return kRouteDatasets;
  if (path.rfind("/v1/datasets/", 0) == 0) return kRouteIngest;
  if (path == "/v1/analyze") return kRouteAnalyze;
  if (path == "/v1/submit") return kRouteSubmit;
  if (path.rfind("/v1/requests/", 0) == 0) return kRouteRequests;
  if (path == "/v1/sessions" || path.rfind("/v1/sessions/", 0) == 0) {
    return kRouteSessions;
  }
  return kRouteOther;
}

HttpResponse HypDbHandlers::HandleHttp(const HttpRequest& request) {
  Stopwatch watch;
  const Route route = ClassifyRoute(request.target);
  HttpResponse response = RouteHttp(request);
  // Count after the body is built: a /metrics scrape never includes
  // itself, so a client can assert exact counts against what it sent.
  RouteMetrics& m = routes_[route];
  (response.status >= 500   ? m.server_error
   : response.status >= 400 ? m.client_error
                            : m.ok)
      .Add();
  m.latency.Observe(watch.ElapsedSeconds());
  return response;
}

HttpResponse HypDbHandlers::RouteHttp(const HttpRequest& request) {
  const Target target = SplitTarget(request.target);

  if (target.path == "/healthz") {
    if (request.method != "GET") {
      return ErrorResponse(Status::InvalidArgument("use GET /healthz"));
    }
    return JsonResponse(200, Healthz());
  }

  if (target.path == "/metrics") {
    if (request.method != "GET") {
      return ErrorResponse(Status::InvalidArgument("use GET /metrics"));
    }
    const MetricsSnapshot snapshot = service_->metrics_registry().Snapshot();
    if (target.ParamValue("format") == "json") {
      return JsonResponse(200, MetricsToJson(snapshot));
    }
    HttpResponse response;
    response.status = 200;
    response.content_type = "text/plain; version=0.0.4; charset=utf-8";
    Stopwatch render;
    response.body = RenderPrometheusText(snapshot);
    serialize_.Observe(render.ElapsedSeconds());
    return response;
  }

  if (target.path == "/v1/stats") {
    if (request.method != "GET") {
      return ErrorResponse(Status::InvalidArgument("use GET /v1/stats"));
    }
    return JsonResponse(200, ServiceStatsToJson(*service_));
  }

  if (target.path == "/v1/datasets") {
    if (request.method == "GET") {
      JsonValue out = JsonValue::MakeArray();
      for (const DatasetInfo& info : service_->Datasets()) {
        out.Append(ToJson(info));
      }
      return JsonResponse(200, out);
    }
    if (request.method == "POST") {
      HYPDB_ASSIGN_OR_RETURN_HTTP(JsonValue body, ParseJson(request.body));
      return ResultResponse(Register(body));
    }
    return ErrorResponse(
        Status::InvalidArgument("use GET or POST /v1/datasets"));
  }

  const std::string kDatasets = "/v1/datasets/";
  if (target.path.rfind(kDatasets, 0) == 0) {
    const std::string rest = target.path.substr(kDatasets.size());
    const size_t slash = rest.find('/');
    if (slash == std::string::npos || slash == 0 ||
        rest.substr(slash + 1) != "rows") {
      // The only dataset sub-resource is the append endpoint.
      return ErrorResponse(Status::NotFound(
          "no route for " + request.method + " " + target.path));
    }
    if (request.method != "POST") {
      return ErrorResponse(
          Status::InvalidArgument("use POST " + target.path));
    }
    HYPDB_ASSIGN_OR_RETURN_HTTP(JsonValue body, ParseJson(request.body));
    return ResultResponse(Append(body, rest.substr(0, slash)));
  }

  if (target.path == "/v1/analyze" || target.path == "/v1/submit") {
    if (request.method != "POST") {
      return ErrorResponse(
          Status::InvalidArgument("use POST " + target.path));
    }
    HYPDB_ASSIGN_OR_RETURN_HTTP(JsonValue body, ParseJson(request.body));
    return ResultResponse(target.path == "/v1/analyze" ? Analyze(body)
                                                       : Submit(body));
  }

  if (target.path == "/v1/sessions") {
    if (request.method == "GET") return JsonResponse(200, SessionList());
    if (request.method == "POST") {
      HYPDB_ASSIGN_OR_RETURN_HTTP(JsonValue body, ParseJson(request.body));
      StatusOr<JsonValue> created = SessionCreate(body);
      if (!created.ok()) return ErrorResponse(created.status());
      return JsonResponse(201, *created);
    }
    return ErrorResponse(
        Status::InvalidArgument("use GET or POST /v1/sessions"));
  }

  const std::string kSessions = "/v1/sessions/";
  if (target.path.rfind(kSessions, 0) == 0) {
    const std::string rest = target.path.substr(kSessions.size());
    const size_t slash = rest.find('/');
    if (slash == std::string::npos) {
      HYPDB_ASSIGN_OR_RETURN_HTTP(uint64_t session, ParseId(rest));
      if (request.method == "GET") {
        return ResultResponse(SessionInspect(session));
      }
      if (request.method == "DELETE") {
        return ResultResponse(SessionClose(session));
      }
      return ErrorResponse(
          Status::InvalidArgument("use GET or DELETE " + target.path));
    }
    HYPDB_ASSIGN_OR_RETURN_HTTP(uint64_t session,
                                ParseId(rest.substr(0, slash)));
    const std::string stage = rest.substr(slash + 1);
    if (stage.empty() || stage.find('/') != std::string::npos) {
      return ErrorResponse(Status::InvalidArgument(
          "use POST /v1/sessions/{id}/{stage}"));
    }
    if (request.method != "POST") {
      return ErrorResponse(
          Status::InvalidArgument("use POST " + target.path));
    }
    JsonValue body;  // stage bodies are optional
    if (!request.body.empty()) {
      HYPDB_ASSIGN_OR_RETURN_HTTP(body, ParseJson(request.body));
    }
    return ResultResponse(SessionStep(session, stage, body));
  }

  const std::string kRequests = "/v1/requests/";
  if (target.path.rfind(kRequests, 0) == 0) {
    std::string rest = target.path.substr(kRequests.size());
    const size_t slash = rest.find('/');
    if (slash != std::string::npos) {
      // The only sub-resource is the execution trace.
      if (rest.substr(slash + 1) != "trace") {
        return ErrorResponse(Status::NotFound(
            "no route for " + request.method + " " + target.path));
      }
      HYPDB_ASSIGN_OR_RETURN_HTTP(uint64_t ticket,
                                  ParseId(rest.substr(0, slash)));
      if (request.method != "GET") {
        return ErrorResponse(
            Status::InvalidArgument("use GET " + target.path));
      }
      const std::string format = target.ParamValue("format");
      if (!format.empty() && format != "chrome" && format != "raw") {
        return ErrorResponse(Status::InvalidArgument(
            "unknown trace format '" + format +
            "' (expected chrome|raw)"));
      }
      return ResultResponse(RequestTrace(ticket, format != "raw"));
    }
    HYPDB_ASSIGN_OR_RETURN_HTTP(uint64_t ticket, ParseId(rest));
    if (request.method == "DELETE") return ResultResponse(Cancel(ticket));
    if (request.method == "GET") {
      // Poll unless told to block. The GET that sees done=true (or
      // ?wait=1) claims the result — claim-once, like Wait().
      if (!target.HasParam("wait") && !service_->Done(ticket)) {
        JsonValue pending = JsonValue::MakeObject();
        pending.Set("ticket", JsonValue::Int(static_cast<int64_t>(ticket)));
        pending.Set("done", JsonValue::Bool(false));
        return JsonResponse(202, pending);
      }
      return ResultResponse(WaitFor(ticket));
    }
    return ErrorResponse(
        Status::InvalidArgument("use GET or DELETE " + target.path));
  }

  return ErrorResponse(
      Status::NotFound("no route for " + request.method + " " +
                       target.path));
}

std::string HypDbHandlers::HandleLine(const std::string& line) {
  Stopwatch watch;
  const auto envelope = [this, &watch](StatusOr<JsonValue> result) {
    JsonValue out = JsonValue::MakeObject();
    RouteMetrics& m = routes_[kRouteLine];
    if (result.ok()) {
      out.Set("ok", JsonValue::Bool(true));
      out.Set("result", std::move(*result));
      m.ok.Add();
    } else {
      out.Set("ok", JsonValue::Bool(false));
      out.Set("error", ErrorToJson(result.status()));
      (HttpStatusForCode(result.status().code()) >= 500 ? m.server_error
                                                        : m.client_error)
          .Add();
    }
    m.latency.Observe(watch.ElapsedSeconds());
    Stopwatch serialize;
    std::string text = SerializeJson(out);
    serialize_.Observe(serialize.ElapsedSeconds());
    return text;
  };

  auto parsed = ParseJson(line);
  if (!parsed.ok()) return envelope(parsed.status());
  const JsonValue& body = *parsed;
  const JsonValue* cmd = body.Find("cmd");
  if (cmd == nullptr || !cmd->is_string()) {
    return envelope(Status::InvalidArgument(
        "expected a string \"cmd\" member (register|append|datasets|"
        "analyze|submit|poll|wait|cancel|trace|session|step|sessions|"
        "session_info|session_close|stats|health|metrics)"));
  }
  const std::string& verb = cmd->string_value();

  const auto session_id = [&body]() -> StatusOr<uint64_t> {
    const JsonValue* session = body.Find("session");
    if (session == nullptr || !session->is_int() ||
        session->int_value() <= 0) {
      return Status::InvalidArgument(
          "expected a positive integer \"session\" member");
    }
    return static_cast<uint64_t>(session->int_value());
  };

  if (verb == "health") return envelope(Healthz());
  if (verb == "metrics") {
    return envelope(MetricsToJson(service_->metrics_registry().Snapshot()));
  }
  if (verb == "stats") return envelope(ServiceStatsToJson(*service_));
  if (verb == "datasets") {
    JsonValue out = JsonValue::MakeArray();
    for (const DatasetInfo& info : service_->Datasets()) {
      out.Append(ToJson(info));
    }
    return envelope(std::move(out));
  }
  if (verb == "register") return envelope(Register(body));
  if (verb == "append") return envelope(Append(body));
  if (verb == "analyze") return envelope(Analyze(body));
  if (verb == "submit") return envelope(Submit(body));
  if (verb == "poll" || verb == "wait" || verb == "cancel" ||
      verb == "trace") {
    auto ticket = TicketFromJson(body);
    if (!ticket.ok()) return envelope(ticket.status());
    if (verb == "poll") return envelope(Poll(*ticket));
    if (verb == "wait") return envelope(WaitFor(*ticket));
    if (verb == "trace") {
      const JsonValue* format = body.Find("format");
      if (format != nullptr &&
          (!format->is_string() ||
           (format->string_value() != "chrome" &&
            format->string_value() != "raw"))) {
        return envelope(Status::InvalidArgument(
            "\"format\" must be \"chrome\" or \"raw\""));
      }
      const bool chrome = format == nullptr ||
                          format->string_value() == "chrome";
      return envelope(RequestTrace(*ticket, chrome));
    }
    return envelope(Cancel(*ticket));
  }
  if (verb == "session") return envelope(SessionCreate(body));
  if (verb == "sessions") return envelope(SessionList());
  if (verb == "step") {
    auto session = session_id();
    if (!session.ok()) return envelope(session.status());
    const JsonValue* stage = body.Find("stage");
    if (stage == nullptr || !stage->is_string()) {
      return envelope(Status::InvalidArgument(
          "expected a string \"stage\" member (answers|discover|detect|"
          "explain|rewrite|report)"));
    }
    // Strip the line-protocol envelope; SessionStep is strict about the
    // rest, exactly like the HTTP route.
    JsonValue params = JsonValue::MakeObject();
    for (const auto& [key, value] : body.members()) {
      if (key == "cmd" || key == "session" || key == "stage") continue;
      params.Set(key, value);
    }
    return envelope(SessionStep(*session, stage->string_value(), params));
  }
  if (verb == "session_info" || verb == "session_close") {
    auto session = session_id();
    if (!session.ok()) return envelope(session.status());
    return envelope(verb == "session_info" ? SessionInspect(*session)
                                           : SessionClose(*session));
  }
  return envelope(Status::InvalidArgument("unknown cmd \"" + verb + "\""));
}

void HypDbHandlers::RegisterMetrics(MetricsRegistry* registry) const {
  static const char* const kRouteNames[kNumRoutes] = {
      "healthz",  "metrics", "stats",  "datasets", "analyze", "submit",
      "requests", "sessions", "ingest", "line",    "other"};
  for (int r = 0; r < kNumRoutes; ++r) {
    const std::string route = kRouteNames[r];
    registry->RegisterCounter(
        "hypdb_http_requests_total",
        "Requests handled, by route and status class.",
        {{"route", route}, {"status", "2xx"}}, &routes_[r].ok);
    registry->RegisterCounter("hypdb_http_requests_total",
                              "Requests handled, by route and status class.",
                              {{"route", route}, {"status", "4xx"}},
                              &routes_[r].client_error);
    registry->RegisterCounter("hypdb_http_requests_total",
                              "Requests handled, by route and status class.",
                              {{"route", route}, {"status", "5xx"}},
                              &routes_[r].server_error);
    registry->RegisterHistogram("hypdb_http_request_seconds",
                                "Handler wall time, by route.",
                                {{"route", route}}, &routes_[r].latency);
  }
  registry->RegisterHistogram(
      "hypdb_http_serialize_seconds",
      "Response serialization time (not part of the request trace: "
      "serialization cannot appear inside its own output).",
      {}, &serialize_);
}

}  // namespace net
}  // namespace hypdb
