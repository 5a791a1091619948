// Endpoint routing: the HypDbService API as HTTP resources and line-JSON
// commands. Every route maps one-to-one onto a DatasetRegistry or
// QueryScheduler call, so the sharding, discovery coalescing, and
// same-key batching built for in-process callers apply unchanged to
// remote traffic.
//
//   POST   /v1/datasets        {"name","csv"|"generator"}  register
//   GET    /v1/datasets                                    list
//   POST   /v1/datasets/{name}/rows
//                              {"rows": [["label",...],...]}  append rows
//                              (schema column order; no epoch bump — 200
//                              with the new watermark, 400 on arity/
//                              schema mismatch, 404 unknown dataset)
//   POST   /v1/analyze         {"dataset","sql",...}       sync analyze
//   POST   /v1/submit          (same body)                 async -> ticket
//   GET    /v1/requests/{id}   poll; ?wait=1 blocks; a finished result is
//                              claimed by the GET that fetches it
//   DELETE /v1/requests/{id}   cancel a still-queued request (or request
//                              cooperative cancellation of a running
//                              session stage job)
//   GET    /v1/requests/{id}/trace
//                              engine-deep execution trace of a completed
//                              request; ?format=chrome (default) is a
//                              chrome://tracing / Perfetto JSON document,
//                              ?format=raw the RequestStats rendering.
//                              404 unknown/expired, 409 ran untraced
//   POST   /v1/sessions        (analyze body)  create a staged session
//   POST   /v1/sessions/{id}/{answers|discover|detect|explain|rewrite|
//          report}             advance one stage; body optional
//                              {"context": N, "deadline_seconds": X}
//   GET    /v1/sessions        list live sessions
//   GET    /v1/sessions/{id}   inspect (full report + digest once the
//                              session is complete)
//   DELETE /v1/sessions/{id}   close the session
//   GET    /v1/stats           cache/engine/worker/session introspection
//   GET    /healthz            readiness: ok/workers/uptime/datasets/
//                              queue_depth/sessions/simd + build identity
//                              (version/compiler/build_type) + per-dataset
//                              storage shape (rows/bytes_copied/watermark)
//   GET    /metrics            Prometheus text exposition; ?format=json
//                              for the structured flavor (with p50/95/99)
//
// Errors are ErrorToJson bodies ({"code","message"}) with the HTTP status
// from HttpStatusForCode; expired/invalidated sessions answer 410 Gone,
// never-issued session ids 404. The line-JSON protocol carries the same
// payloads in an {"ok":bool, "result"|"error": ...} envelope, selected by
// a "cmd" member (register/append/datasets/analyze/submit/poll/wait/
// cancel/trace/session/step/sessions/session_info/session_close/stats/
// health).

#ifndef HYPDB_NET_HYPDB_HANDLERS_H_
#define HYPDB_NET_HYPDB_HANDLERS_H_

#include <string>

#include "net/http_server.h"
#include "net/json.h"
#include "service/hypdb_service.h"

namespace hypdb {
namespace net {

/// HTTP status for a Status code (kOk -> 200, kNotFound -> 404, ...).
int HttpStatusForCode(StatusCode code);

/// Builds the table of a named built-in generator
/// (berkeley|flight|adult|staples|cancer) — shared by the wire protocol
/// and the CLI so both accept the same names.
StatusOr<Table> GenerateNamedDataset(const std::string& kind);

/// Fan-in from both wire protocols onto one HypDbService. Thread-safe:
/// the service is, and the handlers' only mutable state is lock-free
/// route metrics.
class HypDbHandlers {
 public:
  explicit HypDbHandlers(HypDbService* service) : service_(service) {}

  /// The HttpServer HTTP callback. Wraps the routing with per-route
  /// status-class counters and a latency histogram; the counters are
  /// bumped AFTER the response body is built, so a GET /metrics scrape
  /// never counts itself in its own body — which is what lets CI assert
  /// exact counter consistency against the requests it issued.
  HttpResponse HandleHttp(const HttpRequest& request);
  /// The HttpServer line-JSON callback: one request line in, one
  /// response line out (envelope documented above). Counted under the
  /// "line" route.
  std::string HandleLine(const std::string& line);

  /// Registers hypdb_http_requests_total{route,status},
  /// hypdb_http_request_seconds{route} and hypdb_http_serialize_seconds.
  /// The handlers must outlive every scrape of `registry`.
  void RegisterMetrics(MetricsRegistry* registry) const;

 private:
  /// Stable route classes for metric labels — bounded cardinality, so a
  /// path scanner probing random URLs cannot mint unbounded series
  /// (everything unknown lands in kRouteOther).
  enum Route {
    kRouteHealthz,
    kRouteMetrics,
    kRouteStats,
    kRouteDatasets,
    kRouteAnalyze,
    kRouteSubmit,
    kRouteRequests,
    kRouteSessions,
    kRouteIngest,
    kRouteLine,
    kRouteOther,
    kNumRoutes
  };
  /// Per-route status-class counters + latency. Plain C array member:
  /// the atomics make RouteMetrics immovable.
  struct RouteMetrics {
    Counter ok;            // 2xx/3xx
    Counter client_error;  // 4xx
    Counter server_error;  // 5xx
    LatencyHistogram latency;
  };

  static Route ClassifyRoute(const std::string& target);
  /// The actual routing (the pre-metrics HandleHttp body).
  HttpResponse RouteHttp(const HttpRequest& request);

  /// Response builders; JsonResponse times SerializeJson into the
  /// hypdb_http_serialize_seconds histogram (serialization cannot appear
  /// as a trace span inside its own output).
  HttpResponse JsonResponse(int status, const JsonValue& body) const;
  HttpResponse ErrorResponse(const Status& status) const;
  HttpResponse ResultResponse(const StatusOr<JsonValue>& result) const;
  /// The readiness body shared by GET /healthz and the line "health"
  /// verb.
  JsonValue Healthz() const;

  /// Shared verb implementations; both protocols decode into these.
  StatusOr<JsonValue> Register(const JsonValue& body);
  /// Append rows to a dataset. `path_name` is the dataset from the URL
  /// path on the HTTP route (empty for the line verb, where the body
  /// carries "name"); a body name must match the path when both appear.
  StatusOr<JsonValue> Append(const JsonValue& body,
                             const std::string& path_name = "");
  StatusOr<JsonValue> Analyze(const JsonValue& body);
  StatusOr<JsonValue> Submit(const JsonValue& body);
  StatusOr<JsonValue> Poll(uint64_t ticket);
  StatusOr<JsonValue> WaitFor(uint64_t ticket);
  StatusOr<JsonValue> Cancel(uint64_t ticket);
  /// The retained trace of a completed request, rendered as a Chrome
  /// trace document (`chrome` true) or the raw RequestStats body.
  StatusOr<JsonValue> RequestTrace(uint64_t ticket, bool chrome);
  StatusOr<JsonValue> SessionCreate(const JsonValue& body);
  StatusOr<JsonValue> SessionStep(uint64_t session, const std::string& stage,
                                  const JsonValue& body);
  StatusOr<JsonValue> SessionInspect(uint64_t session);
  StatusOr<JsonValue> SessionClose(uint64_t session);
  JsonValue SessionList();

  HypDbService* service_;
  mutable RouteMetrics routes_[kNumRoutes];
  mutable LatencyHistogram serialize_;
};

}  // namespace net
}  // namespace hypdb

#endif  // HYPDB_NET_HYPDB_HANDLERS_H_
