// serve-mix: repeat "think twice" traffic from analysts who each wait for
// their reply.
//
// An in-process HttpServer + HypDbHandlers + HypDbService (default
// options, one worker per core) serves one ~6k-row flights dataset.
// min(4, cores) closed-loop clients, one keep-alive connection each, send
// requests from a fixed hot set that setup has already analyzed once, so
// discovery is cached; the seed permutes the rows and sets where in the
// request cycle each client starts. Every eighth request of a client is
// heavy: detection runs a permutation CI test per context over the warm
// counts. The rest are light: mostly wire, scheduling and cache lookups.
// p50 falls in the light class and p90 in the heavy class.
//
// Every response digest must equal the warm-pass answer to the same
// query, and that one a cold serial HypDb::Analyze computed after the
// timed phase (so the reference work never shows in peak_rss_mb).
//
// Traced (--trace 1): each client alternates blocks of requests. Plain
// blocks send trace_level 0; collecting blocks run at the service's
// default trace level and the client reads the wire RequestStats of
// every response (queue/run time, discovery reuse, stage spans, engine
// deltas). Both kinds of block carry the same request mix and run side
// by side, so trace.overhead_ratio, the plain over the collecting
// throughput on that mix, does not depend on run order or host drift.
// net.serialize_ms times the net/json codecs on each hot-set report in
// process.

#include <algorithm>
#include <atomic>
#include <cstdio>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "bench_util.h"
#include "common.h"
#include "net/client.h"
#include "net/http_server.h"
#include "net/hypdb_handlers.h"
#include "net/json.h"
#include "service/hypdb_service.h"
#include "service/report_digest.h"
#include "util/rng.h"
#include "util/stopwatch.h"

namespace hypbench {
namespace {

using hypdb::Stopwatch;
using hypdb::net::JsonValue;

struct HotQuery {
  std::string sql;
  bool heavy = false;
  std::string digest;  // the warm-pass answer
};

/// The hot set. Light queries have discovery cached and detection over
/// warm counts that needs no permutation test (~1 ms of work); heavy
/// ones group by Carrier within each departure block or weekday, so
/// detection runs a permutation CI test per context (~1 s). All heavy
/// queries share one cached discovery.
std::vector<HotQuery> HotSet() {
  const char* const light[] = {
      "SELECT Carrier, avg(Delayed) FROM flights WHERE Airport IN "
      "('COS','MFE','MTJ','ROC') GROUP BY Carrier",
      "SELECT Carrier, Year, avg(Delayed) FROM flights WHERE Airport IN "
      "('COS','MFE','MTJ','ROC') GROUP BY Carrier, Year",
      "SELECT Year, avg(Delayed) FROM flights GROUP BY Year",
      "SELECT DepTimeBlk, avg(Delayed) FROM flights GROUP BY DepTimeBlk",
  };
  const char* const heavy[] = {
      "SELECT Carrier, DepTimeBlk, avg(Delayed) FROM flights "
      "GROUP BY Carrier, DepTimeBlk",
      "SELECT Carrier, DayOfWeek, avg(Delayed) FROM flights "
      "GROUP BY Carrier, DayOfWeek",
  };
  std::vector<HotQuery> hot;
  for (const char* sql : light) hot.push_back({sql, false, ""});
  for (const char* sql : heavy) hot.push_back({sql, true, ""});
  return hot;
}

/// One answered request, as the client saw it.
struct Sample {
  size_t query = 0;  // index into the hot set
  double rtt_ms = 0.0;
  /// From sending the request until the client has read the response
  /// (digest check, and RequestStats when collecting).
  double client_ms = 0.0;
  bool heavy = false;
  // Collecting requests of a traced run only.
  bool collected = false;
  size_t bytes = 0;
  WireStats stats;
  LayerValues spans;  // core.* stage spans + engine deltas
};

/// The live server and its service.
struct Server {
  Server() = default;
  Server(const Server&) = delete;
  Server& operator=(const Server&) = delete;

  std::unique_ptr<hypdb::HypDbService> service;
  std::unique_ptr<hypdb::net::HypDbHandlers> handlers;
  std::unique_ptr<hypdb::net::HttpServer> http;

  /// Stops accepting, then tears down in dependency order.
  ~Server() {
    if (http) http->Stop();
    http.reset();
    handlers.reset();
    service.reset();
  }
};

bool StartServer(const hypdb::TablePtr& table, Server* s) {
  s->service = std::make_unique<hypdb::HypDbService>();
  s->service->RegisterTable("flights", table);
  s->handlers = std::make_unique<hypdb::net::HypDbHandlers>(s->service.get());
  hypdb::net::HypDbHandlers* handlers = s->handlers.get();
  s->http = std::make_unique<hypdb::net::HttpServer>(
      [handlers](const hypdb::net::HttpRequest& r) {
        return handlers->HandleHttp(r);
      },
      [handlers](const std::string& line) {
        return handlers->HandleLine(line);
      });
  hypdb::Status started = s->http->Start();
  if (!started.ok()) {
    std::fprintf(stderr, "server start failed: %s\n",
                 started.ToString().c_str());
    return false;
  }
  return true;
}

/// An analyze request body; a negative `trace_level` leaves the key out,
/// so the service's default applies.
std::string AnalyzeBody(const std::string& sql, int trace_level = -1) {
  JsonValue body = JsonValue::MakeObject();
  body.Set("dataset", JsonValue::Str("flights"));
  body.Set("sql", JsonValue::Str(sql));
  if (trace_level >= 0) body.Set("trace_level", JsonValue::Int(trace_level));
  return hypdb::net::SerializeJson(body);
}

/// One request in kHeavyEvery is heavy. Then p50 sits at the light
/// class's 57th percentile and p90 at the heavy class's 20th. With one in
/// four, p50 sat at the light class's 67th percentile. Light requests there
/// queue for a core behind heavy ones, and p50 swung by ±40% between runs.
constexpr uint64_t kHeavyEvery = 8;

/// Plain and collecting blocks of a traced run: four request cycles, so
/// every block sends each light query 7 times and each heavy one twice.
constexpr uint64_t kTraceBlock = 4 * kHeavyEvery;

/// Closed-loop clients for `seconds`. Client c sends request k of its
/// sequence, step = k + c + seed: heavy when step % kHeavyEvery is the
/// last slot, cycling through the heavy queries; light otherwise,
/// cycling through the light ones. With `traced`, the requests of odd
/// blocks of kTraceBlock steps collect RequestStats and the others send
/// trace_level 0.
std::vector<Sample> RunClients(int port, const std::vector<HotQuery>& hot,
                               uint64_t seed, int clients, double seconds,
                               bool traced,
                               RunResult* result, double* wall_seconds) {
  std::vector<size_t> light;
  std::vector<size_t> heavy;
  for (size_t i = 0; i < hot.size(); ++i) {
    (hot[i].heavy ? heavy : light).push_back(i);
  }
  std::vector<std::vector<Sample>> per_client(clients);
  std::mutex result_mu;
  std::vector<std::thread> threads;
  Stopwatch wall;
  for (int c = 0; c < clients; ++c) {
    threads.emplace_back([&, c] {
      hypdb::net::HttpClient client("127.0.0.1", port);
      for (int64_t k = 0; wall.ElapsedSeconds() < seconds; ++k) {
        const uint64_t step = static_cast<uint64_t>(k + c) + seed;
        const bool is_heavy = step % kHeavyEvery == kHeavyEvery - 1;
        const std::vector<size_t>& pool = is_heavy ? heavy : light;
        const size_t index = pool[(step / kHeavyEvery) % pool.size()];
        const HotQuery& q = hot[index];
        const bool collect = traced && (step / kTraceBlock) % 2 == 1;
        const std::string body =
            AnalyzeBody(q.sql, traced && !collect ? 0 : -1);
        Stopwatch rtt;
        auto response = client.Request("POST", "/v1/analyze", body);
        Sample sample;
        sample.query = index;
        sample.rtt_ms = rtt.ElapsedMillis();
        sample.heavy = is_heavy;
        sample.collected = collect;
        const bool ok = response.ok() && response->status >= 200 &&
                        response->status < 300;
        std::string mismatch;
        if (ok) {
          auto parsed = hypdb::net::ParseJson(response->body);
          const JsonValue* digest =
              parsed.ok() ? parsed->Find("digest") : nullptr;
          if (digest == nullptr || digest->string_value() != q.digest) {
            mismatch = "served digest differs from the warm answer: " + q.sql;
          } else if (collect) {
            sample.bytes = response->body.size();
            if (const JsonValue* stats = parsed->Find("stats")) {
              sample.stats = ReadRequestStats(*stats, &sample.spans);
            }
          }
        }
        sample.client_ms = rtt.ElapsedMillis();
        {
          std::lock_guard<std::mutex> lock(result_mu);
          result->Attempt(ok);
          if (!mismatch.empty()) result->Mismatch(mismatch);
        }
        if (ok && mismatch.empty()) per_client[c].push_back(std::move(sample));
      }
    });
  }
  for (std::thread& t : threads) t.join();
  *wall_seconds = wall.ElapsedSeconds();
  std::vector<Sample> all;
  for (auto& v : per_client) {
    for (auto& s : v) all.push_back(std::move(s));
  }
  return all;
}

std::vector<double> Latencies(const std::vector<Sample>& samples) {
  std::vector<double> out;
  for (const Sample& s : samples) out.push_back(s.rtt_ms);
  return out;
}

/// Plain over collecting throughput of a traced run on the same request
/// mix: the client time of each hot query is averaged per kind of block
/// and weighted by how often the query was sent.
double OverheadRatio(const std::vector<Sample>& samples, size_t queries) {
  struct PerQuery {
    double ms[2] = {0.0, 0.0};
    int64_t n[2] = {0, 0};
  };
  std::vector<PerQuery> per_query(queries);
  for (const Sample& s : samples) {
    PerQuery& p = per_query[s.query];
    p.ms[s.collected] += s.client_ms;
    ++p.n[s.collected];
  }
  double plain_ms = 0.0;
  double collecting_ms = 0.0;
  for (const PerQuery& p : per_query) {
    if (p.n[0] == 0 || p.n[1] == 0) continue;
    const double weight = static_cast<double>(p.n[0] + p.n[1]);
    plain_ms += weight * p.ms[0] / p.n[0];
    collecting_ms += weight * p.ms[1] / p.n[1];
  }
  return plain_ms > 0 ? collecting_ms / plain_ms : 0.0;
}

}  // namespace

int RunServe(const Args& args, RunResult* result) {
  const int64_t rows = args.toy ? 400 : 6000;
  const int clients = std::min(4, hypdb::bench::EffectiveCores());
  std::vector<HotQuery> hot = HotSet();
  if (args.toy) hot = {hot[0], hot.back()};

  // Setup, three times: datagen, server start and the warm pass (each hot
  // query once, concurrently, so discovery is cached). The seeded row
  // permutation is the benchmark's own and is not timed. The last server
  // serves; its warm answers are the digests every later response must
  // repeat.
  std::vector<double> setup;
  std::unique_ptr<Server> server;
  hypdb::TablePtr table;
  for (int rep = 0; rep < 3; ++rep) {
    server.reset();
    server = std::make_unique<Server>();
    Stopwatch datagen_sw;
    hypdb::TablePtr generated = GenerateFlights(rows);
    const double datagen_s = datagen_sw.ElapsedSeconds();
    table = PermuteRows(*generated, args.seed);
    generated.reset();
    Stopwatch sw;
    if (!StartServer(table, server.get())) return 2;
    std::vector<std::thread> warm;
    for (HotQuery& q : hot) {
      warm.emplace_back([port = server->http->port(), &q] {
        hypdb::net::HttpClient client("127.0.0.1", port);
        auto response =
            client.Request("POST", "/v1/analyze", AnalyzeBody(q.sql));
        auto parsed = response.ok() ? hypdb::net::ParseJson(response->body)
                                    : hypdb::StatusOr<JsonValue>(
                                          response.status());
        const JsonValue* digest =
            parsed.ok() ? parsed->Find("digest") : nullptr;
        q.digest = digest != nullptr ? digest->string_value() : "";
      });
    }
    for (std::thread& t : warm) t.join();
    setup.push_back(datagen_s + sw.ElapsedSeconds());
    for (const HotQuery& q : hot) {
      if (q.digest.empty()) {
        std::fprintf(stderr, "warm analyze failed: %s\n", q.sql.c_str());
        return 2;
      }
    }
  }
  std::printf("serve: %lld rows, %zu hot queries, %d clients, %d workers, "
              "setup %.3f s\n",
              static_cast<long long>(rows), hot.size(), clients,
              server->service->num_workers(), Median(setup));

  const double cpu0 = CpuSeconds();
  double wall = 0.0;
  const std::vector<Sample> samples =
      RunClients(server->http->port(), hot, args.seed, clients, args.seconds,
                 args.trace, result, &wall);
  const double cpu = CpuSeconds() - cpu0;
  const double rss = PeakRssMb();
  server->http->Stop();

  // Cold serial reference per hot query, after the timed phase (each
  // analysis is serial and private; they run side by side). Every answer
  // to a query repeated its warm digest, so a wrong warm digest makes
  // all of them wrong.
  {
    std::vector<std::string> reference(hot.size());
    std::vector<std::thread> threads;
    std::atomic<size_t> next{0};
    for (int w = 0; w < clients; ++w) {
      threads.emplace_back([&] {
        for (size_t i = next++; i < hot.size(); i = next++) {
          hypdb::HypDb db(table, hypdb::HypDbOptions{});
          auto report = db.AnalyzeSql(hot[i].sql);
          if (report.ok()) {
            reference[i] = hypdb::CanonicalReportDigest(*report);
          }
        }
      });
    }
    for (std::thread& t : threads) t.join();
    for (size_t i = 0; i < hot.size(); ++i) {
      if (hot[i].digest == reference[i]) continue;
      int64_t answers = 0;
      for (const Sample& s : samples) answers += s.query == i ? 1 : 0;
      result->Mismatch("served digest differs from cold serial: " +
                           hot[i].sql,
                       answers);
    }
  }

  if (!args.trace) {
    std::vector<double> light_ms;
    std::vector<double> heavy_ms;
    for (const Sample& s : samples) {
      (s.heavy ? heavy_ms : light_ms).push_back(s.rtt_ms);
    }
    std::printf("light: %zu samples, p50 %.3f ms; heavy: %zu samples, p50 "
                "%.3f ms; %.3f s cpu over %.3f s\n",
                light_ms.size(), Median(light_ms), heavy_ms.size(),
                Median(heavy_ms), cpu, wall);
    AddEndToEnd(setup, samples.size() / wall, Latencies(samples),
                rss, result);
    return 0;
  }

  LayerValues layers;
  std::vector<double> queue_ms;
  std::vector<double> run_ms;
  std::vector<double> overhead_ms;
  double reused = 0;
  double bytes = 0;
  int64_t collected = 0;
  for (const Sample& s : samples) {
    if (!s.collected) continue;
    ++collected;
    queue_ms.push_back(s.stats.queue_ms);
    run_ms.push_back(s.stats.run_ms);
    overhead_ms.push_back(s.rtt_ms - s.stats.queue_ms - s.stats.run_ms);
    reused += s.stats.discovery_reused ? 1 : 0;
    bytes += static_cast<double>(s.bytes);
    for (const auto& [k, v] : s.spans) layers[k] += v;
  }
  const double n = std::max<int64_t>(collected, 1);
  for (auto& [k, v] : layers) v /= n;
  layers["service.queue_ms"] = Median(queue_ms);
  layers["service.run_ms"] = Median(run_ms);
  layers["service.discovery_reuse_ratio"] = reused / n;
  layers["net.overhead_ms"] = Median(overhead_ms);
  layers["net.response_bytes"] = bytes / n;

  // The wire codecs on each hot-set report, in process.
  {
    std::vector<double> serialize_ms;
    for (const HotQuery& q : hot) {
      auto report = server->service->AnalyzeSql("flights", q.sql);
      if (!report.ok()) continue;
      for (int rep = 0; rep < 20; ++rep) {
        Stopwatch sw;
        hypdb::net::SerializeJson(hypdb::net::ToJson(*report));
        serialize_ms.push_back(sw.ElapsedMillis());
      }
    }
    layers["net.serialize_ms"] = Median(serialize_ms);
  }
  layers["process.cpu_s"] = cpu;
  layers["trace.overhead_ratio"] = OverheadRatio(samples, hot.size());
  std::printf("serve traced: %lld plain, %lld collecting requests\n",
              static_cast<long long>(samples.size() - collected),
              static_cast<long long>(collected));
  AddPerLayer(layers, result);
  return 0;
}

}  // namespace hypbench
