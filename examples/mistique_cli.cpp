// mistique_cli — inspect and query a persisted MISTIQUE store from the
// shell. Demonstrates catalog persistence: any store directory written
// with Mistique::SaveCatalog() can be explored without the original
// process, models, or data.
//
//   mistique_cli <store_dir> ls
//   mistique_cli <store_dir> ls <project.model>
//   mistique_cli <store_dir> fetch <project.model.intermediate.column> [n]
//   mistique_cli <store_dir> scan <project.model.intermediate> <column> <lo> <hi>
//   mistique_cli <store_dir> delete <project.model>
//   mistique_cli <store_dir> stats
//   mistique_cli <store_dir> service_session [sessions] [queries] [workers]
//   mistique_cli <store_dir> serve [port] [workers]
//   mistique_cli <store_dir> train_serve [port] [workers] [epochs] [rows]
//   mistique_cli <store_dir> metrics
//   mistique_cli <store_dir> trace <project.model.intermediate.column> [n]
//   mistique_cli <store_dir> flightrec [n] [chrome.json]
//   mistique_cli <store_dir> slowlog [n]
//
// Remote mode talks the wire protocol to a running `serve` instance; no
// store directory needed on the client machine:
//
//   mistique_cli remote <host:port> ping
//   mistique_cli remote <host:port> stats
//   mistique_cli remote <host:port> metrics
//   mistique_cli remote <host:port> fetch <project.model.intermediate.column> [n]
//   mistique_cli remote <host:port> dtrace <project.model.intermediate.column> [n] [chrome.json]
//   mistique_cli remote <host:port> flightrec [n] [chrome.json]
//   mistique_cli remote <host:port> slowlog [n]
//   mistique_cli remote <host:port> session <project.model.intermediate.column> [S] [Q]

#include <csignal>

#include <atomic>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <future>
#include <optional>
#include <string>
#include <thread>
#include <vector>

#include "cluster/rebalance.h"
#include "cluster/router.h"
#include "cluster/shard_map.h"
#include "core/mistique.h"
#include "net/client.h"
#include "net/server.h"
#include "nn/cifar.h"
#include "nn/model_zoo.h"
#include "obs/flight_recorder.h"
#include "obs/trace.h"
#include "service/query_service.h"

using namespace mistique;  // NOLINT: CLI brevity.

namespace {

void Check(const Status& status) {
  if (!status.ok()) {
    std::fprintf(stderr, "error: %s\n", status.ToString().c_str());
    std::exit(1);
  }
}

template <typename T>
T Check(Result<T> result) {
  Check(result.status());
  return std::move(result).ValueOrDie();
}

int Usage() {
  std::fprintf(
      stderr,
      "usage: mistique_cli <store_dir> <command>\n"
      "  ls                              list models\n"
      "  ls <project.model>              list a model's intermediates\n"
      "  fetch <proj.model.interm.col> [n]   print first n values (def 10)\n"
      "  scan <proj.model.interm> <col> <lo> <hi>   predicate scan\n"
      "  delete <project.model>          delete a model + vacuum storage\n"
      "  stats                           storage statistics\n"
      "  service_session [S] [Q] [W]     S concurrent sessions each issuing\n"
      "                                  Q queries via a W-worker service\n"
      "  serve [port] [W]                serve the store over TCP with W\n"
      "                                  workers until SIGTERM/SIGINT\n"
      "  train_serve [port] [W] [E] [N]  serve while a training loop logs E\n"
      "                                  CNN checkpoints over N examples —\n"
      "                                  the MVCC query-during-ingest demo\n"
      "  metrics                         Prometheus-style metric exposition\n"
      "  trace <proj.model.interm.col> [n]   fetch with a cost-decision\n"
      "                                  trace (estimates vs actual stages)\n"
      "  flightrec [n] [json]            profile every intermediate fully\n"
      "                                  sampled, dump the flight recorder\n"
      "                                  (optional Chrome trace_event json)\n"
      "  slowlog [n]                     same workload, slowest-first view\n"
      "       mistique_cli remote <host:port> <command>\n"
      "  ping                            round-trip liveness check\n"
      "  stats                           remote service + query statistics\n"
      "  metrics                         scrape the server's metrics\n"
      "  fetch <proj.model.interm.col> [n]   remote fetch, print n values\n"
      "  scan <proj.model.interm> <col> <lo> <hi>   remote predicate scan\n"
      "  tracescan <proj.model.interm> <col> <lo> <hi>   remote traced scan\n"
      "                                  (zone-map + scan_packed stages)\n"
      "  dtrace <proj.model.interm.col> [n] [json]   traced fetch: prints\n"
      "                                  the trace tree assembled across\n"
      "                                  every node it crossed\n"
      "  flightrec [n] [json]            recent sampled traces retained by\n"
      "                                  the remote node's flight recorder\n"
      "  slowlog [n]                     the remote node's slow-query log\n"
      "  shardmap                        routing table (routers only)\n"
      "  health                          liveness + load probe\n"
      "  catalog                         model catalog (shape only)\n"
      "  session <proj.model.interm.col> [S] [Q]   S client threads each\n"
      "                                  issuing Q remote fetches\n"
      "       mistique_cli cluster <command>   (docs/CLUSTER.md)\n"
      "  split <src_store> <dst_prefix> <n>   split one store into n shard\n"
      "                                  stores <dst_prefix>0..n-1 by the\n"
      "                                  consistent-hash map\n"
      "  route <port> <host:port>...     serve a router over the listed\n"
      "                                  shards (ids 0..n-1 in order; must\n"
      "                                  match the split order)\n"
      "  rebalance <dst_store> <src host:port> <project.model>...\n"
      "                                  stream models from a running shard\n"
      "                                  into a local store (then delete\n"
      "                                  them at the source)\n");
  return 2;
}

std::atomic<bool> g_shutdown{false};

void HandleSignal(int /*sig*/) { g_shutdown.store(true); }

/// Serving modes honor MISTIQUE_TRACE_SAMPLE_RATE / MISTIQUE_TRACE_SLOW_SEC:
/// the flight-recorder policy knobs (docs/OBSERVABILITY.md) without a
/// config file. Unset variables keep the recorder defaults.
void ApplyTracePolicyFromEnv() {
  obs::FlightRecorder& recorder = obs::GlobalFlightRecorder();
  double rate = recorder.sample_rate();
  double slow = recorder.slow_threshold_sec();
  if (const char* env = std::getenv("MISTIQUE_TRACE_SAMPLE_RATE")) {
    rate = std::atof(env);
  }
  if (const char* env = std::getenv("MISTIQUE_TRACE_SLOW_SEC")) {
    slow = std::atof(env);
  }
  recorder.SetPolicy(rate, slow);
}

void PrintTraceList(const std::vector<obs::QueryTrace>& traces) {
  if (traces.empty()) {
    std::printf("(no traces retained)\n");
    return;
  }
  for (size_t i = 0; i < traces.size(); ++i) {
    std::printf("--- trace %zu/%zu ---\n", i + 1, traces.size());
    std::fputs(traces[i].Format().c_str(), stdout);
  }
}

/// Writes the Chrome trace_event JSON for `trace` (load the file via
/// chrome://tracing or ui.perfetto.dev).
void ExportChromeJson(const obs::QueryTrace& trace, const char* path) {
  std::FILE* f = std::fopen(path, "w");
  if (f == nullptr) {
    std::fprintf(stderr, "cannot write %s\n", path);
    std::exit(1);
  }
  const std::string json = obs::TraceToChromeJson(trace);
  std::fwrite(json.data(), 1, json.size(), f);
  std::fclose(f);
  std::fprintf(stderr, "wrote Chrome trace to %s\n", path);
}

/// Runs `call` with a sampled trace context installed, so the request
/// travels in a kTracedReq envelope and a router answers with its
/// assembled per-shard tree; prints the tree the hop sent back (and
/// exports it as Chrome JSON when `json_path` is set). dtrace and
/// tracescan share it.
template <typename F>
void RunTraced(net::Client& client, F call, const char* json_path) {
  client.SetTraceContext({obs::NewTraceId(), 0, true});
  call();
  std::optional<obs::QueryTrace> trace = client.TakeLastTrace();
  client.ClearTraceContext();
  if (!trace.has_value()) {
    std::printf("(hop attached no trace)\n");
    return;
  }
  std::fputs(trace->Format().c_str(), stdout);
  if (json_path != nullptr) ExportChromeJson(*trace, json_path);
}

/// Splits "host:port"; exits on malformed input.
net::ClientOptions ParseEndpoint(const std::string& endpoint) {
  const size_t colon = endpoint.rfind(':');
  if (colon == std::string::npos || colon + 1 >= endpoint.size()) {
    std::fprintf(stderr, "expected host:port, got %s\n", endpoint.c_str());
    std::exit(2);
  }
  net::ClientOptions options;
  options.host = endpoint.substr(0, colon);
  options.port =
      static_cast<uint16_t>(std::strtoul(endpoint.c_str() + colon + 1,
                                         nullptr, 10));
  return options;
}

void PrintRemoteStats(const ServiceStats& stats) {
  std::printf("open sessions:        %zu%s\n", stats.open_sessions,
              stats.draining ? "   (DRAINING)" : "");
  std::printf("submitted:            %llu\n",
              static_cast<unsigned long long>(stats.submitted));
  std::printf("completed:            %llu (%llu cache hits / %llu lookups)\n",
              static_cast<unsigned long long>(stats.completed),
              static_cast<unsigned long long>(stats.cache_hits),
              static_cast<unsigned long long>(stats.cache_lookups));
  std::printf("rejected:             %llu\n",
              static_cast<unsigned long long>(stats.rejected));
  std::printf("expired / failed:     %llu / %llu\n",
              static_cast<unsigned long long>(stats.expired),
              static_cast<unsigned long long>(stats.failed));
  std::printf("abandoned (drain):    %llu\n",
              static_cast<unsigned long long>(stats.abandoned));
  std::printf("queued / running:     %llu / %llu\n",
              static_cast<unsigned long long>(stats.queued),
              static_cast<unsigned long long>(stats.running));
  std::printf("latency:              p50 %.2fms  p95 %.2fms\n",
              stats.p50_latency_sec * 1e3, stats.p95_latency_sec * 1e3);
  std::printf("disk read:            %.1fKB\n", stats.bytes_read / 1e3);
  std::printf("corruptions detected: %llu\n",
              static_cast<unsigned long long>(stats.corruptions_detected));
  std::printf("partitions healed:    %llu\n",
              static_cast<unsigned long long>(stats.partitions_healed));
}

int RunRemote(int argc, char** argv) {
  // argv: remote <host:port> <command> [args...]
  if (argc < 4) return Usage();
  net::ClientOptions options = ParseEndpoint(argv[2]);
  const std::string command = argv[3];
  net::Client client(options);

  if (command == "ping") {
    const auto start = std::chrono::steady_clock::now();
    Check(client.Ping());
    const double ms = std::chrono::duration<double>(
                          std::chrono::steady_clock::now() - start)
                          .count() *
                      1e3;
    std::printf("pong from %s (%.2fms)\n", argv[2], ms);
    return 0;
  }
  if (command == "stats") {
    PrintRemoteStats(Check(client.Stats()));
    return 0;
  }
  if (command == "metrics") {
    std::fputs(Check(client.Metrics()).c_str(), stdout);
    return 0;
  }
  if (command == "fetch" && argc >= 5) {
    const uint64_t n = argc >= 6 ? std::strtoull(argv[5], nullptr, 10) : 10;
    FetchRequest request =
        Check(Mistique::ParseIntermediateKeys({argv[4]}, n));
    FetchResult result = Check(client.Fetch(request));
    for (size_t c = 0; c < result.column_names.size(); ++c) {
      std::printf("%s%s", c ? "," : "", result.column_names[c].c_str());
    }
    std::printf("\n");
    const size_t rows = result.columns.empty() ? 0 : result.columns[0].size();
    for (size_t r = 0; r < rows; ++r) {
      for (size_t c = 0; c < result.columns.size(); ++c) {
        std::printf("%s%.8g", c ? "," : "", result.columns[c][r]);
      }
      std::printf("\n");
    }
    std::fprintf(stderr, "(%zu rows via %s, remote)\n", rows,
                 result.used_read ? "read" : "re-run");
    return 0;
  }
  if ((command == "scan" || command == "tracescan") && argc == 8) {
    ScanRequest scan;
    const std::string target = argv[4];
    const size_t d1 = target.find('.');
    const size_t d2 = target.find('.', d1 + 1);
    if (d1 == std::string::npos || d2 == std::string::npos) {
      std::fprintf(stderr, "expected project.model.intermediate\n");
      return 2;
    }
    scan.project = target.substr(0, d1);
    scan.model = target.substr(d1 + 1, d2 - d1 - 1);
    scan.intermediate = target.substr(d2 + 1);
    scan.predicate_column = argv[5];
    scan.lo = std::atof(argv[6]);
    scan.hi = std::atof(argv[7]);
    if (command == "tracescan") {
      ScanResult result;
      RunTraced(client, [&] { result = Check(client.Scan(scan)); }, nullptr);
      std::fprintf(stderr, "(%zu matching rows x %zu cols, remote)\n",
                   result.row_ids.size(), result.columns.size());
      return 0;
    }
    ScanResult result = Check(client.Scan(scan));
    for (uint64_t row : result.row_ids) {
      std::printf("%llu\n", static_cast<unsigned long long>(row));
    }
    std::fprintf(stderr, "(%zu rows; %llu blocks scanned, %llu pruned, "
                 "remote)\n",
                 result.row_ids.size(),
                 static_cast<unsigned long long>(result.blocks_scanned),
                 static_cast<unsigned long long>(result.blocks_pruned));
    return 0;
  }
  if (command == "slowlog") {
    const uint32_t n =
        argc >= 5 ? static_cast<uint32_t>(std::strtoul(argv[4], nullptr, 10))
                  : 0;
    PrintTraceList(Check(client.SlowLog(n)));
    return 0;
  }
  if (command == "flightrec") {
    const uint32_t n =
        argc >= 5 ? static_cast<uint32_t>(std::strtoul(argv[4], nullptr, 10))
                  : 0;
    const std::vector<obs::QueryTrace> traces = Check(client.TraceDump(n));
    PrintTraceList(traces);
    if (argc >= 6 && !traces.empty()) ExportChromeJson(traces.front(), argv[5]);
    return 0;
  }
  if (command == "dtrace" && argc >= 5) {
    // Distributed traced fetch: the request travels in a kTracedReq
    // envelope, so a router answers with its assembled per-shard tree.
    const uint64_t n = argc >= 6 ? std::strtoull(argv[5], nullptr, 10) : 10;
    FetchRequest request =
        Check(Mistique::ParseIntermediateKeys({argv[4]}, n));
    FetchResult result;
    RunTraced(client, [&] { result = Check(client.Fetch(request)); },
              argc >= 7 ? argv[6] : nullptr);
    const size_t rows = result.columns.empty() ? 0 : result.columns[0].size();
    std::fprintf(stderr, "(%zu rows x %zu cols, remote)\n", rows,
                 result.columns.size());
    return 0;
  }
  if (command == "shardmap") {
    const wire::ShardMapInfo map = Check(client.FetchShardMap());
    std::printf("version %llu, %u vnodes/shard\n",
                static_cast<unsigned long long>(map.version),
                map.vnodes_per_shard);
    std::printf("%-8s %-22s %s\n", "shard", "endpoint", "health");
    for (const wire::ShardEntry& shard : map.shards) {
      std::printf("%-8u %-22s %s\n", shard.shard_id,
                  (shard.host + ":" + std::to_string(shard.port)).c_str(),
                  shard.health == 0 ? "up" : "DOWN");
    }
    return 0;
  }
  if (command == "health") {
    const wire::HealthInfo health = Check(client.Health());
    std::printf("state:         %s\n",
                health.state == 0 ? "serving" : "draining");
    std::printf("queued:        %llu\n",
                static_cast<unsigned long long>(health.queued));
    std::printf("running:       %llu\n",
                static_cast<unsigned long long>(health.running));
    std::printf("open sessions: %llu\n",
                static_cast<unsigned long long>(health.open_sessions));
    return 0;
  }
  if (command == "catalog") {
    const wire::CatalogInfo catalog = Check(client.Catalog());
    for (const wire::CatalogModel& model : catalog.models) {
      std::printf("%s.%s (%s)\n", model.project.c_str(), model.model.c_str(),
                  model.kind == 0 ? "TRAD" : "DNN");
      for (const wire::CatalogIntermediate& interm : model.intermediates) {
        std::printf("  %-20s stage %2d, %llu rows, %zu cols\n",
                    interm.name.c_str(), interm.stage_index,
                    static_cast<unsigned long long>(interm.num_rows),
                    interm.columns.size());
      }
    }
    return 0;
  }
  if (command == "session" && argc >= 5) {
    const std::string key = argv[4];
    const size_t num_clients =
        argc >= 6 ? std::strtoull(argv[5], nullptr, 10) : 4;
    const size_t queries = argc >= 7 ? std::strtoull(argv[6], nullptr, 10) : 25;
    FetchRequest request =
        Check(Mistique::ParseIntermediateKeys({key}, 32));

    std::atomic<uint64_t> errors{0};
    const auto start = std::chrono::steady_clock::now();
    std::vector<std::thread> threads;
    for (size_t c = 0; c < num_clients; ++c) {
      threads.emplace_back([&] {
        net::Client worker(options);
        for (size_t q = 0; q < queries; ++q) {
          if (!worker.Fetch(request).ok()) errors++;
        }
        Check(worker.CloseSession());
      });
    }
    for (auto& t : threads) t.join();
    const double elapsed =
        std::chrono::duration<double>(std::chrono::steady_clock::now() - start)
            .count();
    const uint64_t total = num_clients * queries;
    std::printf("remote session: %zu clients x %zu queries in %.3fs "
                "(%.0f queries/s), %llu errors\n",
                num_clients, queries, elapsed,
                static_cast<double>(total) / elapsed,
                static_cast<unsigned long long>(errors.load()));
    return errors.load() == 0 ? 0 : 1;
  }
  return Usage();
}

void ListModels(const Mistique& mq) {
  std::printf("%-30s %-6s %s\n", "model", "kind", "intermediates");
  for (ModelId id : mq.metadata().ListModels()) {
    const ModelInfo* model = Check(mq.metadata().GetModel(id));
    std::printf("%-30s %-6s %zu\n",
                (model->project + "." + model->name).c_str(),
                model->kind == ModelKind::kTrad ? "TRAD" : "DNN",
                model->intermediates.size());
  }
}

void ListIntermediates(const Mistique& mq, const std::string& target) {
  const size_t dot = target.find('.');
  if (dot == std::string::npos) {
    std::fprintf(stderr, "expected project.model\n");
    std::exit(2);
  }
  const ModelId id = Check(
      mq.metadata().FindModel(target.substr(0, dot), target.substr(dot + 1)));
  const ModelInfo* model = Check(mq.metadata().GetModel(id));
  std::printf("%-20s %8s %8s %12s %8s %s\n", "intermediate", "rows", "cols",
              "stored", "queries", "scheme");
  for (const IntermediateInfo& interm : model->intermediates) {
    uint64_t stored = 0;
    for (const ColumnInfo& col : interm.columns) stored += col.stored_bytes;
    std::printf("%-20s %8llu %8zu %10.1fKB %8llu %s%s\n",
                interm.name.c_str(),
                static_cast<unsigned long long>(interm.num_rows),
                interm.columns.size(), stored / 1e3,
                static_cast<unsigned long long>(interm.n_query),
                QuantSchemeName(interm.scheme, interm.kbits).c_str(),
                interm.pool_sigma > 1
                    ? ("+pool(" + std::to_string(interm.pool_sigma) + ")")
                          .c_str()
                    : "");
  }
}

/// Splits "project.model"; exits on malformed input.
void SplitModelRef(const std::string& ref, std::string* project,
                   std::string* model) {
  const size_t dot = ref.find('.');
  if (dot == std::string::npos || dot == 0 || dot + 1 >= ref.size()) {
    std::fprintf(stderr, "expected project.model, got %s\n", ref.c_str());
    std::exit(2);
  }
  *project = ref.substr(0, dot);
  *model = ref.substr(dot + 1);
}

int RunCluster(int argc, char** argv) {
  // argv: cluster <command> [args...]
  if (argc < 3) return Usage();
  const std::string command = argv[2];

  if (command == "split" && argc == 6) {
    const std::string src_dir = argv[3];
    const std::string dst_prefix = argv[4];
    const size_t n = std::strtoull(argv[5], nullptr, 10);
    if (n == 0) return Usage();
    if (!std::filesystem::exists(src_dir + "/catalog.mq")) {
      std::fprintf(stderr, "no catalog found in %s\n", src_dir.c_str());
      return 1;
    }
    MistiqueOptions src_options;
    src_options.store.directory = src_dir;
    Mistique src;
    Check(src.Open(src_options));

    std::vector<cluster::ShardSpec> specs;
    std::vector<std::unique_ptr<Mistique>> stores;
    std::vector<Mistique*> dst;
    for (size_t i = 0; i < n; ++i) {
      specs.push_back({static_cast<uint32_t>(i), "", 0});
      const std::string dir = dst_prefix + std::to_string(i);
      std::filesystem::create_directories(dir);
      MistiqueOptions options;
      options.store.directory = dir;
      stores.push_back(std::make_unique<Mistique>());
      Check(stores.back()->Open(options));
      dst.push_back(stores.back().get());
    }
    // Endpoints are irrelevant here: ring placement hashes only shard
    // ids, so `route` over any endpoints with ids 0..n-1 matches.
    const cluster::ShardMap map(1, specs);
    const std::vector<size_t> assigned =
        Check(cluster::SplitStore(&src, dst, map));
    for (size_t i = 0; i < n; ++i) {
      Check(dst[i]->Flush());
      Check(dst[i]->SaveCatalog());
      std::printf("shard %zu (%s%zu): %zu models\n", i, dst_prefix.c_str(), i,
                  assigned[i]);
    }
    return 0;
  }

  if (command == "route" && argc >= 5) {
    const uint16_t port =
        static_cast<uint16_t>(std::strtoul(argv[3], nullptr, 10));
    std::vector<cluster::ShardSpec> specs;
    for (int i = 4; i < argc; ++i) {
      const net::ClientOptions endpoint = ParseEndpoint(argv[i]);
      specs.push_back({static_cast<uint32_t>(i - 4), endpoint.host,
                       endpoint.port});
    }
    ApplyTracePolicyFromEnv();
    cluster::Router router(cluster::ShardMap(1, specs));
    Check(router.Start());

    net::ServerOptions server_options;
    server_options.port = port;
    net::Server server(&router, server_options);
    Check(server.Start());

    std::signal(SIGINT, HandleSignal);
    std::signal(SIGTERM, HandleSignal);
    std::printf("routing %zu shards on %s:%u (SIGTERM to stop)\n",
                specs.size(), server_options.host.c_str(),
                static_cast<unsigned>(server.port()));
    std::fflush(stdout);
    while (!g_shutdown.load()) {
      std::this_thread::sleep_for(std::chrono::milliseconds(100));
    }
    std::printf("shutting down: draining forwarded requests...\n");
    std::fflush(stdout);
    server.Stop();
    const cluster::RouterStats stats = router.Stats();
    router.Stop();
    std::printf("routed: %llu fetches, %llu scans, %llu traces; "
                "%llu retries, %llu hedges (%llu won), %llu degraded, "
                "%llu rejoins\n",
                static_cast<unsigned long long>(stats.fetches),
                static_cast<unsigned long long>(stats.scans),
                static_cast<unsigned long long>(stats.traces),
                static_cast<unsigned long long>(stats.retries),
                static_cast<unsigned long long>(stats.hedges),
                static_cast<unsigned long long>(stats.hedge_wins),
                static_cast<unsigned long long>(stats.degraded),
                static_cast<unsigned long long>(stats.rejoins));
    return 0;
  }

  if (command == "rebalance" && argc >= 6) {
    const std::string dst_dir = argv[3];
    net::ClientOptions src_endpoint = ParseEndpoint(argv[4]);
    std::filesystem::create_directories(dst_dir);
    MistiqueOptions options;
    options.store.directory = dst_dir;
    Mistique dst;
    Check(dst.Open(options));
    net::Client src(src_endpoint);
    for (int i = 5; i < argc; ++i) {
      std::string project, model;
      SplitModelRef(argv[i], &project, &model);
      Check(cluster::PullModel(&src, &dst, project, model));
      std::printf("pulled %s.%s from %s\n", project.c_str(), model.c_str(),
                  argv[4]);
    }
    Check(dst.Flush());
    Check(dst.SaveCatalog());
    std::printf("rebalance done: %d models now in %s (delete them at the "
                "source to finish the move)\n",
                argc - 5, dst_dir.c_str());
    return 0;
  }

  return Usage();
}

}  // namespace

int main(int argc, char** argv) {
  if (argc < 3) return Usage();
  const std::string store_dir = argv[1];
  const std::string command = argv[2];

  // Remote and cluster modes need no local store.
  if (store_dir == "remote") return RunRemote(argc, argv);
  if (store_dir == "cluster") return RunCluster(argc, argv);

  // train_serve creates its store; everything else inspects an existing one.
  if (command != "train_serve" &&
      !std::filesystem::exists(store_dir + "/catalog.mq")) {
    std::fprintf(stderr,
                 "no catalog found in %s (was SaveCatalog() called?)\n",
                 store_dir.c_str());
    return 1;
  }
  MistiqueOptions options;
  options.store.directory = store_dir;
  Mistique mq;
  Check(mq.Open(options));

  if (command == "ls" && argc == 3) {
    ListModels(mq);
    return 0;
  }
  if (command == "ls" && argc == 4) {
    ListIntermediates(mq, argv[3]);
    return 0;
  }
  if (command == "fetch" && argc >= 4) {
    const uint64_t n = argc >= 5 ? std::strtoull(argv[4], nullptr, 10) : 10;
    FetchResult result = Check(mq.GetIntermediates({argv[3]}, n));
    for (size_t c = 0; c < result.column_names.size(); ++c) {
      std::printf("%s%s", c ? "," : "", result.column_names[c].c_str());
    }
    std::printf("\n");
    const size_t rows = result.columns.empty() ? 0 : result.columns[0].size();
    for (size_t r = 0; r < rows; ++r) {
      for (size_t c = 0; c < result.columns.size(); ++c) {
        std::printf("%s%.8g", c ? "," : "", result.columns[c][r]);
      }
      std::printf("\n");
    }
    std::fprintf(stderr, "(%zu rows via %s)\n", rows,
                 result.used_read ? "read" : "re-run");
    return 0;
  }
  if (command == "scan" && argc == 7) {
    ScanRequest scan;
    const std::string target = argv[3];
    const size_t d1 = target.find('.');
    const size_t d2 = target.find('.', d1 + 1);
    if (d1 == std::string::npos || d2 == std::string::npos) {
      std::fprintf(stderr, "expected project.model.intermediate\n");
      return 2;
    }
    scan.project = target.substr(0, d1);
    scan.model = target.substr(d1 + 1, d2 - d1 - 1);
    scan.intermediate = target.substr(d2 + 1);
    scan.predicate_column = argv[4];
    scan.lo = std::atof(argv[5]);
    scan.hi = std::atof(argv[6]);
    ScanResult result = Check(mq.Scan(scan));
    for (uint64_t row : result.row_ids) {
      std::printf("%llu\n", static_cast<unsigned long long>(row));
    }
    std::fprintf(stderr, "(%zu rows; %llu blocks scanned, %llu pruned)\n",
                 result.row_ids.size(),
                 static_cast<unsigned long long>(result.blocks_scanned),
                 static_cast<unsigned long long>(result.blocks_pruned));
    return 0;
  }
  if (command == "delete" && argc == 4) {
    const std::string target = argv[3];
    const size_t dot = target.find('.');
    if (dot == std::string::npos) {
      std::fprintf(stderr, "expected project.model\n");
      return 2;
    }
    Check(mq.DeleteModel(target.substr(0, dot), target.substr(dot + 1)));
    const uint64_t reclaimed = Check(mq.Vacuum());
    Check(mq.SaveCatalog());
    std::printf("deleted %s; reclaimed %llu bytes\n", target.c_str(),
                static_cast<unsigned long long>(reclaimed));
    return 0;
  }
  if (command == "service_session") {
    const size_t num_sessions =
        argc >= 4 ? std::strtoull(argv[3], nullptr, 10) : 4;
    const size_t queries = argc >= 5 ? std::strtoull(argv[4], nullptr, 10) : 50;
    const size_t workers = argc >= 6 ? std::strtoull(argv[5], nullptr, 10) : 4;

    // The session workload: every intermediate of every model, cycled.
    std::vector<FetchRequest> requests;
    for (ModelId id : mq.metadata().ListModels()) {
      const ModelInfo* model = Check(mq.metadata().GetModel(id));
      for (const IntermediateInfo& interm : model->intermediates) {
        FetchRequest req;
        req.project = model->project;
        req.model = model->name;
        req.intermediate = interm.name;
        req.n_ex = interm.num_rows < 32 ? interm.num_rows : 32;
        requests.push_back(std::move(req));
      }
    }
    if (requests.empty()) {
      std::fprintf(stderr, "store has no intermediates to query\n");
      return 1;
    }

    QueryServiceOptions service_options;
    service_options.num_workers = workers;
    QueryService service(&mq, service_options);
    std::printf("service_session: %zu sessions x %zu queries, %zu workers, "
                "%zu distinct intermediates\n",
                num_sessions, queries, service.num_workers(),
                requests.size());

    std::atomic<uint64_t> errors{0};
    const auto start = std::chrono::steady_clock::now();
    std::vector<std::thread> clients;
    for (size_t s = 0; s < num_sessions; ++s) {
      clients.emplace_back([&, s] {
        const SessionId session = service.OpenSession();
        for (size_t q = 0; q < queries; ++q) {
          const FetchRequest& req = requests[(s + q) % requests.size()];
          if (!service.Fetch(session, req).ok()) errors++;
        }
        Check(service.CloseSession(session));
      });
    }
    for (auto& t : clients) t.join();
    const double elapsed =
        std::chrono::duration<double>(std::chrono::steady_clock::now() - start)
            .count();

    const ServiceStats stats = service.Stats();
    const uint64_t total = num_sessions * queries;
    std::printf("elapsed:        %.3fs (%.0f queries/s)\n", elapsed,
                static_cast<double>(total) / elapsed);
    std::printf("completed:      %llu (%llu cache hits)\n",
                static_cast<unsigned long long>(stats.completed),
                static_cast<unsigned long long>(stats.cache_hits));
    std::printf("rejected:       %llu   expired: %llu   failed: %llu\n",
                static_cast<unsigned long long>(stats.rejected),
                static_cast<unsigned long long>(stats.expired),
                static_cast<unsigned long long>(stats.failed));
    std::printf("latency:        p50 %.2fms  p95 %.2fms  p99 %.2fms\n",
                stats.p50_latency_sec * 1e3, stats.p95_latency_sec * 1e3,
                stats.p99_latency_sec * 1e3);
    std::printf("disk read:      %.1fKB\n", stats.bytes_read / 1e3);
    return errors.load() == 0 ? 0 : 1;
  }
  if (command == "serve") {
    const uint16_t port =
        argc >= 4 ? static_cast<uint16_t>(std::strtoul(argv[3], nullptr, 10))
                  : 0;
    const size_t workers = argc >= 5 ? std::strtoull(argv[4], nullptr, 10) : 4;

    ApplyTracePolicyFromEnv();
    QueryServiceOptions service_options;
    service_options.num_workers = workers;
    QueryService service(&mq, service_options);

    net::ServerOptions server_options;
    server_options.port = port;
    net::Server server(&service, server_options);
    Check(server.Start());

    std::signal(SIGINT, HandleSignal);
    std::signal(SIGTERM, HandleSignal);
    std::printf("serving %s on %s:%u with %zu workers (SIGTERM to stop)\n",
                store_dir.c_str(), server_options.host.c_str(),
                static_cast<unsigned>(server.port()), service.num_workers());
    std::fflush(stdout);

    while (!g_shutdown.load()) {
      std::this_thread::sleep_for(std::chrono::milliseconds(100));
    }
    std::printf("shutting down: draining in-flight queries...\n");
    std::fflush(stdout);
    server.Stop();

    const ServiceStats stats = service.Stats();
    const net::ServerStats net_stats = server.Stats();
    std::printf("drained: %llu completed, %llu abandoned, %llu rejected; "
                "%llu connections served, %llu protocol errors\n",
                static_cast<unsigned long long>(stats.completed),
                static_cast<unsigned long long>(stats.abandoned),
                static_cast<unsigned long long>(stats.rejected),
                static_cast<unsigned long long>(net_stats.connections_accepted),
                static_cast<unsigned long long>(net_stats.protocol_errors));
    return 0;
  }
  if (command == "train_serve") {
    // The MVCC demo (docs/MVCC.md): serve the store over TCP while a
    // training loop streams checkpoints into the SAME engine. Remote
    // readers query already-published checkpoints with zero stalls; each
    // LogNetwork publishes atomically, so a checkpoint is either fully
    // visible or not listed at all.
    const uint16_t port =
        argc >= 4 ? static_cast<uint16_t>(std::strtoul(argv[3], nullptr, 10))
                  : 0;
    const size_t workers = argc >= 5 ? std::strtoull(argv[4], nullptr, 10) : 4;
    const int epochs = argc >= 6 ? std::atoi(argv[5]) : 4;
    const int rows = argc >= 7 ? std::atoi(argv[6]) : 256;

    ApplyTracePolicyFromEnv();
    QueryServiceOptions service_options;
    service_options.num_workers = workers;
    QueryService service(&mq, service_options);

    net::ServerOptions server_options;
    server_options.port = port;
    net::Server server(&service, server_options);
    Check(server.Start());

    std::signal(SIGINT, HandleSignal);
    std::signal(SIGTERM, HandleSignal);
    std::printf("serving %s on %s:%u with %zu workers (SIGTERM to stop)\n",
                store_dir.c_str(), server_options.host.c_str(),
                static_cast<unsigned>(server.port()), service.num_workers());
    std::fflush(stdout);

    // The training loop: one CIFAR CNN, perturbed a little each epoch
    // (simulated fine-tuning); every epoch's activations are logged as a
    // checkpoint model. Runs on this thread — the server threads keep
    // answering queries throughout.
    CifarConfig data_config;
    data_config.num_examples = rows;
    const CifarData data = GenerateCifar(data_config);
    auto input = std::make_shared<Tensor>(data.images);
    auto net = BuildCifarCnn({});
    for (int epoch = 0; epoch < epochs && !g_shutdown.load(); ++epoch) {
      if (epoch > 0) {
        net->PerturbTrainable(700 + static_cast<uint64_t>(epoch),
                              0.05 / epoch);
      }
      Check(mq.LogNetwork(net.get(), input, "cifar",
                          "ckpt_e" + std::to_string(epoch))
                .status());
      Check(mq.SaveCatalog());
      std::printf("published cifar.ckpt_e%d (mvcc epoch %llu)\n", epoch,
                  static_cast<unsigned long long>(mq.CurrentEpoch()));
      std::fflush(stdout);
    }
    std::printf("training done: %d checkpoints\n", epochs);
    std::fflush(stdout);

    while (!g_shutdown.load()) {
      std::this_thread::sleep_for(std::chrono::milliseconds(100));
    }
    std::printf("shutting down: draining in-flight queries...\n");
    std::fflush(stdout);
    server.Stop();

    const ServiceStats stats = service.Stats();
    std::printf("drained: %llu completed, %llu rejected, %llu failed\n",
                static_cast<unsigned long long>(stats.completed),
                static_cast<unsigned long long>(stats.rejected),
                static_cast<unsigned long long>(stats.failed));
    return 0;
  }
  if (command == "metrics") {
    // A throwaway service so the exposition includes the service-level
    // histograms/gauges alongside the engine and storage metrics the
    // catalog recovery above already populated.
    QueryService service(&mq);
    std::fputs(service.MetricsText().c_str(), stdout);
    return 0;
  }
  if (command == "flightrec" || command == "slowlog") {
    // Local profiling: fetch every intermediate once through a
    // fully-sampled service, then dump what the recorder retained —
    // `flightrec` shows the recent ring (newest first), `slowlog` the
    // slowest queries. A tiny slow threshold means everything also
    // lands in the slow log, so both views work on a one-shot workload.
    const size_t n = argc >= 4 ? std::strtoull(argv[3], nullptr, 10) : 0;
    obs::FlightRecorder& recorder = obs::GlobalFlightRecorder();
    recorder.SetPolicy(1.0, 1e-9);
    QueryService service(&mq);
    const SessionId session = service.OpenSession();
    for (ModelId id : mq.metadata().ListModels()) {
      const ModelInfo* model = Check(mq.metadata().GetModel(id));
      for (const IntermediateInfo& interm : model->intermediates) {
        FetchRequest req;
        req.project = model->project;
        req.model = model->name;
        req.intermediate = interm.name;
        req.n_ex = interm.num_rows < 32 ? interm.num_rows : 32;
        (void)service.Fetch(session, req);
      }
    }
    Check(service.CloseSession(session));
    const std::vector<obs::QueryTrace> traces =
        command == "slowlog" ? recorder.SlowLog(n) : recorder.Dump(n);
    PrintTraceList(traces);
    if (command == "flightrec" && argc >= 5 && !traces.empty()) {
      ExportChromeJson(traces.front(), argv[4]);
    }
    return 0;
  }
  if (command == "trace" && argc >= 4) {
    const uint64_t n = argc >= 5 ? std::strtoull(argv[4], nullptr, 10) : 10;
    FetchRequest request =
        Check(Mistique::ParseIntermediateKeys({argv[3]}, n));
    QueryService service(&mq);
    const SessionId session = service.OpenSession();
    std::promise<Answer<FetchResult>> answered;
    service.Submit(session, request, /*deadline_sec=*/-1,
                   obs::TraceParent{obs::NewTraceId(), 0},
                   [&answered](Answer<FetchResult> answer) {
                     answered.set_value(std::move(answer));
                   });
    Answer<FetchResult> answer = answered.get_future().get();
    const FetchResult result = Check(std::move(answer.result));
    std::fputs(answer.trace->Format().c_str(), stdout);
    const size_t rows = result.columns.empty() ? 0 : result.columns[0].size();
    std::fprintf(stderr, "(%zu rows x %zu cols via %s)\n", rows,
                 result.columns.size(), result.used_read ? "read" : "re-run");
    return 0;
  }
  if (command == "stats") {
    std::printf("models:            %zu\n", mq.metadata().num_models());
    std::printf("partitions on disk: %zu\n",
                mq.store().disk().num_partitions());
    std::printf("compressed bytes:  %llu\n",
                static_cast<unsigned long long>(mq.store().stored_bytes()));
    std::printf("chunks indexed:    %zu\n", mq.store().num_chunks());
    return 0;
  }
  return Usage();
}
