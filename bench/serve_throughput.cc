// Serving throughput — requests/sec and latency percentiles of the dbsd
// request path over a clients x pipeline x workers grid.
//
// For each grid row the bench stands up the full served stack — registry,
// batch executor, loopback TCP server — and hammers it with concurrent
// clients issuing density batches, the subsystem's bread-and-butter
// request. Clients drive the raw frame stream (Submit/ReadResponseFrame)
// with up to `pipeline` requests in flight, and check EVERY response
// against the expected frame bytes (computed once through the same
// dispatch path the server uses): the bench exits nonzero on any
// mismatch. Reported per row: requests/sec and client-observed p50/p99
// latency. Output is a human-readable table on stdout plus machine-readable
// JSON (BENCH_serve_throughput.json, override with out=; empty skips it)
// stamped with nproc, compiler, build type and the git_sha= passed in.
//
//   serve_throughput [clients=4] [batches=40] [points=2000] [kernels=64]
//                    [workers=1,2,4,8] [pipeline=1] [git_sha=unavailable]
//                    [out=BENCH_serve_throughput.json]
//
// clients=, workers= and pipeline= take comma lists; batches= is per
// client, so a row serves clients * batches requests.

#include <chrono>
#include <cstdio>
#include <deque>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "bench_meta.h"
#include "density/kde.h"
#include "parallel/batch_executor.h"
#include "serve/client.h"
#include "serve/dispatch.h"
#include "serve/model_registry.h"
#include "serve/server.h"
#include "serve/service.h"
#include "synth/generator.h"
#include "tools/flags.h"
#include "util/check.h"
#include "util/stats.h"

namespace {

using Clock = std::chrono::steady_clock;

struct RunResult {
  int clients = 0;
  int workers = 0;
  int pipeline = 1;
  int64_t requests = 0;
  int64_t failed = 0;
  int64_t mismatched = 0;
  double seconds = 0.0;
  double requests_per_sec = 0.0;
  double points_per_sec = 0.0;
  double p50_us = 0.0;
  double p99_us = 0.0;
};

dbs::data::PointSet MakeData(int64_t n, uint64_t seed) {
  dbs::synth::ClusteredDatasetOptions opts;
  opts.num_clusters = 5;
  opts.num_cluster_points = n;
  opts.noise_multiplier = 0.1;
  opts.seed = seed;
  auto ds = dbs::synth::MakeClusteredDataset(opts);
  DBS_CHECK(ds.ok());
  return std::move(ds)->points;
}

RunResult RunOne(int clients, int workers, int batches_per_client,
                 int pipeline,
                 const std::shared_ptr<const dbs::density::Kde>& model,
                 const std::vector<uint8_t>& request_bytes,
                 const std::vector<uint8_t>& expected_response_bytes,
                 int64_t points_per_batch) {
  dbs::serve::ModelRegistry registry;
  DBS_CHECK(registry.Put("est", model, "kde").ok());

  dbs::parallel::BatchExecutorOptions pool;
  pool.num_workers = workers;
  pool.queue_capacity = 4096;
  dbs::parallel::BatchExecutor executor(pool);
  dbs::serve::ModelService service(&registry, &executor);
  auto server =
      dbs::serve::Server::Start(&service, dbs::serve::ServerOptions{});
  DBS_CHECK(server.ok());

  // The already-encoded request frame is replayed verbatim, so the per
  // request client cost is pure transport.
  size_t header = 0;
  auto request_frame = dbs::serve::DecodeFrame(
      request_bytes.data(), request_bytes.size(), &header);
  DBS_CHECK(request_frame.ok());

  std::vector<std::vector<double>> latencies(clients);
  std::vector<int64_t> failures(clients, 0);
  std::vector<int64_t> mismatches(clients, 0);
  std::vector<std::thread> threads;
  Clock::time_point start = Clock::now();
  for (int c = 0; c < clients; ++c) {
    threads.emplace_back([&, c] {
      auto client = dbs::serve::Client::Connect((*server)->port());
      DBS_CHECK(client.ok());
      latencies[c].reserve(batches_per_client);
      std::deque<Clock::time_point> sent;
      int submitted = 0;
      int received = 0;
      while (received < batches_per_client) {
        while (submitted < batches_per_client &&
               submitted - received < pipeline) {
          sent.push_back(Clock::now());
          dbs::Status pushed = client->Submit(request_frame->type,
                                              request_frame->payload);
          if (!pushed.ok()) {
            failures[c] += batches_per_client - received;
            return;
          }
          ++submitted;
        }
        auto response = client->ReadResponseFrame();
        if (!response.ok()) {
          failures[c] += batches_per_client - received;
          return;
        }
        double us = std::chrono::duration<double, std::micro>(Clock::now() -
                                                              sent.front())
                        .count();
        sent.pop_front();
        latencies[c].push_back(us);
        if (dbs::serve::EncodeFrame(response->type, response->payload) !=
            expected_response_bytes) {
          ++mismatches[c];
        }
        ++received;
      }
    });
  }
  for (auto& thread : threads) thread.join();
  double seconds =
      std::chrono::duration<double>(Clock::now() - start).count();
  (*server)->Stop();
  executor.Shutdown();

  RunResult result;
  result.clients = clients;
  result.workers = workers;
  result.pipeline = pipeline;
  result.seconds = seconds;
  std::vector<double> all;
  for (int c = 0; c < clients; ++c) {
    result.requests += static_cast<int64_t>(latencies[c].size());
    result.failed += failures[c];
    result.mismatched += mismatches[c];
    all.insert(all.end(), latencies[c].begin(), latencies[c].end());
  }
  if (seconds > 0) {
    result.requests_per_sec = static_cast<double>(result.requests) / seconds;
    result.points_per_sec =
        result.requests_per_sec * static_cast<double>(points_per_batch);
  }
  if (!all.empty()) {
    result.p50_us = dbs::Percentile(all, 0.5);
    result.p99_us = dbs::Percentile(all, 0.99);
  }
  return result;
}

bool ParseIntList(const std::string& spec, std::vector<int>* out) {
  size_t pos = 0;
  while (pos < spec.size()) {
    size_t comma = spec.find(',', pos);
    if (comma == std::string::npos) comma = spec.size();
    int value = std::atoi(spec.substr(pos, comma - pos).c_str());
    if (value <= 0) return false;
    out->push_back(value);
    pos = comma + 1;
  }
  return !out->empty();
}

void WriteJson(const std::string& path, const std::string& git_sha,
               int batches, int64_t points, int64_t kernels,
               const std::vector<RunResult>& results) {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) {
    std::fprintf(stderr, "cannot write %s\n", path.c_str());
    return;
  }
  std::fprintf(f, "{\n  \"bench\": \"serve_throughput\",\n");
  dbs::bench::WriteBenchMeta(f, git_sha);
  std::fprintf(f,
               "  \"batches_per_client\": %d,\n"
               "  \"points_per_batch\": %lld,\n  \"kernels\": %lld,\n"
               "  \"results\": [\n",
               batches, static_cast<long long>(points),
               static_cast<long long>(kernels));
  for (size_t i = 0; i < results.size(); ++i) {
    const RunResult& r = results[i];
    std::fprintf(f,
                 "    {\"clients\": %d, \"workers\": %d, "
                 "\"pipeline\": %d, \"requests\": %lld, "
                 "\"failed\": %lld, \"mismatched\": %lld, "
                 "\"seconds\": %.6f, "
                 "\"requests_per_sec\": %.2f, \"points_per_sec\": %.1f, "
                 "\"p50_us\": %.1f, \"p99_us\": %.1f}%s\n",
                 r.clients, r.workers, r.pipeline,
                 static_cast<long long>(r.requests),
                 static_cast<long long>(r.failed),
                 static_cast<long long>(r.mismatched), r.seconds,
                 r.requests_per_sec, r.points_per_sec, r.p50_us, r.p99_us,
                 i + 1 < results.size() ? "," : "");
  }
  std::fprintf(f, "  ]\n}\n");
  std::fclose(f);
  std::printf("wrote %s\n", path.c_str());
}

}  // namespace

int main(int argc, char** argv) {
  dbs::tools::Flags flags;
  if (!flags.Parse(argc, argv)) return 2;
  std::string clients_spec = flags.GetString("clients", "4");
  int batches = static_cast<int>(flags.GetInt("batches", 40));
  int64_t points = flags.GetInt("points", 2000);
  int64_t kernels = flags.GetInt("kernels", 64);
  std::string workers_spec = flags.GetString("workers", "1,2,4,8");
  std::string pipeline_spec = flags.GetString("pipeline", "1");
  std::string git_sha = flags.GetString("git_sha", "unavailable");
  std::string out = flags.GetString("out", "BENCH_serve_throughput.json");
  if (!flags.AllKnown()) return 2;
  std::vector<int> client_counts;
  std::vector<int> worker_counts;
  std::vector<int> pipelines;
  if (!ParseIntList(clients_spec, &client_counts) ||
      !ParseIntList(workers_spec, &worker_counts) ||
      !ParseIntList(pipeline_spec, &pipelines)) {
    std::fprintf(stderr, "clients=, workers= and pipeline= must be lists of "
                         "positive integers\n");
    return 2;
  }

  dbs::data::PointSet train = MakeData(20000, 23);
  dbs::density::KdeOptions kde_opts;
  kde_opts.num_kernels = kernels;
  kde_opts.seed = 7;
  auto kde = dbs::density::Kde::Fit(train, kde_opts);
  DBS_CHECK(kde.ok());
  auto model = std::make_shared<const dbs::density::Kde>(
      std::move(kde).value());
  dbs::data::PointSet queries = MakeData(points, 99);

  // The ground-truth response frame, computed through the same dispatch
  // path the server runs. Every served response must match these bytes
  // exactly — any drift is a transport bug, not noise.
  dbs::serve::DensityBatchRequest request;
  request.model = "est";
  request.points = queries;
  std::vector<uint8_t> request_bytes = dbs::serve::EncodeFrame(
      dbs::serve::MessageType::kDensityRequest,
      dbs::serve::EncodeDensityRequest(request));
  std::vector<uint8_t> expected_bytes;
  {
    dbs::serve::ModelRegistry registry;
    DBS_CHECK(registry.Put("est", model, "kde").ok());
    dbs::parallel::BatchExecutorOptions pool;
    pool.num_workers = 1;
    dbs::parallel::BatchExecutor executor(pool);
    dbs::serve::ModelService service(&registry, &executor);
    size_t consumed = 0;
    auto frame = dbs::serve::DecodeFrame(request_bytes.data(),
                                         request_bytes.size(), &consumed);
    DBS_CHECK(frame.ok());
    dbs::serve::DispatchResult reference =
        dbs::serve::DispatchFrame(&service, *frame);
    DBS_CHECK(reference.response.type ==
              dbs::serve::MessageType::kDensityResponse);
    expected_bytes = dbs::serve::EncodeFrame(reference.response.type,
                                             reference.response.payload);
    executor.Shutdown();
  }

  std::printf("serve_throughput: %d density batches per client of %lld "
              "points (%lld kernels)\n\n",
              batches, static_cast<long long>(queries.size()),
              static_cast<long long>(kernels));
  std::printf("%7s %8s %8s %10s %8s %9s %12s %14s %10s %10s\n", "clients",
              "pipeline", "workers", "requests", "failed", "mismatch",
              "req/s", "points/s", "p50_us", "p99_us");
  std::vector<RunResult> results;
  int64_t total_mismatched = 0;
  int64_t total_failed = 0;
  for (int clients : client_counts) {
    for (int pipeline : pipelines) {
      for (int workers : worker_counts) {
        RunResult result =
            RunOne(clients, workers, batches, pipeline, model, request_bytes,
                   expected_bytes, queries.size());
        std::printf(
            "%7d %8d %8d %10lld %8lld %9lld %12.1f %14.0f %10.1f %10.1f\n",
            result.clients, result.pipeline, result.workers,
            static_cast<long long>(result.requests),
            static_cast<long long>(result.failed),
            static_cast<long long>(result.mismatched),
            result.requests_per_sec, result.points_per_sec, result.p50_us,
            result.p99_us);
        total_mismatched += result.mismatched;
        total_failed += result.failed;
        results.push_back(result);
      }
    }
  }
  if (!out.empty()) {
    WriteJson(out, git_sha, batches, queries.size(), kernels, results);
  }
  if (total_mismatched > 0) {
    std::fprintf(stderr,
                 "FAIL: %lld response frame(s) differed from the expected "
                 "bytes\n",
                 static_cast<long long>(total_mismatched));
    return 1;
  }
  if (total_failed > 0) {
    std::fprintf(stderr, "FAIL: %lld request(s) failed\n",
                 static_cast<long long>(total_failed));
    return 1;
  }
  return 0;
}
