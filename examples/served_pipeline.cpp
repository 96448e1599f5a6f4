// Served pipeline: fit once, save the model, serve it over TCP.
//
//   1. Generate a clustered dataset and fit a KDE (the expensive pass).
//   2. Save the model to a .dbsk file — a few KB, not the dataset.
//   3. Stand up the serving stack (registry + executor + loopback server)
//      and register the saved model by name.
//   4. As a client that fits nothing: ask for densities, a density-biased
//      sample and outlier scores over the wire.
//   5. Print the daemon's request stats and shut everything down.
//
// The same stack runs standalone as the `dbsd` daemon with the `dbs_query`
// client; this example wires it up in-process so it is runnable (and
// CI-checkable) without background processes.
//
// Build & run:  ./build/examples/served_pipeline

#include <cstdio>
#include <string>

#include "density/kde.h"
#include "density/kde_io.h"
#include "parallel/batch_executor.h"
#include "serve/client.h"
#include "serve/model_registry.h"
#include "serve/server.h"
#include "serve/service.h"
#include "synth/generator.h"

namespace {

int Fail(const dbs::Status& status, const char* what) {
  std::fprintf(stderr, "%s: %s\n", what, status.ToString().c_str());
  return 1;
}

}  // namespace

int main() {
  // 1. Dataset + KDE fit (the only step that ever sees the raw points).
  dbs::synth::ClusteredDatasetOptions data_opts;
  data_opts.num_clusters = 5;
  data_opts.num_cluster_points = 20000;
  data_opts.noise_multiplier = 0.1;
  data_opts.seed = 42;
  auto dataset = dbs::synth::MakeClusteredDataset(data_opts);
  if (!dataset.ok()) return Fail(dataset.status(), "generator");

  dbs::density::KdeOptions kde_opts;
  kde_opts.num_kernels = 200;
  kde_opts.seed = 1;
  auto kde = dbs::density::Kde::Fit(dataset->points, kde_opts);
  if (!kde.ok()) return Fail(kde.status(), "kde fit");

  // 2. Persist the succinct model.
  const std::string model_path = "served_pipeline_model.dbsk";
  dbs::Status saved = dbs::density::SaveKde(*kde, model_path);
  if (!saved.ok()) return Fail(saved, "save model");
  std::printf("saved %lld-kernel model to %s\n",
              static_cast<long long>(kde->num_kernels()),
              model_path.c_str());

  // 3. The serving stack. Port 0 picks an ephemeral loopback port.
  dbs::serve::ModelRegistry registry;
  dbs::parallel::BatchExecutorOptions pool;
  pool.num_workers = 4;
  dbs::parallel::BatchExecutor executor(pool);
  dbs::serve::ModelService service(&registry, &executor);
  auto server =
      dbs::serve::Server::Start(&service, dbs::serve::ServerOptions{});
  if (!server.ok()) return Fail(server.status(), "server start");
  std::printf("serving on 127.0.0.1:%u\n", (*server)->port());

  // 4. A client that fits nothing: it registers the saved file and asks
  // questions. (With the standalone daemon this is `dbs_query op=...`.)
  auto client = dbs::serve::Client::Connect((*server)->port());
  if (!client.ok()) return Fail(client.status(), "connect");
  dbs::Status registered = client->RegisterModel("est", model_path);
  if (!registered.ok()) return Fail(registered, "register");

  // Density batch over fresh query points.
  dbs::synth::ClusteredDatasetOptions query_opts = data_opts;
  query_opts.num_cluster_points = 2000;
  query_opts.seed = 99;
  auto queries = dbs::synth::MakeClusteredDataset(query_opts);
  if (!queries.ok()) return Fail(queries.status(), "query generator");

  dbs::serve::DensityBatchRequest density_request;
  density_request.model = "est";
  density_request.points = queries->points;
  auto densities = client->Density(density_request);
  if (!densities.ok()) return Fail(densities.status(), "density");
  double mean = 0;
  for (double f : densities->densities) mean += f;
  mean /= static_cast<double>(densities->densities.size());
  std::printf("density batch: %zu points, mean f = %.4f\n",
              densities->densities.size(), mean);

  // Density-biased sample (a = 0.5) drawn server-side.
  dbs::serve::SampleRequest sample_request;
  sample_request.model = "est";
  sample_request.a = 0.5;
  sample_request.target_size = 500;
  sample_request.seed = 7;
  sample_request.points = queries->points;
  auto sample = client->Sample(sample_request);
  if (!sample.ok()) return Fail(sample.status(), "sample");
  std::printf("biased sample: %lld points (normalizer %.4f, clamped %lld)\n",
              static_cast<long long>(sample->points.size()),
              sample->normalizer,
              static_cast<long long>(sample->clamped_count));

  // Outlier scores: expected neighbors within the ball, N'(O, k).
  dbs::serve::OutlierScoreBatchRequest outlier_request;
  outlier_request.model = "est";
  outlier_request.radius = 0.1;
  outlier_request.max_neighbors = 50;
  outlier_request.points = queries->points;
  auto outliers = client->OutlierScores(outlier_request);
  if (!outliers.ok()) return Fail(outliers.status(), "outlier scores");
  long long flagged = 0;
  for (uint8_t flag : outliers->likely_outlier) flagged += flag;
  std::printf("outlier batch: %zu points scored, %lld likely outliers\n",
              outliers->expected_neighbors.size(), flagged);

  // 5. Stats, then a clean teardown.
  auto stats = client->Stats();
  if (!stats.ok()) return Fail(stats.status(), "stats");
  std::printf("daemon stats:\n");
  for (const auto& row : stats->per_type) {
    std::printf("  %-15s count=%llu points=%llu p50=%.0fus p99=%.0fus\n",
                dbs::serve::RequestTypeName(row.type),
                static_cast<unsigned long long>(row.count),
                static_cast<unsigned long long>(row.points),
                row.latency_p50_us, row.latency_p99_us);
  }

  (*server)->Stop();
  executor.Shutdown();
  std::remove(model_path.c_str());
  std::printf("done\n");
  return 0;
}
