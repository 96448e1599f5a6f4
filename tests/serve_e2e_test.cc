// End-to-end: the served path vs the in-process library, bitwise.
//
// The acceptance property of the serving subsystem (ISSUE): a client that
// fits nothing registers a saved .dbsk, then a 10k-point density batch, a
// biased-sample request (a=0.5) and an outlier-score batch over loopback
// TCP return results bitwise identical — same seed — to direct library
// calls on the same loaded model, under >= 4 concurrent clients, with a
// clean shutdown. This test IS that acceptance check.

#include <arpa/inet.h>
#include <netinet/in.h>
#include <sys/socket.h>
#include <unistd.h>

#include <atomic>
#include <cmath>
#include <limits>
#include <string>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "core/biased_sampler.h"
#include "density/kde.h"
#include "density/kde_io.h"
#include "outlier/ball_integration.h"
#include "parallel/batch_executor.h"
#include "serve/client.h"
#include "serve/dispatch.h"
#include "serve/model_registry.h"
#include "serve/server.h"
#include "serve/service.h"
#include "serve/wire.h"
#include "test_temp.h"
#include "util/rng.h"

namespace dbs {
namespace {

constexpr int kDim = 3;

data::PointSet MakePoints(uint64_t seed, int64_t n) {
  Rng rng(seed);
  data::PointSet points(kDim);
  std::vector<double> row(kDim);
  for (int64_t i = 0; i < n; ++i) {
    // Two blobs plus a sprinkle of far-out points so outlier flags differ.
    bool sparse = (i % 97) == 0;
    for (int j = 0; j < kDim; ++j) {
      row[j] = sparse ? rng.NextDouble(-8.0, 8.0)
                      : rng.NextGaussian(i % 2 == 0 ? -1.0 : 1.0, 0.4);
    }
    points.Append(row);
  }
  return points;
}

// Everything a test needs: a daemon serving one .dbsk model, plus the same
// model loaded in-process for computing expectations.
class ServeE2eTest : public ::testing::Test {
 protected:
  void SetUp() override {
    model_path_ = test::TempPath("serve_e2e.dbsk");
    density::KdeOptions options;
    options.num_kernels = 64;
    options.seed = 7;
    auto fitted = density::Kde::Fit(MakePoints(42, 2000), options);
    ASSERT_TRUE(fitted.ok()) << fitted.status().ToString();
    ASSERT_TRUE(density::SaveKde(*fitted, model_path_).ok());

    // The reference model is loaded from the same file the daemon loads.
    auto loaded = density::LoadKde(model_path_);
    ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();
    reference_ = std::make_unique<density::Kde>(std::move(loaded).value());

    parallel::BatchExecutorOptions pool;
    pool.num_workers = 4;
    pool.queue_capacity = 1024;
    executor_ = std::make_unique<parallel::BatchExecutor>(pool);
    service_ =
        std::make_unique<serve::ModelService>(&registry_, executor_.get());
    auto server = serve::Server::Start(service_.get(), serve::ServerOptions{});
    ASSERT_TRUE(server.ok()) << server.status().ToString();
    server_ = std::move(server).value();
  }

  void TearDown() override {
    if (server_ != nullptr) server_->Stop();
    if (executor_ != nullptr) executor_->Shutdown();
    std::remove(model_path_.c_str());
  }

  serve::Client ConnectOrDie() {
    auto client = serve::Client::Connect(server_->port());
    DBS_CHECK(client.ok());
    return std::move(client).value();
  }

  std::string model_path_;
  std::unique_ptr<density::Kde> reference_;
  serve::ModelRegistry registry_;
  std::unique_ptr<parallel::BatchExecutor> executor_;
  std::unique_ptr<serve::ModelService> service_;
  std::unique_ptr<serve::Server> server_;
};

TEST_F(ServeE2eTest, ServedAnswersAreBitwiseIdenticalToLibraryCalls) {
  serve::Client client = ConnectOrDie();
  ASSERT_TRUE(client.RegisterModel("est", model_path_).ok());

  const data::PointSet queries = MakePoints(99, 10000);

  // --- Density batch -------------------------------------------------------
  serve::DensityBatchRequest density_request;
  density_request.model = "est";
  density_request.points = queries;
  auto density = client.Density(density_request);
  ASSERT_TRUE(density.ok()) << density.status().ToString();
  ASSERT_EQ(density->densities.size(), 10000u);
  for (int64_t i = 0; i < queries.size(); ++i) {
    ASSERT_EQ(density->densities[static_cast<size_t>(i)],
              reference_->Evaluate(queries[i]))
        << "density diverges from the library at point " << i;
  }

  // --- Biased sample, a = 0.5, fixed seed ----------------------------------
  serve::SampleRequest sample_request;
  sample_request.model = "est";
  sample_request.a = 0.5;
  sample_request.target_size = 500;
  sample_request.seed = 1234;
  sample_request.points = queries;
  auto sample = client.Sample(sample_request);
  ASSERT_TRUE(sample.ok()) << sample.status().ToString();

  core::BiasedSamplerOptions sampler_options;
  sampler_options.a = sample_request.a;
  sampler_options.target_size = sample_request.target_size;
  sampler_options.density_floor_fraction =
      sample_request.density_floor_fraction;
  sampler_options.seed = sample_request.seed;
  auto expected_sample =
      core::BiasedSampler(sampler_options).Run(queries, *reference_);
  ASSERT_TRUE(expected_sample.ok());
  EXPECT_GT(sample->points.size(), 0);
  EXPECT_EQ(sample->points.flat(), expected_sample->points.flat());
  EXPECT_EQ(sample->inclusion_probs, expected_sample->inclusion_probs);
  EXPECT_EQ(sample->densities, expected_sample->densities);
  EXPECT_EQ(sample->normalizer, expected_sample->normalizer);
  EXPECT_EQ(sample->clamped_count, expected_sample->clamped_count);

  // Same request again: the daemon is deterministic per (request, seed).
  auto replay = client.Sample(sample_request);
  ASSERT_TRUE(replay.ok());
  EXPECT_EQ(replay->points.flat(), sample->points.flat());

  // --- Outlier-score batch -------------------------------------------------
  serve::OutlierScoreBatchRequest outlier_request;
  outlier_request.model = "est";
  outlier_request.radius = 0.5;
  outlier_request.max_neighbors = 20;
  outlier_request.metric = data::Metric::kL2;
  outlier_request.integration = outlier::BallIntegration::kQuasiMonteCarlo;
  outlier_request.qmc_samples = 32;
  outlier_request.points = MakePoints(7, 2000);
  auto outliers = client.OutlierScores(outlier_request);
  ASSERT_TRUE(outliers.ok()) << outliers.status().ToString();
  ASSERT_EQ(outliers->expected_neighbors.size(), 2000u);

  const outlier::BallIntegrator integrator(
      outlier_request.integration, kDim, outlier_request.qmc_samples,
      outlier_request.metric);
  const double threshold =
      static_cast<double>(outlier_request.max_neighbors + 1);
  int64_t flagged = 0;
  for (int64_t i = 0; i < outlier_request.points.size(); ++i) {
    double expected = integrator.IntegrateExcludingSelf(
        *reference_, outlier_request.points[i], outlier_request.radius);
    ASSERT_EQ(outliers->expected_neighbors[static_cast<size_t>(i)], expected)
        << "outlier score diverges from the library at point " << i;
    EXPECT_EQ(outliers->likely_outlier[static_cast<size_t>(i)],
              expected <= threshold ? 1 : 0);
    flagged += outliers->likely_outlier[static_cast<size_t>(i)];
  }
  // The sprinkle of far-out points must actually trip the flag.
  EXPECT_GT(flagged, 0);
  EXPECT_LT(flagged, outlier_request.points.size());

  // --- Stats reflect the traffic ------------------------------------------
  auto stats = client.Stats();
  ASSERT_TRUE(stats.ok());
  ASSERT_EQ(stats->models.size(), 1u);
  EXPECT_EQ(stats->models[0], "est");
  bool saw_density = false;
  for (const auto& row : stats->per_type) {
    if (row.type == serve::RequestType::kDensityBatch) {
      saw_density = true;
      EXPECT_EQ(row.count, 1u);
      EXPECT_EQ(row.errors, 0u);
      EXPECT_EQ(row.points, 10000u);
      EXPECT_GT(row.latency_max_us, 0.0);
      EXPECT_GE(row.latency_p99_us, row.latency_p50_us);
    }
  }
  EXPECT_TRUE(saw_density);
}

TEST_F(ServeE2eTest, FourConcurrentClientsGetBitwiseIdenticalAnswers) {
  {
    serve::Client admin = ConnectOrDie();
    ASSERT_TRUE(admin.RegisterModel("est", model_path_).ok());
  }

  constexpr int kClients = 4;
  constexpr int kRoundsPerClient = 5;
  std::atomic<int64_t> mismatches{0};
  std::atomic<int64_t> completed{0};
  std::vector<std::thread> threads;
  for (int t = 0; t < kClients; ++t) {
    threads.emplace_back([&, t] {
      serve::Client client = ConnectOrDie();
      // Distinct per-client workload, deterministic expectations.
      const data::PointSet queries =
          MakePoints(1000 + static_cast<uint64_t>(t), 2500);
      std::vector<double> expected(static_cast<size_t>(queries.size()));
      for (int64_t i = 0; i < queries.size(); ++i) {
        expected[static_cast<size_t>(i)] = reference_->Evaluate(queries[i]);
      }
      for (int round = 0; round < kRoundsPerClient; ++round) {
        serve::DensityBatchRequest request;
        request.model = "est";
        request.points = queries;
        auto response = client.Density(request);
        if (!response.ok() || response->densities != expected) {
          mismatches.fetch_add(1);
          continue;
        }

        serve::SampleRequest sample_request;
        sample_request.model = "est";
        sample_request.a = 0.5;
        sample_request.target_size = 200;
        sample_request.seed = 55u + static_cast<uint64_t>(t);
        sample_request.points = queries;
        auto served = client.Sample(sample_request);
        core::BiasedSamplerOptions options;
        options.a = sample_request.a;
        options.target_size = sample_request.target_size;
        options.density_floor_fraction =
            sample_request.density_floor_fraction;
        options.seed = sample_request.seed;
        auto direct =
            core::BiasedSampler(options).Run(queries, *reference_);
        if (!served.ok() || !direct.ok() ||
            served->points.flat() != direct->points.flat() ||
            served->inclusion_probs != direct->inclusion_probs ||
            served->normalizer != direct->normalizer) {
          mismatches.fetch_add(1);
          continue;
        }
        completed.fetch_add(1);
      }
    });
  }
  for (auto& thread : threads) thread.join();
  EXPECT_EQ(mismatches.load(), 0);
  EXPECT_EQ(completed.load(), kClients * kRoundsPerClient);

  serve::Client probe = ConnectOrDie();
  auto stats = probe.Stats();
  ASSERT_TRUE(stats.ok());
  for (const auto& row : stats->per_type) {
    if (row.type == serve::RequestType::kDensityBatch) {
      EXPECT_EQ(row.count,
                static_cast<uint64_t>(kClients * kRoundsPerClient));
      EXPECT_EQ(row.errors, 0u);
    }
  }
}

TEST_F(ServeE2eTest, ErrorsComeBackAsStatusesAndConnectionSurvives) {
  serve::Client client = ConnectOrDie();

  // Unknown model.
  serve::DensityBatchRequest request;
  request.model = "nope";
  request.points = MakePoints(1, 10);
  auto response = client.Density(request);
  EXPECT_EQ(response.status().code(), StatusCode::kNotFound);

  // Registering a bogus path fails but keeps the connection usable.
  EXPECT_EQ(client.RegisterModel("bad", "/no/such/file.dbsk").code(),
            StatusCode::kIoError);

  ASSERT_TRUE(client.RegisterModel("est", model_path_).ok());

  // Dimension mismatch.
  serve::DensityBatchRequest mismatched;
  mismatched.model = "est";
  data::PointSet wrong_dim(kDim + 1);
  std::vector<double> row(kDim + 1, 0.0);
  wrong_dim.Append(row);
  mismatched.points = wrong_dim;
  EXPECT_EQ(client.Density(mismatched).status().code(),
            StatusCode::kInvalidArgument);

  // Eviction: served requests now fail, and re-registering heals them.
  ASSERT_TRUE(client.EvictModel("est").ok());
  request.model = "est";
  EXPECT_EQ(client.Density(request).status().code(), StatusCode::kNotFound);
  ASSERT_TRUE(client.RegisterModel("est", model_path_).ok());
  EXPECT_TRUE(client.Density(request).ok());
}

// Submit/ReadResponseFrame pipelining: up to four requests in flight on one
// connection answer exactly what the same requests answer one at a time.
TEST_F(ServeE2eTest, PipelinedDensityEqualsSequential) {
  serve::Client setup = ConnectOrDie();
  ASSERT_TRUE(setup.RegisterModel("est", model_path_).ok());

  std::vector<serve::DensityBatchRequest> requests;
  for (int b = 0; b < 8; ++b) {
    serve::DensityBatchRequest request;
    request.model = "est";
    request.points = MakePoints(static_cast<uint64_t>(100 + b), 150);
    requests.push_back(std::move(request));
  }

  serve::Client sequential = ConnectOrDie();
  serve::Client pipelined = ConnectOrDie();
  std::vector<serve::DensityBatchResponse> expected;
  for (const auto& request : requests) {
    auto response = sequential.Density(request);
    ASSERT_TRUE(response.ok()) << response.status().ToString();
    expected.push_back(std::move(response).value());
  }
  auto actual = pipelined.DensityPipelined(requests, /*window=*/4);
  ASSERT_TRUE(actual.ok()) << actual.status().ToString();
  ASSERT_EQ(actual->size(), expected.size());
  for (size_t i = 0; i < expected.size(); ++i) {
    EXPECT_EQ((*actual)[i].densities, expected[i].densities)
        << "batch " << i << " diverges under pipelining";
  }
}

// An error in the middle of a pipelined stream surfaces as the first error
// in request order, and the connection keeps serving afterwards.
TEST_F(ServeE2eTest, PipelinedErrorSurfacesInRequestOrder) {
  serve::Client setup = ConnectOrDie();
  ASSERT_TRUE(setup.RegisterModel("est", model_path_).ok());

  std::vector<serve::DensityBatchRequest> requests;
  for (int b = 0; b < 4; ++b) {
    serve::DensityBatchRequest request;
    request.model = b == 1 ? "nonesuch" : "est";
    request.points = MakePoints(static_cast<uint64_t>(b), 50);
    requests.push_back(std::move(request));
  }
  serve::Client client = ConnectOrDie();
  auto responses = client.DensityPipelined(requests, /*window=*/4);
  ASSERT_FALSE(responses.ok());
  EXPECT_EQ(responses.status().code(), StatusCode::kNotFound);
  serve::DensityBatchRequest request;
  request.model = "est";
  request.points = MakePoints(77, 50);
  auto after = client.Density(request);
  EXPECT_TRUE(after.ok()) << after.status().ToString();
}

TEST_F(ServeE2eTest, RemoteShutdownUnblocksWaitForShutdown) {
  std::atomic<bool> returned{false};
  std::thread waiter([&] {
    server_->WaitForShutdown();
    returned.store(true);
  });

  serve::Client client = ConnectOrDie();
  EXPECT_FALSE(returned.load());
  ASSERT_TRUE(client.RequestShutdown().ok());
  waiter.join();
  EXPECT_TRUE(returned.load());
  server_->Stop();

  // After Stop, new connections are refused.
  EXPECT_FALSE(serve::Client::Connect(server_->port()).ok());
}

// Opens a connection, sends nothing and half-closes it, then blocks until
// the server closes its end — by which point the connection's handler has
// returned.
void ConnectAndWaitForServerClose(uint16_t port) {
  int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  ASSERT_GE(fd, 0);
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  addr.sin_port = htons(port);
  ASSERT_EQ(::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)),
            0);
  ::shutdown(fd, SHUT_WR);
  char byte = 0;
  while (::read(fd, &byte, 1) > 0) {
  }
  ::close(fd);
}

TEST_F(ServeE2eTest, FinishedConnectionThreadsAreReaped) {
  // Each accept joins the handlers that have returned, so sequential
  // connections leave at most the last one's thread unjoined instead of
  // one per connection ever accepted.
  for (int i = 0; i < 64; ++i) ConnectAndWaitForServerClose(server_->port());
  EXPECT_LE(server_->unjoined_connection_threads(), 1u);

  // The server still serves.
  serve::Client client = ConnectOrDie();
  EXPECT_TRUE(client.Stats().ok());
}

TEST_F(ServeE2eTest, NanRadiusOutlierFrameIsAnErrorNotAnAbort) {
  // dbsd dispatches every frame through DispatchFrame, so a hostile radius
  // must come back as an ordinary error frame, not end the process.
  ASSERT_TRUE(registry_.LoadKdeFile("est", model_path_).ok());
  serve::OutlierScoreBatchRequest request;
  request.model = "est";
  request.radius = std::nan("");
  request.points = MakePoints(3, 50);
  serve::Frame frame{serve::MessageType::kOutlierRequest,
                     serve::EncodeOutlierRequest(request)};
  serve::DispatchResult result = serve::DispatchFrame(service_.get(), frame);
  EXPECT_EQ(result.response.type, serve::MessageType::kErrorResponse);
  EXPECT_EQ(serve::DecodeErrorResponse(result.response.payload).code(),
            StatusCode::kInvalidArgument);
  EXPECT_FALSE(result.close);
  EXPECT_FALSE(result.shutdown);

  // The same service answers a valid request afterwards.
  request.radius = 0.5;
  frame.payload = serve::EncodeOutlierRequest(request);
  result = serve::DispatchFrame(service_.get(), frame);
  EXPECT_EQ(result.response.type, serve::MessageType::kOutlierResponse);
  EXPECT_FALSE(result.close);
}

TEST_F(ServeE2eTest, NonFiniteCoordinatesGetAnAnswerAndTheDaemonServesOn) {
  // ValidatePoints checks only the dimension, so a NaN or infinite
  // coordinate reaches the KDE's cell arithmetic, which must answer for it
  // (exactly 0 for the Epanechnikov kernel: no center is in reach).
  serve::Client client = ConnectOrDie();
  ASSERT_TRUE(client.RegisterModel("est", model_path_).ok());
  serve::DensityBatchRequest request;
  request.model = "est";
  request.points = MakePoints(5, 20);
  const double nan = std::nan("");
  const double inf = std::numeric_limits<double>::infinity();
  const double odd[3][kDim] = {
      {nan, 0.5, 0.5}, {1e300, 0.5, 0.5}, {-inf, 0.2, 0.0}};
  for (const auto& row : odd) request.points.Append(data::PointView(row, kDim));
  auto response = client.Density(request);
  ASSERT_TRUE(response.ok()) << response.status().ToString();
  ASSERT_EQ(response->densities.size(), 23u);
  for (int64_t i = 0; i < request.points.size(); ++i) {
    const double want = i < 20 ? reference_->Evaluate(request.points[i]) : 0.0;
    EXPECT_EQ(response->densities[static_cast<size_t>(i)], want) << i;
  }

  // The daemon serves the next request on the same connection.
  request.points = MakePoints(6, 10);
  auto next = client.Density(request);
  ASSERT_TRUE(next.ok()) << next.status().ToString();
  EXPECT_EQ(next->densities[0], reference_->Evaluate(request.points[0]));
}

}  // namespace
}  // namespace dbs
