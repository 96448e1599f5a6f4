// Wire codec: exact round-trips for every message, and loader-grade
// robustness against corrupted bytes (io_robustness_test pattern): any
// flipped or truncated input is either decoded into a structurally valid
// message or rejected with an error Status — never a crash, hang or
// unbounded allocation.

#include <cstdint>
#include <cstring>
#include <string>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "serve/wire.h"
#include "util/rng.h"

namespace dbs {
namespace {

using namespace dbs::serve;  // NOLINT: test-local brevity

data::PointSet MakePoints(uint64_t seed, int dim, int64_t n) {
  Rng rng(seed);
  data::PointSet points(dim);
  std::vector<double> row(dim);
  for (int64_t i = 0; i < n; ++i) {
    for (int j = 0; j < dim; ++j) row[j] = rng.NextGaussian();
    points.Append(row);
  }
  return points;
}

TEST(ServeWireTest, RegisterRequestRoundTrip) {
  RegisterRequest request{"metro-kde", "/models/metro.dbsk"};
  auto decoded = DecodeRegisterRequest(EncodeRegisterRequest(request));
  ASSERT_TRUE(decoded.ok());
  EXPECT_EQ(decoded->name, request.name);
  EXPECT_EQ(decoded->path, request.path);
}

TEST(ServeWireTest, EvictRequestRoundTrip) {
  auto decoded = DecodeEvictRequest(EncodeEvictRequest({"gone"}));
  ASSERT_TRUE(decoded.ok());
  EXPECT_EQ(decoded->name, "gone");
}

TEST(ServeWireTest, DensityRequestRoundTripIsBitwise) {
  DensityBatchRequest request;
  request.model = "m";
  request.points = MakePoints(3, 5, 211);
  auto decoded = DecodeDensityRequest(EncodeDensityRequest(request));
  ASSERT_TRUE(decoded.ok());
  EXPECT_EQ(decoded->model, "m");
  EXPECT_EQ(decoded->points.dim(), 5);
  EXPECT_EQ(decoded->points.flat(), request.points.flat());
}

TEST(ServeWireTest, DensityResponseRoundTrip) {
  DensityBatchResponse response;
  response.densities = {0.0, 1.5, -3.25, 1e300, 5e-324};
  auto decoded = DecodeDensityResponse(EncodeDensityResponse(response));
  ASSERT_TRUE(decoded.ok());
  EXPECT_EQ(decoded->densities, response.densities);
}

TEST(ServeWireTest, SampleRequestRoundTrip) {
  SampleRequest request;
  request.model = "m";
  request.a = -0.5;
  request.target_size = 1234;
  request.density_floor_fraction = 1e-4;
  request.seed = 0xdeadbeefULL;
  request.points = MakePoints(4, 2, 97);
  auto decoded = DecodeSampleRequest(EncodeSampleRequest(request));
  ASSERT_TRUE(decoded.ok());
  EXPECT_EQ(decoded->model, "m");
  EXPECT_EQ(decoded->a, request.a);
  EXPECT_EQ(decoded->target_size, request.target_size);
  EXPECT_EQ(decoded->density_floor_fraction,
            request.density_floor_fraction);
  EXPECT_EQ(decoded->seed, request.seed);
  EXPECT_EQ(decoded->points.flat(), request.points.flat());
}

TEST(ServeWireTest, SampleResponseRoundTripAndLengthCheck) {
  SampleResponse response;
  response.points = MakePoints(5, 3, 17);
  response.inclusion_probs.assign(17, 0.25);
  response.densities.assign(17, 2.0);
  response.normalizer = 123.456;
  response.clamped_count = 3;
  auto decoded = DecodeSampleResponse(EncodeSampleResponse(response));
  ASSERT_TRUE(decoded.ok());
  EXPECT_EQ(decoded->points.flat(), response.points.flat());
  EXPECT_EQ(decoded->inclusion_probs, response.inclusion_probs);
  EXPECT_EQ(decoded->normalizer, response.normalizer);
  EXPECT_EQ(decoded->clamped_count, 3);

  // Parallel arrays of disagreeing lengths must be rejected.
  response.densities.pop_back();
  EXPECT_FALSE(
      DecodeSampleResponse(EncodeSampleResponse(response)).ok());
}

TEST(ServeWireTest, OutlierRequestRoundTripAndEnumValidation) {
  OutlierScoreBatchRequest request;
  request.model = "m";
  request.radius = 0.05;
  request.metric = data::Metric::kLinf;
  request.max_neighbors = 42;
  request.integration = outlier::BallIntegration::kQuasiMonteCarlo;
  request.qmc_samples = 128;
  request.points = MakePoints(6, 3, 31);
  auto decoded = DecodeOutlierRequest(EncodeOutlierRequest(request));
  ASSERT_TRUE(decoded.ok());
  EXPECT_EQ(decoded->metric, request.metric);
  EXPECT_EQ(decoded->integration, request.integration);
  EXPECT_EQ(decoded->qmc_samples, request.qmc_samples);
  EXPECT_EQ(decoded->max_neighbors, 42);
  EXPECT_EQ(decoded->points.flat(), request.points.flat());

  // An out-of-range metric enum must be rejected, not reinterpreted.
  std::vector<uint8_t> payload = EncodeOutlierRequest(request);
  // metric is the u32 right after the name (u32 len + 1 byte) and radius.
  size_t metric_offset = 4 + 1 + 8;
  payload[metric_offset] = 0x7f;
  EXPECT_FALSE(DecodeOutlierRequest(payload).ok());
}

TEST(ServeWireTest, OutlierResponseRoundTrip) {
  OutlierScoreBatchResponse response;
  response.expected_neighbors = {0.5, 10.0, 3.25};
  response.likely_outlier = {1, 0, 1};
  auto decoded = DecodeOutlierResponse(EncodeOutlierResponse(response));
  ASSERT_TRUE(decoded.ok());
  EXPECT_EQ(decoded->expected_neighbors, response.expected_neighbors);
  EXPECT_EQ(decoded->likely_outlier, response.likely_outlier);
}

TEST(ServeWireTest, StatsResponseRoundTrip) {
  StatsResponse response;
  RequestStats row;
  row.type = RequestType::kDensityBatch;
  row.count = 10;
  row.errors = 1;
  row.points = 12345;
  row.latency_sum_us = 42.5;
  row.latency_min_us = 1.0;
  row.latency_max_us = 20.25;
  row.latency_p50_us = 4.0;
  row.latency_p99_us = 19.0;
  response.per_type.push_back(row);
  response.models = {"a", "b"};
  auto decoded = DecodeStatsResponse(EncodeStatsResponse(response));
  ASSERT_TRUE(decoded.ok());
  ASSERT_EQ(decoded->per_type.size(), 1u);
  EXPECT_EQ(decoded->per_type[0].type, RequestType::kDensityBatch);
  EXPECT_EQ(decoded->per_type[0].count, 10u);
  EXPECT_EQ(decoded->per_type[0].latency_p99_us, 19.0);
  EXPECT_EQ(decoded->models, response.models);
}

TEST(ServeWireTest, ErrorResponseRoundTrip) {
  Status original = Status::Unavailable("queue full");
  Status decoded = DecodeErrorResponse(EncodeErrorResponse(original));
  EXPECT_EQ(decoded.code(), StatusCode::kUnavailable);
  EXPECT_EQ(decoded.message(), "queue full");
}

TEST(ServeWireTest, FrameRoundTripAndHeaderValidation) {
  std::vector<uint8_t> payload = {1, 2, 3, 4, 5};
  std::vector<uint8_t> frame =
      EncodeFrame(MessageType::kDensityRequest, payload);
  size_t consumed = 0;
  auto decoded = DecodeFrame(frame.data(), frame.size(), &consumed);
  ASSERT_TRUE(decoded.ok());
  EXPECT_EQ(consumed, frame.size());
  EXPECT_EQ(decoded->type, MessageType::kDensityRequest);
  EXPECT_EQ(decoded->payload, payload);

  // Bad magic.
  std::vector<uint8_t> bad = frame;
  bad[0] ^= 0xff;
  EXPECT_FALSE(DecodeFrame(bad.data(), bad.size(), &consumed).ok());
  // Bad version.
  bad = frame;
  bad[4] ^= 0xff;
  EXPECT_FALSE(DecodeFrame(bad.data(), bad.size(), &consumed).ok());
  // Unknown types: one outside every range, and 9, which is retired.
  for (uint32_t type : {0xfeu, 9u}) {
    bad = frame;
    std::memcpy(bad.data() + 8, &type, sizeof(type));
    EXPECT_FALSE(DecodeFrame(bad.data(), bad.size(), &consumed).ok())
        << "type=" << type;
  }
  // Truncations at every prefix length.
  for (size_t keep = 0; keep < frame.size(); ++keep) {
    EXPECT_FALSE(DecodeFrame(frame.data(), keep, &consumed).ok())
        << "keep=" << keep;
  }
}

TEST(ServeWireTest, TrailingGarbageIsRejected) {
  DensityBatchRequest request;
  request.model = "m";
  request.points = MakePoints(9, 2, 5);
  std::vector<uint8_t> payload = EncodeDensityRequest(request);
  payload.push_back(0x00);
  EXPECT_FALSE(DecodeDensityRequest(payload).ok());
}

TEST(ServeWireTest, DecodersSurviveByteFlips) {
  DensityBatchRequest density;
  density.model = "model-under-test";
  density.points = MakePoints(10, 3, 64);
  SampleRequest sample;
  sample.model = "model-under-test";
  sample.points = MakePoints(11, 3, 64);
  OutlierScoreBatchRequest outliers;
  outliers.model = "model-under-test";
  outliers.points = MakePoints(12, 3, 64);

  const std::vector<std::vector<uint8_t>> clean_payloads = {
      EncodeDensityRequest(density),
      EncodeSampleRequest(sample),
      EncodeOutlierRequest(outliers),
  };

  Rng rng(13);
  for (const auto& clean : clean_payloads) {
    for (int trial = 0; trial < 300; ++trial) {
      std::vector<uint8_t> bytes = clean;
      int flips = 1 + static_cast<int>(rng.NextBounded(4));
      for (int f = 0; f < flips; ++f) {
        size_t pos = static_cast<size_t>(rng.NextBounded(bytes.size()));
        bytes[pos] ^= static_cast<uint8_t>(1 + rng.NextBounded(255));
      }
      // The property is "no crash, no hang, no wild allocation"; both
      // outcomes (error or structurally valid decode) are acceptable.
      auto d1 = DecodeDensityRequest(bytes);
      if (d1.ok()) {
        EXPECT_GE(d1->points.size(), 0);
      }
      auto d2 = DecodeSampleRequest(bytes);
      if (d2.ok()) {
        EXPECT_GE(d2->points.size(), 0);
      }
      auto d3 = DecodeOutlierRequest(bytes);
      if (d3.ok()) {
        EXPECT_GE(d3->points.size(), 0);
      }
    }
  }
}

TEST(ServeWireTest, FrameDecoderSurvivesByteFlips) {
  DensityBatchRequest request;
  request.model = "m";
  request.points = MakePoints(14, 2, 32);
  std::vector<uint8_t> clean =
      EncodeFrame(MessageType::kDensityRequest, EncodeDensityRequest(request));
  Rng rng(15);
  for (int trial = 0; trial < 300; ++trial) {
    std::vector<uint8_t> bytes = clean;
    int flips = 1 + static_cast<int>(rng.NextBounded(4));
    for (int f = 0; f < flips; ++f) {
      size_t pos = static_cast<size_t>(rng.NextBounded(bytes.size()));
      bytes[pos] ^= static_cast<uint8_t>(1 + rng.NextBounded(255));
    }
    size_t consumed = 0;
    auto frame = DecodeFrame(bytes.data(), bytes.size(), &consumed);
    if (frame.ok()) {
      EXPECT_LE(consumed, bytes.size());
      (void)DecodeDensityRequest(frame->payload);
    }
  }
}

}  // namespace
}  // namespace dbs
