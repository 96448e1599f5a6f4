// Negative-path parser tests: hand-built truncated and garbage inputs for
// the .dbsf dataset loader and the DBSQ wire codec. io_robustness_test
// mutates valid files; this file starts from INVALID bytes — empty files,
// wrong magics, lying length fields, truncated payloads for every message
// type — so the ASan/UBSan CI job walks the error paths of every parser,
// not just the happy paths. Every case must fail with a Status (or decode
// to something structurally valid), never crash, hang or over-allocate.

#include <cstdio>
#include <cstring>
#include <functional>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "data/dataset_io.h"
#include "serve/wire.h"
#include "test_temp.h"
#include "util/rng.h"

namespace dbs {
namespace {

using namespace dbs::serve;  // NOLINT: test-local brevity

using test::TempPath;

void WriteBytes(const std::string& path,
                const std::vector<unsigned char>& bytes) {
  std::FILE* f = std::fopen(path.c_str(), "wb");
  DBS_CHECK(f != nullptr);
  if (!bytes.empty()) {
    DBS_CHECK(std::fwrite(bytes.data(), 1, bytes.size(), f) == bytes.size());
  }
  std::fclose(f);
}

// A syntactically valid 32-byte .dbsf header with the given fields.
std::vector<unsigned char> DbsfHeader(uint32_t magic, uint32_t version,
                                      uint32_t dim, int64_t rows) {
  std::vector<unsigned char> bytes(32, 0);
  std::memcpy(bytes.data() + 0, &magic, 4);
  std::memcpy(bytes.data() + 4, &version, 4);
  std::memcpy(bytes.data() + 8, &dim, 4);
  std::memcpy(bytes.data() + 16, &rows, 8);
  return bytes;
}

TEST(DatasetNegativeTest, EmptyAndTinyFilesAreRejected) {
  const std::string path = TempPath("neg_empty.dbsf");
  for (size_t size : {0u, 1u, 8u, 31u}) {
    WriteBytes(path, std::vector<unsigned char>(size, 0x5a));
    EXPECT_FALSE(data::ReadDatasetFile(path).ok()) << "size=" << size;
  }
  std::remove(path.c_str());
}

TEST(DatasetNegativeTest, GarbageBytesAreRejected) {
  const std::string path = TempPath("neg_garbage.dbsf");
  Rng rng(21);
  for (int trial = 0; trial < 50; ++trial) {
    std::vector<unsigned char> bytes(
        32 + static_cast<size_t>(rng.NextBounded(256)));
    for (auto& b : bytes) {
      b = static_cast<unsigned char>(rng.NextBounded(256));
    }
    WriteBytes(path, bytes);
    // Random bytes essentially never spell the magic; decoding must fail
    // cleanly (and must never abort on a garbage dim/row count).
    auto result = data::ReadDatasetFile(path);
    if (result.ok()) {
      EXPECT_GT(result->dim(), 0);
    }
  }
  std::remove(path.c_str());
}

TEST(DatasetNegativeTest, HeaderFieldBoundsAreEnforced) {
  const std::string path = TempPath("neg_header.dbsf");
  struct Case {
    const char* what;
    uint32_t magic;
    uint32_t version;
    uint32_t dim;
    int64_t rows;
  };
  const Case cases[] = {
      {"wrong magic", data::kDatasetMagic ^ 1, data::kDatasetVersion, 2, 1},
      {"wrong version", data::kDatasetMagic, data::kDatasetVersion + 9, 2, 1},
      {"zero dim", data::kDatasetMagic, data::kDatasetVersion, 0, 1},
      {"huge dim", data::kDatasetMagic, data::kDatasetVersion, 1u << 20, 1},
      {"negative rows", data::kDatasetMagic, data::kDatasetVersion, 2, -7},
      // A row count whose payload cannot possibly be present must be
      // rejected up front instead of provoking a giant allocation.
      {"lying rows", data::kDatasetMagic, data::kDatasetVersion, 2,
       int64_t{1} << 60},
  };
  for (const Case& c : cases) {
    WriteBytes(path, DbsfHeader(c.magic, c.version, c.dim, c.rows));
    EXPECT_FALSE(data::ReadDatasetFile(path).ok()) << c.what;
  }
  std::remove(path.c_str());
}

TEST(DatasetNegativeTest, PayloadShorterThanPromisedIsRejected) {
  const std::string path = TempPath("neg_short.dbsf");
  // Header promises 4 rows of dim 2 (64 payload bytes); provide 0..63.
  for (size_t payload : {0u, 1u, 15u, 16u, 63u}) {
    std::vector<unsigned char> bytes =
        DbsfHeader(data::kDatasetMagic, data::kDatasetVersion, 2, 4);
    bytes.resize(32 + payload, 0);
    WriteBytes(path, bytes);
    EXPECT_FALSE(data::ReadDatasetFile(path).ok()) << "payload=" << payload;
  }
  std::remove(path.c_str());
}

// ---- DBSQ wire codec -------------------------------------------------------

// Every payload decoder, driven by the same byte buffer; none may crash.
void DecodeAllPayloads(const std::vector<uint8_t>& payload) {
  (void)DecodeRegisterRequest(payload);
  (void)DecodeEvictRequest(payload);
  (void)DecodeDensityRequest(payload);
  (void)DecodeDensityResponse(payload);
  (void)DecodeSampleRequest(payload);
  (void)DecodeSampleResponse(payload);
  (void)DecodeOutlierRequest(payload);
  (void)DecodeOutlierResponse(payload);
  (void)DecodeStatsResponse(payload);
  (void)DecodeErrorResponse(payload);
}

TEST(WireNegativeTest, EmptyPayloadIsRejectedByEveryDecoder) {
  const std::vector<uint8_t> empty;
  EXPECT_FALSE(DecodeRegisterRequest(empty).ok());
  EXPECT_FALSE(DecodeEvictRequest(empty).ok());
  EXPECT_FALSE(DecodeDensityRequest(empty).ok());
  EXPECT_FALSE(DecodeDensityResponse(empty).ok());
  EXPECT_FALSE(DecodeSampleRequest(empty).ok());
  EXPECT_FALSE(DecodeSampleResponse(empty).ok());
  EXPECT_FALSE(DecodeOutlierRequest(empty).ok());
  EXPECT_FALSE(DecodeOutlierResponse(empty).ok());
  EXPECT_FALSE(DecodeStatsResponse(empty).ok());
}

TEST(WireNegativeTest, GarbagePayloadsNeverCrashAnyDecoder) {
  Rng rng(23);
  for (int trial = 0; trial < 200; ++trial) {
    std::vector<uint8_t> payload(
        static_cast<size_t>(rng.NextBounded(512)));
    for (auto& b : payload) {
      b = static_cast<uint8_t>(rng.NextBounded(256));
    }
    DecodeAllPayloads(payload);
  }
}

TEST(WireNegativeTest, TruncatedPayloadsAreRejectedForEveryMessageType) {
  data::PointSet points(3);
  points.Append(std::vector<double>{1.0, 2.0, 3.0});
  points.Append(std::vector<double>{4.0, 5.0, 6.0});

  DensityBatchRequest density;
  density.model = "model";
  density.points = points;
  SampleRequest sample;
  sample.model = "model";
  sample.points = points;
  OutlierScoreBatchRequest outliers;
  outliers.model = "model";
  outliers.points = points;
  SampleResponse sample_response;
  sample_response.points = points;
  sample_response.inclusion_probs = {0.5, 0.5};
  sample_response.densities = {1.0, 2.0};
  DensityBatchResponse density_response;
  density_response.densities = {1.0, 2.0, 3.0};

  // Each message is truncated at every prefix length and fed to ITS OWN
  // decoder (a prefix of one message can legitimately decode as a shorter
  // message type — e.g. RegisterRequest's first field is a valid
  // EvictRequest — so cross-decoding is exercised for crash-safety only).
  struct Case {
    const char* what;
    std::vector<uint8_t> payload;
    std::function<bool(const std::vector<uint8_t>&)> decodes;
  };
  const std::vector<Case> cases = {
      {"register", EncodeRegisterRequest({"name", "path"}),
       [](const std::vector<uint8_t>& p) {
         return DecodeRegisterRequest(p).ok();
       }},
      {"evict", EncodeEvictRequest({"name"}),
       [](const std::vector<uint8_t>& p) {
         return DecodeEvictRequest(p).ok();
       }},
      {"density request", EncodeDensityRequest(density),
       [](const std::vector<uint8_t>& p) {
         return DecodeDensityRequest(p).ok();
       }},
      {"density response", EncodeDensityResponse(density_response),
       [](const std::vector<uint8_t>& p) {
         return DecodeDensityResponse(p).ok();
       }},
      {"sample request", EncodeSampleRequest(sample),
       [](const std::vector<uint8_t>& p) {
         return DecodeSampleRequest(p).ok();
       }},
      {"sample response", EncodeSampleResponse(sample_response),
       [](const std::vector<uint8_t>& p) {
         return DecodeSampleResponse(p).ok();
       }},
      {"outlier request", EncodeOutlierRequest(outliers),
       [](const std::vector<uint8_t>& p) {
         return DecodeOutlierRequest(p).ok();
       }},
  };
  for (const Case& c : cases) {
    for (size_t keep = 0; keep < c.payload.size(); ++keep) {
      const std::vector<uint8_t> cut(c.payload.begin(),
                                     c.payload.begin() + keep);
      DecodeAllPayloads(cut);  // crash-safety across every decoder
      // A strict prefix can never satisfy the decoder's AtEnd() check.
      EXPECT_FALSE(c.decodes(cut)) << c.what << " keep=" << keep;
    }
  }
}

TEST(WireNegativeTest, LyingLengthFieldsDoNotAllocate) {
  // A string whose u32 length claims 4 GiB with 4 bytes behind it.
  {
    WireWriter w;
    w.PutU32(0xffffffffu);
    w.PutU32(0x41414141u);
    const std::vector<uint8_t> payload = w.Take();
    EXPECT_FALSE(DecodeRegisterRequest(payload).ok());
    EXPECT_FALSE(DecodeEvictRequest(payload).ok());
  }
  // A point batch claiming 2^60 rows of dim 1024.
  {
    WireWriter w;
    w.PutString("model");
    w.PutU32(1024);              // dim at the ceiling
    w.PutU64(1ull << 60);        // rows: absurd
    w.PutDouble(1.0);            // one lonely coordinate
    const std::vector<uint8_t> payload = w.Take();
    EXPECT_FALSE(DecodeDensityRequest(payload).ok());
  }
  // A double array announcing 2^40 entries.
  {
    WireWriter w;
    w.PutU64(1ull << 40);
    const std::vector<uint8_t> payload = w.Take();
    EXPECT_FALSE(DecodeDensityResponse(payload).ok());
  }
}

TEST(WireNegativeTest, FrameHeaderWithAbsurdPayloadLengthIsRejected) {
  // Hand-build a frame header declaring a payload beyond kMaxPayloadBytes;
  // DecodeFrame must reject it instead of waiting for a gigabyte.
  std::vector<uint8_t> valid =
      EncodeFrame(MessageType::kStatsRequest, {});
  ASSERT_GE(valid.size(), 16u);
  std::vector<uint8_t> bloated = valid;
  const uint64_t absurd = kMaxPayloadBytes + 1;
  std::memcpy(bloated.data() + 12, &absurd, 4);  // low 32 bits of length
  size_t consumed = 0;
  EXPECT_FALSE(
      DecodeFrame(bloated.data(), bloated.size(), &consumed).ok());
}

TEST(WireNegativeTest, GarbageFrameBytesNeverCrash) {
  Rng rng(29);
  for (int trial = 0; trial < 200; ++trial) {
    std::vector<uint8_t> bytes(
        static_cast<size_t>(rng.NextBounded(128)));
    for (auto& b : bytes) {
      b = static_cast<uint8_t>(rng.NextBounded(256));
    }
    size_t consumed = 0;
    auto frame = DecodeFrame(bytes.data(), bytes.size(), &consumed);
    if (frame.ok()) {
      EXPECT_LE(consumed, bytes.size());
    }
  }
}

}  // namespace
}  // namespace dbs
