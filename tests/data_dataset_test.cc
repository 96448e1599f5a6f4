#include "data/dataset.h"

#include <cstdio>
#include <string>

#include <gtest/gtest.h>

#include "data/dataset_io.h"
#include "data/point_set.h"
#include "test_temp.h"
#include "util/rng.h"

namespace dbs::data {
namespace {

PointSet MakeRandomPoints(int64_t n, int dim, uint64_t seed) {
  dbs::Rng rng(seed);
  PointSet ps(dim);
  ps.Reserve(n);
  std::vector<double> buf(dim);
  for (int64_t i = 0; i < n; ++i) {
    for (int j = 0; j < dim; ++j) buf[j] = rng.NextDouble(-10, 10);
    ps.Append(buf);
  }
  return ps;
}

using test::TempPath;

TEST(InMemoryScanTest, YieldsAllRowsAcrossBatches) {
  PointSet ps = MakeRandomPoints(1000, 3, 1);
  InMemoryScan scan(&ps, /*batch_rows=*/128);
  scan.Reset();
  ScanBatch batch;
  int64_t seen = 0;
  while (scan.NextBatch(&batch)) {
    for (int64_t i = 0; i < batch.count; ++i) {
      PointView p = batch.point(i, 3);
      for (int j = 0; j < 3; ++j) EXPECT_EQ(p[j], ps[seen][j]);
      ++seen;
    }
  }
  EXPECT_EQ(seen, 1000);
  EXPECT_EQ(scan.size(), 1000);
  EXPECT_EQ(scan.dim(), 3);
}

TEST(InMemoryScanTest, CountsPasses) {
  PointSet ps = MakeRandomPoints(10, 2, 2);
  InMemoryScan scan(&ps);
  EXPECT_EQ(scan.passes(), 0);
  ScanBatch batch;
  for (int pass = 1; pass <= 3; ++pass) {
    scan.Reset();
    EXPECT_EQ(scan.passes(), pass);
    int64_t rows = 0;
    while (scan.NextBatch(&batch)) rows += batch.count;
    EXPECT_EQ(rows, 10);
  }
}

TEST(InMemoryScanTest, EmptyDataset) {
  PointSet ps(2);
  InMemoryScan scan(&ps);
  scan.Reset();
  ScanBatch batch;
  EXPECT_FALSE(scan.NextBatch(&batch));
}

TEST(InMemoryScanTest, BatchLargerThanData) {
  PointSet ps = MakeRandomPoints(5, 2, 3);
  InMemoryScan scan(&ps, 1000);
  scan.Reset();
  ScanBatch batch;
  ASSERT_TRUE(scan.NextBatch(&batch));
  EXPECT_EQ(batch.count, 5);
  EXPECT_FALSE(scan.NextBatch(&batch));
}

TEST(ReadAllTest, RoundTrips) {
  PointSet ps = MakeRandomPoints(321, 4, 4);
  InMemoryScan scan(&ps, 64);
  auto result = ReadAll(scan);
  ASSERT_TRUE(result.ok());
  ASSERT_EQ(result->size(), ps.size());
  for (int64_t i = 0; i < ps.size(); ++i) {
    for (int j = 0; j < 4; ++j) EXPECT_EQ((*result)[i][j], ps[i][j]);
  }
}

TEST(DatasetIoTest, WriteReadRoundTrip) {
  PointSet ps = MakeRandomPoints(500, 3, 5);
  std::string path = TempPath("roundtrip.dbsf");
  ASSERT_TRUE(WriteDatasetFile(path, ps).ok());
  auto loaded = ReadDatasetFile(path);
  ASSERT_TRUE(loaded.ok());
  ASSERT_EQ(loaded->size(), 500);
  ASSERT_EQ(loaded->dim(), 3);
  for (int64_t i = 0; i < 500; ++i) {
    for (int j = 0; j < 3; ++j) EXPECT_EQ((*loaded)[i][j], ps[i][j]);
  }
  std::remove(path.c_str());
}

TEST(DatasetIoTest, EmptyPointSetRoundTrips) {
  PointSet ps(2);
  std::string path = TempPath("empty.dbsf");
  ASSERT_TRUE(WriteDatasetFile(path, ps).ok());
  auto loaded = ReadDatasetFile(path);
  ASSERT_TRUE(loaded.ok());
  EXPECT_EQ(loaded->size(), 0);
  EXPECT_EQ(loaded->dim(), 2);
  std::remove(path.c_str());
}

TEST(DatasetIoTest, MissingFileIsIoError) {
  auto result = ReadDatasetFile(TempPath("does_not_exist.dbsf"));
  ASSERT_FALSE(result.ok());
  EXPECT_EQ(result.status().code(), dbs::StatusCode::kIoError);
}

TEST(DatasetIoTest, GarbageFileIsRejected) {
  std::string path = TempPath("garbage.dbsf");
  std::FILE* f = std::fopen(path.c_str(), "wb");
  ASSERT_NE(f, nullptr);
  const char junk[64] = "this is definitely not a dbsf file, not even close";
  std::fwrite(junk, 1, sizeof(junk), f);
  std::fclose(f);
  auto result = ReadDatasetFile(path);
  EXPECT_FALSE(result.ok());
  std::remove(path.c_str());
}

TEST(FileScanTest, StreamsInBatchesAndCountsPasses) {
  PointSet ps = MakeRandomPoints(1000, 2, 6);
  std::string path = TempPath("scan.dbsf");
  ASSERT_TRUE(WriteDatasetFile(path, ps).ok());
  auto scan_result = FileScan::Open(path, /*batch_rows=*/100);
  ASSERT_TRUE(scan_result.ok());
  FileScan& scan = **scan_result;
  EXPECT_EQ(scan.size(), 1000);
  EXPECT_EQ(scan.dim(), 2);

  for (int pass = 1; pass <= 2; ++pass) {
    scan.Reset();
    EXPECT_EQ(scan.passes(), pass);
    ScanBatch batch;
    int64_t seen = 0;
    while (scan.NextBatch(&batch)) {
      for (int64_t i = 0; i < batch.count; ++i) {
        PointView p = batch.point(i, 2);
        EXPECT_EQ(p[0], ps[seen][0]);
        EXPECT_EQ(p[1], ps[seen][1]);
        ++seen;
      }
    }
    EXPECT_EQ(seen, 1000);
  }
  std::remove(path.c_str());
}

TEST(FileScanTest, RejectsNonPositiveBatchRows) {
  auto result = FileScan::Open(TempPath("whatever.dbsf"), 0);
  ASSERT_FALSE(result.ok());
  EXPECT_EQ(result.status().code(), dbs::StatusCode::kInvalidArgument);
}

}  // namespace
}  // namespace dbs::data
