// dbs_query — client for the dbsd model-serving daemon.
//
//   dbs_query op=register name=est model=est.dbsk [port=7070]
//   dbs_query op=density  name=est in=points.dbsf [out=densities.csv]
//   dbs_query op=sample   name=est in=points.dbsf out=sample.dbsf
//                         [a=1.0] [size=1000] [seed=1] [floor=1e-3]
//   dbs_query op=outliers name=est in=points.dbsf [k=0.1] [p=10]
//                         [metric=l2|l1|linf] [out=scores.csv]
//   dbs_query op=stats    [port=7070]
//   dbs_query op=evict    name=est
//   dbs_query op=shutdown
//
// Every op also takes [host=127.0.0.1] [pipeline=N]. pipeline=N splits
// op=density input into N chunks kept in flight concurrently on the one
// connection; the answers are bitwise identical to pipeline=1.
//
// The client fits nothing and never reads the model: it ships points to
// the daemon and prints/persists what comes back.

#include <algorithm>
#include <cstdio>
#include <string>
#include <utility>
#include <vector>

#include "data/dataset_io.h"
#include "serve/client.h"
#include "tools/flags.h"

namespace {

int Fail(const dbs::Status& status, const char* what) {
  std::fprintf(stderr, "%s failed: %s\n", what, status.ToString().c_str());
  return 1;
}

[[nodiscard]] dbs::Result<dbs::data::PointSet> LoadPoints(const std::string& path) {
  if (path.empty()) {
    return dbs::Status::InvalidArgument("in= is required for this op");
  }
  return dbs::data::ReadDatasetFile(path);
}

bool WriteCsv(const std::string& path, const std::vector<double>& values,
              const char* header) {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return false;
  std::fprintf(f, "%s\n", header);
  for (size_t i = 0; i < values.size(); ++i) {
    std::fprintf(f, "%zu,%.17g\n", i, values[i]);
  }
  return std::fclose(f) == 0;
}

}  // namespace

int main(int argc, char** argv) {
  dbs::tools::Flags flags;
  if (!flags.Parse(argc, argv)) return 2;
  std::string op = flags.GetString("op", "");
  std::string name = flags.GetString("name", "");
  std::string model = flags.GetString("model", "");
  std::string in = flags.GetString("in", "");
  std::string out = flags.GetString("out", "");
  std::string metric_name = flags.GetString("metric", "l2");
  double a = flags.GetDouble("a", 1.0);
  int64_t size = flags.GetInt("size", 1000);
  double floor = flags.GetDouble("floor", 1e-3);
  double k = flags.GetDouble("k", 0.1);
  int64_t p = flags.GetInt("p", 10);
  uint64_t seed = static_cast<uint64_t>(flags.GetInt("seed", 1));
  int64_t port = flags.GetInt("port", 7070);
  std::string host = flags.GetString("host", "127.0.0.1");
  int64_t pipeline = flags.GetInt("pipeline", 1);
  if (!flags.AllKnown()) return 2;
  if (op.empty()) {
    std::fprintf(stderr,
                 "usage: dbs_query op=register|evict|density|sample|"
                 "outliers|stats|shutdown [name=] [model=] [in=] [out=] "
                 "[a=] [size=] [seed=] [floor=] [k=] [p=] [metric=] "
                 "[port=] [host=] [pipeline=N]\n");
    return 2;
  }
  if (pipeline < 1) {
    std::fprintf(stderr, "pipeline must be at least 1\n");
    return 2;
  }

  auto client = dbs::serve::Client::Connect(static_cast<uint16_t>(port), host);
  if (!client.ok()) return Fail(client.status(), "connect");

  if (op == "register") {
    dbs::Status status = client->RegisterModel(name, model);
    if (!status.ok()) return Fail(status, "register");
    std::printf("registered '%s' <- %s\n", name.c_str(), model.c_str());
    return 0;
  }
  if (op == "evict") {
    dbs::Status status = client->EvictModel(name);
    if (!status.ok()) return Fail(status, "evict");
    std::printf("evicted '%s'\n", name.c_str());
    return 0;
  }
  if (op == "shutdown") {
    dbs::Status status = client->RequestShutdown();
    if (!status.ok()) return Fail(status, "shutdown");
    std::printf("daemon shutting down\n");
    return 0;
  }
  if (op == "stats") {
    auto stats = client->Stats();
    if (!stats.ok()) return Fail(stats.status(), "stats");
    std::printf("%-15s %10s %7s %12s %10s %10s %10s\n", "request", "count",
                "errors", "points", "mean_us", "p50_us", "p99_us");
    for (const auto& row : stats->per_type) {
      double mean =
          row.count > 0 ? row.latency_sum_us / static_cast<double>(row.count)
                        : 0.0;
      std::printf("%-15s %10llu %7llu %12llu %10.1f %10.1f %10.1f\n",
                  dbs::serve::RequestTypeName(row.type),
                  static_cast<unsigned long long>(row.count),
                  static_cast<unsigned long long>(row.errors),
                  static_cast<unsigned long long>(row.points), mean,
                  row.latency_p50_us, row.latency_p99_us);
    }
    std::printf("models:");
    for (const std::string& m : stats->models) std::printf(" %s", m.c_str());
    std::printf("\n");
    return 0;
  }

  if (op == "density") {
    auto points = LoadPoints(in);
    if (!points.ok()) return Fail(points.status(), "load points");

    // pipeline=N splits the batch into N contiguous chunks kept in flight
    // concurrently on the one connection; concatenated in order, the
    // densities are identical to the single-request answer.
    const int64_t total = points->size();
    int64_t chunks = std::min<int64_t>(pipeline, std::max<int64_t>(total, 1));
    std::vector<dbs::serve::DensityBatchRequest> requests;
    requests.reserve(static_cast<size_t>(chunks));
    if (chunks == 1) {
      dbs::serve::DensityBatchRequest request;
      request.model = name;
      request.points = std::move(points).value();
      requests.push_back(std::move(request));
    } else {
      for (int64_t c = 0; c < chunks; ++c) {
        const int64_t begin = c * total / chunks;
        const int64_t end = (c + 1) * total / chunks;
        dbs::serve::DensityBatchRequest request;
        request.model = name;
        request.points = dbs::data::PointSet(points->dim());
        request.points.Reserve(end - begin);
        for (int64_t i = begin; i < end; ++i) {
          request.points.Append((*points)[i]);
        }
        requests.push_back(std::move(request));
      }
    }
    auto responses =
        client->DensityPipelined(requests, static_cast<int>(chunks));
    if (!responses.ok()) return Fail(responses.status(), "density");
    std::vector<double> densities;
    densities.reserve(static_cast<size_t>(total));
    for (const auto& response : *responses) {
      densities.insert(densities.end(), response.densities.begin(),
                       response.densities.end());
    }
    double sum = 0;
    for (double d : densities) sum += d;
    std::printf("density: %zu points, mean f = %.6g\n", densities.size(),
                densities.empty()
                    ? 0.0
                    : sum / static_cast<double>(densities.size()));
    if (!out.empty() && !WriteCsv(out, densities, "index,density")) {
      std::fprintf(stderr, "cannot write %s\n", out.c_str());
      return 1;
    }
    return 0;
  }

  if (op == "sample") {
    auto points = LoadPoints(in);
    if (!points.ok()) return Fail(points.status(), "load points");
    if (out.empty()) {
      std::fprintf(stderr, "out= is required for op=sample\n");
      return 2;
    }
    dbs::serve::SampleRequest request;
    request.model = name;
    request.a = a;
    request.target_size = size;
    request.density_floor_fraction = floor;
    request.seed = seed;
    request.points = std::move(points).value();
    auto response = client->Sample(request);
    if (!response.ok()) return Fail(response.status(), "sample");
    dbs::Status written = dbs::data::WriteDatasetFile(out, response->points);
    if (!written.ok()) return Fail(written, "write sample");
    std::printf(
        "sample: %lld points -> %s (a=%.3g normalizer=%.6g clamped=%lld)\n",
        static_cast<long long>(response->points.size()), out.c_str(), a,
        response->normalizer,
        static_cast<long long>(response->clamped_count));
    return 0;
  }

  if (op == "outliers") {
    auto points = LoadPoints(in);
    if (!points.ok()) return Fail(points.status(), "load points");
    dbs::serve::OutlierScoreBatchRequest request;
    request.model = name;
    request.radius = k;
    request.max_neighbors = p;
    if (metric_name == "l1") {
      request.metric = dbs::data::Metric::kL1;
    } else if (metric_name == "linf") {
      request.metric = dbs::data::Metric::kLinf;
    } else if (metric_name != "l2") {
      std::fprintf(stderr, "unknown metric '%s'\n", metric_name.c_str());
      return 2;
    }
    request.points = std::move(points).value();
    auto response = client->OutlierScores(request);
    if (!response.ok()) return Fail(response.status(), "outlier scores");
    int64_t likely = 0;
    for (uint8_t flag : response->likely_outlier) likely += flag;
    std::printf("outlier scores: %zu points, %lld likely DB(p=%lld, k=%.3g) "
                "outliers\n",
                response->expected_neighbors.size(),
                static_cast<long long>(likely), static_cast<long long>(p),
                k);
    if (!out.empty() && !WriteCsv(out, response->expected_neighbors,
                                  "index,expected_neighbors")) {
      std::fprintf(stderr, "cannot write %s\n", out.c_str());
      return 1;
    }
    return 0;
  }

  std::fprintf(stderr, "unknown op '%s'\n", op.c_str());
  return 2;
}
