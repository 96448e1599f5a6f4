// Agglomeration micro-benchmark: accelerated core vs frozen reference
// (DESIGN.md §11).
//
// For each (n, dim) configuration the bench clusters the same synthetic
// dataset with HierarchicalCluster (heap + referrer lists + rep and
// centroid kd-tree snapshots + batched kernel) and checks every byte of
// its output; the two implementations promise bitwise-equal output, so any
// mismatch is a correctness bug and the bench exits nonzero.
//
//  * n <= 8000: the bench also runs HierarchicalClusterReference (the
//    quadratic pre-acceleration oracle) on the same data; labels must match
//    exactly and the FNV-1a hash of labels, members, centroid and
//    representative bytes must be identical.
//  * n > 8000: the reference would take minutes, so the hash is compared
//    with a golden recorded from it (kGoldens). Only the (n, dim) pairs
//    listed there may exceed 8000; any other is a usage error (exit 2), so
//    no row goes unchecked.
//
// Without sizes= and dims= the bench runs the recorded grid: dims 2 and 5
// at n = 500, 2000, 8000, plus the 2-D golden rows at n = 16000 and 32000,
// which show how the run time grows with n. With either flag it runs the
// cross product of sizes= (default 500,2000,8000) and dims= (default 2,5).
//
// Output: a table on stdout plus machine-readable JSON in the shape of
// BENCH_micro_kde.json (BENCH_micro_cluster.json, override with out=),
// stamped with nproc, compiler, build type and the git_sha= passed in.
//
//   micro_cluster [sizes=500,2000,8000] [dims=2,5] [reps=2]
//                 [git_sha=unavailable] [out=BENCH_micro_cluster.json]

#include <chrono>
#include <cstdint>
#include <cstdio>
#include <iterator>
#include <string>
#include <vector>

#include "bench_meta.h"
#include "cluster/hierarchical.h"
#include "cluster/hierarchical_internal.h"
#include "data/point_set.h"
#include "tools/flags.h"
#include "util/check.h"
#include "util/rng.h"

namespace {

using Clock = std::chrono::steady_clock;

// The quadratic reference runs only up to this size.
constexpr int64_t kReferenceMaxN = 8000;

// HashClustering of HierarchicalClusterReference's output on MakeData's
// dataset at default options, for the sizes above kReferenceMaxN. Recorded
// once from the reference (~50 s at n=32000 in a Release build); the
// accelerated core must reproduce it bit for bit.
struct Golden {
  int64_t n;
  int dim;
  uint64_t hash;
};
constexpr Golden kGoldens[] = {
    {16000, 2, 0x179498e56d0795c0ull},
    {32000, 2, 0x9ba78583173f7fd3ull},
};

const Golden* FindGolden(int64_t n, int dim) {
  for (const Golden& g : kGoldens) {
    if (g.n == n && g.dim == dim) return &g;
  }
  return nullptr;
}

struct Config {
  int64_t n;
  int dim;
};

// The grid run when neither sizes= nor dims= is given.
constexpr Config kDefaultGrid[] = {
    {500, 2},  {2000, 2}, {8000, 2}, {16000, 2},
    {32000, 2}, {500, 5}, {2000, 5}, {8000, 5},
};

struct SeriesResult {
  std::string series;
  int64_t n = 0;
  int dim = 0;
  double seconds = 0.0;
  double merges_per_sec = 0.0;
  double speedup_vs_reference = 0.0;
  int64_t mismatches = 0;
};

// Gaussian blobs plus uniform noise, matching the frozen-golden generator's
// shape (noise exercises the elimination phases).
dbs::data::PointSet MakeData(int64_t n, int dim, uint64_t seed) {
  dbs::Rng rng(seed);
  dbs::data::PointSet ps(dim);
  ps.Reserve(n);
  const int kBlobs = 10;
  const int64_t noise = n / 10;
  const int64_t per_blob = (n - noise) / kBlobs;
  std::vector<double> p(static_cast<size_t>(dim));
  for (int b = 0; b < kBlobs; ++b) {
    std::vector<double> center(static_cast<size_t>(dim));
    for (int j = 0; j < dim; ++j) center[j] = rng.NextDouble(0.1, 0.9);
    for (int64_t i = 0; i < per_blob; ++i) {
      for (int j = 0; j < dim; ++j) {
        p[static_cast<size_t>(j)] =
            rng.NextGaussian(center[static_cast<size_t>(j)], 0.02);
      }
      ps.Append(p);
    }
  }
  while (ps.size() < n) {
    for (int j = 0; j < dim; ++j) p[static_cast<size_t>(j)] = rng.NextDouble();
    ps.Append(p);
  }
  return ps;
}

uint64_t Fnv1a(const void* data, size_t len, uint64_t h) {
  const unsigned char* bytes = static_cast<const unsigned char*>(data);
  for (size_t i = 0; i < len; ++i) {
    h ^= bytes[i];
    h *= 1099511628211ull;
  }
  return h;
}

// Hash of everything the caller can observe: labels, member order, centroid
// bits and representative bits.
uint64_t HashClustering(const dbs::cluster::ClusteringResult& r) {
  uint64_t h = 1469598103934665603ull;
  h = Fnv1a(r.labels.data(), r.labels.size() * sizeof(int32_t), h);
  for (const dbs::cluster::Cluster& c : r.clusters) {
    int64_t count = static_cast<int64_t>(c.members.size());
    h = Fnv1a(&count, sizeof(count), h);
    h = Fnv1a(c.members.data(), c.members.size() * sizeof(int64_t), h);
    h = Fnv1a(c.centroid.data(), c.centroid.size() * sizeof(double), h);
    const std::vector<double>& flat = c.representatives.flat();
    h = Fnv1a(flat.data(), flat.size() * sizeof(double), h);
  }
  return h;
}

// Label mismatches plus one for a representative/centroid hash divergence.
int64_t CountMismatches(const dbs::cluster::ClusteringResult& got,
                        const dbs::cluster::ClusteringResult& want) {
  int64_t bad = 0;
  if (got.labels.size() != want.labels.size()) {
    bad += static_cast<int64_t>(got.labels.size() + want.labels.size());
  } else {
    for (size_t i = 0; i < got.labels.size(); ++i) {
      if (got.labels[i] != want.labels[i]) ++bad;
    }
  }
  if (HashClustering(got) != HashClustering(want)) ++bad;
  return bad;
}

template <typename Body>
double TimeBest(int reps, Body&& body) {
  double best = 0.0;
  for (int r = 0; r < reps; ++r) {
    Clock::time_point start = Clock::now();
    body();
    double seconds =
        std::chrono::duration<double>(Clock::now() - start).count();
    if (r == 0 || seconds < best) best = seconds;
  }
  return best;
}

bool ParseIntList(const std::string& spec, std::vector<int64_t>* out) {
  size_t pos = 0;
  while (pos < spec.size()) {
    size_t comma = spec.find(',', pos);
    if (comma == std::string::npos) comma = spec.size();
    int64_t value = std::atoll(spec.substr(pos, comma - pos).c_str());
    if (value <= 0) return false;
    out->push_back(value);
    pos = comma + 1;
  }
  return !out->empty();
}

// Rows checked against a golden hash have no reference time: their
// speedup prints as "-" and is null in the JSON.
void PrintRow(const SeriesResult& r) {
  std::printf("%12s %7lld %4d %10.4f %14.0f ", r.series.c_str(),
              static_cast<long long>(r.n), r.dim, r.seconds,
              r.merges_per_sec);
  if (r.speedup_vs_reference > 0) {
    std::printf("%9.2fx", r.speedup_vs_reference);
  } else {
    std::printf("%10s", "-");
  }
  std::printf(" %10lld\n", static_cast<long long>(r.mismatches));
}

void WriteJson(const std::string& path, const std::string& git_sha, int reps,
               const std::vector<SeriesResult>& results) {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) {
    std::fprintf(stderr, "cannot write %s\n", path.c_str());
    return;
  }
  std::fprintf(f, "{\n  \"bench\": \"micro_cluster\",\n");
  dbs::bench::WriteBenchMeta(f, git_sha);
  std::fprintf(f, "  \"reps\": %d,\n  \"results\": [\n", reps);
  for (size_t i = 0; i < results.size(); ++i) {
    const SeriesResult& r = results[i];
    char speedup[32];
    if (r.speedup_vs_reference > 0) {
      std::snprintf(speedup, sizeof(speedup), "%.3f", r.speedup_vs_reference);
    } else {
      std::snprintf(speedup, sizeof(speedup), "null");
    }
    std::fprintf(f,
                 "    {\"series\": \"%s\", \"n\": %lld, \"dim\": %d, "
                 "\"seconds\": %.6f, \"merges_per_sec\": %.1f, "
                 "\"speedup_vs_reference\": %s, \"mismatches\": %lld}%s\n",
                 r.series.c_str(), static_cast<long long>(r.n), r.dim,
                 r.seconds, r.merges_per_sec, speedup,
                 static_cast<long long>(r.mismatches),
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
  std::string sizes_spec = flags.GetString("sizes", "");
  std::string dims_spec = flags.GetString("dims", "");
  int reps = static_cast<int>(flags.GetInt("reps", 2));
  std::string git_sha = flags.GetString("git_sha", "unavailable");
  std::string out = flags.GetString("out", "BENCH_micro_cluster.json");
  if (!flags.AllKnown()) return 2;
  DBS_CHECK(reps > 0);
  std::vector<Config> configs;
  if (sizes_spec.empty() && dims_spec.empty()) {
    configs.assign(std::begin(kDefaultGrid), std::end(kDefaultGrid));
  } else {
    std::vector<int64_t> sizes;
    std::vector<int64_t> dims;
    if (!ParseIntList(sizes_spec.empty() ? "500,2000,8000" : sizes_spec,
                      &sizes) ||
        !ParseIntList(dims_spec.empty() ? "2,5" : dims_spec, &dims)) {
      std::fprintf(stderr, "bad sizes=/dims= list\n");
      return 2;
    }
    for (int64_t dim : dims) {
      for (int64_t n : sizes) configs.push_back({n, static_cast<int>(dim)});
    }
  }
  for (const Config& c : configs) {
    if (c.n > kReferenceMaxN && FindGolden(c.n, c.dim) == nullptr) {
      std::fprintf(stderr,
                   "n=%lld dim=%d: above n=%lld only the (n, dim) pairs "
                   "with a golden hash can be checked:",
                   static_cast<long long>(c.n), c.dim,
                   static_cast<long long>(kReferenceMaxN));
      for (const Golden& g : kGoldens) {
        std::fprintf(stderr, " (%lld, %d)", static_cast<long long>(g.n),
                     g.dim);
      }
      std::fprintf(stderr, "\n");
      return 2;
    }
  }

  std::printf("micro_cluster: best of %d reps, default options (k=10)\n\n",
              reps);
  std::printf("%12s %7s %4s %10s %14s %10s %10s\n", "series", "n", "dim",
              "seconds", "merges_per_sec", "speedup", "mismatch");

  std::vector<SeriesResult> results;
  for (const Config& c : configs) {
    const int64_t n = c.n;
    const int dim = c.dim;
    dbs::data::PointSet ps =
        MakeData(n, dim, 0xc10c5ull + static_cast<uint64_t>(n + dim));
    dbs::cluster::HierarchicalOptions opts;  // paper defaults, k=10

    auto add = [&](const std::string& series, double seconds,
                   double ref_seconds, int64_t mismatches) {
      SeriesResult r;
      r.series = series;
      r.n = n;
      r.dim = dim;
      r.seconds = seconds;
      r.merges_per_sec = seconds > 0
                             ? static_cast<double>(n - opts.num_clusters) /
                                   seconds
                             : 0.0;
      r.speedup_vs_reference = seconds > 0 ? ref_seconds / seconds : 0.0;
      r.mismatches = mismatches;
      PrintRow(r);
      results.push_back(r);
    };

    dbs::cluster::ClusteringResult ref;
    double ref_seconds = 0.0;
    if (n <= kReferenceMaxN) {
      ref_seconds = TimeBest(reps, [&] {
        auto r = dbs::cluster::HierarchicalClusterReference(ps, opts);
        DBS_CHECK(r.ok());
        ref = std::move(r).value();
      });
      add("reference", ref_seconds, ref_seconds, 0);
    }

    dbs::cluster::ClusteringResult got;
    double fast_seconds = TimeBest(reps, [&] {
      auto r = dbs::cluster::HierarchicalCluster(ps, opts);
      DBS_CHECK(r.ok());
      got = std::move(r).value();
    });
    add("accelerated", fast_seconds, ref_seconds,
        n <= kReferenceMaxN
            ? CountMismatches(got, ref)
            : (HashClustering(got) == FindGolden(n, dim)->hash ? 0 : 1));
  }

  int64_t total_mismatches = 0;
  for (const SeriesResult& r : results) total_mismatches += r.mismatches;
  if (total_mismatches > 0) {
    std::fprintf(stderr,
                 "FAIL: %lld accelerated results differ from reference\n",
                 static_cast<long long>(total_mismatches));
  }
  if (!out.empty()) WriteJson(out, git_sha, reps, results);
  return total_mismatches > 0 ? 1 : 0;
}
