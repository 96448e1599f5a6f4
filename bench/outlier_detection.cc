// §4.5 "Outlier detection experiments".
//
// Paper result to reproduce: "in almost all cases the algorithm finds all
// the outliers with at most two dataset passes plus the dataset pass that
// is required to compute the density estimator". This bench measures, on
// synthetic clustered data and on the geo-like substitute datasets:
//   * recall/precision of the KDE detector against the exact detector,
//   * passes consumed and the candidate-set size (the verification work),
//   * the candidate-slack tradeoff,
//   * end-to-end runtime vs the exact cell-list detector and the O(n^2)
//     nested-loop oracle.
//
// mode=batch switches to the perf-smoke harness for the batched scorer.
// For both integration methods it times the per-point
// IntegrateExcludingSelf loop against IntegrateExcludingSelfBatch,
// sequential and sharded across a BatchExecutor, on the same queries:
// quasi-Monte-Carlo through the probe tiles, and center-value — the
// detector's scoring pass — with no score cap, with the detector's
// threshold slack * (p + 1) = 5 * 6 as the cap (Kde then stops a row's
// kernel sum once the row is certain to score above it), and with the
// median score as the cap, so that rows on both sides of a cap are
// checked whatever the data. It exits nonzero when a full batch score
// differs bitwise from the scalar one, when a capped score decides
// `score <= cap` differently, or when a capped score at or below the cap
// differs in its bits — CI runs this as the regression gate for the batch
// paths and the cap.
//
// mode=exact times the exact detector (DetectOutliersCellList) over dims= x
// workers= on a clustered workload, checks every report field against the
// nested-loop oracle, emits JSON rows with the prune statistics and exits
// nonzero on any mismatch — CI runs this as the regression gate for the
// detector's identical-report contract. Each case also runs the
// approximate detector (DetectOutliersApproximate, scoring on the same
// workers) and fails unless every approximate outlier is an exact outlier
// with the same neighbor count; the candidate count it prints shows how
// much that check covered (a case with no candidates checks nothing).
//
// mode=paper checks every approximate report the same way: its precision
// column is measured against the exact report, and the bench exits nonzero
// when an approximate outlier is missing from the exact report or carries
// a different neighbor count.
//
//   outlier_detection [mode=paper] [points=40000] [queries=4000]
//                     [qmc_samples=64] [reps=3] [threads=4]
//   outlier_detection mode=exact [points=20000] [dims=2,3,5]
//                     [workers=0,1,4] [reps=3]
//                     [git_sha=unavailable] [out=BENCH_outlier_exact.json]
//
// mode=exact's JSON is stamped with nproc, compiler, build type and the
// git_sha= passed in.

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstring>
#include <limits>
#include <string>
#include <vector>

#include "bench_meta.h"
#include "density/kde.h"
#include "eval/experiment.h"
#include "eval/report.h"
#include "outlier/ball_integration.h"
#include "outlier/cell_list.h"
#include "outlier/kde_detector.h"
#include "outlier/nested_loop_reference.h"
#include "parallel/batch_executor.h"
#include "synth/generator.h"
#include "synth/geo.h"
#include "synth/outlier_planting.h"
#include "tools/flags.h"
#include "util/check.h"

namespace {

struct Workload {
  const char* name;
  dbs::data::PointSet points;
  std::vector<int64_t> planted;
};

Workload MakeClusteredWorkload(int64_t n, uint64_t seed, int dim = 2) {
  dbs::synth::ClusteredDatasetOptions opts;
  opts.dim = dim;
  opts.num_clusters = 8;
  opts.num_cluster_points = n;
  opts.noise_multiplier = 0.0;
  opts.seed = seed;
  auto ds = dbs::synth::MakeClusteredDataset(opts);
  DBS_CHECK(ds.ok());
  Workload w{"clustered", std::move(ds->points), {}};
  dbs::synth::OutlierPlantingOptions plant;
  plant.count = 30;
  plant.min_distance = 0.1;
  plant.domain_lo.assign(static_cast<size_t>(dim), -0.5);
  plant.domain_hi.assign(static_cast<size_t>(dim), 1.5);
  plant.seed = seed + 1;
  auto planted = dbs::synth::PlantOutliers(w.points, plant);
  DBS_CHECK(planted.ok());
  w.planted = *planted;
  return w;
}

Workload MakeGeoWorkload(uint64_t seed) {
  dbs::synth::GeoDatasetOptions opts;
  opts.num_points = 130000;
  opts.seed = seed;
  auto ds = dbs::synth::MakeNorthEastLike(opts);
  DBS_CHECK(ds.ok());
  Workload w{"northeast-like", std::move(ds->points), {}};
  dbs::synth::OutlierPlantingOptions plant;
  plant.count = 30;
  plant.min_distance = 0.1;
  plant.domain_lo = {-0.5, -0.5};
  plant.domain_hi = {1.5, 1.5};
  plant.seed = seed + 1;
  auto planted = dbs::synth::PlantOutliers(w.points, plant);
  DBS_CHECK(planted.ok());
  w.planted = *planted;
  return w;
}

dbs::density::Kde FitSharpKde(const dbs::data::PointSet& points) {
  dbs::density::KdeOptions opts;
  opts.num_kernels = 1000;
  // Outlier scoring integrates over small balls; resolve that scale.
  opts.bandwidth_scale = 0.25;
  auto kde = dbs::density::Kde::Fit(points, opts);
  DBS_CHECK(kde.ok());
  return std::move(kde).value();
}

// Runs `body` `reps` times and returns the fastest wall-clock seconds.
template <typename Body>
double TimeBest(int reps, Body&& body) {
  using Clock = std::chrono::steady_clock;
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

int64_t CountMismatches(const std::vector<double>& got,
                        const std::vector<double>& want) {
  DBS_CHECK(got.size() == want.size());
  int64_t bad = 0;
  for (size_t i = 0; i < got.size(); ++i) {
    if (std::memcmp(&got[i], &want[i], sizeof(double)) != 0) ++bad;
  }
  return bad;
}

// Rows where a batch score breaks its contract against the full scalar
// score: a different `score <= cap` decision, or different bits at or
// below the cap (every row, when cap = +inf). *stopped counts the rows
// above the cap whose score differs from the full one, i.e. whose sum
// stopped early.
int64_t CountCapMismatches(const std::vector<double>& got,
                           const std::vector<double>& full, double cap,
                           int64_t* stopped) {
  DBS_CHECK(got.size() == full.size());
  int64_t bad = 0;
  *stopped = 0;
  for (size_t i = 0; i < got.size(); ++i) {
    const bool below = full[i] <= cap;
    if (below != (got[i] <= cap) ||
        (below && std::memcmp(&got[i], &full[i], sizeof(double)) != 0)) {
      ++bad;
    } else if (!below && got[i] != full[i]) {
      ++*stopped;
    }
  }
  return bad;
}

// mode=batch: scalar vs batched ball scoring, QMC and center-value (full
// and capped), bitwise-checked. Returns the process exit code (nonzero on
// any mismatch).
int RunBatchMode(int64_t points, int64_t queries, int qmc_samples, int reps,
                 int threads, double radius) {
  std::printf("outlier_detection mode=batch: %lld points, %lld queries, "
              "qmc_samples=%d, radius=%.3f, best of %d reps\n\n",
              static_cast<long long>(points),
              static_cast<long long>(queries), qmc_samples, radius, reps);

  Workload w = MakeClusteredWorkload(points, 41);
  dbs::density::Kde kde = FitSharpKde(w.points);
  dbs::data::PointSet scored = w.points.Gather([&] {
    std::vector<int64_t> idx;
    const int64_t stride = w.points.size() / queries > 0
                               ? w.points.size() / queries
                               : 1;
    for (int64_t i = 0; i < w.points.size() &&
         static_cast<int64_t>(idx.size()) < queries; i += stride) {
      idx.push_back(i);
    }
    return idx;
  }());
  const int64_t nq = scored.size();
  const double* rows = scored.flat().data();
  dbs::outlier::BallIntegrator integrator(
      dbs::outlier::BallIntegration::kQuasiMonteCarlo, scored.dim(),
      qmc_samples);

  std::vector<double> ref(static_cast<size_t>(nq));
  std::vector<double> got(static_cast<size_t>(nq));

  const double scalar_s = TimeBest(reps, [&] {
    for (int64_t i = 0; i < nq; ++i) {
      ref[static_cast<size_t>(i)] =
          integrator.IntegrateExcludingSelf(kde, scored[i], radius);
    }
  });

  const double batch_s = TimeBest(reps, [&] {
    DBS_CHECK(integrator
                  .IntegrateExcludingSelfBatch(kde, rows, nq, radius,
                                               got.data(), nullptr)
                  .ok());
  });
  const int64_t batch_bad = CountMismatches(got, ref);

  dbs::parallel::BatchExecutorOptions pool;
  pool.num_workers = threads;
  pool.queue_capacity = 4096;
  dbs::parallel::BatchExecutor executor(pool);
  const double sharded_s = TimeBest(reps, [&] {
    DBS_CHECK(integrator
                  .IntegrateExcludingSelfBatch(kde, rows, nq, radius,
                                               got.data(), &executor)
                  .ok());
  });
  const int64_t sharded_bad = CountMismatches(got, ref);

  // Center-value leave-one-out, the detector's scoring pass: the scalar
  // loop, then the batch with no cap and with the detector's threshold as
  // the cap, each sequential and sharded, and with the median score as
  // the cap.
  const dbs::outlier::BallIntegrator center(
      dbs::outlier::BallIntegration::kCenterValue, scored.dim());
  std::vector<double> cv_ref(static_cast<size_t>(nq));
  const double cv_scalar_s = TimeBest(reps, [&] {
    for (int64_t i = 0; i < nq; ++i) {
      cv_ref[static_cast<size_t>(i)] =
          center.IntegrateExcludingSelf(kde, scored[i], radius);
    }
  });
  const double cap = 5.0 * (5 + 1);
  std::vector<double> sorted_ref = cv_ref;
  std::nth_element(sorted_ref.begin(),
                   sorted_ref.begin() + static_cast<int64_t>(nq / 2),
                   sorted_ref.end());
  const double median_cap = sorted_ref[static_cast<size_t>(nq / 2)];
  struct CenterSeries {
    const char* name;
    dbs::parallel::BatchExecutor* executor;
    double cap;
    double seconds = 0.0;
    int64_t bad = 0;
    int64_t stopped = 0;
  };
  const double kNoCap = std::numeric_limits<double>::infinity();
  CenterSeries cv_series[] = {
      {"batch_cv", nullptr, kNoCap},
      {"batch_cv_sharded", &executor, kNoCap},
      {"batch_cv_capped", nullptr, cap},
      {"batch_cv_capped_sharded", &executor, cap},
      {"batch_cv_capped_median", nullptr, median_cap}};
  for (CenterSeries& series : cv_series) {
    series.seconds = TimeBest(reps, [&] {
      DBS_CHECK(center
                    .IntegrateExcludingSelfBatch(kde, rows, nq, radius,
                                                 got.data(), series.executor,
                                                 series.cap)
                    .ok());
    });
    series.bad =
        CountCapMismatches(got, cv_ref, series.cap, &series.stopped);
  }
  executor.Shutdown();

  std::printf("%24s %10s %14s %9s %10s\n", "series", "seconds",
              "points_per_sec", "speedup", "mismatch");
  auto row = [&](const char* series, double seconds, double scalar_seconds,
                 int64_t bad) {
    std::printf("%24s %10.4f %14.0f %8.2fx %10lld\n", series, seconds,
                seconds > 0 ? static_cast<double>(nq) / seconds : 0.0,
                seconds > 0 ? scalar_seconds / seconds : 0.0,
                static_cast<long long>(bad));
  };
  row("scalar_qmc", scalar_s, scalar_s, 0);
  row("batch_qmc", batch_s, scalar_s, batch_bad);
  row("batch_qmc_sharded", sharded_s, scalar_s, sharded_bad);
  row("scalar_cv", cv_scalar_s, cv_scalar_s, 0);
  int64_t total_bad = batch_bad + sharded_bad;
  for (const CenterSeries& series : cv_series) {
    row(series.name, series.seconds, cv_scalar_s, series.bad);
    total_bad += series.bad;
  }
  std::printf("\n");
  for (const CenterSeries& series : cv_series) {
    if (series.cap == kNoCap || series.executor != nullptr) continue;
    const int64_t at_or_below =
        std::count_if(cv_ref.begin(), cv_ref.end(),
                      [&](double v) { return v <= series.cap; });
    std::printf("%s: cap %g, %lld of %lld rows score at or below it, %lld "
                "rows stopped early\n",
                series.name, series.cap, static_cast<long long>(at_or_below),
                static_cast<long long>(nq),
                static_cast<long long>(series.stopped));
  }

  if (total_bad > 0) {
    std::fprintf(stderr,
                 "FAIL: %lld batched scores differ bitwise from scalar or "
                 "break the cap's contract\n",
                 static_cast<long long>(total_bad));
    return 1;
  }
  return 0;
}

bool ParseIntList(const std::string& spec, std::vector<int>* out) {
  size_t pos = 0;
  while (pos < spec.size()) {
    size_t comma = spec.find(',', pos);
    if (comma == std::string::npos) comma = spec.size();
    const std::string token = spec.substr(pos, comma - pos);
    if (token.empty()) return false;
    for (char c : token) {
      if (c < '0' || c > '9') return false;
    }
    out->push_back(std::atoi(token.c_str()));
    pos = comma + 1;
  }
  return !out->empty();
}

// Approximate outliers that are NOT exact outliers with the same neighbor
// count. Both reports list outliers in ascending row order.
int64_t CountUnconfirmed(const dbs::outlier::OutlierReport& approx,
                         const dbs::outlier::OutlierReport& exact) {
  const std::vector<int64_t>& idx = exact.outlier_indices;
  int64_t bad = 0;
  for (size_t i = 0; i < approx.outlier_indices.size(); ++i) {
    auto it = std::lower_bound(idx.begin(), idx.end(),
                               approx.outlier_indices[i]);
    if (it == idx.end() || *it != approx.outlier_indices[i] ||
        exact.neighbor_counts[static_cast<size_t>(it - idx.begin())] !=
            approx.neighbor_counts[i]) {
      ++bad;
    }
  }
  return bad;
}

// Field-by-field report comparison; any difference in the outlier set, the
// per-outlier counts, candidates_checked or passes counts as one mismatch
// per differing field (sizes differing count the whole field once).
int64_t CountReportMismatches(const dbs::outlier::OutlierReport& got,
                              const dbs::outlier::OutlierReport& want) {
  int64_t bad = 0;
  if (got.outlier_indices != want.outlier_indices) ++bad;
  if (got.neighbor_counts != want.neighbor_counts) ++bad;
  if (got.candidates_checked != want.candidates_checked) ++bad;
  if (got.passes != want.passes) ++bad;
  return bad;
}

struct ExactSeries {
  int dim = 0;
  int workers = 0;  // 0 = sequential (no executor)
  double seconds = 0.0;
  double speedup_vs_seq = 0.0;  // vs this dim's workers=0 row
  int64_t mismatches = 0;
  dbs::outlier::CellListStats stats;
  // The approximate detector on the same case: candidates it verified and
  // outliers it reported that the exact report does not confirm.
  int64_t approx_candidates = 0;
  int64_t approx_unconfirmed = 0;
};

void WriteExactJson(const std::string& path, const std::string& git_sha,
                    int64_t points, int reps,
                    const std::vector<ExactSeries>& results) {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) {
    std::fprintf(stderr, "cannot write %s\n", path.c_str());
    return;
  }
  std::fprintf(f, "{\n  \"bench\": \"outlier_exact\",\n");
  dbs::bench::WriteBenchMeta(f, git_sha);
  std::fprintf(f,
               "  \"points\": %lld,\n  \"reps\": %d,\n"
               "  \"results\": [\n",
               static_cast<long long>(points), reps);
  for (size_t i = 0; i < results.size(); ++i) {
    const ExactSeries& r = results[i];
    std::fprintf(
        f,
        "    {\"dim\": %d, \"workers\": %d, "
        "\"seconds\": %.6f, \"speedup_vs_seq\": %.3f, "
        "\"mismatches\": %lld, \"grid_cells\": %lld, "
        "\"occupied_cells\": %lld, \"cells_dense_pruned\": %lld, "
        "\"cells_sparse_pruned\": %lld, \"pairwise_evaluated\": %lld, "
        "\"used_fallback\": %s, \"approx_candidates\": %lld, "
        "\"approx_unconfirmed\": %lld}%s\n",
        r.dim, r.workers, r.seconds, r.speedup_vs_seq,
        static_cast<long long>(r.mismatches),
        static_cast<long long>(r.stats.grid_cells),
        static_cast<long long>(r.stats.occupied_cells),
        static_cast<long long>(r.stats.cells_dense_pruned),
        static_cast<long long>(r.stats.cells_sparse_pruned),
        static_cast<long long>(r.stats.pairwise_evaluated),
        r.stats.used_fallback ? "true" : "false",
        static_cast<long long>(r.approx_candidates),
        static_cast<long long>(r.approx_unconfirmed),
        i + 1 < results.size() ? "," : "");
  }
  std::fprintf(f, "  ]\n}\n");
  std::fclose(f);
  std::printf("wrote %s\n", path.c_str());
}

// mode=exact: the exact detector over dims x workers, every report checked
// field-by-field against the nested-loop oracle. Returns the process exit
// code (nonzero on any mismatch).
int RunExactMode(int64_t points, const std::vector<int>& dims,
                 const std::vector<int>& worker_counts, int reps,
                 const std::string& git_sha, const std::string& out) {
  dbs::outlier::DbOutlierParams params;
  params.radius = 0.05;
  params.max_neighbors = 5;
  std::printf("outlier_detection mode=exact: %lld points, DB(p=%lld, "
              "k=%.2f)-outliers, clustered workload, best of %d reps\n\n",
              static_cast<long long>(points),
              static_cast<long long>(params.max_neighbors), params.radius,
              reps);
  std::printf("%4s %8s %10s %9s %9s %7s %7s %11s %9s %11s %12s\n", "dim",
              "workers", "seconds", "speedup", "mismatch", "dense", "sparse",
              "pairwise", "fallback", "candidates", "unconfirmed");

  std::vector<ExactSeries> results;
  int64_t total_bad = 0;
  int64_t total_unconfirmed = 0;
  for (int dim : dims) {
    Workload w = MakeClusteredWorkload(points, 61, dim);
    auto reference = dbs::outlier::DetectOutliersNestedLoop(w.points, params);
    DBS_CHECK(reference.ok());
    dbs::density::Kde kde = FitSharpKde(w.points);
    double seq_seconds = 0.0;
    for (int workers : worker_counts) {
      std::unique_ptr<dbs::parallel::BatchExecutor> pool;
      if (workers > 0) {
        dbs::parallel::BatchExecutorOptions pool_opts;
        pool_opts.num_workers = workers;
        pool_opts.queue_capacity = 4096;
        pool = std::make_unique<dbs::parallel::BatchExecutor>(pool_opts);
      }
      ExactSeries series;
      series.dim = dim;
      series.workers = workers;
      dbs::outlier::CellListDetectorOptions options;
      options.executor = pool.get();
      options.stats = &series.stats;
      dbs::outlier::OutlierReport report;
      series.seconds = TimeBest(reps, [&] {
        auto r =
            dbs::outlier::DetectOutliersCellList(w.points, params, options);
        DBS_CHECK(r.ok());
        report = std::move(r).value();
      });
      dbs::outlier::KdeDetectorOptions approx_options;
      approx_options.candidate_slack = 5.0;
      approx_options.executor = pool.get();
      auto approx = dbs::outlier::DetectOutliersApproximate(
          w.points, kde, params, approx_options);
      DBS_CHECK(approx.ok());
      series.approx_candidates = approx->candidates_checked;
      series.approx_unconfirmed = CountUnconfirmed(*approx, *reference);
      total_unconfirmed += series.approx_unconfirmed;
      if (pool != nullptr) pool->Shutdown();
      if (workers == 0) seq_seconds = series.seconds;
      series.speedup_vs_seq = seq_seconds > 0 && series.seconds > 0
                                  ? seq_seconds / series.seconds
                                  : 0.0;
      series.mismatches = CountReportMismatches(report, *reference);
      total_bad += series.mismatches;
      std::printf(
          "%4d %8d %10.4f %8.2fx %9lld %7lld %7lld %11lld %9s %11lld %12lld\n",
          dim, workers, series.seconds, series.speedup_vs_seq,
          static_cast<long long>(series.mismatches),
          static_cast<long long>(series.stats.cells_dense_pruned),
          static_cast<long long>(series.stats.cells_sparse_pruned),
          static_cast<long long>(series.stats.pairwise_evaluated),
          series.stats.used_fallback ? "yes" : "no",
          static_cast<long long>(series.approx_candidates),
          static_cast<long long>(series.approx_unconfirmed));
      results.push_back(std::move(series));
    }
  }
  if (!out.empty()) WriteExactJson(out, git_sha, points, reps, results);
  if (total_bad > 0) {
    std::fprintf(stderr,
                 "FAIL: %lld report fields differ from the nested-loop "
                 "oracle\n",
                 static_cast<long long>(total_bad));
  }
  if (total_unconfirmed > 0) {
    std::fprintf(stderr,
                 "FAIL: %lld approximate outliers are not exact outliers "
                 "with the same neighbor count\n",
                 static_cast<long long>(total_unconfirmed));
  }
  return total_bad > 0 || total_unconfirmed > 0 ? 1 : 0;
}

}  // namespace

int main(int argc, char** argv) {
  dbs::tools::Flags flags;
  if (!flags.Parse(argc, argv)) return 2;
  const std::string mode = flags.GetString("mode", "paper");
  const int64_t batch_points = flags.GetInt("points", 40000);
  const int64_t batch_queries = flags.GetInt("queries", 4000);
  const int qmc_samples = static_cast<int>(flags.GetInt("qmc_samples", 64));
  const int reps = static_cast<int>(flags.GetInt("reps", 3));
  const int threads = static_cast<int>(flags.GetInt("threads", 4));
  const std::string dims_spec = flags.GetString("dims", "2,3,5");
  const std::string workers_spec = flags.GetString("workers", "0,1,4");
  const std::string git_sha = flags.GetString("git_sha", "unavailable");
  const std::string out =
      flags.GetString("out", "BENCH_outlier_exact.json");
  if (!flags.AllKnown()) return 2;
  DBS_CHECK(batch_points > 0 && batch_queries > 0 && qmc_samples > 0 &&
            reps > 0 && threads > 0);
  if (mode == "batch") {
    return RunBatchMode(batch_points, batch_queries, qmc_samples, reps,
                        threads, /*radius=*/0.05);
  }
  if (mode == "exact") {
    std::vector<int> dims;
    std::vector<int> worker_counts;
    if (!ParseIntList(dims_spec, &dims) ||
        !ParseIntList(workers_spec, &worker_counts)) {
      std::fprintf(stderr, "bad dims=/workers=\n");
      return 2;
    }
    // The default points=40000 is sized for mode=paper; mode=exact runs the
    // quadratic nested-loop oracle too, so its acceptance sweep uses
    // points=20000.
    return RunExactMode(batch_points, dims, worker_counts, reps, git_sha,
                        out);
  }
  if (mode != "paper") {
    std::fprintf(stderr, "unknown mode '%s' (expected paper|batch|exact)\n",
                 mode.c_str());
    return 2;
  }

  dbs::outlier::DbOutlierParams params;
  params.radius = 0.05;
  params.max_neighbors = 5;

  std::printf("Outlier detection (paper section 4.5): DB(p=%lld, "
              "k=%.2f)-outliers\n",
              static_cast<long long>(params.max_neighbors), params.radius);

  // Part 1: recall/precision/passes on both workloads.
  dbs::eval::Table quality({"dataset", "n", "true outliers",
                            "KDE found", "recall", "precision",
                            "candidates", "passes"});
  int64_t unconfirmed = 0;  // over every approximate report below
  std::vector<Workload> workloads;
  workloads.push_back(MakeClusteredWorkload(80000, 41));
  workloads.push_back(MakeGeoWorkload(43));
  for (const Workload& w : workloads) {
    auto exact = dbs::outlier::DetectOutliersCellList(w.points, params);
    DBS_CHECK(exact.ok());
    dbs::density::Kde kde = FitSharpKde(w.points);
    dbs::data::InMemoryScan scan(&w.points);
    dbs::outlier::KdeDetectorOptions detector_opts;
    detector_opts.candidate_slack = 5.0;
    auto approx = dbs::outlier::DetectOutliersApproximate(scan, kde, params,
                                                          detector_opts);
    DBS_CHECK(approx.ok());

    // Precision: the share of approximate outliers the exact report
    // confirms, with the same neighbor count. Recall is found / true.
    const int64_t found =
        static_cast<int64_t>(approx->outlier_indices.size());
    const int64_t wrong = CountUnconfirmed(*approx, *exact);
    unconfirmed += wrong;
    const double precision =
        found == 0 ? 1.0
                   : static_cast<double>(found - wrong) /
                         static_cast<double>(found);
    int64_t hits = 0;
    size_t cursor = 0;
    for (int64_t idx : exact->outlier_indices) {
      while (cursor < approx->outlier_indices.size() &&
             approx->outlier_indices[cursor] < idx) {
        ++cursor;
      }
      if (cursor < approx->outlier_indices.size() &&
          approx->outlier_indices[cursor] == idx) {
        ++hits;
      }
    }
    double recall = exact->outlier_indices.empty()
                        ? 1.0
                        : static_cast<double>(hits) /
                              static_cast<double>(
                                  exact->outlier_indices.size());
    quality.AddRow(
        {w.name, dbs::eval::Table::Int(w.points.size()),
         dbs::eval::Table::Int(
             static_cast<int64_t>(exact->outlier_indices.size())),
         dbs::eval::Table::Int(found),
         dbs::eval::Table::Num(recall, 3),
         dbs::eval::Table::Num(precision, 3),
         dbs::eval::Table::Int(approx->candidates_checked),
         dbs::eval::Table::Int(approx->passes)});
  }
  quality.Print("detection quality (passes exclude the estimator pass)");

  // Part 2: candidate slack sweep — recall vs verification work.
  {
    Workload w = MakeClusteredWorkload(80000, 47);
    auto exact = dbs::outlier::DetectOutliersCellList(w.points, params);
    DBS_CHECK(exact.ok());
    dbs::density::Kde kde = FitSharpKde(w.points);
    dbs::eval::Table sweep({"slack", "recall", "candidates"});
    for (double slack : {1.0, 2.0, 5.0, 10.0, 25.0}) {
      dbs::outlier::KdeDetectorOptions opts;
      opts.candidate_slack = slack;
      auto approx =
          dbs::outlier::DetectOutliersApproximate(w.points, kde, params,
                                                  opts);
      DBS_CHECK(approx.ok());
      unconfirmed += CountUnconfirmed(*approx, *exact);
      int64_t hits = 0;
      for (int64_t idx : exact->outlier_indices) {
        for (int64_t got : approx->outlier_indices) {
          if (got == idx) {
            ++hits;
            break;
          }
        }
      }
      double recall = exact->outlier_indices.empty()
                          ? 1.0
                          : static_cast<double>(hits) /
                                static_cast<double>(
                                    exact->outlier_indices.size());
      sweep.AddRow({dbs::eval::Table::Num(slack, 1),
                    dbs::eval::Table::Num(recall, 3),
                    dbs::eval::Table::Int(approx->candidates_checked)});
    }
    sweep.Print("candidate-slack tradeoff (recall vs verification work)");
  }

  // Part 3: runtime scaling vs the exact detector and the nested-loop
  // oracle.
  {
    dbs::eval::Table timing({"n", "estimator (s)", "KDE detect (s)",
                             "exact cell list (s)", "nested loop (s)"});
    for (int64_t n : {20000LL, 40000LL, 80000LL}) {
      Workload w = MakeClusteredWorkload(n, 53);
      dbs::eval::Timer fit_timer;
      dbs::density::Kde kde = FitSharpKde(w.points);
      double fit_s = fit_timer.ElapsedSeconds();

      dbs::eval::Timer kde_timer;
      dbs::outlier::KdeDetectorOptions opts;
      opts.candidate_slack = 5.0;
      auto approx =
          dbs::outlier::DetectOutliersApproximate(w.points, kde, params,
                                                  opts);
      DBS_CHECK(approx.ok());
      double kde_s = kde_timer.ElapsedSeconds();

      dbs::eval::Timer exact_timer;
      auto exact = dbs::outlier::DetectOutliersCellList(w.points, params);
      DBS_CHECK(exact.ok());
      double exact_s = exact_timer.ElapsedSeconds();
      unconfirmed += CountUnconfirmed(*approx, *exact);

      dbs::eval::Timer loop_timer;
      auto loop = dbs::outlier::DetectOutliersNestedLoop(w.points, params);
      DBS_CHECK(loop.ok());
      double loop_s = loop_timer.ElapsedSeconds();

      timing.AddRow({dbs::eval::Table::Int(w.points.size()),
                     dbs::eval::Table::Num(fit_s, 3),
                     dbs::eval::Table::Num(kde_s, 3),
                     dbs::eval::Table::Num(exact_s, 3),
                     dbs::eval::Table::Num(loop_s, 3)});
    }
    timing.Print("runtime scaling (KDE detection is pass-bounded; the "
                 "nested loop is quadratic)");
  }
  if (unconfirmed > 0) {
    std::fprintf(stderr,
                 "FAIL: %lld approximate outliers are not exact outliers "
                 "with the same neighbor count\n",
                 static_cast<long long>(unconfirmed));
    return 1;
  }
  return 0;
}
