// The two dataset pipelines: BS-CURE (bscure-2d) and approximate DB(p,k)
// outlier detection with its exact baseline (outlier-3d).
//
// Each pipeline run opens the .dbsf written at set-up and calls the
// library's public entry points in the order the tools do. A traced run
// makes the same calls through TimedScan/TimedEstimator and records one
// span per library call, plus one per dataset pass inside the sampler and
// the detector.

#include <algorithm>
#include <cstdio>
#include <cstring>
#include <functional>
#include <memory>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "bench.h"
#include "cluster/hierarchical.h"
#include "core/biased_sampler.h"
#include "data/dataset_io.h"
#include "density/kde.h"
#include "eval/cluster_match.h"
#include "outlier/cell_list.h"
#include "outlier/kde_detector.h"
#include "parallel/batch_executor.h"
#include "sampling/uniform_sampler.h"
#include "trace.h"

namespace perfbench {
namespace {

constexpr int64_t kBatchRows = 8192;
// The paper's §4.5 claim: the estimator pass plus at most two more.
constexpr int kExpectedPasses = 3;

struct Dataset {
  std::string path;
  dbs::synth::GroundTruth truth;  // regions only
  dbs::data::PointSet points;     // kept only when the workload needs them
  double setup_s = 0.0;
};

// Set-up: generate the points and write them to a .dbsf.
Dataset GenerateDataset(const Options& options, int dim,
                        int64_t cluster_points, bool keep_points,
                        Report* report) {
  const Clock::time_point start = Clock::now();
  Dataset out;
  out.path = options.workdir + "/" + options.workload + "-" +
             std::to_string(options.seed) + ".dbsf";
  Synthetic generated =
      MakeSynthetic(dim, cluster_points, options.seed, /*shuffle=*/false);
  dbs::Status written =
      dbs::data::WriteDatasetFile(out.path, generated.points);
  if (!written.ok()) {
    report->Fail("dataset write: " + written.ToString());
    return out;
  }
  out.truth.regions = std::move(generated.regions);
  if (keep_points) out.points = std::move(generated.points);
  out.setup_s = SecondsBetween(start, Clock::now());
  return out;
}

// Set-up, repeated: the fastest of several set-ups is the setup_s metric.
// Only the last dataset is kept.
Dataset SetUp(const Options& options, int dim, int64_t cluster_points,
              bool keep_points, Report* report) {
  const int rounds = options.trace ? 1 : kSetUpRounds;
  std::vector<double> times;
  Dataset data;
  for (int i = 0; i < rounds; ++i) {
    data = Dataset{};  // free the previous round's points first
    data = GenerateDataset(options, dim, cluster_points, keep_points, report);
    times.push_back(data.setup_s);
  }
  if (!options.trace) report->EndToEnd("setup_s", Fastest(times), "s");
  report->Fact("points", static_cast<double>(
                             cluster_points + cluster_points / 10));
  report->Fact("dim", dim);
  return data;
}

bool SameBytes(const std::vector<double>& a, const std::vector<double>& b) {
  return a.size() == b.size() &&
         std::memcmp(a.data(), b.data(), a.size() * sizeof(double)) == 0;
}

void AppendFlat(std::vector<double>* out, const std::vector<double>& v) {
  out->insert(out->end(), v.begin(), v.end());
}

// Per-layer figures of one traced run, by name.
using LayerValues = std::vector<Metric>;

// A pipeline as the measurement loop sees it: one run, traced or not,
// returning its wall time (negative when the run failed).
using PipelineRun = std::function<double(Tracer*, LayerValues*)>;

// Common measurement loop of the two pipelines. Untraced mode alternates
// pipeline and baseline runs; traced mode alternates untraced and traced
// pipeline runs. A warm-up run of each kind precedes the measured phase.
// The peak-RSS high-water mark is reset before each untraced pipeline run
// and read right after it, so peak_rss_mb is the pipeline's own peak and
// never the baseline's.
void Measure(const Options& options, Report* report, const PipelineRun& run,
             const std::function<double()>& baseline, TraceDump* dump) {
  Tracer tracer(Clock::now());
  // Warm-up: fills the page cache, sets the reference outputs.
  if (run(nullptr, nullptr) < 0) return;
  if (!options.trace && baseline() < 0) return;

  bool rss_reset = true;
  double peak_rss = 0.0;
  std::vector<double> runs;
  std::vector<double> baselines;
  std::vector<double> traced;
  LayerSamples layer_samples;
  const Clock::time_point start = Clock::now();
  for (int reps = 0; !PhaseDone(start, options.seconds, reps); ++reps) {
    rss_reset = ResetPeakRss() && rss_reset;
    double wall = run(nullptr, nullptr);
    if (wall < 0) return;
    peak_rss = std::max(peak_rss, PeakRssMb());
    runs.push_back(wall);
    if (!options.trace) {
      double base = baseline();
      if (base < 0) return;
      baselines.push_back(base);
      continue;
    }
    tracer.Clear();
    LayerValues layers;
    wall = run(&tracer, &layers);
    if (wall < 0) return;
    traced.push_back(wall);
    layer_samples.Add(layers);
  }
  report->Fact("peak_rss_reset", rss_reset ? 1 : 0);
  report->Fact("measured_reps", static_cast<double>(runs.size()));
  report->Info("run_median_s", Median(runs), "s");

  if (!options.trace) {
    report->EndToEnd("run_s", Fastest(runs), "s");
    report->EndToEnd("baseline_s", Fastest(baselines), "s");
    report->Info("baseline_median_s", Median(baselines), "s");
    report->EndToEnd("peak_rss_mb", peak_rss, "MB");
    return;
  }
  layer_samples.ReportTo(report);
  report->Layer("trace.overhead_frac", Fastest(traced) / Fastest(runs) - 1.0,
                "frac");
  dump->threads.push_back({0, tracer.spans()});
}

// Opens the dataset for one pipeline run, wrapped when traced.
struct OpenedScan {
  std::unique_ptr<dbs::data::FileScan> file;
  std::optional<TimedScan> timed;
  dbs::data::DataScan* scan = nullptr;
};

bool OpenScan(const std::string& path, bool double_buffered, Tracer* tracer,
              Report* report, OpenedScan* out) {
  auto opened = InSpan(tracer, "data.open", -1, [&] {
    return dbs::data::FileScan::Open(path, kBatchRows, double_buffered);
  });
  if (!opened.ok()) {
    report->Fail("open: " + opened.status().ToString());
    report->Attempt(false);
    return false;
  }
  out->file = std::move(*opened);
  out->scan = out->file.get();
  if (tracer != nullptr) {
    out->timed.emplace(out->file.get(), tracer);
    out->scan = &*out->timed;
  }
  return true;
}

// Closes the scan (joins the prefetch thread) inside a span.
void CloseScan(Tracer* tracer, OpenedScan* scan) {
  InSpan(tracer, "data.close", -1, [&] {
    scan->file.reset();
    return 0;
  });
}

// Pass-count check: the pipeline must read its dataset exactly three times.
void CheckPasses(const OpenedScan& scan, const char* pipeline,
                 Report* report) {
  int passes = scan.file->passes();
  if (scan.timed && scan.timed->passes() != passes) {
    report->Fail(std::string(pipeline) +
                 ": wrapped scan and file scan disagree on passes");
  }
  if (passes != kExpectedPasses) {
    report->Fail(std::string(pipeline) + ": data.passes = " +
                 std::to_string(passes) + ", expected " +
                 std::to_string(kExpectedPasses));
  }
}

// Data-layer and trace figures every traced pipeline run reports.
void AddScanLayers(const OpenedScan& scan, const Tracer& tracer,
                   double wall, LayerValues* layers) {
  layers->push_back({"data.scan_wait_s", scan.timed->wait_s(), "s"});
  layers->push_back(
      {"data.rows_scanned", static_cast<double>(scan.timed->rows()), "count"});
  layers->push_back(
      {"data.bytes_scanned", static_cast<double>(scan.timed->bytes()), "B"});
  layers->push_back(
      {"data.passes", static_cast<double>(scan.timed->passes()), "count"});
  layers->push_back({"density.fit_s", tracer.Total("density.fit"), "s"});
  layers->push_back({"trace.unaccounted_frac",
                     (wall - tracer.TopLevelTotal()) / wall, "frac"});
}

// The share of the wall time the layer figures leave unexplained. The
// top-level spans cover the whole run by construction, so
// trace.unaccounted_frac only checks that coverage; this residual is what
// remains after the layer times (`explained_s`) are taken out: the
// pipeline's own work outside them, plus open, close and benchmark glue.
void AddLayerResidual(double wall, double explained_s, LayerValues* layers) {
  layers->push_back(
      {"trace.layer_residual_frac", (wall - explained_s) / wall, "frac"});
}

void AddEstimatorLayers(const TimedEstimator& estimator,
                        LayerValues* layers) {
  const double eval_s = estimator.busy_s();
  const double rows = static_cast<double>(estimator.rows());
  layers->push_back({"density.eval_s", eval_s, "s"});
  layers->push_back({"density.eval_rows", rows, "count"});
  layers->push_back({"density.eval_rows_per_s",
                     eval_s > 0 ? rows / eval_s : 0.0, "rows/s"});
}

}  // namespace

// ---------------------------------------------------------------------------
// bscure-2d: fit -> normalize -> sample -> agglomerate (paper §2.2, §3.1).

void RunBscure2d(const Options& options, Report* report, TraceDump* dump) {
  const int64_t cluster_points = options.tiny ? 20000 : 1000000;
  const int64_t kernels = options.tiny ? 200 : 1000;
  const int64_t sample_target = options.tiny ? 1000 : 8000;
  Dataset data = SetUp(options, 2, cluster_points, false, report);
  if (!report->correct()) return;
  report->Fact("kernels", static_cast<double>(kernels));
  report->Fact("sample_target", static_cast<double>(sample_target));

  dbs::density::KdeOptions kde_options;
  kde_options.num_kernels = kernels;
  kde_options.bandwidth_scale = 0.3;
  kde_options.seed = options.seed;
  dbs::core::BiasedSamplerOptions sampler_options;
  sampler_options.a = 1.0;
  sampler_options.target_size = sample_target;
  sampler_options.seed = options.seed;
  dbs::cluster::HierarchicalOptions cluster_options;
  cluster_options.num_clusters = 10;

  // Reference outputs, set by the warm-up run.
  std::optional<std::vector<double>> reference_sample;
  std::optional<std::vector<double>> reference_clusters;
  int reference_found = -1;

  auto check = [&](const char* what, const std::vector<double>& sample,
                   const std::vector<double>& clusters, int found) {
    if (!reference_sample) {
      reference_sample = sample;
      reference_clusters = clusters;
      reference_found = found;
      return;
    }
    if (!SameBytes(sample, *reference_sample)) {
      report->Fail(std::string(what) + ": sample bytes differ from the "
                   "first run");
    }
    if (!SameBytes(clusters, *reference_clusters) ||
        found != reference_found) {
      report->Fail(std::string(what) + ": clustering differs from the "
                   "first run");
    }
  };

  PipelineRun run = [&](Tracer* tracer, LayerValues* layers) -> double {
    const Clock::time_point start = Clock::now();
    OpenedScan scan;
    if (!OpenScan(data.path, /*double_buffered=*/true, tracer, report,
                  &scan)) {
      return -1;
    }
    auto kde = InSpan(tracer, "density.fit", -1, [&] {
      return dbs::density::Kde::Fit(*scan.scan, kde_options);
    });
    if (!kde.ok()) {
      report->Fail("Kde::Fit: " + kde.status().ToString());
      report->Attempt(false);
      return -1;
    }
    std::optional<TimedEstimator> timed_kde;
    const dbs::density::DensityEstimator* estimator = &*kde;
    if (tracer != nullptr) {
      timed_kde.emplace(&*kde);
      estimator = &*timed_kde;
    }

    const double wait_before = scan.timed ? scan.timed->wait_s() : 0.0;
    int sampler_span = -1;
    if (tracer != nullptr) {
      sampler_span = tracer->Begin("core.sampler");
      scan.timed->ExpectPasses({"core.normalize", "core.sample"},
                               sampler_span);
    }
    auto sample =
        dbs::core::BiasedSampler(sampler_options).Run(*scan.scan, *estimator);
    if (tracer != nullptr) {
      scan.timed->EndPasses();
      tracer->End(sampler_span);
    }
    if (!sample.ok()) {
      report->Fail("BiasedSampler::Run: " + sample.status().ToString());
      report->Attempt(false);
      return -1;
    }
    const double sampler_wait =
        scan.timed ? scan.timed->wait_s() - wait_before : 0.0;

    auto clusters = InSpan(tracer, "cluster.agglomerate", -1, [&] {
      return dbs::cluster::HierarchicalCluster(sample->points,
                                               cluster_options);
    });
    CheckPasses(scan, "bscure-2d", report);
    CloseScan(tracer, &scan);
    const double wall = SecondsBetween(start, Clock::now());
    if (!clusters.ok()) {
      report->Fail("HierarchicalCluster: " + clusters.status().ToString());
      report->Attempt(false);
      return -1;
    }
    report->Attempt(true);

    // Outputs: the sample bytes and the clustering, checked against the
    // warm-up run; quality under the paper's 90%-of-representatives rule.
    std::vector<double> sample_bytes = sample->points.flat();
    AppendFlat(&sample_bytes, sample->inclusion_probs);
    AppendFlat(&sample_bytes, sample->densities);
    sample_bytes.push_back(sample->normalizer);
    std::vector<double> cluster_bytes;
    int64_t eliminated = 0;
    for (int32_t label : clusters->labels) {
      cluster_bytes.push_back(label);
      if (label < 0) ++eliminated;
    }
    for (const dbs::cluster::Cluster& c : clusters->clusters) {
      AppendFlat(&cluster_bytes, c.representatives.flat());
    }
    const int found = dbs::eval::MatchClusters(*clusters, data.truth)
                          .num_found();
    check(tracer != nullptr ? "traced run" : "untraced run", sample_bytes,
          cluster_bytes, found);

    if (layers != nullptr) {
      AddScanLayers(scan, *tracer, wall, layers);
      AddEstimatorLayers(*timed_kde, layers);
      const double sampler_s = tracer->Total("core.sampler");
      layers->push_back(
          {"core.normalize_s", tracer->Total("core.normalize"), "s"});
      layers->push_back({"core.sample_s", tracer->Total("core.sample"), "s"});
      layers->push_back({"core.self_s",
                         sampler_s - sampler_wait - timed_kde->busy_s(),
                         "s"});
      layers->push_back({"core.sample_size",
                         static_cast<double>(sample->points.size()),
                         "count"});
      layers->push_back({"cluster.agglomerate_s",
                         tracer->Total("cluster.agglomerate"), "s"});
      layers->push_back({"cluster.points",
                         static_cast<double>(sample->points.size()),
                         "count"});
      layers->push_back({"cluster.eliminated",
                         static_cast<double>(eliminated), "count"});
      // Pass 0 is the fit's, already inside density.fit_s.
      AddLayerResidual(wall,
                       tracer->Total("density.fit") +
                           scan.timed->pass_wait_s(1) +
                           scan.timed->pass_wait_s(2) + timed_kde->busy_s() +
                           tracer->Total("cluster.agglomerate"),
                       layers);
    }
    return wall;
  };

  // Baseline: the same clustering on a uniform sample of the same expected
  // size (one scan pass), the comparison of the paper's Figs 4-6.
  std::optional<std::vector<double>> reference_uniform;
  int uniform_found = -1;
  auto baseline = [&]() -> double {
    const Clock::time_point start = Clock::now();
    OpenedScan scan;
    if (!OpenScan(data.path, /*double_buffered=*/true, nullptr, report,
                  &scan)) {
      return -1;
    }
    dbs::sampling::BernoulliSampleOptions uniform_options;
    uniform_options.target_size = sample_target;
    uniform_options.seed = options.seed;
    auto sample = dbs::sampling::BernoulliSample(*scan.scan, uniform_options);
    scan.file.reset();
    if (!sample.ok()) {
      report->Fail("BernoulliSample: " + sample.status().ToString());
      report->Attempt(false);
      return -1;
    }
    auto clusters = dbs::cluster::HierarchicalCluster(*sample,
                                                      cluster_options);
    const double wall = SecondsBetween(start, Clock::now());
    if (!clusters.ok()) {
      report->Fail("HierarchicalCluster (uniform): " +
                   clusters.status().ToString());
      report->Attempt(false);
      return -1;
    }
    report->Attempt(true);
    std::vector<double> bytes = sample->flat();
    for (int32_t label : clusters->labels) bytes.push_back(label);
    if (!reference_uniform) {
      reference_uniform = std::move(bytes);
      uniform_found =
          dbs::eval::MatchClusters(*clusters, data.truth).num_found();
    } else if (!SameBytes(bytes, *reference_uniform)) {
      report->Fail("uniform baseline output differs from the first run");
    }
    return wall;
  };

  Measure(options, report, run, baseline, dump);
  std::remove(data.path.c_str());
  if (reference_found < 0) return;
  const double truth = static_cast<double>(data.truth.regions.size());
  report->Info("clusters_found", reference_found, "count");
  if (!options.trace) {
    report->EndToEnd("quality", reference_found / truth, "frac");
    report->Info("uniform_clusters_found", uniform_found, "count");
  }
}

// ---------------------------------------------------------------------------
// outlier-3d: fit -> score -> verify (paper §3.2), plus the exact cell-list
// detector on the same points as baseline and recall reference.

void RunOutlier3d(const Options& options, Report* report, TraceDump* dump) {
  const int64_t cluster_points = options.tiny ? 20000 : 1000000;
  const int64_t kernels = options.tiny ? 200 : 1000;
  Dataset data = SetUp(options, 3, cluster_points, true, report);
  if (!report->correct()) return;
  report->Fact("kernels", static_cast<double>(kernels));

  dbs::density::KdeOptions kde_options;
  kde_options.num_kernels = kernels;
  kde_options.bandwidth_scale = 0.25;
  kde_options.seed = options.seed;
  dbs::outlier::DbOutlierParams params;
  params.radius = options.tiny ? 0.05 : 0.02;
  params.max_neighbors = 5;
  report->Fact("radius", params.radius);
  dbs::parallel::BatchExecutorOptions pool;
  pool.num_workers = 2;
  dbs::parallel::BatchExecutor executor(pool);
  dbs::outlier::KdeDetectorOptions detector_options;
  detector_options.integration = dbs::outlier::BallIntegration::kCenterValue;
  detector_options.candidate_slack = 5.0;
  detector_options.executor = &executor;

  // The exact report: computed once before the measured phase, it is the
  // reference every approximate report is checked against.
  dbs::outlier::CellListStats exact_stats;
  dbs::outlier::CellListDetectorOptions exact_options;
  exact_options.stats = &exact_stats;
  std::optional<dbs::outlier::OutlierReport> exact;
  auto baseline = [&]() -> double {
    const Clock::time_point start = Clock::now();
    auto result =
        dbs::outlier::DetectOutliersCellList(data.points, params,
                                             exact_options);
    const double wall = SecondsBetween(start, Clock::now());
    if (!result.ok()) {
      report->Fail("DetectOutliersCellList: " + result.status().ToString());
      report->Attempt(false);
      return -1;
    }
    report->Attempt(true);
    if (!exact) {
      exact = std::move(*result);
    } else if (result->outlier_indices != exact->outlier_indices ||
               result->neighbor_counts != exact->neighbor_counts) {
      report->Fail("exact report differs from the first run");
    }
    return wall;
  };
  if (baseline() < 0) return;

  std::optional<dbs::outlier::OutlierReport> reference;
  auto check = [&](const char* what,
                   const dbs::outlier::OutlierReport& approx) {
    if (!reference) {
      // Every approximate outlier must be an exact outlier with the same
      // neighbour count.
      const auto& idx = exact->outlier_indices;
      for (size_t i = 0; i < approx.outlier_indices.size(); ++i) {
        auto it = std::lower_bound(idx.begin(), idx.end(),
                                   approx.outlier_indices[i]);
        if (it == idx.end() || *it != approx.outlier_indices[i] ||
            exact->neighbor_counts[static_cast<size_t>(it - idx.begin())] !=
                approx.neighbor_counts[i]) {
          report->Fail("approximate outlier row " +
                       std::to_string(approx.outlier_indices[i]) +
                       " is not in the exact report with the same count");
          break;
        }
      }
      reference = approx;
      return;
    }
    if (approx.outlier_indices != reference->outlier_indices ||
        approx.neighbor_counts != reference->neighbor_counts ||
        approx.candidates_checked != reference->candidates_checked) {
      report->Fail(std::string(what) + ": outlier report differs from the "
                   "first run");
    }
  };

  PipelineRun run = [&](Tracer* tracer, LayerValues* layers) -> double {
    const Clock::time_point start = Clock::now();
    OpenedScan scan;
    if (!OpenScan(data.path, /*double_buffered=*/false, tracer, report,
                  &scan)) {
      return -1;
    }
    auto kde = InSpan(tracer, "density.fit", -1, [&] {
      return dbs::density::Kde::Fit(*scan.scan, kde_options);
    });
    if (!kde.ok()) {
      report->Fail("Kde::Fit: " + kde.status().ToString());
      report->Attempt(false);
      return -1;
    }
    std::optional<TimedEstimator> timed_kde;
    const dbs::density::DensityEstimator* estimator = &*kde;
    if (tracer != nullptr) {
      timed_kde.emplace(&*kde);
      estimator = &*timed_kde;
    }
    int detect_span = -1;
    if (tracer != nullptr) {
      detect_span = tracer->Begin("outlier.detect");
      scan.timed->ExpectPasses({"outlier.score", "outlier.verify"},
                               detect_span);
    }
    auto approx = dbs::outlier::DetectOutliersApproximate(
        *scan.scan, *estimator, params, detector_options);
    if (tracer != nullptr) {
      scan.timed->EndPasses();
      tracer->End(detect_span);
    }
    CheckPasses(scan, "outlier-3d", report);
    CloseScan(tracer, &scan);
    const double wall = SecondsBetween(start, Clock::now());
    if (!approx.ok()) {
      report->Fail("DetectOutliersApproximate: " +
                   approx.status().ToString());
      report->Attempt(false);
      return -1;
    }
    report->Attempt(true);
    check(tracer != nullptr ? "traced run" : "untraced run", *approx);

    if (layers != nullptr) {
      AddScanLayers(scan, *tracer, wall, layers);
      AddEstimatorLayers(*timed_kde, layers);
      const double candidates =
          static_cast<double>(approx->candidates_checked);
      layers->push_back(
          {"outlier.score_s", tracer->Total("outlier.score"), "s"});
      layers->push_back(
          {"outlier.verify_s", tracer->Total("outlier.verify"), "s"});
      layers->push_back({"outlier.candidates", candidates, "count"});
      layers->push_back(
          {"outlier.yield",
           candidates > 0
               ? static_cast<double>(approx->outlier_indices.size()) /
                     candidates
               : 0.0,
           "frac"});
      // The verify pass (2) evaluates no density; its scan wait is inside
      // outlier.verify_s.
      AddLayerResidual(wall,
                       tracer->Total("density.fit") +
                           scan.timed->pass_wait_s(1) + timed_kde->busy_s() +
                           tracer->Total("outlier.verify"),
                       layers);
    }
    return wall;
  };

  Measure(options, report, run, baseline, dump);
  executor.Shutdown();
  std::remove(data.path.c_str());
  if (!reference) return;
  const double recall =
      exact->outlier_indices.empty()
          ? 1.0
          : static_cast<double>(reference->outlier_indices.size()) /
                static_cast<double>(exact->outlier_indices.size());
  report->Info("outlier_recall", recall, "frac");
  for (const Metric& m : report->end_to_end()) {
    if (m.name == "baseline_s") report->Info("exact_s", m.value, m.unit);
  }
  report->Info("exact_outliers",
               static_cast<double>(exact->outlier_indices.size()), "count");
  if (!options.trace) {
    report->EndToEnd("quality", recall, "frac");
  } else {
    report->Layer("outlier.exact_pairwise",
                  static_cast<double>(exact_stats.pairwise_evaluated),
                  "count");
    report->Layer("outlier.exact_pruned_cells",
                  static_cast<double>(exact_stats.cells_dense_pruned +
                                      exact_stats.cells_sparse_pruned),
                  "count");
  }
}

}  // namespace perfbench
