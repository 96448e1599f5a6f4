// KDE evaluation micro-benchmark: batch vs scalar, index ablation, and
// thread scaling (DESIGN.md §5 and §9).
//
// For each (dim, kernels) configuration the bench times four single-thread
// series over the same query set —
//
//   scalar_indexed   per-point Evaluate through the grid index
//   scalar_brute     per-point EvaluateBrute (all kernels)
//   batch_indexed    EvaluateBatch, cell-sorted SoA tiles, no executor
//   batch_brute      EvaluateBatch against the full SoA, index disabled
//
// — then the same four in leave-one-out form over as many training rows,
// some of which are kernel centers that drop their own term —
//
//   scalar_excl_indexed / scalar_excl_brute   per-point EvaluateExcluding
//   batch_excl_indexed / batch_excl_brute     EvaluateExcludingBatch
//
// — and then re-runs batch_indexed on the headline configuration sharded
// across a BatchExecutor at each requested worker count. Every batch result
// is checked bitwise against the scalar series of the same form (the paths
// promise identical output); mismatches are counted and reported. The
// batch series take the row-lane kernel block, the scalar ones do not, so
// this also checks the row lanes, with and without exclusion, against the
// per-point sums. (3, 1000) is the outlier pipeline's shape.
//
// Each configuration starts with a `build` row: the fastest Kde::FromState
// of the indexed model, which builds the grid index and, when m * 9^d <=
// 2^20, the neighbor-tile table that batch_indexed then takes its tiles
// from (its `tile_cells`; 0 = every tile is gathered). The 2-D and 3-D
// configurations have a table, the 5-D one gathers.
//
// queries= and data_points= are the rows evaluated and fitted on: each
// set is drawn as that many cluster points plus 10% noise, shuffled, and
// cut to the flag's row count.
//
// Output: a table on stdout, headed by the kernel block clone the batch
// paths ran (density/kernel_block.h), plus machine-readable JSON in the
// shape of BENCH_serve_throughput.json (BENCH_micro_kde.json, override with
// out=; an empty out= writes none), stamped with nproc, compiler, build
// type, that clone and the git_sha= passed in.
//
// index= selects the series: `all` (default) runs the four above, `grid`
// / `brute` just that pair.
//
//   micro_kde [queries=20000] [data_points=50000] [reps=3]
//             [threads=1,2,4,8] [index=all|grid|brute]
//             [git_sha=unavailable] [out=BENCH_micro_kde.json]

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstring>
#include <string>
#include <vector>

#include "bench_meta.h"
#include "density/kde.h"
#include "density/kernel_block.h"
#include "parallel/batch_executor.h"
#include "synth/generator.h"
#include "tools/flags.h"
#include "util/check.h"

namespace {

using Clock = std::chrono::steady_clock;

struct Config {
  int dim = 2;
  int64_t kernels = 1000;
};

struct SeriesResult {
  std::string series;
  int dim = 0;
  int64_t kernels = 0;
  int threads = 0;  // 0 = no executor (plain sequential call)
  double seconds = 0.0;
  double points_per_sec = 0.0;
  double speedup_vs_scalar = 0.0;
  int64_t mismatches = 0;
  int64_t tile_cells = -1;  // build rows only: Kde::neighbor_tile_cells()
};

dbs::data::PointSet MakeData(int dim, int64_t points, uint64_t seed) {
  dbs::synth::ClusteredDatasetOptions opts;
  opts.dim = dim;
  opts.num_clusters = 10;
  opts.num_cluster_points = points;
  opts.noise_multiplier = 0.1;
  opts.shuffle = true;
  opts.seed = seed;
  auto ds = dbs::synth::MakeClusteredDataset(opts);
  DBS_CHECK(ds.ok());
  dbs::data::PointSet rows(dim);
  rows.Reserve(points);
  for (int64_t i = 0; i < points; ++i) rows.Append(ds->points[i]);
  return rows;
}

dbs::density::Kde FitKde(const dbs::data::PointSet& points, int64_t kernels,
                         bool grid_index) {
  dbs::density::KdeOptions opts;
  opts.num_kernels = kernels;
  opts.use_grid_index = grid_index;
  opts.seed = 17;
  auto kde = dbs::density::Kde::Fit(points, opts);
  DBS_CHECK(kde.ok());
  return std::move(kde).value();
}

// Runs `body` `reps` times and returns the fastest wall-clock seconds.
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

int64_t CountMismatches(const std::vector<double>& got,
                        const std::vector<double>& want) {
  DBS_CHECK(got.size() == want.size());
  int64_t bad = 0;
  for (size_t i = 0; i < got.size(); ++i) {
    if (std::memcmp(&got[i], &want[i], sizeof(double)) != 0) ++bad;
  }
  return bad;
}

bool ParseThreadList(const std::string& spec, std::vector<int>* out) {
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

void PrintRow(const SeriesResult& r) {
  std::printf("%19s %4d %8lld %8d %10.4f %14.0f %9.2fx %10lld",
              r.series.c_str(), r.dim, static_cast<long long>(r.kernels),
              r.threads, r.seconds, r.points_per_sec, r.speedup_vs_scalar,
              static_cast<long long>(r.mismatches));
  if (r.tile_cells >= 0) {
    std::printf("   tile_cells %lld", static_cast<long long>(r.tile_cells));
  }
  std::printf("\n");
}

void WriteJson(const std::string& path, const std::string& git_sha,
               int64_t queries, int64_t data_points, int reps,
               const std::vector<SeriesResult>& results) {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) {
    std::fprintf(stderr, "cannot write %s\n", path.c_str());
    return;
  }
  std::fprintf(f, "{\n  \"bench\": \"micro_kde\",\n");
  dbs::bench::WriteBenchMeta(f, git_sha);
  std::fprintf(f,
               "  \"queries\": %lld,\n  \"data_points\": %lld,\n"
               "  \"reps\": %d,\n  \"results\": [\n",
               static_cast<long long>(queries),
               static_cast<long long>(data_points), reps);
  for (size_t i = 0; i < results.size(); ++i) {
    const SeriesResult& r = results[i];
    std::fprintf(f,
                 "    {\"series\": \"%s\", \"dim\": %d, \"kernels\": %lld, "
                 "\"threads\": %d, \"seconds\": %.6f, "
                 "\"points_per_sec\": %.1f, \"speedup_vs_scalar\": %.3f, "
                 "\"mismatches\": %lld",
                 r.series.c_str(), r.dim, static_cast<long long>(r.kernels),
                 r.threads, r.seconds, r.points_per_sec, r.speedup_vs_scalar,
                 static_cast<long long>(r.mismatches));
    if (r.tile_cells >= 0) {
      std::fprintf(f, ", \"tile_cells\": %lld",
                   static_cast<long long>(r.tile_cells));
    }
    std::fprintf(f, "}%s\n", i + 1 < results.size() ? "," : "");
  }
  std::fprintf(f, "  ]\n}\n");
  std::fclose(f);
  std::printf("wrote %s\n", path.c_str());
}

}  // namespace

int main(int argc, char** argv) {
  dbs::tools::Flags flags;
  if (!flags.Parse(argc, argv)) return 2;
  int64_t queries = flags.GetInt("queries", 20000);
  int64_t data_points = flags.GetInt("data_points", 50000);
  int reps = static_cast<int>(flags.GetInt("reps", 3));
  std::string threads_spec = flags.GetString("threads", "1,2,4,8");
  std::string index = flags.GetString("index", "all");
  std::string git_sha = flags.GetString("git_sha", "unavailable");
  std::string out = flags.GetString("out", "BENCH_micro_kde.json");
  if (!flags.AllKnown()) return 2;
  DBS_CHECK(queries > 0 && data_points > 0 && reps > 0);
  if (index != "all" && index != "grid" && index != "brute") {
    std::fprintf(stderr, "index must be all, grid or brute\n");
    return 2;
  }
  std::vector<int> thread_counts;
  if (!ParseThreadList(threads_spec, &thread_counts)) {
    std::fprintf(stderr, "bad threads= list '%s'\n", threads_spec.c_str());
    return 2;
  }

  // (2, 1000) is the headline Fig-2-scale configuration; it also carries
  // the thread-scaling series.
  const Config kConfigs[] = {{2, 100}, {2, 1000}, {2, 4000}, {3, 1000},
                             {5, 1000}};
  const Config kHeadline = {2, 1000};

  std::printf(
      "micro_kde: %lld query rows, %lld training rows, best of %d reps, "
      "kernel_isa %s\n\n",
      static_cast<long long>(queries), static_cast<long long>(data_points),
      reps, dbs::density::ActiveKernelTileClone().isa);
  std::printf("%19s %4s %8s %8s %10s %14s %10s %10s\n", "series", "dim",
              "kernels", "threads", "seconds", "points_per_sec", "speedup",
              "mismatch");

  std::vector<SeriesResult> results;
  for (const Config& config : kConfigs) {
    dbs::data::PointSet train = MakeData(config.dim, data_points, 71);
    dbs::data::PointSet query = MakeData(config.dim, queries, 99);
    const int64_t nq = query.size();
    const double* rows = query.flat().data();
    dbs::density::Kde indexed = FitKde(train, config.kernels, true);
    dbs::density::Kde brute = FitKde(train, config.kernels, false);

    // Two references: the indexed and brute scalar paths sum centers in
    // different orders, so they agree only to rounding — each batch series
    // is checked bitwise against the scalar series with the SAME order.
    std::vector<double> ref(static_cast<size_t>(nq));
    std::vector<double> ref_brute(static_cast<size_t>(nq));
    std::vector<double> got(static_cast<size_t>(nq));

    // Leave-one-out rows: the first training rows, as many as there are
    // queries when the training set holds that many.
    const int64_t nl = std::min(nq, train.size());
    const double* loo_rows = train.flat().data();
    std::vector<double> ref_excl(static_cast<size_t>(nl));
    std::vector<double> got_excl(static_cast<size_t>(nl));

    auto add = [&](const std::string& series, int threads, double seconds,
                   double scalar_seconds, int64_t mismatches,
                   int64_t count, int64_t tile_cells = -1) {
      SeriesResult r;
      r.series = series;
      r.dim = config.dim;
      r.kernels = config.kernels;
      r.threads = threads;
      r.seconds = seconds;
      r.points_per_sec =
          seconds > 0 ? static_cast<double>(count) / seconds : 0.0;
      r.speedup_vs_scalar =
          seconds > 0 ? scalar_seconds / seconds : 0.0;
      r.mismatches = mismatches;
      r.tile_cells = tile_cells;
      PrintRow(r);
      results.push_back(r);
    };

    // Model build: FromState on a copy of the indexed model's state, the
    // copy made outside the timed region.
    double build_seconds = 0.0;
    for (int r = 0; r < reps; ++r) {
      dbs::density::Kde::State state = indexed.ExportState();
      Clock::time_point start = Clock::now();
      auto rebuilt = dbs::density::Kde::FromState(std::move(state));
      const double seconds =
          std::chrono::duration<double>(Clock::now() - start).count();
      DBS_CHECK(rebuilt.ok());
      if (r == 0 || seconds < build_seconds) build_seconds = seconds;
    }
    add("build", 0, build_seconds, 0.0, 0, indexed.num_kernels(),
        indexed.neighbor_tile_cells());

    const bool headline =
        config.dim == kHeadline.dim && config.kernels == kHeadline.kernels;
    const bool run_grid = index == "all" || index == "grid";
    const bool run_brute = index == "all" || index == "brute";

    // Scalar baselines (the pre-batching hot path).
    double scalar_indexed = 0.0;
    if (run_grid) {
      scalar_indexed = TimeBest(reps, [&] {
        for (int64_t i = 0; i < nq; ++i) ref[i] = indexed.Evaluate(query[i]);
      });
      add("scalar_indexed", 0, scalar_indexed, scalar_indexed, 0, nq);
    }

    double scalar_brute = 0.0;
    if (run_brute) {
      scalar_brute = TimeBest(reps, [&] {
        for (int64_t i = 0; i < nq; ++i) {
          ref_brute[i] = brute.EvaluateBrute(query[i]);
        }
      });
      add("scalar_brute", 0, scalar_brute, scalar_brute, 0, nq);
    }

    // Single-thread batch paths, checked bitwise against the scalar runs.
    if (run_grid) {
      double batch_indexed = TimeBest(reps, [&] {
        DBS_CHECK(indexed.EvaluateBatch(rows, nq, got.data()).ok());
      });
      add("batch_indexed", 0, batch_indexed, scalar_indexed,
          CountMismatches(got, ref), nq);
    }

    if (run_brute) {
      double batch_brute = TimeBest(reps, [&] {
        DBS_CHECK(brute.EvaluateBatch(rows, nq, got.data()).ok());
      });
      add("batch_brute", 0, batch_brute, scalar_brute,
          CountMismatches(got, ref_brute), nq);
    }

    // Leave-one-out: each row excludes itself, checked bitwise against the
    // per-point calls.
    auto add_excl = [&](const dbs::density::Kde& kde, const char* scalar_name,
                        const char* batch_name) {
      const double scalar_seconds = TimeBest(reps, [&] {
        for (int64_t i = 0; i < nl; ++i) {
          ref_excl[i] = kde.EvaluateExcluding(train[i], train[i]);
        }
      });
      add(scalar_name, 0, scalar_seconds, scalar_seconds, 0, nl);
      const double batch_seconds = TimeBest(reps, [&] {
        DBS_CHECK(
            kde.EvaluateExcludingBatch(loo_rows, nl, got_excl.data()).ok());
      });
      add(batch_name, 0, batch_seconds, scalar_seconds,
          CountMismatches(got_excl, ref_excl), nl);
    };
    if (run_grid) {
      add_excl(indexed, "scalar_excl_indexed", "batch_excl_indexed");
    }
    if (run_brute) add_excl(brute, "scalar_excl_brute", "batch_excl_brute");

    // Thread-scaling series on the headline configuration.
    if (headline) {
      for (int threads : thread_counts) {
        dbs::parallel::BatchExecutorOptions pool;
        pool.num_workers = threads;
        pool.queue_capacity = 4096;
        dbs::parallel::BatchExecutor executor(pool);
        if (run_grid) {
          double seconds = TimeBest(reps, [&] {
            DBS_CHECK(
                indexed.EvaluateBatch(rows, nq, got.data(), &executor).ok());
          });
          add("batch_indexed", threads, seconds, scalar_indexed,
              CountMismatches(got, ref), nq);
        }
        executor.Shutdown();
      }
    }
  }

  int64_t total_mismatches = 0;
  for (const SeriesResult& r : results) total_mismatches += r.mismatches;
  if (total_mismatches > 0) {
    std::fprintf(stderr, "FAIL: %lld batch results differ from scalar\n",
                 static_cast<long long>(total_mismatches));
  }
  if (!out.empty()) {
    WriteJson(out, git_sha, queries, data_points, reps, results);
  }
  return total_mismatches > 0 ? 1 : 0;
}
