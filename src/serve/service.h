// ModelService — executes typed serving requests against registered models.
//
// This is the single implementation of request semantics, shared by the
// in-process API, the tests and the TCP daemon: the daemon only decodes
// wire frames into these structs and encodes the answers back. That is what
// pins the end-to-end guarantee — for the same request and seed, the served
// answer is bitwise identical to the direct library call, because it IS the
// direct library call (BiasedSampler::Run, DensityEstimator::Evaluate,
// BallIntegrator::IntegrateExcludingSelf), merely sharded across the
// executor's workers where per-point independence makes that exact.
//
// Every request is measured (service-side latency, point counts) into
// per-type counters surfaced by Stats() — the daemon's `stats` request.

#ifndef DBS_SERVE_SERVICE_H_
#define DBS_SERVE_SERVICE_H_

#include <cstdint>
#include <map>
#include <mutex>
#include <vector>

#include "density/kde_partial.h"
#include "parallel/batch_executor.h"
#include "serve/model_registry.h"
#include "serve/request.h"
#include "util/status.h"

namespace dbs::serve {

class ModelService {
 public:
  // Neither pointer is owned; both must outlive the service.
  ModelService(ModelRegistry* registry, parallel::BatchExecutor* executor);

  ModelService(const ModelService&) = delete;
  ModelService& operator=(const ModelService&) = delete;

  [[nodiscard]] Status Register(const RegisterRequest& request);
  [[nodiscard]] Status Evict(const EvictRequest& request);

  // Density evaluation sharded across the executor; kUnavailable under
  // backpressure.
  [[nodiscard]] Result<DensityBatchResponse> Density(const DensityBatchRequest& request);

  // Biased sampling is RNG-sequential, so it runs as a single executor task
  // (still subject to admission control).
  [[nodiscard]] Result<SampleResponse> Sample(const SampleRequest& request);

  // Outlier scoring sharded across the executor.
  [[nodiscard]] Result<OutlierScoreBatchResponse> OutlierScores(
      const OutlierScoreBatchRequest& request);

  // One shard of a distributed KDE build (DESIGN.md §12): streams the
  // shard's slice of the server-side .dbsf dataset through Kde::FitPartial
  // and returns the mergeable state. Sequential like Sample (the reservoir
  // consumes an RNG stream), so it runs as one admission-controlled task.
  [[nodiscard]] Result<density::PartialKde> PartialFit(const PartialFitRequest& request);

  StatsResponse Stats() const;

  ModelRegistry* registry() { return registry_; }

 private:
  // Number of recent latencies kept per type for the percentile estimates.
  static constexpr int kLatencyWindow = 1024;

  struct TypeStats {
    uint64_t count = 0;
    uint64_t errors = 0;
    uint64_t points = 0;
    double latency_sum_us = 0.0;
    double latency_min_us = 0.0;
    double latency_max_us = 0.0;
    // Ring buffer of recent latencies (microseconds).
    std::vector<double> recent;
    int64_t next_slot = 0;
  };

  void Record(RequestType type, bool ok, int64_t num_points,
              double latency_us);

  ModelRegistry* registry_;
  parallel::BatchExecutor* executor_;

  // Guards stats_ only; taken after all request work is done. Leaf lock,
  // never held across registry or executor calls.
  mutable std::mutex stats_mu_;
  std::map<RequestType, TypeStats> stats_;
};

}  // namespace dbs::serve

#endif  // DBS_SERVE_SERVICE_H_
