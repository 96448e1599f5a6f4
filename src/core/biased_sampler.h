// Density-biased sampling — the paper's primary contribution (Fig 1, §2.2).
//
// Given a density estimator f for a dataset D of n points and a tunable
// exponent `a`, each point x is included in the sample with probability
//
//   P(x) = min(1, (b / k_a) * f(x)^a),   k_a = sum_{x in D} f(x)^a,
//
// which satisfies the paper's two properties: inclusion probability is a
// function of local density only (Property 1) and the expected sample size
// is b (Property 2, exactly when nothing clamps at 1). The exponent selects
// the sampling regime:
//
//   a > 0    oversample dense regions (robust to noise; a = 1 samples
//            proportionally to the density itself),
//   a = 0    uniform sampling,
//   -1 < a < 0  oversample sparse regions while keeping relative densities
//            intact with high probability (Lemma 1) — finds small or sparse
//            clusters next to dominant ones,
//   a = -1   equal expected mass in equal volumes ("flattens" the density),
//   a < -1   inverts the density ordering (sparse regions dominate; the
//            regime outlier hunting would use).
//
// Two execution modes over a DataScan:
//   Run       two passes — an exact normalization pass for k_a, then the
//             sampling pass (this is the paper's Figure-1 algorithm). The
//             normalization pass also bounds every row's probability, so
//             the sampling pass can evaluate density only for rows whose
//             draw can still accept (DESIGN.md §7).
//   RunOnePass one pass — k_a is estimated as n * E[f^a] from the KDE's
//             kernel centers (which are themselves a uniform sample of D),
//             the integrated variant sketched at the end of §2.2. The
//             sample size then only approximates b.
//
// Zero-density points: a point can sit outside the support of every kernel
// (f(x) = 0), which would make f^a undefined for a <= 0. The sampler floors
// the density at density_floor_fraction * AverageDensity(), so such points
// get the MAXIMAL boost under negative `a` instead of being dropped, and
// that boost is bounded: with the default floor of 1e-3 of the average
// density, a fully isolated point weighs at most 1000^(-a) times an
// average-density point. Lower the floor to chase extreme isolation harder,
// raise it to damp the influence of empty space.

#ifndef DBS_CORE_BIASED_SAMPLER_H_
#define DBS_CORE_BIASED_SAMPLER_H_

#include <cstdint>

#include <limits>
#include <vector>

#include "core/sample.h"
#include "data/dataset.h"
#include "density/density_estimator.h"
#include "density/kde.h"
#include "util/shard.h"
#include "util/status.h"

namespace dbs::core {

// One shard's contribution to the exact normalization pass: the sequential
// sum of f'(x) over the shard's rows, in scan order, and the smallest and
// largest f'(x) among them (infinite only for a shard without rows).
struct NormalizerShardPart {
  int64_t shard = 0;
  int64_t num_shards = 1;
  int64_t total_rows = 0;
  int64_t rows = 0;
  double k_a = 0.0;
  double min_fa = std::numeric_limits<double>::infinity();
  double max_fa = -std::numeric_limits<double>::infinity();
};

// Mergeable partial state of the sampler's k_a pass (DESIGN.md §12). Merging
// is a disjoint union; the floating-point sum happens once, in ascending
// shard order, at FinalizeNormalizer time.
struct PartialNormalizer {
  std::vector<NormalizerShardPart> parts;
};

// One shard's contribution to the sampling pass: the rows the shard's
// Bernoulli sweep accepted, with their inclusion probabilities and density
// estimates, in scan order.
struct SampleShardPart {
  int64_t shard = 0;
  int64_t num_shards = 1;
  int64_t total_rows = 0;
  int64_t rows = 0;
  data::PointSet points;
  std::vector<double> inclusion_probs;
  std::vector<double> densities;
  int64_t clamped_count = 0;
};

// Mergeable partial state of the sampling pass; FinalizeSample concatenates
// the complete set in ascending shard order.
struct PartialSample {
  std::vector<SampleShardPart> parts;
};

// A finalized normalization pass: k_a and the extremes of f'(x) over every
// row. Every row's inclusion probability lies between the probabilities of
// the two extremes, which lets the sampling pass reject most rows from
// their draw alone (DESIGN.md §7). The default extremes bound nothing, so a
// normalizer that no pass measured (RunOnePass) samples with the full loop.
struct Normalizer {
  double k_a = 0.0;
  double min_fa = 0.0;
  double max_fa = std::numeric_limits<double>::infinity();
};

[[nodiscard]] Result<PartialNormalizer> MergePartialNormalizers(PartialNormalizer a,
                                                  PartialNormalizer b);
[[nodiscard]] Result<PartialSample> MergePartialSamples(PartialSample a, PartialSample b);

struct BiasedSamplerOptions {
  // The density exponent `a`.
  double a = 1.0;
  // Expected sample size b.
  int64_t target_size = 1000;
  // Density floor, as a fraction of the estimator's average density (see
  // header comment).
  double density_floor_fraction = 1e-3;
  uint64_t seed = 1;
  // Optional worker pool (not owned; must outlive the sampler run). When
  // set, each scan batch's densities are computed through the estimator's
  // sharded EvaluateBatch — the expensive, per-point-independent part —
  // while the Bernoulli draws stay one sequential RNG sweep over the
  // precomputed densities. Samples are therefore BITWISE IDENTICAL for a
  // fixed seed whether the pool has 1 or N workers, or is absent. A full
  // executor queue surfaces as kUnavailable from Run/RunOnePass.
  parallel::BatchExecutor* executor = nullptr;
};

class BiasedSampler {
 public:
  explicit BiasedSampler(const BiasedSamplerOptions& options);

  // Two-pass exact algorithm (paper Fig 1). `estimator` must have been
  // fitted on the same data. Any DensityEstimator works.
  [[nodiscard]] Result<BiasedSample> Run(data::DataScan& scan,
                           const density::DensityEstimator& estimator) const;

  [[nodiscard]] Result<BiasedSample> Run(const data::PointSet& points,
                           const density::DensityEstimator& estimator) const;

  // One-pass integrated variant; requires a Kde (the normalizer estimate
  // comes from its kernel centers).
  [[nodiscard]] Result<BiasedSample> RunOnePass(data::DataScan& scan,
                                  const density::Kde& kde) const;

  [[nodiscard]] Result<BiasedSample> RunOnePass(const data::PointSet& points,
                                  const density::Kde& kde) const;

  // The inclusion probability the sampler would assign to density value f
  // given normalizer k_a (exposed for analysis and tests).
  double InclusionProbability(double density, double normalizer) const;

  // Sharded partial pipeline (DESIGN.md §12). `scan` must cover exactly the
  // rows of ShardRowRange(info.total_rows, info.num_shards, info.shard);
  // wrap the full dataset in a data::RangeScan. Run is implemented as the
  // num_shards == 1 instance of these, which pins the shards=1 path bitwise
  // identical to the historical two-pass algorithm.
  [[nodiscard]] Result<PartialNormalizer> NormalizerPartial(
      data::DataScan& scan, const density::DensityEstimator& estimator,
      const ShardInfo& info) const;
  // Reduces a COMPLETE normalizer state to k_a (ascending shard order) and
  // the extremes of f'.
  [[nodiscard]] Result<Normalizer> FinalizeNormalizer(
      const PartialNormalizer& partial) const;
  // Sampling pass over one shard with the shard-seeded Bernoulli stream.
  // When the normalizer's extremes put every row's probability strictly
  // inside (0, 1), the pass draws first and evaluates only the rows whose
  // draw can still accept; the sample is the same bytes either way.
  [[nodiscard]] Result<PartialSample> SamplePartial(
      data::DataScan& scan, const density::DensityEstimator& estimator,
      const Normalizer& normalizer, const ShardInfo& info) const;
  // Concatenates a COMPLETE sample state in ascending shard order.
  [[nodiscard]] Result<BiasedSample> FinalizeSample(PartialSample partial,
                                      double normalizer) const;

 private:
  [[nodiscard]] Result<BiasedSample> SampleWithNormalizer(
      data::DataScan& scan, const density::DensityEstimator& estimator,
      const Normalizer& normalizer) const;

  double FlooredDensityPow(double f, double floor) const;

  // (b / k_a) · f' before clamping at 1: the one expression behind every
  // row's probability and the sampling pass's bounds on them.
  double UnclampedProbability(double fa, double k_a) const;

  BiasedSamplerOptions options_;
};

}  // namespace dbs::core

#endif  // DBS_CORE_BIASED_SAMPLER_H_
