// Approximate DB(p,k)-outlier detection via a density estimate (paper §3.2).
//
// The detector scores each point O with N'(O, k) = integral of the density
// estimator over Ball(O, k) — the expected number of neighbors within
// distance k. Points whose expected neighbor count is small are LIKELY
// outliers; they are kept as candidates and verified with exact neighbor
// counts in one more pass. Including the estimator-fitting pass, the whole
// procedure reads the dataset at most three times (§4.5 reports "all the
// outliers with at most two dataset passes plus the pass that computes the
// density estimator"), regardless of dataset size — versus the quadratic
// exact nested loop.
//
// The candidate threshold is slack * (p + 1): `slack` > 1 absorbs estimator
// error so true outliers are not pruned before verification (recall), at
// the cost of more candidates to verify (work). bench/outlier_detection
// sweeps this tradeoff.
//
// The same scoring supports a zero-verification estimate of HOW MANY
// DB(p,k)-outliers a dataset has — the cheap exploration mode the paper
// highlights for picking p and k.

#ifndef DBS_OUTLIER_KDE_DETECTOR_H_
#define DBS_OUTLIER_KDE_DETECTOR_H_

#include <cstdint>
#include <vector>

#include "data/dataset.h"
#include "data/point_set.h"
#include "density/density_estimator.h"
#include "outlier/ball_integration.h"
#include "outlier/db_outlier.h"
#include "util/shard.h"
#include "util/status.h"

namespace dbs::outlier {

struct KdeDetectorOptions {
  BallIntegration integration = BallIntegration::kCenterValue;
  // Probes per ball for the quasi-Monte-Carlo method.
  int qmc_samples = 64;
  // Candidate threshold multiplier (see header comment).
  double candidate_slack = 2.0;
  // Hard cap on retained candidates; exceeding it aborts with
  // FailedPrecondition (raise the slack down or p up instead of thrashing).
  int64_t max_candidates = 1000000;
  // Optional worker pool (not owned) for the scoring pass. Scores are
  // independent per point, so sharding them is bitwise invisible: the
  // report is identical with 0, 1 or N workers. kUnavailable under
  // executor backpressure.
  parallel::BatchExecutor* executor = nullptr;
};

// Full detection: scoring pass + verification pass over `scan`.
// `estimator` must be fitted on the same data.
[[nodiscard]] Result<OutlierReport> DetectOutliersApproximate(
    data::DataScan& scan, const density::DensityEstimator& estimator,
    const DbOutlierParams& params, const KdeDetectorOptions& options);

[[nodiscard]] Result<OutlierReport> DetectOutliersApproximate(
    const data::PointSet& points,
    const density::DensityEstimator& estimator, const DbOutlierParams& params,
    const KdeDetectorOptions& options);

// One scoring pass only: the number of points whose EXPECTED neighbor
// count is within the (un-slacked) bound — a fast estimate of the outlier
// count for parameter exploration.
[[nodiscard]] Result<int64_t> EstimateOutlierCount(data::DataScan& scan,
                                     const density::DensityEstimator& estimator,
                                     const DbOutlierParams& params,
                                     const KdeDetectorOptions& options);

[[nodiscard]] Result<int64_t> EstimateOutlierCount(const data::PointSet& points,
                                     const density::DensityEstimator& estimator,
                                     const DbOutlierParams& params,
                                     const KdeDetectorOptions& options);

// ---------------------------------------------------------------------------
// Sharded partial pipeline (DESIGN.md §12).
//
// Detection is two fan-out rounds: every shard scores its slice of rows
// against the shared estimator (candidate rows are GLOBAL row indices), the
// merged candidate set is broadcast back, and every shard counts exact
// neighbors of all candidates among its own rows. Both stages are RNG-free
// and contiguous-range, so the sharded detector is bitwise identical to
// DetectOutliersApproximate at ANY shard count — DetectOutliersApproximate
// itself runs as the num_shards == 1 instance of these functions.

// One shard's candidate slice from the scoring pass, in global row order.
struct CandidateShardPart {
  int64_t shard = 0;
  int64_t num_shards = 1;
  int64_t total_rows = 0;
  int64_t rows = 0;
  data::PointSet candidates;
  std::vector<int64_t> candidate_rows;  // global row indices
};

struct PartialOutlierCandidates {
  std::vector<CandidateShardPart> parts;
};

// The flattened candidate set of a COMPLETE scoring round.
struct OutlierCandidates {
  data::PointSet points;
  std::vector<int64_t> rows;  // global row indices, ascending
};

// One shard's exact neighbor tallies: counts[c] = occurrences of candidate
// c within params.radius among this shard's rows.
struct NeighborCountShardPart {
  int64_t shard = 0;
  int64_t num_shards = 1;
  int64_t total_rows = 0;
  std::vector<int64_t> counts;
};

struct PartialNeighborCounts {
  std::vector<NeighborCountShardPart> parts;
};

// Scoring pass over one shard's slice. `scan` must cover exactly the rows
// of ShardRowRange(info.total_rows, info.num_shards, info.shard). The
// expected-neighbor bound p is computed from info.total_rows. A shard whose
// own candidate count exceeds options.max_candidates fails like the
// unsharded detector does.
[[nodiscard]] Result<PartialOutlierCandidates> ScoreOutlierCandidatesPartial(
    data::DataScan& scan, const density::DensityEstimator& estimator,
    const DbOutlierParams& params, const KdeDetectorOptions& options,
    const ShardInfo& info);

// Disjoint union; fails with FailedPrecondition when the combined candidate
// count exceeds `max_candidates` (the global cap the sequential sweep
// enforces).
[[nodiscard]] Result<PartialOutlierCandidates> MergeOutlierCandidates(
    PartialOutlierCandidates a, PartialOutlierCandidates b,
    int64_t max_candidates);

// Flattens a COMPLETE candidate state (all shards present) in ascending
// shard order — i.e. ascending global row order.
[[nodiscard]] Result<OutlierCandidates> FinalizeOutlierCandidates(
    PartialOutlierCandidates partial);

// Verification pass over one shard's slice: exact neighbor tallies of every
// candidate among the shard's rows. A dense grid over the candidate set
// (DESIGN.md §16) lets a row with no candidate in its 3^d block skip the
// comparisons; inputs the grid cannot serve — radius 0 or one whose square
// is not a normal double, dimension above 6, a candidate box needing more
// than 2^21 cells — take a kd-tree over the candidates. Both paths use
// KdTree::WithinRadius's comparisons, and on both a row or candidate with
// a NaN or infinite coordinate is nobody's neighbor (data::AllFinite): it
// counts nothing and is counted by nothing, itself included.
[[nodiscard]] Result<PartialNeighborCounts> CountCandidateNeighborsPartial(
    data::DataScan& scan, const OutlierCandidates& candidates,
    const DbOutlierParams& params, const ShardInfo& info);

[[nodiscard]] Result<PartialNeighborCounts> MergeNeighborCounts(PartialNeighborCounts a,
                                                  PartialNeighborCounts b);

// Assembles the final report from COMPLETE candidate and count states:
// per-candidate tallies are summed in ascending shard order (integer sums —
// exact), each candidate's self-count removed (a candidate with a
// non-finite coordinate has none, and 0 neighbors), and survivors
// reported.
// Sets candidates_checked and passes = 2.
[[nodiscard]] Result<OutlierReport> FinalizeOutlierReport(
    const OutlierCandidates& candidates, const PartialNeighborCounts& counts,
    const DbOutlierParams& params);

}  // namespace dbs::outlier

#endif  // DBS_OUTLIER_KDE_DETECTOR_H_
