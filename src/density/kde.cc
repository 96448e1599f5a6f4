#include "density/kde.h"

#include <algorithm>
#include <cmath>
#include <limits>
#include <utility>

#include "density/kde_partial.h"
#include "density/kernel_block.h"
#include "util/math.h"

namespace dbs::density {
namespace {

// Grid cells are hashed, not stored exactly; colliding cells share a bucket.
// That is safe because evaluation always computes the exact kernel value
// (zero outside the support), and neighbor-bucket keys are deduplicated
// before iteration so no center can be accumulated twice.
uint64_t HashCell(const int64_t* cell, int dim) {
  uint64_t h = 0x9e3779b97f4a7c15ULL;
  for (int j = 0; j < dim; ++j) {
    uint64_t v = static_cast<uint64_t>(cell[j]);
    v *= 0xbf58476d1ce4e5b9ULL;
    v ^= v >> 31;
    h = (h ^ v) * 0x94d049bb133111ebULL;
  }
  return h ^ (h >> 29);
}

// Above this dimensionality the 3^d neighbor enumeration stops paying for
// itself; evaluation falls back to the brute-force sum.
constexpr int kMaxIndexDim = 6;

}  // namespace

Result<Kde> Kde::Fit(data::DataScan& scan, const KdeOptions& options) {
  // A fit is a single-shard sharded build: FitPartial runs the historical
  // one-pass reservoir/moments loop (shard 0 consumes the legacy RNG
  // stream), FinalizeKde the historical bandwidth tail — so the sharded
  // pipeline's shards=1 path is this function, bitwise.
  ShardInfo info;
  info.total_rows = scan.size();
  DBS_ASSIGN_OR_RETURN(PartialKde partial, FitPartial(scan, options, info));
  return FinalizeKde(std::move(partial), options);
}

Result<Kde> Kde::Fit(const data::PointSet& points, const KdeOptions& options) {
  data::InMemoryScan scan(&points);
  return Fit(scan, options);
}

void Kde::BuildSoA() {
  const int dim = centers_.dim();
  const int64_t m = centers_.size();
  centers_soa_.resize(static_cast<size_t>(dim) * m);
  const double* rows = centers_.flat().data();
  for (int64_t i = 0; i < m; ++i) {
    for (int j = 0; j < dim; ++j) {
      centers_soa_[static_cast<size_t>(j) * m + i] = rows[i * dim + j];
    }
  }
}

void Kde::BuildIndex() {
  const int dim = centers_.dim();
  const int64_t m = centers_.size();
  cell_extent_.resize(dim);
  for (int j = 0; j < dim; ++j) {
    cell_extent_[j] = support_radius_ * bandwidths_[j];
  }

  // Bucket the centers: (cell key, center) pairs, stably sorted by key so
  // each bucket keeps its centers in index order — the same order the
  // per-bucket vectors of the former unordered_map had, which is the
  // summation order the bitwise-reproducibility contract pins down.
  // A center whose cell cannot be represented leaves the model unindexed:
  // every evaluation then takes the brute-force sum, which is exact.
  std::vector<std::pair<uint64_t, int32_t>> entries(
      static_cast<size_t>(m));
  std::vector<int64_t> cell(dim);
  for (int64_t i = 0; i < m; ++i) {
    if (!CellOf(centers_[i].data(), cell.data())) return;
    entries[static_cast<size_t>(i)] = {HashCell(cell.data(), dim),
                                       static_cast<int32_t>(i)};
  }
  std::stable_sort(entries.begin(), entries.end(),
                   [](const std::pair<uint64_t, int32_t>& a,
                      const std::pair<uint64_t, int32_t>& b) {
                     return a.first < b.first;
                   });

  int64_t distinct = 0;
  for (int64_t i = 0; i < m; ++i) {
    if (i == 0 || entries[i].first != entries[i - 1].first) ++distinct;
  }
  // Open-addressed table at <= 50% load; linear probing stays short.
  uint64_t table = 1;
  while (table < static_cast<uint64_t>(2 * distinct)) table <<= 1;
  slot_mask_ = table - 1;
  slot_keys_.assign(table, 0);
  slot_begin_.assign(table, -1);
  slot_end_.assign(table, 0);
  cell_centers_.resize(static_cast<size_t>(m));
  int64_t pos = 0;
  while (pos < m) {
    const uint64_t key = entries[pos].first;
    int64_t run = pos;
    while (run < m && entries[run].first == key) {
      cell_centers_[static_cast<size_t>(run)] = entries[run].second;
      ++run;
    }
    uint64_t s = key & slot_mask_;
    while (slot_begin_[s] >= 0) s = (s + 1) & slot_mask_;
    slot_keys_[s] = key;
    slot_begin_[s] = static_cast<int32_t>(pos);
    slot_end_[s] = static_cast<int32_t>(run);
    pos = run;
  }

#ifndef NDEBUG
  // Contract behind the bitwise-reproducibility guarantee: each bucket's
  // centers must stay in ascending index (= insertion) order — that is the
  // summation order the scalar and batch paths both follow. The stable sort
  // above guarantees it; this re-checks after any future rewrite.
  for (uint64_t s = 0; s <= slot_mask_; ++s) {
    if (slot_begin_[s] < 0) continue;
    DBS_ASSERT(slot_begin_[s] < slot_end_[s] &&
                   slot_end_[s] <= static_cast<int32_t>(m),
               "bucket range must be non-empty and within the center table");
    for (int32_t t = slot_begin_[s] + 1; t < slot_end_[s]; ++t) {
      DBS_ASSERT(cell_centers_[static_cast<size_t>(t - 1)] <
                     cell_centers_[static_cast<size_t>(t)],
                 "bucket centers left insertion order; the summation order "
                 "contract is broken");
    }
  }
#endif

  // The {-1,0,1}^d neighbor-offset pattern, first dimension fastest —
  // computed once here instead of re-run per evaluation.
  num_neighbor_cells_ = 1;
  for (int j = 0; j < dim; ++j) num_neighbor_cells_ *= 3;
  neighbor_offsets_.resize(static_cast<size_t>(num_neighbor_cells_) * dim);
  int offsets[kMaxIndexDim];
  std::fill(offsets, offsets + dim, -1);
  for (int c = 0; c < num_neighbor_cells_; ++c) {
    for (int j = 0; j < dim; ++j) {
      neighbor_offsets_[static_cast<size_t>(c) * dim + j] = offsets[j];
    }
    for (int j = 0; j < dim; ++j) {
      if (++offsets[j] <= 1) break;
      offsets[j] = -1;
    }
  }
  indexed_ = true;
}

bool Kde::CellOf(const double* p, int64_t* cell) const {
  for (int j = 0; j < dim(); ++j) {
    const double c = std::floor(p[j] / cell_extent_[j]);
    // NaN fails both tests. -2^63 fails too, so that the neighbor cell
    // cell[j] - 1 cannot overflow.
    if (!(c > -0x1p63 && c < 0x1p63)) return false;
    cell[j] = static_cast<int64_t>(c);
  }
  return true;
}

bool Kde::FindBucket(uint64_t key, int32_t* begin, int32_t* end) const {
  uint64_t s = key & slot_mask_;
  while (slot_begin_[s] >= 0) {
    if (slot_keys_[s] == key) {
      *begin = slot_begin_[s];
      *end = slot_end_[s];
      return true;
    }
    s = (s + 1) & slot_mask_;
  }
  return false;
}

namespace {

// True when the center's coordinates equal `exclude` exactly (centers are
// verbatim copies of data rows, so bitwise comparison identifies them).
inline bool MatchesExclude(const double* c, data::PointView exclude, int d) {
  if (exclude.data() == nullptr) return false;
  for (int j = 0; j < d; ++j) {
    if (c[j] != exclude[j]) return false;
  }
  return true;
}

inline bool SameCell(const int64_t* a, const int64_t* b, int d) {
  for (int j = 0; j < d; ++j) {
    if (a[j] != b[j]) return false;
  }
  return true;
}

// Collects the deduplicated neighbor-bucket keys of `base` in ascending
// order — the canonical bucket-visit order. Returns the key count.
inline int NeighborKeys(const int64_t* base, const int64_t* offsets,
                        int num_cells, int d, uint64_t* keys) {
  int64_t cell[kMaxIndexDim];
  for (int c = 0; c < num_cells; ++c) {
    const int64_t* off = offsets + static_cast<size_t>(c) * d;
    for (int j = 0; j < d; ++j) cell[j] = base[j] + off[j];
    keys[c] = HashCell(cell, d);
  }
  std::sort(keys, keys + num_cells);
  return static_cast<int>(std::unique(keys, keys + num_cells) - keys);
}

}  // namespace

double Kde::SumBrute(data::PointView p, data::PointView exclude) const {
  DBS_DCHECK(p.dim() == dim());
  const int d = dim();
  double sum = 0.0;
  for (int64_t i = 0; i < centers_.size(); ++i) {
    const double* c = centers_[i].data();
    double prod = 1.0;
    for (int j = 0; j < d; ++j) {
      double u = (p[j] - c[j]) * inv_bandwidths_[j];
      double k = KernelValue(kernel_, u);
      if (k == 0.0) {
        prod = 0.0;
        break;
      }
      prod *= k;
    }
    if (prod != 0.0 && MatchesExclude(c, exclude, d)) continue;
    sum += prod;
  }
  return sum;
}

double Kde::EvaluateBrute(data::PointView p) const {
  return norm_factor_ * SumBrute(p, data::PointView());
}

double Kde::SumIndexed(data::PointView p, data::PointView exclude) const {
  DBS_DCHECK(p.dim() == dim());
  const int d = dim();
  int64_t base[kMaxIndexDim];
  if (!CellOf(p.data(), base)) return SumBrute(p, exclude);
  uint64_t keys[729];  // 3^6
  const int num_keys = NeighborKeys(base, neighbor_offsets_.data(),
                                    num_neighbor_cells_, d, keys);

  double sum = 0.0;
  for (int ki = 0; ki < num_keys; ++ki) {
    int32_t bucket_begin = 0;
    int32_t bucket_end = 0;
    if (!FindBucket(keys[ki], &bucket_begin, &bucket_end)) continue;
    for (int32_t t = bucket_begin; t < bucket_end; ++t) {
      const double* c = centers_[cell_centers_[t]].data();
      double prod = 1.0;
      for (int j = 0; j < d; ++j) {
        double u = (p[j] - c[j]) * inv_bandwidths_[j];
        double k = KernelValue(kernel_, u);
        if (k == 0.0) {
          prod = 0.0;
          break;
        }
        prod *= k;
      }
      if (prod != 0.0 && MatchesExclude(c, exclude, d)) continue;
      sum += prod;
    }
  }
  return sum;
}

double Kde::Evaluate(data::PointView p) const {
  if (!indexed_) return EvaluateBrute(p);
  return norm_factor_ * SumIndexed(p, data::PointView());
}

double Kde::EvaluateExcluding(data::PointView x, data::PointView self) const {
  double sum = indexed_ ? SumIndexed(x, self) : SumBrute(x, self);
  return norm_factor_ * sum;
}

// ---------------------------------------------------------------------------
// Batch evaluation.
//
// The bitwise contract with the scalar path holds because nothing about the
// per-point arithmetic changes: each point is summed against the centers of
// its deduplicated neighbor buckets in ascending-key order (center-index
// order within a bucket), products are taken in dimension order, and the
// accumulator is a single double added in visit order. The batch path only
// changes WHEN work happens: the neighbor enumeration and gather are done
// once per cell group instead of once per point, the gathered tile is laid
// out SoA so the kernel loop streams contiguous memory, and a zero kernel
// factor multiplies through to +0.0 instead of branching out early (adding
// +0.0 to a non-negative sum cannot change its bits).

struct Kde::TileScratch {
  std::vector<int32_t> idx;  // gathered center indices, visit order
  std::vector<double> soa;   // dim arrays of length idx.size()
};

int64_t Kde::GatherTile(const int64_t* base_cell, TileScratch* scratch)
    const {
  const int d = dim();
  uint64_t keys[729];
  const int num_keys = NeighborKeys(base_cell, neighbor_offsets_.data(),
                                    num_neighbor_cells_, d, keys);
  scratch->idx.clear();
  for (int ki = 0; ki < num_keys; ++ki) {
    int32_t bucket_begin = 0;
    int32_t bucket_end = 0;
    if (!FindBucket(keys[ki], &bucket_begin, &bucket_end)) continue;
    scratch->idx.insert(scratch->idx.end(),
                        cell_centers_.begin() + bucket_begin,
                        cell_centers_.begin() + bucket_end);
  }
  const int64_t tile = static_cast<int64_t>(scratch->idx.size());
  scratch->soa.resize(static_cast<size_t>(d) * tile);
  const int64_t m = centers_.size();
  for (int j = 0; j < d; ++j) {
    double* col = scratch->soa.data() + static_cast<size_t>(j) * tile;
    const double* src = centers_soa_.data() + static_cast<size_t>(j) * m;
    for (int64_t t = 0; t < tile; ++t) col[t] = src[scratch->idx[t]];
  }
  return tile;
}

double Kde::SumTile(const double* p, const double* soa, int64_t tile,
                    const double* exclude, double sum_cap) const {
  // The arithmetic lives in density/kernel_block.h, the frozen per-pair
  // order every batch path shares (DESIGN.md §9).
  return sum_tile_(kernel_, dim(), p, inv_bandwidths_.data(), soa, tile,
                   exclude, sum_cap);
}

void Kde::BatchRangeIndexed(const double* rows, const double* selves,
                            int64_t begin, int64_t end, double sum_cap,
                            double* out) const {
  const int d = dim();
  const int64_t n = end - begin;
  std::vector<int64_t> cells(static_cast<size_t>(n) * d);
  // A row's cell group, or -1 for a row whose cell cannot be represented:
  // that row takes the brute-force sum right here, as the scalar path does.
  std::vector<int64_t> group_of(static_cast<size_t>(n), 0);
  for (int64_t i = 0; i < n; ++i) {
    const int64_t row = begin + i;
    if (!CellOf(rows + row * d, cells.data() + static_cast<size_t>(i) * d)) {
      out[row] = norm_factor_ *
                 SumTile(rows + row * d, centers_soa_.data(), centers_.size(),
                         selves != nullptr ? selves + row * d : nullptr,
                         sum_cap);
      group_of[static_cast<size_t>(i)] = -1;
    }
  }
  // Group the range's points by grid cell so each group pays for its
  // neighborhood gather once, in linear time: an open-addressed table of
  // the distinct cells (at least 2n slots, so at most half full), keyed by
  // the cell hash and confirmed by an exact coordinate compare so that
  // cells whose hashes collide stay separate groups; then a counting
  // scatter into `order`. A point's sum depends only on its own cell's
  // tile, so neither the grouping nor the order of the groups can show in
  // the output.
  uint64_t slots = 1;
  while (slots < 2 * static_cast<uint64_t>(n)) slots <<= 1;
  const uint64_t mask = slots - 1;
  // Each slot holds a group id, or -1 while empty.
  std::vector<int64_t> slot_group(static_cast<size_t>(slots), -1);
  std::vector<uint64_t> group_hash;
  std::vector<int64_t> group_point;  // a member point, whose cell is the base
  for (int64_t i = 0; i < n; ++i) {
    if (group_of[i] < 0) continue;
    const int64_t* c = cells.data() + static_cast<size_t>(i) * d;
    const uint64_t h = HashCell(c, d);
    uint64_t s = h & mask;
    int64_t g = slot_group[s];
    while (g >= 0 &&
           !(group_hash[g] == h &&
             SameCell(cells.data() + static_cast<size_t>(group_point[g]) * d,
                      c, d))) {
      s = (s + 1) & mask;
      g = slot_group[s];
    }
    if (g < 0) {
      g = static_cast<int64_t>(group_hash.size());
      slot_group[s] = g;
      group_hash.push_back(h);
      group_point.push_back(i);
    }
    group_of[i] = g;
  }
  const int64_t num_groups = static_cast<int64_t>(group_hash.size());
  std::vector<int64_t> group_begin(static_cast<size_t>(num_groups) + 1, 0);
  for (int64_t i = 0; i < n; ++i) {
    if (group_of[i] >= 0) ++group_begin[group_of[i] + 1];
  }
  for (int64_t g = 0; g < num_groups; ++g) {
    group_begin[g + 1] += group_begin[g];
  }
  std::vector<int64_t> cursor(group_begin.begin(), group_begin.end() - 1);
  std::vector<int64_t> order(static_cast<size_t>(n));
  for (int64_t i = 0; i < n; ++i) {
    if (group_of[i] >= 0) order[cursor[group_of[i]]++] = i;
  }

  TileScratch scratch;
  for (int64_t g = 0; g < num_groups; ++g) {
    const int64_t tile = GatherTile(
        cells.data() + static_cast<size_t>(group_point[g]) * d, &scratch);
    for (int64_t k = group_begin[g]; k < group_begin[g + 1]; ++k) {
      const int64_t i = begin + order[k];
      const double sum =
          SumTile(rows + i * d, scratch.soa.data(), tile,
                  selves != nullptr ? selves + i * d : nullptr, sum_cap);
      out[i] = norm_factor_ * sum;
    }
  }
}

void Kde::BatchRangeBrute(const double* rows, const double* selves,
                          int64_t begin, int64_t end, double sum_cap,
                          double* out) const {
  const int d = dim();
  const int64_t m = centers_.size();
  for (int64_t i = begin; i < end; ++i) {
    const double* p = rows + i * d;
    const double sum =
        SumTile(p, centers_soa_.data(), m,
                selves != nullptr ? selves + i * d : nullptr, sum_cap);
    out[i] = norm_factor_ * sum;
  }
}

Status Kde::BatchSharded(const double* rows, const double* selves,
                         int64_t count, double sum_cap, double* out,
                         parallel::BatchExecutor* executor) const {
  if (count <= 0) return Status::Ok();
  auto shard = [&](int64_t begin, int64_t end) {
    if (indexed_) {
      BatchRangeIndexed(rows, selves, begin, end, sum_cap, out);
    } else {
      BatchRangeBrute(rows, selves, begin, end, sum_cap, out);
    }
  };
  if (executor != nullptr) return executor->ParallelFor(count, shard);
  shard(0, count);
  return Status::Ok();
}

Status Kde::EvaluateExcludingSelvesBatch(
    const double* rows, const double* selves, int64_t count, double* out,
    parallel::BatchExecutor* executor) const {
  return BatchSharded(rows, selves, count,
                      std::numeric_limits<double>::infinity(), out, executor);
}

Status Kde::EvaluateExcludingBatchCapped(
    const double* rows, int64_t count, double cap, double* out,
    parallel::BatchExecutor* executor) const {
  // out = norm_factor_ * sum, so a sum above the largest s with
  // fl(norm_factor_ * s) <= cap gives a density above cap: rounded
  // multiplication by a positive constant is monotone.
  return BatchSharded(rows, rows, count,
                      LargestFactorAtMost(norm_factor_, cap), out, executor);
}

double Kde::MeanDensityPow(double a, parallel::BatchExecutor* executor)
    const {
  const int64_t m = centers_.size();
  std::vector<double> f(static_cast<size_t>(m));
  Status batched =
      EvaluateBatch(centers_.flat().data(), m, f.data(), executor);
  if (!batched.ok()) {
    // Executor backpressure: fall back to the sequential batch path, which
    // cannot fail and produces the identical values.
    (void)EvaluateBatch(centers_.flat().data(), m, f.data(), nullptr);
  }
  double sum = 0.0;
  for (int64_t i = 0; i < m; ++i) {
    if (f[static_cast<size_t>(i)] > 0) {
      sum += std::pow(f[static_cast<size_t>(i)], a);
    }
  }
  return sum / static_cast<double>(m);
}

double Kde::AverageDensity() const {
  double volume = bounds_.Volume();
  if (volume <= 0) return 0.0;
  return static_cast<double>(n_) / volume;
}

Kde::State Kde::ExportState() const {
  State state;
  state.n = n_;
  state.kernel = kernel_;
  state.centers = centers_;
  state.bandwidths = bandwidths_;
  state.bounds = bounds_;
  return state;
}

Result<Kde> Kde::FromState(State state, bool rebuild_index) {
  if (state.n <= 0) {
    return Status::InvalidArgument("state has non-positive point count");
  }
  if (state.centers.empty()) {
    return Status::InvalidArgument("state has no kernel centers");
  }
  const int dim = state.centers.dim();
  if (static_cast<int>(state.bandwidths.size()) != dim) {
    return Status::InvalidArgument("bandwidth count does not match dim");
  }
  for (double h : state.bandwidths) {
    if (!(h > 0)) {
      return Status::InvalidArgument("bandwidths must be positive");
    }
  }
  if (state.bounds.dim() != dim) {
    return Status::InvalidArgument("bounds dim does not match centers");
  }
  for (double c : state.centers.flat()) {
    if (!std::isfinite(c)) {
      return Status::InvalidArgument("kernel centers must be finite");
    }
  }
  Kde kde;
  kde.n_ = state.n;
  kde.kernel_ = state.kernel;
  kde.centers_ = std::move(state.centers);
  kde.bandwidths_ = std::move(state.bandwidths);
  kde.bounds_ = std::move(state.bounds);
  kde.inv_bandwidths_.resize(dim);
  double inv_h_prod = 1.0;
  for (int j = 0; j < dim; ++j) {
    kde.inv_bandwidths_[j] = 1.0 / kde.bandwidths_[j];
    inv_h_prod *= kde.inv_bandwidths_[j];
  }
  kde.norm_factor_ = static_cast<double>(kde.n_) /
                     static_cast<double>(kde.centers_.size()) * inv_h_prod;
  kde.support_radius_ = KernelSupportRadius(kde.kernel_);
  kde.sum_tile_ = ActiveKernelTileClone().sum;
  kde.BuildSoA();
  if (rebuild_index && dim <= kMaxIndexDim) {
    kde.BuildIndex();
  }
  return kde;
}

}  // namespace dbs::density
