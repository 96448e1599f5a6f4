#include "density/grid_density.h"

#include <algorithm>
#include <cmath>
#include <utility>
#include <vector>

#include "util/math.h"

namespace dbs::density {
namespace {

// The cell hash is a left fold over the axes' cell indices: start from
// kCellHashSeed, fold in each axis with HashCellAxis, finish with
// h ^ (h >> 31).
constexpr uint64_t kCellHashSeed = 0x2545f4914f6cdd1dULL;

uint64_t HashCellAxis(uint64_t h, int64_t cell) {
  uint64_t v = static_cast<uint64_t>(cell) + 0x9e3779b97f4a7c15ULL;
  v *= 0xff51afd7ed558ccdULL;
  v ^= v >> 33;
  return (h * 0xc4ceb9fe1a85ec53ULL) ^ v;
}

}  // namespace

Result<GridDensity> GridDensity::Fit(data::DataScan& scan,
                                     const GridDensityOptions& options) {
  if (options.cells_per_dim <= 0) {
    return Status::InvalidArgument("cells_per_dim must be positive");
  }
  if (options.memory_budget_bytes < 64) {
    return Status::InvalidArgument("memory budget is unusably small");
  }
  const int dim = scan.dim();
  if (dim <= 0) {
    return Status::InvalidArgument("scan must have positive dimensionality");
  }

  GridDensity gd;
  gd.dim_ = dim;
  gd.cells_per_dim_ = options.cells_per_dim;

  if (options.bounds.empty()) {
    // Discovery pass for the domain.
    gd.bounds_ = data::BoundingBox(dim);
    scan.Reset();
    data::ScanBatch batch;
    while (scan.NextBatch(&batch)) {
      for (int64_t i = 0; i < batch.count; ++i) {
        gd.bounds_.Extend(batch.point(i, dim));
      }
    }
    if (gd.bounds_.empty()) {
      return Status::InvalidArgument("cannot fit a grid on an empty dataset");
    }
  } else {
    if (options.bounds.dim() != dim) {
      return Status::InvalidArgument("bounds dimensionality mismatch");
    }
    gd.bounds_ = options.bounds;
  }

  gd.cell_width_.resize(dim);
  gd.cell_volume_ = 1.0;
  for (int j = 0; j < dim; ++j) {
    double ext = gd.bounds_.extent(j);
    // A degenerate dimension still needs a positive width so every point
    // lands in cell 0 there.
    gd.cell_width_[j] =
        ext > 0 ? ext / gd.cells_per_dim_ : 1.0;
    gd.cell_volume_ *= gd.cell_width_[j];
  }

  // When every logical cell fits in the memory budget (8 bytes per count),
  // address cells directly — no collisions. Otherwise hash into however
  // many buckets the budget allows; distinct cells then merge, which is the
  // degradation mode of [22] this substrate reproduces.
  int64_t budget_buckets = std::max<int64_t>(options.memory_budget_bytes / 8,
                                             1);
  double logical = std::pow(static_cast<double>(options.cells_per_dim), dim);
  gd.hashed_ = logical > static_cast<double>(budget_buckets);
  int64_t num_buckets =
      gd.hashed_ ? budget_buckets : static_cast<int64_t>(logical);
  gd.bucket_counts_.assign(static_cast<size_t>(num_buckets), 0);

  // Counting pass.
  scan.Reset();
  data::ScanBatch batch;
  int64_t n = 0;
  while (scan.NextBatch(&batch)) {
    for (int64_t i = 0; i < batch.count; ++i) {
      ++gd.bucket_counts_[static_cast<size_t>(gd.BucketOf(
          batch.point(i, dim)))];
      ++n;
    }
  }
  if (n == 0) {
    return Status::InvalidArgument("cannot fit a grid on an empty dataset");
  }
  gd.n_ = n;
  return gd;
}

Result<GridDensity> GridDensity::Fit(const data::PointSet& points,
                                     const GridDensityOptions& options) {
  data::InMemoryScan scan(&points);
  return Fit(scan, options);
}

int64_t GridDensity::BucketOf(data::PointView p) const {
  DBS_DCHECK(p.dim() == dim_);
  // Each axis's clamped cell folds into the id as soon as it is computed,
  // so any dimensionality works: into the linear cell id when cells are
  // addressed directly, into the cell's hash otherwise.
  // The clamp runs in floating point, before the cast, so that a value
  // past int64's range lands in the edge cell; NaN lands in cell 0.
  auto cell = [&](int j) {
    const double c = std::floor((p[j] - bounds_.lo(j)) / cell_width_[j]);
    if (!(c > 0.0)) return int64_t{0};
    const auto last = static_cast<double>(cells_per_dim_ - 1);
    return c < last ? static_cast<int64_t>(c) : cells_per_dim_ - 1;
  };
  if (!hashed_) {
    int64_t linear = 0;
    for (int j = 0; j < dim_; ++j) linear = linear * cells_per_dim_ + cell(j);
    return linear;
  }
  uint64_t h = kCellHashSeed;
  for (int j = 0; j < dim_; ++j) h = HashCellAxis(h, cell(j));
  return static_cast<int64_t>((h ^ (h >> 31)) %
                              static_cast<uint64_t>(bucket_counts_.size()));
}

int64_t GridDensity::CellCount(data::PointView p) const {
  return bucket_counts_[static_cast<size_t>(BucketOf(p))];
}

double GridDensity::Evaluate(data::PointView p) const {
  return static_cast<double>(CellCount(p)) / cell_volume_;
}

double GridDensity::EvaluateExcluding(data::PointView x,
                                      data::PointView self) const {
  int64_t count = CellCount(x);
  if (BucketOf(x) == BucketOf(self) && count > 0) --count;
  return static_cast<double>(count) / cell_volume_;
}

void GridDensity::BatchRange(const double* rows, const double* selves,
                             int64_t begin, int64_t end, double* out) const {
  const int d = dim_;
  const int64_t n = end - begin;
  // Sort the range's points by bucket id; Evaluate depends only on the
  // bucket (hash-colliding cells already share counts), so grouping by it
  // is exact, and per-point results are order-independent.
  std::vector<std::pair<int64_t, int64_t>> order(static_cast<size_t>(n));
  for (int64_t i = 0; i < n; ++i) {
    order[static_cast<size_t>(i)] = {
        BucketOf(data::PointView(rows + (begin + i) * d, d)), i};
  }
  std::sort(order.begin(), order.end());
  int64_t g = 0;
  while (g < n) {
    const int64_t bucket = order[static_cast<size_t>(g)].first;
    int64_t h = g + 1;
    while (h < n && order[static_cast<size_t>(h)].first == bucket) ++h;
    // One lookup and one division per group — the same operands the scalar
    // path divides per point, so the same double comes out.
    const int64_t count = bucket_counts_[static_cast<size_t>(bucket)];
    const double value = static_cast<double>(count) / cell_volume_;
    const double excl_value =
        static_cast<double>(count > 0 ? count - 1 : count) / cell_volume_;
    for (int64_t k = g; k < h; ++k) {
      const int64_t i = order[static_cast<size_t>(k)].second;
      double v = value;
      if (selves != nullptr &&
          BucketOf(data::PointView(selves + (begin + i) * d, d)) == bucket) {
        v = excl_value;
      }
      out[begin + i] = v;
    }
    g = h;
  }
}

Status GridDensity::EvaluateExcludingSelvesBatch(
    const double* rows, const double* selves, int64_t count, double* out,
    parallel::BatchExecutor* executor) const {
  if (count <= 0) return Status::Ok();
  auto shard = [&](int64_t begin, int64_t end) {
    BatchRange(rows, selves, begin, end, out);
  };
  if (executor != nullptr) return executor->ParallelFor(count, shard);
  shard(0, count);
  return Status::Ok();
}

double GridDensity::SumCountPow(double e) const {
  double sum = 0.0;
  for (int64_t c : bucket_counts_) {
    if (c > 0) sum += SafePow(static_cast<double>(c), e);
  }
  return sum;
}

int64_t GridDensity::num_occupied_buckets() const {
  int64_t occupied = 0;
  for (int64_t c : bucket_counts_) {
    if (c > 0) ++occupied;
  }
  return occupied;
}

}  // namespace dbs::density
