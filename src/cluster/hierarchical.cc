// Accelerated CURE agglomeration (DESIGN.md §11).
//
// The reference implementation (hierarchical_reference.cc) does O(n) work
// on every merge: it scans all clusters for the closest pair, for the
// clusters whose nearest pointer named the merged pair, and again to score
// the merged cluster against everyone. This file keeps its merge sequence,
// and every output byte, while a merge touches only the clusters near the
// merged one. In what follows u is the merged cluster and v the one merged
// into it.
//
//  * a lazy-deletion min-heap of (closest_d2, cluster, stamp) entries, so
//    picking the globally closest pair is O(log n) instead of an O(n) scan
//    per merge. Entries are never updated in place: changing a cluster's
//    nearest pointer bumps its stamp and pushes a fresh entry, and stale
//    entries are discarded when popped. The comparator orders by
//    (d2, cluster id), which reproduces the reference scan's "strict <,
//    ascending index" tie-breaking exactly.
//
//  * referrer lists (ReferrerLists): per cluster, an intrusive list of the
//    clusters whose nearest pointer names it, so the clusters that pointed
//    at u or v are read off two lists instead of found by a scan.
//
//  * a rep->cluster kd-tree snapshot (RepIndex) that answers nearest-
//    cluster queries — the referrers' and u's own — with a handful of
//    pruned NearestExcludingGroup queries. It is rebuilt on a deterministic
//    cadence; clusters whose representatives changed since the last
//    rebuild are "dirty" and scored directly, so staleness is bounded and
//    never observable in the results.
//
//  * a centroid kd-tree with per-node reach bounds (ReachTree) that finds
//    the only clusters u can have moved closer to, so the push-update pass
//    visits a neighbourhood of u instead of every live cluster. Its boxes
//    and bounds only ever widen between rebuilds, so they stay valid
//    without a dirty list.
//
//  * a min-rep-distance kernel (MinRepDist2) over contiguous representative
//    rows, dimension-templated so the compiler unrolls and vectorizes the
//    inner loop. It runs on the calling thread.
//
// Why the order of the per-merge work is free. recompute_closest(x) reads
// only representatives, liveness and the snapshot, never another cluster's
// nearest pointer, so neither the order in which referrers are repaired
// nor where a snapshot rebuild happens to fall can change a result. A
// push-update touches only x's own pointer and the heap, and the heap
// orders by (d2, id) with stamps, so the order in which the push-update
// pass visits candidates cannot change which entry pops next.
//
// Bitwise equivalence is enforced by the frozen goldens in
// tests/cluster_hierarchical_test.cc, the randomized oracle comparison in
// tests/cluster_agglo_equivalence_test.cc, and bench/micro_cluster, which
// exits nonzero on any label/representative mismatch.

#include "cluster/hierarchical.h"

#include <algorithm>
#include <cmath>
#include <limits>
#include <memory>
#include <numeric>
#include <queue>
#include <vector>

#include "cluster/hierarchical_internal.h"
#include "data/distance.h"
#include "data/kd_tree.h"

namespace dbs::cluster {
namespace {

constexpr double kInf = std::numeric_limits<double>::infinity();

// Internal per-cluster state during agglomeration. Liveness, the nearest
// pointer and the bounds the hot loops read live in flat per-cluster
// arrays instead.
struct Node {
  std::vector<int64_t> members;
  std::vector<double> centroid;      // weighted by member count
  data::PointSet scattered;          // unshrunk well-scattered points
  data::PointSet reps;               // scattered points shrunk toward mean
  uint32_t stamp = 0;                // invalidates heap entries on change
};

// Minimum squared distance between two representative sets given as flat
// row-major buffers. The per-pair arithmetic matches data::SquaredL2
// exactly (ascending dimension, separate multiply and add, `a - b` operand
// order); the min reduction is order-insensitive over non-NaN values, so
// the result is bitwise identical to the reference's rep-by-rep loop.
template <int kDim>
double MinRepDist2(const double* a, int64_t na, const double* b,
                   int64_t nb) {
  double best = kInf;
  for (int64_t j = 0; j < nb; ++j) {
    const double* q = b + j * kDim;
    for (int64_t i = 0; i < na; ++i) {
      const double* p = a + i * kDim;
      double sum = 0.0;
      for (int d = 0; d < kDim; ++d) {
        double diff = p[d] - q[d];
        sum += diff * diff;
      }
      best = std::min(best, sum);
    }
  }
  return best;
}

double MinRepDist2Generic(const double* a, int64_t na, const double* b,
                          int64_t nb, int dim) {
  double best = kInf;
  for (int64_t j = 0; j < nb; ++j) {
    const double* q = b + j * dim;
    for (int64_t i = 0; i < na; ++i) {
      const double* p = a + i * dim;
      double sum = 0.0;
      for (int d = 0; d < dim; ++d) {
        double diff = p[d] - q[d];
        sum += diff * diff;
      }
      best = std::min(best, sum);
    }
  }
  return best;
}

double MinRepDist2Dyn(const double* a, int64_t na, const double* b,
                      int64_t nb, int dim) {
  switch (dim) {
    case 1:
      return MinRepDist2<1>(a, na, b, nb);
    case 2:
      return MinRepDist2<2>(a, na, b, nb);
    case 3:
      return MinRepDist2<3>(a, na, b, nb);
    case 4:
      return MinRepDist2<4>(a, na, b, nb);
    case 5:
      return MinRepDist2<5>(a, na, b, nb);
    default:
      return MinRepDist2Generic(a, na, b, nb, dim);
  }
}

// Cluster distance through the flat kernel.
double ClusterDistance2(const Node& a, const Node& b, int dim) {
  return MinRepDist2Dyn(a.reps.flat().data(), a.reps.size(),
                        b.reps.flat().data(), b.reps.size(), dim);
}

// One intrusive doubly linked list per target cluster, holding the live
// clusters whose nearest pointer names it, threaded through three int32_t
// arrays (a head per target, next/prev per member) so nothing is
// allocated per cluster. Each cluster sits in at most one list: the one of
// its current nearest.
class ReferrerLists {
 public:
  explicit ReferrerLists(int64_t num_nodes)
      : head_(static_cast<size_t>(num_nodes), -1),
        next_(static_cast<size_t>(num_nodes), -1),
        prev_(static_cast<size_t>(num_nodes), -1) {}

  void Link(int32_t x, int32_t target) {
    const int32_t first = head_[static_cast<size_t>(target)];
    next_[static_cast<size_t>(x)] = first;
    prev_[static_cast<size_t>(x)] = -1;
    if (first >= 0) prev_[static_cast<size_t>(first)] = x;
    head_[static_cast<size_t>(target)] = x;
  }

  void Unlink(int32_t x, int32_t target) {
    const int32_t before = prev_[static_cast<size_t>(x)];
    const int32_t after = next_[static_cast<size_t>(x)];
    if (before >= 0) {
      next_[static_cast<size_t>(before)] = after;
    } else {
      head_[static_cast<size_t>(target)] = after;
    }
    if (after >= 0) prev_[static_cast<size_t>(after)] = before;
  }

  // Appends the clusters whose nearest pointer names `target` to `out`.
  void AppendReferrers(int32_t target, std::vector<int32_t>* out) const {
    for (int32_t x = head_[static_cast<size_t>(target)]; x >= 0;
         x = next_[static_cast<size_t>(x)]) {
      out->push_back(x);
    }
  }

 private:
  std::vector<int32_t> head_;
  std::vector<int32_t> next_;
  std::vector<int32_t> prev_;
};

// Snapshot kd-tree over the representative points of live clusters, with
// bounded staleness. Between rebuilds a cluster is in exactly one state:
//
//   kFresh — alive, reps unchanged since the snapshot; served by the tree.
//   kDirty — alive, reps changed since the snapshot; scored directly.
//   kDead  — merged away or eliminated; filtered out of tree hits.
//
// A nearest-cluster query is therefore exact at all times: tree hits cover
// the fresh clusters, the dirty list covers the rest. Rebuild cadence is a
// pure function of algorithm state (dirty/dead counts vs live), so runs
// are deterministic.
class RepIndex {
 public:
  RepIndex(int64_t num_nodes, int dim)
      : dim_(dim),
        state_(static_cast<size_t>(num_nodes), kDead),
        fresh_(static_cast<size_t>(num_nodes), 0) {}

  // Marks `x`'s representatives as changed since the snapshot.
  void MarkDirty(int32_t x) {
    if (state_[static_cast<size_t>(x)] == kFresh) {
      state_[static_cast<size_t>(x)] = kDirty;
      fresh_[static_cast<size_t>(x)] = 0;
      dirty_.push_back(x);
      ++dirty_live_;
    }
  }

  void MarkDead(int32_t x) {
    if (state_[static_cast<size_t>(x)] == kFresh) ++snapshot_deaths_;
    if (state_[static_cast<size_t>(x)] == kDirty) --dirty_live_;
    state_[static_cast<size_t>(x)] = kDead;
    fresh_[static_cast<size_t>(x)] = 0;
  }

  // Whether the snapshot is missing, too dirty (every dirty cluster is a
  // direct-scoring candidate on every repair) or too dead (tree traversal
  // wades through filtered leaves).
  bool NeedsRebuild(int64_t live) const {
    return tree_ == nullptr ||
           dirty_live_ >= std::max<int64_t>(8, live / 32) ||
           snapshot_deaths_ >= std::max<int64_t>(8, live / 4);
  }

  // Snapshots the representatives of the live clusters `live_ids`.
  void Rebuild(const std::vector<Node>& nodes,
               const std::vector<int32_t>& live_ids) {
    snapshot_ = data::PointSet(dim_);
    owner_.clear();
    dirty_.clear();
    dirty_live_ = 0;
    snapshot_deaths_ = 0;
    for (int32_t x : live_ids) {
      const Node& node = nodes[static_cast<size_t>(x)];
      state_[static_cast<size_t>(x)] = kFresh;
      fresh_[static_cast<size_t>(x)] = 1;
      for (int64_t r = 0; r < node.reps.size(); ++r) {
        snapshot_.Append(node.reps[r]);
        owner_.push_back(x);
      }
    }
    tree_ = std::make_unique<data::KdTree>(&snapshot_);
  }

  const data::KdTree& tree() const { return *tree_; }
  const std::vector<int32_t>& owner() const { return owner_; }
  const std::vector<uint8_t>& fresh() const { return fresh_; }
  const std::vector<int32_t>& dirty() const { return dirty_; }

  bool IsDirty(int32_t x) const {
    return state_[static_cast<size_t>(x)] == kDirty;
  }

 private:
  enum State : uint8_t { kFresh, kDirty, kDead };

  const int dim_;
  data::PointSet snapshot_;           // flat copy of fresh clusters' reps
  std::vector<int32_t> owner_;        // snapshot row -> cluster id
  std::unique_ptr<data::KdTree> tree_;
  std::vector<State> state_;
  std::vector<uint8_t> fresh_;        // state_ == kFresh, as the tree filter
  std::vector<int32_t> dirty_;        // clusters scored directly (may hold
                                      // since-dead ids; filtered on use)
  int64_t dirty_live_ = 0;            // entries of dirty_ still kDirty
  int64_t snapshot_deaths_ = 0;
};

// Kd-tree over the centroids of the live clusters, for the push-update
// pass. Each node keeps a box that holds its members' current centroids
// and `reach`, an upper bound of reach(x) = thr_sqrt[x] + rep_radius[x]
// over them. Between rebuilds the bounds only ever widen: Move grows the
// boxes on the path to a cluster's leaf when its centroid moves, and Raise
// lifts the reach bounds when its reach rises. They are upper bounds at
// all times, so the rebuild cadence affects only speed. Dead members stay
// in their leaves until the next rebuild; the caller skips them.
//
// The pass prunes x when c2 * (1 - 1e-9) >= rhs * rhs, with c2 the squared
// centroid distance and rhs = reach(x) + r_u. A subtree is skipped by the
// same test applied to the box distance (a lower bound of every member's
// c2, summed in the same order) and to the node's reach (an upper bound of
// every member's). Rounding is monotone, so a skipped subtree holds only
// clusters the per-candidate test would have pruned too: the tree visits a
// superset of the unpruned candidates.
class ReachTree {
 public:
  ReachTree(int64_t num_nodes, int dim)
      : dim_(dim), leaf_of_(static_cast<size_t>(num_nodes), -1) {}

  // Whether the tree is missing, or loose enough that a rebuild pays:
  // live/4 centroid moves, or half of its members dead, since the build.
  bool NeedsRebuild(int64_t live) const {
    return nodes_.empty() || moves_ >= std::max<int64_t>(8, live / 4) ||
           2 * live <= static_cast<int64_t>(items_.size());
  }

  // Rebuilds over the clusters `ids` from their current centroids and
  // reaches.
  void Build(const std::vector<int32_t>& ids, const std::vector<double>& cent,
             const std::vector<double>& thr_sqrt,
             const std::vector<double>& rep_radius) {
    for (int32_t x : items_) leaf_of_[static_cast<size_t>(x)] = -1;
    items_.assign(ids.begin(), ids.end());
    nodes_.clear();
    boxes_.clear();
    moves_ = 0;
    if (!items_.empty()) {
      BuildNode(0, static_cast<int32_t>(items_.size()), -1, cent, thr_sqrt,
                rep_radius);
    }
  }

  // Raises the bounds above `x` to at least `reach`. Parents bound their
  // children, so the walk stops at the first node already high enough.
  void Raise(int32_t x, double reach) {
    for (int32_t t = leaf_of_[static_cast<size_t>(x)];
         t >= 0 && nodes_[static_cast<size_t>(t)].reach < reach;
         t = nodes_[static_cast<size_t>(t)].parent) {
      nodes_[static_cast<size_t>(t)].reach = reach;
    }
  }

  // Grows the boxes above `x` to hold its new centroid `c`. A parent's box
  // holds its children's, so the walk stops at the first box that already
  // holds `c`.
  void Move(int32_t x, const double* c) {
    ++moves_;
    for (int32_t t = leaf_of_[static_cast<size_t>(x)]; t >= 0;
         t = nodes_[static_cast<size_t>(t)].parent) {
      double* lo = &boxes_[static_cast<size_t>(t) * 2 * dim_];
      double* hi = lo + dim_;
      bool grew = false;
      for (int d = 0; d < dim_; ++d) {
        if (c[d] < lo[d]) {
          lo[d] = c[d];
          grew = true;
        }
        if (c[d] > hi[d]) {
          hi[d] = c[d];
          grew = true;
        }
      }
      if (!grew) break;
    }
  }

  // Calls visit(x) for every member of each leaf that the prune test
  // against centroid `q` with rep radius `q_radius` cannot skip. Members
  // that died since the build are visited too; the caller filters them.
  template <typename Visit>
  void ForEachCandidate(const double* q, double q_radius,
                        Visit&& visit) const {
    if (!nodes_.empty()) Descend(0, q, q_radius, visit);
  }

 private:
  static constexpr int32_t kLeafSize = 8;

  struct TreeNode {
    int32_t begin;
    int32_t end;
    int32_t parent;
    int32_t right;   // -1 for a leaf; the left child is the next node
    double reach;
  };

  // Builds the subtree over items_[begin, end) in preorder: a box and a
  // reach bound over the members, then a median split on the box's widest
  // axis.
  int32_t BuildNode(int32_t begin, int32_t end, int32_t parent,
                    const std::vector<double>& cent,
                    const std::vector<double>& thr_sqrt,
                    const std::vector<double>& rep_radius) {
    const int32_t id = static_cast<int32_t>(nodes_.size());
    const size_t box = boxes_.size();
    boxes_.resize(box + 2 * static_cast<size_t>(dim_));
    double* lo = &boxes_[box];
    double* hi = lo + dim_;
    std::fill(lo, hi, kInf);
    std::fill(hi, hi + dim_, -kInf);
    double reach = 0.0;
    for (int32_t i = begin; i < end; ++i) {
      const size_t x = static_cast<size_t>(items_[static_cast<size_t>(i)]);
      const double* c = &cent[x * static_cast<size_t>(dim_)];
      for (int d = 0; d < dim_; ++d) {
        lo[d] = std::min(lo[d], c[d]);
        hi[d] = std::max(hi[d], c[d]);
      }
      reach = std::max(reach, thr_sqrt[x] + rep_radius[x]);
    }
    nodes_.push_back({begin, end, parent, -1, reach});
    if (end - begin <= kLeafSize) {
      for (int32_t i = begin; i < end; ++i) {
        leaf_of_[static_cast<size_t>(items_[static_cast<size_t>(i)])] = id;
      }
      return id;
    }
    int axis = 0;
    for (int d = 1; d < dim_; ++d) {
      if (hi[d] - lo[d] > hi[axis] - lo[axis]) axis = d;
    }
    const int32_t mid = begin + (end - begin) / 2;
    std::nth_element(items_.begin() + begin, items_.begin() + mid,
                     items_.begin() + end, [&](int32_t a, int32_t b) {
                       return cent[static_cast<size_t>(a) * dim_ + axis] <
                              cent[static_cast<size_t>(b) * dim_ + axis];
                     });
    BuildNode(begin, mid, id, cent, thr_sqrt, rep_radius);
    const int32_t right = BuildNode(mid, end, id, cent, thr_sqrt, rep_radius);
    nodes_[static_cast<size_t>(id)].right = right;
    return id;
  }

  template <typename Visit>
  void Descend(int32_t t, const double* q, double q_radius,
               Visit& visit) const {
    const TreeNode& node = nodes_[static_cast<size_t>(t)];
    const double* lo = &boxes_[static_cast<size_t>(t) * 2 * dim_];
    const double* hi = lo + dim_;
    double md2 = 0.0;
    for (int d = 0; d < dim_; ++d) {
      double gap = 0.0;
      if (q[d] < lo[d]) {
        gap = lo[d] - q[d];
      } else if (q[d] > hi[d]) {
        gap = q[d] - hi[d];
      }
      md2 += gap * gap;
    }
    const double lim = node.reach + q_radius;
    if (md2 * (1.0 - 1e-9) >= lim * lim) return;
    if (node.right < 0) {
      for (int32_t i = node.begin; i < node.end; ++i) {
        visit(items_[static_cast<size_t>(i)]);
      }
      return;
    }
    Descend(t + 1, q, q_radius, visit);
    Descend(node.right, q, q_radius, visit);
  }

  const int dim_;
  std::vector<int32_t> items_;     // member cluster ids, leaf-contiguous
  std::vector<int32_t> leaf_of_;   // cluster id -> leaf node, or -1
  std::vector<TreeNode> nodes_;    // preorder
  std::vector<double> boxes_;      // per node: lo[dim] then hi[dim]
  int64_t moves_ = 0;              // Move calls since the build
};

}  // namespace

[[nodiscard]] Result<ClusteringResult> HierarchicalCluster(
    const data::PointSet& points, const HierarchicalOptions& options) {
  DBS_RETURN_IF_ERROR(internal::ValidateHierarchicalArgs(points, options));
  const int64_t n = points.size();
  const int dim = points.dim();

  // Initialize one singleton cluster per point.
  std::vector<Node> nodes(n);
  for (int64_t i = 0; i < n; ++i) {
    Node& node = nodes[i];
    node.members = {i};
    node.centroid = points[i].ToVector();
    node.scattered = data::PointSet(dim);
    node.scattered.Append(points[i]);
    node.reps = node.scattered;
  }

  // Lazy-deletion heap: the entry pushed at a node's latest stamp is its
  // live key; anything older (or belonging to a dead node) is discarded on
  // pop. Ordering by (d2, id) reproduces the reference's ascending-index
  // strict-< scan, so ties still go to the lowest cluster index.
  struct PairEntry {
    double d2;
    int32_t id;
    uint32_t stamp;
  };
  struct FarthestFirst {
    bool operator()(const PairEntry& a, const PairEntry& b) const {
      if (a.d2 != b.d2) return a.d2 > b.d2;
      return a.id > b.id;
    }
  };
  std::priority_queue<PairEntry, std::vector<PairEntry>, FarthestFirst> heap;

  // Flat per-cluster state read by the hot loops (SoA, so a bound check
  // touches no Node struct): liveness, the nearest pointer and its squared
  // distance, current centroid rows, an inflated sqrt(closest_d2) and the
  // rep radius (max rep-to-centroid distance). The 1e-12 inflations make
  // the stored roots certified upper bounds of the real ones despite
  // rounding; the prune margins below lean on them. Singletons start with
  // radius 0.
  std::vector<uint8_t> alive(static_cast<size_t>(n), 1);
  std::vector<int32_t> closest(static_cast<size_t>(n), -1);
  std::vector<double> closest_d2(static_cast<size_t>(n), kInf);
  std::vector<double> cent_flat(points.flat());
  std::vector<double> thr_sqrt(static_cast<size_t>(n), kInf);
  std::vector<double> rep_radius(static_cast<size_t>(n), 0.0);

  int64_t live = n;
  const int64_t target = std::min<int64_t>(options.num_clusters, n);
  // Ascending ids of the live clusters, plus the ones that died since the
  // last compaction; compacted before each use.
  std::vector<int32_t> live_ids(static_cast<size_t>(n));
  std::iota(live_ids.begin(), live_ids.end(), 0);
  auto compact_live = [&] {
    std::erase_if(live_ids,
                  [&](int32_t x) { return !alive[static_cast<size_t>(x)]; });
  };
  ReferrerLists referrers(n);
  RepIndex index(n, dim);
  ReachTree reach_tree(n, dim);

  auto set_closest = [&](int32_t id, int32_t to, double d2) {
    const size_t i = static_cast<size_t>(id);
    if (closest[i] != to) {
      if (closest[i] >= 0) referrers.Unlink(id, closest[i]);
      if (to >= 0) referrers.Link(id, to);
      closest[i] = to;
    }
    closest_d2[i] = to >= 0 ? d2 : kInf;
    thr_sqrt[i] = to >= 0 ? std::sqrt(d2) * (1.0 + 1e-12) : kInf;
    reach_tree.Raise(id, thr_sqrt[i] + rep_radius[i]);
    Node& node = nodes[i];
    ++node.stamp;
    if (to >= 0) heap.push({d2, id, node.stamp});
  };

  auto update_radius = [&](int32_t id) {
    const Node& node = nodes[id];
    data::PointView c(node.centroid.data(), dim);
    double worst = 0.0;
    for (int64_t r = 0; r < node.reps.size(); ++r) {
      worst = std::max(worst, data::SquaredL2(node.reps[r], c));
    }
    const size_t i = static_cast<size_t>(id);
    rep_radius[i] = std::sqrt(worst) * (1.0 + 1e-12);
    reach_tree.Raise(id, thr_sqrt[i] + rep_radius[i]);
  };

  // Takes a cluster out of the agglomeration (merged away or eliminated).
  // Clusters pointing at it stay in its referrer list until repaired.
  auto kill = [&](int32_t id) {
    Node& node = nodes[id];
    node.members.clear();
    node.scattered.Clear();
    node.reps.Clear();
    const size_t i = static_cast<size_t>(id);
    alive[i] = 0;
    if (closest[i] >= 0) referrers.Unlink(id, closest[i]);
    closest[i] = -1;
    --live;
    index.MarkDead(id);
  };

  // Initial nearest neighbors via a kd-tree over the points (singleton
  // clusters have a single representative = the point itself).
  {
    data::KdTree tree(&points);
    for (int64_t i = 0; i < n; ++i) {
      int64_t nn = tree.Nearest(points[i], /*exclude=*/i);
      if (nn >= 0) {
        set_closest(static_cast<int32_t>(i), static_cast<int32_t>(nn),
                    data::SquaredL2(points[i], points[nn]));
      }
    }
  }

  // Repairs node `id`'s nearest pointer: pruned kd queries over the fresh
  // snapshot plus direct kernel scores against the dirty clusters. Both
  // halves reduce with the lexicographic (d2, cluster) rule, which equals
  // the reference's full ascending scan. A dirty cluster is skipped when
  // the triangle bound (|c_id - c_x| - r_id - r_x)^2, deflated by 1e-9
  // relative (many orders beyond any accumulated rounding), strictly
  // exceeds the best so far: its exact value then strictly exceeds it too,
  // so it can neither win nor tie.
  auto recompute_closest = [&](int32_t id) {
    if (index.NeedsRebuild(live)) {
      compact_live();
      index.Rebuild(nodes, live_ids);
    }
    const Node& node = nodes[id];
    double best_d2 = kInf;
    int32_t best = -1;
    for (int64_t r = 0; r < node.reps.size(); ++r) {
      data::KdTree::GroupNearest hit = index.tree().NearestExcludingGroup(
          node.reps[r], index.owner(), id, index.fresh());
      if (hit.group >= 0 &&
          (hit.d2 < best_d2 || (hit.d2 == best_d2 && hit.group < best))) {
        best_d2 = hit.d2;
        best = hit.group;
      }
    }
    const double* c = &cent_flat[static_cast<size_t>(id) * dim];
    const double radius = rep_radius[static_cast<size_t>(id)];
    for (int32_t x : index.dirty()) {
      if (x == id || !index.IsDirty(x)) continue;
      const double* cx = &cent_flat[static_cast<size_t>(x) * dim];
      double c2 = 0.0;
      for (int d = 0; d < dim; ++d) {
        double diff = c[d] - cx[d];
        c2 += diff * diff;
      }
      double gap =
          std::sqrt(c2) - radius - rep_radius[static_cast<size_t>(x)];
      if (gap > 0.0 && gap * gap * (1.0 - 1e-9) > best_d2) continue;
      double d2 = ClusterDistance2(node, nodes[x], dim);
      if (d2 < best_d2 || (d2 == best_d2 && x < best)) {
        best_d2 = d2;
        best = x;
      }
    }
    set_closest(id, best, best == -1 ? kInf : best_d2);
  };

  // Per-merge scratch, hoisted out of the loop.
  std::vector<int32_t> repair;

  // Removes live clusters with at most `max_size` members (but never drops
  // below `target` live clusters: victims die smallest-first, index as the
  // tiebreak, so when the cap truncates elimination the largest small
  // clusters are the ones that survive).
  auto eliminate_small = [&](int max_size) {
    compact_live();
    std::vector<int32_t> victims;
    for (int32_t x : live_ids) {
      if (static_cast<int>(nodes[x].members.size()) <= max_size) {
        victims.push_back(x);
      }
    }
    std::sort(victims.begin(), victims.end(), [&](int32_t a, int32_t b) {
      if (nodes[a].members.size() != nodes[b].members.size()) {
        return nodes[a].members.size() < nodes[b].members.size();
      }
      return a < b;
    });
    bool removed = false;
    for (int32_t v : victims) {
      if (live <= target) break;
      kill(v);
      removed = true;
    }
    if (!removed) return;
    compact_live();
    repair.clear();
    for (int32_t x : live_ids) {
      const int32_t to = closest[static_cast<size_t>(x)];
      if (to >= 0 && !alive[static_cast<size_t>(to)]) repair.push_back(x);
    }
    for (int32_t x : repair) recompute_closest(x);
  };

  const int64_t phase1_at = static_cast<int64_t>(
      options.phase1_trigger_fraction * static_cast<double>(n));
  const int64_t phase2_at = static_cast<int64_t>(
      options.phase2_trigger_multiple * static_cast<double>(target));
  bool phase1_done = !options.eliminate_outliers;
  bool phase2_done = !options.eliminate_outliers;

  while (live > target) {
    if (!phase1_done && live <= phase1_at) {
      phase1_done = true;
      eliminate_small(options.phase1_max_size);
      if (live <= target) break;
    }
    if (!phase2_done && live <= phase2_at) {
      phase2_done = true;
      eliminate_small(options.phase2_max_size);
      if (live <= target) break;
    }
    // Globally closest pair (u, v): pop until the top entry is current.
    int32_t u = -1;
    while (!heap.empty()) {
      PairEntry e = heap.top();
      const size_t i = static_cast<size_t>(e.id);
      if (!alive[i] || e.stamp != nodes[i].stamp || closest[i] < 0) {
        heap.pop();
        continue;
      }
      u = e.id;
      heap.pop();
      break;
    }
    DBS_CHECK(u >= 0);
    int32_t v = closest[static_cast<size_t>(u)];
    DBS_CHECK(v >= 0 && alive[static_cast<size_t>(v)]);

    // Merge v into u.
    Node& a = nodes[u];
    Node& b = nodes[v];
    double* cu = &cent_flat[static_cast<size_t>(u) * dim];
    double wa = static_cast<double>(a.members.size());
    double wb = static_cast<double>(b.members.size());
    for (int j = 0; j < dim; ++j) {
      a.centroid[j] = (a.centroid[j] * wa + b.centroid[j] * wb) / (wa + wb);
      cu[j] = a.centroid[j];
    }
    a.members.insert(a.members.end(), b.members.begin(), b.members.end());

    // New scattered set from the union of both clusters' scattered points.
    data::PointSet pool = a.scattered;
    pool.AppendAll(b.scattered);
    a.scattered = internal::SelectScattered(pool, a.centroid,
                                            options.num_representatives);
    a.reps = internal::ShrinkToward(a.scattered, a.centroid,
                                    options.shrink_factor);
    index.MarkDirty(u);
    reach_tree.Move(u, cu);
    update_radius(u);
    kill(v);

    // Repair every cluster whose nearest pointer named u or v: its nearest
    // cluster may have changed arbitrarily. u itself (in v's list) gets
    // its nearest last, below.
    repair.clear();
    referrers.AppendReferrers(u, &repair);
    referrers.AppendReferrers(v, &repair);
    std::sort(repair.begin(), repair.end());
    for (int32_t x : repair) {
      if (x != u) recompute_closest(x);
    }

    // One certified pass pushes the new u-distances into the clusters u
    // moved closer to. x is skipped when its centroid bound
    // c2 >= (thr_sqrt[x] + r_x + r_u)^2 holds with the 1e-9 deflation: by
    // the triangle inequality (and the inflated stored roots) the exact
    // kernel value then strictly exceeds x's closest_d2, so x cannot take
    // a push-update. The reach tree visits every live cluster the test may
    // keep. Repaired referrers already count u in their closest_d2, so the
    // push never fires for them.
    if (reach_tree.NeedsRebuild(live)) {
      compact_live();
      reach_tree.Build(live_ids, cent_flat, thr_sqrt, rep_radius);
    }
    const double ru = rep_radius[static_cast<size_t>(u)];
    reach_tree.ForEachCandidate(cu, ru, [&](int32_t x) {
      const size_t i = static_cast<size_t>(x);
      if (x == u || !alive[i]) return;
      const double* cx = &cent_flat[i * dim];
      double c2 = 0.0;
      for (int d = 0; d < dim; ++d) {
        double diff = cu[d] - cx[d];
        c2 += diff * diff;
      }
      double rhs = (thr_sqrt[i] + rep_radius[i]) + ru;
      if (c2 * (1.0 - 1e-9) >= rhs * rhs) return;
      double d2 = ClusterDistance2(a, nodes[i], dim);
      if (d2 < closest_d2[i]) set_closest(x, u, d2);
    });

    // u's own nearest: the same lexicographic (d2, id) minimum over every
    // live cluster that the reference's ascending strict-< scan finds.
    recompute_closest(u);
  }

  ClusteringResult result;
  result.labels.assign(static_cast<size_t>(n), -1);
  for (int64_t x = 0; x < n; ++x) {
    if (!alive[static_cast<size_t>(x)]) continue;
    Node& node = nodes[static_cast<size_t>(x)];
    Cluster cluster;
    cluster.members = std::move(node.members);
    cluster.centroid = std::move(node.centroid);
    cluster.representatives = std::move(node.reps);
    cluster.weight = static_cast<double>(cluster.members.size());
    int32_t label = static_cast<int32_t>(result.clusters.size());
    for (int64_t m : cluster.members) {
      result.labels[static_cast<size_t>(m)] = label;
    }
    result.clusters.push_back(std::move(cluster));
  }
  return result;
}

}  // namespace dbs::cluster
