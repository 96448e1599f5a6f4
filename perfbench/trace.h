// Span recorder and pass-through timing wrappers.
//
// The benchmark measures every layer from outside the library. Two wrappers
// implement the library's virtual interfaces and forward every call to the
// real object, only recording how long the call took and how much work it
// carried:
//
//   TimedScan       data::DataScan          (scan wait, rows, bytes, passes)
//   TimedEstimator  density::DensityEstimator (evaluation time and rows)
//
// A Reset() on the scan starts a new dataset pass, so TimedScan turns the
// pass boundaries inside one library call (BiasedSampler::Run,
// DetectOutliersApproximate) into child spans of that call. Spans live in
// memory, one Tracer per thread, and are written out when the run ends.

#ifndef PERFBENCH_TRACE_H_
#define PERFBENCH_TRACE_H_

#include <atomic>
#include <chrono>
#include <cstdint>
#include <cstring>
#include <utility>
#include <vector>

#include "data/dataset.h"
#include "density/density_estimator.h"

namespace perfbench {

using Clock = std::chrono::steady_clock;

inline double SecondsBetween(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double>(b - a).count();
}

// One timed interval. `name` points at a string literal. Spans of one serve
// request share `request`; pipeline spans leave it at -1.
struct Span {
  const char* name = "";
  int parent = -1;  // index into the same tracer's spans; -1 = top level
  int64_t request = -1;
  double start_s = 0.0;  // seconds since the tracer's origin
  double end_s = 0.0;

  double duration() const { return end_s - start_s; }
};

// In-memory span list for one thread. Not thread-safe.
class Tracer {
 public:
  explicit Tracer(Clock::time_point origin) : origin_(origin) {}

  int Begin(const char* name, int parent = -1, int64_t request = -1) {
    spans_.push_back(Span{name, parent, request, Now(), 0.0});
    return static_cast<int>(spans_.size()) - 1;
  }
  void End(int id) { spans_[static_cast<size_t>(id)].end_s = Now(); }

  // Total duration of the spans called `name`.
  double Total(const char* name) const {
    double total = 0.0;
    for (const Span& s : spans_) {
      if (std::strcmp(s.name, name) == 0) total += s.duration();
    }
    return total;
  }
  // Total duration of the top-level spans (they never overlap on a thread).
  double TopLevelTotal() const {
    double total = 0.0;
    for (const Span& s : spans_) {
      if (s.parent < 0) total += s.duration();
    }
    return total;
  }

  const std::vector<Span>& spans() const { return spans_; }
  void Clear() { spans_.clear(); }

 private:
  double Now() const { return SecondsBetween(origin_, Clock::now()); }

  Clock::time_point origin_;
  std::vector<Span> spans_;
};

// Runs fn() inside a span when a tracer is given, plainly otherwise.
template <typename Fn>
auto InSpan(Tracer* tracer, const char* name, int parent, Fn&& fn,
            int64_t request = -1) {
  if (tracer == nullptr) return fn();
  const int id = tracer->Begin(name, parent, request);
  auto result = fn();
  tracer->End(id);
  return result;
}

// DataScan wrapper: times NextBatch/Reset, counts rows, bytes and passes,
// and opens one span per pass when told which passes to expect.
class TimedScan final : public dbs::data::DataScan {
 public:
  TimedScan(dbs::data::DataScan* base, Tracer* tracer)
      : base_(base), tracer_(tracer) {}

  int dim() const override { return base_->dim(); }
  int64_t size() const override { return base_->size(); }

  void Reset() override {
    const Clock::time_point start = Clock::now();
    ClosePassSpan();
    if (next_pass_ < pass_names_.size()) {
      pass_span_ = tracer_->Begin(pass_names_[next_pass_++], pass_parent_);
    }
    base_->Reset();
    BumpPass();
    pass_wait_s_.push_back(0.0);
    AddWait(start);
  }

  bool NextBatch(dbs::data::ScanBatch* batch) override {
    const Clock::time_point start = Clock::now();
    const bool more = base_->NextBatch(batch);
    AddWait(start);
    if (more) {
      rows_ += batch->count;
      bytes_ += batch->count * base_->dim() *
                static_cast<int64_t>(sizeof(double));
    }
    return more;
  }

  // The next Reset() calls open spans with these names, children of
  // `parent`; each span ends at the following Reset() or at EndPasses().
  void ExpectPasses(std::vector<const char*> names, int parent) {
    pass_names_ = std::move(names);
    pass_parent_ = parent;
    next_pass_ = 0;
  }
  void EndPasses() {
    ClosePassSpan();
    pass_names_.clear();
    next_pass_ = 0;
  }

  double wait_s() const { return wait_s_; }
  // Scan wait of pass `k`, counting passes from 0 in Reset() order.
  double pass_wait_s(size_t k) const {
    return k < pass_wait_s_.size() ? pass_wait_s_[k] : 0.0;
  }
  int64_t rows() const { return rows_; }
  int64_t bytes() const { return bytes_; }

 private:
  void AddWait(Clock::time_point start) {
    const double wait = SecondsBetween(start, Clock::now());
    wait_s_ += wait;
    if (!pass_wait_s_.empty()) pass_wait_s_.back() += wait;
  }
  void ClosePassSpan() {
    if (pass_span_ >= 0) tracer_->End(pass_span_);
    pass_span_ = -1;
  }

  dbs::data::DataScan* base_;
  Tracer* tracer_;
  std::vector<const char*> pass_names_;
  int pass_parent_ = -1;
  size_t next_pass_ = 0;
  int pass_span_ = -1;
  double wait_s_ = 0.0;
  std::vector<double> pass_wait_s_;
  int64_t rows_ = 0;
  int64_t bytes_ = 0;
};

// DensityEstimator wrapper: forwards every call and accumulates the time
// spent inside the estimator and the rows it evaluated. Safe to call from
// several threads at once (the serving path does), so counters are atomic;
// the busy time is summed over threads.
class TimedEstimator final : public dbs::density::DensityEstimator {
 public:
  explicit TimedEstimator(const dbs::density::DensityEstimator* base)
      : base_(base) {}

  int dim() const override { return base_->dim(); }
  int64_t total_mass() const override { return base_->total_mass(); }
  double AverageDensity() const override { return base_->AverageDensity(); }

  double Evaluate(dbs::data::PointView p) const override {
    const Clock::time_point start = Clock::now();
    const double value = base_->Evaluate(p);
    Record(start, 1);
    return value;
  }
  double EvaluateExcluding(dbs::data::PointView x,
                           dbs::data::PointView self) const override {
    const Clock::time_point start = Clock::now();
    const double value = base_->EvaluateExcluding(x, self);
    Record(start, 1);
    return value;
  }
  dbs::Status EvaluateBatch(const double* rows, int64_t count, double* out,
                            dbs::parallel::BatchExecutor* executor =
                                nullptr) const override {
    const Clock::time_point start = Clock::now();
    dbs::Status status = base_->EvaluateBatch(rows, count, out, executor);
    Record(start, count);
    return status;
  }
  dbs::Status EvaluateExcludingBatch(
      const double* rows, int64_t count, double* out,
      dbs::parallel::BatchExecutor* executor = nullptr) const override {
    const Clock::time_point start = Clock::now();
    dbs::Status status =
        base_->EvaluateExcludingBatch(rows, count, out, executor);
    Record(start, count);
    return status;
  }
  dbs::Status EvaluateExcludingSelvesBatch(
      const double* rows, const double* selves, int64_t count, double* out,
      dbs::parallel::BatchExecutor* executor = nullptr) const override {
    const Clock::time_point start = Clock::now();
    dbs::Status status = base_->EvaluateExcludingSelvesBatch(
        rows, selves, count, out, executor);
    Record(start, count);
    return status;
  }

  double busy_s() const {
    return static_cast<double>(busy_ns_.load(std::memory_order_relaxed)) *
           1e-9;
  }
  int64_t rows() const { return rows_.load(std::memory_order_relaxed); }

 private:
  void Record(Clock::time_point start, int64_t rows) const {
    const auto ns = std::chrono::duration_cast<std::chrono::nanoseconds>(
                        Clock::now() - start)
                        .count();
    busy_ns_.fetch_add(static_cast<int64_t>(ns), std::memory_order_relaxed);
    rows_.fetch_add(rows, std::memory_order_relaxed);
  }

  const dbs::density::DensityEstimator* base_;
  mutable std::atomic<int64_t> busy_ns_{0};
  mutable std::atomic<int64_t> rows_{0};
};

}  // namespace perfbench

#endif  // PERFBENCH_TRACE_H_
