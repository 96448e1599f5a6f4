// Shared plumbing of the end-to-end benchmark: run options, the metric
// report every workload fills in, and small measurement helpers.

#ifndef PERFBENCH_BENCH_H_
#define PERFBENCH_BENCH_H_

#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "data/point_set.h"
#include "synth/cluster_spec.h"
#include "trace.h"

namespace perfbench {

struct Options {
  std::string workload;
  uint64_t seed = 1;
  // Length of the measured phase; set-up and warm-up come on top.
  double seconds = 10.0;
  // false: untraced runs, end-to-end metrics. true: untraced and traced
  // runs alternate, per-layer metrics.
  bool trace = false;
  // Shrinks every input so a whole run takes a second or two.
  bool tiny = false;
  // Directory for generated datasets and the trace file.
  std::string workdir = ".";
};

struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
};

// What one run of a workload reports. Only the metrics of the current mode
// reach the JSON line; everything is printed as "name value unit" lines.
class Report {
 public:
  // A failed output, pass-count or trace check. The run is then incorrect.
  void Fail(const std::string& why);
  // One operation (pipeline run, baseline run or request) and its outcome.
  void Attempt(bool ok) {
    ++attempted_;
    if (!ok) ++failed_;
  }

  void EndToEnd(const std::string& name, double value, const std::string& unit) {
    end_to_end_.push_back({name, value, unit});
  }
  void Layer(const std::string& name, double value, const std::string& unit) {
    layers_.push_back({name, value, unit});
  }
  // Printed only: workload-specific figures outside the JSON metric set.
  void Info(const std::string& name, double value, const std::string& unit) {
    info_.push_back({name, value, unit});
  }

  // Size and configuration facts for the metadata stamp.
  void Fact(const std::string& key, double value) {
    facts_.emplace_back(key, value);
  }

  bool correct() const { return checks_failed_ == 0 && failed_ == 0; }
  int64_t attempted() const { return attempted_; }
  int64_t failed() const { return failed_; }
  const std::vector<Metric>& end_to_end() const { return end_to_end_; }
  const std::vector<Metric>& layers() const { return layers_; }
  const std::vector<Metric>& info() const { return info_; }
  const std::vector<std::pair<std::string, double>>& facts() const {
    return facts_;
  }

 private:
  int64_t checks_failed_ = 0;
  int64_t attempted_ = 0;
  int64_t failed_ = 0;
  std::vector<Metric> end_to_end_;
  std::vector<Metric> layers_;
  std::vector<Metric> info_;
  std::vector<std::pair<std::string, double>> facts_;
};

// Median of `values` (0 when empty).
double Median(std::vector<double> values);
// Smallest of `values` (0 when empty). Repeated timings are reported by
// their fastest repetition: on a shared host, interference from other
// tenants only ever adds time, for seconds at a stretch, so the fastest
// repetition is the steadiest estimate of what the code itself costs.
double Fastest(const std::vector<double>& values);

// Set-ups per untraced run; setup_s is the fastest of them.
inline constexpr int kSetUpRounds = 9;

// ROADMAP's gate: a traced run fails when its top-level spans leave more
// than this share of the wall time uncovered.
inline constexpr double kMaxUnaccounted = 0.05;

// Per-layer figures of the traced repetitions of one run. Each is reported
// as its median over the repetitions; the unaccounted-time gate runs on the
// median of trace.unaccounted_frac.
class LayerSamples {
 public:
  void Add(const std::vector<Metric>& layers);
  void ReportTo(Report* report) const;

 private:
  std::vector<Metric> first_;  // names and units, in first-seen order
  std::vector<std::vector<double>> values_;
};

// Hands memory freed by earlier work back to the kernel, then resets the
// kernel's peak-RSS high-water mark to the current RSS; returns false when
// /proc/self/clear_refs is not writable.
bool ResetPeakRss();
// Peak resident set size since the last reset, in MiB.
double PeakRssMb();

// Spans kept for the trace file; each workload hands over the spans of its
// last traced unit of work. Thread index distinguishes serve clients.
struct TraceDump {
  struct ThreadSpans {
    int thread = 0;
    std::vector<Span> spans;
  };
  std::vector<ThreadSpans> threads;
};

// True when the measured phase is over: at least three repetitions ran and
// `seconds` have passed since `start`.
inline bool PhaseDone(Clock::time_point start, double seconds, int reps) {
  return reps >= 3 && SecondsBetween(start, Clock::now()) >= seconds;
}

// Clustered points in [0,1]^dim on a fixed box layout (synthetic.cc):
// `cluster_points` points spread evenly over 10 boxes, plus 10% of that in
// uniform noise, drawn from `seed`; clusters first, noise last, unless
// `shuffle`.
struct Synthetic {
  dbs::data::PointSet points;
  std::vector<dbs::synth::Region> regions;
};
Synthetic MakeSynthetic(int dim, int64_t cluster_points, uint64_t seed,
                        bool shuffle);

// Workload entry points (pipelines.cc, serve_mix.cc).
void RunBscure2d(const Options& options, Report* report, TraceDump* dump);
void RunOutlier3d(const Options& options, Report* report, TraceDump* dump);
void RunServeMix(const Options& options, Report* report, TraceDump* dump);

}  // namespace perfbench

#endif  // PERFBENCH_BENCH_H_
