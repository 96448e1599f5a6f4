// perfbench — end-to-end benchmark of the dbs pipelines and serving stack.
//
//   perfbench --workload bscure-2d|outlier-3d|serve-mix --seed N
//             --seconds S --trace 0|1 [--size full|tiny] [--workdir DIR]
//             [--git-sha SHA]
//
// Prints one "name value unit" line per metric, a "meta" line with host and
// build facts, and as its last line one JSON object:
//   {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}
// With --trace 0 the metrics are the end-to-end set, with --trace 1 the
// per-layer set (each traced run is paired with an untraced one). Exits 1
// when any output, pass-count or trace check fails, 2 on bad arguments.
// A traced run also writes its spans to DIR/trace-<workload>-<seed>.json.

#include <malloc.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "bench.h"

namespace perfbench {

void Report::Fail(const std::string& why) {
  ++checks_failed_;
  std::fprintf(stderr, "CHECK FAILED: %s\n", why.c_str());
}

double Median(std::vector<double> values) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const size_t mid = values.size() / 2;
  return values.size() % 2 == 1 ? values[mid]
                                : 0.5 * (values[mid - 1] + values[mid]);
}

void LayerSamples::Add(const std::vector<Metric>& layers) {
  for (const Metric& m : layers) {
    size_t i = 0;
    while (i < first_.size() && first_[i].name != m.name) ++i;
    if (i == first_.size()) {
      first_.push_back(m);
      values_.emplace_back();
    }
    values_[i].push_back(m.value);
  }
}

void LayerSamples::ReportTo(Report* report) const {
  for (size_t i = 0; i < first_.size(); ++i) {
    const double value = Median(values_[i]);
    report->Layer(first_[i].name, value, first_[i].unit);
    if (first_[i].name == "trace.unaccounted_frac" &&
        value > kMaxUnaccounted) {
      report->Fail("trace.unaccounted_frac " + std::to_string(value) +
                   " exceeds " + std::to_string(kMaxUnaccounted));
    }
  }
}

double Fastest(const std::vector<double>& values) {
  return values.empty() ? 0.0
                        : *std::min_element(values.begin(), values.end());
}

bool ResetPeakRss() {
  // Without the trim, heap pages that a baseline run freed but malloc kept
  // would count toward the next pipeline run's peak.
  malloc_trim(0);
  std::ofstream clear_refs("/proc/self/clear_refs");
  clear_refs << "5";
  clear_refs.flush();
  return clear_refs.good();
}

double PeakRssMb() {
  std::ifstream status("/proc/self/status");
  std::string line;
  while (std::getline(status, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      return std::strtod(line.c_str() + 6, nullptr) / 1024.0;
    }
  }
  return 0.0;
}

namespace {

// The metric sets BENCHMARK.json declares; every run must report all of
// the set its mode emits.
const std::vector<std::string> kEndToEnd = {
    "setup_s", "run_s", "baseline_s", "quality", "peak_rss_mb"};
const std::vector<std::string> kPerLayer = {
    "data.scan_wait_s", "data.rows_scanned",   "data.bytes_scanned",
    "data.passes",      "density.fit_s",       "density.eval_s",
    "density.eval_rows", "density.eval_rows_per_s",
    "trace.overhead_frac", "trace.unaccounted_frac"};

std::string JsonString(const std::string& s) {
  std::string out = "\"";
  for (char c : s) {
    if (c == '"' || c == '\\') out += '\\';
    out += c;
  }
  return out + "\"";
}

std::string JsonNumber(double v) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.17g", std::isfinite(v) ? v : 0.0);
  return buf;
}

std::string MetaJson(const Options& options, const std::string& git_sha,
                     const Report& report) {
  std::ostringstream out;
  out << "{\"workload\": " << JsonString(options.workload)
      << ", \"seed\": " << options.seed
      << ", \"seconds\": " << JsonNumber(options.seconds)
      << ", \"trace\": " << (options.trace ? 1 : 0)
      << ", \"size\": " << JsonString(options.tiny ? "tiny" : "full")
      << ", \"nproc\": " << std::thread::hardware_concurrency()
      << ", \"compiler\": " << JsonString(PERFBENCH_COMPILER)
      << ", \"build_type\": " << JsonString(PERFBENCH_BUILD_TYPE)
      << ", \"march_native\": false"
      << ", \"git_sha\": " << JsonString(git_sha);
  for (const auto& [key, value] : report.facts()) {
    out << ", " << JsonString(key) << ": " << JsonNumber(value);
  }
  out << "}";
  return out.str();
}

void WriteTrace(const std::string& path, const std::string& meta,
                const Report& report, const TraceDump& dump) {
  std::ofstream out(path);
  out << "{\"meta\": " << meta << ",\n \"layers\": {";
  const char* sep = "";
  for (const Metric& m : report.layers()) {
    out << sep << JsonString(m.name) << ": {\"value\": "
        << JsonNumber(m.value) << ", \"unit\": " << JsonString(m.unit)
        << "}";
    sep = ", ";
  }
  out << "},\n \"spans\": [";
  sep = "\n  ";
  for (const TraceDump::ThreadSpans& t : dump.threads) {
    for (const Span& s : t.spans) {
      out << sep << "{\"name\": " << JsonString(s.name)
          << ", \"thread\": " << t.thread << ", \"parent\": " << s.parent
          << ", \"request\": " << s.request
          << ", \"start_s\": " << JsonNumber(s.start_s)
          << ", \"end_s\": " << JsonNumber(s.end_s) << "}";
      sep = ",\n  ";
    }
  }
  out << "\n ]}\n";
}

int Usage(const char* why) {
  std::fprintf(stderr,
               "perfbench: %s\nusage: perfbench --workload "
               "bscure-2d|outlier-3d|serve-mix --seed N --seconds S "
               "--trace 0|1 [--size full|tiny] [--workdir DIR] "
               "[--git-sha SHA]\n",
               why);
  return 2;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  using namespace perfbench;
  Options options;
  std::string git_sha = "unavailable";
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (i + 1 >= argc) return Usage(("missing value for " + flag).c_str());
    const std::string value = argv[++i];
    if (flag == "--workload") {
      options.workload = value;
    } else if (flag == "--seed") {
      options.seed = std::strtoull(value.c_str(), nullptr, 10);
    } else if (flag == "--seconds") {
      options.seconds = std::strtod(value.c_str(), nullptr);
    } else if (flag == "--trace") {
      if (value != "0" && value != "1") return Usage("--trace takes 0 or 1");
      options.trace = value == "1";
    } else if (flag == "--size") {
      if (value != "full" && value != "tiny") {
        return Usage("--size takes full or tiny");
      }
      options.tiny = value == "tiny";
    } else if (flag == "--workdir") {
      options.workdir = value;
    } else if (flag == "--git-sha") {
      git_sha = value;
    } else {
      return Usage(("unknown flag " + flag).c_str());
    }
  }
  if (!(options.seconds > 0)) return Usage("--seconds must be positive");

  Report report;
  TraceDump dump;
  if (options.workload == "bscure-2d") {
    RunBscure2d(options, &report, &dump);
  } else if (options.workload == "outlier-3d") {
    RunOutlier3d(options, &report, &dump);
  } else if (options.workload == "serve-mix") {
    RunServeMix(options, &report, &dump);
  } else {
    return Usage(("unknown workload '" + options.workload + "'").c_str());
  }

  // Every declared metric of this mode must be present and finite.
  const std::vector<Metric>& emitted =
      options.trace ? report.layers() : report.end_to_end();
  std::vector<Metric> json_metrics;
  for (const std::string& name : options.trace ? kPerLayer : kEndToEnd) {
    const Metric* found = nullptr;
    for (const Metric& m : emitted) {
      if (m.name == name) found = &m;
    }
    if (found == nullptr || !std::isfinite(found->value)) {
      report.Fail("metric " + name + " missing or not finite");
      continue;
    }
    json_metrics.push_back(*found);
  }

  const std::string meta = MetaJson(options, git_sha, report);
  for (const std::vector<Metric>* group :
       {&report.end_to_end(), &report.layers(), &report.info()}) {
    for (const Metric& m : *group) {
      std::printf("%-28s %.6g %s\n", m.name.c_str(), m.value, m.unit.c_str());
    }
  }
  std::printf("meta %s\n", meta.c_str());
  if (options.trace) {
    const std::string path = options.workdir + "/trace-" + options.workload +
                             "-" + std::to_string(options.seed) + ".json";
    WriteTrace(path, meta, report, dump);
    std::printf("trace written to %s\n", path.c_str());
  }

  std::ostringstream json;
  json << "{\"correct\": " << (report.correct() ? "true" : "false")
       << ", \"attempted\": " << report.attempted()
       << ", \"failed\": " << report.failed() << ", \"metrics\": {";
  const char* sep = "";
  for (const Metric& m : json_metrics) {
    json << sep << JsonString(m.name) << ": {\"value\": "
         << JsonNumber(m.value) << ", \"unit\": " << JsonString(m.unit)
         << "}";
    sep = ", ";
  }
  json << "}}";
  std::printf("%s\n", json.str().c_str());
  return report.correct() ? 0 : 1;
}
