// serve-mix: closed-loop clients against an in-process loopback Server.
//
// Set-up fits a model, writes a query .dbsf, starts the full served stack
// (registry, 2-worker executor, ModelService, Server on loopback TCP) and
// connects two clients. Each client streams the query file through its own
// FileScan, the way dbs_query reads its input, and turns it into a fixed
// request sequence: density batches of 256 points, outlier-score batches of
// 256 points, and every eighth request a sample over 2048 points. A client
// keeps up to four requests in flight with Submit/ReadResponseFrame and
// waits for every reply. One burst is one pass over the query file by both
// clients.
//
// Every response frame must be byte-identical to the reference computed at
// set-up through DispatchFrame, the in-process dispatch path the server
// runs. The baseline replays the same request frames through DispatchFrame
// on two threads, without client codec or transport.

#include <algorithm>
#include <cstdio>
#include <deque>
#include <memory>
#include <optional>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "bench.h"
#include "data/dataset_io.h"
#include "density/kde.h"
#include "parallel/batch_executor.h"
#include "serve/client.h"
#include "serve/dispatch.h"
#include "serve/model_registry.h"
#include "serve/server.h"
#include "serve/service.h"
#include "serve/wire.h"
#include "trace.h"
#include "util/stats.h"

namespace perfbench {
namespace {

using dbs::serve::Frame;
using dbs::serve::MessageType;

constexpr int kClients = 2;
constexpr size_t kWindow = 4;
constexpr int64_t kBatchPoints = 256;
constexpr int64_t kSamplePoints = 2048;
// Requests per mix cycle: density, outlier, density, outlier, density,
// outlier, density, sample.
constexpr int64_t kCycle = 8;
constexpr int64_t kCycleRows = 7 * kBatchPoints + kSamplePoints;
constexpr size_t kFrameHeaderBytes = 20;
constexpr const char* kModel = "est";
constexpr const char* kTracedModel = "est-traced";

enum class Kind { kDensity, kOutlier, kSample };

Kind KindAt(int64_t index) {
  const int64_t slot = index % kCycle;
  if (slot == kCycle - 1) return Kind::kSample;
  return slot % 2 == 0 ? Kind::kDensity : Kind::kOutlier;
}

int64_t PointsFor(Kind kind) {
  return kind == Kind::kSample ? kSamplePoints : kBatchPoints;
}

// Pulls the next `want` rows of the scan into `out`; false at end of pass.
bool NextPoints(dbs::data::DataScan& scan, int64_t want,
                dbs::data::PointSet* out) {
  *out = dbs::data::PointSet(scan.dim());
  out->Reserve(want);
  dbs::data::ScanBatch batch;
  while (out->size() < want) {
    if (!scan.NextBatch(&batch)) return false;
    for (int64_t i = 0; i < batch.count; ++i) {
      out->Append(batch.rows + i * scan.dim());
    }
  }
  return true;
}

Frame EncodeRequest(Kind kind, const std::string& model,
                    dbs::data::PointSet points, uint64_t seed) {
  Frame frame;
  switch (kind) {
    case Kind::kDensity: {
      dbs::serve::DensityBatchRequest request;
      request.model = model;
      request.points = std::move(points);
      frame.type = MessageType::kDensityRequest;
      frame.payload = dbs::serve::EncodeDensityRequest(request);
      break;
    }
    case Kind::kOutlier: {
      dbs::serve::OutlierScoreBatchRequest request;
      request.model = model;
      request.radius = 0.02;
      request.max_neighbors = 5;
      request.points = std::move(points);
      frame.type = MessageType::kOutlierRequest;
      frame.payload = dbs::serve::EncodeOutlierRequest(request);
      break;
    }
    case Kind::kSample: {
      dbs::serve::SampleRequest request;
      request.model = model;
      request.a = 1.0;
      request.target_size = 256;
      request.seed = seed;
      request.points = std::move(points);
      frame.type = MessageType::kSampleRequest;
      frame.payload = dbs::serve::EncodeSampleRequest(request);
      break;
    }
  }
  return frame;
}

// Decodes a response the way a client library caller would see it.
bool DecodeResponse(Kind kind, const Frame& frame) {
  switch (kind) {
    case Kind::kDensity:
      return frame.type == MessageType::kDensityResponse &&
             dbs::serve::DecodeDensityResponse(frame.payload).ok();
    case Kind::kOutlier:
      return frame.type == MessageType::kOutlierResponse &&
             dbs::serve::DecodeOutlierResponse(frame.payload).ok();
    case Kind::kSample:
      return frame.type == MessageType::kSampleResponse &&
             dbs::serve::DecodeSampleResponse(frame.payload).ok();
  }
  return false;
}

struct ClientSide {
  std::optional<dbs::serve::Client> client;
  std::unique_ptr<dbs::data::FileScan> scan;
};

// The served stack. Members are destroyed in reverse order: clients
// disconnect, the server stops, then the executor drains.
struct Stack {
  std::shared_ptr<const dbs::density::Kde> model;
  std::shared_ptr<TimedEstimator> traced_model;
  dbs::serve::ModelRegistry registry;
  std::unique_ptr<dbs::parallel::BatchExecutor> executor;
  std::unique_ptr<dbs::serve::ModelService> service;
  std::unique_ptr<dbs::serve::Server> server;
  std::vector<ClientSide> clients;
  // One pass over the query file: request frames (model kModel) and the
  // reference response of each.
  std::vector<Frame> requests;
  std::vector<Frame> references;
  std::string query_path;
  double fit_s = 0.0;
  double setup_s = 0.0;
};

struct Sizes {
  int64_t query_rows = 0;
  int64_t train_rows = 0;
  int64_t kernels = 0;
};

std::unique_ptr<Stack> SetUpStack(const Options& options, const Sizes& sizes,
                                  Report* report) {
  const Clock::time_point start = Clock::now();
  auto stack = std::make_unique<Stack>();
  stack->query_path = options.workdir + "/" + options.workload + "-" +
                      std::to_string(options.seed) + ".dbsf";

  // Training and query points are two disjoint slices of one shuffled
  // dataset, so queries follow the model's distribution.
  dbs::data::PointSet train(2);
  dbs::data::PointSet queries(2);
  {
    const Synthetic generated =
        MakeSynthetic(2, sizes.query_rows + sizes.train_rows, options.seed,
                      /*shuffle=*/true);
    train.Reserve(sizes.train_rows);
    queries.Reserve(sizes.query_rows);
    for (int64_t i = 0; i < sizes.train_rows + sizes.query_rows; ++i) {
      (i < sizes.train_rows ? train : queries).Append(generated.points[i]);
    }
  }
  dbs::Status written = dbs::data::WriteDatasetFile(stack->query_path,
                                                    queries);
  if (!written.ok()) {
    report->Fail("query file write: " + written.ToString());
    return nullptr;
  }

  const Clock::time_point fit_start = Clock::now();
  dbs::density::KdeOptions kde_options;
  kde_options.num_kernels = sizes.kernels;
  kde_options.bandwidth_scale = 0.3;
  kde_options.seed = options.seed;
  auto kde = dbs::density::Kde::Fit(train, kde_options);
  stack->fit_s = SecondsBetween(fit_start, Clock::now());
  if (!kde.ok()) {
    report->Fail("Kde::Fit: " + kde.status().ToString());
    return nullptr;
  }
  stack->model =
      std::make_shared<const dbs::density::Kde>(std::move(kde).value());
  stack->traced_model = std::make_shared<TimedEstimator>(stack->model.get());
  if (!stack->registry.Put(kModel, stack->model, "kde").ok() ||
      !stack->registry.Put(kTracedModel, stack->traced_model, "kde").ok()) {
    report->Fail("model registration failed");
    return nullptr;
  }
  dbs::parallel::BatchExecutorOptions pool;
  pool.num_workers = 2;
  stack->executor = std::make_unique<dbs::parallel::BatchExecutor>(pool);
  stack->service = std::make_unique<dbs::serve::ModelService>(
      &stack->registry, stack->executor.get());

  // Reference responses: one in-process pass over the query file.
  auto scan = dbs::data::FileScan::Open(stack->query_path, kBatchPoints);
  if (!scan.ok()) {
    report->Fail("query file open: " + scan.status().ToString());
    return nullptr;
  }
  (*scan)->Reset();
  dbs::data::PointSet points;
  for (int64_t i = 0; NextPoints(**scan, PointsFor(KindAt(i)), &points);
       ++i) {
    Frame request =
        EncodeRequest(KindAt(i), kModel, std::move(points), options.seed);
    dbs::serve::DispatchResult result =
        dbs::serve::DispatchFrame(stack->service.get(), request);
    if (!DecodeResponse(KindAt(i), result.response)) {
      report->Fail("reference request " + std::to_string(i) +
                   " was not answered with a valid response");
      return nullptr;
    }
    stack->requests.push_back(std::move(request));
    stack->references.push_back(std::move(result.response));
  }

  auto server = dbs::serve::Server::Start(stack->service.get(),
                                          dbs::serve::ServerOptions{});
  if (!server.ok()) {
    report->Fail("server start: " + server.status().ToString());
    return nullptr;
  }
  stack->server = std::move(*server);
  for (int c = 0; c < kClients; ++c) {
    ClientSide side;
    auto client = dbs::serve::Client::Connect(stack->server->port());
    auto client_scan =
        dbs::data::FileScan::Open(stack->query_path, kBatchPoints);
    if (!client.ok() || !client_scan.ok()) {
      report->Fail("client connect or query open failed");
      return nullptr;
    }
    side.client.emplace(std::move(*client));
    side.scan = std::move(*client_scan);
    stack->clients.push_back(std::move(side));
  }
  stack->setup_s = SecondsBetween(start, Clock::now());
  return stack;
}

// What one client saw during one burst.
struct ClientResult {
  std::vector<double> latencies_us;
  int64_t attempted = 0;
  int64_t failed = 0;
  int64_t mismatched = 0;
  double wall_s = 0.0;
  // Traced bursts only.
  double scan_wait_s = 0.0;
  int64_t rows = 0;
  int64_t bytes = 0;
  int passes = 0;
  int64_t request_bytes = 0;
  int64_t response_bytes = 0;
  std::vector<Span> spans;
};

// One closed-loop pass over the query file by one client.
void ClientBurst(const Stack& stack, ClientSide* side, bool traced,
                 uint64_t seed, Clock::time_point origin,
                 ClientResult* out) {
  Tracer tracer(origin);
  std::optional<TimedScan> timed;
  dbs::data::DataScan* scan = side->scan.get();
  if (traced) {
    timed.emplace(side->scan.get(), &tracer);
    scan = &*timed;
  }
  const std::string model = traced ? kTracedModel : kModel;
  // Every call of the loop runs in a top-level span tagged with its request.
  auto span = [&](const char* name, int64_t index, auto&& fn) {
    return InSpan(traced ? &tracer : nullptr, name, -1, fn, index);
  };

  struct InFlight {
    Clock::time_point start;
    int64_t index;
  };
  std::deque<InFlight> in_flight;
  const int64_t total = static_cast<int64_t>(stack.references.size());
  int64_t next = 0;
  bool exhausted = false;
  dbs::data::PointSet points;
  const Clock::time_point start = Clock::now();
  span("data.reset", -1, [&] {
    scan->Reset();
    return 0;
  });
  while (true) {
    while (!exhausted && in_flight.size() < kWindow) {
      const Kind kind = KindAt(next);
      if (!span("bench.build", next, [&] {
            return NextPoints(*scan, PointsFor(kind), &points);
          })) {
        exhausted = true;
        break;
      }
      const Clock::time_point sent = Clock::now();
      Frame request = span("serve.encode", next, [&] {
        return EncodeRequest(kind, model, std::move(points), seed);
      });
      out->request_bytes +=
          static_cast<int64_t>(request.payload.size() + kFrameHeaderBytes);
      dbs::Status submitted = span("serve.submit", next, [&] {
        return side->client->Submit(request.type, request.payload);
      });
      ++out->attempted;
      if (!submitted.ok()) {
        out->failed += 1 + static_cast<int64_t>(in_flight.size());
        return;
      }
      in_flight.push_back({sent, next});
      ++next;
    }
    if (in_flight.empty()) break;
    const InFlight head = in_flight.front();
    in_flight.pop_front();
    auto response =
        span("serve.read", head.index, [&] {
          return side->client->ReadResponseFrame();
        });
    if (!response.ok()) {
      out->failed += 1 + static_cast<int64_t>(in_flight.size());
      return;
    }
    const bool decoded = span("serve.decode", head.index, [&] {
      return DecodeResponse(KindAt(head.index), *response);
    });
    out->latencies_us.push_back(
        SecondsBetween(head.start, Clock::now()) * 1e6);
    out->response_bytes += static_cast<int64_t>(response->payload.size() +
                                                kFrameHeaderBytes);
    const bool same = span("bench.check", head.index, [&] {
      const Frame& ref = stack.references[static_cast<size_t>(head.index)];
      return ref.type == response->type && ref.payload == response->payload;
    });
    if (!decoded) ++out->failed;
    if (!same) ++out->mismatched;
  }
  out->wall_s = SecondsBetween(start, Clock::now());
  if (next != total) out->mismatched += std::max<int64_t>(1, total - next);
  if (traced) {
    out->scan_wait_s = timed->wait_s();
    out->rows = timed->rows();
    out->bytes = timed->bytes();
    out->passes = timed->passes();
    out->spans = tracer.spans();
  }
}

struct Burst {
  double wall_s = 0.0;
  std::vector<ClientResult> clients;
};

Burst RunBurst(Stack* stack, bool traced, uint64_t seed) {
  Burst burst;
  burst.clients.resize(kClients);
  const Clock::time_point start = Clock::now();
  std::vector<std::thread> threads;
  for (int c = 0; c < kClients; ++c) {
    threads.emplace_back([stack, traced, seed, start, &burst, c] {
      ClientBurst(*stack, &stack->clients[static_cast<size_t>(c)], traced,
                  seed, start, &burst.clients[static_cast<size_t>(c)]);
    });
  }
  for (std::thread& t : threads) t.join();
  burst.wall_s = SecondsBetween(start, Clock::now());
  return burst;
}

// Baseline: both threads dispatch the whole request sequence in process.
double RunBaseline(Stack* stack, Report* report) {
  const Clock::time_point start = Clock::now();
  std::vector<int64_t> mismatched(kClients, 0);
  std::vector<std::thread> threads;
  for (int c = 0; c < kClients; ++c) {
    threads.emplace_back([stack, &mismatched, c] {
      for (size_t i = 0; i < stack->requests.size(); ++i) {
        dbs::serve::DispatchResult result = dbs::serve::DispatchFrame(
            stack->service.get(), stack->requests[i]);
        if (result.response.type != stack->references[i].type ||
            result.response.payload != stack->references[i].payload) {
          ++mismatched[static_cast<size_t>(c)];
        }
      }
    });
  }
  for (std::thread& t : threads) t.join();
  const double wall = SecondsBetween(start, Clock::now());
  for (size_t i = 0; i < kClients * stack->requests.size(); ++i) {
    report->Attempt(true);
  }
  for (int64_t m : mismatched) {
    if (m > 0) {
      report->Fail("in-process baseline responses differ from the "
                   "reference");
    }
  }
  return wall;
}

// Service-side latency sums and counts per request type.
struct ServiceTotals {
  double sum_us[3] = {0, 0, 0};
  double count[3] = {0, 0, 0};
};

ServiceTotals Snapshot(const dbs::serve::ModelService& service) {
  ServiceTotals totals;
  for (const dbs::serve::RequestStats& s : service.Stats().per_type) {
    int slot = -1;
    if (s.type == dbs::serve::RequestType::kDensityBatch) slot = 0;
    if (s.type == dbs::serve::RequestType::kOutlierScoreBatch) slot = 1;
    if (s.type == dbs::serve::RequestType::kSample) slot = 2;
    if (slot < 0) continue;
    totals.sum_us[slot] = s.latency_sum_us;
    totals.count[slot] = static_cast<double>(s.count);
  }
  return totals;
}

}  // namespace

void RunServeMix(const Options& options, Report* report, TraceDump* dump) {
  Sizes sizes;
  const int64_t cycles = options.tiny ? 5 : 50;
  sizes.query_rows = cycles * kCycleRows;
  sizes.train_rows = options.tiny ? 20000 : 200000;
  sizes.kernels = options.tiny ? 200 : 1000;

  std::unique_ptr<Stack> stack;
  std::vector<double> setups;
  for (int i = 0; i < (options.trace ? 1 : kSetUpRounds); ++i) {
    stack.reset();  // tear the previous stack down first
    stack = SetUpStack(options, sizes, report);
    if (stack == nullptr) return;
    setups.push_back(stack->setup_s);
  }
  report->Fact("query_rows", static_cast<double>(sizes.query_rows));
  report->Fact("train_rows", static_cast<double>(sizes.train_rows));
  report->Fact("kernels", static_cast<double>(sizes.kernels));
  report->Fact("requests_per_client_burst",
               static_cast<double>(stack->requests.size()));

  // Tallies one burst's requests and response checks into the report.
  int64_t matched = 0;
  int64_t answered = 0;
  auto tally = [&](const Burst& burst) {
    for (const ClientResult& c : burst.clients) {
      for (int64_t i = 0; i < c.attempted; ++i) {
        report->Attempt(i >= c.failed);
      }
      answered += static_cast<int64_t>(c.latencies_us.size());
      matched += static_cast<int64_t>(c.latencies_us.size()) - c.mismatched;
      if (c.mismatched > 0) {
        report->Fail("response frames differ from the DispatchFrame "
                     "reference");
      }
    }
  };

  // Warm-up.
  tally(RunBurst(stack.get(), false, options.seed));
  if (!options.trace) RunBaseline(stack.get(), report);

  // The peak-RSS high-water mark is reset before each untraced burst and
  // read right after it, before the baseline runs.
  bool rss_reset = true;
  double peak_rss = 0.0;
  matched = 0;
  answered = 0;
  std::vector<double> bursts;
  std::vector<double> baselines;
  std::vector<double> traced_bursts;
  std::vector<double> latencies_us;
  LayerSamples layer_samples;
  const Clock::time_point start = Clock::now();
  for (int reps = 0; !PhaseDone(start, options.seconds, reps); ++reps) {
    rss_reset = ResetPeakRss() && rss_reset;
    Burst burst = RunBurst(stack.get(), false, options.seed);
    peak_rss = std::max(peak_rss, PeakRssMb());
    tally(burst);
    bursts.push_back(burst.wall_s);
    for (const ClientResult& c : burst.clients) {
      latencies_us.insert(latencies_us.end(), c.latencies_us.begin(),
                          c.latencies_us.end());
    }
    if (!options.trace) {
      baselines.push_back(RunBaseline(stack.get(), report));
      continue;
    }

    const ServiceTotals before = Snapshot(*stack->service);
    const double eval_before = stack->traced_model->busy_s();
    const int64_t rows_before = stack->traced_model->rows();
    Burst traced = RunBurst(stack.get(), true, options.seed);
    tally(traced);
    traced_bursts.push_back(traced.wall_s);
    const ServiceTotals after = Snapshot(*stack->service);

    // Per-layer figures of this traced burst.
    double scan_wait = 0, rows = 0, bytes = 0, passes = 0;
    double encode_s = 0, decode_s = 0, latency_sum_us = 0;
    double request_bytes = 0, response_bytes = 0, requests = 0;
    double unaccounted = 0;
    dump->threads.clear();
    for (size_t c = 0; c < traced.clients.size(); ++c) {
      const ClientResult& r = traced.clients[c];
      scan_wait += r.scan_wait_s;
      rows += static_cast<double>(r.rows);
      bytes += static_cast<double>(r.bytes);
      passes += r.passes;
      double top = 0;
      for (const Span& s : r.spans) {
        if (s.parent < 0) top += s.duration();
        if (std::string(s.name) == "serve.encode") encode_s += s.duration();
        if (std::string(s.name) == "serve.decode") decode_s += s.duration();
      }
      unaccounted += (r.wall_s - top) / r.wall_s / kClients;
      for (double us : r.latencies_us) latency_sum_us += us;
      requests += static_cast<double>(r.latencies_us.size());
      request_bytes += static_cast<double>(r.request_bytes);
      response_bytes += static_cast<double>(r.response_bytes);
      dump->threads.push_back({static_cast<int>(c), r.spans});
    }
    const double eval_s = stack->traced_model->busy_s() - eval_before;
    const double eval_rows =
        static_cast<double>(stack->traced_model->rows() - rows_before);
    double service_us[3];
    double service_sum = 0, service_count = 0;
    for (int t = 0; t < 3; ++t) {
      const double n = after.count[t] - before.count[t];
      const double sum = after.sum_us[t] - before.sum_us[t];
      service_us[t] = n > 0 ? sum / n : 0.0;
      service_sum += sum;
      service_count += n;
    }
    const double per_request = requests > 0 ? 1.0 / requests : 0.0;
    const double codec_us = (encode_s + decode_s) * 1e6 * per_request;
    const double service_mean_us =
        service_count > 0 ? service_sum / service_count : 0.0;
    std::vector<Metric> layers = {
        {"data.scan_wait_s", scan_wait, "s"},
        {"data.rows_scanned", rows, "count"},
        {"data.bytes_scanned", bytes, "B"},
        {"data.passes", passes, "count"},
        {"density.fit_s", stack->fit_s, "s"},
        {"density.eval_s", eval_s, "s"},
        {"density.eval_rows", eval_rows, "count"},
        {"density.eval_rows_per_s", eval_s > 0 ? eval_rows / eval_s : 0.0,
         "rows/s"},
        {"serve.encode_us", encode_s * 1e6 * per_request, "us"},
        {"serve.decode_us", decode_s * 1e6 * per_request, "us"},
        {"serve.service_density_us", service_us[0], "us"},
        {"serve.service_outlier_us", service_us[1], "us"},
        {"serve.service_sample_us", service_us[2], "us"},
        {"serve.transport_us",
         latency_sum_us * per_request - service_mean_us - codec_us, "us"},
        {"serve.request_bytes", request_bytes * per_request, "B"},
        {"serve.response_bytes", response_bytes * per_request, "B"},
        {"trace.unaccounted_frac", unaccounted, "frac"},
    };
    layer_samples.Add(layers);
  }
  report->Fact("peak_rss_reset", rss_reset ? 1 : 0);
  report->Fact("measured_reps", static_cast<double>(bursts.size()));

  double burst_total = 0;
  for (double b : bursts) burst_total += b;
  const double measured = static_cast<double>(latencies_us.size());
  report->Info("requests", measured, "count");
  // No latencies at all means every burst failed; the tally above has
  // already made the run incorrect.
  if (!latencies_us.empty()) {
    report->Info("req_per_s", measured / burst_total, "1/s");
    report->Info("latency_p50_ms", dbs::Percentile(latencies_us, 0.5) / 1e3,
                 "ms");
    report->Info("latency_p99_ms",
                 dbs::Percentile(latencies_us, 0.99) / 1e3, "ms");
  }
  report->Info("run_median_s", Median(bursts), "s");
  if (!options.trace) {
    report->EndToEnd("setup_s", Fastest(setups), "s");
    report->EndToEnd("run_s", Fastest(bursts), "s");
    report->EndToEnd("baseline_s", Fastest(baselines), "s");
    report->Info("baseline_median_s", Median(baselines), "s");
    report->EndToEnd("quality",
                     answered > 0 ? static_cast<double>(matched) /
                                        static_cast<double>(answered)
                                  : 0.0,
                     "frac");
    report->EndToEnd("peak_rss_mb", peak_rss, "MB");
  } else {
    layer_samples.ReportTo(report);
    report->Layer("trace.overhead_frac",
                  Fastest(traced_bursts) / Fastest(bursts) - 1.0, "frac");
  }
  const std::string path = stack->query_path;
  stack.reset();
  std::remove(path.c_str());
}

}  // namespace perfbench
