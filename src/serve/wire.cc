#include "serve/wire.h"

#include <sys/socket.h>
#include <unistd.h>

#include <cerrno>
#include <cstring>
#include <utility>

namespace dbs::serve {
namespace {

// Frame header: magic, version, type (u32 each) + payload length (u64).
constexpr size_t kFrameHeaderBytes = 20;

bool IsKnownMessageType(uint32_t type) {
  return (type >= static_cast<uint32_t>(MessageType::kRegisterRequest) &&
          type <= static_cast<uint32_t>(MessageType::kPartialFitRequest)) ||
         (type >= static_cast<uint32_t>(MessageType::kErrorResponse) &&
          type <= static_cast<uint32_t>(MessageType::kPartialFitResponse));
}

[[nodiscard]] Status Corrupt(const char* what) {
  return Status::InvalidArgument(std::string("corrupt wire payload: ") +
                                 what);
}

}  // namespace

// ---- WireWriter -----------------------------------------------------------

void WireWriter::PutU32(uint32_t v) {
  const uint8_t* raw = reinterpret_cast<const uint8_t*>(&v);
  buf_.insert(buf_.end(), raw, raw + sizeof(v));
}

void WireWriter::PutU64(uint64_t v) {
  const uint8_t* raw = reinterpret_cast<const uint8_t*>(&v);
  buf_.insert(buf_.end(), raw, raw + sizeof(v));
}

void WireWriter::PutDouble(double v) {
  const uint8_t* raw = reinterpret_cast<const uint8_t*>(&v);
  buf_.insert(buf_.end(), raw, raw + sizeof(v));
}

void WireWriter::PutString(const std::string& s) {
  PutU32(static_cast<uint32_t>(s.size()));
  const uint8_t* raw = reinterpret_cast<const uint8_t*>(s.data());
  buf_.insert(buf_.end(), raw, raw + s.size());
}

void WireWriter::PutDoubles(const std::vector<double>& values) {
  PutU64(values.size());
  const uint8_t* raw = reinterpret_cast<const uint8_t*>(values.data());
  buf_.insert(buf_.end(), raw, raw + values.size() * sizeof(double));
}

void WireWriter::PutPoints(const data::PointSet& points) {
  PutU32(static_cast<uint32_t>(points.dim()));
  PutU64(static_cast<uint64_t>(points.size()));
  const std::vector<double>& flat = points.flat();
  const uint8_t* raw = reinterpret_cast<const uint8_t*>(flat.data());
  buf_.insert(buf_.end(), raw, raw + flat.size() * sizeof(double));
}

// ---- WireReader -----------------------------------------------------------

bool WireReader::Take(size_t n, const uint8_t** out) {
  if (!ok_ || size_ - cursor_ < n) {
    ok_ = false;
    return false;
  }
  *out = data_ + cursor_;
  cursor_ += n;
  return true;
}

bool WireReader::GetU32(uint32_t* v) {
  const uint8_t* raw;
  if (!Take(sizeof(*v), &raw)) return false;
  std::memcpy(v, raw, sizeof(*v));
  return true;
}

bool WireReader::GetU64(uint64_t* v) {
  const uint8_t* raw;
  if (!Take(sizeof(*v), &raw)) return false;
  std::memcpy(v, raw, sizeof(*v));
  return true;
}

bool WireReader::GetI64(int64_t* v) {
  uint64_t raw;
  if (!GetU64(&raw)) return false;
  *v = static_cast<int64_t>(raw);
  return true;
}

bool WireReader::GetDouble(double* v) {
  const uint8_t* raw;
  if (!Take(sizeof(*v), &raw)) return false;
  std::memcpy(v, raw, sizeof(*v));
  return true;
}

bool WireReader::GetString(std::string* s) {
  uint32_t size;
  if (!GetU32(&size)) return false;
  if (size > kMaxWireString) {
    ok_ = false;
    return false;
  }
  const uint8_t* raw;
  if (!Take(size, &raw)) return false;
  s->assign(reinterpret_cast<const char*>(raw), size);
  return true;
}

bool WireReader::GetDoubles(std::vector<double>* values) {
  uint64_t count;
  if (!GetU64(&count)) return false;
  // Bound the allocation by the bytes actually present.
  if (count > (size_ - cursor_) / sizeof(double)) {
    ok_ = false;
    return false;
  }
  const uint8_t* raw;
  if (!Take(static_cast<size_t>(count) * sizeof(double), &raw)) return false;
  values->resize(static_cast<size_t>(count));
  std::memcpy(values->data(), raw, static_cast<size_t>(count) *
                                       sizeof(double));
  return true;
}

bool WireReader::GetPoints(data::PointSet* points) {
  uint32_t dim;
  uint64_t count;
  if (!GetU32(&dim) || !GetU64(&count)) return false;
  if (dim == 0 || dim > kMaxWireDim) {
    ok_ = false;
    return false;
  }
  // Bound count before multiplying so the coordinate total cannot wrap.
  if (count > kMaxPayloadBytes / (dim * sizeof(double))) {
    ok_ = false;
    return false;
  }
  const uint64_t coords = count * static_cast<uint64_t>(dim);
  if (coords > (size_ - cursor_) / sizeof(double)) {
    ok_ = false;
    return false;
  }
  const uint8_t* raw;
  if (!Take(static_cast<size_t>(coords) * sizeof(double), &raw)) {
    return false;
  }
  data::PointSet decoded(static_cast<int>(dim));
  decoded.Reserve(static_cast<int64_t>(count));
  std::vector<double> row(dim);
  for (uint64_t i = 0; i < count; ++i) {
    std::memcpy(row.data(), raw + i * dim * sizeof(double),
                dim * sizeof(double));
    decoded.Append(row.data());
  }
  *points = std::move(decoded);
  return true;
}

// ---- Message codecs -------------------------------------------------------

std::vector<uint8_t> EncodeRegisterRequest(const RegisterRequest& request) {
  WireWriter w;
  w.PutString(request.name);
  w.PutString(request.path);
  return w.Take();
}

[[nodiscard]] Result<RegisterRequest> DecodeRegisterRequest(
    const std::vector<uint8_t>& payload) {
  WireReader r(payload);
  RegisterRequest request;
  r.GetString(&request.name);
  r.GetString(&request.path);
  if (!r.AtEnd()) return Corrupt("register request");
  if (request.name.empty()) return Corrupt("empty model name");
  return request;
}

std::vector<uint8_t> EncodeEvictRequest(const EvictRequest& request) {
  WireWriter w;
  w.PutString(request.name);
  return w.Take();
}

[[nodiscard]] Result<EvictRequest> DecodeEvictRequest(
    const std::vector<uint8_t>& payload) {
  WireReader r(payload);
  EvictRequest request;
  r.GetString(&request.name);
  if (!r.AtEnd()) return Corrupt("evict request");
  if (request.name.empty()) return Corrupt("empty model name");
  return request;
}

std::vector<uint8_t> EncodeDensityRequest(const DensityBatchRequest& request) {
  WireWriter w;
  w.PutString(request.model);
  w.PutPoints(request.points);
  return w.Take();
}

[[nodiscard]] Result<DensityBatchRequest> DecodeDensityRequest(
    const std::vector<uint8_t>& payload) {
  WireReader r(payload);
  DensityBatchRequest request;
  r.GetString(&request.model);
  r.GetPoints(&request.points);
  if (!r.AtEnd()) return Corrupt("density request");
  if (request.model.empty()) return Corrupt("empty model name");
  return request;
}

std::vector<uint8_t> EncodeDensityResponse(
    const DensityBatchResponse& response) {
  WireWriter w;
  w.PutDoubles(response.densities);
  return w.Take();
}

[[nodiscard]] Result<DensityBatchResponse> DecodeDensityResponse(
    const std::vector<uint8_t>& payload) {
  WireReader r(payload);
  DensityBatchResponse response;
  r.GetDoubles(&response.densities);
  if (!r.AtEnd()) return Corrupt("density response");
  return response;
}

std::vector<uint8_t> EncodeSampleRequest(const SampleRequest& request) {
  WireWriter w;
  w.PutString(request.model);
  w.PutDouble(request.a);
  w.PutI64(request.target_size);
  w.PutDouble(request.density_floor_fraction);
  w.PutU64(request.seed);
  w.PutPoints(request.points);
  return w.Take();
}

[[nodiscard]] Result<SampleRequest> DecodeSampleRequest(
    const std::vector<uint8_t>& payload) {
  WireReader r(payload);
  SampleRequest request;
  r.GetString(&request.model);
  r.GetDouble(&request.a);
  r.GetI64(&request.target_size);
  r.GetDouble(&request.density_floor_fraction);
  r.GetU64(&request.seed);
  r.GetPoints(&request.points);
  if (!r.AtEnd()) return Corrupt("sample request");
  if (request.model.empty()) return Corrupt("empty model name");
  if (request.target_size <= 0) return Corrupt("non-positive target size");
  return request;
}

std::vector<uint8_t> EncodeSampleResponse(const SampleResponse& response) {
  WireWriter w;
  w.PutPoints(response.points);
  w.PutDoubles(response.inclusion_probs);
  w.PutDoubles(response.densities);
  w.PutDouble(response.normalizer);
  w.PutI64(response.clamped_count);
  return w.Take();
}

[[nodiscard]] Result<SampleResponse> DecodeSampleResponse(
    const std::vector<uint8_t>& payload) {
  WireReader r(payload);
  SampleResponse response;
  r.GetPoints(&response.points);
  r.GetDoubles(&response.inclusion_probs);
  r.GetDoubles(&response.densities);
  r.GetDouble(&response.normalizer);
  r.GetI64(&response.clamped_count);
  if (!r.AtEnd()) return Corrupt("sample response");
  const size_t n = static_cast<size_t>(response.points.size());
  if (response.inclusion_probs.size() != n ||
      response.densities.size() != n) {
    return Corrupt("sample response arrays disagree on length");
  }
  return response;
}

std::vector<uint8_t> EncodeOutlierRequest(
    const OutlierScoreBatchRequest& request) {
  WireWriter w;
  w.PutString(request.model);
  w.PutDouble(request.radius);
  w.PutU32(static_cast<uint32_t>(request.metric));
  w.PutI64(request.max_neighbors);
  w.PutU32(static_cast<uint32_t>(request.integration));
  w.PutU32(static_cast<uint32_t>(request.qmc_samples));
  w.PutPoints(request.points);
  return w.Take();
}

[[nodiscard]] Result<OutlierScoreBatchRequest> DecodeOutlierRequest(
    const std::vector<uint8_t>& payload) {
  WireReader r(payload);
  OutlierScoreBatchRequest request;
  uint32_t metric = 0;
  uint32_t integration = 0;
  uint32_t qmc_samples = 0;
  r.GetString(&request.model);
  r.GetDouble(&request.radius);
  r.GetU32(&metric);
  r.GetI64(&request.max_neighbors);
  r.GetU32(&integration);
  r.GetU32(&qmc_samples);
  r.GetPoints(&request.points);
  if (!r.AtEnd()) return Corrupt("outlier request");
  if (request.model.empty()) return Corrupt("empty model name");
  if (metric > static_cast<uint32_t>(data::Metric::kLinf)) {
    return Corrupt("unknown metric");
  }
  if (integration >
      static_cast<uint32_t>(outlier::BallIntegration::kQuasiMonteCarlo)) {
    return Corrupt("unknown integration method");
  }
  if (qmc_samples == 0 || qmc_samples > 1u << 20) {
    return Corrupt("qmc_samples out of range");
  }
  request.metric = static_cast<data::Metric>(metric);
  request.integration = static_cast<outlier::BallIntegration>(integration);
  request.qmc_samples = static_cast<int>(qmc_samples);
  return request;
}

std::vector<uint8_t> EncodeOutlierResponse(
    const OutlierScoreBatchResponse& response) {
  WireWriter w;
  w.PutDoubles(response.expected_neighbors);
  w.PutU64(response.likely_outlier.size());
  WireWriter flags;
  for (uint8_t flag : response.likely_outlier) {
    flags.PutU32(flag);  // u32 per flag keeps the format trivially flat
  }
  std::vector<uint8_t> flag_bytes = flags.Take();
  std::vector<uint8_t> buf = w.Take();
  buf.insert(buf.end(), flag_bytes.begin(), flag_bytes.end());
  return buf;
}

[[nodiscard]] Result<OutlierScoreBatchResponse> DecodeOutlierResponse(
    const std::vector<uint8_t>& payload) {
  WireReader r(payload);
  OutlierScoreBatchResponse response;
  r.GetDoubles(&response.expected_neighbors);
  uint64_t num_flags = 0;
  if (r.GetU64(&num_flags)) {
    if (num_flags == response.expected_neighbors.size()) {
      response.likely_outlier.reserve(static_cast<size_t>(num_flags));
      for (uint64_t i = 0; i < num_flags; ++i) {
        uint32_t flag = 0;
        if (!r.GetU32(&flag) || flag > 1) break;
        response.likely_outlier.push_back(static_cast<uint8_t>(flag));
      }
    }
  }
  if (!r.AtEnd() ||
      response.likely_outlier.size() != response.expected_neighbors.size()) {
    return Corrupt("outlier response");
  }
  return response;
}

std::vector<uint8_t> EncodeStatsResponse(const StatsResponse& response) {
  WireWriter w;
  w.PutU64(response.per_type.size());
  for (const RequestStats& row : response.per_type) {
    w.PutU32(static_cast<uint32_t>(row.type));
    w.PutU64(row.count);
    w.PutU64(row.errors);
    w.PutU64(row.points);
    w.PutDouble(row.latency_sum_us);
    w.PutDouble(row.latency_min_us);
    w.PutDouble(row.latency_max_us);
    w.PutDouble(row.latency_p50_us);
    w.PutDouble(row.latency_p99_us);
  }
  w.PutU64(response.models.size());
  for (const std::string& name : response.models) w.PutString(name);
  return w.Take();
}

[[nodiscard]] Result<StatsResponse> DecodeStatsResponse(
    const std::vector<uint8_t>& payload) {
  WireReader r(payload);
  StatsResponse response;
  uint64_t rows = 0;
  if (!r.GetU64(&rows) || rows > 1024) return Corrupt("stats response");
  for (uint64_t i = 0; i < rows; ++i) {
    RequestStats row;
    uint32_t type = 0;
    bool ok = r.GetU32(&type) && r.GetU64(&row.count) &&
              r.GetU64(&row.errors) && r.GetU64(&row.points) &&
              r.GetDouble(&row.latency_sum_us) &&
              r.GetDouble(&row.latency_min_us) &&
              r.GetDouble(&row.latency_max_us) &&
              r.GetDouble(&row.latency_p50_us) &&
              r.GetDouble(&row.latency_p99_us);
    if (!ok) return Corrupt("stats response row");
    row.type = static_cast<RequestType>(type);
    response.per_type.push_back(row);
  }
  uint64_t models = 0;
  if (!r.GetU64(&models) || models > 1u << 20) {
    return Corrupt("stats response models");
  }
  for (uint64_t i = 0; i < models; ++i) {
    std::string name;
    if (!r.GetString(&name)) return Corrupt("stats response model name");
    response.models.push_back(std::move(name));
  }
  if (!r.AtEnd()) return Corrupt("stats response");
  return response;
}

std::vector<uint8_t> EncodePartialFitRequest(
    const PartialFitRequest& request) {
  WireWriter w;
  w.PutString(request.path);
  w.PutI64(request.shard);
  w.PutI64(request.num_shards);
  w.PutI64(request.num_kernels);
  w.PutU32(static_cast<uint32_t>(request.kernel));
  w.PutU32(static_cast<uint32_t>(request.bandwidth_rule));
  w.PutDouble(request.fixed_bandwidth);
  w.PutDouble(request.bandwidth_scale);
  w.PutU64(request.seed);
  return w.Take();
}

[[nodiscard]] Result<PartialFitRequest> DecodePartialFitRequest(
    const std::vector<uint8_t>& payload) {
  WireReader r(payload);
  PartialFitRequest request;
  uint32_t kernel = 0;
  uint32_t rule = 0;
  r.GetString(&request.path);
  r.GetI64(&request.shard);
  r.GetI64(&request.num_shards);
  r.GetI64(&request.num_kernels);
  r.GetU32(&kernel);
  r.GetU32(&rule);
  r.GetDouble(&request.fixed_bandwidth);
  r.GetDouble(&request.bandwidth_scale);
  r.GetU64(&request.seed);
  if (!r.AtEnd()) return Corrupt("partial-fit request");
  if (request.path.empty()) return Corrupt("empty dataset path");
  if (request.num_shards <= 0 ||
      request.num_shards > static_cast<int64_t>(kMaxWireShards)) {
    return Corrupt("shard count out of range");
  }
  if (request.shard < 0 || request.shard >= request.num_shards) {
    return Corrupt("shard index out of range");
  }
  if (request.num_kernels <= 0) return Corrupt("non-positive kernel count");
  if (kernel > static_cast<uint32_t>(density::KernelType::kGaussian)) {
    return Corrupt("unknown kernel type");
  }
  if (rule > static_cast<uint32_t>(density::BandwidthRule::kFixed)) {
    return Corrupt("unknown bandwidth rule");
  }
  request.kernel = static_cast<density::KernelType>(kernel);
  request.bandwidth_rule = static_cast<density::BandwidthRule>(rule);
  return request;
}

std::vector<uint8_t> EncodePartialKde(const density::PartialKde& partial) {
  WireWriter w;
  w.PutU32(static_cast<uint32_t>(partial.parts.size()));
  for (const density::KdeShardPart& part : partial.parts) {
    w.PutI64(part.shard);
    w.PutI64(part.num_shards);
    w.PutI64(part.total_rows);
    w.PutI64(part.rows);
    w.PutPoints(part.centers);
    // Bounds: presence flag, then lo/hi per dimension. An absent box decodes
    // back to the ±inf-sentinel empty box, so the flag (not sentinel bytes)
    // carries emptiness.
    w.PutU32(part.bounds.empty() ? 0u : 1u);
    if (!part.bounds.empty()) {
      for (int j = 0; j < part.centers.dim(); ++j) {
        w.PutDouble(part.bounds.lo(j));
      }
      for (int j = 0; j < part.centers.dim(); ++j) {
        w.PutDouble(part.bounds.hi(j));
      }
    }
    // One Welford accumulator per dimension, as raw state — FromParts
    // rebuilds them bitwise on the other end.
    for (const OnlineMoments& m : part.moments) {
      w.PutI64(m.count());
      w.PutDouble(m.mean());
      w.PutDouble(m.m2());
      w.PutDouble(m.min());
      w.PutDouble(m.max());
    }
  }
  return w.Take();
}

[[nodiscard]] Result<density::PartialKde> DecodePartialKde(
    const std::vector<uint8_t>& payload) {
  WireReader r(payload);
  density::PartialKde partial;
  uint32_t num_parts = 0;
  if (!r.GetU32(&num_parts) || num_parts == 0 ||
      num_parts > kMaxWireShards) {
    return Corrupt("partial KDE state");
  }
  int dim = 0;
  for (uint32_t i = 0; i < num_parts; ++i) {
    density::KdeShardPart part;
    r.GetI64(&part.shard);
    r.GetI64(&part.num_shards);
    r.GetI64(&part.total_rows);
    r.GetI64(&part.rows);
    if (!r.GetPoints(&part.centers)) return Corrupt("partial KDE centers");
    if (i == 0) {
      dim = part.centers.dim();
    } else if (part.centers.dim() != dim) {
      return Corrupt("partial KDE parts disagree on dimensionality");
    }
    uint32_t has_bounds = 0;
    if (!r.GetU32(&has_bounds) || has_bounds > 1) {
      return Corrupt("partial KDE bounds");
    }
    if (has_bounds == 1) {
      std::vector<double> lo(static_cast<size_t>(dim));
      std::vector<double> hi(static_cast<size_t>(dim));
      bool box_ok = true;
      for (double& v : lo) box_ok = box_ok && r.GetDouble(&v);
      for (double& v : hi) box_ok = box_ok && r.GetDouble(&v);
      if (!box_ok) return Corrupt("partial KDE bounds");
      part.bounds = data::BoundingBox(std::move(lo), std::move(hi));
    } else {
      part.bounds = data::BoundingBox(dim);
    }
    part.moments.reserve(static_cast<size_t>(dim));
    for (int j = 0; j < dim; ++j) {
      int64_t count = 0;
      double mean = 0.0;
      double m2 = 0.0;
      double mn = 0.0;
      double mx = 0.0;
      bool moments_ok = r.GetI64(&count) && r.GetDouble(&mean) &&
                        r.GetDouble(&m2) && r.GetDouble(&mn) &&
                        r.GetDouble(&mx);
      if (!moments_ok || count < 0) return Corrupt("partial KDE moments");
      part.moments.push_back(
          OnlineMoments::FromParts(count, mean, m2, mn, mx));
    }
    if (part.num_shards <= 0 ||
        part.num_shards > static_cast<int64_t>(kMaxWireShards) ||
        part.shard < 0 || part.shard >= part.num_shards || part.rows < 0 ||
        part.total_rows < 0 || part.rows > part.total_rows) {
      return Corrupt("partial KDE shard identity");
    }
    if (!partial.parts.empty() &&
        part.shard <= partial.parts.back().shard) {
      return Corrupt("partial KDE shards out of order");
    }
    partial.parts.push_back(std::move(part));
  }
  if (!r.AtEnd()) return Corrupt("partial KDE state");
  return partial;
}

std::vector<uint8_t> EncodeErrorResponse(const Status& status) {
  WireWriter w;
  w.PutU32(static_cast<uint32_t>(status.code()));
  w.PutString(status.message().substr(0, kMaxWireString));
  return w.Take();
}

[[nodiscard]] Status DecodeErrorResponse(const std::vector<uint8_t>& payload) {
  WireReader r(payload);
  uint32_t code = 0;
  std::string message;
  r.GetU32(&code);
  r.GetString(&message);
  if (!r.AtEnd() ||
      code > static_cast<uint32_t>(StatusCode::kUnavailable) ||
      code == static_cast<uint32_t>(StatusCode::kOk)) {
    return Status::Internal("malformed error response from server");
  }
  return Status(static_cast<StatusCode>(code), std::move(message));
}

// ---- Framing --------------------------------------------------------------

std::vector<uint8_t> EncodeFrame(MessageType type,
                                 const std::vector<uint8_t>& payload) {
  WireWriter w;
  // One allocation for the whole frame: the header Puts below would
  // otherwise grow the buffer through several reallocations (and gcc's
  // -Wstringop-overflow reasons about the stale intermediate capacities).
  w.Reserve(kFrameHeaderBytes + payload.size());
  w.PutU32(kWireMagic);
  w.PutU32(kWireVersion);
  w.PutU32(static_cast<uint32_t>(type));
  w.PutU64(payload.size());
  std::vector<uint8_t> frame = w.Take();
  frame.insert(frame.end(), payload.begin(), payload.end());
  return frame;
}

[[nodiscard]] Result<Frame> DecodeFrame(const uint8_t* data, size_t size,
                          size_t* consumed) {
  if (size < kFrameHeaderBytes) {
    return Status::IoError("short frame header");
  }
  WireReader r(data, kFrameHeaderBytes);
  uint32_t magic = 0;
  uint32_t version = 0;
  uint32_t type = 0;
  uint64_t payload_bytes = 0;
  r.GetU32(&magic);
  r.GetU32(&version);
  r.GetU32(&type);
  r.GetU64(&payload_bytes);
  DBS_CHECK(r.AtEnd());
  if (magic != kWireMagic) {
    return Status::InvalidArgument("bad frame magic");
  }
  if (version != kWireVersion) {
    return Status::InvalidArgument("unsupported wire version");
  }
  if (!IsKnownMessageType(type)) {
    return Status::InvalidArgument("unknown message type");
  }
  if (payload_bytes > kMaxPayloadBytes) {
    return Status::InvalidArgument("frame payload exceeds limit");
  }
  if (size - kFrameHeaderBytes < payload_bytes) {
    return Status::IoError("short frame payload");
  }
  Frame frame;
  frame.type = static_cast<MessageType>(type);
  frame.payload.assign(data + kFrameHeaderBytes,
                       data + kFrameHeaderBytes + payload_bytes);
  if (consumed != nullptr) {
    *consumed = kFrameHeaderBytes + static_cast<size_t>(payload_bytes);
  }
  return frame;
}

namespace {

[[nodiscard]] Status WriteAll(int fd, const uint8_t* data, size_t size) {
  size_t written = 0;
  while (written < size) {
    // MSG_NOSIGNAL: a peer that hung up must surface as EPIPE, not kill
    // the process with SIGPIPE.
    ssize_t n = ::send(fd, data + written, size - written, MSG_NOSIGNAL);
    if (n < 0) {
      if (errno == EINTR) continue;
      return Status::IoError(std::string("socket write failed: ") +
                             std::strerror(errno));
    }
    written += static_cast<size_t>(n);
  }
  return Status::Ok();
}

// Reads exactly `size` bytes; "connection closed" on EOF before the first
// byte, "truncated frame" on EOF mid-read.
[[nodiscard]] Status ReadAll(int fd, uint8_t* data, size_t size) {
  size_t read_bytes = 0;
  while (read_bytes < size) {
    ssize_t n = ::read(fd, data + read_bytes, size - read_bytes);
    if (n < 0) {
      if (errno == EINTR) continue;
      return Status::IoError(std::string("socket read failed: ") +
                             std::strerror(errno));
    }
    if (n == 0) {
      return Status::IoError(read_bytes == 0 ? "connection closed"
                                             : "truncated frame");
    }
    read_bytes += static_cast<size_t>(n);
  }
  return Status::Ok();
}

}  // namespace

[[nodiscard]] Status WriteFrame(int fd, MessageType type,
                  const std::vector<uint8_t>& payload) {
  std::vector<uint8_t> frame = EncodeFrame(type, payload);
  return WriteAll(fd, frame.data(), frame.size());
}

[[nodiscard]] Result<Frame> ReadFrame(int fd) {
  uint8_t header[kFrameHeaderBytes];
  DBS_RETURN_IF_ERROR(ReadAll(fd, header, kFrameHeaderBytes));
  WireReader r(header, kFrameHeaderBytes);
  uint32_t magic = 0;
  uint32_t version = 0;
  uint32_t type = 0;
  uint64_t payload_bytes = 0;
  r.GetU32(&magic);
  r.GetU32(&version);
  r.GetU32(&type);
  r.GetU64(&payload_bytes);
  if (magic != kWireMagic) {
    return Status::InvalidArgument("bad frame magic");
  }
  if (version != kWireVersion) {
    return Status::InvalidArgument("unsupported wire version");
  }
  if (!IsKnownMessageType(type)) {
    return Status::InvalidArgument("unknown message type");
  }
  if (payload_bytes > kMaxPayloadBytes) {
    return Status::InvalidArgument("frame payload exceeds limit");
  }
  Frame frame;
  frame.type = static_cast<MessageType>(type);
  frame.payload.resize(static_cast<size_t>(payload_bytes));
  if (payload_bytes > 0) {
    DBS_RETURN_IF_ERROR(
        ReadAll(fd, frame.payload.data(), frame.payload.size()));
  }
  return frame;
}

}  // namespace dbs::serve
