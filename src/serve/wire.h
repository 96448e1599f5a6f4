// Length-prefixed binary wire protocol for the serving daemon.
//
// Framing mirrors the on-disk formats (.dbsf/.dbsk): a fixed header — magic
// "DBSQ", version, message type, payload length — followed by the payload.
// Payloads are flat little-ceremony sequences of fixed-width integers,
// doubles and length-prefixed strings; point batches are (dim, count,
// count*dim float64). The daemon is loopback-only, so native (little-endian
// on every supported target) byte order is used on both ends.
//
// Decoding follows the same defensive rules as the file loaders
// (io_robustness_test pattern): validate magic/version/type, bound every
// length field BEFORE allocating from it, and cross-check the declared
// payload size against the bytes actually present. Corrupt input surfaces
// as an error Status — never a crash, never an unbounded allocation.

#ifndef DBS_SERVE_WIRE_H_
#define DBS_SERVE_WIRE_H_

#include <cstdint>
#include <string>
#include <vector>

#include "density/kde_partial.h"
#include "serve/request.h"
#include "util/status.h"

namespace dbs::serve {

inline constexpr uint32_t kWireMagic = 0x51534244;  // "DBSQ" little-endian
inline constexpr uint32_t kWireVersion = 1;

// Hard ceiling on a frame payload (guards allocations on garbage lengths):
// 1 GiB is ~16M points at 8 dims.
inline constexpr uint64_t kMaxPayloadBytes = 1ull << 30;
// Ceilings for the inner length fields.
inline constexpr uint64_t kMaxWireString = 4096;
inline constexpr uint32_t kMaxWireDim = 1024;
// Ceiling on the shard count of a serialized partial-build state.
inline constexpr uint32_t kMaxWireShards = 65536;

// Wire message identifiers. Requests reuse RequestType values; responses
// live in a disjoint range. Append only.
enum class MessageType : uint32_t {
  kRegisterRequest = 1,
  kEvictRequest = 2,
  kDensityRequest = 3,
  kSampleRequest = 4,
  kOutlierRequest = 5,
  kStatsRequest = 6,
  kShutdownRequest = 7,
  kPartialFitRequest = 8,
  // 9 is retired (it was kShmAttachRequest); never reuse it.
  kErrorResponse = 100,
  kOkResponse = 101,
  kDensityResponse = 102,
  kSampleResponse = 103,
  kOutlierResponse = 104,
  kStatsResponse = 105,
  kPartialFitResponse = 106,
};

struct Frame {
  MessageType type = MessageType::kErrorResponse;
  std::vector<uint8_t> payload;
};

// ---- Payload building -----------------------------------------------------

// Appends fixed-width primitives to a byte buffer.
class WireWriter {
 public:
  void PutU32(uint32_t v);
  void PutU64(uint64_t v);
  void PutI64(int64_t v) { PutU64(static_cast<uint64_t>(v)); }
  void PutDouble(double v);
  // Length-prefixed (u32) byte string.
  void PutString(const std::string& s);
  // Length-prefixed (u64 count) array of doubles.
  void PutDoubles(const std::vector<double>& values);
  // dim (u32) + count (u64) + row-major coordinates.
  void PutPoints(const data::PointSet& points);

  // Pre-size the buffer when the encoded length is known up front, so a
  // fixed Put sequence appends into one allocation instead of growing
  // through several.
  void Reserve(size_t bytes) { buf_.reserve(buf_.size() + bytes); }

  std::vector<uint8_t> Take() { return std::move(buf_); }

 private:
  std::vector<uint8_t> buf_;
};

// Sequential reader over a payload. Every Get* returns false once the
// payload is exhausted or a length field exceeds its ceiling; callers
// check once at the end via ok()/AtEnd().
class WireReader {
 public:
  WireReader(const uint8_t* data, size_t size) : data_(data), size_(size) {}
  explicit WireReader(const std::vector<uint8_t>& payload)
      : WireReader(payload.data(), payload.size()) {}

  bool GetU32(uint32_t* v);
  bool GetU64(uint64_t* v);
  bool GetI64(int64_t* v);
  bool GetDouble(double* v);
  bool GetString(std::string* s);
  bool GetDoubles(std::vector<double>* values);
  bool GetPoints(data::PointSet* points);

  bool ok() const { return ok_; }
  // True when every payload byte was consumed (trailing garbage rejected).
  bool AtEnd() const { return ok_ && cursor_ == size_; }

 private:
  bool Take(size_t n, const uint8_t** out);

  const uint8_t* data_;
  size_t size_;
  size_t cursor_ = 0;
  bool ok_ = true;
};

// ---- Message codecs -------------------------------------------------------

std::vector<uint8_t> EncodeRegisterRequest(const RegisterRequest& request);
[[nodiscard]] Result<RegisterRequest> DecodeRegisterRequest(
    const std::vector<uint8_t>& payload);

std::vector<uint8_t> EncodeEvictRequest(const EvictRequest& request);
[[nodiscard]] Result<EvictRequest> DecodeEvictRequest(const std::vector<uint8_t>& payload);

std::vector<uint8_t> EncodeDensityRequest(const DensityBatchRequest& request);
[[nodiscard]] Result<DensityBatchRequest> DecodeDensityRequest(
    const std::vector<uint8_t>& payload);

std::vector<uint8_t> EncodeDensityResponse(
    const DensityBatchResponse& response);
[[nodiscard]] Result<DensityBatchResponse> DecodeDensityResponse(
    const std::vector<uint8_t>& payload);

std::vector<uint8_t> EncodeSampleRequest(const SampleRequest& request);
[[nodiscard]] Result<SampleRequest> DecodeSampleRequest(
    const std::vector<uint8_t>& payload);

std::vector<uint8_t> EncodeSampleResponse(const SampleResponse& response);
[[nodiscard]] Result<SampleResponse> DecodeSampleResponse(
    const std::vector<uint8_t>& payload);

std::vector<uint8_t> EncodeOutlierRequest(
    const OutlierScoreBatchRequest& request);
[[nodiscard]] Result<OutlierScoreBatchRequest> DecodeOutlierRequest(
    const std::vector<uint8_t>& payload);

std::vector<uint8_t> EncodeOutlierResponse(
    const OutlierScoreBatchResponse& response);
[[nodiscard]] Result<OutlierScoreBatchResponse> DecodeOutlierResponse(
    const std::vector<uint8_t>& payload);

std::vector<uint8_t> EncodeStatsResponse(const StatsResponse& response);
[[nodiscard]] Result<StatsResponse> DecodeStatsResponse(
    const std::vector<uint8_t>& payload);

std::vector<uint8_t> EncodePartialFitRequest(
    const PartialFitRequest& request);
[[nodiscard]] Result<PartialFitRequest> DecodePartialFitRequest(
    const std::vector<uint8_t>& payload);

// Serialized mergeable KDE state (the kPartialFitResponse payload): per
// shard part, its identity, the reservoir of kernel centers, bounds and the
// per-dimension Welford moments as raw (count, mean, m2, min, max) — so a
// decoded state finalizes bitwise identically to the in-process one
// (OnlineMoments::FromParts). Decoding enforces the canonical form merges
// produce: strictly ascending shard indices, one consistent dimensionality.
std::vector<uint8_t> EncodePartialKde(const density::PartialKde& partial);
[[nodiscard]] Result<density::PartialKde> DecodePartialKde(
    const std::vector<uint8_t>& payload);

// Error responses carry (code, message); decoding returns the Status they
// describe.
std::vector<uint8_t> EncodeErrorResponse(const Status& status);
[[nodiscard]] Status DecodeErrorResponse(const std::vector<uint8_t>& payload);

// ---- Framing --------------------------------------------------------------

// Serializes a full frame (header + payload) into one buffer.
std::vector<uint8_t> EncodeFrame(MessageType type,
                                 const std::vector<uint8_t>& payload);

// Parses a frame from `data`. On success stores the frame and the total
// bytes consumed. Fails on bad magic/version/type, oversized payloads and
// short buffers (kIoError for "need more bytes", kInvalidArgument for
// structurally bad headers).
[[nodiscard]] Result<Frame> DecodeFrame(const uint8_t* data, size_t size,
                          size_t* consumed);

// Blocking frame I/O over a file descriptor (socket). WriteFrame writes the
// whole frame; ReadFrame reads exactly one frame. ReadFrame returns
// kIoError with message "connection closed" on clean EOF before any header
// byte.
[[nodiscard]] Status WriteFrame(int fd, MessageType type,
                  const std::vector<uint8_t>& payload);
[[nodiscard]] Result<Frame> ReadFrame(int fd);

}  // namespace dbs::serve

#endif  // DBS_SERVE_WIRE_H_
