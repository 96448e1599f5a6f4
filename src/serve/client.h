// Blocking client for the serve wire protocol.
//
// One Client wraps one daemon session and issues synchronous
// request/response exchanges; concurrency comes from opening one client
// per thread (each session is an independent request stream). Used by
// the dbs_query tool, the examples and the end-to-end tests.
//
// The socket is TCP with TCP_NODELAY set, matching the daemon's side.
// For throughput-sensitive callers, Submit/ReadResponseFrame expose the
// raw frame stream so several requests can be in flight on the one session
// (see DensityPipelined); responses always arrive in submission order.

#ifndef DBS_SERVE_CLIENT_H_
#define DBS_SERVE_CLIENT_H_

#include <cstdint>
#include <string>
#include <vector>

#include "serve/request.h"
#include "serve/wire.h"
#include "util/status.h"

namespace dbs::serve {

class Client {
 public:
  // Connects to the daemon (loopback by default).
  [[nodiscard]] static Result<Client> Connect(uint16_t port,
                                const std::string& host = "127.0.0.1");

  Client(Client&& other) noexcept;
  Client& operator=(Client&& other) noexcept;
  Client(const Client&) = delete;
  Client& operator=(const Client&) = delete;
  ~Client();

  // Registers the .dbsk model at `path` (a server-side path) under `name`.
  [[nodiscard]] Status RegisterModel(const std::string& name, const std::string& path);

  [[nodiscard]] Status EvictModel(const std::string& name);

  [[nodiscard]] Result<DensityBatchResponse> Density(const DensityBatchRequest& request);

  // Density over several batches with up to `window` requests in flight on
  // this one session — amortizes the per-exchange transport latency without
  // extra connections. Responses are returned in request order and are
  // identical to issuing the batches one Density call at a time.
  [[nodiscard]] Result<std::vector<DensityBatchResponse>> DensityPipelined(
      const std::vector<DensityBatchRequest>& requests, int window);

  [[nodiscard]] Result<SampleResponse> Sample(const SampleRequest& request);

  [[nodiscard]] Result<OutlierScoreBatchResponse> OutlierScores(
      const OutlierScoreBatchRequest& request);

  // Fits one shard of a distributed KDE build on the server (the dataset
  // path is server-side) and returns the mergeable partial state. See
  // tools/dbs_merge for the collector that reduces the shards.
  [[nodiscard]] Result<density::PartialKde> PartialFit(const PartialFitRequest& request);

  [[nodiscard]] Result<StatsResponse> Stats();

  // Asks the daemon to shut down; the connection closes afterwards.
  [[nodiscard]] Status RequestShutdown();

  // ---- Raw frame stream (pipelining building blocks) ----------------------

  // Sends one request frame without waiting for its response. Each Submit
  // owes exactly one ReadResponseFrame; responses arrive in Submit order.
  [[nodiscard]] Status Submit(MessageType type, const std::vector<uint8_t>& payload);

  // Reads the next response frame verbatim — kErrorResponse frames are
  // returned, not translated, so pipelined callers see per-request errors
  // in sequence.
  [[nodiscard]] Result<Frame> ReadResponseFrame();

 private:
  explicit Client(int fd) : fd_(fd) {}

  // Writes one request frame and reads the single response frame,
  // translating kErrorResponse frames into their Status.
  [[nodiscard]] Result<Frame> RoundTrip(MessageType type,
                          const std::vector<uint8_t>& payload,
                          MessageType expected_response);

  int fd_ = -1;
};

}  // namespace dbs::serve

#endif  // DBS_SERVE_CLIENT_H_
