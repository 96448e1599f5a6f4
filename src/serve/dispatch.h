// Execution of one decoded DBSQ request frame, independent of the socket.
//
// The per-connection loop in serve/server.cc decodes a frame, hands it
// here, and writes the returned response frame back. In-process callers
// (bench/serve_throughput's reference frame, perfbench's serve baseline)
// call the same function, so a served answer is byte-identical to the one
// computed without a socket (pinned by tests/serve_e2e_test.cc).

#ifndef DBS_SERVE_DISPATCH_H_
#define DBS_SERVE_DISPATCH_H_

#include "serve/service.h"
#include "serve/wire.h"

namespace dbs::serve {

struct DispatchResult {
  Frame response;
  // The frame was a shutdown request; the daemon should stop accepting.
  bool shutdown = false;
  // The connection/session must end after the response is sent: a peer
  // whose payload failed to decode cannot be assumed frame-aligned anymore,
  // and a shutdown request ends its own stream by definition. Service-level
  // errors (unknown model, dimension mismatch, backpressure) do NOT set
  // this — they are normal protocol traffic.
  bool close = false;
};

// Executes one request frame against the service and encodes the response
// frame. Never fails: malformed payloads and service errors both come back
// as kErrorResponse frames, with `close` distinguishing framing violations
// from ordinary errors.
DispatchResult DispatchFrame(ModelService* service, const Frame& frame);

}  // namespace dbs::serve

#endif  // DBS_SERVE_DISPATCH_H_
