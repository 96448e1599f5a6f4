#include "serve/client.h"

#include <arpa/inet.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <sys/socket.h>
#include <unistd.h>

#include <cerrno>
#include <cstring>
#include <utility>

namespace dbs::serve {

Result<Client> Client::Connect(uint16_t port, const std::string& host) {
  int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  if (fd < 0) {
    return Status::IoError(std::string("socket: ") + std::strerror(errno));
  }
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(port);
  if (::inet_pton(AF_INET, host.c_str(), &addr.sin_addr) != 1) {
    ::close(fd);
    return Status::InvalidArgument("not an IPv4 address: " + host);
  }
  if (::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) != 0) {
    Status status = Status::IoError(std::string("connect to ") + host + ": " +
                                    std::strerror(errno));
    ::close(fd);
    return status;
  }
  int nodelay = 1;
  ::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &nodelay, sizeof(nodelay));
  return Client(fd);
}

Client::Client(Client&& other) noexcept : fd_(other.fd_) { other.fd_ = -1; }

Client& Client::operator=(Client&& other) noexcept {
  if (this != &other) {
    if (fd_ >= 0) ::close(fd_);
    fd_ = other.fd_;
    other.fd_ = -1;
  }
  return *this;
}

Client::~Client() {
  if (fd_ >= 0) ::close(fd_);
}

Status Client::Submit(MessageType type, const std::vector<uint8_t>& payload) {
  if (fd_ < 0) {
    return Status::FailedPrecondition("client connection is closed");
  }
  return WriteFrame(fd_, type, payload);
}

Result<Frame> Client::ReadResponseFrame() {
  if (fd_ < 0) {
    return Status::FailedPrecondition("client connection is closed");
  }
  return ReadFrame(fd_);
}

Result<Frame> Client::RoundTrip(MessageType type,
                                const std::vector<uint8_t>& payload,
                                MessageType expected_response) {
  DBS_RETURN_IF_ERROR(Submit(type, payload));
  DBS_ASSIGN_OR_RETURN(Frame response, ReadResponseFrame());
  if (response.type == MessageType::kErrorResponse) {
    return DecodeErrorResponse(response.payload);
  }
  if (response.type != expected_response) {
    return Status::Internal("unexpected response type from server");
  }
  return response;
}

Status Client::RegisterModel(const std::string& name,
                             const std::string& path) {
  RegisterRequest request{name, path};
  auto response =
      RoundTrip(MessageType::kRegisterRequest, EncodeRegisterRequest(request),
                MessageType::kOkResponse);
  return response.status();
}

Status Client::EvictModel(const std::string& name) {
  EvictRequest request{name};
  auto response =
      RoundTrip(MessageType::kEvictRequest, EncodeEvictRequest(request),
                MessageType::kOkResponse);
  return response.status();
}

Result<DensityBatchResponse> Client::Density(
    const DensityBatchRequest& request) {
  DBS_ASSIGN_OR_RETURN(
      Frame response,
      RoundTrip(MessageType::kDensityRequest, EncodeDensityRequest(request),
                MessageType::kDensityResponse));
  return DecodeDensityResponse(response.payload);
}

Result<std::vector<DensityBatchResponse>> Client::DensityPipelined(
    const std::vector<DensityBatchRequest>& requests, int window) {
  if (window < 1) window = 1;
  // The kernel socket buffers have to absorb every in-flight answer, so the
  // window stays modest.
  if (window > 64) window = 64;

  std::vector<Frame> frames;
  frames.reserve(requests.size());
  size_t submitted = 0;
  size_t received = 0;
  while (received < requests.size()) {
    while (submitted < requests.size() &&
           submitted - received < static_cast<size_t>(window)) {
      DBS_RETURN_IF_ERROR(Submit(MessageType::kDensityRequest,
                                 EncodeDensityRequest(requests[submitted])));
      ++submitted;
    }
    DBS_ASSIGN_OR_RETURN(Frame frame, ReadResponseFrame());
    frames.push_back(std::move(frame));
    ++received;
  }

  // Convert only after every in-flight response is home, so an error in
  // the middle of the stream cannot leave orphaned responses behind on the
  // session. The first error in request order wins, matching what the
  // caller would have seen issuing the batches sequentially.
  std::vector<DensityBatchResponse> responses;
  responses.reserve(frames.size());
  for (const Frame& frame : frames) {
    if (frame.type == MessageType::kErrorResponse) {
      return DecodeErrorResponse(frame.payload);
    }
    if (frame.type != MessageType::kDensityResponse) {
      return Status::Internal("unexpected response type from server");
    }
    DBS_ASSIGN_OR_RETURN(DensityBatchResponse response,
                         DecodeDensityResponse(frame.payload));
    responses.push_back(std::move(response));
  }
  return responses;
}

Result<SampleResponse> Client::Sample(const SampleRequest& request) {
  DBS_ASSIGN_OR_RETURN(
      Frame response,
      RoundTrip(MessageType::kSampleRequest, EncodeSampleRequest(request),
                MessageType::kSampleResponse));
  return DecodeSampleResponse(response.payload);
}

Result<OutlierScoreBatchResponse> Client::OutlierScores(
    const OutlierScoreBatchRequest& request) {
  DBS_ASSIGN_OR_RETURN(
      Frame response,
      RoundTrip(MessageType::kOutlierRequest, EncodeOutlierRequest(request),
                MessageType::kOutlierResponse));
  return DecodeOutlierResponse(response.payload);
}

Result<density::PartialKde> Client::PartialFit(
    const PartialFitRequest& request) {
  DBS_ASSIGN_OR_RETURN(
      Frame response,
      RoundTrip(MessageType::kPartialFitRequest,
                EncodePartialFitRequest(request),
                MessageType::kPartialFitResponse));
  return DecodePartialKde(response.payload);
}

Result<StatsResponse> Client::Stats() {
  DBS_ASSIGN_OR_RETURN(Frame response,
                       RoundTrip(MessageType::kStatsRequest, {},
                                 MessageType::kStatsResponse));
  return DecodeStatsResponse(response.payload);
}

Status Client::RequestShutdown() {
  auto response = RoundTrip(MessageType::kShutdownRequest, {},
                            MessageType::kOkResponse);
  return response.status();
}

}  // namespace dbs::serve
