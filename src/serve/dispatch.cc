#include "serve/dispatch.h"

#include <utility>

namespace dbs::serve {
namespace {

DispatchResult Reject(const Status& status) {
  DispatchResult result;
  result.response = {MessageType::kErrorResponse,
                     EncodeErrorResponse(status)};
  result.close = true;
  return result;
}

DispatchResult AnswerError(const Status& status) {
  DispatchResult result;
  result.response = {MessageType::kErrorResponse,
                     EncodeErrorResponse(status)};
  return result;
}

DispatchResult Answer(MessageType type, std::vector<uint8_t> payload) {
  DispatchResult result;
  result.response = {type, std::move(payload)};
  return result;
}

}  // namespace

DispatchResult DispatchFrame(ModelService* service, const Frame& frame) {
  switch (frame.type) {
    case MessageType::kRegisterRequest: {
      auto request = DecodeRegisterRequest(frame.payload);
      if (!request.ok()) return Reject(request.status());
      Status status = service->Register(*request);
      if (!status.ok()) return AnswerError(status);
      return Answer(MessageType::kOkResponse, {});
    }
    case MessageType::kEvictRequest: {
      auto request = DecodeEvictRequest(frame.payload);
      if (!request.ok()) return Reject(request.status());
      Status status = service->Evict(*request);
      if (!status.ok()) return AnswerError(status);
      return Answer(MessageType::kOkResponse, {});
    }
    case MessageType::kDensityRequest: {
      auto request = DecodeDensityRequest(frame.payload);
      if (!request.ok()) return Reject(request.status());
      auto response = service->Density(*request);
      if (!response.ok()) return AnswerError(response.status());
      return Answer(MessageType::kDensityResponse,
                    EncodeDensityResponse(*response));
    }
    case MessageType::kSampleRequest: {
      auto request = DecodeSampleRequest(frame.payload);
      if (!request.ok()) return Reject(request.status());
      auto response = service->Sample(*request);
      if (!response.ok()) return AnswerError(response.status());
      return Answer(MessageType::kSampleResponse,
                    EncodeSampleResponse(*response));
    }
    case MessageType::kOutlierRequest: {
      auto request = DecodeOutlierRequest(frame.payload);
      if (!request.ok()) return Reject(request.status());
      auto response = service->OutlierScores(*request);
      if (!response.ok()) return AnswerError(response.status());
      return Answer(MessageType::kOutlierResponse,
                    EncodeOutlierResponse(*response));
    }
    case MessageType::kPartialFitRequest: {
      auto request = DecodePartialFitRequest(frame.payload);
      if (!request.ok()) return Reject(request.status());
      auto response = service->PartialFit(*request);
      if (!response.ok()) return AnswerError(response.status());
      return Answer(MessageType::kPartialFitResponse,
                    EncodePartialKde(*response));
    }
    case MessageType::kStatsRequest: {
      StatsResponse response = service->Stats();
      return Answer(MessageType::kStatsResponse,
                    EncodeStatsResponse(response));
    }
    case MessageType::kShutdownRequest: {
      DispatchResult result = Answer(MessageType::kOkResponse, {});
      result.shutdown = true;
      result.close = true;
      return result;
    }
    default:
      return Reject(
          Status::InvalidArgument("response message sent as a request"));
  }
}

}  // namespace dbs::serve
