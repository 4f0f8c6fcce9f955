// Incremental HTTP/1.1 parser for requests and responses.
//
// Feed() accepts arbitrary byte chunks; Done() flips once a complete
// message (head + Content-Length body) has been consumed.  Chunked
// transfer encoding is not needed by Mrs traffic and is rejected
// explicitly rather than mis-parsed.
//
// A request parser caps what a peer can make a server hold: a head over
// 64 KiB or with more than 100 header lines is a ProtocolError (400), and
// a Content-Length over 64 MiB is an OutOfRange error (413), raised with
// the header line, before any body byte is buffered.  mrs's largest
// request, an XML-RPC task_done with one URL per split, is far below
// both.  A response parser keeps a 64 KiB cap per head line and a 1 TiB
// cap on Content-Length.
#pragma once

#include <cstddef>
#include <cstdint>
#include <string>
#include <string_view>

#include "common/status.h"
#include "http/message.h"

namespace mrs {

namespace internal {

/// Shared head+body state machine; Kind selects request/response line
/// handling.
class HttpParserBase {
 public:
  bool Done() const { return state_ == State::kDone; }

  /// Consume up to `data.size()` bytes; returns the number consumed (bytes
  /// past the end of a complete message are left for the caller, enabling
  /// keep-alive pipelining).
  Result<size_t> Feed(std::string_view data);

 protected:
  /// What a peer may make the parser hold: the head (start line, header
  /// lines and their line ends), the number of header lines, and the
  /// declared body.
  struct Limits {
    size_t head_bytes;
    size_t header_lines;
    uint64_t body_bytes;
  };

  explicit HttpParserBase(Limits limits) : limits_(limits) {}
  virtual ~HttpParserBase() = default;
  virtual Status OnStartLine(std::string_view line) = 0;
  virtual void OnHeader(std::string name, std::string value) = 0;
  virtual void OnBody(std::string body) = 0;
  /// Content-Length discovered so far (-1 until seen).
  long long content_length_ = -1;

 private:
  enum class State { kStartLine, kHeaders, kBody, kDone };
  Status HandleHeaderLine(std::string_view line);

  const Limits limits_;
  State state_ = State::kStartLine;
  std::string buffer_;   // accumulated head lines / body bytes
  size_t head_bytes_ = 0;    // complete head lines so far, line ends included
  size_t header_lines_ = 0;
};

}  // namespace internal

class HttpRequestParser final : public internal::HttpParserBase {
 public:
  HttpRequestParser()
      : HttpParserBase({.head_bytes = 64 << 10,
                        .header_lines = 100,
                        .body_bytes = 64 << 20}) {}

  const HttpRequest& request() const { return request_; }
  HttpRequest&& TakeRequest() { return std::move(request_); }

 private:
  Status OnStartLine(std::string_view line) override;
  void OnHeader(std::string name, std::string value) override;
  void OnBody(std::string body) override { request_.body = std::move(body); }

  HttpRequest request_;
};

class HttpResponseParser final : public internal::HttpParserBase {
 public:
  /// No cap on the head as a whole: each line is capped at 64 KiB.
  HttpResponseParser()
      : HttpParserBase({.head_bytes = SIZE_MAX,
                        .header_lines = SIZE_MAX,
                        .body_bytes = uint64_t{1} << 40}) {}

  const HttpResponse& response() const { return response_; }
  HttpResponse&& TakeResponse() { return std::move(response_); }

 private:
  Status OnStartLine(std::string_view line) override;
  void OnHeader(std::string name, std::string value) override;
  void OnBody(std::string body) override { response_.body = std::move(body); }

  HttpResponse response_;
};

}  // namespace mrs
