#include "http/parser.h"

#include "common/strings.h"

namespace mrs {
namespace internal {

Result<size_t> HttpParserBase::Feed(std::string_view data) {
  size_t consumed = 0;
  while (consumed < data.size() || state_ == State::kBody) {
    if (state_ == State::kDone) break;
    if (state_ == State::kBody) {
      size_t want = static_cast<size_t>(content_length_) - buffer_.size();
      size_t take = std::min(want, data.size() - consumed);
      buffer_.append(data.substr(consumed, take));
      consumed += take;
      if (buffer_.size() == static_cast<size_t>(content_length_)) {
        OnBody(std::move(buffer_));
        buffer_.clear();
        state_ = State::kDone;
      }
      break;  // either done or need more input
    }

    // Head: accumulate until CRLF (tolerate bare LF).
    size_t nl = data.find('\n', consumed);
    size_t end = nl == std::string_view::npos ? data.size() : nl + 1;
    buffer_.append(data.substr(consumed, end - consumed));
    consumed = end;
    if (head_bytes_ + buffer_.size() > limits_.head_bytes) {
      return ProtocolError("HTTP head exceeds " +
                           std::to_string(limits_.head_bytes) + " bytes");
    }
    if (nl == std::string_view::npos) {
      if (buffer_.size() > 64 * 1024) {
        return ProtocolError("HTTP header line exceeds 64KiB");
      }
      break;
    }
    head_bytes_ += buffer_.size();
    buffer_.pop_back();  // the '\n'
    if (!buffer_.empty() && buffer_.back() == '\r') buffer_.pop_back();
    std::string line = std::move(buffer_);
    buffer_.clear();

    if (state_ == State::kStartLine) {
      if (line.empty()) continue;  // robustness: skip stray leading CRLF
      MRS_RETURN_IF_ERROR(OnStartLine(line));
      state_ = State::kHeaders;
    } else {  // kHeaders
      if (line.empty()) {
        if (content_length_ <= 0) {
          OnBody(std::string());
          state_ = State::kDone;
        } else {
          state_ = State::kBody;
        }
      } else {
        if (++header_lines_ > limits_.header_lines) {
          return ProtocolError("more than " +
                               std::to_string(limits_.header_lines) +
                               " HTTP header lines");
        }
        MRS_RETURN_IF_ERROR(HandleHeaderLine(line));
      }
    }
  }
  return consumed;
}

Status HttpParserBase::HandleHeaderLine(std::string_view line) {
  size_t colon = line.find(':');
  if (colon == std::string_view::npos) {
    return ProtocolError("malformed header line: " + std::string(line));
  }
  std::string name(Trim(line.substr(0, colon)));
  std::string value(Trim(line.substr(colon + 1)));
  if (EqualsIgnoreCase(name, "Content-Length")) {
    auto n = ParseUint64(value);
    if (!n.has_value()) return ProtocolError("bad Content-Length: " + value);
    if (*n > limits_.body_bytes) {
      return OutOfRangeError("Content-Length " + value + " exceeds " +
                             std::to_string(limits_.body_bytes) + " bytes");
    }
    content_length_ = static_cast<long long>(*n);
  }
  if (EqualsIgnoreCase(name, "Transfer-Encoding") &&
      !EqualsIgnoreCase(value, "identity")) {
    return ProtocolError("chunked transfer encoding not supported");
  }
  OnHeader(std::move(name), std::move(value));
  return Status::Ok();
}

}  // namespace internal

Status HttpRequestParser::OnStartLine(std::string_view line) {
  std::vector<std::string_view> parts = SplitWhitespace(line);
  if (parts.size() != 3 || !StartsWith(parts[2], "HTTP/")) {
    return ProtocolError("malformed request line: " + std::string(line));
  }
  request_.method = std::string(parts[0]);
  request_.target = std::string(parts[1]);
  return Status::Ok();
}

void HttpRequestParser::OnHeader(std::string name, std::string value) {
  request_.headers.Add(std::move(name), std::move(value));
}

Status HttpResponseParser::OnStartLine(std::string_view line) {
  std::vector<std::string_view> parts = SplitCharLimit(line, ' ', 3);
  if (parts.size() < 2 || !StartsWith(parts[0], "HTTP/")) {
    return ProtocolError("malformed status line: " + std::string(line));
  }
  auto code = ParseUint64(parts[1]);
  if (!code.has_value() || *code < 100 || *code > 599) {
    return ProtocolError("bad status code in: " + std::string(line));
  }
  response_.status_code = static_cast<int>(*code);
  response_.reason = parts.size() == 3 ? std::string(parts[2]) : "";
  return Status::Ok();
}

void HttpResponseParser::OnHeader(std::string name, std::string value) {
  response_.headers.Add(std::move(name), std::move(value));
}

}  // namespace mrs
