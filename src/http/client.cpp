#include "http/client.h"

#include "common/strings.h"
#include "http/parser.h"
#include "obs/metrics.h"
#include "obs/trace.h"

namespace mrs {

Result<HttpUrl> HttpUrl::Parse(std::string_view url) {
  constexpr std::string_view kScheme = "http://";
  if (!StartsWith(url, kScheme)) {
    return InvalidArgumentError("only http:// URLs supported: " +
                                std::string(url));
  }
  std::string_view rest = url.substr(kScheme.size());
  size_t slash = rest.find('/');
  std::string_view authority =
      slash == std::string_view::npos ? rest : rest.substr(0, slash);
  HttpUrl out;
  out.target = slash == std::string_view::npos ? "/" : std::string(rest.substr(slash));
  std::string_view host_part = authority;
  std::string_view port_part;
  if (StartsWith(authority, "[")) {
    // Bracketed IPv6-style authority: "[::1]" or "[::1]:8080".
    size_t close = authority.find(']');
    if (close == std::string_view::npos) {
      return InvalidArgumentError("unterminated '[' in URL authority: " +
                                  std::string(url));
    }
    host_part = authority.substr(1, close - 1);
    std::string_view after = authority.substr(close + 1);
    if (!after.empty()) {
      if (after[0] != ':') {
        return InvalidArgumentError("junk after ']' in URL authority: " +
                                    std::string(url));
      }
      port_part = after.substr(1);
      if (port_part.empty()) {
        return InvalidArgumentError("empty port in URL: " + std::string(url));
      }
    }
    out.host = std::string(host_part);
  } else {
    size_t colon = authority.find(':');
    if (colon == std::string_view::npos) {
      out.host = std::string(authority);
    } else {
      host_part = authority.substr(0, colon);
      port_part = authority.substr(colon + 1);
      // An unbracketed host must not contain ':' itself ("a:b:c" is
      // ambiguous, and "::1:8080" would silently mis-split).
      if (port_part.find(':') != std::string_view::npos) {
        return InvalidArgumentError(
            "ambiguous ':' in URL authority (bracket IPv6 hosts): " +
            std::string(url));
      }
      out.host = std::string(host_part);
    }
  }
  if (port_part.empty() && host_part.size() != authority.size() &&
      !StartsWith(authority, "[")) {
    // "host:" — a port separator with no digits.
    return InvalidArgumentError("empty port in URL: " + std::string(url));
  }
  if (!port_part.empty()) {
    auto port = ParseUint64(port_part);
    if (!port.has_value() || *port > 65535 || *port == 0) {
      return InvalidArgumentError("bad port in URL: " + std::string(url));
    }
    out.port = static_cast<uint16_t>(*port);
  }
  if (out.host.empty()) return InvalidArgumentError("empty host in URL");
  return out;
}

std::string HttpUrl::ToString() const {
  return "http://" + host + ":" + std::to_string(port) + target;
}

Result<HttpResponse> HttpClient::Get(std::string_view target) {
  HttpRequest req;
  req.method = "GET";
  req.target = std::string(target);
  return Do(std::move(req));
}

Result<HttpResponse> HttpClient::Post(std::string_view target,
                                      std::string body,
                                      std::string_view content_type) {
  HttpRequest req;
  req.method = "POST";
  req.target = std::string(target);
  req.headers.Set("Content-Type", std::string(content_type));
  req.body = std::move(body);
  return Do(std::move(req));
}

Status HttpClient::EnsureConnected() {
  if (conn_.valid()) return Status::Ok();
  // Every actual TCP dial is counted: the connection pool's O(buckets) ->
  // O(peers) claim is asserted against this counter in tests and benches.
  static obs::Counter* connects =
      obs::Registry::Instance().GetCounter("mrs.http.client.connects");
  MRS_ASSIGN_OR_RETURN(conn_, TcpConn::Connect(addr_));
  connects->Inc();
  (void)conn_.SetNoDelay(true);
  return Status::Ok();
}

Result<HttpResponse> HttpClient::Do(HttpRequest req) {
  static obs::Counter* requests =
      obs::Registry::Instance().GetCounter("mrs.http.client.requests");
  static obs::Counter* errors =
      obs::Registry::Instance().GetCounter("mrs.http.client.errors");
  static obs::Histogram* request_seconds =
      obs::Registry::Instance().GetHistogram("mrs.http.client.request_seconds");
  double start = obs::TraceNowSeconds();

  req.headers.Set("Host", addr_.ToString());
  std::string wire = req.Serialize();
  bool response_started = false;
  Result<HttpResponse> resp = DoOnce(wire, &response_started);
  // One transparent reconnect: the kept-alive connection may have been
  // closed by the server between requests.  Resending is only safe for
  // idempotent methods, or when no response byte ever arrived (the usual
  // keep-alive race: the server closed before reading the request).  A
  // POST whose response started may already have been applied server-side;
  // re-sending it here would double-apply the RPC, so that error surfaces
  // to the caller instead.
  bool idempotent = req.method == "GET" || req.method == "HEAD";
  if (!resp.ok() &&
      (resp.status().code() == StatusCode::kIoError ||
       resp.status().code() == StatusCode::kUnavailable ||
       resp.status().code() == StatusCode::kDataLoss) &&
      (idempotent || !response_started)) {
    conn_.Close();
    response_started = false;
    resp = DoOnce(wire, &response_started);
  }
  request_seconds->Observe(obs::TraceNowSeconds() - start);
  requests->Inc();
  if (!resp.ok()) errors->Inc();
  return resp;
}

Result<HttpResponse> HttpClient::DoOnce(const std::string& wire,
                                        bool* response_started) {
  *response_started = false;
  MRS_RETURN_IF_ERROR(EnsureConnected());
  Status w = conn_.WriteAll(wire);
  if (!w.ok()) {
    conn_.Close();
    return w;
  }
  HttpResponseParser parser;
  char buf[16384];
  while (!parser.Done()) {
    Result<size_t> n = conn_.Read(buf, sizeof(buf));
    if (!n.ok()) {
      conn_.Close();
      return n.status();
    }
    if (*n == 0) {
      conn_.Close();
      return DataLossError("connection closed mid-response");
    }
    *response_started = true;
    Result<size_t> used = parser.Feed(std::string_view(buf, *n));
    if (!used.ok()) {
      conn_.Close();
      return used.status();
    }
  }
  HttpResponse resp = parser.TakeResponse();
  if (auto c = resp.headers.Get("Connection");
      c.has_value() && EqualsIgnoreCase(*c, "close")) {
    conn_.Close();
  }
  return resp;
}

Status FetchStatusFromHttpCode(std::string_view url, int code) {
  if (code == 200) return Status::Ok();
  std::string what = "GET " + std::string(url) + " -> " + std::to_string(code);
  if (code == 404) {
    // The peer is alive but genuinely does not have the data: a lineage
    // failure the master must repair, never a retry.
    return NotFoundError(std::move(what));
  }
  if (code >= 500 && code < 600) {
    // Server up but failing (overload, shutdown, internal error): the
    // transient class, which the retry layer may absorb.  Mapping these to
    // kNotFound would misfire lineage invalidation on a hiccup.
    return UnavailableError(std::move(what));
  }
  return InternalError(std::move(what));
}

Status VerifyFetchChecksum(std::string_view url, const HttpResponse& resp) {
  // Integrity guard: mrs data servers attach a checksum so a truncated or
  // corrupted body is detected here (kDataLoss, retryable) rather than
  // failing obscurely — or succeeding silently — during record decode.
  if (auto sum = resp.headers.Get(kMrsChecksumHeader);
      sum.has_value() && !ChecksumMatches(resp.body, *sum)) {
    return DataLossError("checksum mismatch fetching " + std::string(url) +
                         " (" + std::to_string(resp.body.size()) +
                         " bytes, header said " + std::string(*sum) + ")");
  }
  return Status::Ok();
}

}  // namespace mrs
