// Blocking HTTP/1.1 client with keep-alive connection reuse.
//
// Used by slaves to fetch intermediate data by URL from peer slaves, and by
// the XML-RPC client as its transport.
#pragma once

#include <memory>
#include <string>
#include <string_view>

#include "common/status.h"
#include "http/message.h"
#include "net/socket.h"

namespace mrs {

/// Components of an "http://host:port/path?query" URL.  Bracketed IPv6
/// authorities ("[::1]:8080") parse with the brackets stripped; a bare
/// host containing ':' (ambiguous with the port separator) is rejected.
struct HttpUrl {
  std::string host;
  uint16_t port = 80;
  std::string target = "/";  // path + query

  static Result<HttpUrl> Parse(std::string_view url);
  std::string ToString() const;
};

/// A client bound to one host:port; reuses the connection across requests
/// and transparently reconnects once when the server has closed it.
///
/// The reconnect resend is restricted to requests that are safe to repeat:
/// idempotent methods (GET/HEAD), or any request whose response never
/// started — once response bytes have arrived for a POST, the server may
/// already have applied it, so the failure surfaces instead of being
/// silently re-sent (the caller's retry layer + server-side idempotency
/// own that decision).
class HttpClient {
 public:
  explicit HttpClient(SocketAddr addr) : addr_(std::move(addr)) {}

  Result<HttpResponse> Get(std::string_view target);
  Result<HttpResponse> Post(std::string_view target, std::string body,
                            std::string_view content_type = "text/xml");

  /// Issue an arbitrary request (Host and Content-Length are filled in).
  Result<HttpResponse> Do(HttpRequest req);

  const SocketAddr& addr() const { return addr_; }

  /// True while the keep-alive connection is open (pooling predicate).
  bool connected() const { return conn_.valid(); }

 private:
  Result<HttpResponse> DoOnce(const std::string& wire,
                              bool* response_started);
  Status EnsureConnected();

  SocketAddr addr_;
  TcpConn conn_;
};

/// Map a data-plane GET's response code to a Status: 200 is OK, 404 is
/// kNotFound (authoritative miss — lineage recovery territory, never
/// retried), any 5xx is kUnavailable (server-side transient, retryable),
/// anything else is kInternal.
Status FetchStatusFromHttpCode(std::string_view url, int code);

/// Verify the X-Mrs-Checksum integrity guard when the response carries it,
/// with the algorithm its value names; mismatch is kDataLoss (retryable —
/// refetch beats decoding a truncated payload).
Status VerifyFetchChecksum(std::string_view url, const HttpResponse& resp);

/// GET a full URL on a pooled keep-alive connection (ConnectionPool), with
/// the status mapping and checksum guard above.  The request carries the
/// kXxh64ChecksumFormat token.  (Implemented in pool.cpp.)
Result<std::string> HttpFetch(std::string_view url);

}  // namespace mrs
