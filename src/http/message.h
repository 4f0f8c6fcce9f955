// HTTP/1.1 message model.
//
// Mrs uses HTTP twice: as the transport for XML-RPC between master and
// slaves, and as the direct-communication path for intermediate map output
// (each slave runs "a built-in HTTP server" that peers fetch bucket files
// from).  Only the small subset needed for those two uses is implemented:
// GET/POST, Content-Length bodies, and case-insensitive headers.
#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "common/hash.h"
#include "common/status.h"

namespace mrs {

/// Ordered header list with case-insensitive lookup (headers may repeat).
class HttpHeaders {
 public:
  void Add(std::string name, std::string value);
  /// Replace all values of `name` with one value.
  void Set(std::string name, std::string value);
  std::optional<std::string_view> Get(std::string_view name) const;
  bool Has(std::string_view name) const { return Get(name).has_value(); }

  const std::vector<std::pair<std::string, std::string>>& entries() const {
    return entries_;
  }

 private:
  std::vector<std::pair<std::string, std::string>> entries_;
};

struct HttpRequest {
  std::string method = "GET";   // GET or POST
  std::string target = "/";     // request-target (origin form)
  HttpHeaders headers;
  std::string body;

  /// Serialize to wire format with Content-Length set from body.
  std::string Serialize() const;
};

struct HttpResponse {
  int status_code = 200;
  std::string reason = "OK";
  HttpHeaders headers;
  std::string body;

  std::string Serialize() const;

  static HttpResponse Make(int code, std::string_view reason,
                           std::string body,
                           std::string_view content_type = "text/plain");
  static HttpResponse Ok(std::string body,
                         std::string_view content_type = "text/plain") {
    return Make(200, "OK", std::move(body), content_type);
  }
  static HttpResponse NotFound(std::string body = "not found") {
    return Make(404, "Not Found", std::move(body));
  }
  static HttpResponse BadRequest(std::string body = "bad request") {
    return Make(400, "Bad Request", std::move(body));
  }
  static HttpResponse InternalError(std::string body = "internal error") {
    return Make(500, "Internal Server Error", std::move(body));
  }
};

/// Split a request target into path and raw query string ("/a/b?x=1").
std::pair<std::string_view, std::string_view> SplitTarget(
    std::string_view target);

/// End-to-end integrity header for bucket transfers.  A data server sets
/// it on a plain bucket body (a frame-set body carries one checksum per
/// frame instead) and promises that the value is the body's checksum in
/// the form the request negotiated (kXxh64ChecksumFormat).  HttpFetch
/// verifies it when present, by the algorithm the value names, and reports
/// kDataLoss on mismatch so the retry layer re-fetches instead of parsing
/// a truncated or corrupted payload.
inline constexpr std::string_view kMrsChecksumHeader = "X-Mrs-Checksum";

/// The payload checksum every producer writes: "xxh64:" followed by the
/// 16 lowercase hex digits of XXH64(body), seed 0.  The prefix names the
/// algorithm, so it never collides with the older form below (cheap and
/// deterministic; not cryptographic).
std::string ContentChecksum(std::string_view body);

/// The form peers that predate XXH64 write and verify: 16 bare lowercase
/// hex digits of FNV-1a.  Produced only for a request that lacks the
/// kXxh64ChecksumFormat token.
std::string Fnv1aChecksum(std::string_view body);

/// Checks bytes fed in any split against a checksum value of either form,
/// with the algorithm the value names.  A value of any other form never
/// matches.
class ChecksumVerifier {
 public:
  explicit ChecksumVerifier(std::string_view expected);

  void Update(std::string_view data);
  bool Matches() const;

 private:
  std::string expected_;
  bool is_xxh64_;  // else FNV-1a
  Xxh64 xxh64_;
  uint64_t fnv1a_ = kFnv1a64Basis;
};

/// One-shot ChecksumVerifier: does `body` match `checksum`?
bool ChecksumMatches(std::string_view body, std::string_view checksum);

/// Content negotiation for mrs's binary wire formats.  A request lists the
/// formats it accepts as a comma-separated X-Mrs-Format header
/// ("mrsk1, xxh64"); the response names the frame or RPC format actually
/// used in the same header, or omits it for the plain (XML / raw-body)
/// encoding.  Peers that predate a format simply never emit the token —
/// old servers ignore the request header, old clients never send it — so
/// mixed clusters degrade to the plain encoding instead of failing.
inline constexpr std::string_view kMrsFormatHeader = "X-Mrs-Format";

/// X-Mrs-Format token of a bucket request whose sender reads
/// ContentChecksum values.  The response does not echo it: checksum values
/// name their own algorithm.  A data server answers a request without it
/// with Fnv1aChecksum values in the header and in every frame.
inline constexpr std::string_view kXxh64ChecksumFormat = "xxh64";

/// True if `headers` carries an X-Mrs-Format token equal to `format`.
bool FormatAccepted(const HttpHeaders& headers, std::string_view format);

}  // namespace mrs
