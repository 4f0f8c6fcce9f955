#include "http/message.h"

#include <cstdio>

#include "common/hash.h"
#include "common/strings.h"

namespace mrs {

void HttpHeaders::Add(std::string name, std::string value) {
  entries_.emplace_back(std::move(name), std::move(value));
}

void HttpHeaders::Set(std::string name, std::string value) {
  bool replaced = false;
  for (auto it = entries_.begin(); it != entries_.end();) {
    if (EqualsIgnoreCase(it->first, name)) {
      if (!replaced) {
        it->second = value;
        replaced = true;
        ++it;
      } else {
        it = entries_.erase(it);
      }
    } else {
      ++it;
    }
  }
  if (!replaced) Add(std::move(name), std::move(value));
}

std::optional<std::string_view> HttpHeaders::Get(std::string_view name) const {
  for (const auto& [n, v] : entries_) {
    if (EqualsIgnoreCase(n, name)) return std::string_view(v);
  }
  return std::nullopt;
}

namespace {
void AppendHeaders(std::string* out, const HttpHeaders& headers,
                   size_t body_size) {
  bool has_length = false;
  for (const auto& [n, v] : headers.entries()) {
    *out += n;
    *out += ": ";
    *out += v;
    *out += "\r\n";
    if (EqualsIgnoreCase(n, "Content-Length")) has_length = true;
  }
  if (!has_length) {
    *out += "Content-Length: " + std::to_string(body_size) + "\r\n";
  }
  *out += "\r\n";
}
}  // namespace

std::string HttpRequest::Serialize() const {
  std::string out = method + " " + target + " HTTP/1.1\r\n";
  AppendHeaders(&out, headers, body.size());
  out += body;
  return out;
}

std::string HttpResponse::Serialize() const {
  std::string out =
      "HTTP/1.1 " + std::to_string(status_code) + " " + reason + "\r\n";
  AppendHeaders(&out, headers, body.size());
  out += body;
  return out;
}

HttpResponse HttpResponse::Make(int code, std::string_view reason,
                                std::string body,
                                std::string_view content_type) {
  HttpResponse resp;
  resp.status_code = code;
  resp.reason = std::string(reason);
  resp.headers.Set("Content-Type", std::string(content_type));
  resp.body = std::move(body);
  return resp;
}

namespace {

constexpr std::string_view kXxh64Prefix = "xxh64:";

std::string Hex64(uint64_t h) {
  char buf[17];
  std::snprintf(buf, sizeof(buf), "%016llx",
                static_cast<unsigned long long>(h));
  return std::string(buf);
}

std::string Xxh64Form(uint64_t h) {
  return std::string(kXxh64Prefix) + Hex64(h);
}

}  // namespace

std::string ContentChecksum(std::string_view body) {
  return Xxh64Form(Xxh64Hash(body));
}

std::string Fnv1aChecksum(std::string_view body) {
  return Hex64(Fnv1a64(body));
}

ChecksumVerifier::ChecksumVerifier(std::string_view expected)
    : expected_(expected), is_xxh64_(StartsWith(expected, kXxh64Prefix)) {}

void ChecksumVerifier::Update(std::string_view data) {
  if (is_xxh64_) {
    xxh64_.Update(data);
  } else {
    fnv1a_ = Fnv1a64(data, fnv1a_);
  }
}

bool ChecksumVerifier::Matches() const {
  // Producers spell values exactly this way, so comparing the spelling
  // rejects every other form.
  return expected_ ==
         (is_xxh64_ ? Xxh64Form(xxh64_.Digest()) : Hex64(fnv1a_));
}

bool ChecksumMatches(std::string_view body, std::string_view checksum) {
  ChecksumVerifier verifier(checksum);
  verifier.Update(body);
  return verifier.Matches();
}

bool FormatAccepted(const HttpHeaders& headers, std::string_view format) {
  auto value = headers.Get(kMrsFormatHeader);
  if (!value.has_value()) return false;
  for (std::string_view token : SplitChar(*value, ',')) {
    if (Trim(token) == format) return true;
  }
  return false;
}

std::pair<std::string_view, std::string_view> SplitTarget(
    std::string_view target) {
  size_t q = target.find('?');
  if (q == std::string_view::npos) return {target, std::string_view()};
  return {target.substr(0, q), target.substr(q + 1)};
}

}  // namespace mrs
