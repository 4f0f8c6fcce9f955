// Tests for the HTTP message model, incremental parser, server and client,
// the connection pool, and the fetch-path status mapping.
#include <gtest/gtest.h>

#include <poll.h>

#include <atomic>
#include <functional>
#include <future>
#include <memory>
#include <thread>

#include "common/clock.h"
#include "common/retry.h"
#include "http/client.h"
#include "http/message.h"
#include "http/parser.h"
#include "http/pool.h"
#include "http/server.h"
#include "net/socket.h"
#include "obs/metrics.h"

namespace mrs {
namespace {

// ---- Headers -------------------------------------------------------------

TEST(HttpHeaders, CaseInsensitiveLookup) {
  HttpHeaders h;
  h.Add("Content-Type", "text/xml");
  EXPECT_EQ(h.Get("content-type").value(), "text/xml");
  EXPECT_EQ(h.Get("CONTENT-TYPE").value(), "text/xml");
  EXPECT_FALSE(h.Get("missing").has_value());
}

TEST(HttpHeaders, SetReplacesAllValues) {
  HttpHeaders h;
  h.Add("X", "1");
  h.Add("X", "2");
  h.Set("X", "3");
  int count = 0;
  for (const auto& [name, value] : h.entries()) {
    if (name == "X") {
      ++count;
      EXPECT_EQ(value, "3");
    }
  }
  EXPECT_EQ(count, 1);
}

// ---- Serialization ---------------------------------------------------------

TEST(HttpMessage, RequestSerializeSetsContentLength) {
  HttpRequest req;
  req.method = "POST";
  req.target = "/RPC2";
  req.body = "12345";
  std::string wire = req.Serialize();
  EXPECT_NE(wire.find("POST /RPC2 HTTP/1.1\r\n"), std::string::npos);
  EXPECT_NE(wire.find("Content-Length: 5\r\n"), std::string::npos);
  EXPECT_TRUE(wire.ends_with("\r\n12345"));
}

TEST(HttpMessage, ResponseHelpers) {
  HttpResponse resp = HttpResponse::NotFound();
  EXPECT_EQ(resp.status_code, 404);
  EXPECT_EQ(HttpResponse::Ok("x").status_code, 200);
  EXPECT_EQ(HttpResponse::BadRequest().status_code, 400);
}

TEST(HttpMessage, SplitTarget) {
  auto [path, query] = SplitTarget("/bucket/1/2?x=1&y=2");
  EXPECT_EQ(path, "/bucket/1/2");
  EXPECT_EQ(query, "x=1&y=2");
  auto [path2, query2] = SplitTarget("/plain");
  EXPECT_EQ(path2, "/plain");
  EXPECT_TRUE(query2.empty());
}

// ---- Parser -----------------------------------------------------------------

TEST(HttpParser, ParsesRequestInOneChunk) {
  HttpRequestParser parser;
  std::string wire =
      "GET /path?q=1 HTTP/1.1\r\nHost: x\r\nContent-Length: 3\r\n\r\nabc";
  auto used = parser.Feed(wire);
  ASSERT_TRUE(used.ok());
  EXPECT_EQ(*used, wire.size());
  ASSERT_TRUE(parser.Done());
  EXPECT_EQ(parser.request().method, "GET");
  EXPECT_EQ(parser.request().target, "/path?q=1");
  EXPECT_EQ(parser.request().body, "abc");
}

TEST(HttpParser, ParsesByteByByte) {
  HttpResponseParser parser;
  std::string wire =
      "HTTP/1.1 200 OK\r\nContent-Length: 4\r\nX-A: b\r\n\r\nbody";
  for (char c : wire) {
    ASSERT_FALSE(parser.Done());
    auto used = parser.Feed(std::string_view(&c, 1));
    ASSERT_TRUE(used.ok());
  }
  ASSERT_TRUE(parser.Done());
  EXPECT_EQ(parser.response().status_code, 200);
  EXPECT_EQ(parser.response().reason, "OK");
  EXPECT_EQ(parser.response().body, "body");
  EXPECT_EQ(parser.response().headers.Get("x-a").value(), "b");
}

TEST(HttpParser, LeavesPipelinedBytes) {
  HttpRequestParser parser;
  std::string two =
      "GET /a HTTP/1.1\r\nContent-Length: 0\r\n\r\nGET /b HTTP/1.1\r\n";
  auto used = parser.Feed(two);
  ASSERT_TRUE(used.ok());
  EXPECT_TRUE(parser.Done());
  EXPECT_LT(*used, two.size());
  EXPECT_EQ(two.substr(*used), "GET /b HTTP/1.1\r\n");
}

TEST(HttpParser, NoContentLengthMeansEmptyBody) {
  HttpRequestParser parser;
  auto used = parser.Feed("GET / HTTP/1.1\r\n\r\n");
  ASSERT_TRUE(used.ok());
  EXPECT_TRUE(parser.Done());
  EXPECT_TRUE(parser.request().body.empty());
}

TEST(HttpParser, RejectsMalformedStartLine) {
  HttpRequestParser parser;
  EXPECT_FALSE(parser.Feed("NONSENSE\r\n\r\n").ok());
}

TEST(HttpParser, RejectsBadContentLength) {
  HttpRequestParser parser;
  EXPECT_FALSE(
      parser.Feed("GET / HTTP/1.1\r\nContent-Length: banana\r\n\r\n").ok());
}

TEST(HttpParser, RejectsChunkedEncoding) {
  HttpResponseParser parser;
  EXPECT_FALSE(
      parser.Feed("HTTP/1.1 200 OK\r\nTransfer-Encoding: chunked\r\n\r\n")
          .ok());
}

TEST(HttpParser, ToleratesBareLf) {
  HttpRequestParser parser;
  auto used = parser.Feed("GET / HTTP/1.1\nHost: x\n\n");
  ASSERT_TRUE(used.ok());
  EXPECT_TRUE(parser.Done());
}

// ---- Request caps ----------------------------------------------------------

constexpr size_t kHeadCap = 64 << 10;
constexpr size_t kHeaderLineCap = 100;
constexpr size_t kBodyCap = 64 << 20;

/// A GET request head with `lines` "X-Pad" header lines, padded so that
/// the whole head (request line, header lines and blank line, with their
/// CRLFs) is exactly `head_bytes` long.
std::string PaddedHead(size_t lines, size_t head_bytes) {
  std::string head = "GET /caps HTTP/1.1\r\n";
  const std::string name = "X-Pad: ";
  size_t fill = head_bytes - head.size() - 2 - lines * (name.size() + 2);
  for (size_t i = 0; i < lines; ++i) {
    size_t n = fill / lines + (i == 0 ? fill % lines : 0);
    head += name + std::string(n, 'a') + "\r\n";
  }
  return head + "\r\n";
}

TEST(HttpParser, RequestHeadCapsAreExact) {
  {
    HttpRequestParser parser;
    ASSERT_TRUE(parser.Feed(PaddedHead(kHeaderLineCap, 4096)).ok());
    EXPECT_TRUE(parser.Done());
    EXPECT_EQ(parser.request().headers.entries().size(), kHeaderLineCap);
  }
  {
    HttpRequestParser parser;
    auto used = parser.Feed(PaddedHead(kHeaderLineCap + 1, 4096));
    ASSERT_FALSE(used.ok());
    EXPECT_EQ(used.status().code(), StatusCode::kProtocolError);
  }
  {
    HttpRequestParser parser;
    ASSERT_TRUE(parser.Feed(PaddedHead(99, kHeadCap)).ok());
    EXPECT_TRUE(parser.Done());
  }
  {
    // One byte over, fed in small chunks: refused before the head ends.
    HttpRequestParser parser;
    std::string head = PaddedHead(99, kHeadCap + 1);
    Status status;
    for (size_t at = 0; at < head.size() && status.ok(); at += 1000) {
      status = parser.Feed(std::string_view(head).substr(at, 1000)).status();
    }
    EXPECT_EQ(status.code(), StatusCode::kProtocolError);
    EXPECT_FALSE(parser.Done());
  }
}

TEST(HttpParser, RequestBodyCapIsExactAndCheckedBeforeTheBody) {
  {
    HttpRequestParser parser;
    std::string head = "POST / HTTP/1.1\r\nContent-Length: " +
                       std::to_string(kBodyCap) + "\r\n\r\n";
    auto used = parser.Feed(head);
    ASSERT_TRUE(used.ok()) << used.status().ToString();
    EXPECT_EQ(*used, head.size());
    EXPECT_FALSE(parser.Done());  // waiting for the body
  }
  {
    HttpRequestParser parser;
    auto used = parser.Feed("POST / HTTP/1.1\r\nContent-Length: " +
                            std::to_string(kBodyCap + 1) + "\r\n");
    ASSERT_FALSE(used.ok());
    EXPECT_EQ(used.status().code(), StatusCode::kOutOfRange);
  }
}

TEST(HttpParser, ResponseParserKeepsItsLimits) {
  HttpResponseParser parser;
  std::string head = "HTTP/1.1 200 OK\r\n";
  for (size_t i = 0; i <= kHeaderLineCap; ++i) {
    head += "X-Pad: " + std::string(1000, 'a') + "\r\n";
  }
  head += "Content-Length: 1073741824\r\n\r\n";
  auto used = parser.Feed(head);
  ASSERT_TRUE(used.ok()) << used.status().ToString();
  EXPECT_EQ(*used, head.size());
  HttpResponseParser too_big;
  EXPECT_FALSE(
      too_big.Feed("HTTP/1.1 200 OK\r\nContent-Length: 1099511627777\r\n")
          .ok());
}

/// A server whose every answer is "<header count> <body bytes>".
class HttpRequestCaps : public ::testing::Test {
 protected:
  void SetUp() override {
    auto server = HttpServer::Start("127.0.0.1", 0, [](const HttpRequest& r) {
      return HttpResponse::Ok(std::to_string(r.headers.entries().size()) +
                              " " + std::to_string(r.body.size()));
    });
    ASSERT_TRUE(server.ok()) << server.status().ToString();
    server_ = std::move(server).value();
  }

  /// Send `raw` on a new connection and parse the one response to it.
  Result<HttpResponse> Send(const std::string& raw) {
    MRS_ASSIGN_OR_RETURN(TcpConn conn, TcpConn::Connect(server_->addr()));
    MRS_RETURN_IF_ERROR(conn.WriteAll(raw));
    HttpResponseParser parser;
    char buf[16384];
    while (!parser.Done()) {
      pollfd pfd{conn.fd(), POLLIN, 0};
      if (::poll(&pfd, 1, 10000) <= 0) {
        return DeadlineExceededError("no response in 10 s");
      }
      MRS_ASSIGN_OR_RETURN(size_t n, conn.Read(buf, sizeof(buf)));
      if (n == 0) return UnavailableError("closed without a response");
      MRS_RETURN_IF_ERROR(parser.Feed(std::string_view(buf, n)).status());
    }
    return parser.TakeResponse();
  }

  std::unique_ptr<HttpServer> server_;
};

TEST_F(HttpRequestCaps, TooManyHeaderLinesGet400) {
  auto resp = Send(PaddedHead(kHeaderLineCap + 1, 4096));
  ASSERT_TRUE(resp.ok()) << resp.status().ToString();
  EXPECT_EQ(resp->status_code, 400);
  EXPECT_EQ(resp->headers.Get("Connection"), "close");
}

TEST_F(HttpRequestCaps, HeadOver64KiBInShortLinesGets400) {
  auto resp = Send(PaddedHead(99, 65 << 10));
  ASSERT_TRUE(resp.ok()) << resp.status().ToString();
  EXPECT_EQ(resp->status_code, 400);
  EXPECT_NE(resp->body.find("HTTP head exceeds"), std::string::npos)
      << resp->body;
}

TEST_F(HttpRequestCaps, HugeContentLengthGets413AtOnce) {
  // No body byte follows: the refusal must not wait for one.
  Stopwatch watch;
  auto resp = Send("POST /caps HTTP/1.1\r\nContent-Length: 1073741824\r\n\r\n");
  ASSERT_TRUE(resp.ok()) << resp.status().ToString();
  EXPECT_EQ(resp->status_code, 413);
  EXPECT_EQ(resp->headers.Get("Connection"), "close");
  EXPECT_LT(watch.ElapsedSeconds(), 5.0);
}

TEST_F(HttpRequestCaps, RequestsExactlyAtEachCapAreServed) {
  auto lines = Send(PaddedHead(kHeaderLineCap, 4096));
  ASSERT_TRUE(lines.ok()) << lines.status().ToString();
  EXPECT_EQ(lines->status_code, 200);
  EXPECT_EQ(lines->body, std::to_string(kHeaderLineCap) + " 0");

  auto head = Send(PaddedHead(99, kHeadCap));
  ASSERT_TRUE(head.ok()) << head.status().ToString();
  EXPECT_EQ(head->status_code, 200);
  EXPECT_EQ(head->body, "99 0");

  auto body = Send("POST /caps HTTP/1.1\r\nContent-Length: " +
                   std::to_string(kBodyCap) + "\r\n\r\n" +
                   std::string(kBodyCap, 'b'));
  ASSERT_TRUE(body.ok()) << body.status().ToString();
  EXPECT_EQ(body->status_code, 200);
  EXPECT_EQ(body->body, "1 " + std::to_string(kBodyCap));
}

// ---- URL parsing -------------------------------------------------------------

TEST(HttpUrl, ParseFullUrl) {
  auto url = HttpUrl::Parse("http://10.0.0.1:8080/bucket/3/1?x=2");
  ASSERT_TRUE(url.ok());
  EXPECT_EQ(url->host, "10.0.0.1");
  EXPECT_EQ(url->port, 8080);
  EXPECT_EQ(url->target, "/bucket/3/1?x=2");
}

TEST(HttpUrl, DefaultsPortAndPath) {
  auto url = HttpUrl::Parse("http://h.example");
  ASSERT_TRUE(url.ok());
  EXPECT_EQ(url->port, 80);
  EXPECT_EQ(url->target, "/");
}

TEST(HttpUrl, RejectsOtherSchemes) {
  EXPECT_FALSE(HttpUrl::Parse("https://x/").ok());
  EXPECT_FALSE(HttpUrl::Parse("ftp://x/").ok());
  EXPECT_FALSE(HttpUrl::Parse("http://:80/").ok());
}

TEST(HttpUrl, RejectsEmptyAndDanglingAuthority) {
  EXPECT_FALSE(HttpUrl::Parse("http://").ok());         // empty host
  EXPECT_FALSE(HttpUrl::Parse("http:///path").ok());    // empty host
  EXPECT_FALSE(HttpUrl::Parse("http://host:").ok());    // separator, no port
  EXPECT_FALSE(HttpUrl::Parse("http://host:/x").ok());  // ditto with path
}

TEST(HttpUrl, RejectsAmbiguousUnbracketedColons) {
  // "a:b:c" could be host "a:b" port "c" or a mangled IPv6 literal; both
  // readings are wrong often enough that the parse refuses.
  EXPECT_FALSE(HttpUrl::Parse("http://a:b:c/x").ok());
  EXPECT_FALSE(HttpUrl::Parse("http://::1:8080/x").ok());
}

TEST(HttpUrl, ParsesBracketedIpv6) {
  auto with_port = HttpUrl::Parse("http://[::1]:8080/bucket/1");
  ASSERT_TRUE(with_port.ok()) << with_port.status().ToString();
  EXPECT_EQ(with_port->host, "::1");
  EXPECT_EQ(with_port->port, 8080);
  EXPECT_EQ(with_port->target, "/bucket/1");

  auto no_port = HttpUrl::Parse("http://[fe80::2]/");
  ASSERT_TRUE(no_port.ok());
  EXPECT_EQ(no_port->host, "fe80::2");
  EXPECT_EQ(no_port->port, 80);
}

TEST(HttpUrl, RejectsMalformedBrackets) {
  EXPECT_FALSE(HttpUrl::Parse("http://[::1/x").ok());       // unterminated
  EXPECT_FALSE(HttpUrl::Parse("http://[::1]junk/x").ok());  // junk after ]
  EXPECT_FALSE(HttpUrl::Parse("http://[::1]:/x").ok());     // empty port
}

TEST(HttpUrl, RejectsBadPorts) {
  EXPECT_FALSE(HttpUrl::Parse("http://h:0/").ok());
  EXPECT_FALSE(HttpUrl::Parse("http://h:65536/").ok());
  EXPECT_FALSE(HttpUrl::Parse("http://h:banana/").ok());
  EXPECT_TRUE(HttpUrl::Parse("http://h:65535/").ok());
}

// ---- Fetch status mapping ---------------------------------------------------

TEST(FetchStatus, MapsHttpCodesToRetryClasses) {
  EXPECT_TRUE(FetchStatusFromHttpCode("u", 200).ok());
  // 404 is an authoritative miss: lineage recovery, never a retry.
  EXPECT_EQ(FetchStatusFromHttpCode("u", 404).code(), StatusCode::kNotFound);
  // Every 5xx is a server-side transient — the retry layer's territory.
  // (Regression: these used to map to kNotFound, so one mid-restart 500
  // triggered lineage invalidation instead of a backoff-retry.)
  EXPECT_EQ(FetchStatusFromHttpCode("u", 500).code(),
            StatusCode::kUnavailable);
  EXPECT_EQ(FetchStatusFromHttpCode("u", 503).code(),
            StatusCode::kUnavailable);
  EXPECT_EQ(FetchStatusFromHttpCode("u", 599).code(),
            StatusCode::kUnavailable);
  EXPECT_EQ(FetchStatusFromHttpCode("u", 403).code(), StatusCode::kInternal);
}

// ---- Server + client integration ---------------------------------------------

class HttpIntegration : public ::testing::Test {
 protected:
  void SetUp() override {
    auto server = HttpServer::Start(
        "127.0.0.1", 0,
        [this](const HttpRequest& req) { return Handle(req); });
    ASSERT_TRUE(server.ok()) << server.status().ToString();
    server_ = std::move(server).value();
  }

  HttpResponse Handle(const HttpRequest& req) {
    auto [path, query] = SplitTarget(req.target);
    (void)query;
    if (path == "/echo") {
      return HttpResponse::Ok(req.method + ":" + req.body);
    }
    if (path == "/big") {
      return HttpResponse::Ok(std::string(1 << 20, 'x'));
    }
    if (path == "/slow-big") {
      // Slow enough that an impatient peer has hung up before the write.
      slow_started_.store(true);
      SleepForSeconds(0.05);
      slow_finished_.store(true);
      return HttpResponse::Ok(std::string(8 << 20, 'x'));
    }
    if (path == "/flaky") {
      // 500s until the budget runs out, then serves — a peer mid-restart.
      if (flaky_failures_.fetch_sub(1) > 0) {
        return HttpResponse::InternalError("warming up");
      }
      return HttpResponse::Ok("recovered");
    }
    if (path == "/badsum") {
      HttpResponse resp = HttpResponse::Ok("payload");
      resp.headers.Set(std::string(kMrsChecksumHeader), "0000000000000000");
      return resp;
    }
    return HttpResponse::NotFound();
  }

  /// Run `request` on a helper thread and wait at most `seconds` for it.
  /// A request the server never answers fails the test instead of hanging
  /// it: shutting the server down releases the helper.
  bool AnsweredWithin(double seconds, std::function<bool()> request) {
    std::packaged_task<bool()> task(std::move(request));
    std::future<bool> answered = task.get_future();
    std::thread helper(std::move(task));
    bool in_time = answered.wait_for(std::chrono::duration<double>(seconds)) ==
                   std::future_status::ready;
    if (!in_time) server_->Shutdown();
    helper.join();
    return in_time && answered.get();
  }

  std::unique_ptr<HttpServer> server_;
  std::atomic<int> flaky_failures_{0};
  std::atomic<bool> slow_started_{false};
  std::atomic<bool> slow_finished_{false};
};

TEST_F(HttpIntegration, GetAndPostRoundTrip) {
  HttpClient client(server_->addr());
  auto get = client.Get("/echo");
  ASSERT_TRUE(get.ok()) << get.status().ToString();
  EXPECT_EQ(get->status_code, 200);
  EXPECT_EQ(get->body, "GET:");

  auto post = client.Post("/echo", "payload");
  ASSERT_TRUE(post.ok());
  EXPECT_EQ(post->body, "POST:payload");
}

TEST_F(HttpIntegration, KeepAliveReusesConnection) {
  HttpClient client(server_->addr());
  for (int i = 0; i < 20; ++i) {
    auto resp = client.Get("/echo");
    ASSERT_TRUE(resp.ok()) << i << ": " << resp.status().ToString();
    EXPECT_EQ(resp->status_code, 200);
  }
}

TEST_F(HttpIntegration, NotFoundStatus) {
  HttpClient client(server_->addr());
  auto resp = client.Get("/nope");
  ASSERT_TRUE(resp.ok());
  EXPECT_EQ(resp->status_code, 404);
}

TEST_F(HttpIntegration, LargeBody) {
  HttpClient client(server_->addr());
  auto resp = client.Get("/big");
  ASSERT_TRUE(resp.ok());
  EXPECT_EQ(resp->body.size(), 1u << 20);
}

TEST_F(HttpIntegration, ConcurrentClients) {
  constexpr int kThreads = 4;
  std::vector<std::thread> threads;
  std::atomic<int> ok_count{0};
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&] {
      HttpClient client(server_->addr());
      for (int i = 0; i < 25; ++i) {
        auto resp = client.Post("/echo", "x");
        if (resp.ok() && resp->body == "POST:x") ok_count.fetch_add(1);
      }
    });
  }
  for (auto& t : threads) t.join();
  EXPECT_EQ(ok_count.load(), kThreads * 25);
}

TEST_F(HttpIntegration, IdleKeepAliveClientsDoNotStarveTheNextOne) {
  // Eight peers each keep an idle keep-alive connection open.  A ninth
  // peer must still be answered promptly: open connections never use up
  // the server's capacity to serve a new one.
  std::vector<std::unique_ptr<HttpClient>> idle;
  for (int i = 0; i < 8; ++i) {
    idle.push_back(std::make_unique<HttpClient>(server_->addr()));
  }
  ASSERT_TRUE(AnsweredWithin(10.0, [&] {
    for (auto& client : idle) {
      auto resp = client->Get("/echo");
      if (!resp.ok() || resp->status_code != 200) return false;
    }
    return true;
  }));
  HttpClient ninth(server_->addr());
  EXPECT_TRUE(AnsweredWithin(2.0, [&] {
    auto resp = ninth.Get("/echo");
    return resp.ok() && resp->body == "GET:";
  }));
}

TEST_F(HttpIntegration, PeersHangingUpBeforeTheResponseDoNotKillTheServer) {
  // Writing to a peer that already hung up raises SIGPIPE unless the write
  // opts out; the default action would end the whole process.
  obs::Counter* served =
      obs::Registry::Instance().GetCounter("mrs.http.server.requests");
  int64_t before = served->value();
  for (int i = 0; i < 5; ++i) {
    auto peer = TcpConn::Connect(server_->addr());
    ASSERT_TRUE(peer.ok()) << peer.status().ToString();
    ASSERT_TRUE(peer->WriteAll("GET /slow-big HTTP/1.1\r\n\r\n").ok());
  }  // each peer closes here, before its response is written
  Stopwatch watch;
  while (served->value() - before < 5 && watch.ElapsedSeconds() < 10.0) {
    SleepForSeconds(0.01);
  }
  SleepForSeconds(0.2);  // let the writes to the departed peers fail
  HttpClient client(server_->addr());
  auto resp = client.Get("/echo");
  ASSERT_TRUE(resp.ok()) << resp.status().ToString();
  EXPECT_EQ(resp->body, "GET:");
}

TEST_F(HttpIntegration, HttpFetchHelper) {
  std::string url = server_->url_base() + "/echo";
  auto body = HttpFetch(url);
  ASSERT_TRUE(body.ok()) << body.status().ToString();
  EXPECT_EQ(*body, "GET:");
  EXPECT_FALSE(HttpFetch(server_->url_base() + "/nope").ok());
}

TEST_F(HttpIntegration, ShutdownIsIdempotentAndFast) {
  Stopwatch watch;
  server_->Shutdown();
  server_->Shutdown();
  EXPECT_LT(watch.ElapsedSeconds(), 2.0);
}

TEST_F(HttpIntegration, ShutdownWaitsForTheRequestInFlight) {
  // Shutdown half-closes every connection, but a handler already running
  // still answers its request, and Shutdown returns only after it has.
  Result<HttpResponse> resp = InternalError("not answered");
  std::thread request([&] {
    HttpClient client(server_->addr());
    resp = client.Get("/slow-big");
  });
  Stopwatch watch;
  while (!slow_started_.load() && watch.ElapsedSeconds() < 10.0) {
    SleepForSeconds(0.001);
  }
  server_->Shutdown();
  EXPECT_TRUE(slow_finished_.load());
  request.join();
  ASSERT_TRUE(resp.ok()) << resp.status().ToString();
  EXPECT_EQ(resp->body.size(), 8u << 20);
}

// Shutdown wakes the accept loop and every idle connection at once: it
// waits for no traffic and no poll timeout.  A lost wake-up hangs these
// tests until their ctest TIMEOUT.  Twenty servers must stop in less time
// than four 50 ms poll slices.
HttpResponse Empty(const HttpRequest&) { return HttpResponse::Ok(""); }

TEST(HttpServerShutdown, IdleServerStopsWithoutAnyTraffic) {
  std::vector<std::unique_ptr<HttpServer>> servers;
  for (int i = 0; i < 20; ++i) {
    auto server = HttpServer::Start("127.0.0.1", 0, Empty);
    ASSERT_TRUE(server.ok()) << server.status().ToString();
    servers.push_back(std::move(server).value());
  }
  SleepForSeconds(0.02);  // every accept thread is now waiting in poll
  Stopwatch watch;
  for (auto& server : servers) server->Shutdown();
  EXPECT_LT(watch.ElapsedSeconds(), 0.2);
}

TEST(HttpServerShutdown, IdleKeepAliveConnectionDoesNotHoldItUp) {
  double shutdown_seconds = 0;
  for (int i = 0; i < 20; ++i) {
    auto server = HttpServer::Start("127.0.0.1", 0, Empty);
    ASSERT_TRUE(server.ok()) << server.status().ToString();
    HttpClient client((*server)->addr());
    // One answered request leaves the connection open and idle.
    ASSERT_TRUE(client.Get("/").ok());
    Stopwatch watch;
    (*server)->Shutdown();
    shutdown_seconds += watch.ElapsedSeconds();
    // The listener is closed too: a late peer is refused, not queued.
    EXPECT_FALSE(TcpConn::Connect((*server)->addr(), 1.0).ok());
  }
  EXPECT_LT(shutdown_seconds, 0.2);
}

TEST_F(HttpIntegration, TransientServerErrorIsRetryableNotNotFound) {
  flaky_failures_.store(2);
  std::string url = server_->url_base() + "/flaky";
  // A bare fetch surfaces kUnavailable — the transient class — so the
  // retry layer may absorb it.  It must NOT be kNotFound, which would
  // trigger lineage invalidation on a mere hiccup.
  auto first = HttpFetch(url);
  ASSERT_FALSE(first.ok());
  EXPECT_EQ(first.status().code(), StatusCode::kUnavailable);

  flaky_failures_.store(2);
  RetryPolicy policy{.max_attempts = 4,
                     .initial_backoff_seconds = 0.001,
                     .max_backoff_seconds = 0.01};
  auto fetched = CallWithRetry(policy, &CountFetchRetry,
                               [&] { return HttpFetch(url); });
  ASSERT_TRUE(fetched.ok()) << fetched.status().ToString();
  EXPECT_EQ(*fetched, "recovered");
}

TEST_F(HttpIntegration, ChecksumMismatchIsDataLoss) {
  auto fetched = HttpFetch(server_->url_base() + "/badsum");
  ASSERT_FALSE(fetched.ok());
  EXPECT_EQ(fetched.status().code(), StatusCode::kDataLoss);
}

// ---- Connection pool --------------------------------------------------------

int64_t Connects() {
  return obs::Registry::Instance()
      .GetCounter("mrs.http.client.connects")
      ->value();
}

TEST_F(HttpIntegration, PoolReusesConnectionAcrossRequests) {
  ConnectionPool pool;
  int64_t before = Connects();
  for (int i = 0; i < 10; ++i) {
    auto resp = pool.Get(server_->addr(), "/echo");
    ASSERT_TRUE(resp.ok()) << resp.status().ToString();
    EXPECT_EQ(resp->body, "GET:");
  }
  // One dial for ten requests: the O(buckets) -> O(peers) claim.
  EXPECT_EQ(Connects() - before, 1);
  EXPECT_EQ(pool.IdleCount(), 1u);
}

TEST_F(HttpIntegration, PoolLeaseDiscardDropsConnection) {
  ConnectionPool pool;
  {
    ConnectionPool::Lease lease = pool.Acquire(server_->addr());
    ASSERT_TRUE(lease->Get("/echo").ok());
    lease.Discard();
  }
  EXPECT_EQ(pool.IdleCount(), 0u);
}

TEST_F(HttpIntegration, PoolEnforcesPerPeerCap) {
  ConnectionPool::Config config;
  config.max_idle_per_peer = 2;
  ConnectionPool pool(config);
  {
    // Four concurrent leases, all live; only two survive release.
    std::vector<ConnectionPool::Lease> leases;
    for (int i = 0; i < 4; ++i) leases.push_back(pool.Acquire(server_->addr()));
    for (auto& lease : leases) ASSERT_TRUE(lease->Get("/echo").ok());
  }
  EXPECT_EQ(pool.IdleCount(server_->addr()), 2u);
}

TEST_F(HttpIntegration, PoolClosesStaleIdleConnections) {
  ConnectionPool::Config config;
  config.max_idle_seconds = 0.0;  // everything is stale immediately
  ConnectionPool pool(config);
  int64_t before = Connects();
  ASSERT_TRUE(pool.Get(server_->addr(), "/echo").ok());
  SleepForSeconds(0.01);
  ASSERT_TRUE(pool.Get(server_->addr(), "/echo").ok());
  // The idle entry aged out, so the second request dialed fresh.
  EXPECT_EQ(Connects() - before, 2);
}

TEST_F(HttpIntegration, PooledHttpFetchDialsOncePerPeer) {
  ConnectionPool::Instance().Clear();
  int64_t before = Connects();
  for (int i = 0; i < 20; ++i) {
    auto body = HttpFetch(server_->url_base() + "/echo");
    ASSERT_TRUE(body.ok()) << body.status().ToString();
  }
  EXPECT_EQ(Connects() - before, 1);
  ConnectionPool::Instance().Clear();
}

// ---- Keep-alive reconnect race ---------------------------------------------

// A raw-socket server that plays a fixed per-connection script, for
// exercising exactly the races the real HttpServer can't produce on
// demand (closing a pooled connection between requests, truncating a
// response mid-body).
class ScriptedServer {
 public:
  enum Action {
    kServeOne,  // read one request, write a complete response, close
    kCloseNow,  // accept, then close without reading anything
    kPartial,   // read one request, write a truncated response, close
  };

  explicit ScriptedServer(std::vector<Action> script)
      : script_(std::move(script)) {
    auto listener = TcpListener::Listen("127.0.0.1", 0);
    EXPECT_TRUE(listener.ok()) << listener.status().ToString();
    listener_ = std::make_unique<TcpListener>(std::move(listener).value());
    EXPECT_TRUE(listener_->SetNonBlocking(true).ok());
    thread_ = std::thread([this] { RunScript(); });
  }

  ~ScriptedServer() {
    done_.store(true);
    if (thread_.joinable()) thread_.join();
  }

  SocketAddr addr() const { return listener_->local_addr(); }
  int requests_read() const { return requests_read_.load(); }

 private:
  void RunScript() {
    for (Action action : script_) {
      Result<TcpConn> conn = AcceptWithDeadline();
      if (!conn.ok()) return;  // test gave up before using the connection
      if (action == kCloseNow) {
        conn->Close();
        continue;
      }
      std::string req;
      char buf[4096];
      while (req.find("\r\n\r\n") == std::string::npos) {
        auto n = conn->Read(buf, sizeof(buf));
        if (!n.ok() || *n == 0) break;
        req.append(buf, *n);
      }
      requests_read_.fetch_add(1);
      if (action == kPartial) {
        // Content-Length promises more than the connection delivers.
        (void)conn->WriteAll("HTTP/1.1 200 OK\r\nContent-Length: 10\r\n\r\nabc");
      } else {
        (void)conn->WriteAll("HTTP/1.1 200 OK\r\nContent-Length: 2\r\n\r\nok");
      }
      conn->Close();
    }
  }

  Result<TcpConn> AcceptWithDeadline() {
    Stopwatch watch;
    while (watch.ElapsedSeconds() < 10.0 && !done_.load()) {
      pollfd pfd{listener_->fd(), POLLIN, 0};
      if (::poll(&pfd, 1, /*timeout_ms=*/50) > 0) return listener_->Accept();
    }
    return DeadlineExceededError("no connection arrived");
  }

  std::vector<Action> script_;
  std::unique_ptr<TcpListener> listener_;
  std::thread thread_;
  std::atomic<int> requests_read_{0};
  std::atomic<bool> done_{false};
};

TEST(ReconnectRace, PooledConnectionClosedBetweenRequestsRecoversOnce) {
  // The peer serves one request per connection and closes.  The second GET
  // drawn from the pool hits the dead socket and must transparently
  // reconnect exactly once — both requests succeed, two connections total.
  ScriptedServer server({ScriptedServer::kServeOne, ScriptedServer::kServeOne});
  ConnectionPool pool;
  auto first = pool.Get(server.addr(), "/a");
  ASSERT_TRUE(first.ok()) << first.status().ToString();
  EXPECT_EQ(first->body, "ok");
  auto second = pool.Get(server.addr(), "/a");
  ASSERT_TRUE(second.ok()) << second.status().ToString();
  EXPECT_EQ(second->body, "ok");
  EXPECT_EQ(server.requests_read(), 2);
}

TEST(ReconnectRace, DoubleFailureSurfacesErrorInsteadOfHanging) {
  // First request is served; the reconnect after the stale-socket failure
  // lands on a connection the server closes unread.  The client must give
  // up after its single transparent retry — an error, not a loop or hang.
  ScriptedServer server({ScriptedServer::kServeOne, ScriptedServer::kCloseNow});
  HttpClient client(server.addr());
  ASSERT_TRUE(client.Get("/a").ok());
  Stopwatch watch;
  auto second = client.Get("/a");
  EXPECT_FALSE(second.ok());
  EXPECT_LT(watch.ElapsedSeconds(), 5.0);
}

TEST(ReconnectRace, NonIdempotentPostIsNotResentAfterResponseStarted) {
  // The server truncates the POST's response mid-body.  The response
  // started, so the RPC may already have been applied server-side: the
  // client must surface the error rather than silently re-send.
  ScriptedServer server({ScriptedServer::kPartial, ScriptedServer::kServeOne});
  HttpClient client(server.addr());
  auto resp = client.Post("/rpc", "payload");
  EXPECT_FALSE(resp.ok());
  EXPECT_EQ(server.requests_read(), 1);
}

TEST(ReconnectRace, IdempotentGetIsResentAfterTruncatedResponse) {
  // Same truncation, but a GET is safe to repeat: one transparent resend,
  // and the second (complete) response comes back.
  ScriptedServer server({ScriptedServer::kPartial, ScriptedServer::kServeOne});
  HttpClient client(server.addr());
  auto resp = client.Get("/a");
  ASSERT_TRUE(resp.ok()) << resp.status().ToString();
  EXPECT_EQ(resp->body, "ok");
  EXPECT_EQ(server.requests_read(), 2);
}

}  // namespace
}  // namespace mrs
