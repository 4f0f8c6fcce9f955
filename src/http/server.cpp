#include "http/server.h"

#include <poll.h>
#include <sys/socket.h>

#include <cerrno>
#include <system_error>

#include "common/log.h"
#include "common/strings.h"
#include "http/parser.h"
#include "obs/metrics.h"
#include "obs/trace.h"

namespace mrs {

namespace {

// A keep-alive connection idle this long is closed by its thread.  Matches
// the client pool's max_idle_seconds default; a client that reuses a
// connection closed here reconnects once (HttpClient::Do).
constexpr int kIdleTimeoutMs = 30000;

}  // namespace

Result<std::unique_ptr<HttpServer>> HttpServer::Start(const std::string& host,
                                                      uint16_t port,
                                                      Handler handler,
                                                      size_t /*ignored*/) {
  MRS_ASSIGN_OR_RETURN(TcpListener listener, TcpListener::Listen(host, port));
  MRS_RETURN_IF_ERROR(listener.SetNonBlocking(true));
  return std::unique_ptr<HttpServer>(
      new HttpServer(std::move(listener), std::move(handler)));
}

HttpServer::HttpServer(TcpListener listener, Handler handler)
    : listener_(std::move(listener)), handler_(std::move(handler)) {
  accept_thread_ = std::thread([this] { AcceptLoop(); });
}

HttpServer::~HttpServer() { Shutdown(); }

void HttpServer::Shutdown() {
  bool expected = false;
  if (!stop_.compare_exchange_strong(expected, true)) return;
  // Half-closing a listening socket takes it out of the listen state, so
  // late peers get connection-refused (retryable) instead of sitting in the
  // backlog waiting on a dead server, and Linux wakes the accept loop's
  // poll with POLLHUP.
  ::shutdown(listener_.fd(), SHUT_RD);
  if (accept_thread_.joinable()) accept_thread_.join();
  listener_.Close();
  {
    // Half-closing wakes every connection thread blocked in poll with EOF;
    // a thread inside a handler answers that request first, then sees EOF.
    MutexLock lock(conns_mutex_);
    for (const auto& [fd, thread] : conns_) ::shutdown(fd, SHUT_RD);
    while (!conns_.empty()) conns_closed_.Wait(conns_mutex_);
  }
  JoinFinished();
}

void HttpServer::JoinFinished() {
  std::vector<std::thread> finished;
  {
    MutexLock lock(conns_mutex_);
    finished.swap(finished_);
  }
  for (std::thread& t : finished) t.join();
}

void HttpServer::AcceptLoop() {
  while (true) {
    JoinFinished();
    // Blocks until a peer connects or Shutdown half-closes the listener.
    pollfd pfd{listener_.fd(), POLLIN, 0};
    int n = ::poll(&pfd, 1, /*timeout_ms=*/-1);
    if (stop_.load()) return;  // before accept: a shut listener fails it
    if (n <= 0) continue;      // EINTR
    Result<TcpConn> conn = listener_.Accept();
    if (!conn.ok()) {
      if (conn.status().code() != StatusCode::kUnavailable) {
        MRS_LOG(kWarning, "http") << "accept: " << conn.status().ToString();
      }
      continue;
    }
    // Register and start under one lock: the thread's deregistration then
    // always finds its entry, and a failed start is closed and erased
    // before Shutdown can half-close its (possibly reused) descriptor.
    MutexLock lock(conns_mutex_);
    auto slot = conns_.try_emplace(conn->fd()).first;
    try {
      slot->second = std::thread([this, c = std::move(conn).value()]() mutable {
        RunConnection(std::move(c));
      });
    } catch (const std::system_error& e) {
      // The connection closed with the discarded closure.
      conns_.erase(slot);
      MRS_LOG(kWarning, "http")
          << "dropped a connection: cannot start its thread: " << e.what();
    }
  }
}

void HttpServer::RunConnection(TcpConn conn) {
  ServeRequests(conn);
  // Deregister while the fd is still open (conn closes after this
  // returns), so Shutdown never half-closes a reused descriptor number.
  MutexLock lock(conns_mutex_);
  auto self = conns_.find(conn.fd());
  finished_.push_back(std::move(self->second));
  conns_.erase(self);
  conns_closed_.NotifyAll();
}

void HttpServer::ServeRequests(const TcpConn& conn) {
  (void)conn.SetNoDelay(true);
  std::string pending;  // bytes past the current message (keep-alive)
  char buf[16384];
  while (!stop_.load()) {
    HttpRequestParser parser;
    // A request over the parser's caps is refused and the connection
    // closed: 413 for a body too large, 400 for anything else.
    auto refuse = [&conn](const Status& status) {
      HttpResponse resp =
          status.code() == StatusCode::kOutOfRange
              ? HttpResponse::Make(413, "Payload Too Large",
                                   status.ToString())
              : HttpResponse::BadRequest(status.ToString());
      resp.headers.Set("Connection", "close");
      (void)conn.WriteAll(resp.Serialize());
    };
    // Feed leftover bytes first.
    if (!pending.empty()) {
      Result<size_t> used = parser.Feed(pending);
      if (!used.ok()) return refuse(used.status());
      pending.erase(0, *used);
    }
    while (!parser.Done()) {
      pollfd pfd{conn.fd(), POLLIN, 0};
      int ready = ::poll(&pfd, 1, kIdleTimeoutMs);
      if (ready < 0 && errno == EINTR) continue;
      if (ready <= 0) return;  // idle limit reached, or poll failed
      Result<size_t> n = conn.Read(buf, sizeof(buf));
      if (!n.ok() || *n == 0) return;  // peer closed, Shutdown, or error
      std::string_view chunk(buf, *n);
      Result<size_t> used = parser.Feed(chunk);
      if (!used.ok()) return refuse(used.status());
      if (*used < chunk.size()) pending.append(chunk.substr(*used));
    }

    HttpRequest req = parser.TakeRequest();
    bool close = false;
    if (auto c = req.headers.Get("Connection");
        c.has_value() && EqualsIgnoreCase(*c, "close")) {
      close = true;
    }
    static obs::Counter* requests =
        obs::Registry::Instance().GetCounter("mrs.http.server.requests");
    static obs::Histogram* handle_seconds =
        obs::Registry::Instance().GetHistogram("mrs.http.server.handle_seconds");
    double handle_start = obs::TraceNowSeconds();
    HttpResponse resp = handler_(req);
    handle_seconds->Observe(obs::TraceNowSeconds() - handle_start);
    requests->Inc();
    resp.headers.Set("Connection", close ? "close" : "keep-alive");
    if (!conn.WriteAll(resp.Serialize()).ok()) return;
    if (close) return;
  }
}

}  // namespace mrs
