// Threaded HTTP/1.1 server.
//
// Plays the role of the "built-in HTTP server" each Mrs slave runs to serve
// intermediate data files, and carries XML-RPC traffic for the master.  One
// accept thread blocks in poll on the listener and starts one thread per
// accepted connection.  That thread serves the connection's keep-alive
// requests until the peer closes, the connection idles past a fixed limit,
// or Shutdown() half-closes it.  Handlers are plain functions from request to
// response, and they may block — the master's get_task long-polls — which
// is why connections get their own threads instead of sharing a bounded
// pool: a pool smaller than the number of open peer connections would
// leave the extra peers waiting forever.
#pragma once

#include <atomic>
#include <functional>
#include <map>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "common/mutex.h"
#include "common/status.h"
#include "common/thread_annotations.h"
#include "http/message.h"
#include "net/socket.h"

namespace mrs {

class HttpServer {
 public:
  using Handler = std::function<HttpResponse(const HttpRequest&)>;

  /// Bind to host:port (port 0 = ephemeral) and start serving.  The
  /// trailing size_t is ignored.  It used to size a fixed worker pool and
  /// stays only so that callers written against that signature still
  /// compile; every connection now gets its own thread.
  static Result<std::unique_ptr<HttpServer>> Start(const std::string& host,
                                                   uint16_t port,
                                                   Handler handler,
                                                   size_t /*ignored*/ = 0);

  ~HttpServer();

  HttpServer(const HttpServer&) = delete;
  HttpServer& operator=(const HttpServer&) = delete;

  const SocketAddr& addr() const { return listener_.local_addr(); }
  std::string url_base() const {
    return "http://" + addr().ToString();
  }

  /// Stop accepting and close the listener, half-close every open
  /// connection, and join each connection thread once it has answered its
  /// request in flight, so no handler outlives the server.  Returns as
  /// soon as those threads are joined: nothing waits for a timeout.
  /// Idempotent.
  void Shutdown();

 private:
  HttpServer(TcpListener listener, Handler handler);
  void AcceptLoop();
  /// Body of a connection's thread: serve, then deregister.
  void RunConnection(TcpConn conn);
  void ServeRequests(const TcpConn& conn);
  /// Join the threads of connections that have closed (at each accept,
  /// and in Shutdown).
  void JoinFinished();

  TcpListener listener_;
  Handler handler_;
  std::atomic<bool> stop_{false};

  Mutex conns_mutex_;
  CondVar conns_closed_;
  /// Threads of open connections, keyed by descriptor.
  std::map<int, std::thread> conns_ MRS_GUARDED_BY(conns_mutex_);
  /// Threads whose connection has closed, not yet joined.
  std::vector<std::thread> finished_ MRS_GUARDED_BY(conns_mutex_);

  std::thread accept_thread_;  // last: it uses every member above
};

}  // namespace mrs
