// TCP sockets (blocking and non-blocking) over IPv4.
//
// The Mrs master listens on one TCP port (written to a port file when
// ephemeral); slaves connect knowing only host:port.  Intermediate data is
// served by a per-slave HTTP server on another ephemeral port.  These
// wrappers provide exactly that: listen/accept/connect plus whole-buffer
// send/recv helpers with Status-based error reporting.
#pragma once

#include <cstdint>
#include <string>
#include <string_view>

#include "common/status.h"
#include "net/fd.h"

namespace mrs {

/// host:port pair; host is an IPv4 dotted quad or "localhost".
struct SocketAddr {
  std::string host;
  uint16_t port = 0;

  std::string ToString() const;
  /// Parse "host:port".
  static Result<SocketAddr> Parse(std::string_view s);
};

class TcpConn;

/// A listening TCP socket bound to 127.0.0.1 (or a given host).
class TcpListener {
 public:
  /// Bind and listen; port 0 picks an ephemeral port (retrievable via
  /// local_addr), mirroring Mrs's "master writes its port to a file".
  static Result<TcpListener> Listen(const std::string& host, uint16_t port,
                                    int backlog = 128);

  const SocketAddr& local_addr() const { return addr_; }
  int fd() const { return fd_.get(); }

  /// Blocking accept.
  Result<TcpConn> Accept() const;

  /// Make accepts non-blocking, so an accept loop that polls first never
  /// blocks on a connection the peer reset before it was accepted.
  Status SetNonBlocking(bool enabled) const;

  /// Stop listening.  Pending not-yet-accepted connections are reset, and
  /// later connect()s are refused — without this, a peer connecting after
  /// the acceptor stopped would queue in the backlog and block forever
  /// waiting for a response no one will send.
  void Close() { fd_.Reset(); }

 private:
  TcpListener(Fd fd, SocketAddr addr) : fd_(std::move(fd)), addr_(std::move(addr)) {}
  Fd fd_;
  SocketAddr addr_;
};

/// A connected TCP stream.
class TcpConn {
 public:
  TcpConn() = default;
  explicit TcpConn(Fd fd) : fd_(std::move(fd)) {}

  /// Blocking connect with optional timeout (seconds; <=0 means default OS
  /// behaviour).
  static Result<TcpConn> Connect(const SocketAddr& addr,
                                 double timeout_seconds = 10.0);

  bool valid() const { return fd_.valid(); }
  int fd() const { return fd_.get(); }

  Status SetNoDelay(bool enabled) const;

  /// Read up to `len` bytes.  Returns 0 on orderly EOF.
  Result<size_t> Read(void* buf, size_t len) const;

  /// Write exactly `len` bytes (loops over partial writes).  A closed peer
  /// is an error Status, never a SIGPIPE.
  Status WriteAll(const void* buf, size_t len) const;
  Status WriteAll(std::string_view s) const {
    return WriteAll(s.data(), s.size());
  }

  /// Read until EOF into a string (bounded by max_bytes).
  Result<std::string> ReadToEnd(size_t max_bytes = 64 << 20) const;

  void Close() { fd_.Reset(); }

 private:
  Fd fd_;
};

}  // namespace mrs
