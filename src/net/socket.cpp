#include "net/socket.h"

#include <arpa/inet.h>
#include <fcntl.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <poll.h>
#include <sys/socket.h>
#include <unistd.h>

#include <cerrno>
#include <cstring>

#include "common/strings.h"

namespace mrs {

namespace {

Result<in_addr> ResolveHost(const std::string& host) {
  in_addr addr{};
  std::string h = (host.empty() || host == "localhost") ? "127.0.0.1" : host;
  if (::inet_pton(AF_INET, h.c_str(), &addr) != 1) {
    return InvalidArgumentError("cannot parse IPv4 address: " + host);
  }
  return addr;
}

Status SetFdNonBlocking(int fd, bool enabled) {
  int flags = ::fcntl(fd, F_GETFL, 0);
  if (flags < 0) return IoErrorFromErrno("fcntl(F_GETFL)", errno);
  if (enabled) {
    flags |= O_NONBLOCK;
  } else {
    flags &= ~O_NONBLOCK;
  }
  if (::fcntl(fd, F_SETFL, flags) < 0) {
    return IoErrorFromErrno("fcntl(F_SETFL)", errno);
  }
  return Status::Ok();
}

}  // namespace

std::string SocketAddr::ToString() const {
  return host + ":" + std::to_string(port);
}

Result<SocketAddr> SocketAddr::Parse(std::string_view s) {
  size_t colon = s.rfind(':');
  if (colon == std::string_view::npos) {
    return InvalidArgumentError("address missing ':': " + std::string(s));
  }
  auto port = ParseUint64(s.substr(colon + 1));
  if (!port.has_value() || *port > 65535) {
    return InvalidArgumentError("bad port in address: " + std::string(s));
  }
  SocketAddr addr;
  addr.host = std::string(s.substr(0, colon));
  addr.port = static_cast<uint16_t>(*port);
  return addr;
}

Result<TcpListener> TcpListener::Listen(const std::string& host, uint16_t port,
                                        int backlog) {
  MRS_ASSIGN_OR_RETURN(in_addr ip, ResolveHost(host));
  Fd fd(::socket(AF_INET, SOCK_STREAM, 0));
  if (!fd.valid()) return IoErrorFromErrno("socket", errno);

  int one = 1;
  ::setsockopt(fd.get(), SOL_SOCKET, SO_REUSEADDR, &one, sizeof(one));

  sockaddr_in sa{};
  sa.sin_family = AF_INET;
  sa.sin_addr = ip;
  sa.sin_port = htons(port);
  if (::bind(fd.get(), reinterpret_cast<sockaddr*>(&sa), sizeof(sa)) < 0) {
    return IoErrorFromErrno("bind", errno);
  }
  if (::listen(fd.get(), backlog) < 0) {
    return IoErrorFromErrno("listen", errno);
  }

  // Recover the actual port for ephemeral binds.
  sockaddr_in bound{};
  socklen_t len = sizeof(bound);
  if (::getsockname(fd.get(), reinterpret_cast<sockaddr*>(&bound), &len) < 0) {
    return IoErrorFromErrno("getsockname", errno);
  }
  SocketAddr addr;
  char buf[INET_ADDRSTRLEN];
  ::inet_ntop(AF_INET, &bound.sin_addr, buf, sizeof(buf));
  addr.host = buf;
  addr.port = ntohs(bound.sin_port);
  return TcpListener(std::move(fd), std::move(addr));
}

Result<TcpConn> TcpListener::Accept() const {
  while (true) {
    int cfd = ::accept(fd_.get(), nullptr, nullptr);
    if (cfd >= 0) {
      return TcpConn(Fd(cfd));
    }
    if (errno == EINTR) continue;
    if (errno == EAGAIN || errno == EWOULDBLOCK) {
      return UnavailableError("accept would block");
    }
    return IoErrorFromErrno("accept", errno);
  }
}

Status TcpListener::SetNonBlocking(bool enabled) const {
  return SetFdNonBlocking(fd_.get(), enabled);
}

Result<TcpConn> TcpConn::Connect(const SocketAddr& addr,
                                 double timeout_seconds) {
  MRS_ASSIGN_OR_RETURN(in_addr ip, ResolveHost(addr.host));
  Fd fd(::socket(AF_INET, SOCK_STREAM, 0));
  if (!fd.valid()) return IoErrorFromErrno("socket", errno);

  sockaddr_in sa{};
  sa.sin_family = AF_INET;
  sa.sin_addr = ip;
  sa.sin_port = htons(addr.port);

  if (timeout_seconds > 0) {
    MRS_RETURN_IF_ERROR(SetFdNonBlocking(fd.get(), true));
    int rc = ::connect(fd.get(), reinterpret_cast<sockaddr*>(&sa), sizeof(sa));
    if (rc < 0 && errno != EINPROGRESS) {
      return IoErrorFromErrno("connect " + addr.ToString(), errno);
    }
    if (rc < 0) {
      pollfd pfd{fd.get(), POLLOUT, 0};
      int timeout_ms = static_cast<int>(timeout_seconds * 1000);
      int n = ::poll(&pfd, 1, timeout_ms);
      if (n == 0) {
        return DeadlineExceededError("connect timed out: " + addr.ToString());
      }
      if (n < 0) return IoErrorFromErrno("poll(connect)", errno);
      int err = 0;
      socklen_t len = sizeof(err);
      if (::getsockopt(fd.get(), SOL_SOCKET, SO_ERROR, &err, &len) < 0 ||
          err != 0) {
        return Status(StatusCode::kUnavailable,
                      "connect " + addr.ToString() + " failed: " +
                          std::strerror(err != 0 ? err : errno));
      }
    }
    MRS_RETURN_IF_ERROR(SetFdNonBlocking(fd.get(), false));
  } else {
    while (::connect(fd.get(), reinterpret_cast<sockaddr*>(&sa), sizeof(sa)) <
           0) {
      if (errno == EINTR) continue;
      return Status(StatusCode::kUnavailable,
                    "connect " + addr.ToString() + " failed: " +
                        std::strerror(errno));
    }
  }
  return TcpConn(std::move(fd));
}

Status TcpConn::SetNoDelay(bool enabled) const {
  int v = enabled ? 1 : 0;
  if (::setsockopt(fd_.get(), IPPROTO_TCP, TCP_NODELAY, &v, sizeof(v)) < 0) {
    return IoErrorFromErrno("setsockopt(TCP_NODELAY)", errno);
  }
  return Status::Ok();
}

Result<size_t> TcpConn::Read(void* buf, size_t len) const {
  while (true) {
    ssize_t n = ::read(fd_.get(), buf, len);
    if (n >= 0) return static_cast<size_t>(n);
    if (errno == EINTR) continue;
    if (errno == EAGAIN || errno == EWOULDBLOCK) {
      return UnavailableError("read would block");
    }
    return IoErrorFromErrno("read", errno);
  }
}

Status TcpConn::WriteAll(const void* buf, size_t len) const {
  const uint8_t* p = static_cast<const uint8_t*>(buf);
  size_t written = 0;
  while (written < len) {
    // MSG_NOSIGNAL: a peer that hung up must surface as an error Status
    // (EPIPE), not as a SIGPIPE that kills the whole process.
    ssize_t n = ::send(fd_.get(), p + written, len - written, MSG_NOSIGNAL);
    if (n < 0) {
      if (errno == EINTR) continue;
      return IoErrorFromErrno("send", errno);
    }
    written += static_cast<size_t>(n);
  }
  return Status::Ok();
}

Result<std::string> TcpConn::ReadToEnd(size_t max_bytes) const {
  std::string out;
  char buf[16384];
  while (out.size() < max_bytes) {
    MRS_ASSIGN_OR_RETURN(size_t n, Read(buf, sizeof(buf)));
    if (n == 0) return out;
    out.append(buf, n);
  }
  return DataLossError("ReadToEnd exceeded max_bytes");
}

}  // namespace mrs
