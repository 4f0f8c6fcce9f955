// Tests for socket addresses and TCP listen/connect/read/write.
#include <gtest/gtest.h>

#include <thread>

#include "net/socket.h"

namespace mrs {
namespace {

TEST(SocketAddr, ParseAndFormat) {
  auto addr = SocketAddr::Parse("127.0.0.1:8080");
  ASSERT_TRUE(addr.ok());
  EXPECT_EQ(addr->host, "127.0.0.1");
  EXPECT_EQ(addr->port, 8080);
  EXPECT_EQ(addr->ToString(), "127.0.0.1:8080");
}

TEST(SocketAddr, ParseRejectsBadInput) {
  EXPECT_FALSE(SocketAddr::Parse("no-port").ok());
  EXPECT_FALSE(SocketAddr::Parse("host:99999").ok());
  EXPECT_FALSE(SocketAddr::Parse("host:abc").ok());
}

TEST(Tcp, ListenEphemeralPortAssigned) {
  auto listener = TcpListener::Listen("127.0.0.1", 0);
  ASSERT_TRUE(listener.ok()) << listener.status().ToString();
  EXPECT_GT(listener->local_addr().port, 0);
}

TEST(Tcp, RoundTripData) {
  auto listener = TcpListener::Listen("127.0.0.1", 0);
  ASSERT_TRUE(listener.ok());

  std::thread server([&] {
    auto conn = listener->Accept();
    ASSERT_TRUE(conn.ok());
    char buf[64];
    auto n = conn->Read(buf, sizeof(buf));
    ASSERT_TRUE(n.ok());
    // Echo back upper-cased.
    for (size_t i = 0; i < *n; ++i) buf[i] = static_cast<char>(buf[i] ^ 0x20);
    ASSERT_TRUE(conn->WriteAll(buf, *n).ok());
  });

  auto conn = TcpConn::Connect(listener->local_addr());
  ASSERT_TRUE(conn.ok()) << conn.status().ToString();
  ASSERT_TRUE(conn->WriteAll("hello").ok());
  char buf[64];
  auto n = conn->Read(buf, sizeof(buf));
  ASSERT_TRUE(n.ok());
  EXPECT_EQ(std::string(buf, *n), "HELLO");
  server.join();
}

TEST(Tcp, ConnectToClosedPortFails) {
  // Bind then immediately drop a listener to find a (very likely) free port.
  uint16_t port;
  {
    auto listener = TcpListener::Listen("127.0.0.1", 0);
    ASSERT_TRUE(listener.ok());
    port = listener->local_addr().port;
  }
  auto conn = TcpConn::Connect(SocketAddr{"127.0.0.1", port}, 2.0);
  EXPECT_FALSE(conn.ok());
}

TEST(Tcp, ReadToEndSeesEof) {
  auto listener = TcpListener::Listen("127.0.0.1", 0);
  ASSERT_TRUE(listener.ok());
  std::thread server([&] {
    auto conn = listener->Accept();
    ASSERT_TRUE(conn.ok());
    ASSERT_TRUE(conn->WriteAll("abc123").ok());
    // close on scope exit = EOF for the client
  });
  auto conn = TcpConn::Connect(listener->local_addr());
  ASSERT_TRUE(conn.ok());
  auto all = conn->ReadToEnd();
  ASSERT_TRUE(all.ok());
  EXPECT_EQ(*all, "abc123");
  server.join();
}

}  // namespace
}  // namespace mrs
