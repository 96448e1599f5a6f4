#include "serve/server.h"

#include <arpa/inet.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <cstring>
#include <utility>

#include "serve/dispatch.h"
#include "serve/wire.h"

namespace dbs::serve {
namespace {

[[nodiscard]] Status SocketError(const char* what) {
  return Status::IoError(std::string(what) + ": " + std::strerror(errno));
}

}  // namespace

Result<std::unique_ptr<Server>> Server::Start(ModelService* service,
                                              const ServerOptions& options) {
  if (service == nullptr) {
    return Status::InvalidArgument("server requires a service");
  }
  int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  if (fd < 0) return SocketError("socket");

  int reuse = 1;
  ::setsockopt(fd, SOL_SOCKET, SO_REUSEADDR, &reuse, sizeof(reuse));

  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  addr.sin_port = htons(options.port);
  if (::bind(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) != 0) {
    ::close(fd);
    return SocketError("bind");
  }
  if (::listen(fd, std::max(options.backlog, 1)) != 0) {
    ::close(fd);
    return SocketError("listen");
  }
  socklen_t addr_len = sizeof(addr);
  if (::getsockname(fd, reinterpret_cast<sockaddr*>(&addr), &addr_len) != 0) {
    ::close(fd);
    return SocketError("getsockname");
  }

  std::unique_ptr<Server> server(
      new Server(  // dbs-lint: allow(raw-alloc): private ctor
          service, fd, ntohs(addr.sin_port)));
  server->acceptor_ = std::thread([raw = server.get()] { raw->AcceptLoop(); });
  return server;
}

Server::Server(ModelService* service, int listen_fd, uint16_t port)
    : service_(service), listen_fd_(listen_fd), port_(port) {}

Server::~Server() { Stop(); }

void Server::AcceptLoop() {
  for (;;) {
    int fd = ::accept(listen_fd_, nullptr, nullptr);
    if (fd < 0) {
      if (errno == EINTR) continue;
      // Listener was shut down (Stop) or broke; either way we are done.
      return;
    }
    int nodelay = 1;
    ::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &nodelay, sizeof(nodelay));
    std::lock_guard<std::mutex> lock(mu_);
    if (stopping_) {
      ::close(fd);
      return;
    }
    connection_fds_.push_back(fd);
    connection_threads_.emplace_back([this, fd] { HandleConnection(fd); });
  }
}

void Server::HandleConnection(int fd) {
  for (;;) {
    auto frame = ReadFrame(fd);
    if (!frame.ok()) break;  // Peer closed, malformed framing or Stop().
    if (!ServeOne(fd, *frame)) break;
  }
  // Unlink before closing so Stop never touches a recycled descriptor.
  {
    std::lock_guard<std::mutex> lock(mu_);
    connection_fds_.erase(
        std::remove(connection_fds_.begin(), connection_fds_.end(), fd),
        connection_fds_.end());
  }
  ::close(fd);
}

bool Server::ServeOne(int fd, const Frame& frame) {
  DispatchResult result = DispatchFrame(service_, frame);
  bool write_ok =
      WriteFrame(fd, result.response.type, result.response.payload).ok();
  if (result.shutdown) RequestShutdown();
  return write_ok && !result.close;
}

void Server::RequestShutdown() {
  {
    std::lock_guard<std::mutex> lock(mu_);
    shutdown_requested_ = true;
  }
  shutdown_cv_.notify_all();
}

void Server::WaitForShutdown() {
  std::unique_lock<std::mutex> lock(mu_);
  shutdown_cv_.wait(lock,
                    [this] { return shutdown_requested_ || stopping_; });
}

void Server::Stop() {
  std::vector<std::thread> to_join;
  {
    std::lock_guard<std::mutex> lock(mu_);
    if (!stopping_) {
      stopping_ = true;
      // Wake the blocked accept and every blocked connection read.
      ::shutdown(listen_fd_, SHUT_RDWR);
      for (int fd : connection_fds_) ::shutdown(fd, SHUT_RDWR);
    }
  }
  shutdown_cv_.notify_all();
  if (acceptor_.joinable()) acceptor_.join();
  {
    std::lock_guard<std::mutex> lock(mu_);
    to_join.swap(connection_threads_);
  }
  for (std::thread& t : to_join) {
    if (t.joinable()) t.join();
  }
  if (listen_fd_ >= 0) {
    ::close(listen_fd_);
    listen_fd_ = -1;
  }
}

}  // namespace dbs::serve
