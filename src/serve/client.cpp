#include "serve/client.hpp"

#include <arpa/inet.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <sys/socket.h>
#include <unistd.h>

#include <cerrno>
#include <cstring>
#include <utility>

#include "fault/failpoint.hpp"

namespace logsim::serve {

Result<int> Client::dial(const std::string& host, std::uint16_t port) {
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(port);
  const std::string resolved = host == "localhost" ? "127.0.0.1" : host;
  if (::inet_pton(AF_INET, resolved.c_str(), &addr.sin_addr) != 1) {
    return Status::invalid_input("cannot parse server address '" + host +
                                 "' (dotted-quad IPv4 or \"localhost\")");
  }
  const int fd = ::socket(AF_INET, SOCK_STREAM | SOCK_CLOEXEC, 0);
  if (fd < 0) {
    return Status::transient(std::string{"socket: "} + std::strerror(errno));
  }
  int rc;
  do {
    rc = ::connect(fd, reinterpret_cast<const sockaddr*>(&addr), sizeof addr);
  } while (rc < 0 && errno == EINTR);
  if (rc < 0) {
    const Status st =
        Status::transient("cannot connect to " + host + ":" +
                          std::to_string(port) + ": " + std::strerror(errno));
    ::close(fd);
    return st;
  }
  const int one = 1;
  ::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof one);
  return fd;
}

Result<Client> Client::connect(const std::string& host, std::uint16_t port,
                               WireLimits limits) {
  Result<int> fd = dial(host, port);
  if (!fd.ok()) return fd.status();
  return Client{fd.value(), host, port, limits};
}

Client::Client(Client&& other) noexcept
    : fd_(std::exchange(other.fd_, -1)),
      host_(std::move(other.host_)),
      port_(other.port_),
      limits_(other.limits_),
      next_id_(other.next_id_),
      assembler_(std::move(other.assembler_)),
      stash_(std::move(other.stash_)) {}

Client& Client::operator=(Client&& other) noexcept {
  if (this != &other) {
    if (fd_ >= 0) ::close(fd_);
    fd_ = std::exchange(other.fd_, -1);
    host_ = std::move(other.host_);
    port_ = other.port_;
    limits_ = other.limits_;
    next_id_ = other.next_id_;
    assembler_ = std::move(other.assembler_);
    stash_ = std::move(other.stash_);
  }
  return *this;
}

Client::~Client() {
  if (fd_ >= 0) ::close(fd_);
}

Status Client::send(const Frame& frame) {
  return write_frame(fd_, frame, limits_);
}

Result<std::optional<Frame>> Client::read_one(bool blocking) {
  // Same injection point read_frame exposes, so fault tests cover this
  // path identically.
  if (Status st = fault::failpoint("serve.read"); !st.ok()) {
    return st.with_context("while reading a frame");
  }
  for (;;) {
    Result<std::optional<Frame>> frame = assembler_.next();
    if (!frame.ok()) return frame.status();
    if (frame->has_value()) return frame;
    char buf[64 * 1024];
    const ssize_t n =
        ::recv(fd_, buf, sizeof buf, blocking ? 0 : MSG_DONTWAIT);
    if (n > 0) {
      assembler_.feed(buf, static_cast<std::size_t>(n));
      continue;
    }
    if (n == 0) return Status::transient("server closed the connection");
    if (errno == EINTR) continue;
    if (!blocking && (errno == EAGAIN || errno == EWOULDBLOCK)) {
      return std::optional<Frame>{};  // nothing buffered right now
    }
    return Status::transient(std::string{"read failed: "} +
                             std::strerror(errno));
  }
}

Result<Frame> Client::receive() {
  Result<std::optional<Frame>> frame = read_one(/*blocking=*/true);
  if (!frame.ok()) return frame.status();
  // Blocking reads only return empty on EOF, which read_one already maps
  // to a Status; keep the guard for form.
  if (!frame->has_value()) {
    return Status::transient("server closed the connection");
  }
  return std::move(**frame);
}

Status Client::ping() {
  const std::uint64_t id = next_id();
  if (Status st = send(Frame{FrameKind::kPing, id, {}}); !st.ok()) return st;
  Result<Frame> frame = receive();
  if (!frame.ok()) return frame.status();
  if (frame->kind != FrameKind::kPong || frame->id != id) {
    return Status::invalid_input("unexpected reply to PING");
  }
  return Status{};
}

Status Client::hello() {
  const std::uint64_t id = next_id();
  if (Status st = send(Frame{FrameKind::kHello, id,
                             encode_hello_request(kProtocolVersion)});
      !st.ok()) {
    return st;
  }
  Result<Frame> frame = receive();
  if (!frame.ok()) return frame.status();
  if (frame->id != id) {
    return Status::invalid_input("out-of-order reply to HELLO");
  }
  if (frame->kind == FrameKind::kError) {
    Result<ErrorReply> reply = decode_error_reply(frame->payload);
    if (!reply.ok()) return reply.status();
    return reply->to_status();
  }
  if (frame->kind != FrameKind::kHelloAck) {
    return Status::invalid_input("unexpected reply to HELLO");
  }
  Result<std::uint32_t> version = decode_hello_ack(frame->payload);
  if (!version.ok()) return version.status();
  if (version.value() != kProtocolVersion) {
    return Status::invalid_input(
        "server acked protocol version " + std::to_string(version.value()) +
        ", expected " + std::to_string(kProtocolVersion));
  }
  return Status{};
}

Result<std::uint64_t> Client::register_program(
    const std::string& program_text, const std::string& topology_text) {
  const std::uint64_t id = next_id();
  if (Status st = send(Frame{FrameKind::kRegister, id,
                             encode_register_request(program_text,
                                                     topology_text)});
      !st.ok()) {
    return st;
  }
  Result<Frame> frame = receive();
  if (!frame.ok()) return frame.status();
  if (frame->id != id) {
    return Status::invalid_input("out-of-order reply to REGISTER");
  }
  if (frame->kind == FrameKind::kError) {
    Result<ErrorReply> reply = decode_error_reply(frame->payload);
    if (!reply.ok()) return reply.status();
    return reply->to_status();
  }
  if (frame->kind != FrameKind::kRegistered) {
    return Status::invalid_input("unexpected reply to REGISTER");
  }
  return decode_registered_reply(frame->payload);
}

Result<PredictionHandle> Client::start(const PredictRequest& request) {
  const std::uint64_t id = next_id();
  if (Status st = send(Frame{FrameKind::kPredict, id,
                             encode_predict_request(request)});
      !st.ok()) {
    return st;
  }
  return PredictionHandle{this, id};
}

Result<PredictReply> Client::predict(const PredictRequest& request) {
  Result<PredictionHandle> handle = start(request);
  if (!handle.ok()) return handle.status();
  return handle.value().wait();
}

void PredictionHandle::complete(Frame frame) {
  done_ = true;
  switch (frame.kind) {
    case FrameKind::kResult: {
      Result<PredictReply> reply = decode_predict_reply(frame.payload);
      if (reply.ok()) {
        reply_ = std::move(reply).value();
        status_ = Status{};
      } else {
        status_ = reply.status();
      }
      return;
    }
    case FrameKind::kError: {
      Result<ErrorReply> reply = decode_error_reply(frame.payload);
      status_ = reply.ok() ? reply->to_status() : reply.status();
      return;
    }
    default:
      status_ =
          Status::invalid_input("unexpected frame kind in PREDICT reply");
      return;
  }
}

Result<bool> Client::poll_handle(PredictionHandle& handle, bool blocking) {
  for (;;) {
    if (const auto it = stash_.find(handle.id_); it != stash_.end()) {
      Frame frame = std::move(it->second);
      stash_.erase(it);
      handle.complete(std::move(frame));
      return true;
    }
    Result<std::optional<Frame>> frame = read_one(blocking);
    if (!frame.ok()) return frame.status();
    if (!frame->has_value()) return false;  // non-blocking: nothing yet
    if ((*frame)->id == handle.id_) {
      handle.complete(std::move(**frame));
      return true;
    }
    stash_.emplace((*frame)->id, std::move(**frame));
  }
}

Result<bool> PredictionHandle::test() {
  if (done_) return true;
  if (client_ == nullptr) {
    return Status::invalid_input("test() on an empty prediction handle");
  }
  return client_->poll_handle(*this, /*blocking=*/false);
}

Result<PredictReply> PredictionHandle::wait() {
  if (!done_) {
    if (client_ == nullptr) {
      return Status::invalid_input("wait() on an empty prediction handle");
    }
    Result<bool> done = client_->poll_handle(*this, /*blocking=*/true);
    if (!done.ok()) return done.status();
  }
  if (reply_.has_value()) return *reply_;
  return status_;
}

Result<std::size_t> Client::wait_any(std::vector<PredictionHandle>& handles) {
  if (handles.empty()) {
    return Status::invalid_input("wait_any() on no handles");
  }
  for (;;) {
    // Completed handles (including ones whose frame is already stashed)
    // win before the socket is touched, lowest index first.
    for (std::size_t i = 0; i < handles.size(); ++i) {
      PredictionHandle& handle = handles[i];
      if (handle.done_) return i;
      if (const auto it = stash_.find(handle.id_); it != stash_.end()) {
        Frame frame = std::move(it->second);
        stash_.erase(it);
        handle.complete(std::move(frame));
        return i;
      }
    }
    Result<std::optional<Frame>> frame = read_one(/*blocking=*/true);
    if (!frame.ok()) return frame.status();
    Frame got = std::move(**frame);
    bool matched = false;
    for (std::size_t i = 0; i < handles.size(); ++i) {
      if (handles[i].id_ == got.id) {
        handles[i].complete(std::move(got));
        matched = true;
        break;
      }
    }
    if (!matched) stash_.emplace(got.id, std::move(got));
  }
}

Result<std::vector<Client::BatchItem>> Client::predict_batch(
    const std::vector<PredictRequest>& jobs) {
  const std::uint64_t id = next_id();
  if (Status st = send(
          Frame{FrameKind::kBatch, id, encode_batch_request(jobs)});
      !st.ok()) {
    return st;
  }
  std::vector<BatchItem> items(jobs.size());
  Status batch_error;
  for (;;) {
    Result<Frame> frame = receive();
    if (!frame.ok()) return frame.status();
    if (frame->id != id) {
      return Status::invalid_input("reply for a different correlation id");
    }
    if (frame->kind == FrameKind::kBatchEnd) break;
    if (frame->kind == FrameKind::kResult) {
      Result<PredictReply> reply = decode_predict_reply(frame->payload);
      if (!reply.ok()) return reply.status();
      if (reply->index >= items.size()) {
        return Status::invalid_input("reply index out of batch range");
      }
      items[reply->index].reply = std::move(reply).value();
      items[reply->index].status = Status{};
      continue;
    }
    if (frame->kind == FrameKind::kError) {
      Result<ErrorReply> reply = decode_error_reply(frame->payload);
      if (!reply.ok()) return reply.status();
      if (reply->index < items.size() && !items[reply->index].ok()) {
        items[reply->index].status = reply->to_status();
      }
      // Remember the first error: a batch-level rejection answers with
      // one ERROR + BATCH_END and must surface on every item below.
      if (batch_error.ok()) batch_error = reply->to_status();
      continue;
    }
    return Status::invalid_input("unexpected frame kind in BATCH reply");
  }
  for (BatchItem& item : items) {
    if (!item.ok() && item.status.ok()) {
      item.status = batch_error.ok()
                        ? Status::internal("batch ended without a reply")
                        : batch_error;
    }
  }
  return items;
}

Result<std::string> Client::stats() {
  const std::uint64_t id = next_id();
  if (Status st = send(Frame{FrameKind::kStats, id, {}}); !st.ok()) return st;
  Result<Frame> frame = receive();
  if (!frame.ok()) return frame.status();
  if (frame->kind == FrameKind::kError) {
    Result<ErrorReply> reply = decode_error_reply(frame->payload);
    if (!reply.ok()) return reply.status();
    return reply->to_status();
  }
  if (frame->kind != FrameKind::kStatsText || frame->id != id) {
    return Status::invalid_input("unexpected reply to STATS");
  }
  return std::move(frame->payload);
}

Status Client::reconnect() {
  if (fd_ >= 0) {
    ::close(fd_);
    fd_ = -1;
  }
  // Buffered bytes and stashed replies belong to the dead connection;
  // outstanding PredictionHandles are invalidated (documented contract).
  assembler_ = FrameAssembler{limits_};
  stash_.clear();
  Result<int> fd = dial(host_, port_);
  if (!fd.ok()) return fd.status();
  fd_ = fd.value();
  return Status{};
}

}  // namespace logsim::serve
