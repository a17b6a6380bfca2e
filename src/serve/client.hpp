#pragma once
// Client for the logsim serving wire protocol (DESIGN.md §12, §14 for
// the binary codec, §15 for the topology field).
//
// One Client wraps one TCP connection.  The high-level calls (predict,
// predict_batch, stats, ping) are synchronous request/response; start()
// returns a SimGrid-style PredictionHandle for asynchronous use (fire
// several, then test()/wait()/wait_any()); the low-level send()/receive()
// pair remains for callers that pipeline raw frames and match responses
// by Frame::id themselves.
//
// Every connection speaks the one binary codec from its first frame;
// hello() is an optional check that the server speaks kProtocolVersion.
//
// register_program() interns a program server-side and returns a handle;
// PredictRequests carrying the handle skip program upload and parsing
// entirely (the steady-state hot path).  Handles are valid until the
// server restarts: after reconnect(), re-register before reusing one.
//
// Thread model: a Client is NOT thread-safe; use one per thread (the
// server fair-queues across connections anyway, so per-thread connections
// are also the better-behaved load shape).

#include <cstdint>
#include <optional>
#include <string>
#include <unordered_map>
#include <vector>

#include "fault/status.hpp"
#include "serve/wire.hpp"

namespace logsim::serve {

class Client;

/// One in-flight asynchronous prediction, SimGrid-activity style:
/// Client::start() sends the request and returns immediately; test()
/// polls for completion without blocking; wait() blocks for this handle;
/// Client::wait_any() blocks for the first of several.  A completed
/// handle holds the reply or the error Status.
///
/// A handle borrows the Client that issued it: it must not outlive the
/// client, survive a reconnect(), or be mixed with handles of another
/// client in wait_any().  Copying a live handle is allowed but only one
/// copy may be waited on (the reply is consumed by whichever completes
/// first).
class PredictionHandle {
 public:
  PredictionHandle() = default;

  /// The wire correlation id (0 for a default-constructed handle).
  [[nodiscard]] std::uint64_t id() const { return id_; }
  /// True once the reply (or error) has been collected locally.
  [[nodiscard]] bool done() const { return done_; }

  /// Non-blocking completion poll: drains whatever the socket already
  /// buffered and reports whether this prediction is done.  A transport
  /// failure surfaces as the Status.
  [[nodiscard]] Result<bool> test();

  /// Blocks until this prediction completes, then returns the reply (or
  /// the server's ERROR as its Status).  Idempotent once done.
  [[nodiscard]] Result<PredictReply> wait();

 private:
  friend class Client;
  PredictionHandle(Client* client, std::uint64_t id)
      : client_(client), id_(id) {}
  void complete(Frame frame);

  Client* client_ = nullptr;
  std::uint64_t id_ = 0;
  bool done_ = false;
  std::optional<PredictReply> reply_;
  Status status_;  ///< meaningful once done_; ok() iff reply_ holds a value
};

class Client {
 public:
  /// Connects to host:port (dotted-quad or "localhost").  The limits must
  /// be at least as permissive as the server's or large replies fail.
  [[nodiscard]] static Result<Client> connect(const std::string& host,
                                              std::uint16_t port,
                                              WireLimits limits = {});

  Client(Client&& other) noexcept;
  Client& operator=(Client&& other) noexcept;
  Client(const Client&) = delete;
  Client& operator=(const Client&) = delete;
  ~Client();

  /// Round-trips a PING; proves the server is alive and speaking the
  /// protocol.
  [[nodiscard]] Status ping();

  /// Checks the server speaks kProtocolVersion (HELLO).  Optional: the
  /// connection needs no handshake.
  [[nodiscard]] Status hello();

  /// The payload codec (always kBinary; kept for callers that name it).
  [[nodiscard]] Codec codec() const { return Codec::kBinary; }

  /// Interns `program_text` server-side; the returned handle, placed in
  /// PredictRequest::handle, replaces the program text on every later
  /// predict.  Registering the same program again returns the same handle.
  /// A non-empty `topology_text` (io/topology_io.hpp format) registers the
  /// program under that interconnect.
  [[nodiscard]] Result<std::uint64_t> register_program(
      const std::string& program_text, const std::string& topology_text = {});

  /// One prediction, blocking until the reply (or an ERROR, returned as
  /// its Status).  Implemented as start() + wait().
  [[nodiscard]] Result<PredictReply> predict(const PredictRequest& request);

  /// Sends one prediction and returns immediately with a handle; the
  /// reply is collected by test()/wait()/wait_any().  Any number of
  /// handles may be in flight on one connection.
  [[nodiscard]] Result<PredictionHandle> start(const PredictRequest& request);

  /// Blocks until at least one of `handles` is complete and returns its
  /// index (already-done handles win immediately, lowest index first).
  /// All handles must come from this client.
  [[nodiscard]] Result<std::size_t> wait_any(
      std::vector<PredictionHandle>& handles);

  /// Per-job outcome of a batch, mirroring runtime::JobResult: the reply,
  /// or the Status explaining its absence.
  struct BatchItem {
    std::optional<PredictReply> reply;
    Status status;  ///< ok() iff reply.has_value()

    [[nodiscard]] bool ok() const { return reply.has_value(); }
  };

  /// Sends all jobs as one BATCH frame and collects the streamed replies
  /// until the server's end-of-batch marker.  Item i corresponds to job i
  /// regardless of the (worker-dependent) arrival order.  The outer Status
  /// is transport-level only; per-job failures live in the items.
  [[nodiscard]] Result<std::vector<BatchItem>> predict_batch(
      const std::vector<PredictRequest>& jobs);

  /// The server's rendered obs::Snapshot (metrics + span aggregates).
  [[nodiscard]] Result<std::string> stats();

  /// Drops the current connection (if any) and dials the original
  /// host:port again.  Registered handles are NOT revalidated (they
  /// survive iff the same server process answered).
  [[nodiscard]] Status reconnect();

  // --- pipelining building blocks ---------------------------------------

  /// A fresh correlation id (monotonic per client).
  [[nodiscard]] std::uint64_t next_id() { return next_id_++; }

  /// Writes one frame; Status on transport failure.
  [[nodiscard]] Status send(const Frame& frame);

  /// Reads one frame; EOF mid-conversation is an error (the server never
  /// half-closes a healthy connection).
  [[nodiscard]] Result<Frame> receive();

  [[nodiscard]] int fd() const { return fd_; }

 private:
  friend class PredictionHandle;

  Client(int fd, std::string host, std::uint16_t port, WireLimits limits)
      : fd_(fd),
        host_(std::move(host)),
        port_(port),
        limits_(limits),
        assembler_(limits) {}

  [[nodiscard]] static Result<int> dial(const std::string& host,
                                        std::uint16_t port);

  /// Pulls the next complete frame off the connection through the shared
  /// assembler.  Blocking mode waits for bytes; non-blocking returns
  /// nullopt when the socket has nothing buffered.
  [[nodiscard]] Result<std::optional<Frame>> read_one(bool blocking);

  /// Drives the connection until `handle`'s reply arrives (stashing
  /// frames for other ids); returns whether it completed.
  [[nodiscard]] Result<bool> poll_handle(PredictionHandle& handle,
                                         bool blocking);

  int fd_ = -1;
  std::string host_;
  std::uint16_t port_ = 0;
  WireLimits limits_;
  std::uint64_t next_id_ = 1;
  /// Incremental frame decoder shared by every read path, so interleaving
  /// sync calls with outstanding handles never tears a frame.
  FrameAssembler assembler_;
  /// Frames that arrived for a different correlation id than the one the
  /// current wait was after (outstanding handles, pipelined replies).
  std::unordered_map<std::uint64_t, Frame> stash_;
};

}  // namespace logsim::serve
