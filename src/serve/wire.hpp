#pragma once
// Wire format of the logsim serving layer (DESIGN.md §12, §14).
//
// Every message is one length-prefixed frame over a byte stream:
//
//   u32le payload_len | u8 kind | u64le id | payload bytes
//
// The 13-byte header is fixed; `id` is a client-chosen correlation id
// echoed verbatim on every response to the request (batch jobs stream back
// as one kResult per job, tagged with the job index inside the payload,
// then one kBatchEnd).
//
// Payloads use one binary codec: fixed-width little-endian integers,
// doubles as raw IEEE-754 bits (so a served prediction is bit-identical
// to an in-process one), strings as u32le length + raw bytes.  Program
// and topology text stay in the io formats inside those strings.
//
//   PREDICT:    u8 flags (bit0 = has handle, bit1 = has topology) |
//               u64 handle | u64 seed | u64 deadline_ms | str params |
//               str program | [str topology   iff bit1]
//   BATCH:      u32 count | count * (str embedded-PREDICT-payload)
//   RESULT:     u64 index | f64 total | f64 comp | f64 comm |
//               f64 total_worst | f64 comm_worst | u8 from_cache |
//               u32 attempts
//   ERROR:      u64 index | str code-name | str message
//   REGISTERED: u64 handle
//
// (A reply always carries BOTH the standard and the worst-case schedule's
// numbers -- the predictor computes both anyway -- so there is no "worst"
// request flag; clients pick which to display.)
//
// Every connection speaks this codec from its first frame.  HELLO is an
// optional check, not a negotiation: the client sends the "LSIM" magic and
// the version it speaks; the server acks kProtocolVersion when the offer
// is at least that, and answers an older offer with an invalid-input
// ERROR.
//
// REGISTER interns a program on the server and returns a compact handle;
// steady-state PREDICT payloads then carry (handle, params, seed) and no
// program text at all.
//
// Untrusted boundary on both ends: oversized declared lengths, truncated
// streams and malformed envelopes all come back as Status -- never an
// unbounded read or an assert.  WireLimits::max_payload is the explicit
// max-message size; io parse options inherit it so a hostile payload is
// rejected before it allocates.

#include <cstddef>
#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "fault/status.hpp"

namespace logsim::serve {

/// Frame type tag.  Requests are < 64, responses >= 64, so a peer can
/// cheaply sanity-check direction.
enum class FrameKind : std::uint8_t {
  kPing = 1,
  kPredict = 2,
  kBatch = 3,
  kStats = 4,
  kHello = 5,     ///< protocol version check; payload is version-framed
  kRegister = 6,  ///< intern a program; payload is the raw program text
  kPong = 64,
  kResult = 65,
  kError = 66,
  kStatsText = 67,
  kBatchEnd = 68,
  kHelloAck = 69,    ///< the server's protocol version
  kRegistered = 70,  ///< the handle assigned by REGISTER
};

/// The one payload codec; kept as a type only because benchmark/ names it.
enum class Codec : std::uint8_t {
  kBinary = 2,
};

/// The protocol version this build speaks and acks on HELLO.  Its bytes
/// are those of the former v3, so a v3 peer keeps working.
inline constexpr std::uint32_t kProtocolVersion = 3;

/// True for kinds this build understands (a peer speaking a newer protocol
/// revision gets a protocol error, not undefined behaviour).
[[nodiscard]] bool frame_kind_known(std::uint8_t kind);

struct Frame {
  FrameKind kind = FrameKind::kPing;
  std::uint64_t id = 0;
  std::string payload;
};

struct WireLimits {
  /// Hard cap on one frame's payload; both sides enforce it on send and
  /// on the declared length before reading a body.  Also forwarded into
  /// the io parsers' max_bytes.
  std::size_t max_payload = 16ull << 20;
};

inline constexpr std::size_t kFrameHeaderBytes = 13;

/// Serializes the 13-byte header into `out` (appended).
void append_frame(std::string& out, const Frame& frame);

/// Writes one frame to `fd`, looping over partial writes.  Transient
/// failures (EINTR aside, which is retried silently) come back as Status;
/// the "serve.write" failpoint fires here.
[[nodiscard]] Status write_frame(int fd, const Frame& frame,
                                 const WireLimits& limits);

/// Reads one frame from `fd`.  Returns nullopt on a clean EOF at a frame
/// boundary (the peer hung up between messages); a stream that ends inside
/// a frame is an invalid-input "truncated frame" error, and a declared
/// payload length above limits.max_payload is rejected WITHOUT reading the
/// body.  The "serve.read" failpoint fires per call.
[[nodiscard]] Result<std::optional<Frame>> read_frame(int fd,
                                                      const WireLimits& limits);

/// Incremental frame decoder for event-loop readers: feed bytes in, pull
/// complete frames out.  Enforces the same limits as read_frame.
class FrameAssembler {
 public:
  explicit FrameAssembler(WireLimits limits) : limits_(limits) {}

  /// Appends raw bytes received from the peer.
  void feed(const char* data, std::size_t n) { buffer_.append(data, n); }

  /// Extracts the next complete frame, if any.  A malformed header
  /// (oversized declared length, unknown kind) poisons the stream: the
  /// error is returned now and on every later call.
  [[nodiscard]] Result<std::optional<Frame>> next();

  /// Bytes buffered but not yet consumed (for tests / diagnostics).
  [[nodiscard]] std::size_t buffered() const { return buffer_.size(); }

 private:
  WireLimits limits_;
  std::string buffer_;
  std::size_t consumed_ = 0;  // compacted lazily
  Status poisoned_;           // sticky protocol error
};

// --- request / response envelopes ---------------------------------------

struct PredictRequest {
  std::string params_text = "meiko";  ///< io::parse_params input
  std::uint64_t seed = 1;
  /// Per-request wall-clock budget in milliseconds; 0 = server default.
  std::uint64_t deadline_ms = 0;
  std::string program_text;  ///< io::parse_program input
  /// Registered-program handle from a prior REGISTER; 0 = none, the
  /// request carries program_text instead.  A nonzero handle wins over any
  /// program text.
  std::uint64_t handle = 0;
  /// Network topology in the io/topology_io.hpp text format ("torus:4x4",
  /// "fattree:4,4/1,2", ...); empty = the flat LogGP network.  On a handle
  /// request a non-empty value overrides the topology the program was
  /// registered with.
  std::string topology_text;
};

struct PredictReply {
  std::uint64_t index = 0;  ///< job index inside a batch; 0 for singles
  double total_us = 0.0;
  double comp_us = 0.0;
  double comm_us = 0.0;
  double total_worst_us = 0.0;
  double comm_worst_us = 0.0;
  bool from_cache = false;
  int attempts = 0;
};

struct ErrorReply {
  std::uint64_t index = 0;
  ErrorCode code = ErrorCode::kInternal;
  std::string message;

  [[nodiscard]] Status to_status() const { return Status{code, message}; }
};

// Each encoder/decoder pair round-trips the identical struct values,
// doubles bit-for-bit.

[[nodiscard]] std::string encode_predict_request(const PredictRequest& req,
                                                 Codec codec = Codec::kBinary);
[[nodiscard]] Result<PredictRequest> decode_predict_request(
    const std::string& payload, Codec codec = Codec::kBinary);

[[nodiscard]] std::string encode_batch_request(
    const std::vector<PredictRequest>& jobs, Codec codec = Codec::kBinary);
[[nodiscard]] Result<std::vector<PredictRequest>> decode_batch_request(
    const std::string& payload, const WireLimits& limits,
    Codec codec = Codec::kBinary);

[[nodiscard]] std::string encode_predict_reply(const PredictReply& reply,
                                               Codec codec = Codec::kBinary);
[[nodiscard]] Result<PredictReply> decode_predict_reply(
    const std::string& payload, Codec codec = Codec::kBinary);

[[nodiscard]] std::string encode_error_reply(const ErrorReply& reply,
                                             Codec codec = Codec::kBinary);
[[nodiscard]] Result<ErrorReply> decode_error_reply(
    const std::string& payload, Codec codec = Codec::kBinary);

// --- version check + registration ---------------------------------------

/// HELLO payload: "LSIM" magic + u32le version the client speaks.
[[nodiscard]] std::string encode_hello_request(std::uint32_t version);
[[nodiscard]] Result<std::uint32_t> decode_hello_request(
    const std::string& payload);

/// HELLO-ACK payload: u32le version the server speaks (kProtocolVersion).
[[nodiscard]] std::string encode_hello_ack(std::uint32_t version);
[[nodiscard]] Result<std::uint32_t> decode_hello_ack(
    const std::string& payload);

// REGISTER requests carry the raw program text as the payload (no
// envelope; the text IS the message), optionally prefixed with one
// "topology <spec>\n" line that split_register_request peels.
[[nodiscard]] std::string encode_registered_reply(std::uint64_t handle,
                                                  Codec codec = Codec::kBinary);
[[nodiscard]] Result<std::uint64_t> decode_registered_reply(
    const std::string& payload, Codec codec = Codec::kBinary);

/// A REGISTER payload split into its optional topology prefix and the
/// program text proper.
struct RegisterRequest {
  std::string topology_text;  ///< empty = flat (no prefix present)
  std::string program_text;
};

/// Builds a REGISTER payload: the program text, prefixed with one
/// "topology <spec>\n" line when `topology_text` is non-empty.
[[nodiscard]] std::string encode_register_request(
    const std::string& program_text, const std::string& topology_text);

/// Splits a REGISTER payload.  A payload without the prefix comes back
/// with an empty topology_text and the payload as program_text verbatim.
[[nodiscard]] RegisterRequest split_register_request(
    const std::string& payload);

}  // namespace logsim::serve
