#include "serve/wire.hpp"

#include <unistd.h>

#include <algorithm>
#include <bit>
#include <cerrno>
#include <cstring>

#include "fault/failpoint.hpp"

namespace logsim::serve {

namespace {

constexpr char kHelloMagic[4] = {'L', 'S', 'I', 'M'};

constexpr std::uint8_t kPredictFlagHandle = 0x01;
/// A topology string trails the program string.
constexpr std::uint8_t kPredictFlagTopology = 0x02;
constexpr std::uint8_t kPredictFlagsKnown =
    kPredictFlagHandle | kPredictFlagTopology;

void put_u32le(std::string& out, std::uint32_t v) {
  for (int i = 0; i < 4; ++i) {
    out.push_back(static_cast<char>((v >> (8 * i)) & 0xff));
  }
}

void put_u64le(std::string& out, std::uint64_t v) {
  for (int i = 0; i < 8; ++i) {
    out.push_back(static_cast<char>((v >> (8 * i)) & 0xff));
  }
}

std::uint32_t get_u32le(const char* p) {
  std::uint32_t v = 0;
  for (int i = 0; i < 4; ++i) {
    v |= static_cast<std::uint32_t>(static_cast<unsigned char>(p[i])) << (8 * i);
  }
  return v;
}

std::uint64_t get_u64le(const char* p) {
  std::uint64_t v = 0;
  for (int i = 0; i < 8; ++i) {
    v |= static_cast<std::uint64_t>(static_cast<unsigned char>(p[i])) << (8 * i);
  }
  return v;
}

void put_double_le(std::string& out, double v) {
  put_u64le(out, std::bit_cast<std::uint64_t>(v));
}

/// Bounds-checked cursor over a binary payload: every getter fails with
/// an invalid-input Status instead of reading past the end, so truncated
/// or hostile payloads degrade to errors, never out-of-bounds reads.
class BinaryReader {
 public:
  explicit BinaryReader(const std::string& payload) : payload_(payload) {}

  [[nodiscard]] Status get_u8(std::uint8_t* v) {
    if (!need(1)) return truncated("u8");
    *v = static_cast<std::uint8_t>(payload_[pos_++]);
    return Status{};
  }
  [[nodiscard]] Status get_u32(std::uint32_t* v) {
    if (!need(4)) return truncated("u32");
    *v = get_u32le(payload_.data() + pos_);
    pos_ += 4;
    return Status{};
  }
  [[nodiscard]] Status get_u64(std::uint64_t* v) {
    if (!need(8)) return truncated("u64");
    *v = get_u64le(payload_.data() + pos_);
    pos_ += 8;
    return Status{};
  }
  [[nodiscard]] Status get_double(double* v) {
    std::uint64_t bits = 0;
    if (Status st = get_u64(&bits); !st.ok()) return st;
    *v = std::bit_cast<double>(bits);
    return Status{};
  }
  /// A u32le length followed by that many raw bytes.
  [[nodiscard]] Status get_string(std::string* v) {
    std::uint32_t len = 0;
    if (Status st = get_u32(&len); !st.ok()) return st;
    if (!need(len)) {
      return Status::invalid_input(
          "binary envelope: declared string length " + std::to_string(len) +
          " exceeds the remaining " + std::to_string(remaining()) + " bytes");
    }
    v->assign(payload_.data() + pos_, len);
    pos_ += len;
    return Status{};
  }

  [[nodiscard]] std::size_t remaining() const { return payload_.size() - pos_; }
  [[nodiscard]] std::size_t pos() const { return pos_; }
  [[nodiscard]] bool done() const { return pos_ == payload_.size(); }

 private:
  [[nodiscard]] bool need(std::size_t n) const { return remaining() >= n; }
  [[nodiscard]] static Status truncated(const char* what) {
    return Status::invalid_input(std::string{"binary envelope: truncated "} +
                                 what + " field");
  }

  const std::string& payload_;
  std::size_t pos_ = 0;
};

/// Trailing garbage after a fully decoded binary envelope is a protocol
/// error: a well-formed peer never pads, so extra bytes mean corruption or
/// a peer speaking some other encoding.
Status expect_done(const BinaryReader& r, const char* what) {
  if (r.done()) return Status{};
  return Status::invalid_input(std::string{"binary envelope: "} +
                               std::to_string(r.remaining()) +
                               " trailing bytes after the " + what);
}

Status decode_header(const char* data, std::size_t declared,
                     const WireLimits& limits, Frame* frame) {
  if (declared > limits.max_payload) {
    return Status::invalid_input(
        "frame declares a payload of " + std::to_string(declared) +
        " bytes, above the max-message size of " +
        std::to_string(limits.max_payload) + " bytes");
  }
  const auto kind = static_cast<std::uint8_t>(data[4]);
  if (!frame_kind_known(kind)) {
    return Status::invalid_input("unknown frame kind " + std::to_string(kind));
  }
  frame->kind = static_cast<FrameKind>(kind);
  frame->id = get_u64le(data + 5);
  return Status{};
}

}  // namespace

bool frame_kind_known(std::uint8_t kind) {
  switch (static_cast<FrameKind>(kind)) {
    case FrameKind::kPing:
    case FrameKind::kPredict:
    case FrameKind::kBatch:
    case FrameKind::kStats:
    case FrameKind::kHello:
    case FrameKind::kRegister:
    case FrameKind::kPong:
    case FrameKind::kResult:
    case FrameKind::kError:
    case FrameKind::kStatsText:
    case FrameKind::kBatchEnd:
    case FrameKind::kHelloAck:
    case FrameKind::kRegistered:
      return true;
  }
  return false;
}

void append_frame(std::string& out, const Frame& frame) {
  put_u32le(out, static_cast<std::uint32_t>(frame.payload.size()));
  out.push_back(static_cast<char>(frame.kind));
  put_u64le(out, frame.id);
  out.append(frame.payload);
}

Status write_frame(int fd, const Frame& frame, const WireLimits& limits) {
  if (frame.payload.size() > limits.max_payload) {
    return Status::invalid_input(
        "refusing to send a payload of " + std::to_string(frame.payload.size()) +
        " bytes, above the max-message size of " +
        std::to_string(limits.max_payload) + " bytes");
  }
  if (Status st = fault::failpoint("serve.write"); !st.ok()) {
    return st.with_context("while writing a frame");
  }
  std::string wire;
  wire.reserve(kFrameHeaderBytes + frame.payload.size());
  append_frame(wire, frame);
  std::size_t sent = 0;
  while (sent < wire.size()) {
    const ssize_t n = ::write(fd, wire.data() + sent, wire.size() - sent);
    if (n < 0) {
      if (errno == EINTR) continue;
      return Status::transient(std::string{"write failed: "} +
                               std::strerror(errno));
    }
    sent += static_cast<std::size_t>(n);
  }
  return Status{};
}

Result<std::optional<Frame>> read_frame(int fd, const WireLimits& limits) {
  if (Status st = fault::failpoint("serve.read"); !st.ok()) {
    return st.with_context("while reading a frame");
  }
  char header[kFrameHeaderBytes];
  std::size_t have = 0;
  while (have < kFrameHeaderBytes) {
    const ssize_t n = ::read(fd, header + have, kFrameHeaderBytes - have);
    if (n < 0) {
      if (errno == EINTR) continue;
      return Status::transient(std::string{"read failed: "} +
                               std::strerror(errno));
    }
    if (n == 0) {
      if (have == 0) return std::optional<Frame>{};  // clean EOF
      return Status::invalid_input("truncated frame: stream ended inside the "
                                   "13-byte header");
    }
    have += static_cast<std::size_t>(n);
  }
  Frame frame;
  const std::size_t declared = get_u32le(header);
  if (Status st = decode_header(header, declared, limits, &frame); !st.ok()) {
    return st;
  }
  frame.payload.resize(declared);
  std::size_t got = 0;
  while (got < declared) {
    const ssize_t n = ::read(fd, frame.payload.data() + got, declared - got);
    if (n < 0) {
      if (errno == EINTR) continue;
      return Status::transient(std::string{"read failed: "} +
                               std::strerror(errno));
    }
    if (n == 0) {
      return Status::invalid_input(
          "truncated frame: stream ended after " + std::to_string(got) +
          " of " + std::to_string(declared) + " payload bytes");
    }
    got += static_cast<std::size_t>(n);
  }
  return std::optional<Frame>{std::move(frame)};
}

Result<std::optional<Frame>> FrameAssembler::next() {
  if (!poisoned_.ok()) return poisoned_;
  // Compact once the dead prefix dominates, so long-lived connections do
  // not grow their buffer without bound.
  if (consumed_ > 0 && consumed_ >= buffer_.size() / 2) {
    buffer_.erase(0, consumed_);
    consumed_ = 0;
  }
  const std::size_t avail = buffer_.size() - consumed_;
  if (avail < kFrameHeaderBytes) return std::optional<Frame>{};
  const char* head = buffer_.data() + consumed_;
  Frame frame;
  const std::size_t declared = get_u32le(head);
  if (Status st = decode_header(head, declared, limits_, &frame); !st.ok()) {
    poisoned_ = st;
    return poisoned_;
  }
  if (avail < kFrameHeaderBytes + declared) return std::optional<Frame>{};
  frame.payload.assign(head + kFrameHeaderBytes, declared);
  consumed_ += kFrameHeaderBytes + declared;
  return std::optional<Frame>{std::move(frame)};
}

// --- envelopes -----------------------------------------------------------
//
// Byte-level layouts: see wire.hpp (and DESIGN.md §14).

std::string encode_predict_request(const PredictRequest& req, Codec) {
  std::string out;
  out.reserve(33 + req.params_text.size() + req.program_text.size() +
              req.topology_text.size());
  std::uint8_t flags = 0;
  if (req.handle != 0) flags |= kPredictFlagHandle;
  if (!req.topology_text.empty()) flags |= kPredictFlagTopology;
  out.push_back(static_cast<char>(flags));
  put_u64le(out, req.handle);
  put_u64le(out, req.seed);
  put_u64le(out, req.deadline_ms);
  put_u32le(out, static_cast<std::uint32_t>(req.params_text.size()));
  out.append(req.params_text);
  put_u32le(out, static_cast<std::uint32_t>(req.program_text.size()));
  out.append(req.program_text);
  if (!req.topology_text.empty()) {
    put_u32le(out, static_cast<std::uint32_t>(req.topology_text.size()));
    out.append(req.topology_text);
  }
  return out;
}

Result<PredictRequest> decode_predict_request(const std::string& payload,
                                              Codec) {
  BinaryReader r{payload};
  PredictRequest req;
  std::uint8_t flags = 0;
  if (Status st = r.get_u8(&flags); !st.ok()) return st;
  if ((flags & ~kPredictFlagsKnown) != 0) {
    return Status::invalid_input("predict envelope: unknown flag bits " +
                                 std::to_string(flags));
  }
  if (Status st = r.get_u64(&req.handle); !st.ok()) return st;
  if (((flags & kPredictFlagHandle) != 0) != (req.handle != 0)) {
    return Status::invalid_input(
        "predict envelope: handle flag and handle value disagree");
  }
  if (Status st = r.get_u64(&req.seed); !st.ok()) return st;
  if (Status st = r.get_u64(&req.deadline_ms); !st.ok()) return st;
  if (Status st = r.get_string(&req.params_text); !st.ok()) return st;
  if (Status st = r.get_string(&req.program_text); !st.ok()) return st;
  if ((flags & kPredictFlagTopology) != 0) {
    if (Status st = r.get_string(&req.topology_text); !st.ok()) return st;
    if (req.topology_text.empty()) {
      return Status::invalid_input("predict envelope: empty topology");
    }
  }
  if (Status st = expect_done(r, "predict request"); !st.ok()) return st;
  return req;
}

std::string encode_batch_request(const std::vector<PredictRequest>& jobs,
                                 Codec) {
  std::string out;
  put_u32le(out, static_cast<std::uint32_t>(jobs.size()));
  for (const PredictRequest& job : jobs) {
    const std::string body = encode_predict_request(job);
    put_u32le(out, static_cast<std::uint32_t>(body.size()));
    out.append(body);
  }
  return out;
}

Result<std::vector<PredictRequest>> decode_batch_request(
    const std::string& payload, const WireLimits& limits, Codec) {
  BinaryReader r{payload};
  std::uint32_t count = 0;
  if (Status st = r.get_u32(&count); !st.ok()) return st;
  // Every embedded job costs at least its own length prefix, so a count
  // beyond remaining/4 is hostile; reject before the reserve.
  if (count > r.remaining() / 4 + 1) {
    return Status::invalid_input("batch envelope: job count " +
                                 std::to_string(count) +
                                 " exceeds the payload size");
  }
  std::vector<PredictRequest> jobs;
  jobs.reserve(count);
  for (std::uint32_t i = 0; i < count; ++i) {
    std::string body;
    if (Status st = r.get_string(&body); !st.ok()) {
      return st.with_context("while framing batch job " + std::to_string(i));
    }
    if (body.size() > limits.max_payload) {
      return Status::invalid_input("batch envelope: job " + std::to_string(i) +
                                   " exceeds the max-message size");
    }
    Result<PredictRequest> job = decode_predict_request(body);
    if (!job.ok()) {
      return Status{job.status()}.with_context("while decoding batch job " +
                                               std::to_string(i));
    }
    jobs.push_back(std::move(job).value());
  }
  if (Status st = expect_done(r, "batch request"); !st.ok()) return st;
  return jobs;
}

std::string encode_predict_reply(const PredictReply& reply, Codec) {
  std::string out;
  out.reserve(53);
  put_u64le(out, reply.index);
  put_double_le(out, reply.total_us);
  put_double_le(out, reply.comp_us);
  put_double_le(out, reply.comm_us);
  put_double_le(out, reply.total_worst_us);
  put_double_le(out, reply.comm_worst_us);
  out.push_back(static_cast<char>(reply.from_cache ? 1 : 0));
  put_u32le(out, static_cast<std::uint32_t>(reply.attempts));
  return out;
}

Result<PredictReply> decode_predict_reply(const std::string& payload,
                                          Codec) {
  BinaryReader r{payload};
  PredictReply reply;
  if (Status st = r.get_u64(&reply.index); !st.ok()) return st;
  if (Status st = r.get_double(&reply.total_us); !st.ok()) return st;
  if (Status st = r.get_double(&reply.comp_us); !st.ok()) return st;
  if (Status st = r.get_double(&reply.comm_us); !st.ok()) return st;
  if (Status st = r.get_double(&reply.total_worst_us); !st.ok()) return st;
  if (Status st = r.get_double(&reply.comm_worst_us); !st.ok()) return st;
  std::uint8_t from_cache = 0;
  if (Status st = r.get_u8(&from_cache); !st.ok()) return st;
  if (from_cache > 1) {
    return Status::invalid_input("result envelope: malformed from_cache");
  }
  reply.from_cache = from_cache == 1;
  std::uint32_t attempts = 0;
  if (Status st = r.get_u32(&attempts); !st.ok()) return st;
  reply.attempts = static_cast<int>(attempts);
  if (Status st = expect_done(r, "predict reply"); !st.ok()) return st;
  return reply;
}

std::string encode_error_reply(const ErrorReply& reply, Codec) {
  std::string out;
  const std::string code = error_code_name(reply.code);
  put_u64le(out, reply.index);
  put_u32le(out, static_cast<std::uint32_t>(code.size()));
  out.append(code);
  put_u32le(out, static_cast<std::uint32_t>(reply.message.size()));
  out.append(reply.message);
  return out;
}

Result<ErrorReply> decode_error_reply(const std::string& payload, Codec) {
  BinaryReader r{payload};
  ErrorReply reply;
  if (Status st = r.get_u64(&reply.index); !st.ok()) return st;
  std::string code;
  if (Status st = r.get_string(&code); !st.ok()) return st;
  reply.code = error_code_from_name(code);
  if (Status st = r.get_string(&reply.message); !st.ok()) return st;
  if (Status st = expect_done(r, "error reply"); !st.ok()) return st;
  return reply;
}

// --- version check + registration -----------------------------------------

std::string encode_hello_request(std::uint32_t version) {
  std::string out{kHelloMagic, sizeof kHelloMagic};
  put_u32le(out, version);
  return out;
}

Result<std::uint32_t> decode_hello_request(const std::string& payload) {
  if (payload.size() != sizeof kHelloMagic + 4 ||
      std::memcmp(payload.data(), kHelloMagic, sizeof kHelloMagic) != 0) {
    return Status::invalid_input("hello envelope: bad magic or length");
  }
  const std::uint32_t version = get_u32le(payload.data() + sizeof kHelloMagic);
  if (version == 0) {
    return Status::invalid_input("hello envelope: version 0 is not a protocol");
  }
  return version;
}

std::string encode_hello_ack(std::uint32_t version) {
  std::string out;
  put_u32le(out, version);
  return out;
}

Result<std::uint32_t> decode_hello_ack(const std::string& payload) {
  if (payload.size() != 4) {
    return Status::invalid_input("hello-ack envelope: bad length");
  }
  const std::uint32_t version = get_u32le(payload.data());
  if (version == 0) {
    return Status::invalid_input("hello-ack envelope: version 0");
  }
  return version;
}

std::string encode_registered_reply(std::uint64_t handle, Codec) {
  std::string out;
  put_u64le(out, handle);
  return out;
}

Result<std::uint64_t> decode_registered_reply(const std::string& payload,
                                              Codec) {
  if (payload.size() != 8) {
    return Status::invalid_input("registered envelope: bad length");
  }
  return get_u64le(payload.data());
}

std::string encode_register_request(const std::string& program_text,
                                    const std::string& topology_text) {
  if (topology_text.empty()) return program_text;
  return "topology " + topology_text + "\n" + program_text;
}

RegisterRequest split_register_request(const std::string& payload) {
  RegisterRequest req;
  constexpr const char kPrefix[] = "topology ";
  constexpr std::size_t kPrefixLen = sizeof kPrefix - 1;
  if (payload.rfind(kPrefix, 0) == 0) {
    std::size_t eol = payload.find('\n', kPrefixLen);
    if (eol == std::string::npos) eol = payload.size();
    req.topology_text = payload.substr(kPrefixLen, eol - kPrefixLen);
    req.program_text = payload.substr(std::min(eol + 1, payload.size()));
    return req;
  }
  req.program_text = payload;
  return req;
}

}  // namespace logsim::serve
