// Corrupt-frame corpus for the serving wire layer (DESIGN.md §12/§14),
// mirroring tests/corrupt_input_test.cpp: every hostile byte sequence a
// peer can put on the socket must come back as a clean Status -- never a
// crash, hang, or out-of-bounds read.  Compiled with NDEBUG forced (see
// tests/CMakeLists.txt) so no assert() can mask a missing boundary check.
//
// Covered: frame headers (over-declared lengths, unknown kinds, sticky
// assembler poisoning), mid-frame disconnects through read_frame on a
// socketpair, every strict prefix of every binary payload, trailing
// bytes after valid payloads, batch count/length attacks, the text
// payloads of the retired protocol v1 (decoders and a live server),
// HELLO/REGISTERED envelope damage, and a deterministic pseudo-random
// byte corpus through every decoder.

#include <sys/socket.h>
#include <unistd.h>

#include <cstdint>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "obs/metrics.hpp"
#include "serve/client.hpp"
#include "serve/server.hpp"
#include "serve/wire.hpp"

namespace logsim {
namespace {

using serve::Frame;
using serve::FrameAssembler;
using serve::FrameKind;
using serve::WireLimits;

TEST(WireCorrupt, BinaryIsBuiltWithNdebug) {
#ifndef NDEBUG
  FAIL() << "wire_corrupt_test must be compiled with NDEBUG so that the "
            "corpus exercises release-build behaviour";
#endif
}

void put_u32(std::string& out, std::uint32_t v) {
  for (int i = 0; i < 4; ++i) {
    out.push_back(static_cast<char>((v >> (8 * i)) & 0xff));
  }
}

void put_u64(std::string& out, std::uint64_t v) {
  for (int i = 0; i < 8; ++i) {
    out.push_back(static_cast<char>((v >> (8 * i)) & 0xff));
  }
}

/// A raw 13-byte header with arbitrary (possibly hostile) fields.
std::string raw_header(std::uint32_t payload_len, std::uint8_t kind,
                       std::uint64_t id) {
  std::string out;
  put_u32(out, payload_len);
  out.push_back(static_cast<char>(kind));
  put_u64(out, id);
  return out;
}

// --- frame headers -------------------------------------------------------

TEST(WireCorrupt, OverDeclaredPayloadLengthPoisonsTheAssembler) {
  WireLimits limits;
  limits.max_payload = 256;
  FrameAssembler assembler{limits};
  const std::string header =
      raw_header(1 << 20, static_cast<std::uint8_t>(FrameKind::kPredict), 1);
  assembler.feed(header.data(), header.size());
  const auto frame = assembler.next();
  ASSERT_FALSE(frame.ok());
  EXPECT_EQ(frame.status().code(), ErrorCode::kInvalidInput);
}

TEST(WireCorrupt, UnknownFrameKindIsRejected) {
  for (const std::uint8_t kind : {0, 7, 63, 99, 255}) {
    FrameAssembler assembler{WireLimits{}};
    const std::string header = raw_header(0, kind, 1);
    assembler.feed(header.data(), header.size());
    const auto frame = assembler.next();
    ASSERT_FALSE(frame.ok()) << "kind " << static_cast<int>(kind);
    EXPECT_EQ(frame.status().code(), ErrorCode::kInvalidInput);
  }
}

TEST(WireCorrupt, PoisonedAssemblerStaysPoisoned) {
  FrameAssembler assembler{WireLimits{}};
  const std::string bad = raw_header(0, 99, 1);
  assembler.feed(bad.data(), bad.size());
  ASSERT_FALSE(assembler.next().ok());
  // A valid frame after the damage must not resurrect the stream: framing
  // sync is unrecoverable on a byte stream.
  const std::string good =
      raw_header(0, static_cast<std::uint8_t>(FrameKind::kPing), 2);
  assembler.feed(good.data(), good.size());
  EXPECT_FALSE(assembler.next().ok());
}

TEST(WireCorrupt, TruncatedHeaderIsJustIncompleteNotAnError) {
  // 12 of 13 header bytes: the assembler must wait for more, not misread.
  FrameAssembler assembler{WireLimits{}};
  const std::string header =
      raw_header(0, static_cast<std::uint8_t>(FrameKind::kPing), 1);
  assembler.feed(header.data(), header.size() - 1);
  const auto frame = assembler.next();
  ASSERT_TRUE(frame.ok());
  EXPECT_FALSE(frame->has_value());
}

// --- mid-frame disconnects (read_frame on a socketpair) ------------------

class SocketPair {
 public:
  SocketPair() {
    EXPECT_EQ(::socketpair(AF_UNIX, SOCK_STREAM, 0, fds_), 0);
  }
  ~SocketPair() {
    close_writer();
    if (fds_[0] >= 0) ::close(fds_[0]);
  }
  void write_bytes(const std::string& bytes) {
    ASSERT_EQ(::write(fds_[1], bytes.data(), bytes.size()),
              static_cast<ssize_t>(bytes.size()));
  }
  void close_writer() {
    if (fds_[1] >= 0) {
      ::close(fds_[1]);
      fds_[1] = -1;
    }
  }
  [[nodiscard]] int reader() const { return fds_[0]; }

 private:
  int fds_[2] = {-1, -1};
};

TEST(WireCorrupt, StreamEndingInsideHeaderIsAnError) {
  SocketPair pair;
  const std::string header =
      raw_header(4, static_cast<std::uint8_t>(FrameKind::kPredict), 7);
  pair.write_bytes(header.substr(0, 5));
  pair.close_writer();
  const auto frame = serve::read_frame(pair.reader(), WireLimits{});
  ASSERT_FALSE(frame.ok());
  EXPECT_EQ(frame.status().code(), ErrorCode::kInvalidInput);
}

TEST(WireCorrupt, StreamEndingInsidePayloadIsAnError) {
  SocketPair pair;
  std::string bytes =
      raw_header(10, static_cast<std::uint8_t>(FrameKind::kPredict), 7);
  bytes += "only4";  // 5 of the declared 10 payload bytes
  pair.write_bytes(bytes);
  pair.close_writer();
  const auto frame = serve::read_frame(pair.reader(), WireLimits{});
  ASSERT_FALSE(frame.ok());
  EXPECT_EQ(frame.status().code(), ErrorCode::kInvalidInput);
}

TEST(WireCorrupt, CleanEofAtFrameBoundaryIsNotAnError) {
  SocketPair pair;
  pair.write_bytes(
      raw_header(0, static_cast<std::uint8_t>(FrameKind::kPing), 7));
  pair.close_writer();
  auto frame = serve::read_frame(pair.reader(), WireLimits{});
  ASSERT_TRUE(frame.ok());
  ASSERT_TRUE(frame->has_value());
  EXPECT_EQ((*frame)->kind, FrameKind::kPing);
  frame = serve::read_frame(pair.reader(), WireLimits{});
  ASSERT_TRUE(frame.ok());
  EXPECT_FALSE(frame->has_value());  // clean EOF, not damage
}

// --- truncation sweeps --------------------------------------------------

/// Every strict prefix of a valid payload must decode to a clean error.
template <typename DecodeFn>
void expect_all_prefixes_fail(const std::string& payload, DecodeFn decode,
                              const char* label) {
  for (std::size_t len = 0; len < payload.size(); ++len) {
    const auto r = decode(payload.substr(0, len));
    EXPECT_FALSE(r.ok()) << label << ": prefix of " << len << " bytes";
  }
}

serve::PredictRequest sample_request(std::uint64_t handle) {
  serve::PredictRequest req;
  req.params_text = "L=9,o=2,g=13,G=0.03";
  req.seed = 42;
  req.deadline_ms = 250;
  req.handle = handle;
  if (handle == 0) req.program_text = "procs 2\ncompute\nitem 0 0 1\n";
  return req;
}

TEST(WireCorrupt, TruncatedBinaryPredictRequestFailsCleanly) {
  for (const std::uint64_t handle : {std::uint64_t{0}, std::uint64_t{9}}) {
    const std::string payload =
        serve::encode_predict_request(sample_request(handle));
    expect_all_prefixes_fail(
        payload,
        [](const std::string& p) { return serve::decode_predict_request(p); },
        "predict request");
  }
}

TEST(WireCorrupt, TruncatedBinaryPredictReplyFailsCleanly) {
  serve::PredictReply reply;
  reply.index = 3;
  reply.total_us = 1234.5678901234567;
  reply.comp_us = 0.1;
  reply.comm_us = 3.0000000000000004;
  reply.total_worst_us = 1e-300;
  reply.comm_worst_us = 9.87654321e12;
  reply.from_cache = true;
  reply.attempts = 2;
  const std::string payload = serve::encode_predict_reply(reply);
  expect_all_prefixes_fail(
      payload,
      [](const std::string& p) { return serve::decode_predict_reply(p); },
      "predict reply");
  // The reply is fixed-width: longer than canonical is damage too.
  EXPECT_FALSE(serve::decode_predict_reply(payload + '\0').ok());
}

TEST(WireCorrupt, TruncatedBinaryBatchFailsCleanly) {
  const std::vector<serve::PredictRequest> jobs = {sample_request(0),
                                                   sample_request(5)};
  const std::string payload = serve::encode_batch_request(jobs);
  expect_all_prefixes_fail(
      payload,
      [](const std::string& p) {
        return serve::decode_batch_request(p, WireLimits{});
      },
      "batch request");
}

TEST(WireCorrupt, TruncatedBinaryErrorReplyFailsCleanly) {
  serve::ErrorReply reply;
  reply.index = 1;
  reply.code = ErrorCode::kTransient;
  reply.message = "busy";
  const std::string payload = serve::encode_error_reply(reply);
  expect_all_prefixes_fail(
      payload,
      [](const std::string& p) { return serve::decode_error_reply(p); },
      "error reply");
}

TEST(WireCorrupt, TruncatedHelloAndRegisteredFailCleanly) {
  const std::string hello = serve::encode_hello_request(2);
  expect_all_prefixes_fail(
      hello,
      [](const std::string& p) { return serve::decode_hello_request(p); },
      "hello request");
  const std::string ack = serve::encode_hello_ack(2);
  expect_all_prefixes_fail(
      ack, [](const std::string& p) { return serve::decode_hello_ack(p); },
      "hello ack");
  const std::string registered = serve::encode_registered_reply(7);
  expect_all_prefixes_fail(
      registered,
      [](const std::string& p) { return serve::decode_registered_reply(p); },
      "registered reply");
}

TEST(WireCorrupt, HelloEnvelopeDamageIsRejected) {
  // Wrong magic.
  std::string bad = serve::encode_hello_request(2);
  bad[0] = 'X';
  EXPECT_FALSE(serve::decode_hello_request(bad).ok());
  // Version 0 is not a protocol.
  EXPECT_FALSE(serve::decode_hello_request(serve::encode_hello_request(0)).ok());
  std::string ack;
  put_u32(ack, 0);
  EXPECT_FALSE(serve::decode_hello_ack(ack).ok());
  // Trailing bytes.
  EXPECT_FALSE(
      serve::decode_hello_request(serve::encode_hello_request(2) + "x").ok());
  EXPECT_FALSE(serve::decode_hello_ack(serve::encode_hello_ack(2) + "x").ok());
  // A REGISTERED reply is exactly one u64: the retired text form or a
  // short or long payload is damage.
  EXPECT_FALSE(serve::decode_registered_reply("handle 7\n").ok());
  EXPECT_FALSE(serve::decode_registered_reply(std::string(9, '\0')).ok());
}

// --- batch count / length attacks ----------------------------------------

TEST(WireCorrupt, BinaryBatchCountOverflowIsRejected) {
  // Declares 4 billion jobs in a 12-byte payload: the decoder must reject
  // the count BEFORE reserving memory for it.
  std::string payload;
  put_u32(payload, 0xffffffffu);
  payload += "12345678";
  const auto r = serve::decode_batch_request(payload, WireLimits{});
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), ErrorCode::kInvalidInput);
}

TEST(WireCorrupt, BinaryBatchEmbeddedLengthOverrunIsRejected) {
  // One job whose embedded length points past the end of the payload.
  std::string payload;
  put_u32(payload, 1);
  put_u32(payload, 1 << 30);
  payload += "short";
  const auto r = serve::decode_batch_request(payload, WireLimits{});
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), ErrorCode::kInvalidInput);
}

TEST(WireCorrupt, TextBatchAttacksAreRejected) {
  // The batch attacks of the retired text codec are still hostile bytes a
  // peer can send; the binary decoder reads "jobs" as a huge count and
  // must refuse before reserving for it.
  const WireLimits limits;
  for (const char* payload : {"jobs 4000000000\n", "jobs 1\njob 999\nshort"}) {
    const auto r = serve::decode_batch_request(payload, limits);
    ASSERT_FALSE(r.ok()) << payload;
    EXPECT_EQ(r.status().code(), ErrorCode::kInvalidInput);
  }
}

// --- retired protocol v1 text payloads -----------------------------------

/// A PREDICT payload exactly as a protocol v1 client rendered it.
const char kV1PredictPayload[] =
    "params meiko\n"
    "seed 1\n"
    "deadline_ms 0\n"
    "program\n"
    "procs 2\n"
    "compute\n"
    "item 0 0 1\n";

TEST(WireCorrupt, TextPayloadDecodedAsBinaryFails) {
  // 'p' of "params" = flags 0x70: unknown flag bits, rejected immediately.
  const auto predict = serve::decode_predict_request(kV1PredictPayload);
  ASSERT_FALSE(predict.ok());
  EXPECT_EQ(predict.status().code(), ErrorCode::kInvalidInput);
  const std::string body = kV1PredictPayload;
  const std::string v1_batch =
      "jobs 1\njob " + std::to_string(body.size()) + "\n" + body;
  const auto batch = serve::decode_batch_request(v1_batch, WireLimits{});
  ASSERT_FALSE(batch.ok());
  EXPECT_EQ(batch.status().code(), ErrorCode::kInvalidInput);
}

TEST(WireCorrupt, V1TextPredictGetsErrorFrameFromLiveServer) {
  // What a remaining v1 client now sees: an ERROR frame, not a crash or a
  // hang, and the server counts a protocol error.
  obs::metrics::Registry registry;
  serve::Server::Config config;
  config.port = 0;
  config.metrics = &registry;
  serve::Server server{config};
  ASSERT_TRUE(server.start().ok());
  Result<serve::Client> client =
      serve::Client::connect("127.0.0.1", server.port());
  ASSERT_TRUE(client.ok()) << client.status().to_string();
  ASSERT_TRUE(
      client->send(Frame{FrameKind::kPredict, 5, kV1PredictPayload}).ok());
  const Result<Frame> reply = client->receive();
  ASSERT_TRUE(reply.ok()) << reply.status().to_string();
  EXPECT_EQ(reply->kind, FrameKind::kError);
  EXPECT_EQ(reply->id, 5u);
  const auto err = serve::decode_error_reply(reply->payload);
  ASSERT_TRUE(err.ok()) << err.status().to_string();
  EXPECT_EQ(err->code, ErrorCode::kInvalidInput);
  EXPECT_EQ(registry.counter("serve.protocol_errors").value(), 1u);
  server.stop();
}

TEST(WireCorrupt, TrailingBytesAfterBinaryPayloadAreRejected) {
  // A decoder that silently ignores trailing bytes would accept payloads
  // of some other encoding that happen to start like a valid one.
  const std::string req = serve::encode_predict_request(sample_request(3));
  EXPECT_FALSE(serve::decode_predict_request(req + "x").ok());
  const std::string batch = serve::encode_batch_request({sample_request(0)});
  EXPECT_FALSE(serve::decode_batch_request(batch + "x", WireLimits{}).ok());
  serve::ErrorReply err;
  err.code = ErrorCode::kInternal;
  const std::string err_payload = serve::encode_error_reply(err);
  EXPECT_FALSE(serve::decode_error_reply(err_payload + "x").ok());
}

// --- deterministic pseudo-random corpus ----------------------------------

TEST(WireCorrupt, RandomByteCorpusNeverCrashesAnyDecoder) {
  // splitmix64-driven garbage of assorted sizes through every decoder.
  // The assertions are implicit: no crash, no hang, no sanitizer report;
  // whatever decodes "successfully" must at least round-trip its own
  // re-encoding without throwing.
  std::uint64_t state = 0x9e3779b97f4a7c15ull;
  const auto next = [&state]() {
    state += 0x9e3779b97f4a7c15ull;
    std::uint64_t z = state;
    z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ull;
    z = (z ^ (z >> 27)) * 0x94d049bb133111ebull;
    return z ^ (z >> 31);
  };
  const WireLimits limits;
  for (const std::size_t size : {0u, 1u, 7u, 13u, 53u, 256u, 4096u}) {
    for (int round = 0; round < 8; ++round) {
      std::string bytes;
      bytes.reserve(size);
      while (bytes.size() < size) {
        bytes.push_back(static_cast<char>(next() & 0xff));
      }
      (void)serve::decode_predict_request(bytes);
      (void)serve::decode_batch_request(bytes, limits);
      (void)serve::decode_predict_reply(bytes);
      (void)serve::decode_error_reply(bytes);
      (void)serve::decode_registered_reply(bytes);
      (void)serve::decode_hello_request(bytes);
      (void)serve::decode_hello_ack(bytes);
      FrameAssembler assembler{limits};
      assembler.feed(bytes.data(), bytes.size());
      for (int i = 0; i < 4; ++i) {
        const auto frame = assembler.next();
        if (!frame.ok() || !frame->has_value()) break;
      }
    }
  }
}

}  // namespace
}  // namespace logsim
