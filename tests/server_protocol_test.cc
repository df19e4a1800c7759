#include <gtest/gtest.h>

#include <cstdint>
#include <limits>
#include <span>
#include <vector>

#include "broadcast/system.h"
#include "common/rng.h"
#include "core/query_engine.h"
#include "core/sharded_query_engine.h"
#include "geom/rect.h"
#include "server/protocol.h"
#include "server/session.h"
#include "spatial/generators.h"

/// Wire-level tests for the lbsq_server protocol: framing (truncated
/// prefixes, oversized frames, garbage), message round-trips, and the
/// session state machine (version negotiation, bad-state transitions,
/// malformed payloads) — all socket-free, driving the exact code the
/// server runs. The invariant under test: arbitrary client bytes produce
/// an ERROR frame and a closed session, never a crash or an LBSQ_CHECK
/// abort.

namespace lbsq::server {
namespace {

const geom::Rect kWorld{0.0, 0.0, 10.0, 10.0};

broadcast::BroadcastParams TestParams() {
  broadcast::BroadcastParams params;
  params.bucket_capacity = 4;
  params.hilbert_order = 5;
  return params;
}

std::vector<spatial::Poi> TestPois(int n, uint64_t seed = 7) {
  Rng rng(seed);
  return spatial::GenerateUniformPois(&rng, kWorld, n);
}

/// Parses every complete frame out of a reply byte stream.
std::vector<Frame> ParseAll(const std::vector<uint8_t>& bytes) {
  FrameAssembler assembler;
  assembler.Feed(bytes.data(), bytes.size());
  std::vector<Frame> frames;
  Frame frame;
  while (assembler.Next(&frame) == FrameAssembler::Result::kFrame) {
    frames.push_back(frame);
  }
  return frames;
}

class SessionHarness {
 public:
  SessionHarness()
      : engine_(TestPois(120), kWorld, TestParams(), core::EngineOptions{},
                2),
        session_(MakeContext()) {}

  Session& session() { return session_; }
  const core::ShardedQueryEngine& engine() { return engine_; }
  ServerCounters& counters() { return counters_; }

  /// Sends one frame; returns the parsed replies.
  std::vector<Frame> Send(FrameType type, const std::vector<uint8_t>& payload,
                          FrameResult* result = nullptr) {
    std::vector<uint8_t> wire;
    Frame frame;
    frame.type = type;
    frame.payload = payload;
    FrameResult r = session_.OnFrame(frame, &wire);
    if (result != nullptr) *result = r;
    return ParseAll(wire);
  }

  /// Performs a successful HELLO with the given range.
  HelloAck Handshake(uint32_t min_version = 1, uint32_t max_version = 2) {
    HelloRequest hello;
    hello.min_version = min_version;
    hello.max_version = max_version;
    const std::vector<Frame> replies =
        Send(FrameType::kHello, EncodeHello(hello));
    EXPECT_EQ(replies.size(), 1u);
    EXPECT_EQ(replies[0].type, FrameType::kHelloAck);
    HelloAck ack;
    EXPECT_TRUE(DecodeHelloAck(replies[0].payload, &ack));
    return ack;
  }

 private:
  SessionContext MakeContext() {
    SessionContext context;
    context.engine = &engine_;
    context.epoch = 0;
    context.counters = &counters_;
    return context;
  }

  core::ShardedQueryEngine engine_;
  ServerCounters counters_;
  Session session_;
};

TEST(FrameAssemblerTest, ReassemblesAcrossArbitraryChunks) {
  std::vector<uint8_t> wire;
  const std::vector<uint8_t> payload = {1, 2, 3, 4, 5};
  AppendFrame(FrameType::kQuery, payload, &wire);
  AppendFrame(FrameType::kBye, {}, &wire);

  // Feed one byte at a time — frames must come out intact and in order.
  FrameAssembler assembler;
  std::vector<Frame> frames;
  Frame frame;
  for (const uint8_t byte : wire) {
    assembler.Feed(&byte, 1);
    while (assembler.Next(&frame) == FrameAssembler::Result::kFrame) {
      frames.push_back(frame);
    }
  }
  ASSERT_EQ(frames.size(), 2u);
  EXPECT_EQ(frames[0].type, FrameType::kQuery);
  EXPECT_EQ(frames[0].payload, payload);
  EXPECT_EQ(frames[1].type, FrameType::kBye);
  EXPECT_TRUE(frames[1].payload.empty());
}

TEST(FrameAssemblerTest, TruncatedPrefixNeedsMore) {
  std::vector<uint8_t> wire;
  const std::vector<uint8_t> payload = {9, 9, 9};
  AppendFrame(FrameType::kHello, payload, &wire);
  FrameAssembler assembler;
  Frame frame;
  // Every strict prefix of the wire bytes parses to "need more", not error.
  for (size_t cut = 0; cut < wire.size(); ++cut) {
    FrameAssembler fresh;
    fresh.Feed(wire.data(), cut);
    EXPECT_EQ(fresh.Next(&frame), FrameAssembler::Result::kNeedMore);
  }
  assembler.Feed(wire.data(), wire.size());
  EXPECT_EQ(assembler.Next(&frame), FrameAssembler::Result::kFrame);
}

TEST(FrameAssemblerTest, OversizedFrameIsLatchedError) {
  // Length prefix just above the cap.
  const uint32_t length = kMaxFrameBytes + 1;
  const std::vector<uint8_t> wire = {
      static_cast<uint8_t>(length & 0xFF),
      static_cast<uint8_t>((length >> 8) & 0xFF),
      static_cast<uint8_t>((length >> 16) & 0xFF),
      static_cast<uint8_t>((length >> 24) & 0xFF)};
  FrameAssembler assembler;
  assembler.Feed(wire.data(), wire.size());
  Frame frame;
  EXPECT_EQ(assembler.Next(&frame), FrameAssembler::Result::kError);
  // Latched: no amount of further bytes recovers the stream.
  const uint8_t more[] = {0, 0, 0, 0};
  assembler.Feed(more, sizeof(more));
  EXPECT_EQ(assembler.Next(&frame), FrameAssembler::Result::kError);
  EXPECT_FALSE(assembler.error().empty());
}

TEST(FrameAssemblerTest, ZeroLengthFrameIsError) {
  const uint8_t wire[] = {0, 0, 0, 0};
  FrameAssembler assembler;
  assembler.Feed(wire, sizeof(wire));
  Frame frame;
  EXPECT_EQ(assembler.Next(&frame), FrameAssembler::Result::kError);
}

TEST(ProtocolTest, MessageRoundTrips) {
  HelloRequest hello{1, 2};
  HelloRequest hello_out;
  ASSERT_TRUE(DecodeHello(EncodeHello(hello), &hello_out));
  EXPECT_EQ(hello_out.min_version, 1u);
  EXPECT_EQ(hello_out.max_version, 2u);

  HelloAck ack;
  ack.version = 2;
  ack.num_shards = 4;
  ack.epoch = 17;
  ack.poi_count = 123;
  ack.world = kWorld;
  HelloAck ack_out;
  ASSERT_TRUE(DecodeHelloAck(EncodeHelloAck(ack), &ack_out));
  EXPECT_EQ(ack_out.version, 2u);
  EXPECT_EQ(ack_out.num_shards, 4u);
  EXPECT_EQ(ack_out.epoch, 17u);
  EXPECT_EQ(ack_out.poi_count, 123u);
  EXPECT_EQ(ack_out.world, kWorld);

  QueryCall knn;
  knn.request_id = 42;
  knn.kind = core::QueryKind::kKnn;
  knn.position = {1.5, 2.5};
  knn.k = 7;
  knn.slot = 999;
  QueryCall knn_out;
  ASSERT_TRUE(DecodeQueryCall(EncodeQueryCall(knn), &knn_out));
  EXPECT_EQ(knn_out.request_id, 42u);
  EXPECT_EQ(knn_out.kind, core::QueryKind::kKnn);
  EXPECT_EQ(knn_out.position.x, 1.5);
  EXPECT_EQ(knn_out.position.y, 2.5);
  EXPECT_EQ(knn_out.k, 7);
  EXPECT_EQ(knn_out.slot, 999);
  EXPECT_TRUE(knn_out.window.empty());

  QueryCall window;
  window.request_id = 43;
  window.kind = core::QueryKind::kWindow;
  window.window = geom::Rect{1.0, 1.0, 2.0, 2.0};
  window.slot = 5;
  QueryCall window_out;
  ASSERT_TRUE(DecodeQueryCall(EncodeQueryCall(window), &window_out));
  EXPECT_EQ(window_out.kind, core::QueryKind::kWindow);
  EXPECT_EQ(window_out.window, (geom::Rect{1.0, 1.0, 2.0, 2.0}));
  EXPECT_EQ(window_out.k, 0);

  QueryAnswer answer;
  answer.request_id = 42;
  answer.kind = core::QueryKind::kKnn;
  answer.epoch = 3;
  answer.neighbor_ids = {10, 20};
  answer.neighbor_distances = {0.25, 0.5};
  answer.access_latency = 12;
  answer.tuning_time = 4;
  answer.buckets_read = 2;
  QueryAnswer answer_out;
  ASSERT_TRUE(DecodeQueryAnswer(EncodeQueryAnswer(answer), &answer_out));
  EXPECT_EQ(answer_out.request_id, 42u);
  EXPECT_EQ(answer_out.epoch, 3u);
  EXPECT_EQ(answer_out.neighbor_ids, (std::vector<int64_t>{10, 20}));
  EXPECT_EQ(answer_out.neighbor_distances, (std::vector<double>{0.25, 0.5}));
  EXPECT_EQ(answer_out.access_latency, 12);
  EXPECT_EQ(answer_out.tuning_time, 4);
  EXPECT_EQ(answer_out.buckets_read, 2);

  RetryAfter retry{7, 25};
  RetryAfter retry_out;
  ASSERT_TRUE(DecodeRetryAfter(EncodeRetryAfter(retry), &retry_out));
  EXPECT_EQ(retry_out.request_id, 7u);
  EXPECT_EQ(retry_out.delay_ms, 25u);

  ErrorReply error{ErrorCode::kBadShard, "shard out of range"};
  ErrorReply error_out;
  ASSERT_TRUE(DecodeErrorReply(EncodeErrorReply(error), &error_out));
  EXPECT_EQ(error_out.code, ErrorCode::kBadShard);
  EXPECT_EQ(error_out.message, "shard out of range");
}

TEST(ProtocolTest, DecodersRejectTruncationAndTrailingBytes) {
  QueryCall call;
  call.kind = core::QueryKind::kKnn;
  call.position = {1.0, 2.0};
  call.k = 3;
  const std::vector<uint8_t> good = EncodeQueryCall(call);
  QueryCall out;
  // Every strict prefix is rejected.
  for (size_t cut = 0; cut < good.size(); ++cut) {
    EXPECT_FALSE(DecodeQueryCall(
        std::span<const uint8_t>(good.data(), cut), &out))
        << "prefix of length " << cut << " decoded";
  }
  // Trailing garbage is rejected.
  std::vector<uint8_t> padded = good;
  padded.push_back(0);
  EXPECT_FALSE(DecodeQueryCall(padded, &out));
}

TEST(ProtocolTest, QueryDecoderRejectsNonFiniteCoordinates) {
  constexpr double kNan = std::numeric_limits<double>::quiet_NaN();
  constexpr double kInf = std::numeric_limits<double>::infinity();
  QueryCall out;
  for (const double bad : {kNan, kInf, -kInf}) {
    QueryCall knn;
    knn.kind = core::QueryKind::kKnn;
    knn.k = 3;
    knn.position = {bad, 1.0};
    EXPECT_FALSE(DecodeQueryCall(EncodeQueryCall(knn), &out)) << bad;
    knn.position = {1.0, bad};
    EXPECT_FALSE(DecodeQueryCall(EncodeQueryCall(knn), &out)) << bad;

    // Each window coordinate in turn; an infinite window would otherwise
    // be non-empty and pass the emptiness check.
    for (int corner = 0; corner < 4; ++corner) {
      QueryCall window;
      window.kind = core::QueryKind::kWindow;
      window.window = geom::Rect{1.0, 1.0, 2.0, 2.0};
      double* coords[] = {&window.window.x1, &window.window.y1,
                          &window.window.x2, &window.window.y2};
      *coords[corner] = bad;
      EXPECT_FALSE(DecodeQueryCall(EncodeQueryCall(window), &out))
          << bad << " at corner " << corner;
    }
  }
}

TEST(SessionTest, NonFiniteQueryIsMalformedPayload) {
  SessionHarness harness;
  harness.Handshake();
  QueryCall call;
  call.kind = core::QueryKind::kKnn;
  call.position = {std::numeric_limits<double>::quiet_NaN(), 5.0};
  call.k = 3;
  FrameResult result;
  const std::vector<Frame> replies =
      harness.Send(FrameType::kQuery, EncodeQueryCall(call), &result);
  ASSERT_EQ(replies.size(), 1u);
  EXPECT_EQ(replies[0].type, FrameType::kError);
  ErrorReply error;
  ASSERT_TRUE(DecodeErrorReply(replies[0].payload, &error));
  EXPECT_EQ(error.code, ErrorCode::kMalformedPayload);
  EXPECT_TRUE(result.close);
  EXPECT_TRUE(result.queries.empty());
}

TEST(ProtocolTest, DecodersSurviveGarbage) {
  // Deterministic pseudo-random byte soup must never crash any decoder.
  Rng rng(99);
  std::vector<uint8_t> soup(64);
  for (int round = 0; round < 200; ++round) {
    for (uint8_t& b : soup) {
      b = static_cast<uint8_t>(rng.NextUint64() & 0xFF);
    }
    const std::span<const uint8_t> bytes(soup.data(),
                                         round % (soup.size() + 1));
    HelloRequest hello;
    HelloAck ack;
    QueryCall call;
    QueryAnswer answer;
    RetryAfter retry;
    ErrorReply error;
    DecodeHello(bytes, &hello);
    DecodeHelloAck(bytes, &ack);
    DecodeQueryCall(bytes, &call);
    DecodeQueryAnswer(bytes, &answer);
    DecodeRetryAfter(bytes, &retry);
    DecodeErrorReply(bytes, &error);
  }
}

TEST(SessionTest, HandshakeNegotiatesHighestCommonVersion) {
  SessionHarness harness;
  const HelloAck ack = harness.Handshake(1, 2);
  EXPECT_EQ(ack.version, 2u);
  EXPECT_EQ(ack.num_shards, 2u);
  EXPECT_EQ(ack.poi_count, 120u);
  EXPECT_EQ(ack.world, kWorld);
  EXPECT_EQ(harness.session().state(), Session::State::kReady);
  EXPECT_EQ(harness.session().version(), 2u);
}

TEST(SessionTest, V1OnlyClientNegotiatesV1) {
  SessionHarness harness;
  const HelloAck ack = harness.Handshake(1, 1);
  EXPECT_EQ(ack.version, 1u);
  // v1 sessions are epoch-free.
  EXPECT_EQ(ack.epoch, 0u);
}

TEST(SessionTest, VersionMismatchRejectsSession) {
  SessionHarness harness;
  HelloRequest hello;
  hello.min_version = 40;
  hello.max_version = 50;
  FrameResult result;
  const std::vector<Frame> replies =
      harness.Send(FrameType::kHello, EncodeHello(hello), &result);
  ASSERT_EQ(replies.size(), 1u);
  EXPECT_EQ(replies[0].type, FrameType::kError);
  ErrorReply error;
  ASSERT_TRUE(DecodeErrorReply(replies[0].payload, &error));
  EXPECT_EQ(error.code, ErrorCode::kVersionMismatch);
  EXPECT_TRUE(result.close);
  EXPECT_EQ(harness.session().state(), Session::State::kClosed);
  EXPECT_EQ(harness.counters().protocol_errors.load(), 1);
}

TEST(SessionTest, QueryBeforeHelloIsBadState) {
  SessionHarness harness;
  QueryCall call;
  call.kind = core::QueryKind::kKnn;
  call.position = {5.0, 5.0};
  call.k = 1;
  FrameResult result;
  const std::vector<Frame> replies =
      harness.Send(FrameType::kQuery, EncodeQueryCall(call), &result);
  ASSERT_EQ(replies.size(), 1u);
  EXPECT_EQ(replies[0].type, FrameType::kError);
  EXPECT_TRUE(result.close);
  EXPECT_TRUE(result.queries.empty());
}

TEST(SessionTest, MalformedQueryClosesWithoutDispatch) {
  SessionHarness harness;
  harness.Handshake();
  FrameResult result;
  const std::vector<Frame> replies =
      harness.Send(FrameType::kQuery, {0xFF, 0xFF, 0xFF}, &result);
  ASSERT_EQ(replies.size(), 1u);
  EXPECT_EQ(replies[0].type, FrameType::kError);
  ErrorReply error;
  ASSERT_TRUE(DecodeErrorReply(replies[0].payload, &error));
  EXPECT_EQ(error.code, ErrorCode::kMalformedPayload);
  EXPECT_TRUE(result.close);
  EXPECT_TRUE(result.queries.empty());
}

TEST(SessionTest, WellFormedQueryIsDispatchedNotAnsweredInline) {
  SessionHarness harness;
  harness.Handshake();
  QueryCall call;
  call.request_id = 5;
  call.kind = core::QueryKind::kKnn;
  call.position = {5.0, 5.0};
  call.k = 3;
  FrameResult result;
  const std::vector<Frame> replies =
      harness.Send(FrameType::kQuery, EncodeQueryCall(call), &result);
  EXPECT_TRUE(replies.empty());  // answers come from workers
  EXPECT_FALSE(result.close);
  ASSERT_EQ(result.queries.size(), 1u);
  EXPECT_EQ(result.queries[0].request_id, 5u);
  EXPECT_EQ(result.queries[0].k, 3);
}

TEST(SessionTest, IndexAndBucketServeBroadcastWireBytes) {
  SessionHarness harness;
  harness.Handshake();

  // Probe shard 0: the directory must round-trip through the broadcast
  // wire decoder and match the shard's in-memory index exactly.
  IndexProbe probe;
  probe.shard = 0;
  std::vector<Frame> replies =
      harness.Send(FrameType::kIndexProbe, EncodeIndexProbe(probe));
  ASSERT_EQ(replies.size(), 1u);
  ASSERT_EQ(replies[0].type, FrameType::kIndexData);
  uint32_t shard = 99;
  std::vector<broadcast::AirIndex::Entry> entries;
  uint64_t epoch = 99;
  ASSERT_TRUE(DecodeIndexData(replies[0].payload, &shard, &entries, &epoch));
  EXPECT_EQ(shard, 0u);
  EXPECT_EQ(epoch, 0u);
  const broadcast::BroadcastSystem* system = harness.engine().shard_system(0);
  ASSERT_NE(system, nullptr);
  ASSERT_EQ(entries.size(), system->index().entries().size());
  for (size_t i = 0; i < entries.size(); ++i) {
    EXPECT_EQ(entries[i].hilbert, system->index().entries()[i].hilbert);
    EXPECT_EQ(entries[i].bucket, system->index().entries()[i].bucket);
  }

  // Fetch bucket 0 and compare contents.
  BucketGet get;
  get.shard = 0;
  get.bucket = 0;
  replies = harness.Send(FrameType::kBucketGet, EncodeBucketGet(get));
  ASSERT_EQ(replies.size(), 1u);
  ASSERT_EQ(replies[0].type, FrameType::kBucketData);
  broadcast::DataBucket bucket;
  ASSERT_TRUE(DecodeBucketData(replies[0].payload, &shard, &bucket));
  const broadcast::DataBucket& expect = system->buckets()[0];
  EXPECT_EQ(bucket.id, expect.id);
  ASSERT_EQ(bucket.pois.size(), expect.pois.size());
  for (size_t i = 0; i < bucket.pois.size(); ++i) {
    EXPECT_EQ(bucket.pois[i].id, expect.pois[i].id);
  }

  // Out-of-range shard / bucket close the session with the right code.
  get.shard = 0;
  get.bucket = system->buckets().size();
  replies = harness.Send(FrameType::kBucketGet, EncodeBucketGet(get));
  ASSERT_EQ(replies.size(), 1u);
  ASSERT_EQ(replies[0].type, FrameType::kError);
  ErrorReply error;
  ASSERT_TRUE(DecodeErrorReply(replies[0].payload, &error));
  EXPECT_EQ(error.code, ErrorCode::kBadBucket);
  EXPECT_EQ(harness.session().state(), Session::State::kClosed);
}

TEST(SessionTest, ByeClosesCleanly) {
  SessionHarness harness;
  harness.Handshake();
  FrameResult result;
  const std::vector<Frame> replies = harness.Send(FrameType::kBye, {}, &result);
  EXPECT_TRUE(replies.empty());
  EXPECT_TRUE(result.close);
  EXPECT_EQ(harness.session().state(), Session::State::kClosed);
  // A clean close is not a protocol error.
  EXPECT_EQ(harness.counters().protocol_errors.load(), 0);
}

}  // namespace
}  // namespace lbsq::server
