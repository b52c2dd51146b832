// Wire-protocol robustness: frame and message round-trips under randomized
// inputs, plus rejection of truncated, corrupted, and oversized frames. The
// decoder must never crash, over-allocate, or silently accept a damaged
// frame — a corrupt byte stream is detected and surfaced as a Status.
#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "src/common/coding.h"
#include "src/common/hash.h"
#include "src/common/random.h"
#include "src/net/protocol.h"

namespace flowkv {
namespace net {
namespace {

std::string RandomBytes(Random* rng, size_t max_len) {
  std::string out;
  const size_t len = rng->Uniform(max_len + 1);
  out.reserve(len);
  for (size_t i = 0; i < len; ++i) {
    out.push_back(static_cast<char>(rng->Uniform(256)));
  }
  return out;
}

Window RandomWindow(Random* rng) {
  const int64_t start = rng->Range(-1'000'000, 1'000'000);
  return Window(start, start + rng->Range(0, 100'000));
}

// Populates exactly the fields the wire carries for the chosen type (the
// encoding is per-type sparse; off-wire fields stay at their defaults).
OpRequest RandomOpRequest(Random* rng) {
  OpRequest op;
  op.type = static_cast<OpType>(rng->Uniform(kMaxOpType + 1));
  switch (op.type) {
    case OpType::kPing:
      break;
    case OpType::kOpenStore:
    case OpType::kRestoreStore:
      op.ns = "w0.op" + std::to_string(rng->Uniform(100)) + ".h0";
      op.spec.name = "op" + std::to_string(rng->Uniform(100));
      op.spec.window_kind = static_cast<WindowKind>(rng->Uniform(6));
      op.spec.incremental = rng->Bernoulli(0.5);
      op.spec.window_size_ms = rng->Range(0, 100'000);
      op.spec.session_gap_ms = rng->Range(0, 10'000);
      op.spec.alignment_hint = static_cast<ReadAlignmentHint>(rng->Uniform(3));
      if (op.type == OpType::kRestoreStore) {
        op.store_id = rng->Next() % 1000;
        op.path = "/tmp/restore/" + std::to_string(rng->Uniform(100));
      }
      break;
    case OpType::kReplicaSubscribe:
      op.timestamp = rng->Range(0, 1'000'000);
      break;
    case OpType::kSnapshotFile:
      op.path = "s0_st" + std::to_string(rng->Uniform(10)) + "/file";
      op.timestamp = rng->Range(0, 1'000'000);
      op.value = RandomBytes(rng, 512);
      break;
    case OpType::kSnapshotDone:
      op.path = "epoch_" + std::to_string(rng->Uniform(10));
      break;
    case OpType::kMergeWindows:
      op.store_id = rng->Next() % 1000;
      op.key = RandomBytes(rng, 64);
      for (uint64_t i = 0, n = rng->Uniform(5); i < n; ++i) {
        op.sources.push_back(RandomWindow(rng));
      }
      op.window = RandomWindow(rng);
      break;
    case OpType::kAppendAligned:
    case OpType::kAppendUnaligned:
    case OpType::kRmwPut:
      op.store_id = rng->Next() % 1000;
      op.key = RandomBytes(rng, 64);
      op.value = RandomBytes(rng, 512);
      op.window = RandomWindow(rng);
      if (op.type == OpType::kAppendUnaligned) {
        op.timestamp = rng->Range(-1'000'000, 1'000'000);
      }
      break;
    case OpType::kCheckpoint:
      op.store_id = rng->Next() % 1000;
      op.path = "/tmp/ckpt/" + std::to_string(rng->Uniform(100));
      break;
    case OpType::kGatherStats:
      op.store_id = rng->Next() % 1000;
      break;
    case OpType::kStats:
      break;  // no request fields: the snapshot is server-wide
    case OpType::kGetWindowChunk:
    case OpType::kDropWindow:
      op.store_id = rng->Next() % 1000;
      op.window = RandomWindow(rng);
      break;
    case OpType::kEttRegister:
      op.store_id = rng->Next() % 1000;
      op.window = RandomWindow(rng);
      op.timestamp = rng->Range(-1'000'000, 1'000'000);  // next-ETT hint
      break;
    case OpType::kPushChunk:
      break;  // server->client only; carries no request fields
    case OpType::kClusterInfo:
      break;  // no request fields: addresses the server, not a store
    case OpType::kClusterAdmin:
      op.path = rng->Uniform(2) == 0 ? "promote" : "fence";
      op.timestamp = rng->Range(0, 100);  // target epoch (0 = current + 1)
      break;
    default:  // kGetUnaligned, kRmwGet, kRmwRemove
      op.store_id = rng->Next() % 1000;
      op.key = RandomBytes(rng, 64);
      op.window = RandomWindow(rng);
      break;
  }
  return op;
}

// Randomizes every request header field, zero (untraced / not yet learned)
// included.
void RandomizeHeader(Random* rng, RequestMessage* msg) {
  msg->request_id = rng->Next();
  msg->deadline_ms = static_cast<uint32_t>(rng->Uniform(120'000));
  msg->epoch = rng->Bernoulli(0.2) ? 0 : rng->Next() >> rng->Uniform(64);
  msg->internal_apply = rng->Bernoulli(0.5);
  if (rng->Bernoulli(0.5)) {
    msg->trace_id = rng->Next() | 1;
    msg->span_id = rng->Next();
    msg->trace_flags = static_cast<uint32_t>(rng->Uniform(4));
  }
}

void ExpectHeaderEq(const RequestMessage& a, const RequestMessage& b) {
  EXPECT_EQ(a.request_id, b.request_id);
  EXPECT_EQ(a.deadline_ms, b.deadline_ms);
  EXPECT_EQ(a.epoch, b.epoch);
  EXPECT_EQ(a.internal_apply, b.internal_apply);
  EXPECT_EQ(a.trace_id, b.trace_id);
  EXPECT_EQ(a.span_id, b.span_id);
  EXPECT_EQ(a.trace_flags, b.trace_flags);
}

void ExpectOpEq(const OpRequest& a, const OpRequest& b) {
  EXPECT_EQ(a.type, b.type);
  EXPECT_EQ(a.store_id, b.store_id);
  EXPECT_EQ(a.ns, b.ns);
  EXPECT_EQ(a.key, b.key);
  EXPECT_EQ(a.value, b.value);
  EXPECT_EQ(a.window, b.window);
  EXPECT_EQ(a.sources, b.sources);
  EXPECT_EQ(a.timestamp, b.timestamp);
  EXPECT_EQ(a.path, b.path);
  EXPECT_EQ(a.spec.name, b.spec.name);
  EXPECT_EQ(a.spec.window_kind, b.spec.window_kind);
  EXPECT_EQ(a.spec.incremental, b.spec.incremental);
  EXPECT_EQ(a.spec.window_size_ms, b.spec.window_size_ms);
  EXPECT_EQ(a.spec.session_gap_ms, b.spec.session_gap_ms);
  EXPECT_EQ(a.spec.alignment_hint, b.spec.alignment_hint);
}

TEST(NetFrameTest, RoundTrip) {
  Random rng(7);
  for (int iter = 0; iter < 200; ++iter) {
    const std::string payload = RandomBytes(&rng, 4096);
    std::string wire;
    AppendFrame(&wire, payload);
    ASSERT_EQ(wire.size(), payload.size() + kFrameHeaderBytes);

    Slice input(wire);
    Slice decoded;
    bool complete = false;
    ASSERT_TRUE(TryDecodeFrame(&input, &decoded, &complete).ok());
    ASSERT_TRUE(complete);
    EXPECT_EQ(decoded.ToString(), payload);
    EXPECT_TRUE(input.empty());
  }
}

TEST(NetFrameTest, TruncatedFramesNeedMoreBytes) {
  Random rng(11);
  const std::string payload = RandomBytes(&rng, 1024) + "tail";
  std::string wire;
  AppendFrame(&wire, payload);

  // Every strict prefix must report "incomplete" without consuming input.
  for (size_t cut = 0; cut < wire.size(); ++cut) {
    Slice input(wire.data(), cut);
    Slice decoded;
    bool complete = true;
    ASSERT_TRUE(TryDecodeFrame(&input, &decoded, &complete).ok()) << "cut=" << cut;
    EXPECT_FALSE(complete) << "cut=" << cut;
    EXPECT_EQ(input.size(), cut) << "input must be untouched";
  }
}

TEST(NetFrameTest, CorruptPayloadRejected) {
  Random rng(13);
  int corruption_checked = 0;
  for (int iter = 0; iter < 64; ++iter) {
    const std::string payload = RandomBytes(&rng, 256) + "x";  // never empty
    std::string wire;
    AppendFrame(&wire, payload);

    // Flip one random payload byte: the checksum must catch it.
    std::string damaged = wire;
    const size_t victim = kFrameHeaderBytes + rng.Uniform(payload.size());
    damaged[victim] = static_cast<char>(damaged[victim] ^ (1 + rng.Uniform(255)));

    Slice input(damaged);
    Slice decoded;
    bool complete = false;
    const Status s = TryDecodeFrame(&input, &decoded, &complete);
    if (s.ok()) {
      // A header-length byte flip may turn into "incomplete" — fine too, the
      // frame is never accepted as valid.
      EXPECT_FALSE(complete);
    } else {
      EXPECT_TRUE(s.IsCorruption()) << s.ToString();
      ++corruption_checked;
    }
  }
  EXPECT_GT(corruption_checked, 0);
}

TEST(NetFrameTest, CorruptChecksumRejected) {
  std::string wire;
  AppendFrame(&wire, "hello frame");
  wire[5] ^= 0x40;  // inside the checksum field
  Slice input(wire);
  Slice decoded;
  bool complete = false;
  const Status s = TryDecodeFrame(&input, &decoded, &complete);
  ASSERT_FALSE(s.ok());
  EXPECT_TRUE(s.IsCorruption()) << s.ToString();
}

TEST(NetFrameTest, OversizedFrameRejected) {
  std::string wire;
  AppendFrame(&wire, std::string(1024, 'a'));
  Slice input(wire);
  Slice decoded;
  bool complete = false;
  // Limit below the payload size: reject before buffering/allocating.
  const Status s = TryDecodeFrame(&input, &decoded, &complete, /*max_payload_bytes=*/512);
  ASSERT_FALSE(s.ok());
  EXPECT_EQ(s.code(), StatusCode::kInvalidArgument) << s.ToString();

  // The same frame passes with a sufficient limit.
  Slice ok_input(wire);
  ASSERT_TRUE(TryDecodeFrame(&ok_input, &decoded, &complete, 2048).ok());
  EXPECT_TRUE(complete);
}

TEST(NetFrameTest, PipelinedFramesDecodeInOrder)
{
  std::string wire;
  std::vector<std::string> payloads = {"first", "", "third frame with more bytes"};
  for (const auto& p : payloads) {
    AppendFrame(&wire, p);
  }
  Slice input(wire);
  for (const auto& expected : payloads) {
    Slice decoded;
    bool complete = false;
    ASSERT_TRUE(TryDecodeFrame(&input, &decoded, &complete).ok());
    ASSERT_TRUE(complete);
    EXPECT_EQ(decoded.ToString(), expected);
  }
  EXPECT_TRUE(input.empty());
}

TEST(NetMessageTest, RequestRoundTripProperty) {
  Random rng(29);
  for (int iter = 0; iter < 100; ++iter) {
    RequestMessage msg;
    RandomizeHeader(&rng, &msg);
    const uint64_t num_ops = rng.Uniform(8);
    for (uint64_t i = 0; i < num_ops; ++i) {
      msg.ops.push_back(RandomOpRequest(&rng));
    }

    std::string payload;
    EncodeRequest(msg, &payload);
    RequestMessage decoded;
    ASSERT_TRUE(DecodeRequest(payload, &decoded).ok());
    ExpectHeaderEq(decoded, msg);
    ASSERT_EQ(decoded.ops.size(), msg.ops.size());
    for (size_t i = 0; i < msg.ops.size(); ++i) {
      ExpectOpEq(decoded.ops[i], msg.ops[i]);
    }
  }
}

// ----- the fixed request header and the wire version -----

RequestMessage SampleRequest() {
  RequestMessage msg;
  msg.request_id = 77;
  msg.deadline_ms = 1000;
  msg.epoch = 300;
  msg.internal_apply = true;
  msg.trace_id = 0x1234'5678'9ABCull;
  msg.span_id = 7;
  msg.trace_flags = 1;
  OpRequest op;
  op.type = OpType::kRmwPut;
  op.store_id = 3;
  op.key = "key";
  op.value = "value";
  op.window = Window(100, 200);
  msg.ops.push_back(op);
  return msg;
}

// Bytes of `msg`'s encoding that belong to the header (version included).
size_t HeaderBytes(RequestMessage msg) {
  msg.ops.clear();
  std::string payload;
  EncodeRequest(msg, &payload);
  return payload.size() - 1;  // minus the 1-byte zero op count
}

// `payload` with its leading wire-version varint replaced by `version`.
std::string WithWireVersion(const std::string& payload, uint32_t version) {
  Slice rest(payload);
  uint32_t ours = 0;
  EXPECT_TRUE(GetVarint32(&rest, &ours));
  EXPECT_EQ(ours, kWireVersion);
  std::string out;
  PutVarint32(&out, version);
  out.append(rest.data(), rest.size());
  return out;
}

TEST(NetWireVersionTest, OtherVersionIsRefusedNamingBothVersions) {
  std::string request;
  EncodeRequest(SampleRequest(), &request);
  ResponseMessage response;
  response.request_id = 77;
  response.results.resize(1);
  std::string response_payload;
  EncodeResponse(response, &response_payload);

  const std::string theirs = "wire version " + std::to_string(kWireVersion + 1);
  const std::string ours = "speaks " + std::to_string(kWireVersion);
  RequestMessage decoded_request;
  Status s = DecodeRequest(WithWireVersion(request, kWireVersion + 1), &decoded_request);
  EXPECT_TRUE(s.IsFailedPrecondition()) << s.ToString();
  EXPECT_NE(s.message().find(theirs), std::string::npos) << s.ToString();
  EXPECT_NE(s.message().find(ours), std::string::npos) << s.ToString();

  ResponseMessage decoded_response;
  s = DecodeResponse(WithWireVersion(response_payload, kWireVersion + 1), &decoded_response);
  EXPECT_TRUE(s.IsFailedPrecondition()) << s.ToString();
  EXPECT_NE(s.message().find(theirs), std::string::npos) << s.ToString();
  EXPECT_NE(s.message().find(ours), std::string::npos) << s.ToString();
}

TEST(NetWireVersionTest, ClusterViewRoundTripsThroughStatFields) {
  ClusterView view;
  view.epoch = 12;
  view.role = kRoleStandby;
  view.lease_ms = 3000;
  view.priority = 7;
  view.prefetch_push = true;
  std::vector<std::pair<std::string, int64_t>> fields = ClusterViewFields(view);
  fields.emplace_back("cluster.future_member", 1);  // unknown names are skipped
  const ClusterView parsed = ParseClusterView(fields);
  EXPECT_EQ(parsed.epoch, view.epoch);
  EXPECT_EQ(parsed.role, view.role);
  EXPECT_EQ(parsed.lease_ms, view.lease_ms);
  EXPECT_EQ(parsed.priority, view.priority);
  EXPECT_EQ(parsed.prefetch_push, view.prefetch_push);

  // Absent members keep their defaults.
  const ClusterView empty = ParseClusterView({});
  EXPECT_EQ(empty.epoch, 0u);
  EXPECT_EQ(empty.role, -1);
  EXPECT_FALSE(empty.prefetch_push);
}

TEST(NetWireVersionTest, PreVersionGoldenIsRefused) {
  // An encoder from before the wire version, built by hand: request_id,
  // deadline_ms, one kPing op and nothing else. Its leading request_id reads
  // as a foreign version, so it is refused, never misparsed.
  std::string payload;
  PutVarint64(&payload, 9);   // request_id
  PutVarint32(&payload, 500);  // deadline_ms
  PutVarint32(&payload, 1);   // num_ops
  PutVarint32(&payload, static_cast<uint32_t>(OpType::kPing));

  RequestMessage decoded;
  const Status s = DecodeRequest(payload, &decoded);
  EXPECT_TRUE(s.IsFailedPrecondition()) << s.ToString();
}

TEST(NetTraceContextTest, TracedRequestTruncationSweep) {
  // Every header field is always on the wire, so every strict prefix of a
  // request is rejected: none can pass for an untraced or epoch-less one.
  const RequestMessage msg = SampleRequest();
  std::string payload;
  EncodeRequest(msg, &payload);
  for (size_t cut = 0; cut < payload.size(); ++cut) {
    RequestMessage decoded;
    EXPECT_FALSE(DecodeRequest(Slice(payload.data(), cut), &decoded).ok()) << "cut=" << cut;
  }

  RequestMessage decoded;
  ASSERT_TRUE(DecodeRequest(payload, &decoded).ok());
  ExpectHeaderEq(decoded, msg);
}

TEST(NetTraceContextTest, BitFlippedTraceBlockNeverCrashes) {
  const RequestMessage msg = SampleRequest();
  std::string payload;
  EncodeRequest(msg, &payload);
  const size_t header_bytes = HeaderBytes(msg);
  for (size_t pos = 0; pos < header_bytes; ++pos) {
    for (int bit = 0; bit < 8; ++bit) {
      std::string damaged = payload;
      damaged[pos] = static_cast<char>(damaged[pos] ^ (1u << bit));
      RequestMessage decoded;
      const Status s = DecodeRequest(damaged, &decoded);
      if (pos == 0) {
        // The version byte: any flip names another version.
        EXPECT_TRUE(s.IsFailedPrecondition()) << "bit=" << bit << " " << s.ToString();
      } else if (s.ok()) {
        // Damage the codec accepts (the frame CRC, not the codec, owns
        // integrity) stays inside the header: the op list is intact.
        ASSERT_EQ(decoded.ops.size(), 1u) << "pos=" << pos << " bit=" << bit;
        ExpectOpEq(decoded.ops[0], msg.ops[0]);
      }
    }
  }
}

TEST(NetMessageTest, StatsRoundTrip) {
  // kStats request: no op fields; kStats response: one opaque JSON document.
  RequestMessage req;
  req.request_id = 5;
  OpRequest op;
  op.type = OpType::kStats;
  req.ops.push_back(op);
  std::string payload;
  EncodeRequest(req, &payload);
  RequestMessage req_decoded;
  ASSERT_TRUE(DecodeRequest(payload, &req_decoded).ok());
  ASSERT_EQ(req_decoded.ops.size(), 1u);
  EXPECT_EQ(req_decoded.ops[0].type, OpType::kStats);

  ResponseMessage resp;
  resp.request_id = 5;
  OpResult r;
  r.type = OpType::kStats;
  r.stats_json = "{\"server\":{\"requests\":17},\"shards\":[]}";
  resp.results.push_back(r);
  payload.clear();
  EncodeResponse(resp, &payload);
  ResponseMessage resp_decoded;
  ASSERT_TRUE(DecodeResponse(payload, &resp_decoded).ok());
  ASSERT_EQ(resp_decoded.results.size(), 1u);
  EXPECT_EQ(resp_decoded.results[0].type, OpType::kStats);
  EXPECT_EQ(resp_decoded.results[0].stats_json, r.stats_json);
}

TEST(NetMessageTest, ResponseRoundTripProperty) {
  Random rng(31);
  for (int iter = 0; iter < 100; ++iter) {
    ResponseMessage msg;
    msg.request_id = rng.Next();
    const uint64_t num = rng.Uniform(6);
    for (uint64_t i = 0; i < num; ++i) {
      OpResult r;
      switch (rng.Uniform(6)) {
        case 0:
          r.type = OpType::kGetWindowChunk;
          r.done = rng.Bernoulli(0.5);
          for (uint64_t k = 0, n = rng.Uniform(4); k < n; ++k) {
            WindowChunkEntry e;
            e.key = RandomBytes(&rng, 32);
            for (uint64_t v = 0, m = rng.Uniform(4); v < m; ++v) {
              e.values.push_back(RandomBytes(&rng, 64));
            }
            r.chunk.push_back(std::move(e));
          }
          break;
        case 1:
          r.type = OpType::kGetUnaligned;
          for (uint64_t v = 0, m = rng.Uniform(5); v < m; ++v) {
            r.values.push_back(RandomBytes(&rng, 64));
          }
          break;
        case 2:
          r.type = OpType::kRmwGet;
          if (rng.Bernoulli(0.3)) {
            r.status = Status::NotFound("missing");
          } else {
            r.accumulator = RandomBytes(&rng, 128);
          }
          break;
        case 3:
          r.type = OpType::kOpenStore;
          r.store_id = rng.Next() % 100;
          r.pattern = static_cast<StorePattern>(rng.Uniform(3));
          break;
        case 4:
          r.type = OpType::kGatherStats;
          if (rng.Bernoulli(0.3)) {
            r.status = Status::TimedOut("deadline");
          } else {
            for (uint64_t f = 0, m = rng.Uniform(4); f < m; ++f) {
              r.stat_fields.emplace_back("field" + std::to_string(f),
                                         rng.Range(-1000, 1000));
            }
          }
          break;
        default:
          r.type = OpType::kStats;
          r.stats_json = RandomBytes(&rng, 256);  // opaque to the codec
          break;
      }
      msg.results.push_back(std::move(r));
    }

    std::string payload;
    EncodeResponse(msg, &payload);
    ResponseMessage decoded;
    ASSERT_TRUE(DecodeResponse(payload, &decoded).ok());
    ASSERT_EQ(decoded.request_id, msg.request_id);
    ASSERT_EQ(decoded.results.size(), msg.results.size());
    for (size_t i = 0; i < msg.results.size(); ++i) {
      const OpResult& a = msg.results[i];
      const OpResult& b = decoded.results[i];
      EXPECT_EQ(a.type, b.type);
      EXPECT_EQ(a.status.code(), b.status.code());
      EXPECT_EQ(a.status.message(), b.status.message());
      if (a.status.ok() || a.status.IsNotFound()) {
        EXPECT_EQ(a.store_id, b.store_id);
        EXPECT_EQ(a.pattern, b.pattern);
        EXPECT_EQ(a.done, b.done);
        EXPECT_EQ(a.values, b.values);
        EXPECT_EQ(a.accumulator, b.accumulator);
        EXPECT_EQ(a.stat_fields, b.stat_fields);
        EXPECT_EQ(a.stats_json, b.stats_json);
        ASSERT_EQ(a.chunk.size(), b.chunk.size());
        for (size_t k = 0; k < a.chunk.size(); ++k) {
          EXPECT_EQ(a.chunk[k].key, b.chunk[k].key);
          EXPECT_EQ(a.chunk[k].values, b.chunk[k].values);
        }
      }
    }
  }
}

// ----- prefetch push extension (kEttRegister / kPushChunk / kDropWindow) -----

TEST(NetPrefetchProtoTest, EttRegisterRequestRoundTrip) {
  RequestMessage msg;
  msg.request_id = 91;
  OpRequest op;
  op.type = OpType::kEttRegister;
  op.store_id = 12;
  op.window = Window(5'000, 10'000);  // first expected read window
  op.timestamp = 10'000;              // next-ETT estimate hint
  msg.ops.push_back(op);

  std::string payload;
  EncodeRequest(msg, &payload);
  RequestMessage decoded;
  ASSERT_TRUE(DecodeRequest(payload, &decoded).ok());
  ASSERT_EQ(decoded.ops.size(), 1u);
  ExpectOpEq(decoded.ops[0], op);
}

TEST(NetPrefetchProtoTest, DropWindowRequestRoundTrip) {
  RequestMessage msg;
  msg.request_id = 92;
  OpRequest op;
  op.type = OpType::kDropWindow;
  op.store_id = 7;
  op.window = Window(-2'000, 3'000);
  msg.ops.push_back(op);

  std::string payload;
  EncodeRequest(msg, &payload);
  RequestMessage decoded;
  ASSERT_TRUE(DecodeRequest(payload, &decoded).ok());
  ASSERT_EQ(decoded.ops.size(), 1u);
  ExpectOpEq(decoded.ops[0], op);
}

TEST(NetPrefetchProtoTest, PushChunkResponseRoundTripProperty) {
  // An unsolicited push frame: request_id == kPushRequestId, one kPushChunk
  // result carrying (store_id, window, push_seq) + the window's chunk. The
  // chunk payload reuses the kGetWindowChunk encoding verbatim.
  Random rng(83);
  for (int iter = 0; iter < 50; ++iter) {
    ResponseMessage msg;
    msg.request_id = kPushRequestId;
    OpResult r;
    r.type = OpType::kPushChunk;
    r.store_id = rng.Next() % 1000;
    r.window = RandomWindow(&rng);
    r.push_seq = 1 + rng.Next() % 1'000'000;
    r.done = true;
    for (uint64_t k = 0, n = rng.Uniform(5); k < n; ++k) {
      WindowChunkEntry e;
      e.key = RandomBytes(&rng, 32);
      for (uint64_t v = 0, m = rng.Uniform(4); v < m; ++v) {
        e.values.push_back(RandomBytes(&rng, 64));
      }
      r.chunk.push_back(std::move(e));
    }
    msg.results.push_back(std::move(r));

    std::string payload;
    EncodeResponse(msg, &payload);
    ResponseMessage decoded;
    ASSERT_TRUE(DecodeResponse(payload, &decoded).ok());
    ASSERT_EQ(decoded.request_id, kPushRequestId);
    ASSERT_EQ(decoded.results.size(), 1u);
    const OpResult& a = msg.results[0];
    const OpResult& b = decoded.results[0];
    EXPECT_EQ(b.type, OpType::kPushChunk);
    EXPECT_EQ(b.store_id, a.store_id);
    EXPECT_EQ(b.window, a.window);
    EXPECT_EQ(b.push_seq, a.push_seq);
    EXPECT_EQ(b.done, a.done);
    ASSERT_EQ(b.chunk.size(), a.chunk.size());
    for (size_t k = 0; k < a.chunk.size(); ++k) {
      EXPECT_EQ(b.chunk[k].key, a.chunk[k].key);
      EXPECT_EQ(b.chunk[k].values, a.chunk[k].values);
    }
  }
}

TEST(NetPrefetchProtoTest, PushChunkResponseTruncationSweep) {
  // Every strict prefix of a push frame body must be rejected — a push that
  // loses its tail must never decode as a shorter (but valid) chunk, or the
  // client's count-equality coherence check would compare against a lie.
  ResponseMessage msg;
  msg.request_id = kPushRequestId;
  OpResult r;
  r.type = OpType::kPushChunk;
  r.store_id = 3;
  r.window = Window(0, 1'000);
  r.push_seq = 9;
  r.done = true;
  WindowChunkEntry e;
  e.key = "key-a";
  e.values = {"v0", "v1"};
  r.chunk.push_back(e);
  msg.results.push_back(r);
  std::string payload;
  EncodeResponse(msg, &payload);

  for (size_t cut = 0; cut < payload.size(); ++cut) {
    ResponseMessage decoded;
    EXPECT_FALSE(DecodeResponse(Slice(payload.data(), cut), &decoded).ok())
        << "cut=" << cut;
  }
}

TEST(NetWireVersionTest, OpIdsArePinnedByTheWireVersion) {
  // Op ids and the push request id are part of wire version 1: peers of one
  // version agree on them byte for byte. Renumbering an op (or adding one)
  // changes the wire, so it must come with a kWireVersion bump, and this
  // test is updated together with it.
  EXPECT_EQ(kWireVersion, 1u);
  EXPECT_EQ(static_cast<uint32_t>(OpType::kEttRegister), 17u);
  EXPECT_EQ(static_cast<uint32_t>(OpType::kPushChunk), 18u);
  EXPECT_EQ(static_cast<uint32_t>(OpType::kDropWindow), 19u);
  EXPECT_EQ(static_cast<uint32_t>(OpType::kClusterInfo), 20u);
  EXPECT_EQ(static_cast<uint32_t>(OpType::kClusterAdmin), 21u);
  EXPECT_EQ(kMaxOpType, static_cast<uint32_t>(OpType::kClusterAdmin));
  EXPECT_EQ(kPushRequestId, 0u);
}

// ----- golden wire bytes -----
//
// One request per op type and one response per result-carrying type, with
// every OpRequest / OpResult member set to a distinct value, so each encoding
// shows exactly which fields the op puts on the wire and in which order. The
// round-trip tests above pass for any field order encoder and decoder agree
// on; these fixed strings pin the order itself. They are literals captured
// from a known-good encoder, never derived from the op table.

std::string Hex(const std::string& bytes) {
  static const char kDigits[] = "0123456789abcdef";
  std::string out;
  for (const char ch : bytes) {
    const unsigned char c = static_cast<unsigned char>(ch);
    out.push_back(kDigits[c >> 4]);
    out.push_back(kDigits[c & 0xf]);
  }
  return out;
}

RequestMessage GoldenRequest(OpType type) {
  RequestMessage msg;
  msg.request_id = 77;
  msg.deadline_ms = 1000;
  msg.epoch = 3;
  OpRequest op;
  op.type = type;
  op.store_id = 5;
  op.ns = "ns";
  op.spec.name = "op";
  op.spec.window_kind = WindowKind::kSession;
  op.spec.incremental = true;
  op.spec.window_size_ms = 60;
  op.spec.session_gap_ms = 9;
  op.spec.alignment_hint = ReadAlignmentHint::kUnaligned;
  op.key = "k";
  op.value = "val";
  op.window = Window(10, 20);
  op.sources = {Window(1, 2), Window(3, 4)};
  op.timestamp = -7;
  op.path = "p";
  msg.ops.push_back(op);
  return msg;
}

OpResult GoldenResult(OpType type, Status status) {
  OpResult r;
  r.type = type;
  r.status = std::move(status);
  r.store_id = 9;
  r.pattern = StorePattern::kAppendUnaligned;
  r.done = true;
  r.chunk = {{"ck", {"v1", "v2"}}};
  r.values = {"u1"};
  r.accumulator = "acc";
  r.stat_fields = {{"f", -3}};
  r.stats_json = "{}";
  r.window = Window(30, 40);
  r.push_seq = 6;
  return r;
}

TEST(NetGoldenWireTest, EveryRequestOpEncodesToItsFixedBytes) {
  const char* const kGolden[] = {
      /* 0 ping */ "014de80703000000000100",
      /* 1 open_store */ "014de80703000000000101026e73026f700201781202",
      /* 2 append_aligned */ "014de8070300000000010205016b0376616c1428",
      /* 3 get_window_chunk */ "014de80703000000000103051428",
      /* 4 append_unaligned */ "014de8070300000000010405016b0376616c14280d",
      /* 5 get_unaligned */ "014de8070300000000010505016b1428",
      /* 6 merge_windows */ "014de8070300000000010605016b02020406081428",
      /* 7 rmw_get */ "014de8070300000000010705016b1428",
      /* 8 rmw_put */ "014de8070300000000010805016b14280376616c",
      /* 9 rmw_remove */ "014de8070300000000010905016b1428",
      /* 10 checkpoint */ "014de8070300000000010a050170",
      /* 11 gather_stats */ "014de8070300000000010b05",
      /* 12 replica_subscribe */ "014de8070300000000010c0d",
      /* 13 snapshot_file */ "014de8070300000000010d01700d0376616c",
      /* 14 snapshot_done */ "014de8070300000000010e0170",
      /* 15 restore_store */ "014de8070300000000010f05026e73026f7002017812020170",
      /* 16 stats */ "014de80703000000000110",
      /* 17 ett_register */ "014de807030000000001110514280d",
      /* 18 push_chunk */ "014de80703000000000112",
      /* 19 drop_window */ "014de80703000000000113051428",
      /* 20 cluster_info */ "014de80703000000000114",
      /* 21 cluster_admin */ "014de8070300000000011501700d",
  };
  static_assert(sizeof(kGolden) / sizeof(kGolden[0]) == kMaxOpType + 1);
  for (uint32_t t = 0; t <= kMaxOpType; ++t) {
    const OpType type = static_cast<OpType>(t);
    std::string payload;
    EncodeRequest(GoldenRequest(type), &payload);
    EXPECT_EQ(Hex(payload), kGolden[t]) << OpTypeName(type);

    // Decoding back yields, per member, either the golden value or the
    // default (off-wire), and re-encodes to the same bytes.
    RequestMessage decoded;
    ASSERT_TRUE(DecodeRequest(payload, &decoded).ok()) << OpTypeName(type);
    ASSERT_EQ(decoded.ops.size(), 1u);
    const OpRequest& op = decoded.ops[0];
    EXPECT_EQ(op.type, type);
    EXPECT_TRUE(op.store_id == 0 || op.store_id == 5);
    EXPECT_TRUE(op.ns.empty() || op.ns == "ns");
    EXPECT_TRUE(op.spec.name.empty() || op.spec.name == "op");
    EXPECT_TRUE(op.key.empty() || op.key == "k");
    EXPECT_TRUE(op.value.empty() || op.value == "val");
    EXPECT_TRUE(op.window == Window() || op.window == Window(10, 20));
    EXPECT_TRUE(op.sources.empty() || op.sources.size() == 2u);
    EXPECT_TRUE(op.timestamp == 0 || op.timestamp == -7);
    EXPECT_TRUE(op.path.empty() || op.path == "p");
    std::string again;
    EncodeRequest(decoded, &again);
    EXPECT_EQ(Hex(again), kGolden[t]) << OpTypeName(type);
  }
}

TEST(NetGoldenWireTest, EveryResultShapeEncodesToItsFixedBytes) {
  struct Case {
    OpType type;
    Status status;
    const char* hex;
  };
  const Case kGolden[] = {
      {OpType::kOpenStore, Status::Ok(), "014d010100000901"},
      {OpType::kGetWindowChunk, Status::Ok(), "014d01030000010102636b02027631027632"},
      {OpType::kGetUnaligned, Status::Ok(), "014d0105000001027531"},
      {OpType::kRmwGet, Status::Ok(), "014d0107000003616363"},
      {OpType::kRmwGet, Status::NotFound("nf"), "014d010701026e6603616363"},
      {OpType::kGatherStats, Status::Ok(), "014d010b000001016605"},
      {OpType::kStats, Status::Ok(), "014d01100000027b7d"},
      {OpType::kPushChunk, Status::Ok(), "014d01120000093c5006010102636b02027631027632"},
      {OpType::kClusterInfo, Status::Ok(), "014d0114000001016605"},
      {OpType::kClusterAdmin, Status::Ok(), "014d0115000001016605"},
      // No result fields: the status alone.
      {OpType::kRmwPut, Status::Ok(), "014d01080000"},
      // No payload after a failed status, whatever the type carries.
      {OpType::kGetUnaligned, Status::InvalidArgument("bad"), "014d01050203626164"},
  };
  for (const Case& c : kGolden) {
    ResponseMessage msg;
    msg.request_id = 77;
    msg.results.push_back(GoldenResult(c.type, c.status));
    std::string payload;
    EncodeResponse(msg, &payload);
    EXPECT_EQ(Hex(payload), c.hex) << OpTypeName(c.type) << " " << c.status.ToString();

    ResponseMessage decoded;
    ASSERT_TRUE(DecodeResponse(payload, &decoded).ok()) << OpTypeName(c.type);
    ASSERT_EQ(decoded.results.size(), 1u);
    EXPECT_EQ(decoded.results[0].type, c.type);
    EXPECT_EQ(decoded.results[0].status.code(), c.status.code());
    std::string again;
    EncodeResponse(decoded, &again);
    EXPECT_EQ(Hex(again), c.hex) << OpTypeName(c.type);
  }
}

TEST(NetMessageTest, GarbagePayloadNeverCrashes) {
  Random rng(37);
  int rejected = 0;
  for (int iter = 0; iter < 500; ++iter) {
    const std::string garbage = RandomBytes(&rng, 256);
    RequestMessage request;
    ResponseMessage response;
    if (!DecodeRequest(garbage, &request).ok()) ++rejected;
    if (!DecodeResponse(garbage, &response).ok()) ++rejected;
  }
  // Random bytes must be overwhelmingly rejected (a handful may parse as a
  // trivial empty message — that is fine, they are structurally valid).
  EXPECT_GT(rejected, 900);
}

TEST(NetMessageTest, TruncatedMessageRejected) {
  RequestMessage msg;
  msg.request_id = 42;
  OpRequest op;
  op.type = OpType::kRmwPut;
  op.store_id = 3;
  op.key = "some-key";
  op.value = "some-value";
  op.window = Window(100, 200);
  msg.ops.push_back(op);

  std::string payload;
  EncodeRequest(msg, &payload);
  for (size_t cut = 1; cut < payload.size(); ++cut) {
    RequestMessage decoded;
    EXPECT_FALSE(DecodeRequest(Slice(payload.data(), cut), &decoded).ok())
        << "cut=" << cut;
  }
}

TEST(NetMessageTest, TrailingBytesRejected) {
  RequestMessage msg;
  msg.request_id = 1;
  std::string payload;
  EncodeRequest(msg, &payload);
  payload.push_back('\0');
  RequestMessage decoded;
  EXPECT_FALSE(DecodeRequest(payload, &decoded).ok());
}

StoresMeta RandomStoresMeta(Random* rng) {
  StoresMeta meta;
  const uint64_t n = rng->Uniform(5);
  for (uint64_t i = 0; i < n; ++i) {
    StoreMetaEntry entry;
    entry.id = i;  // the codec enforces dense ids
    entry.ns = "w0.op" + std::to_string(i) + ".h" + std::to_string(rng->Uniform(4));
    entry.spec.name = "op" + std::to_string(rng->Uniform(100));
    entry.spec.window_kind = static_cast<WindowKind>(rng->Uniform(6));
    entry.spec.incremental = rng->Bernoulli(0.5);
    entry.spec.window_size_ms = rng->Range(0, 100'000);
    entry.spec.session_gap_ms = rng->Range(0, 10'000);
    meta.stores.push_back(std::move(entry));
  }
  return meta;
}

TEST(StoresMetaTest, RoundTripProperty) {
  Random rng(41);
  for (int iter = 0; iter < 100; ++iter) {
    const StoresMeta meta = RandomStoresMeta(&rng);
    const std::string blob = EncodeStoresMeta(meta);
    StoresMeta decoded;
    ASSERT_TRUE(DecodeStoresMeta(blob, &decoded).ok());
    ASSERT_EQ(decoded.stores.size(), meta.stores.size());
    for (size_t i = 0; i < meta.stores.size(); ++i) {
      EXPECT_EQ(decoded.stores[i].id, meta.stores[i].id);
      EXPECT_EQ(decoded.stores[i].ns, meta.stores[i].ns);
      EXPECT_EQ(decoded.stores[i].spec.name, meta.stores[i].spec.name);
      EXPECT_EQ(decoded.stores[i].spec.window_kind, meta.stores[i].spec.window_kind);
    }
  }
}

// ----- S3: exhaustive truncation / bit-flip sweeps over a valid corpus -----
//
// Every decoder entry point must treat a damaged input as data, not trust:
// the outcome is a clean Status (or "need more bytes" at the frame layer),
// never a crash, an unbounded allocation, or a silent success that yields
// different bytes than were sent.

// A corpus of valid encoded payloads spanning every message kind.
std::vector<std::string> BuildValidCorpus(Random* rng) {
  std::vector<std::string> corpus;
  for (int i = 0; i < 8; ++i) {
    RequestMessage req;
    // Every header field randomized, so the sweeps cover the header parse.
    RandomizeHeader(rng, &req);
    for (uint64_t k = 0, n = 1 + rng->Uniform(5); k < n; ++k) {
      req.ops.push_back(RandomOpRequest(rng));
    }
    std::string payload;
    EncodeRequest(req, &payload);
    corpus.push_back(std::move(payload));
  }
  for (int i = 0; i < 4; ++i) {
    ResponseMessage resp;
    resp.request_id = rng->Next();
    OpResult r;
    r.type = OpType::kRmwGet;
    r.accumulator = RandomBytes(rng, 64);
    resp.results.push_back(r);
    OpResult err;
    err.type = OpType::kAppendAligned;
    err.status = Status::TimedOut("deadline expired before execution");
    resp.results.push_back(err);
    OpResult stats;
    stats.type = OpType::kStats;
    stats.stats_json = "{\"server\":{\"requests\":" + std::to_string(i) + "}}";
    resp.results.push_back(stats);
    std::string payload;
    EncodeResponse(resp, &payload);
    corpus.push_back(std::move(payload));
  }
  return corpus;
}

// Decodes `payload` through every message decoder; the only requirement is
// that each terminates with a Status (damage below the frame CRC may still
// parse — the CRC, not the body codec, owns integrity).
void DecodeAllWays(const Slice& payload, int* rejections) {
  RequestMessage req;
  if (!DecodeRequest(payload, &req).ok()) ++*rejections;
  ResponseMessage resp;
  if (!DecodeResponse(payload, &resp).ok()) ++*rejections;
  StoresMeta meta;
  if (!DecodeStoresMeta(payload, &meta).ok()) ++*rejections;
}

TEST(NetFuzzTest, EveryTruncationOfEveryCorpusPayloadIsClean) {
  Random rng(53);
  for (const std::string& payload : BuildValidCorpus(&rng)) {
    // Message layer: every strict prefix of a valid body must be rejected
    // (the codec length-prefixes everything and rejects trailing bytes, so a
    // prefix can never masquerade as a complete message).
    for (size_t cut = 0; cut < payload.size(); ++cut) {
      int rejections = 0;
      DecodeAllWays(Slice(payload.data(), cut), &rejections);
      // At most one decoder may accept (a degenerate empty message).
      EXPECT_GE(rejections, 2) << "cut=" << cut;
    }
    // Frame layer: every strict prefix of the framed payload reports
    // "incomplete" without consuming bytes or allocating the full frame.
    std::string wire;
    AppendFrame(&wire, payload);
    for (size_t cut = 0; cut < wire.size(); ++cut) {
      Slice input(wire.data(), cut);
      Slice decoded;
      bool complete = true;
      ASSERT_TRUE(TryDecodeFrame(&input, &decoded, &complete).ok()) << "cut=" << cut;
      EXPECT_FALSE(complete) << "cut=" << cut;
    }
  }
}

TEST(NetFuzzTest, EveryBitFlipOfFramedCorpusIsCaughtOrIncomplete) {
  Random rng(59);
  int caught = 0;
  for (const std::string& payload : BuildValidCorpus(&rng)) {
    std::string wire;
    AppendFrame(&wire, payload);
    // Exhaustive over bytes, seeded-random over the bit within each byte —
    // covers header (length + checksum) and every payload position.
    for (size_t pos = 0; pos < wire.size(); ++pos) {
      std::string damaged = wire;
      damaged[pos] = static_cast<char>(damaged[pos] ^ (1u << rng.Uniform(8)));
      Slice input(damaged);
      Slice decoded;
      bool complete = false;
      const Status s = TryDecodeFrame(&input, &decoded, &complete);
      if (s.ok() && complete) {
        // "Complete" after a flip is only legal if the decode equals the
        // original payload byte-for-byte — anything else is a silent success.
        ASSERT_EQ(decoded.ToString(), payload) << "pos=" << pos;
      } else if (!s.ok()) {
        EXPECT_TRUE(s.IsCorruption() || s.code() == StatusCode::kInvalidArgument)
            << s.ToString();
        ++caught;
      }
      // s.ok() && !complete: the flip grew the length prefix — the reader
      // would wait for bytes that never arrive and time out. Clean too.
    }
  }
  EXPECT_GT(caught, 0);
}

TEST(NetFuzzTest, BitFlippedMessageBodiesNeverCrash) {
  Random rng(61);
  for (const std::string& payload : BuildValidCorpus(&rng)) {
    if (payload.empty()) continue;
    for (int iter = 0; iter < 256; ++iter) {
      std::string damaged = payload;
      // 1–4 random bit flips per iteration.
      for (uint64_t f = 0, n = 1 + rng.Uniform(4); f < n; ++f) {
        const size_t pos = rng.Uniform(damaged.size());
        damaged[pos] = static_cast<char>(damaged[pos] ^ (1u << rng.Uniform(8)));
      }
      int rejections = 0;
      DecodeAllWays(damaged, &rejections);  // must terminate, never crash/OOM
    }
  }
}

// A version-1 manifest (it carried the shard count keys were hashed
// across) is refused with a status naming both versions, not misread.
TEST(StoresMetaTest, VersionOneIsRefusedNamingBothVersions) {
  std::string v1;
  PutFixed32(&v1, 0x464b564d);  // "FKVM"
  PutVarint32(&v1, 1);          // version
  PutVarint32(&v1, 3);          // num_shards
  PutVarint32(&v1, 1);          // one store
  PutVarint64(&v1, 0);
  PutLengthPrefixed(&v1, "w0.q7");
  EncodeStateSpec(&v1, OperatorStateSpec{});
  PutFixed32(&v1, Checksum32(v1));
  StoresMeta decoded;
  const Status s = DecodeStoresMeta(v1, &decoded);
  EXPECT_EQ(s.code(), StatusCode::kFailedPrecondition) << s.ToString();
  EXPECT_NE(s.ToString().find("version 1"), std::string::npos) << s.ToString();
  EXPECT_NE(s.ToString().find("version " + std::to_string(kStoresMetaVersion)),
            std::string::npos)
      << s.ToString();
}

TEST(NetFuzzTest, StoresMetaCatchesEverySingleBitFlip) {
  Random rng(67);
  const StoresMeta meta = RandomStoresMeta(&rng);
  const std::string blob = EncodeStoresMeta(meta);
  // stores.meta carries its own trailing checksum, so unlike the message
  // codecs every single-bit flip must be rejected outright.
  for (size_t pos = 0; pos < blob.size(); ++pos) {
    for (int bit = 0; bit < 8; ++bit) {
      std::string damaged = blob;
      damaged[pos] = static_cast<char>(damaged[pos] ^ (1u << bit));
      StoresMeta decoded;
      EXPECT_FALSE(DecodeStoresMeta(damaged, &decoded).ok())
          << "pos=" << pos << " bit=" << bit;
    }
  }
}

}  // namespace
}  // namespace net
}  // namespace flowkv
