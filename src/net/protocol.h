// FlowKV wire protocol: a length-prefixed, CRC-checked binary framing that
// carries the Listing-1 store API (Put/Get/ScanWindow/Merge/Delete plus
// window metadata and ETT hints) between the SPE's RemoteBackend client and
// the flowkv_server state service (docs/NETWORK.md).
//
// Frame layout on the socket (fixed little-endian header, varint body):
//
//   [u32 payload_len][u32 checksum][payload_len bytes of payload]
//
// checksum = Checksum32(payload). Both sides enforce a maximum payload size
// (kDefaultMaxFrameBytes) so a corrupt or hostile length prefix cannot
// trigger an unbounded allocation.
//
// A payload is either a RequestMessage (a pipelined batch of ops, executed
// in op order per store) or a ResponseMessage (one OpResult per op, in
// the same order). request_id correlates the two; responses to different
// requests may interleave on a pipelined connection.
//
// Every payload opens with the wire version (kWireVersion, a varint). There
// is one version on the wire at a time: a decoder that sees another refuses
// the message with kFailedPrecondition naming both numbers. Every connection
// opens with a kClusterInfo handshake that returns the server's ClusterView.
#ifndef SRC_NET_PROTOCOL_H_
#define SRC_NET_PROTOCOL_H_

#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "src/common/slice.h"
#include "src/common/status.h"
#include "src/spe/state.h"
#include "src/spe/window.h"

namespace flowkv {
namespace net {

// The one wire format both peers speak. Bump it with any change to the
// message layout or the op list.
constexpr uint32_t kWireVersion = 1;

// Upper bound on a frame's payload, enforced by every peer. Large enough for
// a full write batch or a read chunk (stores default to 4 MiB chunks), small
// enough to bound per-connection memory.
constexpr size_t kDefaultMaxFrameBytes = 16u << 20;

// Bytes of framing overhead preceding every payload.
constexpr size_t kFrameHeaderBytes = 8;

enum class OpType : uint32_t {
  kPing = 0,
  // Registers (or looks up) a store for `ns` with the given operator spec;
  // returns the server-assigned store id and the classified pattern.
  kOpenStore = 1,
  // AAR: Append(key, value, window) / chunked fetch-and-remove scan.
  kAppendAligned = 2,
  kGetWindowChunk = 3,
  // AUR: Append carries the tuple timestamp as the ETT hint for predictive
  // batch reads; Get fetch-and-removes (key, window); MergeWindows moves
  // session state.
  kAppendUnaligned = 4,
  kGetUnaligned = 5,
  kMergeWindows = 6,
  // RMW: Get/Put/Remove of the (key, window) accumulator.
  kRmwGet = 7,
  kRmwPut = 8,
  kRmwRemove = 9,
  // Checkpoints the store into a server-local directory.
  kCheckpoint = 10,
  // Returns the store's aggregated StoreStats counters as (name, value).
  kGatherStats = 11,
  // ----- replication (src/net/replica.h) -----
  // Standby -> primary: marks the connection as a replica sink. The primary
  // answers not with a ResponseMessage but with a stream of RequestMessages:
  // kSnapshotFile chunks of a fresh barrier checkpoint, kSnapshotDone, then
  // sequenced forwarded write ops (request_id = log sequence); the standby
  // acks each with an empty-status ResponseMessage carrying the sequence.
  kReplicaSubscribe = 12,
  // Primary -> standby: one chunk of a checkpoint file (path relative to the
  // epoch dir, timestamp = byte offset, value = data).
  kSnapshotFile = 13,
  // Primary -> standby: the shipped epoch is complete; path = epoch name.
  kSnapshotDone = 14,
  // Standby-internal op (loopback client -> own server): open the store for
  // `ns`/`spec` under the given id, restoring it from the shipped checkpoint
  // `path`/st<id>. Requires ids assigned in order, which holds because the
  // primary's stores.meta lists dense ids.
  kRestoreStore = 15,
  // Admin op: a server-level introspection snapshot (per-shard queue depth,
  // req/s, op latency percentiles, bytes in/out, replication lag, connection
  // table, slow-request log) answered entirely by the reactor as one JSON
  // document in OpResult::stats_json. Distinct from kGatherStats, which
  // returns one store's StoreStats counters.
  kStats = 16,
  // ----- ETT-driven prefetch (src/net/prefetch.h) -----
  // Client -> server: registers the connection for window-chunk pushes on an
  // AAR store. Carries the store id, the first window the client expects to
  // read (`window`) and the next estimated trigger time (`timestamp`, an ETT
  // hint — informational; the server's scheduler fires on observed event-time
  // progress). The push scheduler of the store's shard starts shadowing
  // appends for the (connection, store) pair. Clients send it only when the
  // handshake's ClusterView reports prefetch_push.
  kEttRegister = 17,
  // Server -> client ONLY, and never as a request op: one materialized window
  // chunk pushed ahead of the client's read. Appears as an OpResult (type
  // kPushChunk) inside an unsolicited ResponseMessage whose request_id is
  // kPushRequestId (0) — client request ids start at 1, so pushes demux
  // unambiguously from responses on the same socket. The result carries the
  // store id, the window boundary, a per-store push sequence number
  // (`push_seq`) and the chunk payload. A server never decodes this as a
  // request op (kInvalidArgument).
  kPushChunk = 18,
  // Client -> server: discards a window's AAR state without reading it — how
  // a client consumes server-side state after serving the window from its
  // read-ahead cache. A write op (buffered, ordered with appends, forwarded
  // to a standby like other writes).
  kDropWindow = 19,
  // ----- cluster failover (docs/NETWORK.md "Cluster roles, epochs") -----
  // Returns the server's ClusterView (below) as (name, value) stat_fields.
  // Answered entirely by the reactor (like kStats) and legal on every role.
  // It is the connect handshake, and how clients, standbys and flowkv_ctl
  // discover who the primary is after a failover.
  kClusterInfo = 20,
  // Admin op (tools/flowkv_ctl): `path` carries the command — "promote"
  // (bump the epoch durably and atomically flip this server to primary,
  // quiescing in-flight requests first) or "fence" (stop accepting mutating
  // ops until restart; used to neutralize a stale primary in drills). The
  // answer carries the resulting ClusterView like kClusterInfo.
  kClusterAdmin = 21,
};

// Last valid OpType value, for decoder range checks.
constexpr uint32_t kMaxOpType = static_cast<uint32_t>(OpType::kClusterAdmin);

// request_id of an unsolicited push frame (ResponseMessage carrying
// kPushChunk results). Clients number real requests from 1, so 0 can never
// collide with a pending response.
constexpr uint64_t kPushRequestId = 0;

// The cluster view a kClusterInfo / kClusterAdmin answer carries, one
// stat_fields entry per member. Names and role values are wire-stable.
constexpr char kStatClusterEpoch[] = "cluster.epoch";
constexpr char kStatClusterRole[] = "cluster.role";
constexpr char kStatClusterLeaseMs[] = "cluster.lease_ms";
constexpr char kStatClusterPriority[] = "cluster.priority";
// 1 when the server pushes closed AAR windows (kEttRegister / kPushChunk /
// kDropWindow); a client never sends kEttRegister to a server reporting 0.
constexpr char kCapPrefetchPush[] = "caps.prefetch_push";

// cluster.role values (wire-stable).
constexpr int64_t kRolePrimary = 0;
constexpr int64_t kRoleStandby = 1;
constexpr int64_t kRoleFenced = 2;

struct ClusterView {
  uint64_t epoch = 0;
  int64_t role = -1;  // -1 = not reported
  int64_t lease_ms = 0;
  int64_t priority = 0;
  bool prefetch_push = false;
};

// The stat_fields encoding of a ClusterView, and its inverse. Parsing leaves
// absent members at their defaults and ignores unknown names.
std::vector<std::pair<std::string, int64_t>> ClusterViewFields(const ClusterView& view);
ClusterView ParseClusterView(const std::vector<std::pair<std::string, int64_t>>& fields);

// ----- The op table -----
//
// Every fact the codec and the server's routing need about an op is stated
// once, in its row of the table in protocol.cc: its name, the OpRequest
// members its request puts on the wire and the OpResult members its answer
// carries (each in wire order), what it addresses, and whether it is
// forwarded to a standby or fenced. Adding an op is one OpType value, one
// row, and its execution in the server.

// An OpRequest member on the wire.
enum class RequestField : uint8_t {
  kNone,       // pads a field list shorter than kMaxOpFields
  kStoreId,    // varint64
  kNs,         // length-prefixed
  kSpec,       // EncodeStateSpec
  kKey,        // length-prefixed
  kValue,      // length-prefixed
  kWindow,     // start and end, signed varints
  kSources,    // varint32 count, then that many windows
  kTimestamp,  // signed varint
  kPath,       // length-prefixed
};

// An OpResult member on the wire. A result carries its fields only when its
// status is OK or NotFound; any other status is the whole answer.
enum class ResultField : uint8_t {
  kNone,         // pads a field list shorter than kMaxOpFields
  kStoreId,      // varint64
  kPattern,      // varint32 StorePattern
  kWindow,       // start and end, signed varints
  kPushSeq,      // varint64
  kChunk,        // done flag, entry count, then (key, value count, values)
  kValues,       // count, then length-prefixed values
  kAccumulator,  // length-prefixed
  kStatFields,   // count, then (length-prefixed name, signed varint)
  kStatsJson,    // length-prefixed
};

// Where the server sends a request op.
enum class OpAddress : uint8_t {
  kServer,   // answered on the reactor that read it
  kStore,    // the one shard the store lives on
  kRefused,  // never valid as a request op (kInvalidArgument)
};

constexpr size_t kMaxOpFields = 5;

struct OpInfo {
  OpType type;
  const char* name;
  RequestField request[kMaxOpFields];
  ResultField result[kMaxOpFields];
  OpAddress address;
  // Sent to a subscribed standby ahead of local execution.
  bool forwarded;
  // Refused whole (kFencedOff) unless this server is the primary of the
  // sender's epoch.
  bool fenced;

  bool Carries(RequestField field) const {
    for (const RequestField f : request) {
      if (f == field) return true;
    }
    return false;
  }
};

// The table row of `type`, which must be at most kMaxOpType.
const OpInfo& OpInfoOf(OpType type);

// The row's name; "?" for a value past kMaxOpType.
const char* OpTypeName(OpType type);

// One operation of a request batch. A single struct covers every op type;
// only the fields its table row lists are on the wire. The op owns every
// field: the decoder copies key and value out of the payload.
struct OpRequest {
  OpType type = OpType::kPing;
  uint64_t store_id = 0;     // the store's server-assigned id
  std::string ns;            // kOpenStore: unique store key, e.g. "w0.q7.h0"
  OperatorStateSpec spec;    // kOpenStore: window metadata for classification
  std::string key;
  std::string value;
  Window window;
  std::vector<Window> sources;  // kMergeWindows
  int64_t timestamp = 0;        // kAppendUnaligned ETT hint
  std::string path;             // kCheckpoint target directory
  // Other ops reuse these members; their table rows (protocol.cc) say how.
};

// One operation's outcome; the op's table row lists the fields on the wire.
struct OpResult {
  OpType type = OpType::kPing;
  Status status;
  uint64_t store_id = 0;                       // kOpenStore
  StorePattern pattern = StorePattern::kReadModifyWrite;  // kOpenStore
  bool done = false;                           // kGetWindowChunk
  std::vector<WindowChunkEntry> chunk;         // kGetWindowChunk, kPushChunk
  std::vector<std::string> values;             // kGetUnaligned
  std::string accumulator;                     // kRmwGet
  std::vector<std::pair<std::string, int64_t>> stat_fields;  // kGatherStats
  std::string stats_json;                      // kStats introspection document
  Window window;                               // kPushChunk: pushed boundary
  uint64_t push_seq = 0;                       // kPushChunk: push sequence
};

// The request header: every field is on the wire in every request, in this
// order, right after the wire version. Zero means untraced / not yet
// learned.
struct RequestMessage {
  uint64_t request_id = 0;
  // Relative deadline for the whole batch in milliseconds; 0 = none. The
  // server pins it to an absolute deadline at decode time and sheds ops that
  // are still queued when it passes (kTimedOut) instead of executing work
  // the client has already given up on.
  uint32_t deadline_ms = 0;
  // The sender's last-seen cluster epoch (0 = none yet). The server fences
  // mutating batches whose epoch mismatches its own. The primary stamps its
  // own epoch on every frame of the replication stream.
  uint64_t epoch = 0;
  // Set only by the standby's ReplicaPuller loopback client: marks the
  // replication apply stream, which is exempt from the standby's "no client
  // writes" fence.
  bool internal_apply = false;
  // Distributed-tracing context; trace_id 0 = untraced.
  uint64_t trace_id = 0;
  uint64_t span_id = 0;
  uint32_t trace_flags = 0;
  std::vector<OpRequest> ops;
};

struct ResponseMessage {
  uint64_t request_id = 0;
  std::vector<OpResult> results;
};

// ----- Framing -----

// Appends header + payload to `out` (ready to write to a socket).
void AppendFrame(std::string* out, const Slice& payload);

// Writes just the 8-byte frame header for `payload` into `out`, so callers
// can hand header and payload to the socket as separate buffers (scatter-
// gather writev) instead of assembling one contiguous frame string.
void EncodeFrameHeader(const Slice& payload, char out[kFrameHeaderBytes]);

// Attempts to cut one frame off the front of `input`. Returns:
//  - OK with *complete=true: `payload` points into `input`'s buffer (valid
//    until the buffer is modified) and the frame's bytes were consumed.
//  - OK with *complete=false: more bytes are needed; `input` is untouched.
//  - InvalidArgument / Corruption: oversized length prefix or checksum
//    mismatch; the connection should be dropped (resynchronization is not
//    possible within a byte stream).
Status TryDecodeFrame(Slice* input, Slice* payload, bool* complete,
                      size_t max_payload_bytes = kDefaultMaxFrameBytes);

// ----- Message bodies -----

// The decoders return kFailedPrecondition for a payload of another wire
// version and kCorruption for a malformed one.
void EncodeRequest(const RequestMessage& msg, std::string* payload);
Status DecodeRequest(Slice payload, RequestMessage* msg);

void EncodeResponse(const ResponseMessage& msg, std::string* payload);
Status DecodeResponse(Slice payload, ResponseMessage* msg);

// Spec (window metadata) encoding, shared with the server's checkpoint
// manifest so restored stores classify identically.
void EncodeStateSpec(std::string* dst, const OperatorStateSpec& spec);
bool DecodeStateSpec(Slice* input, OperatorStateSpec* spec);

// ----- Checkpoint store manifest (stores.meta) -----
//
// Written by the server's drain checkpoint and shipped verbatim to a standby
// during snapshot replication, so both sides share one codec. The encoding is
// magic + version (kStoresMetaVersion) + per-store (id, ns, spec), wrapped in
// a trailing Checksum32. Each store's checkpoint sits beside it in st<id>.
// Version 1 also carried the shard count its keys were hashed across; it is
// refused with kFailedPrecondition naming both versions.

struct StoreMetaEntry {
  uint64_t id = 0;
  std::string ns;
  OperatorStateSpec spec;
};

constexpr uint32_t kStoresMetaVersion = 2;

struct StoresMeta {
  std::vector<StoreMetaEntry> stores;  // ids are dense: stores[i].id == i
};

std::string EncodeStoresMeta(const StoresMeta& meta);
Status DecodeStoresMeta(const Slice& data, StoresMeta* meta);

}  // namespace net
}  // namespace flowkv

#endif  // SRC_NET_PROTOCOL_H_
