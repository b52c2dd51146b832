#include "src/net/protocol.h"

#include "src/common/coding.h"
#include "src/common/hash.h"

namespace flowkv {
namespace net {

namespace {

void PutWindow(std::string* dst, const Window& w) {
  PutVarsigned64(dst, w.start);
  PutVarsigned64(dst, w.end);
}

bool GetWindow(Slice* input, Window* w) {
  return GetVarsigned64(input, &w->start) && GetVarsigned64(input, &w->end);
}

Status Truncated(const char* what) {
  return Status::Corruption(std::string("truncated ") + what);
}

// Consumes the leading wire-version varint of a message payload.
Status CheckWireVersion(Slice* payload, const char* what) {
  uint32_t version = 0;
  if (!GetVarint32(payload, &version)) {
    return Truncated("wire version");
  }
  if (version != kWireVersion) {
    return Status::FailedPrecondition(std::string(what) + " of wire version " +
                                      std::to_string(version) + ", this peer speaks " +
                                      std::to_string(kWireVersion));
  }
  return Status::Ok();
}

using Q = RequestField;
using A = ResultField;
using enum OpAddress;

// One row per OpType, in OpType order:
//   {type, name, request fields, result fields, address, forwarded, fenced}
// Field lists are in wire order.
//
// forwarded: everything that mutates store state, including the reads with
// remove side effects (kGetUnaligned, kGetWindowChunk) and kOpenStore (so
// primary and standby assign the same dense ids in the same order).
// kEttRegister is not: subscriptions are connection-scoped primary state; a
// promoted standby starts with no subscribers and clients re-register.
// fenced: the forwarded ops plus kRestoreStore.
//
// kStore ops span every shard because a store's keys hash across all of them:
// a push subscription must reach every shard's scheduler, and a window drop
// must discard every shard's slice of the window.
constexpr OpInfo kOpTable[] = {
    {OpType::kPing, "ping", {}, {}, kServer, false, false},
    {OpType::kOpenStore, "open_store", {Q::kNs, Q::kSpec}, {A::kStoreId, A::kPattern},
     kStore, true, true},
    {OpType::kAppendAligned, "append_aligned",
     {Q::kStoreId, Q::kKey, Q::kValue, Q::kWindow}, {}, kKey, true, true},
    {OpType::kGetWindowChunk, "get_window_chunk", {Q::kStoreId, Q::kWindow}, {A::kChunk},
     kScan, true, true},
    {OpType::kAppendUnaligned, "append_unaligned",
     {Q::kStoreId, Q::kKey, Q::kValue, Q::kWindow, Q::kTimestamp}, {}, kKey, true, true},
    {OpType::kGetUnaligned, "get_unaligned", {Q::kStoreId, Q::kKey, Q::kWindow},
     {A::kValues}, kKey, true, true},
    {OpType::kMergeWindows, "merge_windows",
     {Q::kStoreId, Q::kKey, Q::kSources, Q::kWindow}, {}, kKey, true, true},
    {OpType::kRmwGet, "rmw_get", {Q::kStoreId, Q::kKey, Q::kWindow}, {A::kAccumulator},
     kKey, false, false},
    {OpType::kRmwPut, "rmw_put", {Q::kStoreId, Q::kKey, Q::kWindow, Q::kValue}, {}, kKey,
     true, true},
    {OpType::kRmwRemove, "rmw_remove", {Q::kStoreId, Q::kKey, Q::kWindow}, {}, kKey, true,
     true},
    {OpType::kCheckpoint, "checkpoint", {Q::kStoreId, Q::kPath}, {}, kStore, false, false},
    {OpType::kGatherStats, "gather_stats", {Q::kStoreId}, {A::kStatFields}, kStore, false,
     false},
    // timestamp: the standby's last applied sequence. Valid only alone in a
    // batch, which turns the connection into a replication stream.
    {OpType::kReplicaSubscribe, "replica_subscribe", {Q::kTimestamp}, {}, kRefused, false,
     false},
    // path: file relative to the epoch dir; timestamp: byte offset.
    {OpType::kSnapshotFile, "snapshot_file", {Q::kPath, Q::kTimestamp, Q::kValue}, {},
     kRefused, false, false},
    {OpType::kSnapshotDone, "snapshot_done", {Q::kPath}, {}, kRefused, false, false},
    {OpType::kRestoreStore, "restore_store", {Q::kStoreId, Q::kNs, Q::kSpec, Q::kPath}, {},
     kStore, false, true},
    {OpType::kStats, "stats", {}, {A::kStatsJson}, kServer, false, false},
    // window: the first expected read; timestamp: the next-ETT estimate.
    {OpType::kEttRegister, "ett_register", {Q::kStoreId, Q::kWindow, Q::kTimestamp}, {},
     kStore, false, false},
    {OpType::kPushChunk, "push_chunk", {},
     {A::kStoreId, A::kWindow, A::kPushSeq, A::kChunk}, kRefused, false, false},
    {OpType::kDropWindow, "drop_window", {Q::kStoreId, Q::kWindow}, {}, kStore, true, true},
    {OpType::kClusterInfo, "cluster_info", {}, {A::kStatFields}, kServer, false, false},
    // path: the command; timestamp: the target epoch (0 = current + 1).
    {OpType::kClusterAdmin, "cluster_admin", {Q::kPath, Q::kTimestamp}, {A::kStatFields},
     kServer, false, false},
};

constexpr bool RowsInOpTypeOrder() {
  for (size_t i = 0; i < std::size(kOpTable); ++i) {
    if (static_cast<size_t>(kOpTable[i].type) != i) return false;
  }
  return true;
}
static_assert(std::size(kOpTable) == kMaxOpType + 1 && RowsInOpTypeOrder(),
              "one op table row per OpType, in OpType order");

}  // namespace

const OpInfo& OpInfoOf(OpType type) { return kOpTable[static_cast<uint32_t>(type)]; }

const char* OpTypeName(OpType type) {
  return static_cast<uint32_t>(type) <= kMaxOpType ? OpInfoOf(type).name : "?";
}

std::vector<std::pair<std::string, int64_t>> ClusterViewFields(const ClusterView& view) {
  return {{kStatClusterEpoch, static_cast<int64_t>(view.epoch)},
          {kStatClusterRole, view.role},
          {kStatClusterLeaseMs, view.lease_ms},
          {kStatClusterPriority, view.priority},
          {kCapPrefetchPush, view.prefetch_push ? 1 : 0}};
}

ClusterView ParseClusterView(const std::vector<std::pair<std::string, int64_t>>& fields) {
  ClusterView view;
  for (const auto& [name, value] : fields) {
    if (name == kStatClusterEpoch) {
      view.epoch = static_cast<uint64_t>(value);
    } else if (name == kStatClusterRole) {
      view.role = value;
    } else if (name == kStatClusterLeaseMs) {
      view.lease_ms = value;
    } else if (name == kStatClusterPriority) {
      view.priority = value;
    } else if (name == kCapPrefetchPush) {
      view.prefetch_push = value != 0;
    }
  }
  return view;
}

void EncodeFrameHeader(const Slice& payload, char out[kFrameHeaderBytes]) {
  EncodeFixed32(out, static_cast<uint32_t>(payload.size()));
  EncodeFixed32(out + 4, Checksum32(payload));
}

void AppendFrame(std::string* out, const Slice& payload) {
  char header[kFrameHeaderBytes];
  EncodeFrameHeader(payload, header);
  out->append(header, kFrameHeaderBytes);
  out->append(payload.data(), payload.size());
}

Status TryDecodeFrame(Slice* input, Slice* payload, bool* complete,
                      size_t max_payload_bytes) {
  *complete = false;
  if (input->size() < kFrameHeaderBytes) {
    return Status::Ok();
  }
  const uint32_t len = DecodeFixed32(input->data());
  const uint32_t checksum = DecodeFixed32(input->data() + 4);
  if (len > max_payload_bytes) {
    return Status::InvalidArgument("frame of " + std::to_string(len) +
                                   " bytes exceeds the " +
                                   std::to_string(max_payload_bytes) + "-byte limit");
  }
  if (input->size() < kFrameHeaderBytes + len) {
    return Status::Ok();
  }
  Slice body(input->data() + kFrameHeaderBytes, len);
  if (Checksum32(body) != checksum) {
    return Status::Corruption("frame checksum mismatch");
  }
  *payload = body;
  input->RemovePrefix(kFrameHeaderBytes + len);
  *complete = true;
  return Status::Ok();
}

void EncodeStateSpec(std::string* dst, const OperatorStateSpec& spec) {
  PutLengthPrefixed(dst, spec.name);
  PutVarint32(dst, static_cast<uint32_t>(spec.window_kind));
  PutVarint32(dst, spec.incremental ? 1 : 0);
  PutVarsigned64(dst, spec.window_size_ms);
  PutVarsigned64(dst, spec.session_gap_ms);
  PutVarint32(dst, static_cast<uint32_t>(spec.alignment_hint));
}

bool DecodeStateSpec(Slice* input, OperatorStateSpec* spec) {
  Slice name;
  uint32_t kind = 0, incremental = 0, hint = 0;
  if (!GetLengthPrefixed(input, &name) || !GetVarint32(input, &kind) ||
      !GetVarint32(input, &incremental) || !GetVarsigned64(input, &spec->window_size_ms) ||
      !GetVarsigned64(input, &spec->session_gap_ms) || !GetVarint32(input, &hint)) {
    return false;
  }
  if (kind > static_cast<uint32_t>(WindowKind::kCustom) ||
      hint > static_cast<uint32_t>(ReadAlignmentHint::kUnaligned) || incremental > 1) {
    return false;
  }
  spec->name = name.ToString();
  spec->window_kind = static_cast<WindowKind>(kind);
  spec->incremental = incremental != 0;
  spec->alignment_hint = static_cast<ReadAlignmentHint>(hint);
  return true;
}

namespace {
constexpr uint32_t kStoresMetaMagic = 0x464b564d;  // "FKVM"
}  // namespace

std::string EncodeStoresMeta(const StoresMeta& meta) {
  std::string out;
  PutFixed32(&out, kStoresMetaMagic);
  PutVarint32(&out, 1);  // version
  PutVarint32(&out, static_cast<uint32_t>(meta.num_shards));
  PutVarint32(&out, static_cast<uint32_t>(meta.stores.size()));
  for (const StoreMetaEntry& store : meta.stores) {
    PutVarint64(&out, store.id);
    PutLengthPrefixed(&out, store.ns);
    EncodeStateSpec(&out, store.spec);
  }
  PutFixed32(&out, Checksum32(out));
  return out;
}

Status DecodeStoresMeta(const Slice& data, StoresMeta* meta) {
  meta->stores.clear();
  if (data.size() < 8) {
    return Status::Corruption("stores.meta too short");
  }
  const uint32_t expected = DecodeFixed32(data.data() + data.size() - 4);
  if (Checksum32(Slice(data.data(), data.size() - 4)) != expected) {
    return Status::Corruption("stores.meta checksum mismatch");
  }
  Slice input(data.data(), data.size() - 4);
  uint32_t magic = 0, version = 0, num_shards = 0, num_stores = 0;
  if (!GetFixed32(&input, &magic) || magic != kStoresMetaMagic ||
      !GetVarint32(&input, &version) || version != 1 ||
      !GetVarint32(&input, &num_shards) || !GetVarint32(&input, &num_stores)) {
    return Status::Corruption("malformed stores.meta header");
  }
  if (num_stores > input.size()) {
    return Status::Corruption("malformed stores.meta store count");
  }
  meta->num_shards = static_cast<int>(num_shards);
  meta->stores.reserve(num_stores);
  for (uint32_t i = 0; i < num_stores; ++i) {
    StoreMetaEntry entry;
    Slice ns;
    if (!GetVarint64(&input, &entry.id) || !GetLengthPrefixed(&input, &ns) ||
        !DecodeStateSpec(&input, &entry.spec)) {
      return Status::Corruption("malformed stores.meta entry");
    }
    if (entry.id != i) {
      return Status::Corruption("stores.meta ids are not dense");
    }
    entry.ns = ns.ToString();
    meta->stores.push_back(std::move(entry));
  }
  return Status::Ok();
}

namespace {

void PutRequestField(std::string* dst, RequestField field, const OpRequest& op) {
  switch (field) {
    case RequestField::kNone:
      break;
    case RequestField::kStoreId:
      PutVarint64(dst, op.store_id);
      break;
    case RequestField::kNs:
      PutLengthPrefixed(dst, op.ns);
      break;
    case RequestField::kSpec:
      EncodeStateSpec(dst, op.spec);
      break;
    case RequestField::kKey:
      PutLengthPrefixed(dst, op.key_view());
      break;
    case RequestField::kValue:
      PutLengthPrefixed(dst, op.value_view());
      break;
    case RequestField::kWindow:
      PutWindow(dst, op.window);
      break;
    case RequestField::kSources:
      PutVarint32(dst, static_cast<uint32_t>(op.sources.size()));
      for (const Window& w : op.sources) {
        PutWindow(dst, w);
      }
      break;
    case RequestField::kTimestamp:
      PutVarsigned64(dst, op.timestamp);
      break;
    case RequestField::kPath:
      PutLengthPrefixed(dst, op.path);
      break;
  }
}

// Field decoders return nullptr on success and otherwise what the error's
// "truncated <what>" names: the op (`op_name`), or a list whose count the
// remaining bytes cannot hold, checked before the list is read so a corrupt
// count cannot trigger a huge allocation.

// Key and value land in the caller's slices, which it adopts or copies.
const char* GetRequestField(Slice* in, RequestField field, const char* op_name,
                            OpRequest* op, Slice* key, Slice* value) {
  bool ok = true;
  Slice s;
  switch (field) {
    case RequestField::kNone:
      break;
    case RequestField::kStoreId:
      ok = GetVarint64(in, &op->store_id);
      break;
    case RequestField::kNs:
      ok = GetLengthPrefixed(in, &s);
      op->ns = s.ToString();
      break;
    case RequestField::kSpec:
      ok = DecodeStateSpec(in, &op->spec);
      break;
    case RequestField::kKey:
      ok = GetLengthPrefixed(in, key);
      break;
    case RequestField::kValue:
      ok = GetLengthPrefixed(in, value);
      break;
    case RequestField::kWindow:
      ok = GetWindow(in, &op->window);
      break;
    case RequestField::kSources: {
      uint32_t num_sources = 0;
      ok = GetVarint32(in, &num_sources);
      // Every source window costs >= 2 payload bytes.
      if (ok && num_sources > in->size() / 2 + 1) {
        return "merge source list";
      }
      for (uint32_t j = 0; ok && j < num_sources; ++j) {
        Window w;
        ok = GetWindow(in, &w);
        op->sources.push_back(w);
      }
      break;
    }
    case RequestField::kTimestamp:
      ok = GetVarsigned64(in, &op->timestamp);
      break;
    case RequestField::kPath:
      ok = GetLengthPrefixed(in, &s);
      op->path = s.ToString();
      break;
  }
  return ok ? nullptr : op_name;
}

void PutResultField(std::string* dst, ResultField field, const OpResult& r) {
  switch (field) {
    case ResultField::kNone:
      break;
    case ResultField::kStoreId:
      PutVarint64(dst, r.store_id);
      break;
    case ResultField::kPattern:
      PutVarint32(dst, static_cast<uint32_t>(r.pattern));
      break;
    case ResultField::kWindow:
      PutWindow(dst, r.window);
      break;
    case ResultField::kPushSeq:
      PutVarint64(dst, r.push_seq);
      break;
    case ResultField::kChunk:
      PutVarint32(dst, r.done ? 1 : 0);
      PutVarint32(dst, static_cast<uint32_t>(r.chunk.size()));
      for (const WindowChunkEntry& entry : r.chunk) {
        PutLengthPrefixed(dst, entry.key);
        PutVarint32(dst, static_cast<uint32_t>(entry.values.size()));
        for (const std::string& v : entry.values) {
          PutLengthPrefixed(dst, v);
        }
      }
      break;
    case ResultField::kValues:
      PutVarint32(dst, static_cast<uint32_t>(r.values.size()));
      for (const std::string& v : r.values) {
        PutLengthPrefixed(dst, v);
      }
      break;
    case ResultField::kAccumulator:
      PutLengthPrefixed(dst, r.accumulator);
      break;
    case ResultField::kStatFields:
      PutVarint32(dst, static_cast<uint32_t>(r.stat_fields.size()));
      for (const auto& [name, value] : r.stat_fields) {
        PutLengthPrefixed(dst, name);
        PutVarsigned64(dst, value);
      }
      break;
    case ResultField::kStatsJson:
      PutLengthPrefixed(dst, r.stats_json);
      break;
  }
}

const char* GetResultField(Slice* in, ResultField field, const char* op_name, OpResult* r) {
  bool ok = true;
  Slice s;
  switch (field) {
    case ResultField::kNone:
      break;
    case ResultField::kStoreId:
      ok = GetVarint64(in, &r->store_id);
      break;
    case ResultField::kPattern: {
      uint32_t pattern = 0;
      ok = GetVarint32(in, &pattern) &&
           pattern <= static_cast<uint32_t>(StorePattern::kReadModifyWrite);
      if (ok) r->pattern = static_cast<StorePattern>(pattern);
      break;
    }
    case ResultField::kWindow:
      ok = GetWindow(in, &r->window);
      break;
    case ResultField::kPushSeq:
      ok = GetVarint64(in, &r->push_seq);
      break;
    case ResultField::kChunk: {
      uint32_t done = 0, num_entries = 0;
      ok = GetVarint32(in, &done) && GetVarint32(in, &num_entries);
      if (ok && num_entries > in->size() + 1) {
        return "chunk entry list";
      }
      for (uint32_t j = 0; ok && j < num_entries; ++j) {
        WindowChunkEntry entry;
        uint32_t num_values = 0;
        ok = GetLengthPrefixed(in, &s) && GetVarint32(in, &num_values);
        if (ok && num_values > in->size() + 1) {
          return "chunk value list";
        }
        entry.key = s.ToString();
        for (uint32_t k = 0; ok && k < num_values; ++k) {
          ok = GetLengthPrefixed(in, &s);
          if (ok) entry.values.push_back(s.ToString());
        }
        if (ok) r->chunk.push_back(std::move(entry));
      }
      if (ok) r->done = done != 0;
      break;
    }
    case ResultField::kValues: {
      uint32_t num_values = 0;
      ok = GetVarint32(in, &num_values);
      if (ok && num_values > in->size() + 1) {
        return "value list";
      }
      for (uint32_t j = 0; ok && j < num_values; ++j) {
        ok = GetLengthPrefixed(in, &s);
        if (ok) r->values.push_back(s.ToString());
      }
      break;
    }
    case ResultField::kAccumulator:
      ok = GetLengthPrefixed(in, &s);
      if (ok) r->accumulator = s.ToString();
      break;
    case ResultField::kStatFields: {
      uint32_t num_fields = 0;
      ok = GetVarint32(in, &num_fields);
      if (ok && num_fields > in->size() + 1) {
        return "stat field list";
      }
      for (uint32_t j = 0; ok && j < num_fields; ++j) {
        int64_t value = 0;
        ok = GetLengthPrefixed(in, &s) && GetVarsigned64(in, &value);
        if (ok) r->stat_fields.emplace_back(s.ToString(), value);
      }
      break;
    }
    case ResultField::kStatsJson:
      ok = GetLengthPrefixed(in, &s);
      if (ok) r->stats_json = s.ToString();
      break;
  }
  return ok ? nullptr : op_name;
}

// No payload follows a failed status; NotFound still carries the op's shape.
bool CarriesResultFields(const Status& status) { return status.ok() || status.IsNotFound(); }

Status DecodeRequestInternal(Slice payload, RequestMessage* msg, bool borrow) {
  msg->ops.clear();
  FLOWKV_RETURN_IF_ERROR(CheckWireVersion(&payload, "request"));
  uint32_t internal_apply = 0;
  uint32_t num_ops = 0;
  if (!GetVarint64(&payload, &msg->request_id) ||
      !GetVarint32(&payload, &msg->deadline_ms) || !GetVarint64(&payload, &msg->epoch) ||
      !GetVarint32(&payload, &internal_apply) || !GetVarint64(&payload, &msg->trace_id) ||
      !GetVarint64(&payload, &msg->span_id) || !GetVarint32(&payload, &msg->trace_flags) ||
      !GetVarint32(&payload, &num_ops)) {
    return Truncated("request header");
  }
  if (internal_apply > 1) {
    return Status::Corruption("malformed request header");
  }
  msg->internal_apply = internal_apply != 0;
  // Every op costs at least its 1-byte type varint; bound the reserve so a
  // corrupt count cannot trigger a huge allocation before the ops decode.
  if (num_ops > payload.size()) {
    return Truncated("op list");
  }
  msg->ops.reserve(num_ops);
  for (uint32_t i = 0; i < num_ops; ++i) {
    OpRequest op;
    uint32_t type = 0;
    if (!GetVarint32(&payload, &type)) {
      return Truncated("op type");
    }
    if (type > kMaxOpType) {
      return Status::Corruption("unknown op type " + std::to_string(type));
    }
    op.type = static_cast<OpType>(type);
    const OpInfo& info = OpInfoOf(op.type);
    Slice key, value;
    for (const RequestField field : info.request) {
      if (const char* what = GetRequestField(&payload, field, info.name, &op, &key, &value)) {
        return Truncated(what);
      }
    }
    if (borrow) {
      op.SetKeyBorrowed(key);
      op.SetValueBorrowed(value);
    } else {
      op.key = key.ToString();
      op.value = value.ToString();
    }
    msg->ops.push_back(std::move(op));
  }
  if (!payload.empty()) {
    return Status::Corruption("trailing bytes after request body");
  }
  return Status::Ok();
}

}  // namespace

void EncodeRequest(const RequestMessage& msg, std::string* payload) {
  PutVarint32(payload, kWireVersion);
  PutVarint64(payload, msg.request_id);
  PutVarint32(payload, msg.deadline_ms);
  PutVarint64(payload, msg.epoch);
  PutVarint32(payload, msg.internal_apply ? 1 : 0);
  PutVarint64(payload, msg.trace_id);
  PutVarint64(payload, msg.span_id);
  PutVarint32(payload, msg.trace_flags);
  PutVarint32(payload, static_cast<uint32_t>(msg.ops.size()));
  for (const OpRequest& op : msg.ops) {
    PutVarint32(payload, static_cast<uint32_t>(op.type));
    for (const RequestField field : OpInfoOf(op.type).request) {
      PutRequestField(payload, field, op);
    }
  }
}

Status DecodeRequest(Slice payload, RequestMessage* msg) {
  return DecodeRequestInternal(payload, msg, /*borrow=*/false);
}

Status DecodeRequestBorrowed(Slice payload, RequestMessage* msg) {
  return DecodeRequestInternal(payload, msg, /*borrow=*/true);
}

void EncodeResponse(const ResponseMessage& msg, std::string* payload) {
  PutVarint32(payload, kWireVersion);
  PutVarint64(payload, msg.request_id);
  PutVarint32(payload, static_cast<uint32_t>(msg.results.size()));
  for (const OpResult& r : msg.results) {
    PutVarint32(payload, static_cast<uint32_t>(r.type));
    PutVarint32(payload, static_cast<uint32_t>(r.status.code()));
    PutLengthPrefixed(payload, r.status.message());
    if (!CarriesResultFields(r.status)) {
      continue;
    }
    for (const ResultField field : OpInfoOf(r.type).result) {
      PutResultField(payload, field, r);
    }
  }
}

Status DecodeResponse(Slice payload, ResponseMessage* msg) {
  msg->results.clear();
  FLOWKV_RETURN_IF_ERROR(CheckWireVersion(&payload, "response"));
  uint32_t num_results = 0;
  if (!GetVarint64(&payload, &msg->request_id) || !GetVarint32(&payload, &num_results)) {
    return Truncated("response header");
  }
  // Every result costs at least 3 bytes (type, code, empty message); bound
  // the reserve so a corrupt count cannot trigger a huge allocation.
  if (num_results > payload.size() / 3 + 1) {
    return Truncated("result list");
  }
  msg->results.reserve(num_results);
  for (uint32_t i = 0; i < num_results; ++i) {
    OpResult r;
    uint32_t type = 0, code = 0;
    Slice status_msg;
    if (!GetVarint32(&payload, &type) || !GetVarint32(&payload, &code) ||
        !GetLengthPrefixed(&payload, &status_msg)) {
      return Truncated("result header");
    }
    if (type > kMaxOpType || code > 255) {
      return Status::Corruption("malformed result header");
    }
    r.type = static_cast<OpType>(type);
    r.status = Status::FromCode(static_cast<uint8_t>(code), status_msg.ToString());
    if (CarriesResultFields(r.status)) {
      const OpInfo& info = OpInfoOf(r.type);
      for (const ResultField field : info.result) {
        if (const char* what = GetResultField(&payload, field, info.name, &r)) {
          return Truncated(what);
        }
      }
    }
    msg->results.push_back(std::move(r));
  }
  if (!payload.empty()) {
    return Status::Corruption("trailing bytes after response body");
  }
  return Status::Ok();
}

}  // namespace net
}  // namespace flowkv
