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

}  // namespace

const char* OpTypeName(OpType type) {
  switch (type) {
    case OpType::kPing:
      return "ping";
    case OpType::kOpenStore:
      return "open_store";
    case OpType::kAppendAligned:
      return "append_aligned";
    case OpType::kGetWindowChunk:
      return "get_window_chunk";
    case OpType::kAppendUnaligned:
      return "append_unaligned";
    case OpType::kGetUnaligned:
      return "get_unaligned";
    case OpType::kMergeWindows:
      return "merge_windows";
    case OpType::kRmwGet:
      return "rmw_get";
    case OpType::kRmwPut:
      return "rmw_put";
    case OpType::kRmwRemove:
      return "rmw_remove";
    case OpType::kCheckpoint:
      return "checkpoint";
    case OpType::kGatherStats:
      return "gather_stats";
    case OpType::kReplicaSubscribe:
      return "replica_subscribe";
    case OpType::kSnapshotFile:
      return "snapshot_file";
    case OpType::kSnapshotDone:
      return "snapshot_done";
    case OpType::kRestoreStore:
      return "restore_store";
    case OpType::kStats:
      return "stats";
    case OpType::kEttRegister:
      return "ett_register";
    case OpType::kPushChunk:
      return "push_chunk";
    case OpType::kDropWindow:
      return "drop_window";
    case OpType::kClusterInfo:
      return "cluster_info";
    case OpType::kClusterAdmin:
      return "cluster_admin";
  }
  return "?";
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
    switch (op.type) {
      case OpType::kPing:
        break;
      case OpType::kOpenStore:
        PutLengthPrefixed(payload, op.ns);
        EncodeStateSpec(payload, op.spec);
        break;
      case OpType::kAppendAligned:
        PutVarint64(payload, op.store_id);
        PutLengthPrefixed(payload, op.key_view());
        PutLengthPrefixed(payload, op.value_view());
        PutWindow(payload, op.window);
        break;
      case OpType::kGetWindowChunk:
        PutVarint64(payload, op.store_id);
        PutWindow(payload, op.window);
        break;
      case OpType::kAppendUnaligned:
        PutVarint64(payload, op.store_id);
        PutLengthPrefixed(payload, op.key_view());
        PutLengthPrefixed(payload, op.value_view());
        PutWindow(payload, op.window);
        PutVarsigned64(payload, op.timestamp);
        break;
      case OpType::kGetUnaligned:
        PutVarint64(payload, op.store_id);
        PutLengthPrefixed(payload, op.key_view());
        PutWindow(payload, op.window);
        break;
      case OpType::kMergeWindows:
        PutVarint64(payload, op.store_id);
        PutLengthPrefixed(payload, op.key_view());
        PutVarint32(payload, static_cast<uint32_t>(op.sources.size()));
        for (const Window& w : op.sources) {
          PutWindow(payload, w);
        }
        PutWindow(payload, op.window);  // destination
        break;
      case OpType::kRmwGet:
      case OpType::kRmwRemove:
        PutVarint64(payload, op.store_id);
        PutLengthPrefixed(payload, op.key_view());
        PutWindow(payload, op.window);
        break;
      case OpType::kRmwPut:
        PutVarint64(payload, op.store_id);
        PutLengthPrefixed(payload, op.key_view());
        PutWindow(payload, op.window);
        PutLengthPrefixed(payload, op.value_view());
        break;
      case OpType::kCheckpoint:
        PutVarint64(payload, op.store_id);
        PutLengthPrefixed(payload, op.path);
        break;
      case OpType::kGatherStats:
        PutVarint64(payload, op.store_id);
        break;
      case OpType::kReplicaSubscribe:
        PutVarsigned64(payload, op.timestamp);  // last applied sequence
        break;
      case OpType::kSnapshotFile:
        PutLengthPrefixed(payload, op.path);
        PutVarsigned64(payload, op.timestamp);  // byte offset
        PutLengthPrefixed(payload, op.value_view());
        break;
      case OpType::kSnapshotDone:
        PutLengthPrefixed(payload, op.path);  // epoch name
        break;
      case OpType::kRestoreStore:
        PutVarint64(payload, op.store_id);
        PutLengthPrefixed(payload, op.ns);
        EncodeStateSpec(payload, op.spec);
        PutLengthPrefixed(payload, op.path);
        break;
      case OpType::kStats:
        break;  // no request fields: the snapshot is server-wide
      case OpType::kEttRegister:
        PutVarint64(payload, op.store_id);
        PutWindow(payload, op.window);           // first expected read window
        PutVarsigned64(payload, op.timestamp);   // next-ETT estimate hint
        break;
      case OpType::kPushChunk:
        break;  // server->client only; carries no request fields
      case OpType::kDropWindow:
        PutVarint64(payload, op.store_id);
        PutWindow(payload, op.window);
        break;
      case OpType::kClusterInfo:
        break;  // no request fields: the view is server-wide
      case OpType::kClusterAdmin:
        PutLengthPrefixed(payload, op.path);   // command: "promote" / "fence"
        PutVarsigned64(payload, op.timestamp); // target epoch (0 = current+1)
        break;
    }
  }
}

namespace {

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
    Slice ns, key, value, path;
    bool ok = true;
    switch (op.type) {
      case OpType::kPing:
        break;
      case OpType::kOpenStore:
        ok = GetLengthPrefixed(&payload, &ns) && DecodeStateSpec(&payload, &op.spec);
        op.ns = ns.ToString();
        break;
      case OpType::kAppendAligned:
        ok = GetVarint64(&payload, &op.store_id) && GetLengthPrefixed(&payload, &key) &&
             GetLengthPrefixed(&payload, &value) && GetWindow(&payload, &op.window);
        break;
      case OpType::kGetWindowChunk:
        ok = GetVarint64(&payload, &op.store_id) && GetWindow(&payload, &op.window);
        break;
      case OpType::kAppendUnaligned:
        ok = GetVarint64(&payload, &op.store_id) && GetLengthPrefixed(&payload, &key) &&
             GetLengthPrefixed(&payload, &value) && GetWindow(&payload, &op.window) &&
             GetVarsigned64(&payload, &op.timestamp);
        break;
      case OpType::kGetUnaligned:
        ok = GetVarint64(&payload, &op.store_id) && GetLengthPrefixed(&payload, &key) &&
             GetWindow(&payload, &op.window);
        break;
      case OpType::kMergeWindows: {
        uint32_t num_sources = 0;
        ok = GetVarint64(&payload, &op.store_id) && GetLengthPrefixed(&payload, &key) &&
             GetVarint32(&payload, &num_sources);
        // Every source window costs >= 2 payload bytes; reject counts the
        // remaining bytes cannot possibly satisfy before reserving.
        if (ok && num_sources > payload.size() / 2 + 1) {
          return Truncated("merge source list");
        }
        for (uint32_t j = 0; ok && j < num_sources; ++j) {
          Window w;
          ok = GetWindow(&payload, &w);
          op.sources.push_back(w);
        }
        ok = ok && GetWindow(&payload, &op.window);
        break;
      }
      case OpType::kRmwGet:
      case OpType::kRmwRemove:
        ok = GetVarint64(&payload, &op.store_id) && GetLengthPrefixed(&payload, &key) &&
             GetWindow(&payload, &op.window);
        break;
      case OpType::kRmwPut:
        ok = GetVarint64(&payload, &op.store_id) && GetLengthPrefixed(&payload, &key) &&
             GetWindow(&payload, &op.window) && GetLengthPrefixed(&payload, &value);
        break;
      case OpType::kCheckpoint:
        ok = GetVarint64(&payload, &op.store_id) && GetLengthPrefixed(&payload, &path);
        op.path = path.ToString();
        break;
      case OpType::kGatherStats:
        ok = GetVarint64(&payload, &op.store_id);
        break;
      case OpType::kReplicaSubscribe:
        ok = GetVarsigned64(&payload, &op.timestamp);
        break;
      case OpType::kSnapshotFile:
        ok = GetLengthPrefixed(&payload, &path) &&
             GetVarsigned64(&payload, &op.timestamp) && GetLengthPrefixed(&payload, &value);
        op.path = path.ToString();
        break;
      case OpType::kSnapshotDone:
        ok = GetLengthPrefixed(&payload, &path);
        op.path = path.ToString();
        break;
      case OpType::kRestoreStore:
        ok = GetVarint64(&payload, &op.store_id) && GetLengthPrefixed(&payload, &ns) &&
             DecodeStateSpec(&payload, &op.spec) && GetLengthPrefixed(&payload, &path);
        op.ns = ns.ToString();
        op.path = path.ToString();
        break;
      case OpType::kStats:
        break;
      case OpType::kEttRegister:
        ok = GetVarint64(&payload, &op.store_id) && GetWindow(&payload, &op.window) &&
             GetVarsigned64(&payload, &op.timestamp);
        break;
      case OpType::kPushChunk:
        break;  // decodes to an empty op; the server rejects it per-op
      case OpType::kDropWindow:
        ok = GetVarint64(&payload, &op.store_id) && GetWindow(&payload, &op.window);
        break;
      case OpType::kClusterInfo:
        break;
      case OpType::kClusterAdmin:
        ok = GetLengthPrefixed(&payload, &path) &&
             GetVarsigned64(&payload, &op.timestamp);
        op.path = path.ToString();
        break;
    }
    if (!ok) {
      return Truncated(OpTypeName(op.type));
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
    if (!r.status.ok() && !r.status.IsNotFound()) {
      continue;  // no payload after a failure (NotFound still carries shape)
    }
    switch (r.type) {
      case OpType::kPing:
      case OpType::kAppendAligned:
      case OpType::kAppendUnaligned:
      case OpType::kMergeWindows:
      case OpType::kRmwPut:
      case OpType::kRmwRemove:
      case OpType::kCheckpoint:
      case OpType::kReplicaSubscribe:
      case OpType::kSnapshotFile:
      case OpType::kSnapshotDone:
      case OpType::kRestoreStore:
      case OpType::kEttRegister:
      case OpType::kDropWindow:
        break;
      case OpType::kOpenStore:
        PutVarint64(payload, r.store_id);
        PutVarint32(payload, static_cast<uint32_t>(r.pattern));
        break;
      case OpType::kPushChunk:
        PutVarint64(payload, r.store_id);
        PutWindow(payload, r.window);
        PutVarint64(payload, r.push_seq);
        [[fallthrough]];  // the pushed payload reuses the chunk encoding
      case OpType::kGetWindowChunk:
        PutVarint32(payload, r.done ? 1 : 0);
        PutVarint32(payload, static_cast<uint32_t>(r.chunk.size()));
        for (const WindowChunkEntry& entry : r.chunk) {
          PutLengthPrefixed(payload, entry.key);
          PutVarint32(payload, static_cast<uint32_t>(entry.values.size()));
          for (const std::string& v : entry.values) {
            PutLengthPrefixed(payload, v);
          }
        }
        break;
      case OpType::kGetUnaligned:
        PutVarint32(payload, static_cast<uint32_t>(r.values.size()));
        for (const std::string& v : r.values) {
          PutLengthPrefixed(payload, v);
        }
        break;
      case OpType::kRmwGet:
        PutLengthPrefixed(payload, r.accumulator);
        break;
      case OpType::kGatherStats:
      case OpType::kClusterInfo:
      case OpType::kClusterAdmin:
        PutVarint32(payload, static_cast<uint32_t>(r.stat_fields.size()));
        for (const auto& [name, value] : r.stat_fields) {
          PutLengthPrefixed(payload, name);
          PutVarsigned64(payload, value);
        }
        break;
      case OpType::kStats:
        PutLengthPrefixed(payload, r.stats_json);
        break;
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
    if (!r.status.ok() && !r.status.IsNotFound()) {
      msg->results.push_back(std::move(r));
      continue;
    }
    bool ok = true;
    switch (r.type) {
      case OpType::kPing:
      case OpType::kAppendAligned:
      case OpType::kAppendUnaligned:
      case OpType::kMergeWindows:
      case OpType::kRmwPut:
      case OpType::kRmwRemove:
      case OpType::kCheckpoint:
      case OpType::kReplicaSubscribe:
      case OpType::kSnapshotFile:
      case OpType::kSnapshotDone:
      case OpType::kRestoreStore:
      case OpType::kEttRegister:
      case OpType::kDropWindow:
        break;
      case OpType::kOpenStore: {
        uint32_t pattern = 0;
        ok = GetVarint64(&payload, &r.store_id) && GetVarint32(&payload, &pattern) &&
             pattern <= static_cast<uint32_t>(StorePattern::kReadModifyWrite);
        if (ok) r.pattern = static_cast<StorePattern>(pattern);
        break;
      }
      case OpType::kPushChunk:
        ok = GetVarint64(&payload, &r.store_id) && GetWindow(&payload, &r.window) &&
             GetVarint64(&payload, &r.push_seq);
        if (!ok) {
          break;
        }
        [[fallthrough]];  // the pushed payload reuses the chunk encoding
      case OpType::kGetWindowChunk: {
        uint32_t done = 0, num_entries = 0;
        ok = GetVarint32(&payload, &done) && GetVarint32(&payload, &num_entries);
        if (ok && num_entries > payload.size() + 1) {
          return Truncated("chunk entry list");
        }
        for (uint32_t j = 0; ok && j < num_entries; ++j) {
          WindowChunkEntry entry;
          Slice key;
          uint32_t num_values = 0;
          ok = GetLengthPrefixed(&payload, &key) && GetVarint32(&payload, &num_values);
          if (ok && num_values > payload.size() + 1) {
            return Truncated("chunk value list");
          }
          entry.key = key.ToString();
          for (uint32_t k = 0; ok && k < num_values; ++k) {
            Slice v;
            ok = GetLengthPrefixed(&payload, &v);
            if (ok) entry.values.push_back(v.ToString());
          }
          if (ok) r.chunk.push_back(std::move(entry));
        }
        if (ok) r.done = done != 0;
        break;
      }
      case OpType::kGetUnaligned: {
        uint32_t num_values = 0;
        ok = GetVarint32(&payload, &num_values);
        if (ok && num_values > payload.size() + 1) {
          return Truncated("value list");
        }
        for (uint32_t j = 0; ok && j < num_values; ++j) {
          Slice v;
          ok = GetLengthPrefixed(&payload, &v);
          if (ok) r.values.push_back(v.ToString());
        }
        break;
      }
      case OpType::kRmwGet: {
        Slice acc;
        ok = GetLengthPrefixed(&payload, &acc);
        if (ok) r.accumulator = acc.ToString();
        break;
      }
      case OpType::kGatherStats:
      case OpType::kClusterInfo:
      case OpType::kClusterAdmin: {
        uint32_t num_fields = 0;
        ok = GetVarint32(&payload, &num_fields);
        if (ok && num_fields > payload.size() + 1) {
          return Truncated("stat field list");
        }
        for (uint32_t j = 0; ok && j < num_fields; ++j) {
          Slice name;
          int64_t value = 0;
          ok = GetLengthPrefixed(&payload, &name) && GetVarsigned64(&payload, &value);
          if (ok) r.stat_fields.emplace_back(name.ToString(), value);
        }
        break;
      }
      case OpType::kStats: {
        Slice doc;
        ok = GetLengthPrefixed(&payload, &doc);
        if (ok) r.stats_json = doc.ToString();
        break;
      }
    }
    if (!ok) {
      return Truncated(OpTypeName(r.type));
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
