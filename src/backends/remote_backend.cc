#include "src/backends/remote_backend.h"

#include <cstring>
#include <deque>
#include <functional>
#include <unordered_map>
#include <utility>
#include <vector>

#include "src/common/env.h"
#include "src/common/hash.h"
#include "src/net/client.h"
#include "src/obs/metrics.h"
#include "src/obs/trace.h"

namespace flowkv {

namespace {

// A service outage the buffer papers over: the connection is gone (and the
// client's retries/failover ran dry) or the server shed the batch.
bool IsOutage(const Status& s) { return s.IsConnectionReset() || s.IsOverloaded(); }

// Rough wire cost of a buffered op, for the byte bound.
size_t OpCost(const Slice& key, const Slice& value) { return key.size() + value.size() + 64; }

// Write-through copy of the RMW accumulators this backend last wrote, keyed
// by (store handle, key, window). See remote_backend.h for why a hit may
// skip the server.
class AccumulatorCache {
 public:
  AccumulatorCache(size_t max_bytes, obs::MetricsRegistry* metrics)
      : max_bytes_(max_bytes),
        m_hits_(metrics->GetCounter("remote.rmw_cache_hits")),
        m_misses_(metrics->GetCounter("remote.rmw_cache_misses")) {}

  bool Get(uint64_t handle, const Slice& key, const Window& w, std::string* value) {
    auto it = entries_.find(Entry{handle, w, key.ToString()});
    if (it == entries_.end()) {
      m_misses_->Add(1);
      return false;
    }
    m_hits_->Add(1);
    *value = it->second;
    return true;
  }

  // Caches `value`, or drops the entry when it would exceed the budget.
  void Put(uint64_t handle, const Slice& key, const Window& w, const Slice& value) {
    auto [it, inserted] = entries_.try_emplace(Entry{handle, w, key.ToString()});
    if (!inserted) {
      bytes_ -= OpCost(it->first.key, it->second);
    }
    if (bytes_ + OpCost(key, value) > max_bytes_) {
      entries_.erase(it);
      return;
    }
    it->second.assign(value.data(), value.size());
    bytes_ += OpCost(key, value);
  }

  void Remove(uint64_t handle, const Slice& key, const Window& w) {
    auto it = entries_.find(Entry{handle, w, key.ToString()});
    if (it != entries_.end()) {
      bytes_ -= OpCost(it->first.key, it->second);
      entries_.erase(it);
    }
  }

  void Clear() {
    entries_.clear();
    bytes_ = 0;
  }

 private:
  struct Entry {
    uint64_t handle;
    Window window;
    std::string key;
    bool operator==(const Entry& other) const = default;
  };
  struct EntryHash {
    size_t operator()(const Entry& e) const {
      return CombineHash64(CombineHash64(Hash64(e.key), e.handle),
                           CombineHash64(static_cast<uint64_t>(e.window.start),
                                         static_cast<uint64_t>(e.window.end)));
    }
  };
  const size_t max_bytes_;
  size_t bytes_ = 0;
  std::unordered_map<Entry, std::string, EntryHash> entries_;
  obs::Counter* m_hits_;
  obs::Counter* m_misses_;
};

// A backend's channel to the server, shared by all its state handles: the
// client, a bounded in-order replay buffer for writes, and the RMW
// accumulator cache. Every state call goes through Write or Read, so a
// failure any handle sees invalidates the cache. Single-threaded, like the
// backend that owns it (one backend per physical operator). Its counters
// live in the client's registry.
class Session {
 public:
  Session(std::unique_ptr<net::Client> client, size_t replay_bytes, size_t cache_bytes)
      : client_(std::move(client)),
        max_bytes_(replay_bytes),
        accumulators_(cache_bytes, &client_->metrics()),
        m_buffered_(client_->metrics().GetCounter("remote.buffered_writes")),
        m_replayed_(client_->metrics().GetCounter("remote.replayed_writes")) {}

  net::Client* client() const { return client_.get(); }
  AccumulatorCache* accumulators() { return &accumulators_; }

  // Executes `fast` now, preserving order with anything already buffered; on
  // an outage, holds the op (within the byte bound) instead of failing the
  // caller. `fast` may borrow the caller's key/value slices — it only runs
  // synchronously. `own` materializes the self-contained replay closure
  // (copying key/value) and is invoked only when the op must actually queue,
  // so the common healthy-path write never copies its arguments.
  Status Write(const std::function<Status(net::Client*)>& fast,
               const std::function<std::function<Status(net::Client*)>()>& own, size_t bytes) {
    return Checked(WriteUnchecked(fast, own, bytes));
  }

  // Runs a read after replaying buffered writes, so it never observes state
  // missing one. NotFound is an answer, not a failure.
  Status Read(const std::function<Status(net::Client*)>& read) {
    Status s = Drain();
    if (s.ok()) {
      s = read(client_.get());
    }
    return s.IsNotFound() ? s : Checked(s);
  }

  // Replays buffered writes in order. Returns the outage status while the
  // service is still unreachable (ops stay queued); a non-outage replay
  // failure drops the op and surfaces the error.
  Status Drain() {
    while (!ops_.empty()) {
      const Status s = ops_.front().first(client_.get());
      if (IsOutage(s)) {
        return Checked(s);
      }
      buffered_bytes_ -= ops_.front().second;
      ops_.pop_front();
      m_replayed_->Add(1);
      if (!s.ok()) {
        return Checked(s);
      }
    }
    return Status::Ok();
  }

 private:
  Status WriteUnchecked(const std::function<Status(net::Client*)>& fast,
                        const std::function<std::function<Status(net::Client*)>()>& own,
                        size_t bytes) {
    if (!ops_.empty()) {
      const Status drained = Drain();
      if (!drained.ok() && !IsOutage(drained)) {
        return drained;
      }
      if (!ops_.empty()) {
        return Buffer(own(), bytes);  // still down; queue behind
      }
    }
    const Status s = fast(client_.get());
    if (max_bytes_ > 0 && IsOutage(s)) {
      return Buffer(own(), bytes);
    }
    return s;
  }

  Status Buffer(std::function<Status(net::Client*)> op, size_t bytes) {
    if (buffered_bytes_ + bytes > max_bytes_) {
      return Status::ResourceExhausted(
          "remote replay buffer full (" + std::to_string(buffered_bytes_) + " of " +
          std::to_string(max_bytes_) + " bytes) and the state service is unreachable");
    }
    buffered_bytes_ += bytes;
    ops_.emplace_back(std::move(op), bytes);
    m_buffered_->Add(1);
    return Status::Ok();
  }

  // Any failure may mean a write this backend made did not land as cached
  // (a dropped replay, a failed write carried by a read), so the cache can
  // no longer be trusted.
  Status Checked(const Status& s) {
    if (!s.ok()) {
      accumulators_.Clear();
    }
    return s;
  }

  std::unique_ptr<net::Client> client_;
  const size_t max_bytes_;
  size_t buffered_bytes_ = 0;
  std::deque<std::pair<std::function<Status(net::Client*)>, size_t>> ops_;
  AccumulatorCache accumulators_;
  obs::Counter* m_buffered_;
  obs::Counter* m_replayed_;
};

class RemoteAarState : public AppendAlignedState {
 public:
  RemoteAarState(std::shared_ptr<Session> session, uint64_t handle)
      : session_(std::move(session)), handle_(handle) {}

  Status Append(const Slice& key, const Slice& value, const Window& w) override {
    return session_->Write(
        [h = handle_, &key, &value, w](net::Client* c) {
          return c->AppendAligned(h, key, value, w);
        },
        [h = handle_, &key, &value, w]() -> std::function<Status(net::Client*)> {
          return [h, k = key.ToString(), v = value.ToString(), w](net::Client* c) {
            return c->AppendAligned(h, k, v, w);
          };
        },
        OpCost(key, value));
  }

  Status GetWindowChunk(const Window& w, std::vector<WindowChunkEntry>* chunk,
                        bool* done) override {
    // Top of the distributed timeline: this span encloses the client_batch
    // span(s) of the round trip, which carry the propagated trace id.
    obs::TraceSpan span("remote_read", "remote");
    return session_->Read(
        [&](net::Client* c) { return c->GetWindowChunk(handle_, w, chunk, done); });
  }

 private:
  std::shared_ptr<Session> session_;
  uint64_t handle_;
};

class RemoteAurState : public AppendUnalignedState {
 public:
  RemoteAurState(std::shared_ptr<Session> session, uint64_t handle)
      : session_(std::move(session)), handle_(handle) {}

  Status Append(const Slice& key, const Slice& value, const Window& w,
                int64_t timestamp) override {
    return session_->Write(
        [h = handle_, &key, &value, w, timestamp](net::Client* c) {
          return c->AppendUnaligned(h, key, value, w, timestamp);
        },
        [h = handle_, &key, &value, w, timestamp]() -> std::function<Status(net::Client*)> {
          return [h, k = key.ToString(), v = value.ToString(), w, timestamp](net::Client* c) {
            return c->AppendUnaligned(h, k, v, w, timestamp);
          };
        },
        OpCost(key, value));
  }

  Status Get(const Slice& key, const Window& w, std::vector<std::string>* values) override {
    obs::TraceSpan span("remote_read", "remote");
    return session_->Read(
        [&](net::Client* c) { return c->GetUnaligned(handle_, key, w, values); });
  }

  Status MergeWindows(const Slice& key, const std::vector<Window>& sources,
                      const Window& dst) override {
    return session_->Write(
        [h = handle_, &key, &sources, dst](net::Client* c) {
          return c->MergeWindows(h, key, sources, dst);
        },
        [h = handle_, &key, &sources, dst]() -> std::function<Status(net::Client*)> {
          return [h, k = key.ToString(), sources, dst](net::Client* c) {
            return c->MergeWindows(h, k, sources, dst);
          };
        },
        OpCost(key, Slice()) + sources.size() * sizeof(Window));
  }

 private:
  std::shared_ptr<Session> session_;
  uint64_t handle_;
};

class RemoteRmwState : public RmwState {
 public:
  RemoteRmwState(std::shared_ptr<Session> session, uint64_t handle)
      : session_(std::move(session)), handle_(handle) {}

  Status Get(const Slice& key, const Window& w, std::string* accumulator) override {
    if (session_->accumulators()->Get(handle_, key, w, accumulator)) {
      return Status::Ok();
    }
    obs::TraceSpan span("remote_read", "remote");
    return session_->Read(
        [&](net::Client* c) { return c->RmwGet(handle_, key, w, accumulator); });
  }

  Status Put(const Slice& key, const Window& w, const Slice& accumulator) override {
    FLOWKV_RETURN_IF_ERROR(session_->Write(
        [h = handle_, &key, &accumulator, w](net::Client* c) {
          return c->RmwPut(h, key, w, accumulator);
        },
        [h = handle_, &key, &accumulator, w]() -> std::function<Status(net::Client*)> {
          return [h, k = key.ToString(), v = accumulator.ToString(), w](net::Client* c) {
            return c->RmwPut(h, k, w, v);
          };
        },
        OpCost(key, accumulator)));
    session_->accumulators()->Put(handle_, key, w, accumulator);
    return Status::Ok();
  }

  Status Remove(const Slice& key, const Window& w) override {
    FLOWKV_RETURN_IF_ERROR(session_->Write(
        [h = handle_, &key, w](net::Client* c) { return c->RmwRemove(h, key, w); },
        [h = handle_, &key, w]() -> std::function<Status(net::Client*)> {
          return [h, k = key.ToString(), w](net::Client* c) { return c->RmwRemove(h, k, w); };
        },
        OpCost(key, Slice())));
    session_->accumulators()->Remove(handle_, key, w);
    return Status::Ok();
  }

 private:
  std::shared_ptr<Session> session_;
  uint64_t handle_;
};

class RemoteBackend : public StateBackend {
 public:
  RemoteBackend(std::unique_ptr<net::Client> client, std::string ns_prefix,
                size_t replay_buffer_bytes, size_t cache_bytes)
      : session_(std::make_shared<Session>(std::move(client), replay_buffer_bytes,
                                           cache_bytes)),
        ns_prefix_(std::move(ns_prefix)) {}

  Status CreateAppendAligned(const OperatorStateSpec& spec,
                             std::unique_ptr<AppendAlignedState>* out) override {
    uint64_t handle = 0;
    FLOWKV_RETURN_IF_ERROR(OpenStore(spec, StorePattern::kAppendAligned, &handle));
    *out = std::make_unique<RemoteAarState>(session_, handle);
    return Status::Ok();
  }

  Status CreateAppendUnaligned(const OperatorStateSpec& spec,
                               std::unique_ptr<AppendUnalignedState>* out) override {
    uint64_t handle = 0;
    FLOWKV_RETURN_IF_ERROR(OpenStore(spec, StorePattern::kAppendUnaligned, &handle));
    *out = std::make_unique<RemoteAurState>(session_, handle);
    return Status::Ok();
  }

  Status CreateRmw(const OperatorStateSpec& spec, std::unique_ptr<RmwState>* out) override {
    uint64_t handle = 0;
    FLOWKV_RETURN_IF_ERROR(OpenStore(spec, StorePattern::kReadModifyWrite, &handle));
    *out = std::make_unique<RemoteRmwState>(session_, handle);
    return Status::Ok();
  }

  StoreStats GatherStats() const override {
    StoreStats total;
    size_t num_fields = 0;
    const StoreStats::CounterField* fields = StoreStats::CounterFields(&num_fields);
    for (uint64_t handle : handles_) {
      std::vector<std::pair<std::string, int64_t>> remote;
      if (!session_->client()->GatherStats(handle, &remote).ok()) {
        continue;  // stats are best-effort; a failed store contributes zero
      }
      for (const auto& [name, value] : remote) {
        for (size_t i = 0; i < num_fields; ++i) {
          if (name == fields[i].name) {
            fields[i].get(total) += value;
            break;
          }
        }
      }
    }
    return total;
  }

  Status CheckpointTo(const std::string& checkpoint_dir) const override {
    // A checkpoint must capture buffered writes, not skip over them.
    FLOWKV_RETURN_IF_ERROR(session_->Drain());
    // Server-local path: meaningful when the server shares a filesystem with
    // the engine (tests, single-box deployments). The server's own drain
    // checkpoint is the durability mechanism for remote deployments.
    for (size_t i = 0; i < handles_.size(); ++i) {
      FLOWKV_RETURN_IF_ERROR(session_->client()->Checkpoint(
          handles_[i], JoinPath(checkpoint_dir, "h" + std::to_string(i))));
    }
    return Status::Ok();
  }

  std::string name() const override { return "remote"; }

  net::Client* client() const { return session_->client(); }

 private:
  Status OpenStore(const OperatorStateSpec& spec, StorePattern expected,
                   uint64_t* handle) {
    const std::string ns = ns_prefix_ + ".h" + std::to_string(handles_.size());
    StorePattern pattern = StorePattern::kReadModifyWrite;
    FLOWKV_RETURN_IF_ERROR(session_->client()->OpenStore(ns, spec, handle, &pattern));
    if (pattern != expected) {
      return Status::Internal("pattern classifier disagrees with the engine");
    }
    handles_.push_back(*handle);
    return Status::Ok();
  }

  std::shared_ptr<Session> session_;
  std::string ns_prefix_;
  std::vector<uint64_t> handles_;
};

}  // namespace

net::Client* RemoteBackendClient(StateBackend* backend) {
  auto* remote = dynamic_cast<RemoteBackend*>(backend);
  return remote != nullptr ? remote->client() : nullptr;
}

RemoteBackendFactory::RemoteBackendFactory(net::ClientOptions options)
    : options_(std::move(options)) {}

RemoteBackendFactory::RemoteBackendFactory(const std::string& host, int port) {
  options_.host = host;
  options_.port = port;
}

Status RemoteBackendFactory::CreateBackend(int worker, const std::string& operator_name,
                                           std::unique_ptr<StateBackend>* out) {
  std::unique_ptr<net::Client> client;
  FLOWKV_RETURN_IF_ERROR(net::Client::Connect(options_, &client));
  const std::string ns_prefix = "w" + std::to_string(worker) + "." + operator_name;
  *out = std::make_unique<RemoteBackend>(std::move(client), ns_prefix, replay_buffer_bytes_,
                                         options_.read_ahead_cache_bytes);
  return Status::Ok();
}

}  // namespace flowkv
