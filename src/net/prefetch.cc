#include "src/net/prefetch.h"

#include <algorithm>

#include "src/common/clock.h"

namespace flowkv {
namespace net {

namespace {

// Shadow/cache accounting cost of one (key, value) pair: the string bytes
// plus container overhead, mirroring the AAR write buffer's own estimate.
size_t PairCost(size_t key_bytes, size_t value_bytes) { return key_bytes + value_bytes + 32; }

size_t ChunkCost(const std::vector<WindowChunkEntry>& chunk) {
  size_t bytes = 0;
  for (const WindowChunkEntry& entry : chunk) {
    for (const std::string& v : entry.values) {
      bytes += PairCost(entry.key.size(), v.size());
    }
  }
  return bytes;
}

int64_t ChunkValues(const std::vector<WindowChunkEntry>& chunk) {
  int64_t n = 0;
  for (const WindowChunkEntry& entry : chunk) {
    n += static_cast<int64_t>(entry.values.size());
  }
  return n;
}

}  // namespace

// ----- ShardPrefetchScheduler -----

ShardPrefetchScheduler::ShardPrefetchScheduler(size_t shadow_budget_bytes,
                                               obs::MetricsRegistry* metrics)
    : budget_bytes_(shadow_budget_bytes),
      m_registrations_(metrics->GetCounter("prefetch.registrations")),
      m_fired_(metrics->GetCounter("prefetch.fired")),
      m_fired_entries_(metrics->GetCounter("prefetch.fired_entries")),
      m_fired_bytes_(metrics->GetCounter("prefetch.fired_bytes")),
      m_invalidated_(metrics->GetCounter("prefetch.invalidated")),
      m_overflow_(metrics->GetCounter("prefetch.overflow")),
      m_waste_(metrics->GetCounter("prefetch.waste")),
      m_shadow_bytes_(metrics->GetGauge("prefetch.shadow_bytes")) {}

void ShardPrefetchScheduler::AddShadowBytes(int64_t delta) {
  shadow_bytes_ = static_cast<size_t>(static_cast<int64_t>(shadow_bytes_) + delta);
  m_shadow_bytes_->Set(static_cast<int64_t>(shadow_bytes_));
}

void ShardPrefetchScheduler::Register(uint64_t conn_id, uint64_t store_id) {
  StoreState& st = stores_[store_id];
  if (std::find(st.subscribers.begin(), st.subscribers.end(), conn_id) ==
      st.subscribers.end()) {
    st.subscribers.push_back(conn_id);
    m_registrations_->Add(1);
  }
}

void ShardPrefetchScheduler::Unregister(uint64_t conn_id) {
  for (auto it = stores_.begin(); it != stores_.end();) {
    StoreState& st = it->second;
    st.subscribers.erase(std::remove(st.subscribers.begin(), st.subscribers.end(), conn_id),
                         st.subscribers.end());
    if (st.subscribers.empty()) {
      // Nobody left to push to: the shadows are dead weight.
      for (const auto& [w, shadow] : st.shadows) {
        AddShadowBytes(-static_cast<int64_t>(shadow.bytes));
        m_waste_->Add(ChunkValues(shadow.chunk));
      }
      it = stores_.erase(it);
    } else {
      ++it;
    }
  }
}

bool ShardPrefetchScheduler::HasSubscribers(uint64_t store_id) const {
  auto it = stores_.find(store_id);
  return it != stores_.end() && !it->second.subscribers.empty();
}

void ShardPrefetchScheduler::OnAppend(uint64_t store_id, const Slice& key,
                                      const Slice& value, const Window& w) {
  auto it = stores_.find(store_id);
  if (it == stores_.end() || it->second.subscribers.empty()) {
    return;
  }
  StoreState& st = it->second;
  // A tuple in [w.start, w.end) proves event time has reached w.start.
  st.hiwater = std::max(st.hiwater, w.start);
  if (w.end <= st.hiwater) {
    // Late write into a window that already fired (or could have): whatever
    // was pushed is now short one value — the client's count check turns the
    // push into a safe miss. Cancel any shadow still pending.
    m_invalidated_->Add(1);
    auto shadow_it = st.shadows.find(w);
    if (shadow_it != st.shadows.end()) {
      AddShadowBytes(-static_cast<int64_t>(shadow_it->second.bytes));
      st.shadows.erase(shadow_it);
      st.abandoned.insert(w);
    }
    FireReady(store_id, &st);
    return;
  }
  if (st.abandoned.count(w) == 0) {
    const size_t cost = PairCost(key.size(), value.size());
    if (budget_bytes_ > 0 && shadow_bytes_ + cost > budget_bytes_) {
      // Over budget: abandon this window's shadow outright (a partial push
      // would never satisfy the client's count check anyway).
      auto shadow_it = st.shadows.find(w);
      if (shadow_it != st.shadows.end()) {
        AddShadowBytes(-static_cast<int64_t>(shadow_it->second.bytes));
        st.shadows.erase(shadow_it);
      }
      st.abandoned.insert(w);
      m_overflow_->Add(1);
    } else {
      ShadowWindow& shadow = st.shadows[w];
      auto [key_it, inserted] = shadow.key_index.try_emplace(key.ToString(), shadow.chunk.size());
      if (inserted) {
        shadow.chunk.push_back(WindowChunkEntry{key.ToString(), {}});
      }
      shadow.chunk[key_it->second].values.push_back(value.ToString());
      shadow.bytes += cost;
      AddShadowBytes(static_cast<int64_t>(cost));
    }
  }
  FireReady(store_id, &st);
}

void ShardPrefetchScheduler::FireReady(uint64_t store_id, StoreState* st) {
  // EDF: shadows is ordered by window end, so ready windows sit at the front.
  while (!st->shadows.empty() && st->shadows.begin()->first.end <= st->hiwater) {
    auto shadow_it = st->shadows.begin();
    FiredPush push;
    push.store_id = store_id;
    push.window = shadow_it->first;
    push.push_seq = st->next_seq++;
    push.conn_ids = st->subscribers;
    push.chunk = std::move(shadow_it->second.chunk);
    push.bytes = shadow_it->second.bytes;
    AddShadowBytes(-static_cast<int64_t>(push.bytes));
    st->shadows.erase(shadow_it);
    m_fired_->Add(1);
    m_fired_entries_->Add(ChunkValues(push.chunk));
    m_fired_bytes_->Add(static_cast<int64_t>(push.bytes));
    fired_.push_back(std::move(push));
  }
}

void ShardPrefetchScheduler::OnWindowConsumed(uint64_t store_id, const Window& w) {
  auto it = stores_.find(store_id);
  if (it == stores_.end()) {
    return;
  }
  StoreState& st = it->second;
  auto shadow_it = st.shadows.find(w);
  if (shadow_it != st.shadows.end()) {
    // The client read (or dropped) the window before it fired: the shadow
    // copy was pure waste.
    AddShadowBytes(-static_cast<int64_t>(shadow_it->second.bytes));
    m_waste_->Add(ChunkValues(shadow_it->second.chunk));
    st.shadows.erase(shadow_it);
  }
  st.abandoned.erase(w);
}

void ShardPrefetchScheduler::TakeFired(std::vector<FiredPush>* out) {
  if (out->empty()) {
    *out = std::move(fired_);
    fired_.clear();
  } else {
    for (FiredPush& p : fired_) {
      out->push_back(std::move(p));
    }
    fired_.clear();
  }
}

// ----- ReadAheadCache -----

ReadAheadCache::ReadAheadCache(size_t capacity_bytes, obs::MetricsRegistry* metrics)
    : capacity_bytes_(capacity_bytes),
      m_hits_(metrics->GetCounter("client.prefetch_hits")),
      m_misses_(metrics->GetCounter("client.prefetch_misses")),
      m_waste_(metrics->GetCounter("client.prefetch_waste")),
      m_stale_(metrics->GetCounter("client.prefetch_stale")),
      m_evictions_(metrics->GetCounter("client.prefetch_evictions")),
      m_pushes_(metrics->GetCounter("client.prefetch_pushes")),
      m_push_lag_ms_(metrics->GetHistogram("client.push_lag_ms")) {}

void ReadAheadCache::OnLocalAppend(uint64_t handle, const Window& w) {
  MutexLock lock(&mu_);
  ++local_counts_[Key{handle, w}];
}

void ReadAheadCache::OnPush(uint64_t handle, const Window& w,
                            std::vector<WindowChunkEntry> chunk) {
  const size_t cost = ChunkCost(chunk);
  const int64_t values = ChunkValues(chunk);
  MutexLock lock(&mu_);
  const Key key{handle, w};
  auto count_it = local_counts_.find(key);
  if (count_it == local_counts_.end() || count_it->second == 0 || entries_.contains(key)) {
    // A push for a window this client never appended to (already consumed
    // locally, or a confused server), or a second push for a window already
    // cached (the server pushes each window once). Either way the entry
    // could never pass the count check — drop it now.
    m_stale_->Add(1);
    return;
  }
  m_pushes_->Add(1);
  Entry& entry = entries_[key];
  entry.chunk = std::move(chunk);
  entry.values = values;
  entry.bytes = cost;
  entry.last_push_nanos = MonotonicNanos();
  entry.lru_tick = ++lru_tick_;
  bytes_ += cost;
  EvictUntilWithinCapacityLocked();
}

bool ReadAheadCache::TryServe(uint64_t handle, const Window& w,
                              std::vector<WindowChunkEntry>* chunk) {
  MutexLock lock(&mu_);
  const Key key{handle, w};
  auto count_it = local_counts_.find(key);
  if (count_it == local_counts_.end() || count_it->second == 0) {
    // Nothing was appended locally; the remote read will come back empty.
    // Not counted as a miss — there was nothing to prefetch.
    return false;
  }
  auto entry_it = entries_.find(key);
  if (entry_it == entries_.end() || entry_it->second.values != count_it->second) {
    m_misses_->Add(1);
    return false;
  }
  Entry& entry = entry_it->second;
  m_hits_->Add(1);
  m_push_lag_ms_->Record(
      static_cast<double>(MonotonicNanos() - entry.last_push_nanos) / 1e6);
  *chunk = std::move(entry.chunk);
  bytes_ -= entry.bytes;
  entries_.erase(entry_it);
  local_counts_.erase(count_it);
  return true;
}

void ReadAheadCache::OnRemoteRead(uint64_t handle, const Window& w) {
  MutexLock lock(&mu_);
  const Key key{handle, w};
  auto entry_it = entries_.find(key);
  if (entry_it != entries_.end()) {
    m_waste_->Add(entry_it->second.values);
    bytes_ -= entry_it->second.bytes;
    entries_.erase(entry_it);
  }
  local_counts_.erase(key);
}

void ReadAheadCache::Clear() {
  MutexLock lock(&mu_);
  for (const auto& [key, entry] : entries_) {
    m_waste_->Add(entry.values);
  }
  entries_.clear();
  bytes_ = 0;
}

ReadAheadCounters ReadAheadCache::counters() const {
  ReadAheadCounters c;
  c.hits = m_hits_->Value();
  c.misses = m_misses_->Value();
  c.waste = m_waste_->Value();
  c.stale = m_stale_->Value();
  c.evictions = m_evictions_->Value();
  c.pushes = m_pushes_->Value();
  return c;
}

size_t ReadAheadCache::bytes() const {
  MutexLock lock(&mu_);
  return bytes_;
}

void ReadAheadCache::EvictUntilWithinCapacityLocked() {
  while (capacity_bytes_ > 0 && bytes_ > capacity_bytes_ && entries_.size() > 1) {
    auto victim = entries_.begin();
    for (auto it = entries_.begin(); it != entries_.end(); ++it) {
      if (it->second.lru_tick < victim->second.lru_tick) {
        victim = it;
      }
    }
    m_waste_->Add(victim->second.values);
    m_evictions_->Add(1);
    bytes_ -= victim->second.bytes;
    entries_.erase(victim);
  }
  // A single over-budget entry is allowed to stand (evicting the chunk we
  // just completed would defeat the prefetch); the bound is a soft target.
}

}  // namespace net
}  // namespace flowkv
