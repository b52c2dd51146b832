#include "src/flowkv/aur_store.h"

#include <algorithm>

#include "src/common/checkpoint.h"
#include "src/common/clock.h"
#include "src/common/coding.h"
#include "src/common/env.h"
#include "src/common/logging.h"
#include "src/obs/trace.h"

namespace flowkv {

AurStore::AurStore(std::string dir, const FlowKvOptions& options,
                   std::unique_ptr<EttPredictor> predictor)
    : dir_(std::move(dir)), options_(options), predictor_(std::move(predictor)) {}

AurStore::~AurStore() = default;

Status AurStore::Open(const std::string& dir, const FlowKvOptions& options,
                      std::unique_ptr<EttPredictor> predictor, std::unique_ptr<AurStore>* out) {
  FLOWKV_RETURN_IF_ERROR(CreateDirs(dir));
  std::unique_ptr<AurStore> store(new AurStore(dir, options, std::move(predictor)));
  FLOWKV_RETURN_IF_ERROR(store->OpenLogs());
  *out = std::move(store);
  return Status::Ok();
}

std::string AurStore::DataLogName(uint64_t generation) const {
  return JoinPath(dir_, "aur_data_" + std::to_string(generation) + ".log");
}

std::string AurStore::IndexLogName(uint64_t generation) const {
  return JoinPath(dir_, "aur_index_" + std::to_string(generation) + ".log");
}

Status AurStore::OpenLogs(bool reopen) {
  FLOWKV_RETURN_IF_ERROR(
      AppendFile::Open(DataLogName(generation_), reopen, &data_log_, &stats_.io));
  return AppendFile::Open(IndexLogName(generation_), reopen, &index_log_, &stats_.io);
}

Status AurStore::CheckpointTo(const std::string& checkpoint_dir) {
  CheckpointWriter writer(checkpoint_dir);
  FLOWKV_RETURN_IF_ERROR(writer.Init());
  // Flush in-memory tuples, then compact so the snapshot is exactly the live
  // segments.
  FLOWKV_RETURN_IF_ERROR(FlushBuffer());
  FLOWKV_RETURN_IF_ERROR(Compact());
  FLOWKV_RETURN_IF_ERROR(data_log_->Flush());
  FLOWKV_RETURN_IF_ERROR(index_log_->Flush());
  FLOWKV_RETURN_IF_ERROR(writer.AddFile(DataLogName(generation_), "aur_data.ckpt"));
  FLOWKV_RETURN_IF_ERROR(writer.AddFile(IndexLogName(generation_), "aur_index.ckpt"));
  std::string meta;
  PutVarint64(&meta, stat_.size());
  for (const auto& [sk, stat] : stat_) {
    PutLengthPrefixed(&meta, sk);
    PutVarsigned64(&meta, stat.ett);
    PutVarsigned64(&meta, stat.max_timestamp);
  }
  // Live on-disk bytes per state key; RestoreFrom checks the rebuilt index
  // against them.
  PutVarint64(&meta, index_.size());
  for (const auto& [sk, segments] : index_) {
    PutLengthPrefixed(&meta, sk);
    PutVarint64(&meta, SegmentBytes(segments));
  }
  FLOWKV_RETURN_IF_ERROR(writer.AddBlob("aur_meta.ckpt", meta));
  return writer.Commit();
}

Status AurStore::RestoreFrom(const std::string& checkpoint_dir, const std::string& dir,
                             const FlowKvOptions& options,
                             std::unique_ptr<EttPredictor> predictor,
                             std::unique_ptr<AurStore>* out) {
  CheckpointReader reader;
  FLOWKV_RETURN_IF_ERROR(CheckpointReader::Open(checkpoint_dir, &reader));
  FLOWKV_RETURN_IF_ERROR(CreateDirs(dir));
  std::unique_ptr<AurStore> store(new AurStore(dir, options, std::move(predictor)));
  FLOWKV_RETURN_IF_ERROR(reader.CopyOut("aur_data.ckpt", store->DataLogName(0)));
  FLOWKV_RETURN_IF_ERROR(reader.CopyOut("aur_index.ckpt", store->IndexLogName(0)));
  FLOWKV_RETURN_IF_ERROR(store->OpenLogs(/*reopen=*/true));
  FLOWKV_RETURN_IF_ERROR(store->ScanIndexLog(store->IndexLogName(0)));
  std::string meta;
  FLOWKV_RETURN_IF_ERROR(reader.ReadEntry("aur_meta.ckpt", &meta));
  Slice input(meta);
  uint64_t count;
  if (!GetVarint64(&input, &count)) {
    return Status::Corruption("malformed AUR checkpoint metadata");
  }
  for (uint64_t i = 0; i < count; ++i) {
    Slice sk;
    Stat stat;
    if (!GetLengthPrefixed(&input, &sk) || !GetVarsigned64(&input, &stat.ett) ||
        !GetVarsigned64(&input, &stat.max_timestamp)) {
      return Status::Corruption("malformed AUR checkpoint metadata");
    }
    store->stat_[sk.ToString()] = stat;
  }
  if (!GetVarint64(&input, &count)) {
    return Status::Corruption("malformed AUR checkpoint metadata");
  }
  if (count != store->index_.size()) {
    return Status::Corruption("AUR checkpoint index disagrees with its metadata");
  }
  for (uint64_t i = 0; i < count; ++i) {
    Slice sk;
    uint64_t bytes;
    if (!GetLengthPrefixed(&input, &sk) || !GetVarint64(&input, &bytes)) {
      return Status::Corruption("malformed AUR checkpoint metadata");
    }
    auto it = store->index_.find(sk.ToString());
    if (it == store->index_.end() || SegmentBytes(it->second) != bytes) {
      return Status::Corruption("AUR checkpoint index disagrees with its metadata");
    }
  }
  *out = std::move(store);
  return Status::Ok();
}

std::string AurStore::StateKey(const Slice& key, const Window& w) {
  std::string sk;
  PutLengthPrefixed(&sk, key);
  EncodeWindow(&sk, w);
  return sk;
}

uint64_t AurStore::SegmentBytes(const std::vector<Segment>& segments) {
  uint64_t bytes = 0;
  for (const Segment& seg : segments) {
    bytes += seg.length;
  }
  return bytes;
}

void AurStore::AppendIndexEntry(std::string* dst, const std::string& state_key,
                                const Segment& segment) {
  PutLengthPrefixed(dst, state_key);
  PutFixed64(dst, segment.offset);
  PutFixed64(dst, segment.length);
  PutVarint64(dst, segment.count);
  PutVarsigned64(dst, segment.max_timestamp);
}

Status AurStore::Append(const Slice& key, const Slice& value, const Window& w,
                        int64_t timestamp) {
  ScopedTimer t(&stats_.write_nanos);
  ++stats_.writes;
  const std::string sk = StateKey(key, w);

  // A new tuple invalidates any prefetched copy of this window: the ETT was
  // wrong (e.g. session extension). The disk copy stays; it will be re-read
  // (paper Eq. 1 read amplification).
  if (prefetch_.erase(sk) > 0) {
    ++stats_.prefetch_evictions;
    obs::TraceInstant("prefetch_evict", "prefetch", "reason_append", 1);
  }

  BufferedEntry& entry = buffer_[sk];
  entry.values.emplace_back(value.ToString(), timestamp);
  const uint64_t cost = value.size() + 24;
  entry.bytes += cost;
  buffered_bytes_ += cost + (entry.values.size() == 1 ? sk.size() + 64 : 0);

  clock_ = std::max(clock_, timestamp);
  Stat& stat = stat_[sk];
  stat.max_timestamp = std::max(stat.max_timestamp, timestamp);
  stat.ett = predictor_->Estimate(w, stat.max_timestamp);

  if (buffered_bytes_ >= options_.write_buffer_bytes) {
    return FlushBuffer();
  }
  return Status::Ok();
}

Status AurStore::FlushBuffer() {
  obs::TraceSpan span("flush", "store");
  span.AddArg("bytes", static_cast<int64_t>(buffered_bytes_));
  span.AddArg("entries", static_cast<int64_t>(buffer_.size()));
  ++stats_.flushes;
  std::string segment;
  std::string index_entry;
  for (auto& [sk, entry] : buffer_) {
    if (entry.values.empty()) {
      continue;
    }
    // A flush adds a segment this entry's prefetched copy doesn't cover;
    // drop the stale copy so the next read sees every segment.
    prefetch_.erase(sk);
    segment.clear();
    for (const auto& [value, ts] : entry.values) {
      PutLengthPrefixed(&segment, value);
      PutVarsigned64(&segment, ts);
    }
    const Segment seg{data_log_->size(), segment.size(), entry.values.size(),
                      stat_[sk].max_timestamp};
    FLOWKV_RETURN_IF_ERROR(data_log_->Append(segment));
    index_entry.clear();
    AppendIndexEntry(&index_entry, sk, seg);
    FLOWKV_RETURN_IF_ERROR(index_log_->Append(index_entry));
    index_[sk].push_back(seg);
  }
  buffer_.clear();
  buffered_bytes_ = 0;
  if (options_.sync_on_flush) {
    FLOWKV_RETURN_IF_ERROR(data_log_->Sync());
    return index_log_->Sync();
  }
  FLOWKV_RETURN_IF_ERROR(data_log_->Flush());
  return index_log_->Flush();
}

Status AurStore::ScanIndexLog(const std::string& path) {
  std::string contents;
  FLOWKV_RETURN_IF_ERROR(ReadFileToString(path, &contents));
  Slice input(contents);
  while (!input.empty()) {
    Slice sk;
    Segment seg;
    if (!GetLengthPrefixed(&input, &sk) || !GetFixed64(&input, &seg.offset) ||
        !GetFixed64(&input, &seg.length) || !GetVarint64(&input, &seg.count) ||
        !GetVarsigned64(&input, &seg.max_timestamp)) {
      return Status::Corruption("trailing partial index entry in " + path);
    }
    if (seg.length > DataLogBytes() || seg.offset > DataLogBytes() - seg.length) {
      return Status::Corruption("index entry beyond the data log in " + path);
    }
    index_[sk.ToString()].push_back(seg);
  }
  return Status::Ok();
}

uint64_t AurStore::DataLogBytes() const { return data_log_ ? data_log_->size() : 0; }

double AurStore::SpaceAmplification() const {
  const uint64_t total = DataLogBytes();
  if (total == 0 || total <= dead_bytes_) {
    return 1.0;
  }
  return static_cast<double>(total) / static_cast<double>(total - dead_bytes_);
}

Status AurStore::LoadSegments(const std::vector<const SegmentIndex::value_type*>& entries) {
  if (entries.empty()) {
    return Status::Ok();
  }
  FLOWKV_RETURN_IF_ERROR(data_log_->Flush());
  std::unique_ptr<RandomAccessFile> reader;
  FLOWKV_RETURN_IF_ERROR(RandomAccessFile::Open(DataLogName(generation_), &reader, &stats_.io));

  // Flatten and sort by offset: one forward pass over the data log.
  std::vector<std::pair<const std::string*, const Segment*>> flat;
  for (const auto* entry : entries) {
    for (const Segment& seg : entry->second) {
      flat.emplace_back(&entry->first, &seg);
    }
  }
  std::sort(flat.begin(), flat.end(),
            [](const auto& a, const auto& b) { return a.second->offset < b.second->offset; });

  std::string buf;
  for (const auto& [sk, seg] : flat) {
    buf.resize(seg->length);
    Slice got;
    FLOWKV_RETURN_IF_ERROR(reader->Read(seg->offset, seg->length, &got, buf.data()));
    Tuples& dst = prefetch_[*sk];
    Slice input = got;
    while (!input.empty()) {
      Slice value;
      int64_t ts;
      if (!GetLengthPrefixed(&input, &value) || !GetVarsigned64(&input, &ts)) {
        return Status::Corruption("malformed data segment in " + DataLogName(generation_));
      }
      dst.emplace_back(value.ToString(), ts);
    }
    stats_.tuples_read_from_disk += static_cast<int64_t>(seg->count);
  }
  return Status::Ok();
}

Status AurStore::Compact() {
  ScopedTimer t(&stats_.compaction_nanos);
  obs::TraceSpan span("compaction", "compaction");
  span.AddArg("live_entries", static_cast<int64_t>(index_.size()));
  span.AddArg("dead_bytes", static_cast<int64_t>(dead_bytes_));
  ++stats_.compactions;

  // Live segments in old-offset order (sequential source access); adjacent
  // ones coalesce into a single byte run.
  std::vector<std::pair<const std::string*, Segment*>> flat;
  for (auto& [sk, segments] : index_) {
    for (Segment& seg : segments) {
      flat.emplace_back(&sk, &seg);
    }
  }
  std::sort(flat.begin(), flat.end(),
            [](const auto& a, const auto& b) { return a.second->offset < b.second->offset; });
  std::vector<ByteRange> runs;
  for (const auto& [sk, seg] : flat) {
    if (!runs.empty() && runs.back().offset + runs.back().length == seg->offset) {
      runs.back().length += seg->length;
    } else {
      runs.push_back({seg->offset, seg->length});
    }
  }

  // Move the runs into generation+1 logs with one zero-copy transfer (§5).
  FLOWKV_RETURN_IF_ERROR(data_log_->Flush());
  const uint64_t next = generation_ + 1;
  std::unique_ptr<AppendFile> new_data;
  std::unique_ptr<AppendFile> new_index;
  FLOWKV_RETURN_IF_ERROR(
      AppendFile::Open(DataLogName(next), /*reopen=*/false, &new_data, &stats_.io));
  FLOWKV_RETURN_IF_ERROR(
      AppendFile::Open(IndexLogName(next), /*reopen=*/false, &new_index, &stats_.io));
  FLOWKV_RETURN_IF_ERROR(
      ZeroCopyTransfer(DataLogName(generation_), runs, new_data.get(), &stats_.io));

  // The runs land back to back, so each segment's new offset is the running
  // total of the lengths before it. `index_` changes only once the new logs
  // are complete.
  std::string index_entries;
  uint64_t offset = 0;
  for (const auto& [sk, seg] : flat) {
    AppendIndexEntry(&index_entries, *sk, {offset, seg->length, seg->count, seg->max_timestamp});
    offset += seg->length;
  }
  FLOWKV_RETURN_IF_ERROR(new_index->Append(index_entries));
  FLOWKV_RETURN_IF_ERROR(new_index->Flush());
  offset = 0;
  for (const auto& [sk, seg] : flat) {
    seg->offset = offset;
    offset += seg->length;
  }

  const std::string old_data = DataLogName(generation_);
  const std::string old_index = IndexLogName(generation_);
  data_log_ = std::move(new_data);
  index_log_ = std::move(new_index);
  generation_ = next;
  FLOWKV_RETURN_IF_ERROR(RemoveFile(old_data));
  FLOWKV_RETURN_IF_ERROR(RemoveFile(old_index));
  dead_bytes_ = 0;
  FLOWKV_LOG(kDebug) << "aur compaction: " << flat.size() << " live segments in " << runs.size()
                     << " runs -> gen " << generation_;
  return Status::Ok();
}

Status AurStore::PredictiveBatchRead(const std::string& requested) {
  obs::TraceSpan span("predictive_batch_read", "prefetch");
  if (SpaceAmplification() > options_.max_space_amplification) {
    FLOWKV_RETURN_IF_ERROR(Compact());
  }

  // Select the requested entry plus the N live entries closest to their
  // estimated trigger time. N = read_batch_ratio x live entries; entries
  // without a usable ETT (unpredictable window functions) never prefetch.
  std::vector<std::pair<int64_t, const SegmentIndex::value_type*>> candidates;
  candidates.reserve(index_.size());
  for (const auto& entry : index_) {
    const std::string& sk = entry.first;
    if (sk == requested || prefetch_.contains(sk)) {
      continue;
    }
    auto stat_it = stat_.find(sk);
    const int64_t ett =
        stat_it == stat_.end() ? EttPredictor::kUnknown : stat_it->second.ett;
    if (ett != EttPredictor::kUnknown) {
      candidates.emplace_back(ett, &entry);
    }
  }
  size_t n = static_cast<size_t>(options_.read_batch_ratio * static_cast<double>(index_.size()));
  n = std::min(n, candidates.size());
  std::partial_sort(candidates.begin(), candidates.begin() + n, candidates.end());
  span.AddArg("live_entries", static_cast<int64_t>(index_.size()));
  span.AddArg("batch_n", static_cast<int64_t>(n));

  std::vector<const SegmentIndex::value_type*> to_load;
  to_load.reserve(n + 1);
  auto requested_it = index_.find(requested);
  if (requested_it != index_.end()) {
    to_load.push_back(&*requested_it);
  }
  for (size_t i = 0; i < n; ++i) {
    for (const Segment& seg : candidates[i].second->second) {
      // Speculative loads only; the requested entry and targeted reads are
      // demand reads, not prefetches.
      stats_.prefetched_entries += static_cast<int64_t>(seg.count);
    }
    to_load.push_back(candidates[i].second);
  }
  return LoadSegments(to_load);
}

Status AurStore::Collect(const std::string& state_key, Tuples* values) {
  values->clear();
  // Disk-resident (oldest) data first: from the prefetch buffer, or else a
  // targeted read of this entry's segments.
  auto index_it = index_.find(state_key);
  if (index_it != index_.end()) {
    auto prefetch_it = prefetch_.find(state_key);
    if (prefetch_it == prefetch_.end()) {
      FLOWKV_RETURN_IF_ERROR(LoadSegments({&*index_it}));
      prefetch_it = prefetch_.find(state_key);
    }
    *values = std::move(prefetch_it->second);
    prefetch_.erase(prefetch_it);
    stats_.tuples_consumed += static_cast<int64_t>(values->size());
    dead_bytes_ += SegmentBytes(index_it->second);
    index_.erase(index_it);
  }
  // Then anything still buffered in memory (newest).
  auto buffer_it = buffer_.find(state_key);
  if (buffer_it != buffer_.end()) {
    for (auto& vt : buffer_it->second.values) {
      values->push_back(std::move(vt));
    }
    buffered_bytes_ -=
        std::min<uint64_t>(buffered_bytes_, buffer_it->second.bytes + state_key.size() + 64);
    buffer_.erase(buffer_it);
  }
  stat_.erase(state_key);
  return Status::Ok();
}

Status AurStore::Get(const Slice& key, const Window& w, std::vector<std::string>* values) {
  ScopedTimer t(&stats_.read_nanos);
  ++stats_.reads;
  const std::string sk = StateKey(key, w);

  // Runtime profiling feedback (§8): the trigger happened "now" in event
  // time; report how far past the window's last tuple that is, so adaptive
  // predictors can learn custom trigger semantics.
  auto stat_it = stat_.find(sk);
  if (stat_it != stat_.end() && stat_it->second.max_timestamp != INT64_MIN &&
      clock_ != INT64_MIN) {
    predictor_->Observe(clock_ - stat_it->second.max_timestamp);
    // ETT accuracy: the stat table holds the last prediction for this window;
    // the event-time clock is when the trigger actually happened.
    RecordEttOutcome(stat_it->second.ett, clock_, &stats_);
  }

  if (index_.contains(sk)) {
    if (prefetch_.contains(sk)) {
      ++stats_.prefetch_hits;
      obs::TraceInstant("prefetch_hit", "prefetch");
    } else {
      ++stats_.prefetch_misses;
      obs::TraceInstant("prefetch_miss", "prefetch");
      FLOWKV_RETURN_IF_ERROR(PredictiveBatchRead(sk));
    }
  }
  Tuples vts;
  FLOWKV_RETURN_IF_ERROR(Collect(sk, &vts));
  if (vts.empty()) {
    return Status::NotFound();
  }
  values->clear();
  values->reserve(vts.size());
  for (auto& [value, ts] : vts) {
    values->push_back(std::move(value));
  }
  return Status::Ok();
}

Status AurStore::MergeWindows(const Slice& key, const std::vector<Window>& sources,
                              const Window& dst) {
  ScopedTimer t(&stats_.write_nanos);
  for (const Window& src : sources) {
    const std::string src_sk = StateKey(key, src);
    Tuples vts;
    FLOWKV_RETURN_IF_ERROR(Collect(src_sk, &vts));
    for (auto& [value, ts] : vts) {
      // Re-append under the destination's initial window, preserving the
      // original timestamp so the destination's ETT stays a lower bound.
      const std::string dst_sk = StateKey(key, dst);
      if (prefetch_.erase(dst_sk) > 0) {
        ++stats_.prefetch_evictions;
        obs::TraceInstant("prefetch_evict", "prefetch", "reason_merge", 1);
      }
      BufferedEntry& entry = buffer_[dst_sk];
      const uint64_t cost = value.size() + 24;
      entry.bytes += cost;
      buffered_bytes_ += cost + (entry.values.size() == 0 ? dst_sk.size() + 64 : 0);
      entry.values.emplace_back(std::move(value), ts);
      Stat& stat = stat_[dst_sk];
      stat.max_timestamp = std::max(stat.max_timestamp, ts);
      stat.ett = predictor_->Estimate(dst, stat.max_timestamp);
    }
  }
  if (buffered_bytes_ >= options_.write_buffer_bytes) {
    return FlushBuffer();
  }
  return Status::Ok();
}

}  // namespace flowkv
