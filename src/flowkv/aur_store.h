// Append & Unaligned Read store (paper §4.2). Windows of different keys
// trigger at different, data-dependent times, so the store:
//
//  - hashes the write buffer by (key, initial window boundary),
//  - keeps one *global* data log plus an append-only *index log* on disk
//    (per-window files would explode in number); an index entry records
//    (key, window, offset, length, count, max_timestamp) for each flushed
//    segment — many tuples amortize into one entry via the write buffer,
//  - mirrors the live index-log entries in memory (`index_`: state key ->
//    its segments), so steady-state reads and compactions never read the
//    index log back; it is read only by RestoreFrom, to rebuild the mirror.
//    The mirror costs ~32 B per live segment on top of the Stat table,
//  - maintains an in-memory Stat table of estimated trigger times (ETTs),
//    updated on every Append from the tuple timestamp and the window
//    function's predictor,
//  - on a prefetch-buffer miss, performs a *predictive batch read*: it
//    selects from `index_` the N live (key, window) entries closest to
//    triggering (N = read_batch_ratio x live entries) and loads their
//    segments into the prefetch buffer in one forward pass over the data log,
//  - evicts prefetched state whose ETT proved wrong (a new tuple arrived,
//    e.g. a session extension) — those tuples are re-read later, which is
//    the 1/hit-ratio read amplification of Eq. 1,
//  - integrates compaction with the batch read: when space amplification
//    exceeds the MSA threshold, adjacent live segments coalesce into byte
//    runs that move to fresh logs in one zero-copy transfer, dead ones
//    vanish, and `index_` offsets are rewritten in place.
#ifndef SRC_FLOWKV_AUR_STORE_H_
#define SRC_FLOWKV_AUR_STORE_H_

#include <cstdint>
#include <memory>
#include <string>
#include <unordered_map>
#include <vector>

#include "src/common/file.h"
#include "src/common/slice.h"
#include "src/common/stats.h"
#include "src/common/status.h"
#include "src/flowkv/ett.h"
#include "src/flowkv/flowkv_options.h"
#include "src/obs/metrics.h"
#include "src/spe/window.h"

namespace flowkv {

class AurStore {
 public:
  // The predictor encodes the window function's trigger semantics.
  static Status Open(const std::string& dir, const FlowKvOptions& options,
                     std::unique_ptr<EttPredictor> predictor, std::unique_ptr<AurStore>* out);

  ~AurStore();

  AurStore(const AurStore&) = delete;
  AurStore& operator=(const AurStore&) = delete;

  // Appends the tuple under (key, w); `timestamp` updates the window's ETT.
  Status Append(const Slice& key, const Slice& value, const Window& w, int64_t timestamp);

  // Fetch-and-remove of the full value list of (key, w).
  // NotFound when the entry has no state.
  Status Get(const Slice& key, const Window& w, std::vector<std::string>* values);

  // Moves the state of (key, src) windows into (key, dst), preserving
  // per-tuple timestamps (session merges).
  Status MergeWindows(const Slice& key, const std::vector<Window>& sources, const Window& dst);

  // Moves the live segments to fresh logs and drops the dead ones. The MSA
  // trigger runs it inside a batch read; CheckpointTo and tests call it
  // directly.
  Status Compact();

  // Snapshots the store (buffer flushed, dead segments compacted away, logs
  // copied, ETT/stat metadata serialized) into `checkpoint_dir` (paper §8).
  Status CheckpointTo(const std::string& checkpoint_dir);

  // Opens a store at `dir` seeded from a checkpoint.
  static Status RestoreFrom(const std::string& checkpoint_dir, const std::string& dir,
                            const FlowKvOptions& options,
                            std::unique_ptr<EttPredictor> predictor,
                            std::unique_ptr<AurStore>* out);

  uint64_t DataLogBytes() const;
  uint64_t DeadBytes() const { return dead_bytes_; }
  double SpaceAmplification() const;
  size_t PrefetchBufferEntries() const { return prefetch_.size(); }
  const StoreStats& stats() const { return stats_; }
  StoreStats* mutable_stats() { return &stats_; }

 private:
  // (value, timestamp) pairs in append order.
  using Tuples = std::vector<std::pair<std::string, int64_t>>;

  struct BufferedEntry {
    Tuples values;
    uint64_t bytes = 0;
  };

  // One live data-log segment: the in-memory copy of its index-log entry.
  struct Segment {
    uint64_t offset;
    uint64_t length;
    uint64_t count;
    int64_t max_timestamp;
  };
  // State key -> its live segments, in data-log order.
  using SegmentIndex = std::unordered_map<std::string, std::vector<Segment>>;

  AurStore(std::string dir, const FlowKvOptions& options,
           std::unique_ptr<EttPredictor> predictor);

  Status OpenLogs(bool reopen = false);
  std::string DataLogName(uint64_t generation) const;
  std::string IndexLogName(uint64_t generation) const;

  static std::string StateKey(const Slice& key, const Window& w);
  static uint64_t SegmentBytes(const std::vector<Segment>& segments);
  static void AppendIndexEntry(std::string* dst, const std::string& state_key,
                               const Segment& segment);

  // Flushes every write-buffer bucket: segments to the data log, one index
  // entry per bucket to the index log and to `index_`.
  Status FlushBuffer();

  // Rebuilds `index_` from the index log at `path` (restore only).
  Status ScanIndexLog(const std::string& path);

  // Predictive batch read (plus the MSA-triggered compaction), triggered by
  // a prefetch miss on `requested`.
  Status PredictiveBatchRead(const std::string& requested);

  // Loads every segment of the given `index_` entries into the prefetch
  // buffer, in one forward pass over the data log.
  Status LoadSegments(const std::vector<const SegmentIndex::value_type*>& entries);

  // Drains all state for `state_key` from buffer + prefetch + disk into
  // `values`, marking disk segments dead. Core of Get and MergeWindows.
  Status Collect(const std::string& state_key, Tuples* values);

  std::string dir_;
  FlowKvOptions options_;
  std::unique_ptr<EttPredictor> predictor_;

  // (key, initial window)-hashed write buffer.
  std::unordered_map<std::string, BufferedEntry> buffer_;
  uint64_t buffered_bytes_ = 0;

  // Stat table: state key -> {ETT, max timestamp seen} (paper Fig. 7).
  struct Stat {
    int64_t ett = 0;
    int64_t max_timestamp = INT64_MIN;
  };
  std::unordered_map<std::string, Stat> stat_;

  // Live on-disk segments. A consumed entry leaves the map and its bytes
  // count as dead until the next compaction drops them from the data log.
  SegmentIndex index_;

  // Prefetch buffer populated by predictive batch reads. An entry holds the
  // tuples of *all* of its key's live segments: a flush or append to the key
  // drops it.
  std::unordered_map<std::string, Tuples> prefetch_;

  // Event-time clock: the largest tuple timestamp appended so far; used to
  // measure actual trigger delays for adaptive predictors.
  int64_t clock_ = INT64_MIN;

  std::unique_ptr<AppendFile> data_log_;
  std::unique_ptr<AppendFile> index_log_;
  uint64_t generation_ = 0;
  uint64_t dead_bytes_ = 0;

  StoreStats stats_;
  // Samples stats_ live under the registering thread's (worker, partition)
  // labels; must be declared after stats_ (destroyed before it).
  obs::ScopedStatsRegistration stats_registration_{&stats_, "aur"};
};

}  // namespace flowkv

#endif  // SRC_FLOWKV_AUR_STORE_H_
