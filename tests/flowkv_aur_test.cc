// AUR store tests (paper §4.2): write buffer hashed by (key, initial
// window), index + data log files, ETT maintenance, predictive batch read
// (hits, misses, wrong-ETT eviction, read amplification), session merges,
// MSA-driven integrated compaction, and the syscall shape of reads and
// compactions (the index log is read only at restore).
#include <gtest/gtest.h>

#include <algorithm>
#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "src/common/checkpoint.h"
#include "src/common/env.h"
#include "src/common/file.h"
#include "src/common/fs_hooks.h"
#include "src/flowkv/aur_store.h"

namespace flowkv {
namespace {

class AurStoreTest : public ::testing::Test {
 protected:
  void SetUp() override { dir_ = MakeTempDir("aur_test"); }
  void TearDown() override { RemoveDirRecursively(dir_).IgnoreError(); }

  std::unique_ptr<AurStore> OpenStore(FlowKvOptions options = {}, int64_t session_gap = 100) {
    std::unique_ptr<AurStore> store;
    Status s = AurStore::Open(dir_, options,
                              std::make_unique<SessionEttPredictor>(session_gap), &store);
    EXPECT_TRUE(s.ok()) << s.ToString();
    return store;
  }

  std::string dir_;
};

TEST(EttPredictorTest, SessionEttIsMaxTimestampPlusGap) {
  SessionEttPredictor predictor(30);
  EXPECT_EQ(predictor.Estimate(Window(0, 100), 70), 100);
  EXPECT_EQ(predictor.Estimate(Window(0, 100), 200), 230);
  EXPECT_TRUE(predictor.predictable());
}

TEST(EttPredictorTest, AlignedEttIsWindowEnd) {
  AlignedEttPredictor predictor;
  EXPECT_EQ(predictor.Estimate(Window(0, 100), 42), 99);
}

TEST(EttPredictorTest, UnpredictableDisablesPrefetch) {
  UnpredictableEttPredictor predictor;
  EXPECT_EQ(predictor.Estimate(Window(0, 100), 42), EttPredictor::kUnknown);
  EXPECT_FALSE(predictor.predictable());
}

TEST(EttPredictorTest, FactoryMapsWindowKinds) {
  OperatorStateSpec spec;
  spec.window_kind = WindowKind::kSession;
  spec.session_gap_ms = 7;
  auto p = MakeEttPredictor(spec);
  EXPECT_EQ(p->Estimate(Window(0, 10), 100), 107);
  spec.window_kind = WindowKind::kTumbling;
  EXPECT_EQ(MakeEttPredictor(spec)->Estimate(Window(0, 10), 100), 9);
  spec.window_kind = WindowKind::kCount;
  EXPECT_FALSE(MakeEttPredictor(spec)->predictable());
  spec.window_kind = WindowKind::kCustom;
  EXPECT_FALSE(MakeEttPredictor(spec)->predictable());
}

TEST_F(AurStoreTest, AppendGetFromMemory) {
  auto store = OpenStore();
  Window w(0, 100);
  ASSERT_TRUE(store->Append("k", "v1", w, 10).ok());
  ASSERT_TRUE(store->Append("k", "v2", w, 20).ok());
  std::vector<std::string> values;
  ASSERT_TRUE(store->Get("k", w, &values).ok());
  EXPECT_EQ(values, (std::vector<std::string>{"v1", "v2"}));
  // Fetch-and-remove: second read finds nothing.
  EXPECT_TRUE(store->Get("k", w, &values).IsNotFound());
}

TEST_F(AurStoreTest, GetAfterFlushReadsDisk) {
  FlowKvOptions options;
  options.write_buffer_bytes = 512;
  auto store = OpenStore(options);
  Window w(0, 100);
  std::vector<std::string> expected;
  for (int i = 0; i < 50; ++i) {
    std::string v = "value" + std::to_string(i);
    ASSERT_TRUE(store->Append("k", v, w, i).ok());
    expected.push_back(v);
  }
  EXPECT_GT(store->stats().flushes, 0);
  std::vector<std::string> values;
  ASSERT_TRUE(store->Get("k", w, &values).ok());
  EXPECT_EQ(values, expected);  // disk segments first, buffered tail after
}

TEST_F(AurStoreTest, PredictiveBatchReadPrefetchesImminentWindows) {
  FlowKvOptions options;
  options.write_buffer_bytes = 1;      // flush on every append
  options.read_batch_ratio = 0.5;      // prefetch half the live windows
  auto store = OpenStore(options, /*session_gap=*/100);
  // 10 windows with staggered ETTs (max ts = window start).
  for (int i = 0; i < 10; ++i) {
    Window w(i * 1000, i * 1000 + 100);
    ASSERT_TRUE(store->Append("k" + std::to_string(i), "v", w, i * 1000).ok());
  }
  // Reading the earliest-ETT window must batch-load the next-earliest ones.
  std::vector<std::string> values;
  ASSERT_TRUE(store->Get("k0", Window(0, 100), &values).ok());
  EXPECT_EQ(store->stats().prefetch_misses, 1);
  EXPECT_GT(store->PrefetchBufferEntries(), 0u);
  // The next reads (in ETT order) hit the prefetch buffer.
  ASSERT_TRUE(store->Get("k1", Window(1000, 1100), &values).ok());
  EXPECT_EQ(store->stats().prefetch_hits, 1);
}

TEST_F(AurStoreTest, ZeroBatchRatioDisablesPrefetch) {
  FlowKvOptions options;
  options.write_buffer_bytes = 1;
  options.read_batch_ratio = 0.0;
  auto store = OpenStore(options);
  for (int i = 0; i < 10; ++i) {
    Window w(i * 1000, i * 1000 + 100);
    ASSERT_TRUE(store->Append("k" + std::to_string(i), "v", w, i * 1000).ok());
  }
  std::vector<std::string> values;
  ASSERT_TRUE(store->Get("k0", Window(0, 100), &values).ok());
  EXPECT_EQ(store->PrefetchBufferEntries(), 0u);  // only the requested entry loaded
  ASSERT_TRUE(store->Get("k1", Window(1000, 1100), &values).ok());
  EXPECT_EQ(store->stats().prefetch_hits, 0);
  EXPECT_EQ(store->stats().prefetch_misses, 2);
}

TEST_F(AurStoreTest, WrongEttEvictsPrefetchedState) {
  FlowKvOptions options;
  options.write_buffer_bytes = 1;
  options.read_batch_ratio = 1.0;  // prefetch everything live
  auto store = OpenStore(options, /*session_gap=*/100);
  Window w_a(0, 100), w_b(50, 150);
  ASSERT_TRUE(store->Append("a", "v1", w_a, 0).ok());
  ASSERT_TRUE(store->Append("b", "v1", w_b, 50).ok());
  // Miss on "a" prefetches "b" too.
  std::vector<std::string> values;
  ASSERT_TRUE(store->Get("a", w_a, &values).ok());
  EXPECT_EQ(store->PrefetchBufferEntries(), 1u);
  // A new tuple for b's window proves the ETT wrong -> eviction.
  ASSERT_TRUE(store->Append("b", "v2", w_b, 120).ok());
  EXPECT_EQ(store->PrefetchBufferEntries(), 0u);
  EXPECT_EQ(store->stats().prefetch_evictions, 1);
  // The data is still complete: re-read from disk + buffer.
  ASSERT_TRUE(store->Get("b", w_b, &values).ok());
  EXPECT_EQ(values, (std::vector<std::string>{"v1", "v2"}));
  // Eviction caused the disk tuple to be read twice (read amplification).
  EXPECT_GT(store->stats().ReadAmplification(), 1.0);
}

TEST_F(AurStoreTest, MergeWindowsMovesStateAndTimestamps) {
  FlowKvOptions options;
  options.write_buffer_bytes = 256;  // spill some of it to disk
  auto store = OpenStore(options);
  Window src1(0, 100), src2(200, 300), dst(0, 300);
  for (int i = 0; i < 20; ++i) {
    ASSERT_TRUE(store->Append("k", "s1-" + std::to_string(i), src1, i).ok());
    ASSERT_TRUE(store->Append("k", "s2-" + std::to_string(i), src2, 200 + i).ok());
  }
  ASSERT_TRUE(store->MergeWindows("k", {src1, src2}, dst).ok());
  std::vector<std::string> values;
  EXPECT_TRUE(store->Get("k", src1, &values).IsNotFound());
  EXPECT_TRUE(store->Get("k", src2, &values).IsNotFound());
  ASSERT_TRUE(store->Get("k", dst, &values).ok());
  EXPECT_EQ(values.size(), 40u);
}

TEST_F(AurStoreTest, CompactionReclaimsConsumedSegments) {
  FlowKvOptions options;
  options.write_buffer_bytes = 1;
  options.max_space_amplification = 1e9;  // manual compaction only
  auto store = OpenStore(options);
  for (int i = 0; i < 50; ++i) {
    Window w(i * 10, i * 10 + 10);
    ASSERT_TRUE(store->Append("k" + std::to_string(i), std::string(100, 'v'), w, i * 10).ok());
  }
  // Consume the first 40 windows: their segments become dead.
  std::vector<std::string> values;
  for (int i = 0; i < 40; ++i) {
    ASSERT_TRUE(store->Get("k" + std::to_string(i), Window(i * 10, i * 10 + 10), &values).ok());
  }
  EXPECT_GT(store->SpaceAmplification(), 2.0);
  const uint64_t before = store->DataLogBytes();
  ASSERT_TRUE(store->Compact().ok());
  EXPECT_LT(store->DataLogBytes(), before);
  EXPECT_DOUBLE_EQ(store->SpaceAmplification(), 1.0);
  // Survivors are intact after the zero-copy rewrite.
  for (int i = 40; i < 50; ++i) {
    ASSERT_TRUE(store->Get("k" + std::to_string(i), Window(i * 10, i * 10 + 10), &values).ok());
    EXPECT_EQ(values.size(), 1u);
  }
}

TEST_F(AurStoreTest, MsaTriggersIntegratedCompaction) {
  FlowKvOptions options;
  options.write_buffer_bytes = 1;
  options.max_space_amplification = 1.5;
  options.read_batch_ratio = 0.0;
  auto store = OpenStore(options);
  // Interleave appends and consuming reads; dead bytes accumulate and the
  // MSA threshold must fire compaction from inside the batch-read scan.
  std::vector<std::string> values;
  for (int i = 0; i < 100; ++i) {
    Window w(i * 10, i * 10 + 10);
    ASSERT_TRUE(store->Append("k" + std::to_string(i), std::string(200, 'v'), w, i * 10).ok());
    if (i >= 2) {
      int j = i - 2;
      ASSERT_TRUE(
          store->Get("k" + std::to_string(j), Window(j * 10, j * 10 + 10), &values).ok());
    }
  }
  EXPECT_GT(store->stats().compactions, 0);
  EXPECT_LE(store->SpaceAmplification(), 2.0);
}

TEST_F(AurStoreTest, HighHitRatioYieldsLowReadAmplification) {
  // Read windows in exactly ETT order: every prefetch is useful, so the
  // measured amplification must approach 1 (paper Eq. 1 with r -> 1).
  FlowKvOptions options;
  options.write_buffer_bytes = 1;
  options.read_batch_ratio = 0.2;
  auto store = OpenStore(options);
  const int kWindows = 100;
  for (int i = 0; i < kWindows; ++i) {
    Window w(i * 10, i * 10 + 10);
    ASSERT_TRUE(store->Append("k" + std::to_string(i), "v", w, i * 10).ok());
  }
  std::vector<std::string> values;
  for (int i = 0; i < kWindows; ++i) {
    ASSERT_TRUE(store->Get("k" + std::to_string(i), Window(i * 10, i * 10 + 10), &values).ok());
  }
  EXPECT_GT(store->stats().PrefetchHitRatio(), 0.7);
  EXPECT_LE(store->stats().ReadAmplification(), 1.1);
}

TEST(AdaptiveEttPredictorTest, UnpredictableUntilWarmupThenLearnsDelay) {
  AdaptiveEttPredictor predictor(/*warmup=*/10, /*safety_quantile=*/0.9);
  EXPECT_FALSE(predictor.predictable());
  EXPECT_EQ(predictor.Estimate(Window(0, 100), 50), EttPredictor::kUnknown);
  for (int i = 0; i < 10; ++i) {
    predictor.Observe(100);  // the custom function always triggers 100ms late
  }
  EXPECT_TRUE(predictor.predictable());
  EXPECT_EQ(predictor.Estimate(Window(0, 1), 50), 150);
}

TEST(AdaptiveEttPredictorTest, QuantileIsConservative) {
  AdaptiveEttPredictor predictor(/*warmup=*/1, /*safety_quantile=*/0.9);
  for (int i = 1; i <= 100; ++i) {
    predictor.Observe(i);  // delays 1..100
  }
  const int64_t est = predictor.Estimate(Window(0, 1), 0);
  EXPECT_GE(est, 85);  // ~P90 of 1..100
  EXPECT_LE(est, 100);
}

TEST_F(AurStoreTest, AdaptivePredictorEnablesPrefetchForCustomWindows) {
  // A custom window function that (unknown to FlowKV) always triggers 200ms
  // after the last tuple. With the adaptive predictor, the store profiles
  // real triggers and predictive batch read kicks in after warm-up.
  FlowKvOptions options;
  options.write_buffer_bytes = 1;
  options.read_batch_ratio = 0.5;
  std::unique_ptr<AurStore> store;
  ASSERT_TRUE(AurStore::Open(dir_, options,
                             std::make_unique<AdaptiveEttPredictor>(/*warmup=*/8, 0.9),
                             &store)
                  .ok());
  std::vector<std::string> values;
  int64_t prefetched_before = 0;
  for (int round = 0; round < 6; ++round) {
    // Each round: 4 windows appended, then triggered 200ms after their tuple.
    const int64_t base = round * 10'000;
    for (int i = 0; i < 4; ++i) {
      Window w(base + i * 1000, base + i * 1000 + 100);
      ASSERT_TRUE(store->Append("k" + std::to_string(i), "v", w, base + i * 1000).ok());
    }
    // Advance the event-time clock via a dummy key, then trigger in order.
    for (int i = 0; i < 4; ++i) {
      Window w(base + i * 1000, base + i * 1000 + 100);
      ASSERT_TRUE(store->Append("clock", "t", Window(base + 9000, base + 9100),
                                base + i * 1000 + 200).ok());
      ASSERT_TRUE(store->Get("k" + std::to_string(i), w, &values).ok());
    }
    if (round == 2) {
      prefetched_before = store->stats().prefetched_entries;
    }
  }
  // Warm-up happened within the first rounds; later rounds prefetched.
  EXPECT_GT(store->stats().prefetch_hits, 0);
  EXPECT_GT(store->stats().prefetched_entries, prefetched_before);
}

// A running store never reads its index log back (it keeps the live entries
// in memory); RestoreFrom is the one reader, so corruption surfaces there.
TEST_F(AurStoreTest, CorruptIndexLogSurfacesCorruption) {
  // Checkpoints `value` under k0 and k1 into `ckpt` from a store at `dir`.
  auto checkpoint = [&](const std::string& value, const std::string& dir,
                        const std::string& ckpt) {
    FlowKvOptions options;
    options.write_buffer_bytes = 1;
    std::unique_ptr<AurStore> store;
    ASSERT_TRUE(
        AurStore::Open(dir, options, std::make_unique<SessionEttPredictor>(100), &store).ok());
    ASSERT_TRUE(store->Append("k0", value, Window(0, 100), 10).ok());
    ASSERT_TRUE(store->Append("k1", value, Window(0, 100), 20).ok());
    ASSERT_TRUE(store->CheckpointTo(ckpt).ok());
  };
  const std::string good = JoinPath(dir_, "ckpt");
  const std::string longer = JoinPath(dir_, "ckpt_longer");
  checkpoint("v", JoinPath(dir_, "live"), good);
  checkpoint("vv", JoinPath(dir_, "live_longer"), longer);
  std::string data, index, meta, longer_meta;
  ASSERT_TRUE(ReadFileToString(JoinPath(good, "aur_data.ckpt"), &data).ok());
  ASSERT_TRUE(ReadFileToString(JoinPath(good, "aur_index.ckpt"), &index).ok());
  ASSERT_TRUE(ReadFileToString(JoinPath(good, "aur_meta.ckpt"), &meta).ok());
  ASSERT_TRUE(ReadFileToString(JoinPath(longer, "aur_meta.ckpt"), &longer_meta).ok());
  ASSERT_GT(index.size(), 4u);

  // Commits a checkpoint from the given payloads and restores it.
  int forged = 0;
  auto restore = [&](const std::string& index_payload, const std::string& meta_payload) {
    const std::string ckpt = JoinPath(dir_, "forged" + std::to_string(forged++));
    CheckpointWriter writer(ckpt);
    EXPECT_TRUE(writer.Init().ok());
    EXPECT_TRUE(writer.AddBlob("aur_data.ckpt", data).ok());
    EXPECT_TRUE(writer.AddBlob("aur_index.ckpt", index_payload).ok());
    EXPECT_TRUE(writer.AddBlob("aur_meta.ckpt", meta_payload).ok());
    EXPECT_TRUE(writer.Commit().ok());
    std::unique_ptr<AurStore> restored;
    return AurStore::RestoreFrom(ckpt, JoinPath(dir_, "restored" + std::to_string(forged)),
                                 FlowKvOptions{}, std::make_unique<SessionEttPredictor>(100),
                                 &restored);
  };
  // The untouched payloads restore.
  Status s = restore(index, meta);
  EXPECT_TRUE(s.ok()) << s.ToString();
  // An index that ends mid-entry, even under a manifest that vouches for it.
  EXPECT_TRUE(restore(index.substr(0, index.size() - 3), meta).IsCorruption());
  // A well-formed index that disagrees with the per-key byte totals.
  EXPECT_TRUE(restore(index, longer_meta).IsCorruption());
  // In place, a truncated index fails the manifest's size check.
  ASSERT_TRUE(
      WriteStringToFile(JoinPath(good, "aur_index.ckpt"), index.substr(0, index.size() - 3))
          .ok());
  std::unique_ptr<AurStore> restored;
  EXPECT_TRUE(AurStore::RestoreFrom(good, JoinPath(dir_, "restored"), FlowKvOptions{},
                                    std::make_unique<SessionEttPredictor>(100), &restored)
                  .IsCorruption());
}

// Counts read-opens per path while installed.
class ReadOpenCounter : public FsHooks {
 public:
  ReadOpenCounter() { InstallFsHooks(this); }
  ~ReadOpenCounter() override { InstallFsHooks(nullptr); }

  Status PreOpenRead(const std::string& path) override {
    paths_.push_back(path);
    return Status::Ok();
  }

  int Count(const std::function<bool(const std::string&)>& match) const {
    return static_cast<int>(std::count_if(paths_.begin(), paths_.end(), match));
  }

 private:
  std::vector<std::string> paths_;
};

TEST_F(AurStoreTest, CompactionOpensTheOldDataLogOnce) {
  FlowKvOptions options;
  options.write_buffer_bytes = 1;  // one segment per append
  options.max_space_amplification = 1e9;
  auto store = OpenStore(options);
  auto window = [](int i) { return Window(i * 10, i * 10 + 10); };
  for (int i = 0; i < 120; ++i) {
    ASSERT_TRUE(store->Append("k" + std::to_string(i), "v" + std::to_string(i), window(i),
                              i * 10).ok());
  }
  // Consume every other window: live and dead segments interleave.
  std::vector<std::string> values;
  for (int i = 0; i < 120; i += 2) {
    ASSERT_TRUE(store->Get("k" + std::to_string(i), window(i), &values).ok());
  }
  const std::string old_data = JoinPath(dir_, "aur_data_0.log");
  {
    ReadOpenCounter counter;
    ASSERT_TRUE(store->Compact().ok());
    EXPECT_EQ(counter.Count([&](const std::string& p) { return p == old_data; }), 1);
  }
  for (int i = 1; i < 120; i += 2) {
    ASSERT_TRUE(store->Get("k" + std::to_string(i), window(i), &values).ok());
    EXPECT_EQ(values, (std::vector<std::string>{"v" + std::to_string(i)}));
  }
}

TEST_F(AurStoreTest, PrefetchMissesNeverReadTheIndexLog) {
  FlowKvOptions options;
  options.write_buffer_bytes = 1;
  options.read_batch_ratio = 0.1;
  options.max_space_amplification = 1.5;  // compactions run inside misses too
  auto store = OpenStore(options);
  ReadOpenCounter counter;
  std::vector<std::string> values;
  for (int round = 0; round < 4; ++round) {
    for (int i = 0; i < 50; ++i) {
      const int w = round * 50 + i;
      ASSERT_TRUE(store->Append("k" + std::to_string(i), "v", Window(w * 10, w * 10 + 10),
                                w * 10).ok());
    }
    // Against ETT order: most reads miss the prefetch buffer.
    for (int i = 49; i >= 0; --i) {
      const int w = round * 50 + i;
      ASSERT_TRUE(store->Get("k" + std::to_string(i), Window(w * 10, w * 10 + 10), &values)
                      .ok());
    }
  }
  EXPECT_GT(store->stats().prefetch_misses, 20);
  EXPECT_GT(store->stats().compactions, 0);
  EXPECT_EQ(counter.Count([](const std::string& p) {
              return p.find("aur_index_") != std::string::npos;
            }),
            0);
}

TEST_F(AurStoreTest, GetMissingIsNotFound) {
  auto store = OpenStore();
  std::vector<std::string> values;
  EXPECT_TRUE(store->Get("nope", Window(0, 10), &values).IsNotFound());
}

}  // namespace
}  // namespace flowkv
