// Property-style sweeps (TEST_P) over FlowKV's configuration space and
// randomized workloads, checking store invariants that must hold for every
// parameter combination:
//  - no lost or duplicated tuples (AUR under random session streams with
//    merges, compactions and checkpoint/restore swaps),
//  - fetch-and-remove semantics,
//  - space amplification bounded near MSA after compactions,
//  - session ETT is a lower bound (prefetched session state is never wrong
//    unless a tuple really arrived),
//  - window-operator results over FlowKV equal the in-memory reference for
//    randomized (non-NEXMark) event streams.
#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <memory>
#include <string>
#include <tuple>
#include <vector>

#include "src/backends/flowkv_backend.h"
#include "src/backends/memory_backend.h"
#include "src/common/env.h"
#include "src/common/random.h"
#include "src/flowkv/aur_store.h"
#include "src/hashkv/hashkv_store.h"
#include "src/lsm/lsm_store.h"
#include "src/lsm/merge.h"
#include "src/nexmark/aggregates.h"
#include "src/spe/pipeline.h"
#include "src/spe/window_operator.h"

namespace flowkv {
namespace {

// ---------------------------------------------------------------------------
// AUR invariants across (write_buffer, read_batch_ratio, msa).

struct AurParams {
  uint64_t write_buffer_bytes;
  double read_batch_ratio;
  double msa;
};

class AurPropertyTest : public ::testing::TestWithParam<AurParams> {
 protected:
  void SetUp() override { dir_ = MakeTempDir("aur_prop"); }
  void TearDown() override { RemoveDirRecursively(dir_).IgnoreError(); }
  std::string dir_;
};

// Appends, fetch-and-remove reads, session merges and explicit compactions
// against a reference model, with the store swapped twice for a copy
// restored from its own checkpoint.
TEST_P(AurPropertyTest, NoTupleLostUnderRandomSessionWorkload) {
  const AurParams& p = GetParam();
  FlowKvOptions options;
  options.write_buffer_bytes = p.write_buffer_bytes;
  options.read_batch_ratio = p.read_batch_ratio;
  options.max_space_amplification = p.msa;
  std::unique_ptr<AurStore> store;
  ASSERT_TRUE(AurStore::Open(JoinPath(dir_, "store0"), options,
                             std::make_unique<SessionEttPredictor>(100), &store)
                  .ok());

  Random rng(p.write_buffer_bytes + static_cast<uint64_t>(p.read_batch_ratio * 1000));
  std::map<std::string, std::vector<std::string>> live;  // refkey -> values
  auto refkey = [](const std::string& key, int64_t start) {
    return key + "|" + std::to_string(start);
  };
  int64_t ts = 0;
  int64_t appended = 0, retrieved = 0;
  int compactions = 0, merges = 0, restores = 0;
  for (int step = 0; step < 4000; ++step) {
    if (step == 1500 || step == 3000) {
      ++restores;
      const std::string ckpt = JoinPath(dir_, "ckpt" + std::to_string(restores));
      ASSERT_TRUE(store->CheckpointTo(ckpt).ok());
      store.reset();
      ASSERT_TRUE(AurStore::RestoreFrom(ckpt, JoinPath(dir_, "store" + std::to_string(restores)),
                                        options, std::make_unique<SessionEttPredictor>(100),
                                        &store)
                      .ok());
    }
    const std::string key = "k" + std::to_string(rng.Uniform(25));
    const int64_t start = static_cast<int64_t>(rng.Uniform(10)) * 50;
    const Window w(start, start + 50);
    const std::string ref = refkey(key, start);
    const uint64_t op = rng.Uniform(40);
    if (op == 0) {
      ++compactions;
      ASSERT_TRUE(store->Compact().ok());
      EXPECT_DOUBLE_EQ(store->SpaceAmplification(), 1.0);
    } else if (op <= 3) {
      // Merge up to two other windows of the key into w, oldest source first.
      ++merges;
      std::vector<Window> sources;
      for (int i = 0; i < 2; ++i) {
        const int64_t src = static_cast<int64_t>(rng.Uniform(10)) * 50;
        if (src != start && (sources.empty() || sources[0].start != src)) {
          sources.emplace_back(src, src + 50);
        }
      }
      ASSERT_TRUE(store->MergeWindows(key, sources, w).ok());
      for (const Window& src : sources) {
        auto it = live.find(refkey(key, src.start));
        if (it != live.end()) {
          auto& dst = live[ref];
          dst.insert(dst.end(), it->second.begin(), it->second.end());
          live.erase(refkey(key, src.start));
        }
      }
    } else if (op < 30 || live.find(ref) == live.end()) {
      std::string value = "v" + std::to_string(step);
      ASSERT_TRUE(store->Append(key, value, w, ts++).ok());
      live[ref].push_back(value);
      ++appended;
    } else {
      std::vector<std::string> values;
      ASSERT_TRUE(store->Get(key, w, &values).ok());
      EXPECT_EQ(values, live[ref]) << ref << " step " << step;
      retrieved += static_cast<int64_t>(values.size());
      live.erase(ref);
      // Fetch-and-remove invariant.
      EXPECT_TRUE(store->Get(key, w, &values).IsNotFound());
    }
  }
  EXPECT_GT(compactions, 0);
  EXPECT_GT(merges, 0);
  // Drain the rest; nothing may be lost or duplicated.
  for (auto& [ref, expected] : live) {
    const size_t bar = ref.find('|');
    const std::string key = ref.substr(0, bar);
    const int64_t start = std::stoll(ref.substr(bar + 1));
    std::vector<std::string> values;
    ASSERT_TRUE(store->Get(key, Window(start, start + 50), &values).ok()) << ref;
    EXPECT_EQ(values, expected) << ref;
    retrieved += static_cast<int64_t>(values.size());
  }
  EXPECT_EQ(appended, retrieved);
  // Amplification bounded: compaction must have kept the log near MSA.
  EXPECT_LE(store->SpaceAmplification(), p.msa + 1.0);
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, AurPropertyTest,
    ::testing::Values(AurParams{1, 0.0, 1.2}, AurParams{1, 0.05, 1.5},
                      AurParams{1, 0.5, 3.0}, AurParams{512, 0.02, 1.5},
                      AurParams{4096, 0.1, 1.1}, AurParams{64 * 1024, 1.0, 2.0}),
    [](const ::testing::TestParamInfo<AurParams>& info) {
      return "wb" + std::to_string(info.param.write_buffer_bytes) + "_rb" +
             std::to_string(static_cast<int>(info.param.read_batch_ratio * 100)) + "_msa" +
             std::to_string(static_cast<int>(info.param.msa * 10));
    });

// ---------------------------------------------------------------------------
// Operator-level equivalence: FlowKV vs memory under randomized streams,
// swept across window kinds and parameters.

struct StreamParams {
  WindowKind kind;
  bool incremental;
  int64_t size_or_gap;
  uint64_t seed;
};

std::shared_ptr<WindowAssigner> MakeAssigner(const StreamParams& p);

class OperatorPropertyTest : public ::testing::TestWithParam<StreamParams> {
 protected:
  void SetUp() override { dir_ = MakeTempDir("op_prop"); }
  void TearDown() override { RemoveDirRecursively(dir_).IgnoreError(); }

  std::string dir_;
};

std::shared_ptr<WindowAssigner> MakeAssigner(const StreamParams& p) {
    switch (p.kind) {
      case WindowKind::kTumbling:
        return std::make_shared<TumblingWindowAssigner>(p.size_or_gap);
      case WindowKind::kSliding:
        return std::make_shared<SlidingWindowAssigner>(p.size_or_gap, p.size_or_gap / 2);
      case WindowKind::kSession:
        return std::make_shared<SessionWindowAssigner>(p.size_or_gap);
      case WindowKind::kGlobal:
        return std::make_shared<GlobalWindowAssigner>();
      case WindowKind::kCount:
        return std::make_shared<CountWindowAssigner>(p.size_or_gap);
      default:
        return nullptr;
    }
}

class SortedConcatProcess : public ProcessWindowFunction {
 public:
  Status Process(const Slice& key, const Window& window,
                 const std::vector<std::string>& values, const EmitFn& emit) const override {
    // Order-insensitive digest of the collected values.
    std::vector<std::string> sorted(values);
    std::sort(sorted.begin(), sorted.end());
    std::string joined;
    for (const auto& v : sorted) {
      joined += v;
      joined += "|";
    }
    return emit(std::move(joined));
  }
};

using Results = std::vector<std::tuple<int64_t, std::string, std::string>>;

class ResultCollector : public Collector {
 public:
  Status Emit(const Event& event) override {
    results.emplace_back(event.timestamp, event.key, event.value);
    return Status::Ok();
  }
  Results results;
};

Results RunStream(const StreamParams& p, StateBackendFactory* factory) {
  Pipeline pipeline;
  WindowOperatorConfig config;
  config.name = "op";
  config.assigner = MakeAssigner(p);
  if (p.incremental) {
    config.aggregate = std::make_shared<CountAggregate>();
  } else {
    config.process = std::make_shared<SortedConcatProcess>();
  }
  pipeline.AddOperator(std::make_unique<WindowOperator>(std::move(config)));
  ResultCollector sink;
  Status s = pipeline.Open(factory, 0, &sink);
  EXPECT_TRUE(s.ok()) << s.ToString();

  Random rng(p.seed);
  int64_t ts = 0;
  for (int i = 0; i < 5000; ++i) {
    ts += static_cast<int64_t>(rng.Uniform(40));  // bursts and gaps
    Event event("key" + std::to_string(rng.Uniform(15)), "v" + std::to_string(i), ts);
    s = pipeline.Process(event);
    EXPECT_TRUE(s.ok()) << s.ToString();
    if (i % 97 == 0) {
      s = pipeline.AdvanceWatermark(ts);
      EXPECT_TRUE(s.ok()) << s.ToString();
    }
  }
  EXPECT_TRUE(pipeline.Finish().ok());
  std::sort(sink.results.begin(), sink.results.end());
  return sink.results;
}

TEST_P(OperatorPropertyTest, FlowKvMatchesMemoryReference) {
  const StreamParams& p = GetParam();
  MemoryBackendFactory memory;
  Results expected = RunStream(p, &memory);
  ASSERT_FALSE(expected.empty());

  FlowKvOptions options;
  options.write_buffer_bytes = 8 * 1024;  // heavy flush/prefetch traffic
  FlowKvBackendFactory flowkv(dir_, options);
  Results actual = RunStream(p, &flowkv);
  ASSERT_EQ(actual.size(), expected.size());
  EXPECT_EQ(actual, expected);
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, OperatorPropertyTest,
    ::testing::Values(StreamParams{WindowKind::kTumbling, true, 500, 1},
                      StreamParams{WindowKind::kTumbling, false, 500, 2},
                      StreamParams{WindowKind::kSliding, true, 600, 3},
                      StreamParams{WindowKind::kSliding, false, 600, 4},
                      StreamParams{WindowKind::kSession, true, 120, 5},
                      StreamParams{WindowKind::kSession, false, 120, 6},
                      StreamParams{WindowKind::kSession, false, 15, 7},  // tiny gap
                      StreamParams{WindowKind::kGlobal, true, 0, 8},
                      StreamParams{WindowKind::kCount, false, 16, 9}),
    [](const ::testing::TestParamInfo<StreamParams>& info) {
      const char* kind = "";
      switch (info.param.kind) {
        case WindowKind::kTumbling: kind = "tumbling"; break;
        case WindowKind::kSliding: kind = "sliding"; break;
        case WindowKind::kSession: kind = "session"; break;
        case WindowKind::kGlobal: kind = "global"; break;
        case WindowKind::kCount: kind = "count"; break;
        default: kind = "custom"; break;
      }
      return std::string(kind) + (info.param.incremental ? "_rmw" : "_append") + "_s" +
             std::to_string(info.param.size_or_gap);
    });

// ---------------------------------------------------------------------------
// Baseline-store property sweeps: the LSM and hash-log stores must match a
// std::map reference under randomized Put/Merge/Delete/Get mixes for every
// buffer/compaction configuration.

struct LsmSweepParams {
  uint64_t write_buffer_bytes;
  int compaction_trigger;
  uint64_t block_bytes;
};

class LsmPropertyTest : public ::testing::TestWithParam<LsmSweepParams> {
 protected:
  void SetUp() override { dir_ = MakeTempDir("lsm_prop"); }
  void TearDown() override { RemoveDirRecursively(dir_).IgnoreError(); }
  std::string dir_;
};

TEST_P(LsmPropertyTest, MatchesReferenceUnderRandomOps) {
  const LsmSweepParams& p = GetParam();
  LsmOptions options;
  options.write_buffer_bytes = p.write_buffer_bytes;
  options.compaction_trigger = p.compaction_trigger;
  options.block_bytes = p.block_bytes;
  std::unique_ptr<LsmStore> store;
  ASSERT_TRUE(
      LsmStore::Open(dir_, options, std::make_unique<ListAppendMergeOperator>(), &store).ok());

  std::map<std::string, std::string> reference;  // key -> resolved value
  Random rng(p.write_buffer_bytes + p.compaction_trigger);
  for (int step = 0; step < 4000; ++step) {
    const std::string key = "key" + std::to_string(rng.Uniform(60));
    const uint64_t op = rng.Uniform(10);
    if (op < 4) {  // Put
      std::string value;
      EncodeListElement(&value, "p" + std::to_string(step));
      ASSERT_TRUE(store->Put(key, value).ok());
      reference[key] = value;
    } else if (op < 7) {  // Merge (append)
      std::string element;
      EncodeListElement(&element, "m" + std::to_string(step));
      ASSERT_TRUE(store->Merge(key, element).ok());
      reference[key] += element;
    } else if (op < 8) {  // Delete
      ASSERT_TRUE(store->Delete(key).ok());
      reference.erase(key);
    } else {  // Get
      std::string value;
      Status s = store->Get(key, &value);
      auto it = reference.find(key);
      if (it == reference.end()) {
        EXPECT_TRUE(s.IsNotFound()) << key << " step " << step;
      } else {
        ASSERT_TRUE(s.ok()) << s.ToString();
        EXPECT_EQ(value, it->second) << key << " step " << step;
      }
    }
  }
  // Full-scan equivalence (ordering + merged contents).
  std::map<std::string, std::string> scanned;
  ASSERT_TRUE(store->Scan("", "", [&](const Slice& k, const Slice& v) {
    scanned[k.ToString()] = v.ToString();
  }).ok());
  EXPECT_EQ(scanned, reference);
}

INSTANTIATE_TEST_SUITE_P(Sweep, LsmPropertyTest,
                         ::testing::Values(LsmSweepParams{512, 2, 256},
                                           LsmSweepParams{1024, 4, 1024},
                                           LsmSweepParams{4096, 3, 4096},
                                           LsmSweepParams{64 * 1024, 8, 16384},
                                           LsmSweepParams{1 << 20, 2, 512}),
                         [](const ::testing::TestParamInfo<LsmSweepParams>& info) {
                           return "wb" + std::to_string(info.param.write_buffer_bytes) +
                                  "_ct" + std::to_string(info.param.compaction_trigger) +
                                  "_bb" + std::to_string(info.param.block_bytes);
                         });

struct HashKvSweepParams {
  uint64_t memory_bytes;
  uint64_t page_bytes;
  double msa;
};

class HashKvPropertyTest : public ::testing::TestWithParam<HashKvSweepParams> {
 protected:
  void SetUp() override { dir_ = MakeTempDir("hkv_prop"); }
  void TearDown() override { RemoveDirRecursively(dir_).IgnoreError(); }
  std::string dir_;
};

TEST_P(HashKvPropertyTest, MatchesReferenceUnderRandomOps) {
  const HashKvSweepParams& p = GetParam();
  HashKvOptions options;
  options.memory_bytes = p.memory_bytes;
  options.page_bytes = p.page_bytes;
  options.max_space_amplification = p.msa;
  options.compaction_min_bytes = 16 * 1024;
  options.index_buckets = 64;  // force chains
  std::unique_ptr<HashKvStore> store;
  ASSERT_TRUE(HashKvStore::Open(dir_, options, &store).ok());

  std::map<std::string, std::string> reference;
  Random rng(p.memory_bytes + p.page_bytes);
  for (int step = 0; step < 4000; ++step) {
    const std::string key = "key" + std::to_string(rng.Uniform(60));
    const uint64_t op = rng.Uniform(10);
    if (op < 5) {  // Upsert (varying sizes defeat in-place updates sometimes)
      std::string value(1 + rng.Uniform(200), static_cast<char>('a' + step % 26));
      ASSERT_TRUE(store->Upsert(key, value).ok());
      reference[key] = value;
    } else if (op < 7) {  // Rmw append
      Status s = store->Rmw(key, [&](const std::string* existing) {
        std::string updated = existing ? *existing : std::string();
        updated += "+" + std::to_string(step);
        return updated;
      });
      ASSERT_TRUE(s.ok());
      reference[key] += "+" + std::to_string(step);
    } else if (op < 8) {  // Delete
      ASSERT_TRUE(store->Delete(key).ok());
      reference.erase(key);
    } else {  // Read
      std::string value;
      Status s = store->Read(key, &value);
      auto it = reference.find(key);
      if (it == reference.end()) {
        EXPECT_TRUE(s.IsNotFound()) << key << " step " << step;
      } else {
        ASSERT_TRUE(s.ok()) << s.ToString();
        EXPECT_EQ(value, it->second) << key << " step " << step;
      }
    }
  }
  for (const auto& [key, expected] : reference) {
    std::string value;
    ASSERT_TRUE(store->Read(key, &value).ok()) << key;
    EXPECT_EQ(value, expected) << key;
  }
}

INSTANTIATE_TEST_SUITE_P(Sweep, HashKvPropertyTest,
                         ::testing::Values(HashKvSweepParams{8 * 1024, 2048, 2.0},
                                           HashKvSweepParams{64 * 1024, 8192, 4.0},
                                           HashKvSweepParams{1 << 20, 65536, 1.5},
                                           HashKvSweepParams{16 * 1024, 4096, 10.0}),
                         [](const ::testing::TestParamInfo<HashKvSweepParams>& info) {
                           return "mem" + std::to_string(info.param.memory_bytes) + "_pg" +
                                  std::to_string(info.param.page_bytes) + "_msa" +
                                  std::to_string(static_cast<int>(info.param.msa * 10));
                         });

}  // namespace
}  // namespace flowkv
