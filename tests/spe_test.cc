// Tests for the mini stream engine: window assigners, the merging window
// set, timers, the window operator over every pattern, pipelines, and the
// job runner.
#include <gtest/gtest.h>

#include <map>
#include <set>
#include <memory>
#include <string>
#include <vector>

#include "src/backends/memory_backend.h"
#include "src/common/coding.h"
#include "src/nexmark/aggregates.h"
#include "src/spe/job_runner.h"
#include "src/spe/merging_window_set.h"
#include "src/spe/pipeline.h"
#include "src/spe/timer_service.h"
#include "src/spe/window.h"
#include "src/spe/window_operator.h"

namespace flowkv {
namespace {

TEST(WindowAssignerTest, TumblingBoundaries) {
  TumblingWindowAssigner assigner(100);
  std::vector<Window> windows;
  assigner.AssignWindows(250, &windows);
  ASSERT_EQ(windows.size(), 1u);
  EXPECT_EQ(windows[0], Window(200, 300));
  windows.clear();
  assigner.AssignWindows(0, &windows);
  EXPECT_EQ(windows[0], Window(0, 100));
  windows.clear();
  assigner.AssignWindows(99, &windows);
  EXPECT_EQ(windows[0], Window(0, 100));
  windows.clear();
  assigner.AssignWindows(100, &windows);
  EXPECT_EQ(windows[0], Window(100, 200));
  windows.clear();
  assigner.AssignWindows(-1, &windows);  // negative timestamps
  EXPECT_EQ(windows[0], Window(-100, 0));
}

TEST(WindowAssignerTest, SlidingAssignsAllCoveringWindows) {
  SlidingWindowAssigner assigner(100, 50);
  std::vector<Window> windows;
  assigner.AssignWindows(125, &windows);
  ASSERT_EQ(windows.size(), 2u);
  EXPECT_EQ(windows[0], Window(100, 200));
  EXPECT_EQ(windows[1], Window(50, 150));
  // Element at an exact slide boundary.
  windows.clear();
  assigner.AssignWindows(100, &windows);
  ASSERT_EQ(windows.size(), 2u);
  EXPECT_EQ(windows[0], Window(100, 200));
  EXPECT_EQ(windows[1], Window(50, 150));
}

TEST(WindowAssignerTest, SessionProtoWindow) {
  SessionWindowAssigner assigner(30);
  std::vector<Window> windows;
  assigner.AssignWindows(70, &windows);
  ASSERT_EQ(windows.size(), 1u);
  EXPECT_EQ(windows[0], Window(70, 100));
  EXPECT_TRUE(assigner.RequiresMerging());
  EXPECT_EQ(assigner.session_gap(), 30);
}

TEST(WindowAssignerTest, AlignmentClassification) {
  EXPECT_TRUE(IsAlignedRead(WindowKind::kTumbling));
  EXPECT_TRUE(IsAlignedRead(WindowKind::kSliding));
  EXPECT_TRUE(IsAlignedRead(WindowKind::kGlobal));
  EXPECT_FALSE(IsAlignedRead(WindowKind::kSession));
  EXPECT_FALSE(IsAlignedRead(WindowKind::kCount));
  EXPECT_FALSE(IsAlignedRead(WindowKind::kCustom));
}

TEST(WindowTest, OrderPreservingEncoding) {
  std::vector<int64_t> values = {INT64_MIN, -1000, -1, 0, 1, 1000, INT64_MAX};
  std::vector<std::string> encoded;
  for (int64_t v : values) {
    std::string buf;
    OrderPreservingEncode64(&buf, v);
    EXPECT_EQ(OrderPreservingDecode64(buf.data()), v);
    encoded.push_back(buf);
  }
  for (size_t i = 1; i < encoded.size(); ++i) {
    EXPECT_LT(encoded[i - 1], encoded[i]);
  }
}

TEST(StorePatternTest, ClassificationMatchesPaper) {
  EXPECT_EQ(ClassifyPattern(true, WindowKind::kTumbling), StorePattern::kReadModifyWrite);
  EXPECT_EQ(ClassifyPattern(true, WindowKind::kSession), StorePattern::kReadModifyWrite);
  EXPECT_EQ(ClassifyPattern(false, WindowKind::kTumbling), StorePattern::kAppendAligned);
  EXPECT_EQ(ClassifyPattern(false, WindowKind::kSliding), StorePattern::kAppendAligned);
  EXPECT_EQ(ClassifyPattern(false, WindowKind::kSession), StorePattern::kAppendUnaligned);
  // Custom window functions conservatively map to Unaligned (§3.1).
  EXPECT_EQ(ClassifyPattern(false, WindowKind::kCustom), StorePattern::kAppendUnaligned);
}

TEST(CustomWindowTest, UserAssignerDefaultsToUnaligned) {
  CustomWindowAssigner assigner([](int64_t ts, std::vector<Window>* out) {
    // Irregular, data-dependent windows FlowKV cannot introspect.
    out->emplace_back(ts - ts % 7, ts - ts % 7 + 7);
  });
  EXPECT_EQ(assigner.kind(), WindowKind::kCustom);
  EXPECT_EQ(assigner.alignment_hint(), ReadAlignmentHint::kDefault);
  EXPECT_EQ(ClassifyPattern(false, assigner.kind(), assigner.alignment_hint()),
            StorePattern::kAppendUnaligned);
  std::vector<Window> windows;
  assigner.AssignWindows(15, &windows);
  ASSERT_EQ(windows.size(), 1u);
  EXPECT_EQ(windows[0], Window(14, 21));
}

TEST(CustomWindowTest, AlignedHintUpgradesToAar) {
  // Paper §8: an @AlignedRead-style annotation lets FlowKV deploy the
  // specialized aligned store for a custom window function.
  CustomWindowAssigner assigner(
      [](int64_t ts, std::vector<Window>* out) {
        out->emplace_back(ts - ts % 100, ts - ts % 100 + 100);
      },
      ReadAlignmentHint::kAligned);
  EXPECT_EQ(ClassifyPattern(false, assigner.kind(), assigner.alignment_hint()),
            StorePattern::kAppendAligned);
  // Hints never override the incremental => RMW rule.
  EXPECT_EQ(ClassifyPattern(true, assigner.kind(), assigner.alignment_hint()),
            StorePattern::kReadModifyWrite);
}

TEST(MergingWindowSetTest, DisjointWindowsStaySeparate) {
  MergingWindowSet set;
  auto r1 = set.AddWindow("k", Window(0, 30));
  auto r2 = set.AddWindow("k", Window(100, 130));
  EXPECT_EQ(r1.merged, Window(0, 30));
  EXPECT_EQ(r2.merged, Window(100, 130));
  EXPECT_EQ(set.ActiveCount("k"), 2u);
}

TEST(MergingWindowSetTest, ExtensionKeepsInitialStateWindow) {
  MergingWindowSet set;
  auto r1 = set.AddWindow("k", Window(0, 30));
  auto r2 = set.AddWindow("k", Window(20, 50));  // overlaps -> extend
  EXPECT_EQ(r2.merged, Window(0, 50));
  EXPECT_EQ(r2.state_window, r1.state_window);
  EXPECT_TRUE(r2.absorbed_state_windows.empty());
  ASSERT_EQ(r2.replaced_windows.size(), 1u);
  EXPECT_EQ(r2.replaced_windows[0], Window(0, 30));
  EXPECT_EQ(set.ActiveCount("k"), 1u);
}

TEST(MergingWindowSetTest, BridgeMergesTwoStatefulWindows) {
  MergingWindowSet set;
  set.AddWindow("k", Window(0, 30));
  set.AddWindow("k", Window(60, 90));
  // A late tuple bridges the two sessions.
  auto r = set.AddWindow("k", Window(25, 65));
  EXPECT_EQ(r.merged, Window(0, 90));
  EXPECT_EQ(r.state_window, Window(0, 30));
  ASSERT_EQ(r.absorbed_state_windows.size(), 1u);
  EXPECT_EQ(r.absorbed_state_windows[0], Window(60, 90));
  EXPECT_EQ(r.replaced_windows.size(), 2u);
  EXPECT_EQ(set.ActiveCount("k"), 1u);
}

TEST(MergingWindowSetTest, KeysAreIndependent) {
  MergingWindowSet set;
  set.AddWindow("a", Window(0, 30));
  auto r = set.AddWindow("b", Window(10, 40));
  EXPECT_EQ(r.merged, Window(10, 40));  // no cross-key merge
  EXPECT_EQ(set.TotalActive(), 2u);
}

TEST(MergingWindowSetTest, RetireRemoves) {
  MergingWindowSet set;
  auto r = set.AddWindow("k", Window(0, 30));
  set.Retire("k", r.merged);
  EXPECT_EQ(set.ActiveCount("k"), 0u);
}

TEST(TimerServiceTest, PopDueInOrderAndCoalesce) {
  TimerService timers;
  timers.Register(Timer{30, "b", Window(0, 30), Window(0, 30)});
  timers.Register(Timer{10, "a", Window(0, 10), Window(0, 10)});
  timers.Register(Timer{10, "a", Window(0, 10), Window(0, 10)});  // duplicate
  timers.Register(Timer{50, "c", Window(0, 50), Window(0, 50)});
  EXPECT_EQ(timers.size(), 3u);
  auto due = timers.PopDue(30);
  ASSERT_EQ(due.size(), 2u);
  EXPECT_EQ(due[0].time, 10);
  EXPECT_EQ(due[1].time, 30);
  EXPECT_EQ(timers.size(), 1u);
}

TEST(TimerServiceTest, DeleteRemovesExactTimer) {
  TimerService timers;
  timers.Register(Timer{10, "a", Window(0, 10), Window(0, 10)});
  timers.Register(Timer{10, "b", Window(0, 10), Window(0, 10)});
  timers.Delete(10, "a", Window(0, 10));
  auto due = timers.PopDue(100);
  ASSERT_EQ(due.size(), 1u);
  EXPECT_EQ(due[0].key, "b");
}

// ---------------------------------------------------------------------------
// WindowOperator end-to-end over the memory backend.

class CaptureCollector : public Collector {
 public:
  Status Emit(const Event& event) override {
    events.push_back(event);
    return Status::Ok();
  }
  std::vector<Event> events;
};

// Emits the comma-joined values for easy assertions.
class ConcatProcess : public ProcessWindowFunction {
 public:
  Status Process(const Slice& key, const Window& window,
                 const std::vector<std::string>& values, const EmitFn& emit) const override {
    std::string joined;
    for (const auto& v : values) {
      joined += v;
      joined += ",";
    }
    return emit(std::move(joined));
  }
};

class WindowOperatorTest : public ::testing::Test {
 protected:
  void SetUp() override {
    factory_ = std::make_unique<MemoryBackendFactory>();
    ASSERT_TRUE(factory_->CreateBackend(0, "op", &backend_).ok());
  }

  std::unique_ptr<WindowOperator> MakeRmwCount(std::shared_ptr<WindowAssigner> assigner) {
    WindowOperatorConfig config;
    config.name = "op";
    config.assigner = std::move(assigner);
    config.aggregate = std::make_shared<CountAggregate>();
    auto op = std::make_unique<WindowOperator>(std::move(config));
    EXPECT_TRUE(op->Open(backend_.get()).ok());
    return op;
  }

  std::unique_ptr<WindowOperator> MakeProcess(std::shared_ptr<WindowAssigner> assigner,
                                              std::shared_ptr<ProcessWindowFunction> fn) {
    WindowOperatorConfig config;
    config.name = "op";
    config.assigner = std::move(assigner);
    config.process = std::move(fn);
    auto op = std::make_unique<WindowOperator>(std::move(config));
    EXPECT_TRUE(op->Open(backend_.get()).ok());
    return op;
  }

  std::unique_ptr<MemoryBackendFactory> factory_;
  std::unique_ptr<StateBackend> backend_;
};

TEST_F(WindowOperatorTest, TumblingRmwCountsPerKeyPerWindow) {
  auto op = MakeRmwCount(std::make_shared<TumblingWindowAssigner>(100));
  EXPECT_EQ(op->pattern(), StorePattern::kReadModifyWrite);
  CaptureCollector out;
  ASSERT_TRUE(op->ProcessEvent(Event("a", "x", 10), &out).ok());
  ASSERT_TRUE(op->ProcessEvent(Event("a", "x", 20), &out).ok());
  ASSERT_TRUE(op->ProcessEvent(Event("b", "x", 30), &out).ok());
  ASSERT_TRUE(op->ProcessEvent(Event("a", "x", 150), &out).ok());
  EXPECT_TRUE(out.events.empty());
  ASSERT_TRUE(op->OnWatermark(99, &out).ok());
  ASSERT_EQ(out.events.size(), 2u);  // window [0,100): keys a and b
  std::map<std::string, uint64_t> counts;
  for (const auto& e : out.events) {
    counts[e.key] = DecodeFixed64(e.value.data());
    EXPECT_EQ(e.timestamp, 99);
  }
  EXPECT_EQ(counts["a"], 2u);
  EXPECT_EQ(counts["b"], 1u);
  out.events.clear();
  ASSERT_TRUE(op->Finish(&out).ok());
  ASSERT_EQ(out.events.size(), 1u);  // window [100,200): key a
  EXPECT_EQ(DecodeFixed64(out.events[0].value.data()), 1u);
}

TEST_F(WindowOperatorTest, SlidingReplicatesAcrossWindows) {
  auto op = MakeRmwCount(std::make_shared<SlidingWindowAssigner>(100, 50));
  CaptureCollector out;
  // ts=75 belongs to [50,150) and [0,100).
  ASSERT_TRUE(op->ProcessEvent(Event("k", "x", 75), &out).ok());
  ASSERT_TRUE(op->Finish(&out).ok());
  ASSERT_EQ(out.events.size(), 2u);
  for (const auto& e : out.events) {
    EXPECT_EQ(DecodeFixed64(e.value.data()), 1u);
  }
}

TEST_F(WindowOperatorTest, SessionRmwMergesAcrossGaps) {
  auto op = MakeRmwCount(std::make_shared<SessionWindowAssigner>(30));
  CaptureCollector out;
  ASSERT_TRUE(op->ProcessEvent(Event("k", "x", 0), &out).ok());
  ASSERT_TRUE(op->ProcessEvent(Event("k", "x", 20), &out).ok());   // extends
  ASSERT_TRUE(op->ProcessEvent(Event("k", "x", 100), &out).ok());  // new session
  ASSERT_TRUE(op->OnWatermark(60, &out).ok());
  ASSERT_EQ(out.events.size(), 1u);  // first session [0,50) fired
  EXPECT_EQ(DecodeFixed64(out.events[0].value.data()), 2u);
  EXPECT_EQ(out.events[0].timestamp, 49);
  out.events.clear();
  ASSERT_TRUE(op->Finish(&out).ok());
  ASSERT_EQ(out.events.size(), 1u);
  EXPECT_EQ(DecodeFixed64(out.events[0].value.data()), 1u);
}

TEST_F(WindowOperatorTest, SessionRmwBridgeMergeFoldsAccumulators) {
  auto op = MakeRmwCount(std::make_shared<SessionWindowAssigner>(30));
  CaptureCollector out;
  ASSERT_TRUE(op->ProcessEvent(Event("k", "x", 0), &out).ok());    // session A: [0,30)
  ASSERT_TRUE(op->ProcessEvent(Event("k", "x", 100), &out).ok());  // session B: [100,130)
  ASSERT_TRUE(op->ProcessEvent(Event("k", "x", 50), &out).ok());   // session C: [50,80)
  // This tuple's proto-window [70,100) bridges sessions B and C, forcing a
  // merge of two windows that both already hold state.
  ASSERT_TRUE(op->ProcessEvent(Event("k", "x", 70), &out).ok());
  ASSERT_TRUE(op->Finish(&out).ok());
  // Session A stays separate (count 1); B+C+bridge merge (count 3).
  ASSERT_EQ(out.events.size(), 2u);
  std::multiset<uint64_t> counts;
  for (const auto& e : out.events) {
    counts.insert(DecodeFixed64(e.value.data()));
  }
  EXPECT_EQ(counts, (std::multiset<uint64_t>{1, 3}));
}

TEST_F(WindowOperatorTest, AlignedAppendProcessesWholeWindow) {
  auto op = MakeProcess(std::make_shared<TumblingWindowAssigner>(100),
                        std::make_shared<ConcatProcess>());
  EXPECT_EQ(op->pattern(), StorePattern::kAppendAligned);
  CaptureCollector out;
  ASSERT_TRUE(op->ProcessEvent(Event("a", "1", 10), &out).ok());
  ASSERT_TRUE(op->ProcessEvent(Event("a", "2", 20), &out).ok());
  ASSERT_TRUE(op->ProcessEvent(Event("b", "9", 30), &out).ok());
  ASSERT_TRUE(op->OnWatermark(100, &out).ok());
  ASSERT_EQ(out.events.size(), 2u);
  std::map<std::string, std::string> results;
  for (const auto& e : out.events) {
    results[e.key] = e.value;
  }
  EXPECT_EQ(results["a"], "1,2,");
  EXPECT_EQ(results["b"], "9,");
}

TEST_F(WindowOperatorTest, UnalignedSessionAppendFiresPerKey) {
  auto op = MakeProcess(std::make_shared<SessionWindowAssigner>(30),
                        std::make_shared<ConcatProcess>());
  EXPECT_EQ(op->pattern(), StorePattern::kAppendUnaligned);
  CaptureCollector out;
  ASSERT_TRUE(op->ProcessEvent(Event("a", "1", 0), &out).ok());
  ASSERT_TRUE(op->ProcessEvent(Event("b", "2", 10), &out).ok());
  ASSERT_TRUE(op->ProcessEvent(Event("a", "3", 20), &out).ok());
  // a's session spans [0,50) after extension; b's ends at 40.
  ASSERT_TRUE(op->OnWatermark(35, &out).ok());
  EXPECT_TRUE(out.events.empty());
  ASSERT_TRUE(op->OnWatermark(48, &out).ok());
  ASSERT_EQ(out.events.size(), 1u);  // b fired at 39; a's timer is at 49
  EXPECT_EQ(out.events[0].key, "b");
  out.events.clear();
  ASSERT_TRUE(op->Finish(&out).ok());
  ASSERT_EQ(out.events.size(), 1u);
  EXPECT_EQ(out.events[0].key, "a");
  EXPECT_EQ(out.events[0].value, "1,3,");
}

TEST_F(WindowOperatorTest, CountWindowsFireOnCount) {
  auto op = MakeProcess(std::make_shared<CountWindowAssigner>(3),
                        std::make_shared<ConcatProcess>());
  EXPECT_EQ(op->pattern(), StorePattern::kAppendUnaligned);
  CaptureCollector out;
  ASSERT_TRUE(op->ProcessEvent(Event("k", "1", 0), &out).ok());
  ASSERT_TRUE(op->ProcessEvent(Event("k", "2", 10), &out).ok());
  EXPECT_TRUE(out.events.empty());
  ASSERT_TRUE(op->OnWatermark(1000000, &out).ok());
  EXPECT_TRUE(out.events.empty());  // count windows don't fire on watermarks
  ASSERT_TRUE(op->ProcessEvent(Event("k", "3", 20), &out).ok());
  ASSERT_EQ(out.events.size(), 1u);  // fired on the 3rd element
  EXPECT_EQ(out.events[0].value, "1,2,3,");
  out.events.clear();
  ASSERT_TRUE(op->ProcessEvent(Event("k", "4", 30), &out).ok());
  ASSERT_TRUE(op->Finish(&out).ok());  // partial window flushed at EOS
  ASSERT_EQ(out.events.size(), 1u);
  EXPECT_EQ(out.events[0].value, "4,");
}

TEST_F(WindowOperatorTest, CustomAssignerWithAlignedHintUsesAarPath) {
  // A custom assigner equivalent to 100 ms tumbling windows, annotated
  // @AlignedRead: the operator must run it through the AAR machinery and
  // produce the same results the built-in tumbling assigner would.
  auto op = MakeProcess(
      std::make_shared<CustomWindowAssigner>(
          [](int64_t ts, std::vector<Window>* out) {
            int64_t start = ts - (ts % 100 + 100) % 100;
            out->emplace_back(start, start + 100);
          },
          ReadAlignmentHint::kAligned),
      std::make_shared<ConcatProcess>());
  EXPECT_EQ(op->pattern(), StorePattern::kAppendAligned);
  CaptureCollector out;
  ASSERT_TRUE(op->ProcessEvent(Event("a", "1", 10), &out).ok());
  ASSERT_TRUE(op->ProcessEvent(Event("a", "2", 20), &out).ok());
  ASSERT_TRUE(op->OnWatermark(99, &out).ok());
  ASSERT_EQ(out.events.size(), 1u);
  EXPECT_EQ(out.events[0].value, "1,2,");
}

TEST_F(WindowOperatorTest, LateEventsAreDroppedAfterWindowFires) {
  WindowOperatorConfig config;
  config.name = "op";
  config.assigner = std::make_shared<TumblingWindowAssigner>(100);
  config.aggregate = std::make_shared<CountAggregate>();
  auto op = std::make_unique<WindowOperator>(std::move(config));
  ASSERT_TRUE(op->Open(backend_.get()).ok());
  CaptureCollector out;
  ASSERT_TRUE(op->ProcessEvent(Event("k", "x", 10), &out).ok());
  ASSERT_TRUE(op->OnWatermark(150, &out).ok());  // [0,100) fired
  ASSERT_EQ(out.events.size(), 1u);
  // Event for the already-fired window: dropped, no duplicate firing.
  ASSERT_TRUE(op->ProcessEvent(Event("k", "x", 50), &out).ok());
  EXPECT_EQ(op->late_events_dropped(), 1);
  // Event for the current window [100,200) is NOT late.
  ASSERT_TRUE(op->ProcessEvent(Event("k", "x", 160), &out).ok());
  EXPECT_EQ(op->late_events_dropped(), 1);
  out.events.clear();
  ASSERT_TRUE(op->Finish(&out).ok());
  ASSERT_EQ(out.events.size(), 1u);
  EXPECT_EQ(DecodeFixed64(out.events[0].value.data()), 1u);
}

TEST_F(WindowOperatorTest, AllowedLatenessAdmitsSlightlyLateEvents) {
  WindowOperatorConfig config;
  config.name = "op";
  config.assigner = std::make_shared<TumblingWindowAssigner>(100);
  config.aggregate = std::make_shared<CountAggregate>();
  config.allowed_lateness_ms = 1000;
  auto op = std::make_unique<WindowOperator>(std::move(config));
  ASSERT_TRUE(op->Open(backend_.get()).ok());
  CaptureCollector out;
  ASSERT_TRUE(op->OnWatermark(150, &out).ok());
  // Within the lateness slack: admitted (fires again at Finish).
  ASSERT_TRUE(op->ProcessEvent(Event("k", "x", 50), &out).ok());
  EXPECT_EQ(op->late_events_dropped(), 0);
  ASSERT_TRUE(op->Finish(&out).ok());
  ASSERT_EQ(out.events.size(), 1u);
}

TEST_F(WindowOperatorTest, GlobalWindowFiresOnlyAtFinish) {
  auto op = MakeRmwCount(std::make_shared<GlobalWindowAssigner>());
  CaptureCollector out;
  for (int i = 0; i < 10; ++i) {
    ASSERT_TRUE(op->ProcessEvent(Event("k", "x", i * 1000), &out).ok());
  }
  ASSERT_TRUE(op->OnWatermark(1'000'000'000, &out).ok());
  EXPECT_TRUE(out.events.empty());
  ASSERT_TRUE(op->Finish(&out).ok());
  ASSERT_EQ(out.events.size(), 1u);
  EXPECT_EQ(DecodeFixed64(out.events[0].value.data()), 10u);
}

// ---------------------------------------------------------------------------
// Pipeline and JobRunner.

TEST(PipelineTest, ChainsOperatorsAndWatermarksInOrder) {
  MemoryBackendFactory factory;
  Pipeline pipeline;
  WindowOperatorConfig config;
  config.name = "count";
  config.assigner = std::make_shared<TumblingWindowAssigner>(100);
  config.aggregate = std::make_shared<CountAggregate>();
  pipeline.AddOperator(std::make_unique<WindowOperator>(std::move(config)));
  pipeline.AddOperator(std::make_unique<MapOperator>("tag", [](const Event& e) {
    return Event(e.key, "tagged", e.timestamp);
  }));
  CaptureCollector sink;
  ASSERT_TRUE(pipeline.Open(&factory, 0, &sink).ok());
  ASSERT_TRUE(pipeline.Process(Event("k", "x", 10)).ok());
  ASSERT_TRUE(pipeline.AdvanceWatermark(100).ok());
  ASSERT_EQ(sink.events.size(), 1u);
  EXPECT_EQ(sink.events[0].value, "tagged");
}

TEST(PipelineTest, ConsecutiveWindowOperatorsCascade) {
  // Outputs of the first window feed the second (Q5 shape): stage-1 fires
  // during the same watermark advance feed stage-2 before its own timers run.
  MemoryBackendFactory factory;
  Pipeline pipeline;
  WindowOperatorConfig c1;
  c1.name = "w1";
  c1.assigner = std::make_shared<TumblingWindowAssigner>(100);
  c1.aggregate = std::make_shared<CountAggregate>();
  pipeline.AddOperator(std::make_unique<WindowOperator>(std::move(c1)));
  WindowOperatorConfig c2;
  c2.name = "w2";
  c2.assigner = std::make_shared<TumblingWindowAssigner>(100);
  c2.aggregate = std::make_shared<CountAggregate>();
  pipeline.AddOperator(std::make_unique<WindowOperator>(std::move(c2)));
  CaptureCollector sink;
  ASSERT_TRUE(pipeline.Open(&factory, 0, &sink).ok());
  for (int i = 0; i < 5; ++i) {
    ASSERT_TRUE(pipeline.Process(Event("k", "x", 10 + i)).ok());
  }
  ASSERT_TRUE(pipeline.AdvanceWatermark(99).ok());
  ASSERT_EQ(sink.events.size(), 1u);
  EXPECT_EQ(DecodeFixed64(sink.events[0].value.data()), 1u);  // one w1 output
}

class VectorSource : public SourceIterator {
 public:
  explicit VectorSource(std::vector<Event> events) : events_(std::move(events)) {}
  bool Next(Event* event) override {
    if (index_ >= events_.size()) {
      return false;
    }
    *event = events_[index_++];
    return true;
  }

 private:
  std::vector<Event> events_;
  size_t index_ = 0;
};

// 100 events of one key per worker, 10 ms apart.
std::unique_ptr<SourceIterator> HundredEventsPerWorker(int worker) {
  std::vector<Event> events;
  for (int i = 0; i < 100; ++i) {
    events.emplace_back("k" + std::to_string(worker), "x", i * 10);
  }
  return std::make_unique<VectorSource>(std::move(events));
}

// One stateful operator: a count per 100 ms tumbling window.
Status CountPerTumblingWindow(int /*worker*/, Pipeline* pipeline) {
  WindowOperatorConfig config;
  config.name = "count";
  config.assigner = std::make_shared<TumblingWindowAssigner>(100);
  config.aggregate = std::make_shared<CountAggregate>();
  pipeline->AddOperator(std::make_unique<WindowOperator>(std::move(config)));
  return Status::Ok();
}

TEST(JobRunnerTest, MultiWorkerThroughputRun) {
  MemoryBackendFactory factory;
  JobConfig config;
  config.workers = 4;
  config.watermark_interval_events = 10;
  JobReport report = RunJob(config, HundredEventsPerWorker, CountPerTumblingWindow, &factory);
  ASSERT_TRUE(report.status.ok()) << report.status.ToString();
  EXPECT_EQ(report.TotalEventsIn(), 400u);
  EXPECT_EQ(report.TotalResults(), 4u * 10u);  // 10 windows per worker
  EXPECT_GT(report.Throughput(), 0.0);
  // The job clock spans every worker's run.
  for (const WorkerReport& w : report.workers) {
    EXPECT_GE(report.wall_seconds, w.wall_seconds);
  }
}

// Fails CreateBackend for one worker, so that worker's pipeline Open fails.
class FailOneWorkerFactory : public StateBackendFactory {
 public:
  explicit FailOneWorkerFactory(int failing_worker) : failing_worker_(failing_worker) {}
  Status CreateBackend(int worker, const std::string& operator_name,
                       std::unique_ptr<StateBackend>* out) override {
    if (worker == failing_worker_) {
      return Status::IOError("cannot open state for worker " + std::to_string(worker));
    }
    return inner_.CreateBackend(worker, operator_name, out);
  }
  std::string name() const override { return "fail-one"; }

 private:
  int failing_worker_;
  MemoryBackendFactory inner_;
};

TEST(JobRunnerTest, FailedOpenReturnsItsStatusWithoutHanging) {
  // Every worker meets at the job-clock barrier after Open; a worker whose
  // Open fails must still arrive there.
  FailOneWorkerFactory factory(/*failing_worker=*/1);
  JobConfig config;
  config.workers = 2;
  JobReport report = RunJob(config, HundredEventsPerWorker, CountPerTumblingWindow, &factory);
  EXPECT_TRUE(report.status.IsIOError()) << report.status.ToString();
  EXPECT_NE(report.status.message().find("worker 1"), std::string::npos);
  EXPECT_TRUE(report.workers[0].status.ok()) << report.workers[0].status.ToString();
  EXPECT_EQ(report.workers[0].events_in, 100u);
  EXPECT_EQ(report.workers[1].events_in, 0u);
  EXPECT_GT(report.wall_seconds, 0.0);
}

TEST(JobRunnerTest, MemoryBackendOomFailsTheJob) {
  MemoryBackendFactory factory(/*capacity_bytes=*/1024);
  JobConfig config;
  JobReport report = RunJob(
      config,
      [](int worker) -> std::unique_ptr<SourceIterator> {
        std::vector<Event> events;
        for (int i = 0; i < 10000; ++i) {
          events.emplace_back("k", std::string(100, 'x'), i);
        }
        return std::make_unique<VectorSource>(std::move(events));
      },
      [](int worker, Pipeline* pipeline) {
        WindowOperatorConfig config;
        config.name = "collect";
        config.assigner = std::make_shared<TumblingWindowAssigner>(1'000'000);
        config.process = std::make_shared<ConcatProcess>();
        pipeline->AddOperator(std::make_unique<WindowOperator>(std::move(config)));
        return Status::Ok();
      },
      &factory);
  EXPECT_TRUE(report.status.IsResourceExhausted()) << report.status.ToString();
}

}  // namespace
}  // namespace flowkv
