// Unit tests for the foundation library: coding, hashing, slices, status,
// filesystem env, file wrappers, histogram, LRU cache, arena, RNG.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <set>
#include <sstream>
#include <string>
#include <vector>

#include "src/common/arena.h"
#include "src/common/coding.h"
#include "src/common/env.h"
#include "src/common/file.h"
#include "src/common/fs_hooks.h"
#include "src/common/hash.h"
#include "src/common/histogram.h"
#include "src/common/logging.h"
#include "src/common/lru_cache.h"
#include "src/common/random.h"
#include "src/common/slice.h"
#include "src/common/stats.h"
#include "src/common/status.h"

namespace flowkv {
namespace {

TEST(StatusTest, OkByDefault) {
  Status s;
  EXPECT_TRUE(s.ok());
  EXPECT_EQ(s.ToString(), "OK");
}

TEST(StatusTest, CodesAndMessages) {
  Status s = Status::NotFound("missing key");
  EXPECT_FALSE(s.ok());
  EXPECT_TRUE(s.IsNotFound());
  EXPECT_EQ(s.ToString(), "NotFound: missing key");
  EXPECT_TRUE(Status::IOError("x").IsIOError());
  EXPECT_TRUE(Status::Corruption("x").IsCorruption());
  EXPECT_TRUE(Status::ResourceExhausted("x").IsResourceExhausted());
}

TEST(StatusTest, NetworkCodes) {
  Status timeout = Status::TimedOut("deadline exceeded");
  EXPECT_FALSE(timeout.ok());
  EXPECT_TRUE(timeout.IsTimedOut());
  EXPECT_FALSE(timeout.IsIOError());  // distinct code so callers can branch
  EXPECT_EQ(timeout.ToString(), "TimedOut: deadline exceeded");

  Status reset = Status::ConnectionReset("peer went away");
  EXPECT_FALSE(reset.ok());
  EXPECT_TRUE(reset.IsConnectionReset());
  EXPECT_FALSE(reset.IsTimedOut());
  EXPECT_EQ(reset.ToString(), "ConnectionReset: peer went away");

  EXPECT_STREQ(StatusCodeName(StatusCode::kTimedOut), "TimedOut");
  EXPECT_STREQ(StatusCodeName(StatusCode::kConnectionReset), "ConnectionReset");
}

TEST(StatusTest, FromCodeRoundTrip) {
  // Every factory-producible status survives a (code, message) round trip —
  // the wire representation used by src/net responses.
  const Status samples[] = {
      Status::Ok(),           Status::NotFound("a"),        Status::InvalidArgument("b"),
      Status::IOError("c"),   Status::Corruption("d"),      Status::ResourceExhausted("e"),
      Status::FailedPrecondition("f"), Status::Unimplemented("g"), Status::Internal("h"),
      Status::TimedOut("i"),  Status::ConnectionReset("j"),
  };
  for (const Status& s : samples) {
    const Status back = Status::FromCode(static_cast<uint8_t>(s.code()), s.message());
    EXPECT_EQ(back.code(), s.code());
    EXPECT_EQ(back.message(), s.message());
  }
  // Unknown codes map to kInternal, never to success.
  EXPECT_EQ(Status::FromCode(250, "future code").code(), StatusCode::kInternal);
}

TEST(StatusTest, ReturnIfErrorMacro) {
  auto fails = [] { return Status::InvalidArgument("bad"); };
  auto wrapper = [&]() -> Status {
    FLOWKV_RETURN_IF_ERROR(fails());
    return Status::Ok();
  };
  EXPECT_EQ(wrapper().code(), StatusCode::kInvalidArgument);
}

TEST(SliceTest, BasicOps) {
  Slice s("hello");
  EXPECT_EQ(s.size(), 5u);
  EXPECT_EQ(s[1], 'e');
  EXPECT_TRUE(s.StartsWith("he"));
  EXPECT_FALSE(s.StartsWith("eh"));
  s.RemovePrefix(2);
  EXPECT_EQ(s.ToString(), "llo");
}

TEST(SliceTest, Compare) {
  EXPECT_LT(Slice("abc").Compare("abd"), 0);
  EXPECT_GT(Slice("abd").Compare("abc"), 0);
  EXPECT_EQ(Slice("abc").Compare("abc"), 0);
  EXPECT_LT(Slice("ab").Compare("abc"), 0);  // prefix orders first
  EXPECT_TRUE(Slice("x") == Slice("x"));
  EXPECT_TRUE(Slice("x") != Slice("y"));
}

TEST(CodingTest, FixedRoundTrip) {
  std::string buf;
  PutFixed32(&buf, 0xdeadbeef);
  PutFixed64(&buf, 0x0123456789abcdefULL);
  Slice input(buf);
  uint32_t v32;
  uint64_t v64;
  ASSERT_TRUE(GetFixed32(&input, &v32));
  ASSERT_TRUE(GetFixed64(&input, &v64));
  EXPECT_EQ(v32, 0xdeadbeefu);
  EXPECT_EQ(v64, 0x0123456789abcdefULL);
  EXPECT_TRUE(input.empty());
}

TEST(CodingTest, VarintRoundTripBoundaries) {
  std::vector<uint64_t> cases = {0, 1, 127, 128, 16383, 16384, (1ULL << 32) - 1, 1ULL << 32,
                                 UINT64_MAX};
  std::string buf;
  for (uint64_t v : cases) {
    PutVarint64(&buf, v);
  }
  Slice input(buf);
  for (uint64_t expected : cases) {
    uint64_t v;
    ASSERT_TRUE(GetVarint64(&input, &v));
    EXPECT_EQ(v, expected);
  }
  EXPECT_TRUE(input.empty());
}

TEST(CodingTest, VarintLengthMatchesEncoding) {
  for (uint64_t v : std::vector<uint64_t>{0, 127, 128, 1ULL << 42, UINT64_MAX}) {
    std::string buf;
    PutVarint64(&buf, v);
    EXPECT_EQ(static_cast<int>(buf.size()), VarintLength(v));
  }
}

TEST(CodingTest, TruncatedVarintFails) {
  std::string buf;
  PutVarint64(&buf, UINT64_MAX);
  buf.pop_back();
  Slice input(buf);
  uint64_t v;
  EXPECT_FALSE(GetVarint64(&input, &v));
}

TEST(CodingTest, LengthPrefixedRoundTrip) {
  std::string buf;
  PutLengthPrefixed(&buf, "alpha");
  PutLengthPrefixed(&buf, "");
  PutLengthPrefixed(&buf, std::string(1000, 'z'));
  Slice input(buf);
  Slice a, b, c;
  ASSERT_TRUE(GetLengthPrefixed(&input, &a));
  ASSERT_TRUE(GetLengthPrefixed(&input, &b));
  ASSERT_TRUE(GetLengthPrefixed(&input, &c));
  EXPECT_EQ(a.ToString(), "alpha");
  EXPECT_TRUE(b.empty());
  EXPECT_EQ(c.size(), 1000u);
}

TEST(CodingTest, SignedZigzag) {
  for (int64_t v : std::vector<int64_t>{0, 1, -1, 123456789, -123456789, INT64_MAX,
                                        INT64_MIN}) {
    std::string buf;
    PutVarsigned64(&buf, v);
    Slice input(buf);
    int64_t decoded;
    ASSERT_TRUE(GetVarsigned64(&input, &decoded));
    EXPECT_EQ(decoded, v);
  }
}

TEST(HashTest, DeterministicAndSpread) {
  EXPECT_EQ(Hash64("abc", 3), Hash64("abc", 3));
  EXPECT_NE(Hash64("abc", 3), Hash64("abd", 3));
  EXPECT_NE(Hash64("abc", 3), Hash64("abc", 3, /*seed=*/99));
  // Buckets of sequential keys should spread widely.
  std::set<uint64_t> buckets;
  for (int i = 0; i < 1000; ++i) {
    std::string key = "key" + std::to_string(i);
    buckets.insert(Hash64(key.data(), key.size()) % 64);
  }
  EXPECT_EQ(buckets.size(), 64u);
}

TEST(HashTest, ChecksumDetectsFlips) {
  std::string data(100, 'a');
  uint32_t base = Checksum32(data.data(), data.size());
  data[50] = 'b';
  EXPECT_NE(base, Checksum32(data.data(), data.size()));
}

TEST(HashTest, StreamingChecksumMatchesOneShotUnderAnyChunking) {
  // The word-at-a-time checksum must be chunking-invariant: Update() calls
  // split at arbitrary (including mid-word and zero-length) boundaries have
  // to reproduce the one-shot value exactly.
  std::string data;
  for (int i = 0; i < 300; ++i) data.push_back(static_cast<char>(i * 31 + 7));
  for (size_t len : {0ul, 1ul, 7ul, 8ul, 9ul, 63ul, 64ul, 65ul, 300ul}) {
    const uint32_t oneshot = Checksum32(data.data(), len);
    for (size_t chunk : {1ul, 3ul, 7ul, 8ul, 13ul, 64ul}) {
      StreamingChecksum32 crc;
      for (size_t off = 0; off < len; off += chunk) {
        crc.Update(data.data() + off, std::min(chunk, len - off));
      }
      crc.Update(data.data(), 0);  // zero-length update is a no-op
      EXPECT_EQ(oneshot, crc.Finish()) << "len=" << len << " chunk=" << chunk;
    }
    StreamingChecksum32 whole;
    whole.Update(data.data(), len);
    EXPECT_EQ(oneshot, whole.Finish()) << "len=" << len;
  }
}

TEST(EnvTest, CreateListRemove) {
  std::string dir = MakeTempDir("env_test");
  EXPECT_TRUE(FileExists(dir));
  ASSERT_TRUE(CreateDirs(JoinPath(dir, "a/b/c")).ok());
  ASSERT_TRUE(WriteStringToFile(JoinPath(dir, "a/file.txt"), "hi").ok());
  std::vector<std::string> names;
  ASSERT_TRUE(ListDir(JoinPath(dir, "a"), &names).ok());
  std::sort(names.begin(), names.end());
  EXPECT_EQ(names.size(), 2u);
  uint64_t size;
  ASSERT_TRUE(GetFileSize(JoinPath(dir, "a/file.txt"), &size).ok());
  EXPECT_EQ(size, 2u);
  ASSERT_TRUE(RemoveDirRecursively(dir).ok());
  EXPECT_FALSE(FileExists(dir));
}

TEST(FileTest, AppendAndReadBack) {
  std::string dir = MakeTempDir("file_test");
  std::string path = JoinPath(dir, "log");
  IoStats stats;
  std::unique_ptr<AppendFile> out;
  ASSERT_TRUE(AppendFile::Open(path, false, &out, &stats).ok());
  ASSERT_TRUE(out->Append("hello ").ok());
  ASSERT_TRUE(out->Append("world").ok());
  EXPECT_EQ(out->size(), 11u);
  ASSERT_TRUE(out->Sync().ok());
  ASSERT_TRUE(out->Close().ok());
  EXPECT_GT(stats.bytes_written, 0);

  std::string contents;
  ASSERT_TRUE(ReadFileToString(path, &contents).ok());
  EXPECT_EQ(contents, "hello world");

  std::unique_ptr<RandomAccessFile> in;
  ASSERT_TRUE(RandomAccessFile::Open(path, &in, &stats).ok());
  char scratch[16];
  Slice got;
  ASSERT_TRUE(in->Read(6, 5, &got, scratch).ok());
  EXPECT_EQ(got.ToString(), "world");
  EXPECT_FALSE(in->Read(8, 10, &got, scratch).ok());  // beyond EOF
  RemoveDirRecursively(dir).IgnoreError();
}

TEST(FileTest, ReopenAppends) {
  std::string dir = MakeTempDir("file_test");
  std::string path = JoinPath(dir, "log");
  {
    std::unique_ptr<AppendFile> out;
    ASSERT_TRUE(AppendFile::Open(path, false, &out).ok());
    ASSERT_TRUE(out->Append("abc").ok());
  }
  {
    std::unique_ptr<AppendFile> out;
    ASSERT_TRUE(AppendFile::Open(path, /*reopen=*/true, &out).ok());
    EXPECT_EQ(out->size(), 3u);
    ASSERT_TRUE(out->Append("def").ok());
  }
  std::string contents;
  ASSERT_TRUE(ReadFileToString(path, &contents).ok());
  EXPECT_EQ(contents, "abcdef");
  RemoveDirRecursively(dir).IgnoreError();
}

TEST(FileTest, LargeWritesBypassBuffer) {
  std::string dir = MakeTempDir("file_test");
  std::string path = JoinPath(dir, "log");
  std::unique_ptr<AppendFile> out;
  ASSERT_TRUE(AppendFile::Open(path, false, &out).ok());
  std::string big(300 * 1024, 'x');
  ASSERT_TRUE(out->Append("pre").ok());
  ASSERT_TRUE(out->Append(big).ok());
  ASSERT_TRUE(out->Append("post").ok());
  ASSERT_TRUE(out->Close().ok());
  std::string contents;
  ASSERT_TRUE(ReadFileToString(path, &contents).ok());
  EXPECT_EQ(contents.size(), big.size() + 7);
  EXPECT_EQ(contents.substr(0, 3), "pre");
  EXPECT_EQ(contents.substr(contents.size() - 4), "post");
  RemoveDirRecursively(dir).IgnoreError();
}

TEST(FileTest, ZeroCopyTransferMovesRange) {
  std::string dir = MakeTempDir("file_test");
  std::string src = JoinPath(dir, "src");
  std::string dst_path = JoinPath(dir, "dst");
  ASSERT_TRUE(WriteStringToFile(src, "0123456789abcdef").ok());
  std::unique_ptr<AppendFile> dst;
  ASSERT_TRUE(AppendFile::Open(dst_path, false, &dst).ok());
  ASSERT_TRUE(dst->Append("HEAD:").ok());
  ASSERT_TRUE(ZeroCopyTransfer(src, 4, 8, dst.get()).ok());
  EXPECT_EQ(dst->size(), 13u);  // logical size stays accurate
  ASSERT_TRUE(dst->Close().ok());
  std::string contents;
  ASSERT_TRUE(ReadFileToString(dst_path, &contents).ok());
  EXPECT_EQ(contents, "HEAD:456789ab");
  RemoveDirRecursively(dir).IgnoreError();
}

TEST(FileTest, ZeroCopyTransferRejectsBeyondEof) {
  std::string dir = MakeTempDir("file_test");
  std::string src = JoinPath(dir, "src");
  ASSERT_TRUE(WriteStringToFile(src, "short").ok());
  std::unique_ptr<AppendFile> dst;
  ASSERT_TRUE(AppendFile::Open(JoinPath(dir, "dst"), false, &dst).ok());
  EXPECT_FALSE(ZeroCopyTransfer(src, 2, 100, dst.get()).ok());
  RemoveDirRecursively(dir).IgnoreError();
}

// Appends `ranges` of "0123456789abcdef" to a file holding "HEAD:" and
// returns the file's contents; `status` gets the transfer's result and
// `dst_size` the writer's logical size afterwards.
std::string TransferRanges(const std::vector<ByteRange>& ranges, Status* status,
                           uint64_t* dst_size) {
  std::string dir = MakeTempDir("file_test");
  std::string src = JoinPath(dir, "src");
  std::string dst_path = JoinPath(dir, "dst");
  EXPECT_TRUE(WriteStringToFile(src, "0123456789abcdef").ok());
  std::unique_ptr<AppendFile> dst;
  EXPECT_TRUE(AppendFile::Open(dst_path, false, &dst).ok());
  EXPECT_TRUE(dst->Append("HEAD:").ok());
  *status = ZeroCopyTransfer(src, ranges, dst.get());
  *dst_size = dst->size();
  EXPECT_TRUE(dst->Close().ok());
  std::string contents;
  EXPECT_TRUE(ReadFileToString(dst_path, &contents).ok());
  RemoveDirRecursively(dir).IgnoreError();
  return contents;
}

TEST(FileTest, ZeroCopyTransferRangeListLandsInOrder) {
  Status s;
  uint64_t size = 0;
  // Non-adjacent, and not in source order: list order wins.
  EXPECT_EQ(TransferRanges({{10, 3}, {1, 2}, {14, 2}}, &s, &size), "HEAD:abc12ef");
  ASSERT_TRUE(s.ok()) << s.ToString();
  EXPECT_EQ(size, 12u);
  // Adjacent ranges read as one contiguous run.
  EXPECT_EQ(TransferRanges({{0, 4}, {4, 4}, {8, 0}, {8, 2}}, &s, &size), "HEAD:0123456789");
  ASSERT_TRUE(s.ok()) << s.ToString();
  EXPECT_EQ(size, 15u);
}

TEST(FileTest, ZeroCopyTransferEmptyRangeListIsNoOp) {
  Status s;
  uint64_t size = 0;
  EXPECT_EQ(TransferRanges({}, &s, &size), "HEAD:");
  EXPECT_TRUE(s.ok()) << s.ToString();
  EXPECT_EQ(size, 5u);
}

TEST(FileTest, ZeroCopyTransferRangePastEofMovesNothing) {
  Status s;
  uint64_t size = 0;
  // The bad range comes last: nothing before it may move either.
  EXPECT_EQ(TransferRanges({{0, 4}, {8, 4}, {12, 5}}, &s, &size), "HEAD:");
  EXPECT_FALSE(s.ok());
  EXPECT_EQ(size, 5u);
}

// Refuses the second write to a path ending in "dst". In TransferRanges the
// first is the flush of "HEAD:" and the second the kernel path's reservation,
// so the user-space loop has to move every range.
class RefuseKernelPathWrite : public FsHooks {
 public:
  Status PreWrite(const std::string& path, size_t n) override {
    if (path.size() < 3 || path.compare(path.size() - 3, 3, "dst") != 0 || ++writes_ != 2) {
      return Status::Ok();
    }
    return Status::IOError("refused");
  }

 private:
  int writes_ = 0;
};

TEST(FileTest, ZeroCopyTransferUserSpaceFallbackMovesEveryRange) {
  RefuseKernelPathWrite hooks;
  InstallFsHooks(&hooks);
  Status s;
  uint64_t size = 0;
  const std::string contents = TransferRanges({{10, 3}, {1, 2}, {14, 2}}, &s, &size);
  InstallFsHooks(nullptr);
  EXPECT_EQ(contents, "HEAD:abc12ef");
  EXPECT_TRUE(s.ok()) << s.ToString();
  EXPECT_EQ(size, 12u);
}

TEST(HistogramTest, PercentilesOrdered) {
  Histogram h;
  for (int i = 1; i <= 1000; ++i) {
    h.Add(i);
  }
  EXPECT_EQ(h.count(), 1000u);
  EXPECT_NEAR(h.Mean(), 500.5, 1.0);
  EXPECT_NEAR(h.Percentile(50), 500, 30);
  EXPECT_NEAR(h.Percentile(95), 950, 60);
  EXPECT_LE(h.Percentile(50), h.Percentile(95));
  EXPECT_LE(h.Percentile(95), h.Percentile(99));
  EXPECT_LE(h.Percentile(99), h.max());
}

TEST(HistogramTest, MergeCombines) {
  Histogram a, b;
  for (int i = 0; i < 100; ++i) {
    a.Add(10);
    b.Add(1000);
  }
  a.Merge(b);
  EXPECT_EQ(a.count(), 200u);
  EXPECT_LT(a.Percentile(25), 100);
  EXPECT_GT(a.Percentile(75), 500);
}

TEST(HistogramTest, EmptyPercentileIsZero) {
  Histogram h;
  EXPECT_EQ(h.count(), 0u);
  EXPECT_EQ(h.Percentile(50), 0);
  EXPECT_EQ(h.Percentile(99), 0);
  EXPECT_EQ(h.Mean(), 0);
  EXPECT_EQ(h.min(), 0);
}

TEST(HistogramTest, SingleValue) {
  Histogram h;
  h.Add(42);
  EXPECT_EQ(h.count(), 1u);
  EXPECT_EQ(h.Mean(), 42);
  EXPECT_EQ(h.min(), 42);
  EXPECT_EQ(h.max(), 42);
  // Every percentile of a one-sample distribution is that sample (the
  // interpolated value is clamped into [min, max]).
  EXPECT_EQ(h.Percentile(1), 42);
  EXPECT_EQ(h.Percentile(50), 42);
  EXPECT_EQ(h.Percentile(99.9), 42);
}

TEST(HistogramTest, MergeDisjointRanges) {
  Histogram low, high;
  for (int i = 1; i <= 100; ++i) {
    low.Add(i);          // [1, 100]
    high.Add(10'000 + i);  // [10001, 10100]
  }
  low.Merge(high);
  EXPECT_EQ(low.count(), 200u);
  EXPECT_EQ(low.min(), 1);
  EXPECT_EQ(low.max(), 10'100);
  EXPECT_NEAR(low.Mean(), (5050.0 + 1'005'050.0) / 200.0, 1.0);
  // The merged distribution is bimodal: p25 lands in the low range, p75 in
  // the high range, and nothing lives in between.
  EXPECT_LT(low.Percentile(25), 200);
  EXPECT_GT(low.Percentile(75), 9'000);
}

TEST(HistogramTest, ValuesBeyondLastBucketLandInOverflowBucket) {
  Histogram h;
  h.Add(1e15);  // beyond the last finite limit (~1e13)
  h.Add(2e15);
  EXPECT_EQ(h.count(), 2u);
  EXPECT_EQ(h.max(), 2e15);
  // The overflow bucket's right edge is max_, so percentiles stay finite
  // and within the observed range.
  const double p99 = h.Percentile(99);
  EXPECT_TRUE(std::isfinite(p99));
  EXPECT_GE(p99, h.min());
  EXPECT_LE(p99, h.max());
}

TEST(HistogramTest, SubMillisecondPercentilesWithinBucketError) {
  // 10..500 us, recorded in ms as every latency is: the percentiles must
  // resolve below 1 ms rather than collapse into one bucket.
  Histogram h;
  std::vector<double> samples;
  for (int us = 10; us <= 500; ++us) {
    for (int rep = 0; rep < 10; ++rep) {
      samples.push_back(us / 1000.0);
      h.Add(samples.back());
    }
  }
  std::sort(samples.begin(), samples.end());
  for (const double p : {50.0, 95.0, 99.0}) {
    const double exact = samples[static_cast<size_t>(p / 100.0 * (samples.size() - 1))];
    EXPECT_NEAR(h.Percentile(p), exact, 0.05 * exact) << "p" << p;
  }
  EXPECT_LT(h.Percentile(50), h.Percentile(95));
  EXPECT_LT(h.Percentile(95), h.Percentile(99));
}

TEST(StoreStatsTest, MergeFromCoversEveryCounterField) {
  // Give every counter in `other` a distinct nonzero value via the same
  // visitor table MergeFrom is built on, then verify the merge carried each
  // one. Combined with the sizeof static_assert in stats.cc, this fails if a
  // field is ever added without being wired into CounterFields().
  StoreStats other;
  size_t n = 0;
  const StoreStats::CounterField* fields = StoreStats::CounterFields(&n);
  ASSERT_GT(n, 0u);
  for (size_t i = 0; i < n; ++i) {
    fields[i].get(other) = static_cast<int64_t>(i + 1);
  }
  other.ett_abs_error_ms.Add(7);

  StoreStats merged;
  for (size_t i = 0; i < n; ++i) {
    fields[i].get(merged) = 100;  // pre-existing totals must be preserved
  }
  merged.MergeFrom(other);
  for (size_t i = 0; i < n; ++i) {
    EXPECT_EQ(fields[i].get(merged).load(), 100 + static_cast<int64_t>(i + 1))
        << "counter '" << fields[i].name << "' not merged";
  }
  EXPECT_EQ(merged.ett_abs_error_ms.count(), 1u);

  // Every counter also appears by name in the JSON export.
  const std::string json = other.ToJson();
  for (size_t i = 0; i < n; ++i) {
    EXPECT_NE(json.find(std::string("\"") + fields[i].name + "\":"), std::string::npos)
        << "counter '" << fields[i].name << "' missing from ToJson";
  }
}

TEST(LoggingTest, SetLogLevelRoundTrip) {
  const LogLevel original = CurrentLogLevel();
  SetLogLevel(LogLevel::kDebug);
  EXPECT_EQ(CurrentLogLevel(), LogLevel::kDebug);
  SetLogLevel(LogLevel::kError);
  EXPECT_EQ(CurrentLogLevel(), LogLevel::kError);
  SetLogLevel(original);
  EXPECT_EQ(CurrentLogLevel(), original);
}

TEST(LoggingTest, LogKvFormatsKeyValuePairs) {
  std::ostringstream os;
  os << LogKv("events", 42) << LogKv("query", "q7");
  EXPECT_EQ(os.str(), "events=42 query=q7 ");
}

TEST(LruCacheTest, EvictsLeastRecentlyUsed) {
  LruCache cache(3 * (1 + 1 + 64) + 10);  // fits ~3 single-char entries
  auto value = [](const char* s) { return std::make_shared<const std::string>(s); };
  cache.Insert("a", value("1"));
  cache.Insert("b", value("2"));
  cache.Insert("c", value("3"));
  ASSERT_NE(cache.Lookup("a"), nullptr);  // promote a
  cache.Insert("d", value("4"));          // evicts b
  EXPECT_EQ(cache.Lookup("b"), nullptr);
  EXPECT_NE(cache.Lookup("a"), nullptr);
  EXPECT_NE(cache.Lookup("d"), nullptr);
}

TEST(LruCacheTest, EraseAndUsage) {
  LruCache cache(10000);
  cache.Insert("k", std::make_shared<const std::string>("vvvv"));
  EXPECT_GT(cache.usage(), 0u);
  cache.Erase("k");
  EXPECT_EQ(cache.usage(), 0u);
  EXPECT_EQ(cache.Lookup("k"), nullptr);
}

TEST(ShardedLruCacheTest, BasicRoundTrip) {
  ShardedLruCache cache(1 << 20);
  cache.Insert("key1", std::make_shared<const std::string>("value1"));
  auto got = cache.Lookup("key1");
  ASSERT_NE(got, nullptr);
  EXPECT_EQ(*got, "value1");
  cache.Erase("key1");
  EXPECT_EQ(cache.Lookup("key1"), nullptr);
}

TEST(ArenaTest, AllocationsAreDistinctAndUsable) {
  Arena arena;
  char* a = arena.Allocate(100);
  char* b = arena.Allocate(100);
  EXPECT_NE(a, b);
  std::memset(a, 1, 100);
  std::memset(b, 2, 100);
  EXPECT_EQ(a[99], 1);
  EXPECT_EQ(b[0], 2);
  char* big = arena.Allocate(1 << 20);
  std::memset(big, 3, 1 << 20);
  EXPECT_GE(arena.MemoryUsage(), (1u << 20) + 200);
}

TEST(RandomTest, DeterministicPerSeed) {
  Random a(7), b(7), c(8);
  EXPECT_EQ(a.Next(), b.Next());
  EXPECT_NE(a.Next(), c.Next());
}

TEST(RandomTest, UniformInRange) {
  Random r(1);
  for (int i = 0; i < 1000; ++i) {
    uint64_t v = r.Uniform(10);
    EXPECT_LT(v, 10u);
    int64_t x = r.Range(-5, 5);
    EXPECT_GE(x, -5);
    EXPECT_LE(x, 5);
    double d = r.NextDouble();
    EXPECT_GE(d, 0.0);
    EXPECT_LT(d, 1.0);
  }
}

TEST(RandomTest, ZipfIsSkewed) {
  ZipfGenerator zipf(1000, 0.9, 3);
  int head = 0;
  for (int i = 0; i < 10000; ++i) {
    uint64_t v = zipf.Next();
    EXPECT_LT(v, 1000u);
    if (v < 10) {
      ++head;
    }
  }
  // Top-1% of keys should draw far more than 1% of samples.
  EXPECT_GT(head, 1500);
}

}  // namespace
}  // namespace flowkv
