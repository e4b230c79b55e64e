// The tracing decorators must be invisible to the program: same bytes,
// same Status, and every async call completes exactly once.
#include <gtest/gtest.h>

#include <atomic>
#include <cstring>
#include <thread>

#include "common/buffer_pool.hpp"
#include "storage/dataset.hpp"
#include "trace.hpp"

namespace perfbench {
namespace {

using prisma::Result;
using prisma::SamplePayload;
using prisma::Status;

/// Serves SyntheticContent; "missing" is NotFound. Async reads complete
/// on a fresh thread, like a real offload.
class FakeBackend final : public prisma::storage::StorageBackend,
                          public prisma::storage::RecoverableBackend {
 public:
  Result<std::size_t> Read(const std::string& path, std::uint64_t offset,
                           std::span<std::byte> dst) override {
    if (path == "missing") return Status::NotFound("missing");
    const std::size_t n = offset >= kSize ? 0 : std::min<std::size_t>(dst.size(), kSize - offset);
    prisma::storage::SyntheticContent::Fill(path, offset, dst.first(n));
    return n;
  }
  void ReadAllSharedAsync(const std::string& path,
                          const std::shared_ptr<prisma::BufferPool>& pool,
                          const AsyncIo&, PayloadCallback cb) override {
    std::thread([this, path, pool, cb] { cb.fn(cb.ctx, ReadAllShared(path, pool)); }).join();
  }
  Status Write(const std::string& path, std::span<const std::byte> data) override {
    last_write = path + ":" + std::to_string(data.size());
    return path == "readonly" ? Status::FailedPrecondition("ro") : Status::Ok();
  }
  Result<std::uint64_t> FileSize(const std::string& path) override {
    if (path == "missing") return Status::NotFound("missing");
    return kSize;
  }
  prisma::storage::BackendStats Stats() const override {
    prisma::storage::BackendStats s;
    s.reads = 42;
    return s;
  }
  Result<std::vector<RecoveredEntry>> Recover() override {
    return std::vector<RecoveredEntry>{{"a", 1}, {"b", 2}};
  }

  static constexpr std::size_t kSize = 1000;
  std::string last_write;
};

TEST(TimedBackendTest, ForwardsBytesAndStatusExactly) {
  for (const bool enabled : {false, true}) {
    SpanRecorder rec(64);
    rec.Enable(enabled);
    auto inner = std::make_shared<FakeBackend>();
    TimedBackend timed(inner, rec, Layer::kStorage, Layer::kStage);

    std::vector<std::byte> got(FakeBackend::kSize), want(FakeBackend::kSize);
    auto n = timed.Read("x", 10, got);
    ASSERT_TRUE(n.ok());
    EXPECT_EQ(*n, FakeBackend::kSize - 10);
    prisma::storage::SyntheticContent::Fill("x", 10, std::span(want).first(*n));
    EXPECT_EQ(std::memcmp(got.data(), want.data(), *n), 0);

    auto missing = timed.Read("missing", 0, got);
    EXPECT_EQ(missing.status().code(), prisma::StatusCode::kNotFound);
    EXPECT_EQ(timed.FileSize("missing").status().code(), prisma::StatusCode::kNotFound);
    EXPECT_EQ(*timed.FileSize("x"), FakeBackend::kSize);

    auto all = timed.ReadAllShared("y", prisma::BufferPool::Default());
    ASSERT_TRUE(all.ok());
    ASSERT_EQ(all->size(), FakeBackend::kSize);
    prisma::storage::SyntheticContent::Fill("y", 0, want);
    EXPECT_EQ(std::memcmp(all->data(), want.data(), want.size()), 0);

    EXPECT_EQ(timed.Write("readonly", want).code(), prisma::StatusCode::kFailedPrecondition);
    EXPECT_TRUE(timed.Write("w", want).ok());
    EXPECT_EQ(inner->last_write, "w:1000");
    EXPECT_EQ(timed.Stats().reads, 42u);
    EXPECT_EQ(rec.Spans().size(), enabled ? 7u : 0u);
  }
}

struct Completion {
  std::atomic<int> calls{0};
  std::size_t size = 0;
  static void Fn(void* ctx, Result<SamplePayload> r) {
    auto* self = static_cast<Completion*>(ctx);
    self->size = r.ok() ? r->size() : 0;
    self->calls.fetch_add(1);
  }
};

TEST(TimedBackendTest, AsyncCompletesExactlyOnce) {
  for (const bool enabled : {false, true}) {
    SpanRecorder rec(8);
    rec.Enable(enabled);
    TimedBackend timed(std::make_shared<FakeBackend>(), rec, Layer::kStorage, Layer::kStage);
    Completion done;
    timed.ReadAllSharedAsync("z", prisma::BufferPool::Default(), {},
                             {&Completion::Fn, &done});
    EXPECT_EQ(done.calls.load(), 1);
    EXPECT_EQ(done.size, FakeBackend::kSize);
    const auto spans = rec.Spans();
    ASSERT_EQ(spans.size(), enabled ? 1u : 0u);
    if (enabled) {
      EXPECT_EQ(spans[0].request, RequestId(0, "z"));
      EXPECT_EQ(spans[0].bytes, FakeBackend::kSize);
      EXPECT_LE(spans[0].start_ns, spans[0].end_ns);
    }
  }
}

TEST(TimedBackendTest, RecoverableVariantForwardsRecover) {
  SpanRecorder rec(8);
  rec.Enable(true);
  std::shared_ptr<prisma::storage::StorageBackend> timed =
      std::make_shared<TimedRecoverableBackend>(std::make_shared<FakeBackend>(), rec,
                                                Layer::kFastTier, Layer::kTiering);
  auto durable = std::dynamic_pointer_cast<prisma::storage::RecoverableBackend>(timed);
  ASSERT_NE(durable, nullptr);
  auto entries = durable->Recover();
  ASSERT_TRUE(entries.ok());
  ASSERT_EQ(entries->size(), 2u);
  EXPECT_EQ((*entries)[1].path, "b");
  ASSERT_EQ(rec.Spans().size(), 1u);
  EXPECT_EQ(rec.Spans()[0].op, Op::kRecover);
}

/// Minimal object: ReadRefAsync completes synchronously for "now", from
/// another thread for anything else; "bad" fails.
class FakeObject final : public prisma::dataplane::OptimizationObject {
 public:
  std::string_view Name() const override { return "prefetch"; }
  Status Start() override { return Status::Ok(); }
  void Stop() override {}
  Result<std::size_t> Read(const std::string& path, std::uint64_t,
                           std::span<std::byte> dst) override {
    if (path == "bad") return Status::Internal("bad");
    std::memset(dst.data(), 7, dst.size());
    return dst.size();
  }
  void ReadRefAsync(const std::string& path, std::uint64_t, std::size_t max_bytes,
                    prisma::ThreadPool&, ReadRefWaiter waiter) override {
    auto result = [path, max_bytes]() -> Result<prisma::dataplane::SampleView> {
      if (path == "bad") return Status::Internal("bad");
      prisma::dataplane::SampleView v;
      v.payload = SamplePayload::Adopt(std::vector<std::byte>(max_bytes));
      v.length = max_bytes;
      return v;
    };
    if (path == "now") {
      waiter.fn(waiter.ctx, result());
    } else {
      std::thread([waiter, result] { waiter.fn(waiter.ctx, result()); }).join();
    }
  }
  Result<std::uint64_t> FileSize(const std::string&) override { return 5; }
  Status ApplyKnobs(const prisma::dataplane::StageKnobs&) override {
    return Status::Ok();
  }
  prisma::dataplane::StageStatsSnapshot CollectStats() const override {
    prisma::dataplane::StageStatsSnapshot s;
    s.samples_consumed = 9;
    return s;
  }
};

struct RefCompletion {
  std::atomic<int> calls{0};
  prisma::StatusCode code = prisma::StatusCode::kOk;
  std::size_t length = 0;
  static void Fn(void* ctx, Result<prisma::dataplane::SampleView> r) {
    auto* self = static_cast<RefCompletion*>(ctx);
    self->code = r.status().code();
    self->length = r.ok() ? r->length : 0;
    self->calls.fetch_add(1);
  }
};

TEST(TracedObjectTest, ForwardsAndCompletesExactlyOnce) {
  SpanRecorder rec(64);
  rec.Enable(true);
  TracedObject traced(std::make_shared<FakeObject>(), rec, Layer::kStage, Layer::kIpc);
  EXPECT_EQ(traced.Name(), "prefetch");  // control routing is unchanged
  EXPECT_EQ(traced.CollectStats().samples_consumed, 9u);
  prisma::ThreadPool pool(1);
  for (const std::string path : {"now", "later", "bad"}) {
    RefCompletion done;
    traced.ReadRefAsync(path, 0, 16, pool, {&RefCompletion::Fn, &done});
    EXPECT_EQ(done.calls.load(), 1) << path;
    EXPECT_EQ(done.length, path == "bad" ? 0u : 16u);
    EXPECT_EQ(done.code, path == "bad" ? prisma::StatusCode::kInternal
                                       : prisma::StatusCode::kOk);
  }
  std::vector<std::byte> dst(4);
  EXPECT_EQ(*traced.Read("x", 0, dst), 4u);
  EXPECT_EQ(dst[3], std::byte{7});
  EXPECT_EQ(traced.Read("bad", 0, dst).status().code(), prisma::StatusCode::kInternal);
  EXPECT_EQ(rec.Spans().size(), 5u);
  rec.Enable(false);
  RefCompletion done;
  traced.ReadRefAsync("later", 0, 8, pool, {&RefCompletion::Fn, &done});
  EXPECT_EQ(done.calls.load(), 1);
  EXPECT_EQ(rec.Spans().size(), 5u);
}

TEST(SpanRecorderTest, DropsPastCapacityAndWritesFile) {
  SpanRecorder rec(2);
  for (int i = 0; i < 5; ++i) rec.Record(Span{1, i, i + 1, 0, Layer::kStage, Layer::kIpc, Op::kRead});
  EXPECT_EQ(rec.Spans().size(), 2u);
  EXPECT_EQ(rec.dropped(), 3u);
  const std::string path = ::testing::TempDir() + "perfbench_spans.bin";
  ASSERT_TRUE(rec.WriteTo(path));
  std::FILE* f = std::fopen(path.c_str(), "rb");
  ASSERT_NE(f, nullptr);
  char magic[8];
  std::uint64_t count = 0;
  ASSERT_EQ(std::fread(magic, 1, 8, f), 8u);
  ASSERT_EQ(std::fread(&count, sizeof(count), 1, f), 1u);
  std::fclose(f);
  std::remove(path.c_str());
  EXPECT_EQ(std::string(magic, 8), "PBSPANS1");
  EXPECT_EQ(count, 2u);
}

TEST(RequestIdTest, SamePairSameIdAcrossLayers) {
  EXPECT_EQ(RequestId(3, "train/00000001.jpg"), RequestId(3, "train/00000001.jpg"));
  EXPECT_NE(RequestId(3, "train/00000001.jpg"), RequestId(4, "train/00000001.jpg"));
  EXPECT_NE(RequestId(3, "train/00000001.jpg"), RequestId(3, "train/00000002.jpg"));
  EXPECT_NE(RequestId(0, ""), 0u);
}

}  // namespace
}  // namespace perfbench
