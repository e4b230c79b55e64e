#include "trace.hpp"

#include <algorithm>
#include <cstdio>
#include <utility>

namespace perfbench {

using prisma::Result;
using prisma::Status;

std::string_view LayerName(Layer layer) {
  switch (layer) {
    case Layer::kNone: return "none";
    case Layer::kIpc: return "ipc";
    case Layer::kFrameworks: return "frameworks";
    case Layer::kStage: return "stage";
    case Layer::kTiering: return "tiering";
    case Layer::kStorage: return "storage";
    case Layer::kFastTier: return "fast_tier";
  }
  return "unknown";
}

std::uint64_t RequestId(std::uint64_t epoch, std::string_view path) {
  std::uint64_t h = 0xcbf29ce484222325ull;  // FNV-1a
  for (const char c : path) {
    h ^= static_cast<unsigned char>(c);
    h *= 0x100000001b3ull;
  }
  h ^= (epoch + 1) * 0x9e3779b97f4a7c15ull;
  // SplitMix64 finalizer; 0 is reserved for "no request".
  h = (h ^ (h >> 30)) * 0xbf58476d1ce4e5b9ull;
  h = (h ^ (h >> 27)) * 0x94d049bb133111ebull;
  h ^= h >> 31;
  return h == 0 ? 1 : h;
}

SpanRecorder::SpanRecorder(std::size_t capacity)
    // Untouched pages cost no memory: only recorded spans become resident.
    : spans_(std::make_unique_for_overwrite<Span[]>(capacity)),
      capacity_(capacity) {}

void SpanRecorder::Record(const Span& span) {
  const std::size_t i = next_.fetch_add(1, std::memory_order_relaxed);
  if (i >= capacity_) {
    dropped_.fetch_add(1, std::memory_order_relaxed);
    return;
  }
  spans_[i] = span;
}

std::vector<Span> SpanRecorder::Spans() const {
  const std::size_t n =
      std::min(next_.load(std::memory_order_acquire), capacity_);
  return std::vector<Span>(spans_.get(), spans_.get() + n);
}

bool SpanRecorder::WriteTo(const std::string& path) const {
  const auto spans = Spans();
  std::FILE* f = std::fopen(path.c_str(), "wb");
  if (f == nullptr) return false;
  const std::uint64_t count = spans.size();
  bool ok = std::fwrite("PBSPANS1", 1, 8, f) == 8 &&
            std::fwrite(&count, sizeof(count), 1, f) == 1 &&
            std::fwrite(spans.data(), sizeof(Span), spans.size(), f) ==
                spans.size();
  ok = std::fclose(f) == 0 && ok;
  return ok;
}

// --- TimedBackend ---------------------------------------------------------

TimedBackend::TimedBackend(
    std::shared_ptr<prisma::storage::StorageBackend> inner,
    SpanRecorder& recorder, Layer layer, Layer parent)
    : inner_(std::move(inner)),
      recorder_(recorder),
      layer_(layer),
      parent_(parent) {}

void TimedBackend::Emit(Op op, std::uint64_t request, std::int64_t start,
                        std::uint64_t bytes) const {
  recorder_.Record(Span{request, start, NowNs(),
                        static_cast<std::uint32_t>(bytes), layer_, parent_,
                        op});
}

Result<std::size_t> TimedBackend::Read(const std::string& path,
                                       std::uint64_t offset,
                                       std::span<std::byte> dst) {
  if (!recorder_.enabled()) return inner_->Read(path, offset, dst);
  const std::uint64_t request = recorder_.Request(path);
  const std::int64_t start = NowNs();
  auto n = inner_->Read(path, offset, dst);
  Emit(Op::kRead, request, start, n.ok() ? *n : 0);
  return n;
}

Result<std::vector<std::byte>> TimedBackend::ReadAll(const std::string& path) {
  if (!recorder_.enabled()) return inner_->ReadAll(path);
  const std::uint64_t request = recorder_.Request(path);
  const std::int64_t start = NowNs();
  auto bytes = inner_->ReadAll(path);
  Emit(Op::kRead, request, start, bytes.ok() ? bytes->size() : 0);
  return bytes;
}

Result<prisma::SamplePayload> TimedBackend::ReadAllShared(
    const std::string& path, const std::shared_ptr<prisma::BufferPool>& pool) {
  if (!recorder_.enabled()) return inner_->ReadAllShared(path, pool);
  const std::uint64_t request = recorder_.Request(path);
  const std::int64_t start = NowNs();
  auto payload = inner_->ReadAllShared(path, pool);
  Emit(Op::kRead, request, start, payload.ok() ? payload->size() : 0);
  return payload;
}

struct TimedBackend::AsyncCall {
  const TimedBackend* self;
  std::uint64_t request;
  std::int64_t start;
  PayloadCallback cb;
};

void TimedBackend::OnAsyncDone(void* ctx, Result<prisma::SamplePayload> r) {
  std::unique_ptr<AsyncCall> call(static_cast<AsyncCall*>(ctx));
  call->self->Emit(Op::kRead, call->request, call->start,
                   r.ok() ? r->size() : 0);
  call->cb.fn(call->cb.ctx, std::move(r));
}

void TimedBackend::ReadAllSharedAsync(
    const std::string& path, const std::shared_ptr<prisma::BufferPool>& pool,
    const AsyncIo& io, PayloadCallback cb) {
  if (!recorder_.enabled()) {
    inner_->ReadAllSharedAsync(path, pool, io, cb);
    return;
  }
  auto* call = new AsyncCall{this, recorder_.Request(path), NowNs(), cb};
  inner_->ReadAllSharedAsync(path, pool, io, PayloadCallback{&OnAsyncDone, call});
}

Status TimedBackend::Write(const std::string& path,
                           std::span<const std::byte> data) {
  if (!recorder_.enabled()) return inner_->Write(path, data);
  const std::uint64_t request = recorder_.Request(path);
  const std::int64_t start = NowNs();
  Status s = inner_->Write(path, data);
  Emit(Op::kWrite, request, start, s.ok() ? data.size() : 0);
  return s;
}

Status TimedBackend::Remove(const std::string& path) {
  if (!recorder_.enabled()) return inner_->Remove(path);
  const std::uint64_t request = recorder_.Request(path);
  const std::int64_t start = NowNs();
  Status s = inner_->Remove(path);
  Emit(Op::kRemove, request, start, 0);
  return s;
}

Result<std::uint64_t> TimedBackend::FileSize(const std::string& path) {
  if (!recorder_.enabled()) return inner_->FileSize(path);
  const std::uint64_t request = recorder_.Request(path);
  const std::int64_t start = NowNs();
  auto size = inner_->FileSize(path);
  Emit(Op::kStat, request, start, 0);
  return size;
}

prisma::storage::BackendStats TimedBackend::Stats() const {
  return inner_->Stats();
}

TimedRecoverableBackend::TimedRecoverableBackend(
    std::shared_ptr<prisma::storage::StorageBackend> inner,
    SpanRecorder& recorder, Layer layer, Layer parent)
    : TimedBackend(std::move(inner), recorder, layer, parent) {}

Result<std::vector<prisma::storage::RecoverableBackend::RecoveredEntry>>
TimedRecoverableBackend::Recover() {
  auto* durable =
      dynamic_cast<prisma::storage::RecoverableBackend*>(inner_.get());
  if (durable == nullptr) {
    return Status::FailedPrecondition("wrapped backend is not recoverable");
  }
  if (!recorder_.enabled()) return durable->Recover();
  const std::int64_t start = NowNs();
  auto entries = durable->Recover();
  Emit(Op::kRecover, 0, start, entries.ok() ? entries->size() : 0);
  return entries;
}

// --- TracedObject ---------------------------------------------------------

TracedObject::TracedObject(
    std::shared_ptr<prisma::dataplane::OptimizationObject> inner,
    SpanRecorder& recorder, Layer layer, Layer parent)
    : inner_(std::move(inner)),
      recorder_(recorder),
      layer_(layer),
      parent_(parent) {}

void TracedObject::Emit(Op op, std::uint64_t request, std::int64_t start,
                        std::uint64_t bytes) const {
  recorder_.Record(Span{request, start, NowNs(),
                        static_cast<std::uint32_t>(bytes), layer_, parent_,
                        op});
}

Result<std::size_t> TracedObject::Read(const std::string& path,
                                       std::uint64_t offset,
                                       std::span<std::byte> dst) {
  if (!recorder_.enabled()) return inner_->Read(path, offset, dst);
  const std::uint64_t request = recorder_.Request(path);
  const std::int64_t start = NowNs();
  auto n = inner_->Read(path, offset, dst);
  Emit(Op::kRead, request, start, n.ok() ? *n : 0);
  return n;
}

Result<prisma::dataplane::SampleView> TracedObject::ReadRef(
    const std::string& path, std::uint64_t offset, std::size_t max_bytes) {
  if (!recorder_.enabled()) return inner_->ReadRef(path, offset, max_bytes);
  const std::uint64_t request = recorder_.Request(path);
  const std::int64_t start = NowNs();
  auto view = inner_->ReadRef(path, offset, max_bytes);
  Emit(Op::kRead, request, start, view.ok() ? view->length : 0);
  return view;
}

struct TracedObject::AsyncCall {
  const TracedObject* self;
  std::uint64_t request;
  std::int64_t start;
  ReadRefWaiter waiter;
};

void TracedObject::OnAsyncDone(void* ctx,
                               Result<prisma::dataplane::SampleView> r) {
  std::unique_ptr<AsyncCall> call(static_cast<AsyncCall*>(ctx));
  call->self->Emit(Op::kRead, call->request, call->start,
                   r.ok() ? r->length : 0);
  call->waiter.fn(call->waiter.ctx, std::move(r));
}

void TracedObject::ReadRefAsync(const std::string& path, std::uint64_t offset,
                                std::size_t max_bytes,
                                prisma::ThreadPool& offload,
                                ReadRefWaiter waiter) {
  if (!recorder_.enabled()) {
    inner_->ReadRefAsync(path, offset, max_bytes, offload, waiter);
    return;
  }
  auto* call = new AsyncCall{this, recorder_.Request(path), NowNs(), waiter};
  inner_->ReadRefAsync(path, offset, max_bytes, offload,
                       ReadRefWaiter{&OnAsyncDone, call});
}

Result<std::uint64_t> TracedObject::FileSize(const std::string& path) {
  if (!recorder_.enabled()) return inner_->FileSize(path);
  const std::uint64_t request = recorder_.Request(path);
  const std::int64_t start = NowNs();
  auto size = inner_->FileSize(path);
  Emit(Op::kStat, request, start, 0);
  return size;
}

}  // namespace perfbench
