// Span recording for the traced benchmark run, and the decorators that
// produce spans from outside the program: a StorageBackend wrapper (with
// a RecoverableBackend variant for the durable fast tier) and an
// OptimizationObject wrapper for pipeline layers. Nothing under src/ is
// instrumented; every span comes from a call into a layer's public
// interface.
//
// Each consumer reads each sample once per epoch, so (epoch, sample name)
// names one request across every layer and thread. Spans carry that pair
// hashed into a 64-bit request id, which the analysis joins on.
#pragma once

#include <atomic>
#include <chrono>
#include <cstdint>
#include <memory>
#include <string>
#include <string_view>
#include <vector>

#include "dataplane/optimization_object.hpp"
#include "storage/backend.hpp"

namespace perfbench {

inline std::int64_t NowNs() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

/// Layers a span can belong to (the repository's module names).
enum class Layer : std::uint8_t {
  kNone = 0,    // no parent
  kIpc,         // consumer call through UdsClient (torch workloads)
  kFrameworks,  // consumer call through TfPosixFileSystem (tf workload)
  kStage,       // call into the stage's outermost layer
  kTiering,     // call into the tiering layer
  kStorage,     // the backing (slow) StorageBackend
  kFastTier,    // the durable fast tier
};
std::string_view LayerName(Layer layer);

enum class Op : std::uint8_t { kRead, kStat, kWrite, kRemove, kRecover };

/// One timed call. `request` is RequestId(epoch, path), 0 when the call
/// has no sample (Recover).
struct Span {
  std::uint64_t request;
  std::int64_t start_ns;
  std::int64_t end_ns;
  std::uint32_t bytes;
  Layer layer;
  Layer parent;
  Op op;
};

std::uint64_t RequestId(std::uint64_t epoch, std::string_view path);

/// Fixed-capacity, lock-free span store. Recording is one fetch_add and
/// one store; spans past capacity are counted and dropped. Recording is
/// off until Enable(true); the benchmark toggles it per epoch.
class SpanRecorder {
 public:
  explicit SpanRecorder(std::size_t capacity);

  SpanRecorder(const SpanRecorder&) = delete;
  SpanRecorder& operator=(const SpanRecorder&) = delete;

  bool enabled() const { return enabled_.load(std::memory_order_relaxed); }
  void Enable(bool on) { enabled_.store(on, std::memory_order_relaxed); }

  /// The epoch requests are attributed to.
  std::uint64_t epoch() const { return epoch_.load(std::memory_order_relaxed); }
  void SetEpoch(std::uint64_t epoch) {
    epoch_.store(epoch, std::memory_order_relaxed);
  }
  std::uint64_t Request(std::string_view path) const {
    return RequestId(epoch(), path);
  }

  void Record(const Span& span);

  /// Copy of the recorded spans. Call only when no thread records.
  std::vector<Span> Spans() const;
  std::uint64_t dropped() const {
    return dropped_.load(std::memory_order_relaxed);
  }

  /// Writes the spans as a flat binary file: the magic "PBSPANS1", a
  /// little-endian u64 count, then `count` Span records as laid out in
  /// memory. Returns false on an I/O error.
  bool WriteTo(const std::string& path) const;

 private:
  std::unique_ptr<Span[]> spans_;
  std::size_t capacity_;
  std::atomic<std::size_t> next_{0};
  std::atomic<std::uint64_t> dropped_{0};
  std::atomic<bool> enabled_{false};
  std::atomic<std::uint64_t> epoch_{0};
};

/// StorageBackend decorator: forwards every call unchanged (bytes,
/// Status, the async callback) and records a span per call while the
/// recorder is enabled.
class TimedBackend : public prisma::storage::StorageBackend {
 public:
  TimedBackend(std::shared_ptr<prisma::storage::StorageBackend> inner,
               SpanRecorder& recorder, Layer layer, Layer parent);

  prisma::Result<std::size_t> Read(const std::string& path,
                                   std::uint64_t offset,
                                   std::span<std::byte> dst) override;
  prisma::Result<std::vector<std::byte>> ReadAll(
      const std::string& path) override;
  prisma::Result<prisma::SamplePayload> ReadAllShared(
      const std::string& path,
      const std::shared_ptr<prisma::BufferPool>& pool) override;
  void ReadAllSharedAsync(const std::string& path,
                          const std::shared_ptr<prisma::BufferPool>& pool,
                          const AsyncIo& io, PayloadCallback cb) override;
  prisma::Status Write(const std::string& path,
                       std::span<const std::byte> data) override;
  prisma::Status Remove(const std::string& path) override;
  prisma::Result<std::uint64_t> FileSize(const std::string& path) override;
  prisma::storage::BackendStats Stats() const override;

 protected:
  void Emit(Op op, std::uint64_t request, std::int64_t start,
            std::uint64_t bytes) const;

  std::shared_ptr<prisma::storage::StorageBackend> inner_;
  SpanRecorder& recorder_;
  Layer layer_;
  Layer parent_;

 private:
  struct AsyncCall;
  static void OnAsyncDone(void* ctx, prisma::Result<prisma::SamplePayload> r);
};

/// TimedBackend over a durable tier: also forwards (and times) Recover,
/// so a tiering layer in durable mode still finds a RecoverableBackend.
class TimedRecoverableBackend final
    : public TimedBackend,
      public prisma::storage::RecoverableBackend {
 public:
  /// `inner` must implement RecoverableBackend too.
  TimedRecoverableBackend(std::shared_ptr<prisma::storage::StorageBackend> inner,
                          SpanRecorder& recorder, Layer layer, Layer parent);

  prisma::Result<std::vector<RecoveredEntry>> Recover() override;
};

/// OptimizationObject decorator for one pipeline layer. Name(), knobs
/// and stats pass through, so control routing and stats sections are
/// unchanged; reads (sync, by-reference and async) and FileSize record a
/// span. An async read's span ends when its waiter fires.
class TracedObject final : public prisma::dataplane::OptimizationObject {
 public:
  TracedObject(std::shared_ptr<prisma::dataplane::OptimizationObject> inner,
               SpanRecorder& recorder, Layer layer, Layer parent);

  std::string_view Name() const override { return inner_->Name(); }
  prisma::Status Start() override { return inner_->Start(); }
  void Stop() override { inner_->Stop(); }

  prisma::Result<std::size_t> Read(const std::string& path,
                                   std::uint64_t offset,
                                   std::span<std::byte> dst) override;
  prisma::Result<prisma::dataplane::SampleView> ReadRef(
      const std::string& path, std::uint64_t offset,
      std::size_t max_bytes) override;
  void ReadRefAsync(const std::string& path, std::uint64_t offset,
                    std::size_t max_bytes, prisma::ThreadPool& offload,
                    ReadRefWaiter waiter) override;
  prisma::Result<std::uint64_t> FileSize(const std::string& path) override;

  prisma::Status BeginEpoch(std::uint64_t epoch,
                            const std::vector<std::string>& order) override {
    return inner_->BeginEpoch(epoch, order);
  }
  prisma::Status ApplyKnobs(const prisma::dataplane::StageKnobs& knobs) override {
    return inner_->ApplyKnobs(knobs);
  }
  prisma::Status ApplyNamedKnob(std::string_view knob, double value) override {
    return inner_->ApplyNamedKnob(knob, value);
  }
  prisma::dataplane::StageStatsSnapshot CollectStats() const override {
    return inner_->CollectStats();
  }
  void AppendNamedStats(
      prisma::dataplane::ObjectStatsSection& section) const override {
    inner_->AppendNamedStats(section);
  }

 private:
  struct AsyncCall;
  static void OnAsyncDone(void* ctx,
                          prisma::Result<prisma::dataplane::SampleView> r);
  void Emit(Op op, std::uint64_t request, std::int64_t start,
            std::uint64_t bytes) const;

  std::shared_ptr<prisma::dataplane::OptimizationObject> inner_;
  SpanRecorder& recorder_;
  Layer layer_;
  Layer parent_;
};

}  // namespace perfbench
