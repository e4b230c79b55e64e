#include "workloads.hpp"

#include <sys/resource.h>

#include <algorithm>
#include <atomic>
#include <cmath>
#include <condition_variable>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <functional>
#include <memory>
#include <mutex>
#include <numeric>
#include <thread>
#include <unordered_map>

#include "analysis.hpp"
#include "common/buffer_pool.hpp"
#include "common/clock.hpp"
#include "controlplane/controller.hpp"
#include "controlplane/policy.hpp"
#include "dataplane/object_backend.hpp"
#include "dataplane/prefetch_object.hpp"
#include "dataplane/stage.hpp"
#include "dataplane/tiering_object.hpp"
#include "frameworks/tf_adapter.hpp"
#include "frameworks/torch_adapter.hpp"
#include "ipc/uds_server.hpp"
#include "storage/dataset.hpp"
#include "storage/persistent_tier_backend.hpp"
#include "storage/posix_backend.hpp"
#include "storage/shuffler.hpp"
#include "storage/synthetic_backend.hpp"
#include "trace.hpp"

namespace perfbench {
namespace {

namespace cp = prisma::controlplane;
namespace dp = prisma::dataplane;
namespace st = prisma::storage;
using prisma::Result;
using prisma::Status;

constexpr char kSocket[] = "perfbench.sock";
constexpr char kSpareSocket[] = "perfbench-spare.sock";
constexpr char kDataDir[] = "data";
constexpr char kTierDir[] = "tier";
// Spans a traced run keeps at most (pages are touched only when used).
constexpr std::size_t kSpanCapacity = 8u << 20;

std::uint64_t Mix(std::uint64_t h) {
  h = (h ^ (h >> 30)) * 0xbf58476d1ce4e5b9ull;
  h = (h ^ (h >> 27)) * 0x94d049bb133111ebull;
  return h ^ (h >> 31);
}

double Seconds(std::int64_t ns) { return static_cast<double>(ns) / 1e9; }

double CpuSeconds() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_utime.tv_sec + ru.ru_stime.tv_sec) +
         static_cast<double>(ru.ru_utime.tv_usec + ru.ru_stime.tv_usec) / 1e6;
}

double PeakRssMb() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // ru_maxrss is KiB
}

double Ratio(double num, double den) { return den > 0.0 ? num / den : 0.0; }

// --- Inputs ---------------------------------------------------------------

struct Dataset {
  st::ImageNetDataset catalog;
  std::vector<std::string> names;
  std::vector<std::uint64_t> sizes;
  std::unordered_map<std::string, std::size_t> index;
  std::uint64_t total_bytes = 0;
  std::uint64_t max_bytes = 0;
};

Dataset MakeDataset(std::size_t files, double mean_bytes,
                    std::uint64_t min_bytes, std::uint64_t seed) {
  st::SyntheticImageNetSpec spec;
  spec.num_train = files;
  spec.num_validation = 1;
  spec.mean_file_size = mean_bytes;
  spec.min_file_size = min_bytes;
  spec.seed = seed;
  Dataset ds;
  ds.catalog = st::MakeSyntheticImageNet(spec);
  for (const auto& f : ds.catalog.train.files()) {
    ds.index.emplace(f.name, ds.names.size());
    ds.names.push_back(f.name);
    ds.sizes.push_back(f.size);
    ds.total_bytes += f.size;
    ds.max_bytes = std::max(ds.max_bytes, f.size);
  }
  return ds;
}

/// Writes the training files under `root` with plain stdio; the program
/// only ever sees the finished files.
Status WriteFiles(const Dataset& ds, const std::string& root) {
  std::error_code ec;
  std::filesystem::create_directories(std::filesystem::path(root) / "train", ec);
  if (ec) return Status::Internal("mkdir " + root + ": " + ec.message());
  std::vector<std::byte> buf(ds.max_bytes);
  for (std::size_t i = 0; i < ds.names.size(); ++i) {
    const std::span<std::byte> bytes(buf.data(), ds.sizes[i]);
    st::SyntheticContent::Fill(ds.names[i], 0, bytes);
    const std::string path = root + "/" + ds.names[i];
    std::FILE* f = std::fopen(path.c_str(), "wb");
    if (f == nullptr) return Status::Internal("cannot create " + path);
    const bool ok = std::fwrite(bytes.data(), 1, bytes.size(), f) == bytes.size();
    if (std::fclose(f) != 0 || !ok) return Status::Internal("short write " + path);
  }
  return Status::Ok();
}

// --- Consumers --------------------------------------------------------------

using ReadFn = std::function<Result<std::size_t>(
    int consumer, const std::string& name, std::span<std::byte> dst)>;
using AnnounceFn = std::function<Status(std::uint64_t epoch,
                                        const std::vector<std::string>& order)>;

/// How much of each delivered sample an epoch compares against
/// SyntheticContent. Every read checks its length and two sampled 8-byte
/// windows; the untimed epochs also compare a seed-chosen quarter in full.
enum class Check { kSampled, kFullQuarterA, kFullQuarterB };

struct EpochResult {
  double wall_s = 0.0;
  double cpu_s = 0.0;  // process user+sys CPU over the epoch
  std::vector<double> read_us;  // one per sample, in order position
  std::uint64_t failed = 0;
  bool traced = false;
};

class Consumers {
 public:
  Consumers(int count, const Dataset& ds, std::uint64_t seed,
            SpanRecorder* recorder, Layer root)
      : count_(count),
        ds_(ds),
        seed_(seed),
        recorder_(recorder),
        root_(root),
        shuffler_(ds.names, seed),
        dst_(count, std::vector<std::byte>(ds.max_bytes)),
        expected_(count, std::vector<std::byte>(ds.max_bytes)) {}

  EpochResult Run(std::uint64_t epoch, const AnnounceFn& announce,
                  const ReadFn& read, Check check) {
    const auto order = shuffler_.OrderFor(epoch);
    std::vector<std::size_t> idx(order.size());
    for (std::size_t i = 0; i < order.size(); ++i) idx[i] = ds_.index.at(order[i]);
    if (recorder_ != nullptr) recorder_->SetEpoch(epoch);

    EpochResult res;
    res.traced = recorder_ != nullptr && recorder_->enabled();
    res.read_us.assign(order.size(), 0.0);
    std::atomic<std::uint64_t> failed{0};
    const double cpu0 = CpuSeconds();
    const std::int64_t t0 = NowNs();
    if (Status s = announce(epoch, order); !s.ok()) {
      NoteError("announce epoch " + std::to_string(epoch) + ": " + s.ToString());
      failed += order.size();
    }
    std::vector<std::thread> threads;
    for (int w = 0; w < count_; ++w) {
      threads.emplace_back([&, w] {
        std::uint64_t bad = 0;
        auto& dst = dst_[static_cast<std::size_t>(w)];
        for (std::size_t i = static_cast<std::size_t>(w); i < order.size();
             i += static_cast<std::size_t>(count_)) {
          const std::string& name = order[i];
          const std::int64_t s = NowNs();
          const auto n = read(w, name, dst);
          const std::int64_t e = NowNs();
          res.read_us[i] = static_cast<double>(e - s) / 1e3;
          if (res.traced) {
            recorder_->Record(Span{recorder_->Request(name), s, e,
                                   static_cast<std::uint32_t>(n.ok() ? *n : 0),
                                   root_, Layer::kNone, Op::kRead});
          }
          if (!Verify(w, epoch, name, ds_.sizes[idx[i]], n, check)) ++bad;
        }
        failed += bad;
      });
    }
    for (auto& t : threads) t.join();
    res.wall_s = Seconds(NowNs() - t0);
    res.cpu_s = CpuSeconds() - cpu0;
    res.failed = failed.load();
    return res;
  }

  std::string first_error() const {
    std::lock_guard<std::mutex> lock(error_mu_);
    return first_error_;
  }

 private:
  bool Verify(int w, std::uint64_t epoch, const std::string& name,
              std::uint64_t size, const Result<std::size_t>& n, Check check) {
    if (!n.ok()) {
      NoteError(name + ": " + n.status().ToString());
      return false;
    }
    if (*n != size) {
      NoteError(name + ": " + std::to_string(*n) + " bytes, expected " +
                std::to_string(size));
      return false;
    }
    const auto& got = dst_[static_cast<std::size_t>(w)];
    auto& want = expected_[static_cast<std::size_t>(w)];
    const std::uint64_t h = Mix(seed_ ^ RequestId(epoch, name));
    for (const std::uint64_t pick : {h & 0xffffffffu, h >> 32}) {
      const std::uint64_t off = size <= 8 ? 0 : pick % (size - 8);
      const std::size_t len = static_cast<std::size_t>(std::min<std::uint64_t>(8, size));
      st::SyntheticContent::Fill(name, off, std::span(want.data(), len));
      if (std::memcmp(got.data() + off, want.data(), len) != 0) {
        NoteError(name + ": wrong bytes at offset " + std::to_string(off));
        return false;
      }
    }
    const std::uint64_t quarter = Mix(seed_ ^ RequestId(0, name)) % 4;
    if ((check == Check::kFullQuarterA && quarter == 0) ||
        (check == Check::kFullQuarterB && quarter == 1)) {
      st::SyntheticContent::Fill(name, 0, std::span(want.data(), size));
      if (std::memcmp(got.data(), want.data(), size) != 0) {
        NoteError(name + ": full compare mismatch");
        return false;
      }
    }
    return true;
  }

  void NoteError(const std::string& what) {
    std::lock_guard<std::mutex> lock(error_mu_);
    if (first_error_.empty()) first_error_ = what;
  }

  int count_;
  const Dataset& ds_;
  std::uint64_t seed_;
  SpanRecorder* recorder_;
  Layer root_;
  st::EpochShuffler shuffler_;
  std::vector<std::vector<std::byte>> dst_;
  std::vector<std::vector<std::byte>> expected_;
  mutable std::mutex error_mu_;
  std::string first_error_;
};

// --- Monitor: controller ticks and buffer-occupancy samples ----------------

class Monitor {
 public:
  static constexpr std::chrono::milliseconds kPeriod{20};
  static constexpr int kTickEvery = 5;  // 100 ms: ControllerOptions default

  Monitor(dp::Stage& stage, cp::Controller* controller, bool sample_occupancy)
      : stage_(stage), controller_(controller), sample_(sample_occupancy) {
    thread_ = std::thread([this] { Loop(); });
  }
  ~Monitor() { Stop(); }
  Monitor(const Monitor&) = delete;
  Monitor& operator=(const Monitor&) = delete;

  void SetMeasuring(bool on) { measuring_.store(on); }
  void Stop() {
    {
      std::lock_guard<std::mutex> lock(mu_);
      stop_ = true;
    }
    cv_.notify_all();
    if (thread_.joinable()) thread_.join();
  }

  // Valid after Stop().
  std::vector<double> tick_us;
  std::uint64_t knob_changes = 0;
  std::vector<double> occupancy;

 private:
  void Loop() {
    for (int i = 1;; ++i) {
      {
        std::unique_lock<std::mutex> lock(mu_);
        if (cv_.wait_for(lock, kPeriod, [this] { return stop_; })) return;
      }
      const bool measuring = measuring_.load();
      if (sample_ && measuring) {
        const auto stats = stage_.CollectStats();
        occupancy.push_back(Ratio(static_cast<double>(stats.buffer_occupancy),
                                  static_cast<double>(stats.buffer_capacity)));
      }
      if (controller_ != nullptr && i % kTickEvery == 0) {
        const std::int64_t t0 = NowNs();
        controller_->TickOnce();
        const std::int64_t t1 = NowNs();
        if (!measuring) continue;
        tick_us.push_back(static_cast<double>(t1 - t0) / 1e3);
        const auto obs = controller_->LastObservations();
        if (!obs.empty() && !obs.front().applied.Empty()) ++knob_changes;
      }
    }
  }

  dp::Stage& stage_;
  cp::Controller* controller_;
  bool sample_;
  std::atomic<bool> measuring_{false};
  std::mutex mu_;
  std::condition_variable cv_;
  bool stop_ = false;
  std::thread thread_;
};

// --- Rigs: one stage instance plus its consumers' handles ------------------

/// PyTorch path: UdsServer over prefetch over PosixBackend, one
/// TorchWorkerClient per consumer.
struct TorchRig {
  std::shared_ptr<dp::Stage> stage;
  std::unique_ptr<prisma::ipc::UdsServer> server;
  std::vector<std::unique_ptr<prisma::frameworks::TorchWorkerClient>> clients;

  TorchRig() = default;
  TorchRig(const TorchRig&) = delete;
  TorchRig& operator=(const TorchRig&) = delete;
  ~TorchRig() {
    clients.clear();
    if (server) server->Stop();
    if (stage) stage->Stop();
  }
};

Status BuildTorchRig(int consumers, SpanRecorder* rec, const char* socket,
                     TorchRig& rig) {
  std::shared_ptr<st::StorageBackend> backend =
      std::make_shared<st::PosixBackend>(kDataDir);
  if (rec != nullptr) {
    backend = std::make_shared<TimedBackend>(backend, *rec, Layer::kStorage,
                                             Layer::kStage);
  }
  dp::PrefetchOptions po;  // fixed knobs, no controller
  po.initial_producers = 2;
  po.max_producers = 2;
  po.buffer_capacity = 256;
  std::shared_ptr<dp::OptimizationObject> outer = std::make_shared<dp::PrefetchObject>(
      backend, po, prisma::SteadyClock::Shared());
  if (rec != nullptr) {
    outer = std::make_shared<TracedObject>(outer, *rec, Layer::kStage, Layer::kIpc);
  }
  rig.stage = std::make_shared<dp::Stage>(
      dp::StageInfo{"perfbench", "pytorch", 0}, outer);
  if (Status s = rig.stage->Start(); !s.ok()) return s;
  rig.server = std::make_unique<prisma::ipc::UdsServer>(socket, rig.stage);
  if (Status s = rig.server->Start(); !s.ok()) return s;
  for (int w = 0; w < consumers; ++w) {
    auto client = std::make_unique<prisma::frameworks::TorchWorkerClient>();
    if (Status s = client->Connect(socket); !s.ok()) return s;
    rig.clients.push_back(std::move(client));
  }
  return Status::Ok();
}

/// TF path: in-process TfPosixFileSystem over prefetch|tiering, a durable
/// fast tier, a real-time HDD model as the slow tier, and the PRISMA
/// autotuner attached through a Controller.
struct TfRig {
  std::shared_ptr<dp::TieringObject> tiering;
  std::shared_ptr<dp::Stage> stage;
  std::unique_ptr<cp::Controller> controller;
  std::unique_ptr<prisma::frameworks::TfPosixFileSystem> fs;

  TfRig() = default;
  TfRig(const TfRig&) = delete;
  TfRig& operator=(const TfRig&) = delete;
  ~TfRig() {
    fs.reset();
    controller.reset();
    if (stage) stage->Stop();
  }
};

Status BuildTfRig(const std::shared_ptr<st::StorageBackend>& device,
                  std::uint64_t fast_capacity, SpanRecorder* rec, TfRig& rig) {
  std::shared_ptr<st::StorageBackend> slow = device;
  // The tier lives in the run directory on the checkout's disk, where an
  // fsync per promotion would time the shared disk; on tmpfs, the tier's
  // intended home, fsync costs nothing. Without it every write still goes
  // through the tier's tmp-file, checksum and rename path.
  st::PersistentTierOptions tier_options;
  tier_options.fsync_writes = false;
  std::shared_ptr<st::StorageBackend> fast =
      std::make_shared<st::PersistentTierBackend>(kTierDir, tier_options);
  if (rec != nullptr) {
    slow = std::make_shared<TimedBackend>(slow, *rec, Layer::kStorage,
                                          Layer::kTiering);
    fast = std::make_shared<TimedRecoverableBackend>(fast, *rec, Layer::kFastTier,
                                                     Layer::kTiering);
  }
  dp::TieringOptions to;
  to.fast_tier_capacity = fast_capacity;
  to.migration_workers = 1;
  to.durable = true;
  const auto clock = prisma::SteadyClock::Shared();
  rig.tiering = std::make_shared<dp::TieringObject>(slow, fast, to, clock);
  std::shared_ptr<dp::OptimizationObject> inner = rig.tiering;
  if (rec != nullptr) {
    inner = std::make_shared<TracedObject>(inner, *rec, Layer::kTiering,
                                           Layer::kStage);
  }
  dp::PrefetchOptions po;
  po.initial_producers = 4;
  po.max_producers = 4;
  po.buffer_capacity = 64;
  std::shared_ptr<dp::OptimizationObject> outer =
      std::make_shared<dp::PrefetchObject>(
          std::make_shared<dp::ObjectBackend>(inner), po, clock);
  if (rec != nullptr) {
    outer = std::make_shared<TracedObject>(outer, *rec, Layer::kStage,
                                           Layer::kFrameworks);
  }
  rig.stage = std::make_shared<dp::Stage>(
      dp::StageInfo{"perfbench", "tensorflow", 0},
      dp::StagePipeline({outer, inner}));
  if (Status s = rig.stage->Start(); !s.ok()) return s;
  rig.controller = std::make_unique<cp::Controller>(
      "perfbench", cp::ControllerOptions{},
      [] {
        // Producers held at 4 (a probe period per step at HDD speed is
        // longer than the warm-up, so how far the climb from 1 got would
        // set each run's throughput); the tuner still sizes the buffer.
        cp::AutotunerOptions tuner;
        tuner.min_producers = 4;
        tuner.max_producers = 4;
        tuner.max_buffer = 1024;
        return std::make_unique<cp::PrismaAutotunePolicy>(tuner);
      },
      clock);
  if (Status s = rig.controller->Attach(rig.stage); !s.ok()) return s;
  rig.fs = std::make_unique<prisma::frameworks::TfPosixFileSystem>(device, rig.stage);
  return Status::Ok();
}

Result<std::size_t> TfRead(const prisma::frameworks::TfPosixFileSystem& fs,
                           const std::string& name, std::span<std::byte> dst) {
  const auto size = fs.GetFileSize(name);
  if (!size.ok()) return size.status();
  if (*size > dst.size()) return Status::OutOfRange("sample larger than buffer");
  auto file = fs.NewRandomAccessFile(name);
  if (!file.ok()) return file.status();
  return (*file)->Read(0, dst.first(static_cast<std::size_t>(*size)));
}

// --- Measurement ------------------------------------------------------------

struct Counters {
  dp::StageStatsSnapshot stage;
  dp::TieringObject::TierCounters tier;
  std::uint64_t copies = 0;
  std::uint64_t copied_bytes = 0;
  std::int64_t at_ns = 0;
};

Counters Snapshot(const dp::Stage& stage, const dp::TieringObject* tiering) {
  Counters c;
  c.stage = stage.CollectStats();
  if (tiering != nullptr) c.tier = tiering->Counters();
  c.copies = prisma::CopyAccounting::Copies();
  c.copied_bytes = prisma::CopyAccounting::CopiedBytes();
  c.at_ns = NowNs();
  return c;
}

struct EndToEnd {
  double samples_per_s = 0.0;
  double read_p50_us = 0.0;
  double read_p99_us = 0.0;
  double cpu_us_per_sample = 0.0;
  std::size_t epochs = 0;
  std::size_t samples_per_epoch = 0;
};

/// Per-epoch figures, then the median over epochs (traced or untraced
/// epochs only, as `traced` selects).
EndToEnd Summarize(const std::vector<EpochResult>& epochs, bool traced) {
  std::vector<double> rate, p50, p99, cpu;
  EndToEnd out;
  for (const auto& e : epochs) {
    if (e.traced != traced) continue;
    const double n = static_cast<double>(e.read_us.size());
    rate.push_back(Ratio(n, e.wall_s));
    p50.push_back(Percentile(e.read_us, 0.50));
    p99.push_back(Percentile(e.read_us, 0.99));
    cpu.push_back(Ratio(e.cpu_s * 1e6, n));
    out.samples_per_epoch = e.read_us.size();
  }
  out.epochs = rate.size();
  out.samples_per_s = Median(rate);
  out.read_p50_us = Median(p50);
  out.read_p99_us = Median(p99);
  out.cpu_us_per_sample = Median(cpu);
  return out;
}

std::string Fmt(const char* fmt, double v) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), fmt, v);
  return buf;
}

struct Workload {
  std::size_t files;
  double mean_bytes;
  std::uint64_t min_bytes;
  int consumers;  // closed-loop reader threads
  int setups;     // timed set-ups before the measurement
};

Workload Shape(const RunOptions& o) {
  // One reader on torch_small: on a 4-vCPU VM, with two readers its
  // throughput fell by 37% and its p99 rose 9x when other processes took
  // the idle cores; with one, throughput moved by 3%. tf_tiered is
  // storage-bound and its CPU mostly idle: four readers, so each read
  // waits for about four arrivals from storage, which holds its median
  // steady where one reader's wait for the next arrival is not.
  if (o.workload == "torch_small") {
    return {o.tiny ? 512u : 16384u, 4.0 * 1024, 512, 1, o.tiny ? 1 : 11};
  }
  // Every tf set-up recovers ~512 fast-tier entries, so five are enough.
  return {o.tiny ? 256u : 2048u, 32.0 * 1024, 4096, 4, o.tiny ? 2 : 5};
}

}  // namespace

const std::vector<std::string>& WorkloadNames() {
  static const std::vector<std::string> names = {"torch_small", "tf_tiered"};
  return names;
}

bool RunWorkload(const RunOptions& o, Report& report) {
  const bool torch = o.workload != "tf_tiered";
  const Workload shape = Shape(o);
  const Dataset ds = MakeDataset(shape.files, shape.mean_bytes, shape.min_bytes, o.seed);
  report.lines.push_back(
      "# dataset: " + std::to_string(ds.names.size()) + " files, " +
      Fmt("%.1f", static_cast<double>(ds.total_bytes) / (1 << 20)) + " MiB, mean " +
      Fmt("%.1f", static_cast<double>(ds.total_bytes) / static_cast<double>(ds.names.size()) / 1024) +
      " KiB");

  std::unique_ptr<SpanRecorder> recorder;
  if (o.trace) recorder = std::make_unique<SpanRecorder>(kSpanCapacity);
  SpanRecorder* rec = recorder.get();
  const auto fail = [&](const std::string& what, const Status& s) {
    report.lines.push_back("# error: " + what + ": " + s.ToString());
    return false;
  };

  // Inputs. For tf_tiered the slow tier is a modelled device, so only the
  // fast tier touches files.
  std::shared_ptr<st::StorageBackend> device;
  if (torch) {
    if (Status s = WriteFiles(ds, kDataDir); !s.ok()) return fail("dataset", s);
  } else {
    st::SyntheticBackendOptions so;
    so.profile = st::DeviceProfile::Hdd7200();
    so.time_scale = 1.0;
    so.seed = o.seed;
    device = std::make_shared<st::SyntheticBackend>(so, ds.catalog);
  }
  const std::uint64_t fast_capacity = ds.total_bytes / 4;

  Consumers consumers(shape.consumers, ds, o.seed, rec,
                      torch ? Layer::kIpc : Layer::kFrameworks);
  std::uint64_t epoch = 0;

  // tf_tiered: a previous stage instance fills the durable fast tier, so
  // every timed set-up below restarts over it and runs Recover().
  if (!torch) {
    TfRig first;
    if (Status s = BuildTfRig(device, fast_capacity, nullptr, first); !s.ok()) {
      return fail("first stage instance", s);
    }
    Monitor ticks(*first.stage, first.controller.get(), false);
    const auto r = consumers.Run(
        epoch++, [&](auto e, const auto& order) { return first.stage->BeginEpoch(e, order); },
        [&](int, const std::string& n, std::span<std::byte> d) { return TfRead(*first.fs, n, d); },
        Check::kFullQuarterA);
    ticks.Stop();
    report.attempted += r.read_us.size();
    report.failed += r.failed;
    // Let promotions fill the tier to its budget (or run out) so the
    // tier's contents, and with them the Recover() cost, do not depend on
    // how fast promotions happened to run.
    const std::int64_t deadline = NowNs() + 30'000'000'000;
    while (NowNs() < deadline) {
      const auto stats = first.stage->CollectStats();
      const auto* tier = stats.FindObject("tiering");
      if (tier == nullptr || tier->Get("pending_promotions") == 0.0 ||
          first.tiering->Counters().fast_bytes + ds.max_bytes >= fast_capacity) {
        break;
      }
      std::this_thread::sleep_for(std::chrono::milliseconds(20));
    }
  }

  // Set-up, several times: stage build and Start (with Recover), server
  // Start and client connects. The last instance is the one measured.
  std::unique_ptr<TorchRig> trig;
  std::unique_ptr<TfRig> frig;
  std::vector<double> setup_s;
  if (rec != nullptr) rec->Enable(true);  // times Recover() per set-up
  for (int i = 0; i < shape.setups; ++i) {
    trig.reset();
    frig.reset();
    const std::int64_t t0 = NowNs();
    Status s;
    if (torch) {
      trig = std::make_unique<TorchRig>();
      s = BuildTorchRig(shape.consumers, rec, kSocket, *trig);
    } else {
      frig = std::make_unique<TfRig>();
      s = BuildTfRig(device, fast_capacity, rec, *frig);
    }
    setup_s.push_back(Seconds(NowNs() - t0));
    if (!s.ok()) return fail("set-up", s);
  }
  if (rec != nullptr) rec->Enable(false);
  dp::Stage& stage = torch ? *trig->stage : *frig->stage;
  const dp::TieringObject* tiering = torch ? nullptr : frig->tiering.get();
  if (torch) report.engine = std::string(trig->server->engine_name());

  const AnnounceFn announce = [&](std::uint64_t e, const std::vector<std::string>& order) {
    // Epoch announcements ride consumer 0's connection (torch), or go to
    // the stage in-process (tf).
    return torch ? trig->clients[0]->AnnounceEpoch(e, order) : stage.BeginEpoch(e, order);
  };
  const ReadFn read = [&](int w, const std::string& name, std::span<std::byte> dst) {
    return torch ? trig->clients[static_cast<std::size_t>(w)]->GetItemInto(name, dst)
                 : TfRead(*frig->fs, name, dst);
  };

  std::unique_ptr<Monitor> monitor;
  if (!torch || o.trace) {
    monitor = std::make_unique<Monitor>(stage, torch ? nullptr : frig->controller.get(),
                                        o.trace);
  }

  // Warm-up: settles pool free lists and lazy set-up.
  {
    const auto r = consumers.Run(epoch++, announce, read, Check::kFullQuarterA);
    report.attempted += r.read_us.size();
    report.failed += r.failed;
  }

  // Measured epochs. A traced run alternates traced and untraced epochs,
  // so the tracing overhead is measured under the same conditions.
  std::vector<EpochResult> epochs;
  if (monitor) monitor->SetMeasuring(true);
  const Counters before = Snapshot(stage, tiering);
  const std::int64_t budget_ns = static_cast<std::int64_t>(o.seconds * 1e9);
  while (NowNs() - before.at_ns < budget_ns || epochs.size() < 3) {
    const bool traced = rec != nullptr && epochs.size() % 2 == 1;
    if (rec != nullptr) rec->Enable(traced);
    epochs.push_back(consumers.Run(epoch++, announce, read, Check::kSampled));
    if (rec != nullptr) rec->Enable(false);
    if (torch) {
      // A torch set-up takes under a millisecond, so one batch of them
      // catches whatever the host did in that millisecond. One more timed
      // set-up after every epoch (a spare stage and server on their own
      // socket) samples the whole run instead; it falls between epochs, so
      // its CPU is outside every epoch's cpu_us_per_sample.
      TorchRig spare;
      const std::int64_t t0 = NowNs();
      const Status s = BuildTorchRig(shape.consumers, nullptr, kSpareSocket, spare);
      setup_s.push_back(Seconds(NowNs() - t0));
      if (!s.ok()) return fail("set-up between epochs", s);
    }
  }
  const Counters after = Snapshot(stage, tiering);
  if (monitor) monitor->SetMeasuring(false);

  // Final untimed epoch: full compare of another quarter, after the
  // steady state has recycled every pooled buffer many times.
  {
    const auto r = consumers.Run(epoch++, announce, read, Check::kFullQuarterB);
    report.attempted += r.read_us.size();
    report.failed += r.failed;
  }
  if (monitor) monitor->Stop();

  std::uint64_t measured_samples = 0;
  for (const auto& e : epochs) {
    report.attempted += e.read_us.size();
    report.failed += e.failed;
    measured_samples += e.read_us.size();
  }
  const double samples = static_cast<double>(measured_samples);
  const double measured_s = Seconds(after.at_ns - before.at_ns);

  // Output checks beyond the bytes: the zero-copy path must make exactly
  // one copy per sample end to end.
  const double copies_per_sample =
      Ratio(static_cast<double>(after.copies - before.copies), samples);
  if (torch && std::abs(copies_per_sample - 1.0) > 5e-4) {
    report.correct = false;
    report.lines.push_back("# error: ipc.copies_per_sample = " +
                           Fmt("%.4f", copies_per_sample) + ", expected 1.000");
  }
  if (report.failed > 0) {
    report.correct = false;
    report.lines.push_back("# error: " + std::to_string(report.failed) +
                           " failed or wrong reads; first: " + consumers.first_error());
  }

  const EndToEnd e2e = Summarize(epochs, false);
  report.lines.push_back("# measured: " + std::to_string(epochs.size()) + " epochs, " +
                         std::to_string(e2e.epochs) + " untraced, " +
                         std::to_string(e2e.samples_per_epoch) +
                         " reads per epoch (per-epoch p99 sample count)");
  std::string per_epoch = "# per-epoch samples/s | read p50 us | cpu us/sample:";
  for (const auto& e : epochs) {
    const double n = static_cast<double>(e.read_us.size());
    per_epoch += Fmt(" %.0f", Ratio(n, e.wall_s)) + Fmt("|%.0f", Percentile(e.read_us, 0.5)) +
                 Fmt("|%.0f", Ratio(e.cpu_s * 1e6, n)) + (e.traced ? "t" : "");
  }
  report.lines.push_back(per_epoch);
  report.lines.push_back("# error_rate: " +
                         Fmt("%.6f", Ratio(static_cast<double>(report.failed),
                                           static_cast<double>(report.attempted))) +
                         " (" + std::to_string(report.failed) + "/" +
                         std::to_string(report.attempted) + ")");
  // The tail and the CPU cost are printed but carry no bound: on a shared
  // host the p99 follows the scheduler (identical runs spread by 8x), and
  // tf_tiered's CPU, mostly kernel time around sleeps and tier file
  // operations, spread by 27% of its median over ten seeds.
  report.lines.push_back("# read_p99_us " + Fmt("%.1f", e2e.read_p99_us) +
                         " us (per-epoch p99, median over epochs; no bound)");
  report.lines.push_back("# cpu_us_per_sample " + Fmt("%.1f", e2e.cpu_us_per_sample) +
                         " us (process user+sys, median over epochs; no bound)");
  report.end_to_end = {
      {"samples_per_s", e2e.samples_per_s, "1/s"},
      {"read_p50_us", e2e.read_p50_us, "us"},
      {"peak_rss_mb", PeakRssMb(), "MB"},
      {"setup_s", Median(setup_s), "s"},
  };
  if (!o.trace) return true;

  // --- Per-layer metrics from the traced epochs ---------------------------
  const EndToEnd traced = Summarize(epochs, true);
  double traced_wall_s = 0.0;
  double traced_samples = 0.0;
  std::size_t traced_epochs = 0;
  for (const auto& e : epochs) {
    if (!e.traced) continue;
    traced_wall_s += e.wall_s;
    traced_samples += static_cast<double>(e.read_us.size());
    ++traced_epochs;
  }
  const auto spans = rec->Spans();
  if (!o.trace_out.empty() && !rec->WriteTo(o.trace_out)) {
    report.lines.push_back("# warning: could not write spans to " + o.trace_out);
  }

  std::vector<double> stage_read_us, storage_read_us, fast_write_us, recover_s;
  std::vector<Interval> storage_busy;
  double storage_reads = 0.0, storage_bytes = 0.0, storage_busy_ns = 0.0;
  double fast_bytes_written = 0.0;
  for (const Span& s : spans) {
    const double us = static_cast<double>(s.end_ns - s.start_ns) / 1e3;
    if (s.layer == Layer::kStage && s.op == Op::kRead) stage_read_us.push_back(us);
    if (s.layer == Layer::kStorage && s.op == Op::kRead) {
      storage_read_us.push_back(us);
      storage_busy.push_back(Interval{s.start_ns, s.end_ns});
      storage_reads += 1.0;
      storage_bytes += s.bytes;
      storage_busy_ns += static_cast<double>(s.end_ns - s.start_ns);
    }
    if (s.layer == Layer::kFastTier && s.op == Op::kWrite) {
      fast_write_us.push_back(us);
      fast_bytes_written += s.bytes;
    }
    if (s.layer == Layer::kFastTier && s.op == Op::kRecover) recover_s.push_back(us / 1e6);
  }

  const Layer root = torch ? Layer::kIpc : Layer::kFrameworks;
  const std::vector<std::vector<Layer>> chain =
      torch ? std::vector<std::vector<Layer>>{{Layer::kStage}, {Layer::kStorage}}
            : std::vector<std::vector<Layer>>{{Layer::kStage},
                                              {Layer::kTiering},
                                              {Layer::kStorage, Layer::kFastTier}};
  const Breakdown bd = BreakDown(spans, root, chain);
  const auto self_p50 = [&](Layer l) {
    const auto it = bd.self_us.find(l);
    return it == bd.self_us.end() ? 0.0 : Median(it->second);
  };
  const double breakdown_p50 = Median(bd.root_us);
  // The typical read: requests between the 40th and 60th percentile.
  const auto band = BandMeans(bd, 0.4, 0.6);
  const auto at_p50 = [&](Layer l) {
    const auto it = band.find(l);
    return it == band.end() ? 0.0 : it->second;
  };
  double accounted = 0.0, sum_of_medians = 0.0;
  for (const auto& [layer, us] : band) accounted += us;
  for (const auto& [layer, v] : bd.self_us) sum_of_medians += Median(v);

  const auto& s0 = before.stage;
  const auto& s1 = after.stage;
  const double consumed = static_cast<double>(s1.samples_consumed - s0.samples_consumed);
  const double pool_hits = static_cast<double>(s1.pool_hits - s0.pool_hits);
  const double pool_misses = static_cast<double>(s1.pool_misses - s0.pool_misses);
  const double fast_hits = static_cast<double>(after.tier.fast_hits - before.tier.fast_hits);
  const double slow_reads = static_cast<double>(after.tier.slow_reads - before.tier.slow_reads);
  const auto* tier_section = s1.FindObject("tiering");
  const auto& mon = *monitor;
  const auto final_stats = stage.CollectStats();

  report.lines.push_back("# traced: " + std::to_string(traced_epochs) + " epochs, " +
                         std::to_string(bd.root_us.size()) + " joined requests, " +
                         std::to_string(spans.size()) + " spans");
  report.lines.push_back("# read at p50 by layer (mean self time, p40..p60 reads):");
  for (const auto& [layer, us] : band) {
    report.lines.push_back("#   " + std::string(LayerName(layer)) + " " + Fmt("%.2f", us) +
                           " us (" + Fmt("%.1f", Ratio(us, breakdown_p50) * 100.0) + "%)");
  }
  report.lines.push_back("#   unaccounted " + Fmt("%.2f", breakdown_p50 - accounted) +
                         " us; sum of per-layer self-time medians " +
                         Fmt("%.2f", sum_of_medians) + " us vs read p50 " +
                         Fmt("%.2f", breakdown_p50) + " us");
  report.per_layer = {
      {"ipc.self_us_p50", torch ? self_p50(Layer::kIpc) : 0.0, "us"},
      {"ipc.self_us_at_p50", at_p50(Layer::kIpc), "us"},
      {"ipc.copies_per_sample", torch ? copies_per_sample : 0.0, "count"},
      {"ipc.bytes_copied_per_sample",
       torch ? Ratio(static_cast<double>(after.copied_bytes - before.copied_bytes), samples) : 0.0,
       "B"},
      {"ipc.server_threads", torch ? static_cast<double>(trig->server->server_threads()) : 0.0,
       "count"},
      {"frameworks.self_us_p50", torch ? 0.0 : self_p50(Layer::kFrameworks), "us"},
      {"frameworks.self_us_at_p50", at_p50(Layer::kFrameworks), "us"},
      {"stage.read_us_p50", Percentile(stage_read_us, 0.50), "us"},
      {"stage.read_us_p99", Percentile(stage_read_us, 0.99), "us"},
      {"stage.self_us_p50", self_p50(Layer::kStage), "us"},
      {"stage.self_us_at_p50", at_p50(Layer::kStage), "us"},
      {"prefetch.hit_ratio", Ratio(static_cast<double>(s1.consumer_hits - s0.consumer_hits), consumed),
       "ratio"},
      {"prefetch.wait_us_per_sample",
       Ratio(static_cast<double>((s1.consumer_wait_time - s0.consumer_wait_time).count()) / 1e3,
             consumed),
       "us"},
      {"prefetch.producer_blocks_per_sample",
       Ratio(static_cast<double>(s1.producer_blocks - s0.producer_blocks), consumed), "count"},
      {"prefetch.occupancy_mean",
       mon.occupancy.empty()
           ? 0.0
           : std::accumulate(mon.occupancy.begin(), mon.occupancy.end(), 0.0) /
                 static_cast<double>(mon.occupancy.size()),
       "ratio"},
      {"prefetch.passthrough_ratio",
       Ratio(static_cast<double>(s1.passthrough_reads - s0.passthrough_reads), samples), "ratio"},
      {"pool.miss_ratio", Ratio(pool_misses, pool_hits + pool_misses), "ratio"},
      {"storage.read_us_p50", Percentile(storage_read_us, 0.50), "us"},
      {"storage.read_us_p99", Percentile(storage_read_us, 0.99), "us"},
      {"storage.blocking_us_p50", self_p50(Layer::kStorage), "us"},
      {"storage.blocking_us_at_p50", at_p50(Layer::kStorage), "us"},
      {"storage.reads_per_sample", Ratio(storage_reads, traced_samples), "count"},
      {"storage.bytes_per_sample", Ratio(storage_bytes, traced_samples), "B"},
      {"storage.inflight_mean", Ratio(storage_busy_ns / 1e9, traced_wall_s), "count"},
      {"storage.busy_share",
       Ratio(static_cast<double>(UnionLength(storage_busy)) / 1e9, traced_wall_s), "ratio"},
      {"tiering.self_us_p50", torch ? 0.0 : self_p50(Layer::kTiering), "us"},
      {"tiering.self_us_at_p50", at_p50(Layer::kTiering), "us"},
      {"tiering.fast_hit_ratio", Ratio(fast_hits, fast_hits + slow_reads), "ratio"},
      {"tiering.promotions_per_s",
       Ratio(static_cast<double>(after.tier.promotions - before.tier.promotions), measured_s),
       "1/s"},
      {"tiering.promotion_backlog",
       tier_section == nullptr ? 0.0 : tier_section->Get("pending_promotions"), "count"},
      {"tiering.demotions_per_epoch",
       Ratio(static_cast<double>(after.tier.demotions - before.tier.demotions),
             static_cast<double>(epochs.size())),
       "count"},
      {"tiering.recovered_entries", static_cast<double>(after.tier.recovered_entries), "count"},
      {"fast_tier.write_us_p50", Percentile(fast_write_us, 0.50), "us"},
      {"fast_tier.bytes_written_per_sample", Ratio(fast_bytes_written, traced_samples), "B"},
      {"fast_tier.recover_s", Median(recover_s), "s"},
      {"fast_tier.blocking_us_p50", torch ? 0.0 : self_p50(Layer::kFastTier), "us"},
      {"fast_tier.blocking_us_at_p50", at_p50(Layer::kFastTier), "us"},
      {"controller.tick_us_p50", Median(mon.tick_us), "us"},
      {"controller.knob_changes", static_cast<double>(mon.knob_changes), "count"},
      {"controller.final_producers", torch ? 0.0 : static_cast<double>(final_stats.producers),
       "count"},
      {"controller.final_buffer_capacity",
       torch ? 0.0 : static_cast<double>(final_stats.buffer_capacity), "count"},
      {"process.cpu_us_per_sample", e2e.cpu_us_per_sample, "us"},
      {"trace.read_p50_us", breakdown_p50, "us"},
      {"trace.unaccounted_us", breakdown_p50 - accounted, "us"},
      {"trace.overhead_read_p50_pct",
       Ratio(traced.read_p50_us - e2e.read_p50_us, e2e.read_p50_us) * 100.0, "%"},
      {"trace.overhead_samples_per_s_pct",
       Ratio(e2e.samples_per_s - traced.samples_per_s, e2e.samples_per_s) * 100.0, "%"},
      {"trace.spans", static_cast<double>(spans.size()), "count"},
      {"trace.dropped_spans", static_cast<double>(rec->dropped()), "count"},
  };
  return true;
}

}  // namespace perfbench
