// Measurement probes that live entirely in the benchmark: a timing
// decorator for the WAL's BlockDevice, a fixed-interval apply-lag
// sampler, registry deltas, and the percentile/format helpers every
// report line uses. None of them changes what the program does; they
// only watch calls the benchmark already makes into public interfaces.

#ifndef AVQDB_WIREBENCH_PROBES_H_
#define AVQDB_WIREBENCH_PROBES_H_

#include <algorithm>
#include <atomic>
#include <charconv>
#include <cmath>
#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <mutex>
#include <string>
#include <string_view>
#include <thread>
#include <vector>

#include "src/db/write_ahead_table.h"
#include "src/obs/metrics.h"
#include "src/storage/block_device.h"

namespace avqdb::wirebench {

using Clock = std::chrono::steady_clock;

inline uint64_t NanosBetween(Clock::time_point a, Clock::time_point b) {
  return static_cast<uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(b - a).count());
}

inline double Seconds(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double>(b - a).count();
}

// Shortest decimal that reads back as the same double: every digit the
// measurement has, and no invented ones.
// Non-finite values print as JSON null rather than as invalid JSON.
inline std::string Num(double v) {
  if (!std::isfinite(v)) return "null";
  char buf[64];
  auto [end, ec] = std::to_chars(buf, buf + sizeof buf, v);
  if (ec != std::errc()) return "0";
  return std::string(buf, end);
}

// A sample set for one percentile-reported quantity. Percentiles use the
// nearest-rank rule, so the value is always an observed sample.
class Samples {
 public:
  void Add(double v) {
    values_.push_back(v);
    sorted_ = false;
  }
  void Append(const Samples& other) {
    values_.insert(values_.end(), other.values_.begin(),
                   other.values_.end());
    sorted_ = false;
  }
  void Reserve(size_t n) { values_.reserve(n); }
  size_t size() const { return values_.size(); }
  bool empty() const { return values_.empty(); }

  double Percentile(double q) {
    if (values_.empty()) return 0.0;
    if (!sorted_) {
      std::sort(values_.begin(), values_.end());
      sorted_ = true;
    }
    const double rank = q * static_cast<double>(values_.size());
    size_t index = static_cast<size_t>(rank);
    if (static_cast<double>(index) < rank) ++index;  // ceil
    if (index > 0) --index;
    return values_[std::min(index, values_.size() - 1)];
  }
  double Max() { return Percentile(1.0); }
  // Samples strictly above the q-th percentile: the reporting rule asks
  // for at least ten beyond any percentile quoted.
  size_t BeyondPercentile(double q) {
    const double cut = Percentile(q);
    return static_cast<size_t>(
        values_.end() - std::upper_bound(values_.begin(), values_.end(), cut));
  }

 private:
  std::vector<double> values_;
  bool sorted_ = false;
};

// Latencies stamped with the time their op started, so a run can be cut
// into equal time slices and each figure reported as the median over the
// slices: one disturbed stretch of a run then moves the figure far less.
class Series {
 public:
  void Add(double at_s, double ms) { ops_.emplace_back(at_s, ms); }
  void Append(const Series& other) {
    ops_.insert(ops_.end(), other.ops_.begin(), other.ops_.end());
  }
  size_t size() const { return ops_.size(); }
  bool empty() const { return ops_.empty(); }

  Samples All() const {
    Samples out;
    out.Reserve(ops_.size());
    for (const auto& op : ops_) out.Add(op.second);
    return out;
  }

  struct Sliced {
    double value = 0;
    std::vector<double> per_slice;
    size_t min_beyond = 0;  // fewest samples beyond the percentile in a slice
  };

  // The q-th percentile, as the median over as many slices of [0, span_s)
  // (at most 10) as leave about ten samples beyond it in each.
  Sliced Percentile(double q, double span_s) const {
    const double beyond = static_cast<double>(ops_.size()) * (1.0 - q);
    const size_t k = std::clamp<size_t>(static_cast<size_t>(beyond / 10.0),
                                        1, kMaxSlices);
    std::vector<Samples> slices = Slice(span_s, k);
    Sliced out;
    out.min_beyond = ops_.size();
    for (Samples& s : slices) {
      out.per_slice.push_back(s.Percentile(q));
      out.min_beyond = std::min(out.min_beyond, s.BeyondPercentile(q));
    }
    out.value = Median(out.per_slice);
    return out;
  }

  // Ops per second, as the median over 10 slices of [0, span_s).
  Sliced Rate(double span_s) const {
    Sliced out;
    if (!(span_s > 0)) return out;
    for (const Samples& s : Slice(span_s, kMaxSlices)) {
      out.per_slice.push_back(static_cast<double>(s.size()) * kMaxSlices /
                              span_s);
    }
    out.value = Median(out.per_slice);
    return out;
  }

 private:
  static constexpr size_t kMaxSlices = 10;

  std::vector<Samples> Slice(double span_s, size_t k) const {
    std::vector<Samples> out(k);
    for (const auto& [at, ms] : ops_) {
      const double slot = at / span_s * static_cast<double>(k);
      const size_t i = slot > 0 ? static_cast<size_t>(std::min(
                                      slot, static_cast<double>(k - 1)))
                                : 0;
      out[i].Add(ms);
    }
    return out;
  }

  static double Median(std::vector<double> v) {
    if (v.empty()) return 0.0;
    std::sort(v.begin(), v.end());
    const size_t mid = v.size() / 2;
    return v.size() % 2 == 1 ? v[mid] : 0.5 * (v[mid - 1] + v[mid]);
  }

  std::vector<std::pair<double, double>> ops_;
};

// Decorates the WAL device: counts and times every Write and Sync the
// write-ahead log issues, so fsync cost and WAL bytes per op are measured
// from outside the program. Thread-safe; the device it wraps must outlive
// it.
class TimedBlockDevice final : public BlockDevice {
 public:
  explicit TimedBlockDevice(BlockDevice* inner) : inner_(inner) {}

  size_t block_size() const override { return inner_->block_size(); }
  Result<BlockId> Allocate() override { return inner_->Allocate(); }
  Status Free(BlockId id) override { return inner_->Free(id); }
  Status Read(BlockId id, std::string* out) const override {
    return inner_->Read(id, out);
  }
  Status Write(BlockId id, Slice data) override {
    const Status status = inner_->Write(id, data);
    writes_.fetch_add(1, std::memory_order_relaxed);
    bytes_.fetch_add(data.size(), std::memory_order_relaxed);
    return status;
  }
  Status Sync() override {
    const auto start = Clock::now();
    const Status status = inner_->Sync();
    const double ms = static_cast<double>(NanosBetween(start, Clock::now())) / 1e6;
    std::lock_guard<std::mutex> lock(mu_);
    ++syncs_;
    if (recording_) sync_ms_.Add(ms);
    return status;
  }
  size_t allocated_blocks() const override {
    return inner_->allocated_blocks();
  }

  struct Counts {
    uint64_t writes = 0;
    uint64_t bytes = 0;
    uint64_t syncs = 0;
  };
  Counts counts() const {
    std::lock_guard<std::mutex> lock(mu_);
    return Counts{writes_.load(std::memory_order_relaxed),
                  bytes_.load(std::memory_order_relaxed), syncs_};
  }
  // Sync durations are kept only while recording (the measured window).
  void SetRecording(bool on) {
    std::lock_guard<std::mutex> lock(mu_);
    recording_ = on;
  }
  Samples TakeSyncMs() {
    std::lock_guard<std::mutex> lock(mu_);
    Samples out = std::move(sync_ms_);
    sync_ms_ = Samples();
    return out;
  }

 private:
  BlockDevice* const inner_;
  std::atomic<uint64_t> writes_{0};
  std::atomic<uint64_t> bytes_{0};
  mutable std::mutex mu_;
  uint64_t syncs_ = 0;
  bool recording_ = false;
  Samples sync_ms_;
};

// Samples durable_seq() - applied_seq() every `interval` on its own
// thread: the unapplied window the background applier has yet to drain.
class ApplyLagSampler {
 public:
  ApplyLagSampler(const WriteAheadTable* ingest,
                  std::chrono::microseconds interval)
      : ingest_(ingest), interval_(interval) {
    thread_ = std::thread([this] { Run(); });
  }
  ~ApplyLagSampler() { Stop(); }

  ApplyLagSampler(const ApplyLagSampler&) = delete;
  ApplyLagSampler& operator=(const ApplyLagSampler&) = delete;

  void Stop() {
    {
      std::lock_guard<std::mutex> lock(mu_);
      stop_ = true;
    }
    cv_.notify_all();
    if (thread_.joinable()) thread_.join();
  }
  // Valid after Stop().
  Samples& lag() { return lag_; }

 private:
  void Run() {
    std::unique_lock<std::mutex> lock(mu_);
    while (!cv_.wait_for(lock, interval_, [this] { return stop_; })) {
      const uint64_t durable = ingest_->durable_seq();
      const uint64_t applied = ingest_->applied_seq();
      lag_.Add(durable > applied ? static_cast<double>(durable - applied)
                                 : 0.0);
    }
  }

  const WriteAheadTable* const ingest_;
  const std::chrono::microseconds interval_;
  std::mutex mu_;
  std::condition_variable cv_;
  bool stop_ = false;
  Samples lag_;
  std::thread thread_;  // last: starts after every member it reads
};

// Registry deltas between two snapshots (taken over the wire with
// Client::FetchStats).
inline uint64_t CounterValue(const obs::MetricsSnapshot& snap,
                             std::string_view name) {
  for (const auto& c : snap.counters) {
    if (c.name == name) return c.value;
  }
  return 0;
}

inline uint64_t CounterDelta(const obs::MetricsSnapshot& before,
                             const obs::MetricsSnapshot& after,
                             std::string_view name) {
  return CounterValue(after, name) - CounterValue(before, name);
}

// The histogram of observations recorded between two snapshots.
inline obs::MetricsSnapshot::HistogramSample HistogramDelta(
    const obs::MetricsSnapshot& before, const obs::MetricsSnapshot& after,
    std::string_view name) {
  obs::MetricsSnapshot::HistogramSample out{std::string(name), 0, 0, {}};
  const obs::MetricsSnapshot::HistogramSample* a = nullptr;
  const obs::MetricsSnapshot::HistogramSample* b = nullptr;
  for (const auto& h : before.histograms) {
    if (h.name == name) a = &h;
  }
  for (const auto& h : after.histograms) {
    if (h.name == name) b = &h;
  }
  if (b == nullptr) return out;
  out.count = b->count - (a != nullptr ? a->count : 0);
  out.sum = b->sum - (a != nullptr ? a->sum : 0);
  for (const auto& [le, count] : b->buckets) {
    uint64_t earlier = 0;
    if (a != nullptr) {
      for (const auto& [ale, acount] : a->buckets) {
        if (ale == le) earlier = acount;
      }
    }
    if (count > earlier) out.buckets.emplace_back(le, count - earlier);
  }
  return out;
}

}  // namespace avqdb::wirebench

#endif  // AVQDB_WIREBENCH_PROBES_H_
