// Shared pieces of the end-to-end benchmark: the read-timing Storage
// wrapper, the independent brute-force ground truth, order statistics
// and the metric sink that prints the final JSON line.
#ifndef IQPERF_BENCH_UTIL_H_
#define IQPERF_BENCH_UTIL_H_

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <iterator>
#include <map>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "common/result.h"
#include "common/status.h"
#include "data/dataset.h"
#include "geom/neighbor.h"
#include "io/disk_model.h"
#include "io/storage.h"

namespace iqperf {

using Clock = std::chrono::steady_clock;

inline double Seconds(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double>(b - a).count();
}

/// Aborts the run (non-zero exit, no result line) on a library error:
/// the benchmark's workloads are chosen so that no operation fails.
[[noreturn]] inline void Die(const std::string& what) {
  std::fprintf(stderr, "iqperf: FAILED: %s\n", what.c_str());
  std::exit(2);
}

inline void Check(const iq::Status& s, const char* what) {
  if (!s.ok()) Die(std::string(what) + ": " + s.ToString());
}

template <typename T>
T Take(iq::Result<T> r, const char* what) {
  if (!r.ok()) Die(std::string(what) + ": " + r.status().ToString());
  return std::move(r).value();
}

// ---------------------------------------------------------------------------
// Storage wrapper

/// Read timers of one TimingStorage. Reads are timed only while
/// `timing` is set (the traced passes); the untraced passes pay one
/// relaxed load per read.
struct StorageTimers {
  /// Read time of all files, and of the quantized-page files alone.
  std::atomic<uint64_t> read_ns{0};
  std::atomic<uint64_t> qpg_read_ns{0};
  std::atomic<bool> timing{false};
};

/// Storage over MemoryStorage that, when asked, times every File read,
/// remembers the files it created so the index size can be summed, and
/// can copy its contents into a fresh instance (the churn workload
/// restarts every pass from the same bulk-loaded bytes).
class TimingStorage : public iq::Storage {
 public:
  iq::Result<std::shared_ptr<iq::File>> Open(const std::string& name) override {
    auto it = files_.find(name);
    if (it == files_.end()) return iq::Status::NotFound(name);
    return std::shared_ptr<iq::File>(it->second);
  }
  iq::Result<std::shared_ptr<iq::File>> Create(
      const std::string& name) override {
    auto inner = inner_.Create(name);
    if (!inner.ok()) return inner.status();
    auto file = std::make_shared<TimingFile>(std::move(inner).value(),
                                               &timers_, IsQpg(name));
    files_[name] = file;
    return std::shared_ptr<iq::File>(file);
  }
  bool Exists(const std::string& name) const override {
    return files_.count(name) != 0;
  }
  iq::Status Delete(const std::string& name) override {
    files_.erase(name);
    return inner_.Delete(name);
  }

  /// Bytes of every live file.
  uint64_t TotalBytes() const {
    uint64_t total = 0;
    for (const auto& [name, file] : files_) total += file->Size();
    return total;
  }

  /// Writes a copy of every file into `out` (uncounted on both sides).
  void CopyInto(TimingStorage* out) const {
    for (const auto& [name, file] : files_) {
      std::vector<uint8_t> bytes(file->Size());
      if (!bytes.empty()) {
        Check(file->inner()->Read(0, bytes.size(), bytes.data()), "copy read");
      }
      auto created = out->inner_.Create(name);
      Check(created.status(), "copy create");
      std::shared_ptr<iq::File> raw = std::move(created).value();
      if (!bytes.empty()) {
        Check(raw->Write(0, bytes.size(), bytes.data()), "copy write");
      }
      out->files_[name] = std::make_shared<TimingFile>(
          std::move(raw), &out->timers_, IsQpg(name));
    }
  }

  /// Uncounted read of `length` bytes at `offset` of file `name`.
  void ReadRaw(const std::string& name, uint64_t offset, uint64_t length,
               void* out) const {
    auto it = files_.find(name);
    if (it == files_.end()) Die("no file " + name);
    Check(it->second->inner()->Read(offset, length, out), "raw read");
  }

  StorageTimers& timers() { return timers_; }

 private:
  static bool IsQpg(const std::string& name) {
    return name.size() > 4 && name.compare(name.size() - 4, 4, ".qpg") == 0;
  }

  class TimingFile : public iq::File {
   public:
    TimingFile(std::shared_ptr<iq::File> inner, StorageTimers* c,
                 bool qpg)
        : inner_(std::move(inner)), c_(c), qpg_(qpg) {}
    iq::Status Read(uint64_t offset, uint64_t length,
                    void* out) const override {
      if (!c_->timing.load(std::memory_order_relaxed)) {
        return inner_->Read(offset, length, out);
      }
      const auto t0 = Clock::now();
      iq::Status s = inner_->Read(offset, length, out);
      const uint64_t ns = Nanos(t0);
      c_->read_ns.fetch_add(ns, std::memory_order_relaxed);
      if (qpg_) c_->qpg_read_ns.fetch_add(ns, std::memory_order_relaxed);
      return s;
    }
    iq::Status Write(uint64_t offset, uint64_t length,
                     const void* data) override {
      return inner_->Write(offset, length, data);
    }
    iq::Status Resize(uint64_t size) override { return inner_->Resize(size); }
    uint64_t Size() const override { return inner_->Size(); }
    const std::shared_ptr<iq::File>& inner() const { return inner_; }

   private:
    static uint64_t Nanos(Clock::time_point t0) {
      return static_cast<uint64_t>(
          std::chrono::duration_cast<std::chrono::nanoseconds>(Clock::now() -
                                                               t0)
              .count());
    }
    std::shared_ptr<iq::File> inner_;
    StorageTimers* c_;
    bool qpg_;
  };

  iq::MemoryStorage inner_;
  std::map<std::string, std::shared_ptr<TimingFile>> files_;
  StorageTimers timers_;
};

// ---------------------------------------------------------------------------
// Ground truth

/// The benchmark's own copy of the live points and its own brute-force
/// L2 search over them. It shares no code with the library's searches
/// (no SeqScan, no VaFile, no FilterKernel). Coordinates are kept twice:
/// row-major for the exact double distances every answer is checked
/// with, and one float column per dimension for a vectorizable
/// preselection pass whose candidates are then recomputed exactly.
class BruteForce {
 public:
  explicit BruteForce(size_t dims) : dims_(dims), cols_(dims) {}

  void Add(iq::PointId id, const float* p) {
    if (id >= slot_.size()) slot_.resize(id + 1, kNone);
    slot_[id] = ids_.size();
    ids_.push_back(id);
    coords_.insert(coords_.end(), p, p + dims_);
    for (size_t j = 0; j < dims_; ++j) cols_[j].push_back(p[j]);
  }

  /// Removes `id` (swap with the last live point).
  void Remove(iq::PointId id) {
    const size_t s = slot_[id];
    const size_t last = ids_.size() - 1;
    if (s != last) {
      ids_[s] = ids_[last];
      std::copy(coords_.begin() + last * dims_,
                coords_.begin() + (last + 1) * dims_,
                coords_.begin() + s * dims_);
      for (std::vector<float>& c : cols_) c[s] = c[last];
      slot_[ids_[s]] = s;
    }
    ids_.pop_back();
    coords_.resize(last * dims_);
    for (std::vector<float>& c : cols_) c.pop_back();
    slot_[id] = kNone;
  }

  bool Live(iq::PointId id) const {
    return id < slot_.size() && slot_[id] != kNone;
  }
  size_t size() const { return ids_.size(); }
  iq::PointId id_at(size_t i) const { return ids_[i]; }
  const float* point(iq::PointId id) const {
    return coords_.data() + slot_[id] * dims_;
  }

  double Dist(const float* q, const float* p) const {
    double s = 0.0;
    for (size_t j = 0; j < dims_; ++j) {
      const double d = static_cast<double>(q[j]) - static_cast<double>(p[j]);
      s += d * d;
    }
    return std::sqrt(s);
  }

  /// The k smallest distances from `q`, ascending.
  std::vector<double> KnnDistances(const float* q, size_t k) const {
    const size_t n = ids_.size();
    k = std::min(k, n);
    if (k == 0) return {};
    std::vector<float> f;
    SquaredFloat(q, n, &f);
    std::vector<float> sorted = f;
    std::nth_element(sorted.begin(), sorted.begin() + (k - 1), sorted.end());
    const float limit = Widen(sorted[k - 1]);
    std::vector<double> d;
    for (size_t i = 0; i < n; ++i) {
      if (f[i] <= limit) d.push_back(Dist(q, coords_.data() + i * dims_));
    }
    std::partial_sort(d.begin(), d.begin() + k, d.end());
    d.resize(k);
    return d;
  }

  /// Ids within `radius` of `q`, sorted.
  std::vector<iq::PointId> RangeIds(const float* q, double radius) const {
    std::vector<float> f;
    SquaredFloat(q, ids_.size(), &f);
    const float limit = Widen(static_cast<float>(radius * radius));
    std::vector<iq::PointId> out;
    for (size_t i = 0; i < ids_.size(); ++i) {
      if (f[i] <= limit && Dist(q, coords_.data() + i * dims_) <= radius) {
        out.push_back(ids_[i]);
      }
    }
    std::sort(out.begin(), out.end());
    return out;
  }

 private:
  /// Squared float distances from `q` to the first `n` live points.
  void SquaredFloat(const float* q, size_t n, std::vector<float>* out) const {
    out->assign(n, 0.0f);
    float* o = out->data();
    for (size_t j = 0; j < dims_; ++j) {
      const float qj = q[j];
      const float* c = cols_[j].data();
      for (size_t i = 0; i < n; ++i) {
        const float d = qj - c[i];
        o[i] += d * d;
      }
    }
  }

  /// A float bound safely above every exact value it stands for: the
  /// float sums are within a few ulps per term of the double ones.
  static float Widen(float v) { return v * (1.0f + 1e-4f) + 1e-30f; }

  static constexpr size_t kNone = static_cast<size_t>(-1);
  size_t dims_;
  std::vector<iq::PointId> ids_;
  std::vector<float> coords_;
  std::vector<std::vector<float>> cols_;
  std::vector<size_t> slot_;
};

/// The yardstick of the wall-clock metrics. The host this benchmark is
/// written for drifts in speed for tens of seconds at a time, so a wall
/// time alone does not repeat. Sample() times a fixed piece of CPU work
/// (sorting a copy of 4096 fixed pseudo-random floats, the same in every
/// workload and run) and is called between the operations being
/// measured; Unit() is the median of the samples since the last Unit().
/// A wall time divided by the unit of the same stretch of the run is in
/// "ref" units, and host drift cancels out of it. A branchy sort tracks
/// the library's query and update paths far better than a vectorized
/// scan, which slows down much more than they do when the host is busy.
class ReferenceClock {
 public:
  static constexpr size_t kValues = 4096;

  ReferenceClock() : values_(kValues), scratch_(kValues) {
    uint64_t x = 0x9E3779B97F4A7C15ull;  // fixed: not workload data
    for (float& v : values_) {
      x = x * 6364136223846793005ull + 1442695040888963407ull;
      v = static_cast<float>(x >> 40) / static_cast<float>(1 << 24);
    }
  }

  void Sample() {
    const auto t0 = Clock::now();
    std::copy(values_.begin(), values_.end(), scratch_.begin());
    std::sort(scratch_.begin(), scratch_.end());
    samples_.push_back(Seconds(t0, Clock::now()));
    if (scratch_.front() > scratch_.back()) Die("reference sort failed");
  }

  /// Median sample (seconds) since the last call; resets the samples.
  double Unit() {
    if (samples_.empty()) Die("reference clock read without samples");
    std::vector<double> s;
    s.swap(samples_);
    std::nth_element(s.begin(), s.begin() + s.size() / 2, s.end());
    return s[s.size() / 2];
  }

 private:
  std::vector<float> values_;
  std::vector<float> scratch_;
  std::vector<double> samples_;
};

/// Median ReferenceClock unit of the reference machine (a 4-vCPU KVM
/// guest, measured while the host was quiet). setup_s is the bulk
/// load's wall time in reference units times this constant: seconds as
/// that machine runs when it is not drifting.
inline constexpr double kReferenceUnitS = 175e-6;

/// One cold bulk load, timed once.
struct SetupTime {
  double wall_s = 0;  // as measured
  double ref = 0;     // in ReferenceClock units of the same moment
  double seconds() const { return ref * kReferenceUnitS; }
};

/// Times `load()`, one bulk load, and samples the reference task just
/// before and just after it: host drift lasts tens of seconds, far
/// longer than a load. A run reports its first, cold load (main.cc).
template <typename Load>
SetupTime TimeSetup(Load&& load) {
  constexpr int kSamples = 25;
  ReferenceClock clock;
  for (int i = 0; i < kSamples; ++i) clock.Sample();
  const auto t0 = Clock::now();
  load();
  SetupTime out;
  out.wall_s = Seconds(t0, Clock::now());
  for (int i = 0; i < kSamples; ++i) clock.Sample();
  out.ref = out.wall_s / clock.Unit();
  return out;
}

/// Tolerance for comparing the library's double distances with the
/// benchmark's: both sum the same float differences in double, but the
/// library may use a different summation order (SIMD batches).
inline double Tol(double d) { return 1e-9 * std::max(1.0, d); }

/// Checks one kNN answer. Ties at the k-th distance: any of the tied
/// points may fill the last places, so the answer is correct when its
/// distances equal the true k smallest distances position by position,
/// every returned id is live, distinct, and lies at the distance
/// reported for it.
inline bool KnnCorrect(const BruteForce& bf, const float* q, size_t k,
                       const std::vector<double>& truth,
                       const std::vector<iq::Neighbor>& got) {
  if (got.size() != truth.size() || got.size() != std::min(k, bf.size())) {
    return false;
  }
  std::vector<iq::PointId> seen;
  for (size_t i = 0; i < got.size(); ++i) {
    if (std::abs(got[i].distance - truth[i]) > Tol(truth[i])) return false;
    if (!bf.Live(got[i].id)) return false;
    const double own = bf.Dist(q, bf.point(got[i].id));
    if (std::abs(own - got[i].distance) > Tol(own)) return false;
    seen.push_back(got[i].id);
  }
  std::sort(seen.begin(), seen.end());
  return std::adjacent_find(seen.begin(), seen.end()) == seen.end();
}

/// Checks one range answer against the ids the brute force found within
/// the radius: the answer must hold exactly those ids, each once and at
/// its own distance, except points within Tol of the boundary, which
/// may fall on either side.
inline bool RangeCorrect(const BruteForce& bf, const float* q, double radius,
                         const std::vector<iq::PointId>& truth,
                         const std::vector<iq::Neighbor>& got) {
  std::vector<iq::PointId> ids;
  ids.reserve(got.size());
  for (const iq::Neighbor& n : got) {
    if (n.distance > radius || !bf.Live(n.id)) return false;
    const double own = bf.Dist(q, bf.point(n.id));
    if (std::abs(own - n.distance) > Tol(own)) return false;
    ids.push_back(n.id);
  }
  std::sort(ids.begin(), ids.end());
  if (std::adjacent_find(ids.begin(), ids.end()) != ids.end()) return false;
  auto near_boundary = [&](iq::PointId id) {
    return std::abs(bf.Dist(q, bf.point(id)) - radius) <= Tol(radius);
  };
  std::vector<iq::PointId> only_got;
  std::vector<iq::PointId> only_truth;
  std::set_difference(ids.begin(), ids.end(), truth.begin(), truth.end(),
                      std::back_inserter(only_got));
  std::set_difference(truth.begin(), truth.end(), ids.begin(), ids.end(),
                      std::back_inserter(only_truth));
  return std::all_of(only_got.begin(), only_got.end(), near_boundary) &&
         std::all_of(only_truth.begin(), only_truth.end(), near_boundary);
}

// ---------------------------------------------------------------------------
// Statistics

/// Linear-interpolated quantile (q in [0, 1]) of `v`; copies.
inline double Quantile(std::vector<double> v, double q) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const double pos = q * static_cast<double>(v.size() - 1);
  const size_t lo = static_cast<size_t>(std::floor(pos));
  const size_t hi = std::min(lo + 1, v.size() - 1);
  return v[lo] + (v[hi] - v[lo]) * (pos - static_cast<double>(lo));
}

inline double Median(const std::vector<double>& v) { return Quantile(v, 0.5); }

inline double Mean(const std::vector<double>& v) {
  double s = 0.0;
  for (double x : v) s += x;
  return v.empty() ? 0.0 : s / static_cast<double>(v.size());
}

/// Simulated seconds of one directory scan: a seek plus the directory's
/// blocks (the lower bound of every query's I/O).
inline double DirScanFloor(const iq::DiskParameters& disk, size_t pages,
                           size_t dir_entry_bytes) {
  const uint64_t bytes = std::max<uint64_t>(pages * dir_entry_bytes, 1);
  const uint64_t blocks = (bytes + disk.block_size - 1) / disk.block_size;
  return disk.seek_time_s + static_cast<double>(blocks) * disk.xfer_time_s;
}

/// Simulated seconds of an I/O delta, from its counts: a seek costs
/// t_seek, every block moved t_xfer. Unlike differences of the
/// DiskModel clock this is exact, so passes can be compared with ==.
inline double SimSeconds(const iq::IoStats& d, const iq::DiskParameters& p) {
  return static_cast<double>(d.seeks) * p.seek_time_s +
         static_cast<double>(d.blocks_read + d.blocks_written) * p.xfer_time_s;
}

// ---------------------------------------------------------------------------
// Result line

struct Metric {
  std::string name;
  double value;
  std::string unit;
};

/// Collects the run's metrics and counts and prints them: one human
/// line per metric, then the JSON object as the last line of stdout.
class Report {
 public:
  void Add(const std::string& name, double value, const std::string& unit) {
    metrics_.push_back(Metric{name, value, unit});
  }
  /// A figure printed for people but kept out of the JSON result: wall
  /// times that host drift keeps from repeating (see ReferenceClock).
  void Info(const std::string& name, double value, const std::string& unit) {
    info_.push_back(Metric{name, value, unit});
  }
  void Attempt(uint64_t n = 1) { attempted_ += n; }
  /// Records a wrong answer or broken property; the run still finishes
  /// and reports correct=false.
  void Wrong(const std::string& what) {
    if (wrong_ < 20) std::fprintf(stderr, "iqperf: WRONG: %s\n", what.c_str());
    ++wrong_;
  }
  void Expect(bool ok, const std::string& what) {
    if (!ok) Wrong(what);
  }
  uint64_t wrong() const { return wrong_; }

  void Print() const {
    for (const Metric& m : metrics_) {
      std::printf("%-40s %.6g %s\n", m.name.c_str(), m.value, m.unit.c_str());
    }
    for (const Metric& m : info_) {
      std::printf("(info) %-33s %.6g %s\n", m.name.c_str(), m.value,
                  m.unit.c_str());
    }
    std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": 0, "
                "\"metrics\": {",
                wrong_ == 0 ? "true" : "false",
                static_cast<unsigned long long>(attempted_));
    for (size_t i = 0; i < metrics_.size(); ++i) {
      const double v = std::isfinite(metrics_[i].value) ? metrics_[i].value : 0.0;
      std::printf("%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}",
                  i == 0 ? "" : ", ", metrics_[i].name.c_str(), v,
                  metrics_[i].unit.c_str());
    }
    std::printf("}}\n");
    std::fflush(stdout);
  }

 private:
  std::vector<Metric> metrics_;
  std::vector<Metric> info_;
  uint64_t attempted_ = 0;
  uint64_t wrong_ = 0;
};

}  // namespace iqperf

#endif  // IQPERF_BENCH_UTIL_H_
