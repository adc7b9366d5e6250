// weather9-churn: writes beside reads on one IqTree. After the bulk
// load, every pass restarts from a copy of the bulk-loaded bytes and
// runs the same fixed cycles: InsertBatch, single Inserts, Removes,
// Flush, kNN and range queries feeding a PageStatsCollector, one
// maintenance round. The final index and every simulated figure are
// therefore the same in every pass.
#include <algorithm>
#include <cmath>
#include <random>

#include "data/generators.h"
#include "maint/maintenance_scheduler.h"
#include "workloads.h"

namespace iqperf {

namespace {

constexpr char kIndex[] = "idx";
constexpr size_t kDims = 9;
constexpr size_t kBulkPoints = 50000;
constexpr size_t kCycles = 8;
constexpr size_t kBatchInserts = 250;
constexpr size_t kSingleInserts = 25;
constexpr size_t kRemoves = 250;
constexpr size_t kQueriesPerCycle = 100;
constexpr size_t kRangesPerCycle = 40;
constexpr size_t kK = 10;
constexpr double kRadius = 0.035;
constexpr int kPassesPer10s = 3;

/// What one pass measured.
struct ChurnPass {
  QueryPass knn;    // all cycles' kNN queries
  QueryPass range;  // all cycles' range queries
  double insert_s = 0;
  double remove_s = 0;
  double round_s = 0;
  size_t inserted = 0;
  size_t removed = 0;
  size_t actions = 0;
  iq::IoStats update_io;  // InsertBatch + Insert + Remove + Flush
  double bytes_per_point = 0;
  double unit_s = 0;  // ReferenceClock unit of the pass
};

iq::Dataset Rows(const iq::Dataset& d, size_t first, size_t count) {
  return iq::Dataset(d.dims(), std::vector<float>(d.row(first),
                                                  d.row(first) + count *
                                                                     d.dims()));
}

void AppendPass(const QueryPass& from, QueryPass* into) {
  into->io_s.insert(into->io_s.end(), from.io_s.begin(), from.io_s.end());
  into->wall_us.insert(into->wall_us.end(), from.wall_us.begin(),
                       from.wall_us.end());
  into->io.seeks += from.io.seeks;
  into->io.blocks_read += from.io.blocks_read;
  into->io.blocks_written += from.io.blocks_written;
  into->stats.pages_decoded += from.stats.pages_decoded;
  into->stats.blocks_transferred += from.stats.blocks_transferred;
  into->stats.batches += from.stats.batches;
  into->stats.refinements += from.stats.refinements;
  into->stats.cells_enqueued += from.stats.cells_enqueued;
  into->results += from.results;
}

class ChurnRunner {
 public:
  ChurnRunner(const RunArgs& args, uint64_t seed, Report* report)
      : args_(args), seed_(seed), report_(report), bf0_(kDims) {}

  void Run(Figures* out) {
    const size_t inserts = kCycles * (kBatchInserts + kSingleInserts);
    const size_t queries = kCycles * kQueriesPerCycle;
    const size_t ranges = kCycles * kRangesPerCycle;
    iq::Dataset data = iq::GenerateWeatherLike(
        kBulkPoints + inserts + queries + ranges, kDims, seed_);
    const iq::Dataset range_rows = data.TakeTail(ranges);
    const iq::Dataset query_rows = data.TakeTail(queries);
    pool_ = data.TakeTail(inserts);
    for (size_t c = 0; c < kCycles; ++c) {
      cycle_queries_.push_back(
          Rows(query_rows, c * kQueriesPerCycle, kQueriesPerCycle));
      cycle_ranges_.push_back(
          Rows(range_rows, c * kRangesPerCycle, kRangesPerCycle));
    }
    for (size_t i = 0; i < data.size(); ++i) {
      bf0_.Add(static_cast<iq::PointId>(i), data.row(i));
    }

    iq::DiskModel build_disk;
    iq::IqTree::Options options;
    options.optimize_for_k = kK;
    std::unique_ptr<iq::IqTree> built;
    const SetupTime setup = TimeSetup([&] {
      built = Take(
          iq::IqTree::Build(data, pristine_, kIndex, build_disk, options),
          "Build");
    });
    report_->Expect(built->size() == data.size(), "index size after build");

    // Pass 0 computes the ground truth after every cycle and is the
    // reference every later pass must repeat exactly.
    const ChurnPass ref = RunPass(/*traced=*/nullptr);
    const int passes = PassCount(args_.seconds, kPassesPer10s);
    std::vector<WallPass> knn, range, traced;
    std::vector<double> ins, rem, ins_us, rem_us;
    std::vector<double> ins_us_traced, rem_us_traced, round_ms;
    std::vector<MetricMap> layers;
    PassTrace last_trace;
    for (int p = 0; p < passes; ++p) {
      const ChurnPass pass = RunPass(nullptr);
      Compare(ref, pass);
      knn.push_back(WallPass{pass.knn.wall_us, pass.unit_s});
      range.push_back(WallPass{pass.range.wall_us, pass.unit_s});
      ins.push_back(pass.insert_s / pass.unit_s /
                    static_cast<double>(pass.inserted));
      rem.push_back(pass.remove_s / pass.unit_s /
                    static_cast<double>(pass.removed));
      ins_us.push_back(pass.insert_s * 1e6 /
                       static_cast<double>(pass.inserted));
      rem_us.push_back(pass.remove_s * 1e6 /
                       static_cast<double>(pass.removed));
      if (args_.trace) {
        PassTrace trace;
        const ChurnPass t = RunPass(&trace);
        Compare(ref, t);
        traced.push_back(WallPass{t.knn.wall_us, t.unit_s});
        layers.push_back(QueryLayerMetrics(trace, t.knn));
        ins_us_traced.push_back(t.insert_s * 1e6 /
                                static_cast<double>(t.inserted));
        rem_us_traced.push_back(t.remove_s * 1e6 /
                                static_cast<double>(t.removed));
        round_ms.push_back(t.round_s * 1e3 / kCycles);
        last_trace = std::move(trace);
      }
    }

    const double updated = static_cast<double>(ref.inserted + ref.removed);
    MetricMap& m = out->metrics;
    if (!args_.trace) {
      m["knn_io_ms"] = Mean(ref.knn.io_s) * 1e3;
      m["knn_io_ms_p99"] = Quantile(ref.knn.io_s, 0.99) * 1e3;
      AddWall("knn", MedianOf(knn), out);
      m["range_io_ms"] = Mean(ref.range.io_s) * 1e3;
      AddWall("range", MedianOf(range), out);
      out->info["range_results_per_query"] =
          static_cast<double>(ref.range.results) /
          static_cast<double>(ref.range.io_s.size());
      // Only this workload writes, so the write figures cannot be in
      // the result line, which carries the same metrics on every
      // workload.
      out->info["insert_wall_ref_per_pt"] = Median(ins);
      out->info["remove_wall_ref_per_pt"] = Median(rem);
      out->info["insert_wall_us_per_pt"] = Median(ins_us);
      out->info["remove_wall_us_per_pt"] = Median(rem_us);
      out->info["write_io_ms_per_pt"] =
          SimSeconds(ref.update_io, build_disk.params()) * 1e3 / updated;
      AddSetup(setup, out);
      m["index_bytes_per_point"] = ref.bytes_per_point;
      m["peak_rss_mb"] = PeakRssMb();
      return;
    }

    SetQueryLayers(MedianOf(layers), out);
    AddPageCosts(last_trace, data, query_rows, kK, &m);
    out->info["core.insert_us_per_point"] = Median(ins_us_traced);
    out->info["core.remove_us_per_point"] = Median(rem_us_traced);
    out->info["maint.round_ms"] = Median(round_ms);
    out->info["io.blocks_written_per_updated_point"] =
        static_cast<double>(ref.update_io.blocks_written) / updated;
    out->info["maint.actions_per_round"] =
        static_cast<double>(ref.actions) / static_cast<double>(kCycles);
    AddBuildPhases(data, *built, &m);
    AddCostModelError(final_predicted_, Mean(last_cycle_io_), out);
    m["obs.trace_overhead_pct"] =
        (MedianOf(traced).mean_ref / MedianOf(knn).mean_ref - 1.0) * 100.0;
  }

 private:
  ChurnPass RunPass(PassTrace* trace) {
    ChurnPass out;
    TimingStorage storage;
    pristine_.CopyInto(&storage);
    iq::DiskModel disk;
    std::unique_ptr<iq::IqTree> tree =
        Take(iq::IqTree::Open(storage, kIndex, disk), "Open");
    iq::obs::PageStatsCollector collector;
    iq::maint::MaintenanceScheduler::Options mopt;
    iq::maint::MaintenanceScheduler maint(tree.get(), &collector, mopt);
    BruteForce bf = bf0_;
    std::mt19937_64 rng(seed_);
    const bool reference = truth_.empty();
    size_t next_insert = 0;
    ReferenceClock clock;
    PassOptions qopt;
    qopt.reference = &clock;
    qopt.page_stats = &collector;
    qopt.trace = trace;
    qopt.storage = trace != nullptr ? &storage : nullptr;

    for (size_t c = 0; c < kCycles; ++c) {
      const iq::IoStats io0 = disk.stats();
      // Inserts: one batch, then single points.
      std::vector<iq::PointId> ids(kBatchInserts);
      for (size_t i = 0; i < kBatchInserts; ++i) {
        ids[i] = static_cast<iq::PointId>(kBulkPoints + next_insert + i);
      }
      const iq::Dataset batch = Rows(pool_, next_insert, kBatchInserts);
      auto t0 = Clock::now();
      Check(tree->InsertBatch(ids, batch), "InsertBatch");
      out.insert_s += Seconds(t0, Clock::now());
      clock.Sample();
      report_->Attempt();
      for (size_t i = 0; i < kBatchInserts; ++i) {
        bf.Add(ids[i], batch.row(i));
      }
      next_insert += kBatchInserts;
      for (size_t i = 0; i < kSingleInserts; ++i, ++next_insert) {
        const auto id = static_cast<iq::PointId>(kBulkPoints + next_insert);
        t0 = Clock::now();
        Check(tree->Insert(id, pool_[next_insert]), "Insert");
        out.insert_s += Seconds(t0, Clock::now());
        report_->Attempt();
        bf.Add(id, pool_.row(next_insert));
      }
      clock.Sample();
      out.inserted += kBatchInserts + kSingleInserts;
      // Removes of live ids drawn by the benchmark's own generator.
      std::vector<float> p(kDims);
      for (size_t i = 0; i < kRemoves; ++i) {
        const iq::PointId id = bf.id_at(rng() % bf.size());
        std::copy(bf.point(id), bf.point(id) + kDims, p.begin());
        t0 = Clock::now();
        Check(tree->Remove(id, iq::PointView(p.data(), kDims)), "Remove");
        out.remove_s += Seconds(t0, Clock::now());
        report_->Attempt();
        bf.Remove(id);
      }
      clock.Sample();
      out.removed += kRemoves;
      Check(tree->Flush(), "Flush");
      report_->Attempt();
      const iq::IoStats d = disk.stats() - io0;
      out.update_io.seeks += d.seeks;
      out.update_io.blocks_read += d.blocks_read;
      out.update_io.blocks_written += d.blocks_written;
      report_->Expect(tree->size() == bf.size(),
                      "size() differs from the live count after cycle " +
                          std::to_string(c));

      if (reference) {
        truth_.push_back(ComputeTruth(bf, cycle_queries_[c], kK,
                                      cycle_ranges_[c], kRadius));
      }
      const QueryPass q =
          RunQueryPass(*tree, disk, cycle_queries_[c], QueryKind::kKnn, kK,
                       0, bf, truth_[c], report_, qopt);
      AppendPass(q, &out.knn);
      if (c + 1 == kCycles) last_cycle_io_ = q.io_s;
      // Range queries are not traced: the layer figures are per kNN query.
      PassOptions ropt = qopt;
      ropt.trace = nullptr;
      ropt.storage = nullptr;
      AppendPass(RunQueryPass(*tree, disk, cycle_ranges_[c],
                              QueryKind::kRange, 0, kRadius, bf, truth_[c],
                              report_, ropt),
                 &out.range);

      t0 = Clock::now();
      const iq::maint::MaintenanceRound round =
          Take(maint.RunRound(), "RunRound");
      out.round_s += Seconds(t0, Clock::now());
      report_->Attempt();
      report_->Expect(round.failed == 0, "maintenance action failed");
      out.actions += round.applied;
    }
    out.bytes_per_point = static_cast<double>(storage.TotalBytes()) /
                          static_cast<double>(tree->size());
    report_->Expect(out.bytes_per_point >= 4.0 * kDims + 4.0,
                    "index smaller than the exact coordinates");
    final_predicted_ = tree->PredictCost().total();
    out.unit_s = clock.Unit();
    return out;
  }

  void Compare(const ChurnPass& ref, const ChurnPass& p) {
    report_->Expect(p.knn.io_s == ref.knn.io_s,
                    "kNN simulated I/O differs between passes");
    report_->Expect(p.range.io_s == ref.range.io_s,
                    "range simulated I/O differs between passes");
    report_->Expect(p.update_io.seeks == ref.update_io.seeks &&
                        p.update_io.blocks_written ==
                            ref.update_io.blocks_written &&
                        p.update_io.blocks_read == ref.update_io.blocks_read,
                    "update I/O differs between passes");
    report_->Expect(p.actions == ref.actions &&
                        p.bytes_per_point == ref.bytes_per_point,
                    "final index differs between passes");
  }

  const RunArgs& args_;
  const uint64_t seed_;
  Report* report_;
  BruteForce bf0_;
  iq::Dataset pool_;
  std::vector<iq::Dataset> cycle_queries_;
  std::vector<iq::Dataset> cycle_ranges_;
  std::vector<Truth> truth_;
  TimingStorage pristine_;
  std::vector<double> last_cycle_io_;
  double final_predicted_ = 0;
};

}  // namespace

void RunWeather9Churn(const RunArgs& args, uint64_t seed, Figures* out,
                      Report* report) {
  ChurnRunner(args, seed, report).Run(out);
}

}  // namespace iqperf
