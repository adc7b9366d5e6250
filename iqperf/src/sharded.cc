// cad16-sharded: CAD-like 16-d points loaded by ShardedBulkLoader into
// rank-partitioned shards and served through QueryFrontEnd to two
// closed-loop client threads, kNN and range queries. Simulated I/O per
// query comes from a one-client pass (the shards' disk heads are shared
// by concurrent queries, so a two-client pass has no per-query I/O of
// its own).
#include <algorithm>
#include <cmath>
#include <thread>

#include "data/generators.h"
#include "obs/metric_names.h"
#include "obs/metrics.h"
#include "shard/query_front_end.h"
#include "shard/sharded_bulk_loader.h"
#include "shard/sharded_searcher.h"
#include "workloads.h"

namespace iqperf {

namespace {

constexpr char kBase[] = "sharded";
constexpr size_t kDims = 16;
constexpr size_t kPoints = 100000;
constexpr size_t kQueries = 1000;
constexpr size_t kRangeQueries = 300;
constexpr size_t kShards = 4;
constexpr size_t kClients = 2;
constexpr size_t kK = 10;
constexpr double kRadius = 0.08;
constexpr int kPassesPer10s = 6;

/// Process-wide disk counters (every shard's DiskModel adds to them).
iq::IoStats GlobalIo() {
  auto& reg = iq::obs::MetricRegistry::Global();
  iq::IoStats s;
  s.seeks = reg.GetCounter(iq::obs::metric::kDiskSeeksTotal)->Value();
  s.blocks_read = reg.GetCounter(iq::obs::metric::kDiskBlocksReadTotal)->Value();
  s.blocks_written =
      reg.GetCounter(iq::obs::metric::kDiskBlocksWrittenTotal)->Value();
  return s;
}

struct ClientPass {
  std::vector<double> wall_us;
  double wall_s = 0;
  double unit_s = 0;  // mean of the clients' ReferenceClock units
  uint64_t seeks = 0;
};

class ShardedRunner {
 public:
  ShardedRunner(const RunArgs& args, uint64_t seed, Report* report)
      : args_(args), seed_(seed), report_(report), bf_(kDims) {}

  void Run(Figures* out) {
    iq::Dataset data = iq::GenerateCadLike(kPoints + kQueries + kRangeQueries,
                                           kDims, seed_);
    ranges_ = data.TakeTail(kRangeQueries);
    queries_ = data.TakeTail(kQueries);
    for (size_t i = 0; i < data.size(); ++i) {
      bf_.Add(static_cast<iq::PointId>(i), data.row(i));
    }
    truth_ = ComputeTruth(bf_, queries_, kK, ranges_, kRadius);

    iq::ShardedBulkLoader::Options lopt;
    lopt.num_shards = kShards;
    lopt.plan = iq::ShardPlan::kRankPartition;
    lopt.plan_dim = 0;
    lopt.tree.optimize_for_k = kK;
    iq::ShardManifest manifest;
    const SetupTime setup = TimeSetup([&] {
      iq::ShardedBulkLoader loader(storage_, kBase, lopt);
      for (size_t i = 0; i < data.size(); ++i) {
        Check(loader.Add(data[i]), "ShardedBulkLoader::Add");
      }
      manifest = Take(loader.Finish(), "ShardedBulkLoader::Finish");
    });

    iq::ShardedSearcher::Options sopt;
    sopt.threads = kClients;
    searcher_ = Take(iq::ShardedSearcher::Open(storage_, manifest, sopt),
                     "ShardedSearcher::Open");
    report_->Expect(searcher_->size() == data.size(), "sharded size");
    iq::QueryFrontEnd::Options fopt;
    fopt.max_in_flight = kClients;
    fopt.max_queued = 16;
    front_ = std::make_unique<iq::QueryFrontEnd>(*searcher_, fopt);
    // Read before any query runs: the malloc arenas of the pool and
    // client threads make the later peak vary from run to run.
    const double rss_mb = PeakRssMb();
    const double bytes_per_point = static_cast<double>(storage_.TotalBytes()) /
                                   static_cast<double>(data.size());
    report_->Expect(bytes_per_point >= 4.0 * kDims + 4.0,
                    "index smaller than the exact coordinates");

    // One-client passes: the reference I/O per query, then the same
    // lists again, which must charge exactly the same.
    const QueryPass knn0 = OneClientPass(QueryKind::kKnn, nullptr);
    const QueryPass range0 = OneClientPass(QueryKind::kRange, nullptr);
    report_->Expect(OneClientPass(QueryKind::kKnn, nullptr).io_s == knn0.io_s,
                    "sharded kNN simulated I/O differs between passes");
    report_->Expect(
        OneClientPass(QueryKind::kRange, nullptr).io_s == range0.io_s,
        "sharded range simulated I/O differs between passes");

    const int passes = PassCount(args_.seconds, kPassesPer10s);
    std::vector<WallPass> knn, range, traced;
    std::vector<double> speedup, extra_seeks;
    SpanTotals spans;
    for (int p = 0; p < passes; ++p) {
      const ClientPass two = RunClients(kClients, QueryKind::kKnn, nullptr);
      knn.push_back(WallPass{two.wall_us, two.unit_s});
      extra_seeks.push_back(static_cast<double>(two.seeks) -
                            static_cast<double>(knn0.io.seeks));
      const ClientPass r = RunClients(kClients, QueryKind::kRange, nullptr);
      range.push_back(WallPass{r.wall_us, r.unit_s});
      if (args_.trace) {
        const ClientPass one = RunClients(1, QueryKind::kKnn, nullptr);
        speedup.push_back((one.wall_s / one.unit_s) /
                          (two.wall_s / two.unit_s));
        const ClientPass t = RunClients(kClients, QueryKind::kKnn, &spans);
        traced.push_back(WallPass{t.wall_us, t.unit_s});
      }
    }

    MetricMap& m = out->metrics;
    if (!args_.trace) {
      m["knn_io_ms"] = Mean(knn0.io_s) * 1e3;
      m["knn_io_ms_p99"] = Quantile(knn0.io_s, 0.99) * 1e3;
      AddWall("knn", MedianOf(knn), out);
      m["range_io_ms"] = Mean(range0.io_s) * 1e3;
      AddWall("range", MedianOf(range), out);
      out->info["range_results_per_query"] =
          static_cast<double>(range0.results) / kRangeQueries;
      AddSetup(setup, out);
      m["index_bytes_per_point"] = bytes_per_point;
      m["peak_rss_mb"] = rss_mb;
      return;
    }

    // The layers below the front end, from one traced one-client pass.
    PassTrace layer_trace;
    const QueryPass t = OneClientPass(QueryKind::kKnn, &layer_trace);
    report_->Expect(t.io_s == knn0.io_s, "traced kNN simulated I/O differs");
    SetQueryLayers(QueryLayerMetrics(layer_trace, t), out);
    AddPageCosts(layer_trace, data, queries_, kK, &m);
    AddBuildPhases(data, searcher_->shard_tree(0), &m);
    AddCostModelError(searcher_->predicted_cost().total(), Mean(knn0.io_s),
                      out);
    m["obs.trace_overhead_pct"] =
        (MedianOf(traced).mean_ref / MedianOf(knn).mean_ref - 1.0) * 100.0;
    // Only this workload has shards, so these cannot be in the result
    // line, which carries the same metrics on every workload.
    const double n = static_cast<double>(kQueries) * passes;
    out->info["shard.shards_queried_per_query"] =
        static_cast<double>(shards_queried_) / kQueries;
    out->info["shard.waves_per_query"] = spans.Count("wave") / n;
    out->info["shard.merge_us_per_query"] =
        (spans.Self("sharded_knn") + spans.Self("wave")) / n / 1e3;
    out->info["frontend.admission_us_per_query"] =
        (spans.Total("frontend") - spans.Total("sharded_knn")) / n / 1e3;
    out->info["concurrency.speedup_2v1"] = Median(speedup);
    out->info["io.concurrent_extra_seeks_per_query"] =
        Median(extra_seeks) / kQueries;
  }

 private:
  const iq::Dataset& QueriesOf(QueryKind kind) const {
    return kind == QueryKind::kKnn ? queries_ : ranges_;
  }

  iq::Result<std::vector<iq::Neighbor>> Query(
      QueryKind kind, size_t i, const iq::ShardedSearchOptions& opt) const {
    return kind == QueryKind::kKnn
               ? front_->KNearestNeighbors(queries_[i], kK, opt)
               : front_->RangeSearch(ranges_[i], kRadius, opt);
  }

  bool Correct(QueryKind kind, size_t i,
               const std::vector<iq::Neighbor>& got) const {
    return kind == QueryKind::kKnn
               ? KnnCorrect(bf_, queries_.row(i), kK, truth_.knn[i], got)
               : RangeCorrect(bf_, ranges_.row(i), kRadius, truth_.range[i],
                              got);
  }

  static const char* Name(QueryKind kind) {
    return kind == QueryKind::kKnn ? "sharded knn" : "sharded range";
  }

  /// Queries one at a time; the simulated seconds of each are read from
  /// the process-wide disk counters around the query. With `trace`,
  /// every query records a span tree and the storage times its reads.
  QueryPass OneClientPass(QueryKind kind, PassTrace* trace) {
    const iq::DiskParameters params;
    // Every query scans at least one shard's directory.
    double floor = 1e300;
    for (size_t j = 0; j < searcher_->num_shards(); ++j) {
      floor = std::min(floor, DirScanFloor(params,
                                           searcher_->shard_tree(j).num_pages(),
                                           iq::DirEntryBytes(kDims)));
    }
    iq::obs::QueryTracer tracer(1 << 20);
    iq::ShardedSearchOptions opt;
    StorageTimers& timers = storage_.timers();
    if (trace != nullptr) {
      opt.tracer = &tracer;
      timers.timing = true;
      trace->read_ns -= timers.read_ns;
      trace->qpg_read_ns -= timers.qpg_read_ns;
    }
    QueryPass pass;
    const iq::IoStats start = GlobalIo();
    if (kind == QueryKind::kKnn) shards_queried_ = 0;
    for (size_t i = 0; i < QueriesOf(kind).size(); ++i) {
      const iq::IoStats before = GlobalIo();
      const std::vector<iq::Neighbor> got = Take(Query(kind, i, opt),
                                                 Name(kind));
      report_->Attempt();
      pass.io_s.push_back(SimSeconds(GlobalIo() - before, params));
      pass.results += got.size();
      const iq::ShardQueryStats s = searcher_->last_query_stats();
      pass.stats.pages_decoded += s.totals.pages_decoded;
      pass.stats.blocks_transferred += s.totals.blocks_transferred;
      pass.stats.batches += s.totals.batches;
      pass.stats.refinements += s.totals.refinements;
      pass.stats.cells_enqueued += s.totals.cells_enqueued;
      if (kind == QueryKind::kKnn) shards_queried_ += s.shards_queried;
      report_->Expect(s.shards_queried + s.shards_pruned == kShards,
                      "shards queried + pruned != shard count");
      report_->Expect(pass.io_s.back() >= floor * (1 - 1e-12),
                      "sharded query charged less than a directory scan");
      report_->Expect(Correct(kind, i, got), std::string(Name(kind)) +
                                                 " answer of query " +
                                                 std::to_string(i));
      if (trace != nullptr) {
        trace->spans.Add(tracer.Snapshot());
        tracer.Clear();
      }
    }
    pass.io = GlobalIo() - start;
    if (trace != nullptr) {
      timers.timing = false;
      trace->read_ns += timers.read_ns;
      trace->qpg_read_ns += timers.qpg_read_ns;
    }
    return pass;
  }

  /// `clients` closed-loop threads; client c runs queries c, c+clients,
  /// ... Answers are checked after the threads joined.
  ClientPass RunClients(size_t clients, QueryKind kind, SpanTotals* spans) {
    const size_t n = QueriesOf(kind).size();
    std::vector<std::vector<iq::Neighbor>> got(n);
    std::vector<double> wall_us(n);
    std::vector<iq::Status> status(n);
    std::vector<SpanTotals> per_client(clients);
    std::vector<ReferenceClock> clocks(clients);
    const iq::IoStats io0 = GlobalIo();
    const auto t0 = Clock::now();
    std::vector<std::thread> threads;
    for (size_t c = 0; c < clients; ++c) {
      threads.emplace_back([&, c] {
        iq::obs::QueryTracer tracer(1 << 20);
        iq::ShardedSearchOptions opt;
        if (spans != nullptr) opt.tracer = &tracer;
        for (size_t i = c; i < n; i += clients) {
          const auto q0 = Clock::now();
          auto r = Query(kind, i, opt);
          wall_us[i] = Seconds(q0, Clock::now()) * 1e6;
          clocks[c].Sample();
          if (r.ok()) {
            got[i] = std::move(r).value();
          } else {
            status[i] = r.status();
          }
          if (spans != nullptr) {
            per_client[c].Add(tracer.Snapshot());
            tracer.Clear();
          }
        }
      });
    }
    for (std::thread& t : threads) t.join();
    ClientPass out;
    out.wall_s = Seconds(t0, Clock::now());
    out.seeks = (GlobalIo() - io0).seeks;
    for (ReferenceClock& clock : clocks) {
      out.unit_s += clock.Unit() / static_cast<double>(clients);
    }
    out.wall_us = std::move(wall_us);
    for (size_t i = 0; i < n; ++i) {
      Check(status[i], Name(kind));
      report_->Attempt();
      report_->Expect(Correct(kind, i, got[i]), std::string(Name(kind)) +
                                                    " answer of query " +
                                                    std::to_string(i));
    }
    if (spans != nullptr) {
      for (const SpanTotals& s : per_client) spans->Merge(s);
    }
    return out;
  }

  const RunArgs& args_;
  const uint64_t seed_;
  Report* report_;
  BruteForce bf_;
  iq::Dataset queries_;
  iq::Dataset ranges_;
  Truth truth_;
  TimingStorage storage_;
  std::unique_ptr<iq::ShardedSearcher> searcher_;
  std::unique_ptr<iq::QueryFrontEnd> front_;
  uint64_t shards_queried_ = 0;
};

}  // namespace

void RunCad16Sharded(const RunArgs& args, uint64_t seed, Figures* out,
                     Report* report) {
  ShardedRunner(args, seed, report).Run(out);
}

}  // namespace iqperf
