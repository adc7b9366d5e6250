// cad16-read and uniform16-scan: one bulk-loaded IqTree, one client,
// no block cache, a fixed list of held-out queries.
#include <algorithm>
#include <cmath>

#include "data/generators.h"
#include "workloads.h"

namespace iqperf {

namespace {

constexpr char kIndex[] = "idx";

struct SingleTreeSpec {
  iq::Dataset (*generate)(size_t count, size_t dims, uint64_t seed);
  size_t dims;
  size_t points;
  size_t knn_queries;
  size_t range_queries;
  size_t k;
  double radius;
  /// Timed passes per ten seconds of --seconds (see PassCount).
  int passes_per_10s;
  /// Check the paper's Fig. 10 claim: mean kNN I/O below one
  /// sequential scan of the raw points.
  bool beats_scan;
};

void RunSingleTree(const SingleTreeSpec& spec, const RunArgs& args,
                   uint64_t seed, Figures* out, Report* report) {
  iq::Dataset data = spec.generate(
      spec.points + spec.knn_queries + spec.range_queries, spec.dims, seed);
  const iq::Dataset range_q = data.TakeTail(spec.range_queries);
  const iq::Dataset knn_q = data.TakeTail(spec.knn_queries);
  BruteForce bf(spec.dims);
  for (size_t i = 0; i < data.size(); ++i) {
    bf.Add(static_cast<iq::PointId>(i), data.row(i));
  }
  const Truth truth = ComputeTruth(bf, knn_q, spec.k, range_q, spec.radius);

  TimingStorage storage;
  iq::DiskModel disk;
  iq::IqTree::Options options;
  options.optimize_for_k = static_cast<unsigned>(spec.k);
  std::unique_ptr<iq::IqTree> tree;
  const SetupTime setup = TimeSetup([&] {
    tree = Take(iq::IqTree::Build(data, storage, kIndex, disk, options),
                "Build");
  });
  const double bytes_per_point = static_cast<double>(storage.TotalBytes()) /
                                 static_cast<double>(tree->size());
  report->Expect(tree->size() == data.size(), "index size after build");
  report->Expect(bytes_per_point >= 4.0 * spec.dims + 4.0,
                 "index smaller than the exact coordinates");

  // Warm-up pass: the reference simulated I/O of every query.
  const QueryPass knn0 = RunQueryPass(*tree, disk, knn_q, QueryKind::kKnn,
                                      spec.k, 0, bf, truth, report);
  const QueryPass range0 = RunQueryPass(*tree, disk, range_q,
                                        QueryKind::kRange, 0, spec.radius,
                                        bf, truth, report);

  ReferenceClock ref;
  PassOptions timed;
  timed.reference = &ref;
  const int passes = PassCount(args.seconds, spec.passes_per_10s);
  std::vector<WallPass> knn_wall, range_wall, traced_wall;
  std::vector<MetricMap> layers;
  PassTrace last_trace;
  for (int p = 0; p < passes; ++p) {
    const QueryPass knn = RunQueryPass(*tree, disk, knn_q, QueryKind::kKnn,
                                       spec.k, 0, bf, truth, report, timed);
    report->Expect(knn.io_s == knn0.io_s,
                   "kNN simulated I/O differs between passes");
    knn_wall.push_back(WallPass{knn.wall_us, ref.Unit()});
    const QueryPass range =
        RunQueryPass(*tree, disk, range_q, QueryKind::kRange, 0,
                     spec.radius, bf, truth, report, timed);
    report->Expect(range.io_s == range0.io_s,
                   "range simulated I/O differs between passes");
    range_wall.push_back(WallPass{range.wall_us, ref.Unit()});
    if (args.trace) {
      PassTrace trace;
      PassOptions traced = timed;
      traced.trace = &trace;
      traced.storage = &storage;
      const QueryPass knn_t = RunQueryPass(*tree, disk, knn_q,
                                           QueryKind::kKnn, spec.k, 0, bf,
                                           truth, report, traced);
      report->Expect(knn_t.io_s == knn0.io_s,
                     "traced kNN simulated I/O differs");
      traced_wall.push_back(WallPass{knn_t.wall_us, ref.Unit()});
      layers.push_back(QueryLayerMetrics(trace, knn_t));
      last_trace = std::move(trace);
    }
  }

  const double knn_io_mean = Mean(knn0.io_s);
  if (spec.beats_scan) {
    const iq::DiskParameters& d = disk.params();
    const double raw_bytes =
        static_cast<double>(spec.points) * 4.0 * static_cast<double>(spec.dims);
    const double scan_s =
        d.seek_time_s + std::ceil(raw_bytes / d.block_size) * d.xfer_time_s;
    report->Expect(knn_io_mean < scan_s,
                   "mean kNN I/O not below one sequential scan");
  }

  if (!args.trace) {
    MetricMap& m = out->metrics;
    m["knn_io_ms"] = knn_io_mean * 1e3;
    m["knn_io_ms_p99"] = Quantile(knn0.io_s, 0.99) * 1e3;
    AddWall("knn", MedianOf(knn_wall), out);
    m["range_io_ms"] = Mean(range0.io_s) * 1e3;
    AddWall("range", MedianOf(range_wall), out);
    out->info["range_results_per_query"] =
        static_cast<double>(range0.results) /
        static_cast<double>(range_q.size());
    AddSetup(setup, out);
    m["index_bytes_per_point"] = bytes_per_point;
    m["peak_rss_mb"] = PeakRssMb();
    return;
  }

  MetricMap& m = out->metrics;
  SetQueryLayers(MedianOf(layers), out);
  AddPageCosts(last_trace, data, knn_q, spec.k, &m, tree.get(), &storage,
               kIndex);
  AddBuildPhases(data, *tree, &m);
  AddCostModelError(tree->PredictCost().total(), knn_io_mean, out);
  m["obs.trace_overhead_pct"] =
      (MedianOf(traced_wall).mean_ref / MedianOf(knn_wall).mean_ref - 1.0) *
      100.0;
}

}  // namespace

void RunCad16Read(const RunArgs& args, uint64_t seed, Figures* out,
                  Report* report) {
  SingleTreeSpec spec{&iq::GenerateCadLike,
                      /*dims=*/16,
                      /*points=*/150000,
                      /*knn_queries=*/400,
                      /*range_queries=*/150,
                      /*k=*/10,
                      /*radius=*/0.08,
                      /*passes_per_10s=*/3,
                      /*beats_scan=*/true};
  RunSingleTree(spec, args, seed, out, report);
}

void RunUniform16Scan(const RunArgs& args, uint64_t seed, Figures* out,
                      Report* report) {
  SingleTreeSpec spec{&iq::GenerateUniform,
                      /*dims=*/16,
                      /*points=*/15000,
                      /*knn_queries=*/150,
                      /*range_queries=*/150,
                      /*k=*/10,
                      /*radius=*/0.8,
                      /*passes_per_10s=*/8,
                      /*beats_scan=*/false};
  RunSingleTree(spec, args, seed, out, report);
}

}  // namespace iqperf
