#include <sys/resource.h>

#include <algorithm>
#include <cmath>
#include <utility>

#include "workloads.h"

namespace iqperf {

int PassCount(int seconds, int per_10s) {
  return std::max(3, (seconds * per_10s + 5) / 10);
}

double PeakRssMb() {
  struct rusage usage {};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // ru_maxrss is KiB
}

Truth ComputeTruth(const BruteForce& bf, const iq::Dataset& knn_queries,
                   size_t k, const iq::Dataset& range_queries,
                   double radius) {
  // One thread: helper threads' malloc arenas would make the run's
  // peak resident set vary from run to run.
  Truth t;
  for (size_t i = 0; i < knn_queries.size(); ++i) {
    t.knn.push_back(bf.KnnDistances(knn_queries.row(i), k));
  }
  for (size_t i = 0; i < range_queries.size(); ++i) {
    t.range.push_back(bf.RangeIds(range_queries.row(i), radius));
  }
  return t;
}

QueryPass RunQueryPass(const iq::IqTree& tree, iq::DiskModel& disk,
                       const iq::Dataset& queries, QueryKind kind, size_t k,
                       double radius, const BruteForce& bf,
                       const Truth& truth, Report* report,
                       const PassOptions& options) {
  QueryPass pass;
  pass.io_s.reserve(queries.size());
  pass.wall_us.reserve(queries.size());
  iq::obs::QueryTracer tracer;
  iq::IqSearchOptions search;
  search.page_stats = options.page_stats;
  if (options.trace != nullptr) {
    search.tracer = &tracer;
    if (options.storage != nullptr) {
      StorageTimers& c = options.storage->timers();
      c.timing = true;
      options.trace->read_ns -= c.read_ns;
      options.trace->qpg_read_ns -= c.qpg_read_ns;
    }
  }
  const iq::IoStats io_start = disk.stats();
  const iq::DiskParameters& params = disk.params();
  for (size_t i = 0; i < queries.size(); ++i) {
    const iq::PointView q = queries[i];
    disk.InvalidateHead();
    const iq::IoStats io_before = disk.stats();
    const auto t0 = Clock::now();
    iq::Result<std::vector<iq::Neighbor>> r =
        kind == QueryKind::kKnn ? tree.KNearestNeighbors(q, k, search)
                                : tree.RangeSearch(q, radius, search);
    const auto t1 = Clock::now();
    if (options.reference != nullptr) options.reference->Sample();
    const std::vector<iq::Neighbor> got =
        Take(std::move(r), kind == QueryKind::kKnn ? "knn" : "range");
    report->Attempt();
    const double io = SimSeconds(disk.stats() - io_before, params);
    pass.io_s.push_back(io);
    pass.wall_us.push_back(Seconds(t0, t1) * 1e6);
    pass.results += got.size();
    const iq::IqTree::QueryStats s = tree.last_query_stats();
    pass.stats.pages_decoded += s.pages_decoded;
    pass.stats.blocks_transferred += s.blocks_transferred;
    pass.stats.batches += s.batches;
    pass.stats.refinements += s.refinements;
    pass.stats.cells_enqueued += s.cells_enqueued;

    const bool ok =
        kind == QueryKind::kKnn
            ? KnnCorrect(bf, q.data(), k, truth.knn[i], got)
            : RangeCorrect(bf, q.data(), radius, truth.range[i], got);
    report->Expect(ok, std::string(kind == QueryKind::kKnn ? "knn" : "range") +
                           " answer of query " + std::to_string(i));
    const double floor = DirScanFloor(params, tree.num_pages(),
                                      iq::DirEntryBytes(tree.dims()));
    report->Expect(io >= floor * (1 - 1e-12),
                   "query " + std::to_string(i) +
                       " charged less than one directory scan");
    if (options.trace != nullptr) {
      const std::vector<iq::obs::SpanRecord> spans = tracer.Snapshot();
      options.trace->spans.Add(spans);
      CollectTouchedPages(spans, tree, i, &options.trace->pages);
      tracer.Clear();
    }
  }
  pass.io = disk.stats() - io_start;
  if (options.trace != nullptr && options.storage != nullptr) {
    StorageTimers& c = options.storage->timers();
    c.timing = false;
    options.trace->read_ns += c.read_ns;
    options.trace->qpg_read_ns += c.qpg_read_ns;
  }
  return pass;
}

}  // namespace iqperf

namespace iqperf {

MetricMap QueryLayerMetrics(const PassTrace& trace, const QueryPass& pass) {
  const double n = static_cast<double>(std::max<size_t>(pass.io_s.size(), 1));
  const SpanTotals& s = trace.spans;
  MetricMap m;
  m["core.dir_scan_us_per_query"] = s.Self("dir_scan") / n / 1e3;
  m["core.refine_us_per_query"] =
      (s.Total("refine") + s.Total("exact_page")) / n / 1e3;
  m["core.refinements_per_query"] =
      static_cast<double>(pass.stats.refinements) / n;
  m["core.refinements_per_result"] =
      static_cast<double>(pass.stats.refinements) /
      static_cast<double>(std::max<size_t>(pass.results, 1));
  m["io.storage_read_ns_per_query"] = static_cast<double>(trace.read_ns) / n;
  m["core.pages_decoded_per_query"] =
      static_cast<double>(pass.stats.pages_decoded) / n;
  m["sched.batches_per_query"] = static_cast<double>(pass.stats.batches) / n;
  m["sched.decoded_per_transferred"] =
      static_cast<double>(pass.stats.pages_decoded) /
      static_cast<double>(std::max<size_t>(pass.stats.blocks_transferred, 1));
  m["io.seeks_per_query"] = static_cast<double>(pass.io.seeks) / n;
  m["io.blocks_read_per_query"] = static_cast<double>(pass.io.blocks_read) / n;
  // The batch span's self time is planning (PlanNnBatch and its access
  // probabilities) plus the quantized-page read; the read is timed by
  // the storage wrapper and taken out.
  m["sched.plan_ns_per_query"] =
      (s.Self("batch") - static_cast<double>(trace.qpg_read_ns)) / n;
  m["core.cells_enqueued_per_query"] =
      static_cast<double>(pass.stats.cells_enqueued) / n;
  return m;
}

void SetQueryLayers(MetricMap layers, Figures* out) {
  const auto refine = layers.find("core.refine_us_per_query");
  out->info[refine->first] = refine->second;
  layers.erase(refine);
  out->metrics = std::move(layers);
}

WallFigures MedianOf(const std::vector<WallPass>& passes) {
  WallFigures out;
  if (passes.empty()) return out;
  const size_t n = passes[0].wall_us.size();
  std::vector<double> ref(n);
  std::vector<double> us(n);
  std::vector<double> ref_i(passes.size());
  std::vector<double> us_i(passes.size());
  for (size_t i = 0; i < n; ++i) {
    for (size_t p = 0; p < passes.size(); ++p) {
      if (passes[p].wall_us.size() != n) Die("passes of different lengths");
      us_i[p] = passes[p].wall_us[i];
      ref_i[p] = us_i[p] / (passes[p].unit_s * 1e6);
    }
    ref[i] = Median(ref_i);
    us[i] = Median(us_i);
  }
  out.p50_ref = Median(ref);
  out.p99_ref = Quantile(ref, 0.99);
  out.mean_ref = Mean(ref);
  out.p50_us = Median(us);
  out.mean_us = Mean(us);
  return out;
}

void AddWall(const std::string& prefix, const WallFigures& w, Figures* out) {
  out->metrics[prefix + "_wall_p50_ref"] = w.p50_ref;
  out->metrics[prefix + "_wall_mean_ref"] = w.mean_ref;
  out->info[prefix + "_wall_p99_ref"] = w.p99_ref;
  out->info[prefix + "_wall_us_p50"] = w.p50_us;
  out->info[prefix + "_wall_us_mean"] = w.mean_us;
}

void AddSetup(const SetupTime& setup, Figures* out) {
  out->metrics["setup_s"] = setup.seconds();
  out->info["setup_wall_s"] = setup.wall_s;
}

MetricMap MedianOf(const std::vector<MetricMap>& runs) {
  std::map<std::string, std::vector<double>> all;
  for (const MetricMap& r : runs) {
    for (const auto& [name, v] : r) all[name].push_back(v);
  }
  MetricMap out;
  for (const auto& [name, v] : all) out[name] = Median(v);
  return out;
}

void AddPageCosts(const PassTrace& trace, const iq::Dataset& data,
                  const iq::Dataset& queries, size_t k, MetricMap* out,
                  const iq::IqTree* tree, const TimingStorage* storage,
                  const std::string& index_name) {
  const PageCosts c =
      tree != nullptr && !trace.pages.empty()
          ? TimePageFunctions(*tree, *storage, index_name, queries,
                              SamplePages(trace.pages))
          : TimeSideIndexPages(data, queries, k);
  (*out)["quant.unpack_ns_per_point"] = c.unpack_ns_per_point;
  (*out)["quant.bind_ns_per_page"] = c.bind_ns_per_page;
  (*out)["quant.filter_ns_per_point"] = c.filter_ns_per_point;
  // Exact (g = 32) pages are decoded and measured by the page span alone.
  const SpanTotals& s = trace.spans;
  const double quant_ns =
      (c.unpack_ns_per_point + c.filter_ns_per_point) * s.qpage_points +
      c.bind_ns_per_page * s.qpages;
  (*out)["core.page_other_ns_per_point"] =
      (s.Self("page") - quant_ns) / std::max(s.Points("page"), 1.0);
}

void AddCostModelError(double predicted_s, double observed_s, Figures* out) {
  out->metrics["costmodel.io_rel_error"] =
      std::abs(predicted_s - observed_s) / observed_s;
  out->info["costmodel.predicted_io_ms"] = predicted_s * 1e3;
  out->info["costmodel.observed_io_ms"] = observed_s * 1e3;
}

void AddBuildPhases(const iq::Dataset& data, const iq::IqTree& tree,
                    MetricMap* out) {
  const BuildPhaseCosts b =
      TimeBuildPhases(data, tree, tree.meta().block_size);
  (*out)["fractal.estimate_s"] = b.estimate_s;
  (*out)["core.partition_s"] = b.partition_s;
  (*out)["core.optimize_s"] = b.optimize_s;
}

std::string UnitOf(const std::string& name) {
  auto ends = [&](const char* suffix) {
    const std::string s(suffix);
    return name.size() >= s.size() &&
           name.compare(name.size() - s.size(), s.size(), s) == 0;
  };
  auto has = [&](const char* part) {
    return name.find(part) != std::string::npos;
  };
  if (has("_ref")) return "ref";
  if (has("_io_ms")) return "ms";
  if (ends("_bytes_per_point")) return "B";
  if (ends("_mb")) return "MB";
  if (has("_ns_per_")) return "ns";
  if (has("_us_per_") || has("_wall_us")) return "us";
  if (ends("_ms")) return "ms";
  if (ends("_s")) return "s";
  if (ends("_pct")) return "%";
  if (ends("_per_transferred") || ends("_2v1") || ends("_rel_error")) {
    return "ratio";
  }
  return "count";
}

}  // namespace iqperf
