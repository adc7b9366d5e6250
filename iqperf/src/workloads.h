// The benchmark's workloads and the query-pass machinery they share.
#ifndef IQPERF_WORKLOADS_H_
#define IQPERF_WORKLOADS_H_

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "bench_util.h"
#include "core/iq_tree.h"
#include "data/dataset.h"
#include "geom/neighbor.h"
#include "io/disk_model.h"
#include "layers.h"

namespace iqperf {

struct RunArgs {
  std::string workload;
  uint64_t seed = 1;
  int seconds = 10;
  bool trace = false;
};

using MetricMap = std::map<std::string, double>;

/// What one instance of a workload measured: the figures of the result
/// line (end-to-end, or per-layer under --trace 1) and figures printed
/// for people only.
struct Figures {
  MetricMap metrics;
  MetricMap info;
};

/// One instance of each workload: its own data from `seed`, its own
/// index, the workload's whole operation list. Wrong answers and broken
/// properties go to `report`.
void RunCad16Read(const RunArgs& args, uint64_t seed, Figures* out,
                  Report* report);
void RunUniform16Scan(const RunArgs& args, uint64_t seed, Figures* out,
                      Report* report);
void RunWeather9Churn(const RunArgs& args, uint64_t seed, Figures* out,
                      Report* report);
void RunCad16Sharded(const RunArgs& args, uint64_t seed, Figures* out,
                     Report* report);

/// The unit a metric's name implies.
std::string UnitOf(const std::string& name);

/// Timed passes of a workload: `per_10s` passes per ten seconds asked
/// for, at least three. A pure function of --seconds, so the amount of
/// work never depends on how fast this machine happens to be.
int PassCount(int seconds, int per_10s);

/// Peak resident set of this process so far, in MiB.
double PeakRssMb();

/// Ground truth of a query list against one BruteForce.
struct Truth {
  std::vector<std::vector<double>> knn;       // k smallest distances
  std::vector<std::vector<iq::PointId>> range;  // ids within radius + tol
};
Truth ComputeTruth(const BruteForce& bf, const iq::Dataset& knn_queries,
                   size_t k, const iq::Dataset& range_queries, double radius);

/// Span trees and counters collected by a traced pass.
struct PassTrace {
  SpanTotals spans;
  std::vector<TouchedPage> pages;
  uint64_t read_ns = 0;
  uint64_t qpg_read_ns = 0;
};

/// One pass of kNN or range queries on one tree, single client. Every
/// answer is checked; per-query simulated I/O is measured with the
/// head invalidated before each query, so it is independent of the
/// query's predecessor.
struct QueryPass {
  std::vector<double> io_s;
  std::vector<double> wall_us;
  iq::IoStats io;
  iq::IqTree::QueryStats stats;  // sums over the pass
  size_t results = 0;
};

enum class QueryKind { kKnn, kRange };

struct PassOptions {
  /// Traced pass when set: every query records a span tree.
  PassTrace* trace = nullptr;
  /// Storage whose read timing the traced pass switches on.
  TimingStorage* storage = nullptr;
  /// Per-page telemetry sink (the churn workload's maintenance input).
  iq::obs::PageStatsCollector* page_stats = nullptr;
  /// Sampled after every query when set.
  ReferenceClock* reference = nullptr;
};

/// Query i is checked against truth.knn[i] or truth.range[i].
QueryPass RunQueryPass(const iq::IqTree& tree, iq::DiskModel& disk,
                       const iq::Dataset& queries, QueryKind kind, size_t k,
                       double radius, const BruteForce& bf,
                       const Truth& truth, Report* report,
                       const PassOptions& options = {});

/// Per-query layer metrics of one traced kNN pass: span self times,
/// storage read time and the search counters.
MetricMap QueryLayerMetrics(const PassTrace& trace, const QueryPass& pass);

/// Puts query-layer figures (QueryLayerMetrics, or their median over
/// passes) into `out`. core.refine_us_per_query becomes an information
/// line: where no query refines (on cad16-read every decoded page is
/// exact) it reads 0 on every run. The refinement counts stay.
void SetQueryLayers(MetricMap layers, Figures* out);

/// The wall time of every query of one pass over a fixed query list,
/// and the pass's ReferenceClock unit.
struct WallPass {
  std::vector<double> wall_us;
  double unit_s = 0;
};

/// Wall-clock figures of a query list, in reference units (see
/// ReferenceClock) and, for the human-readable lines only, in us.
struct WallFigures {
  double p50_ref = 0;
  double p99_ref = 0;
  double mean_ref = 0;
  double p50_us = 0;
  double mean_us = 0;
};
/// Every query's median over the passes, in ref units and in us; the
/// figures are the median, 99th percentile and mean of those. A host
/// stall hits a query in one pass, not in most of them, so it drops out.
WallFigures MedianOf(const std::vector<WallPass>& passes);

/// Adds <prefix>_wall_p50_ref and <prefix>_wall_mean_ref, and the p99
/// and the plain microseconds as information.
void AddWall(const std::string& prefix, const WallFigures& w, Figures* out);

/// Adds setup_s (drift-corrected, see kReferenceUnitS) and, as
/// information, the bulk load's plain wall seconds.
void AddSetup(const SetupTime& setup, Figures* out);

/// Per-key median over several passes' metric maps.
MetricMap MedianOf(const std::vector<MetricMap>& runs);

/// Adds the page-function timings quant.unpack_ns_per_point,
/// quant.bind_ns_per_page and quant.filter_ns_per_point, and the page
/// span's remaining self time per point, core.page_other_ns_per_point.
/// The functions are timed on a sample of the quantized pages of `tree`
/// that the traced queries decoded (`trace.pages`) when `tree` is given
/// and there are any, and otherwise on a side index of `data`
/// (TimeSideIndexPages).
void AddPageCosts(const PassTrace& trace, const iq::Dataset& data,
                  const iq::Dataset& queries, size_t k, MetricMap* out,
                  const iq::IqTree* tree = nullptr,
                  const TimingStorage* storage = nullptr,
                  const std::string& index_name = "");

/// Adds costmodel.io_rel_error, |predicted - observed| / observed mean
/// kNN I/O, and both figures as information.
void AddCostModelError(double predicted_s, double observed_s, Figures* out);

/// Adds fractal.estimate_s, core.partition_s and core.optimize_s.
void AddBuildPhases(const iq::Dataset& data, const iq::IqTree& tree,
                    MetricMap* out);

}  // namespace iqperf

#endif  // IQPERF_WORKLOADS_H_
