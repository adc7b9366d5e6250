// Per-layer measurement for the traced run: self times from the span
// trees the library records, and timed calls into the public page
// functions (decode, bind, filter) and build phases (fractal estimate,
// partitioning, quantization optimizer) on the benchmark's own inputs.
#ifndef IQPERF_LAYERS_H_
#define IQPERF_LAYERS_H_

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "bench_util.h"
#include "core/iq_tree.h"
#include "data/dataset.h"
#include "obs/trace.h"

namespace iqperf {

/// Sums over many span trees, keyed by span name with trailing digits
/// stripped ("shard3" and "wave0" count as "shard" and "wave").
struct SpanTotals {
  /// Self time: the span's duration minus the part of it that its
  /// children cover (children may overlap, e.g. parallel shards).
  std::map<std::string, double> self_ns;
  std::map<std::string, double> total_ns;
  std::map<std::string, double> count;
  /// Sum of numeric attribute `points` per name (page spans).
  std::map<std::string, double> points;
  /// Page spans of quantized (g < 32) pages, and their points.
  double qpages = 0;
  double qpage_points = 0;

  /// Folds one snapshot in.
  void Add(const std::vector<iq::obs::SpanRecord>& spans);
  /// Folds another set of sums in.
  void Merge(const SpanTotals& other);

  double Self(const std::string& name) const { return Get(self_ns, name); }
  double Total(const std::string& name) const { return Get(total_ns, name); }
  double Count(const std::string& name) const { return Get(count, name); }
  double Points(const std::string& name) const { return Get(points, name); }

 private:
  static double Get(const std::map<std::string, double>& m,
                    const std::string& name) {
    auto it = m.find(name);
    return it == m.end() ? 0.0 : it->second;
  }
};

/// One quantized page a traced query decoded, with that query's point.
struct TouchedPage {
  size_t query = 0;
  uint32_t dir_index = 0;
};

/// Collects the quantized (g < 32) pages of one traced query.
void CollectTouchedPages(const std::vector<iq::obs::SpanRecord>& spans,
                         const iq::IqTree& tree, size_t query,
                         std::vector<TouchedPage>* out);

/// At most 4000 of `pages`, evenly spaced.
std::vector<TouchedPage> SamplePages(const std::vector<TouchedPage>& pages);

/// Nanoseconds per point of QuantPageCodec::DecodeCells, per page of
/// FilterKernel::BindMinDist and per point of MinDistLowerBounds, timed
/// on `pages` (read raw from the index's .qpg file).
struct PageCosts {
  double unpack_ns_per_point = 0;
  double bind_ns_per_page = 0;
  double filter_ns_per_point = 0;
};
PageCosts TimePageFunctions(const iq::IqTree& tree,
                            const TimingStorage& storage,
                            const std::string& index_name,
                            const iq::Dataset& queries,
                            const std::vector<TouchedPage>& pages);

/// The same timings on a side index: a strided sample of at most 20 000
/// points of `data`, bulk-loaded with g fixed at 8 bits, and the
/// quantized pages that kNN queries `queries` (k = `k`) decode in it.
/// For workloads whose own index has no quantized page the queries
/// decode, or whose pages change under the queries (churn).
PageCosts TimeSideIndexPages(const iq::Dataset& data,
                             const iq::Dataset& queries, size_t k);

/// Wall seconds of the three bulk-load phases, each called on its own
/// over `data` with `tree`'s cost model.
struct BuildPhaseCosts {
  double estimate_s = 0;
  double partition_s = 0;
  double optimize_s = 0;
};
BuildPhaseCosts TimeBuildPhases(const iq::Dataset& data,
                                const iq::IqTree& tree, uint32_t block_size);

}  // namespace iqperf

#endif  // IQPERF_LAYERS_H_
