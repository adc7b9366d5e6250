#include "layers.h"

#include <algorithm>
#include <numeric>
#include <utility>

#include "core/format.h"
#include "core/partitioner.h"
#include "core/split_tree_optimizer.h"
#include "fractal/fractal_dimension.h"
#include "quant/filter_kernel.h"

namespace iqperf {

namespace {

std::string BaseName(const std::string& name) {
  size_t end = name.size();
  while (end > 0 && name[end - 1] >= '0' && name[end - 1] <= '9') --end;
  return name.substr(0, end);
}

double Attr(const iq::obs::SpanRecord& span, const char* key) {
  for (const auto& [k, v] : span.attrs) {
    if (k == key) return v;
  }
  return -1.0;
}

int64_t Nanos(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(b - a).count();
}

}  // namespace

void SpanTotals::Add(const std::vector<iq::obs::SpanRecord>& spans) {
  std::vector<std::vector<size_t>> children(spans.size());
  for (size_t i = 0; i < spans.size(); ++i) {
    const iq::obs::SpanId p = spans[i].parent;
    if (p != iq::obs::kNoSpan && p < spans.size()) children[p].push_back(i);
  }
  std::vector<std::pair<int64_t, int64_t>> iv;
  for (size_t i = 0; i < spans.size(); ++i) {
    const iq::obs::SpanRecord& s = spans[i];
    if (s.seq_end == 0) continue;  // never closed
    const int64_t b = s.wall_begin_ns;
    const int64_t e = s.wall_end_ns;
    // Union of the children's intervals, clipped to this span.
    iv.clear();
    for (size_t c : children[i]) {
      const int64_t cb = std::max(b, spans[c].wall_begin_ns);
      const int64_t ce = std::min(e, spans[c].wall_end_ns);
      if (ce > cb) iv.emplace_back(cb, ce);
    }
    std::sort(iv.begin(), iv.end());
    int64_t covered = 0;
    int64_t run_b = 0;
    int64_t run_e = -1;
    for (const auto& [cb, ce] : iv) {
      if (run_e < cb) {
        if (run_e > run_b) covered += run_e - run_b;
        run_b = cb;
        run_e = ce;
      } else {
        run_e = std::max(run_e, ce);
      }
    }
    if (run_e > run_b) covered += run_e - run_b;
    const std::string name = BaseName(s.name);
    self_ns[name] += static_cast<double>(e - b - covered);
    total_ns[name] += static_cast<double>(e - b);
    count[name] += 1;
    const double pts = Attr(s, "points");
    if (pts > 0) points[name] += pts;
    const double g = Attr(s, "g");
    if (name == "page" && g >= 0 && g < iq::kExactBits) {
      qpages += 1;
      qpage_points += std::max(pts, 0.0);
    }
  }
}

void SpanTotals::Merge(const SpanTotals& other) {
  for (const auto& [k, v] : other.self_ns) self_ns[k] += v;
  for (const auto& [k, v] : other.total_ns) total_ns[k] += v;
  for (const auto& [k, v] : other.count) count[k] += v;
  for (const auto& [k, v] : other.points) points[k] += v;
  qpages += other.qpages;
  qpage_points += other.qpage_points;
}

void CollectTouchedPages(const std::vector<iq::obs::SpanRecord>& spans,
                         const iq::IqTree& tree, size_t query,
                         std::vector<TouchedPage>* out) {
  for (const iq::obs::SpanRecord& s : spans) {
    if (s.name != "page") continue;
    const double dir_index = Attr(s, "dir_index");
    if (dir_index < 0 || dir_index >= tree.num_pages()) continue;
    const auto d = static_cast<uint32_t>(dir_index);
    if (tree.directory()[d].quant_bits >= iq::kExactBits) continue;
    out->push_back(TouchedPage{query, d});
  }
}

std::vector<TouchedPage> SamplePages(const std::vector<TouchedPage>& pages) {
  // An evenly spaced sample bounds the time the timing takes on
  // scan-heavy workloads, where every query decodes every page.
  constexpr size_t kMaxPages = 4000;
  std::vector<TouchedPage> sample;
  const size_t step = std::max<size_t>(1, pages.size() / kMaxPages);
  for (size_t i = 0; i < pages.size(); i += step) sample.push_back(pages[i]);
  return sample;
}

PageCosts TimePageFunctions(const iq::IqTree& tree,
                            const TimingStorage& storage,
                            const std::string& index_name,
                            const iq::Dataset& queries,
                            const std::vector<TouchedPage>& pages) {
  PageCosts out;
  if (pages.empty()) return out;
  const uint32_t block_size = tree.meta().block_size;
  const iq::QuantPageCodec codec(tree.dims(), block_size);
  std::vector<uint8_t> page(block_size);
  std::vector<uint32_t> cells;
  std::vector<double> bounds;
  iq::FilterKernel kernel;
  // Each page is timed as the search meets it: its bytes just read and
  // the decoder, kernel and scratch buffers warm from one untimed round
  // on the same page. One page takes tens of microseconds, so the clock
  // reads around each call cost well under a percent.
  int64_t unpack_ns = 0;
  int64_t bind_ns = 0;
  int64_t filter_ns = 0;
  uint64_t points = 0;
  for (const TouchedPage& touched : pages) {
    const iq::DirEntry& entry = tree.directory()[touched.dir_index];
    const iq::PointView q = queries[touched.query];
    storage.ReadRaw(iq::QpgFileName(index_name),
                    uint64_t{entry.qpage_block} * block_size, block_size,
                    page.data());
    bounds.resize(entry.count);
    for (int timed = 0; timed < 2; ++timed) {
      const auto t0 = Clock::now();
      Check(codec.DecodeCells(page.data(), &cells), "DecodeCells");
      const auto t1 = Clock::now();
      kernel.BindMinDist(q, tree.metric(), entry.mbr, entry.quant_bits);
      const auto t2 = Clock::now();
      kernel.MinDistLowerBounds(cells.data(), entry.count, bounds.data());
      const auto t3 = Clock::now();
      if (timed == 0) continue;
      unpack_ns += Nanos(t0, t1);
      bind_ns += Nanos(t1, t2);
      filter_ns += Nanos(t2, t3);
    }
    points += entry.count;
  }
  const double pts = static_cast<double>(std::max<uint64_t>(points, 1));
  out.unpack_ns_per_point = static_cast<double>(unpack_ns) / pts;
  out.bind_ns_per_page =
      static_cast<double>(bind_ns) / static_cast<double>(pages.size());
  out.filter_ns_per_point = static_cast<double>(filter_ns) / pts;
  return out;
}

PageCosts TimeSideIndexPages(const iq::Dataset& data,
                             const iq::Dataset& queries, size_t k) {
  constexpr size_t kMaxPoints = 20000;
  constexpr char kSideIndex[] = "side";
  const size_t step = (data.size() + kMaxPoints - 1) / kMaxPoints;
  std::vector<float> rows;
  for (size_t i = 0; i < data.size(); i += step) {
    rows.insert(rows.end(), data.row(i), data.row(i) + data.dims());
  }
  const iq::Dataset sample(data.dims(), std::move(rows));
  TimingStorage storage;
  iq::DiskModel disk;
  iq::IqTree::Options options;
  options.optimize_for_k = static_cast<unsigned>(k);
  options.fixed_quant_bits = 8;
  const std::unique_ptr<iq::IqTree> tree = Take(
      iq::IqTree::Build(sample, storage, kSideIndex, disk, options),
      "Build side index");
  iq::obs::QueryTracer tracer;
  iq::IqSearchOptions search;
  search.tracer = &tracer;
  std::vector<TouchedPage> touched;
  for (size_t i = 0; i < queries.size(); ++i) {
    Take(tree->KNearestNeighbors(queries[i], k, search), "side knn");
    CollectTouchedPages(tracer.Snapshot(), *tree, i, &touched);
    tracer.Clear();
  }
  if (touched.empty()) Die("side index: no quantized page decoded");
  return TimePageFunctions(*tree, storage, kSideIndex, queries,
                           SamplePages(touched));
}

BuildPhaseCosts TimeBuildPhases(const iq::Dataset& data,
                                const iq::IqTree& tree, uint32_t block_size) {
  BuildPhaseCosts out;
  iq::FractalOptions fopt;
  fopt.seed = iq::IqTree::Options{}.seed;
  auto t0 = Clock::now();
  const iq::FractalEstimate fractal = iq::EstimateCorrelationDimension(
      data.data(), data.size(), data.dims(), fopt);
  out.estimate_s = Seconds(t0, Clock::now());
  if (!(fractal.dimension > 0)) Die("fractal estimate not positive");

  std::vector<iq::PointId> ids(data.size());
  std::iota(ids.begin(), ids.end(), 0);
  t0 = Clock::now();
  const std::vector<iq::Partition> initial = iq::PartitionDataset(
      data, ids, iq::QuantPageCapacity(data.dims(), 1, block_size));
  out.partition_s = Seconds(t0, Clock::now());

  t0 = Clock::now();
  const iq::OptimizerResult optimized = iq::OptimizeQuantization(
      data, ids, initial, tree.MakeCostModel(), block_size);
  out.optimize_s = Seconds(t0, Clock::now());
  if (optimized.pages.empty()) Die("optimizer returned no pages");
  return out;
}

}  // namespace iqperf
