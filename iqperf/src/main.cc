// iqperf: the repository's end-to-end benchmark.
//
//   iqperf --workload <name> --seed <n> --seconds <s> --trace <0|1>
//
// Runs one workload against the library's public API, checks every
// answer against the benchmark's own brute force, and prints one line
// per metric followed by a JSON result line. --trace 0 prints the
// end-to-end metrics, --trace 1 the per-layer metrics of a traced run.
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>
#include <vector>

#include "quant/filter_kernel.h"
#include "workloads.h"

namespace {

[[noreturn]] void Usage(const char* why) {
  std::fprintf(stderr,
               "iqperf: %s\nusage: iqperf --workload <cad16-read|"
               "uniform16-scan|weather9-churn|cad16-sharded> --seed <n> "
               "--seconds <s> --trace <0|1>\n",
               why);
  std::exit(64);
}

iqperf::RunArgs Parse(int argc, char** argv) {
  iqperf::RunArgs args;
  for (int i = 1; i < argc; ++i) {
    if (i + 1 >= argc) Usage("missing value");
    const std::string key = argv[i];
    const char* value = argv[++i];
    char* end = nullptr;
    if (key == "--workload") {
      args.workload = value;
    } else if (key == "--seed") {
      args.seed = std::strtoull(value, &end, 10);
      if (*end != '\0') Usage("bad --seed");
    } else if (key == "--seconds") {
      args.seconds = static_cast<int>(std::strtol(value, &end, 10));
      if (*end != '\0' || args.seconds < 1) Usage("bad --seconds");
    } else if (key == "--trace") {
      if (std::strcmp(value, "0") != 0 && std::strcmp(value, "1") != 0) {
        Usage("bad --trace");
      }
      args.trace = value[0] == '1';
    } else {
      Usage("unknown flag");
    }
  }
  if (args.workload.empty()) Usage("missing --workload");
  return args;
}

struct Workload {
  const char* name;
  void (*run)(const iqperf::RunArgs&, uint64_t, iqperf::Figures*,
              iqperf::Report*);
  /// Independent instances per run, each with its own data. Where one
  /// seed's data lands decides much of a run's figures; averaging over
  /// instances keeps one run's figures close to the next run's.
  int instances;
};

constexpr Workload kWorkloads[] = {
    {"cad16-read", &iqperf::RunCad16Read, 6},
    {"uniform16-scan", &iqperf::RunUniform16Scan, 2},
    {"weather9-churn", &iqperf::RunWeather9Churn, 9},
    {"cad16-sharded", &iqperf::RunCad16Sharded, 3},
};
constexpr uint64_t kMaxInstances = 16;

}  // namespace

int main(int argc, char** argv) {
  const iqperf::RunArgs args = Parse(argc, argv);
  const Workload* workload = nullptr;
  for (const Workload& w : kWorkloads) {
    if (args.workload == w.name) workload = &w;
  }
  if (workload == nullptr) Usage("unknown workload");
  std::printf("workload %s seed %llu seconds %d trace %d kernel %s\n",
              args.workload.c_str(),
              static_cast<unsigned long long>(args.seed), args.seconds,
              args.trace ? 1 : 0, iq::ActiveKernelName());

  iqperf::Report report;
  std::vector<iqperf::Figures> figures(workload->instances);
  for (int i = 0; i < workload->instances; ++i) {
    workload->run(args, args.seed * kMaxInstances + i, &figures[i], &report);
  }
  // Means over the instances, except set-up time and peak memory, which
  // are the first instance's: later instances start warm, in a heap the
  // earlier ones fragmented.
  auto combine = [&](iqperf::MetricMap iqperf::Figures::*which) {
    iqperf::MetricMap out;
    for (const auto& [name, first] : figures[0].*which) {
      double sum = 0;
      for (const iqperf::Figures& f : figures) sum += (f.*which).at(name);
      out[name] = name.rfind("setup_", 0) == 0 || name == "peak_rss_mb"
                      ? first
                      : sum / static_cast<double>(figures.size());
    }
    return out;
  };
  for (const auto& [name, v] : combine(&iqperf::Figures::metrics)) {
    report.Add(name, v, iqperf::UnitOf(name));
  }
  for (const auto& [name, v] : combine(&iqperf::Figures::info)) {
    report.Info(name, v, iqperf::UnitOf(name));
  }
  report.Print();
  return report.wrong() == 0 ? 0 : 1;
}
