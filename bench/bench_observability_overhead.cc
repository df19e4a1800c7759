// Overhead of the query observability layer (common/observability.h).
//
// Runs the same simulation twice per repetition — once bare, once with a
// trace sink and a metrics registry attached — and compares queries/s.
// With observability compiled in, the delta prices span/counter recording
// plus JSONL serialization at the fold. Rebuilt with
// -DLBSQ_DISABLE_OBSERVABILITY=ON the Span/Counter calls compile to
// nothing and the attached-observer run must stay within 5% of bare.

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <vector>

#include "common/metrics_registry.h"
#include "common/observability.h"
#include "sim/simulator.h"
#include "sim_bench_util.h"

namespace {

using namespace lbsq;

double Median(std::vector<double> xs) {
  std::sort(xs.begin(), xs.end());
  return xs[xs.size() / 2];
}

/// One full simulation; returns measured queries per wall-clock second.
double TimedRun(const sim::SimConfig& config, bool observed) {
  sim::Simulator simulator(config);
  obs::TraceSink sink;
  MetricsRegistry registry;
  if (observed) {
    const double cycle =
        static_cast<double>(simulator.world().MaxCycleLength());
    registry.AddHistogram("access_latency", 0.0, 2.0 * cycle, 64);
    registry.AddHistogram("tuning_time", 0.0, cycle, 64);
    simulator.SetObserver(&sink, &registry);
  }
  const auto start = std::chrono::steady_clock::now();
  const sim::SimMetrics metrics = simulator.Run();
  const double seconds =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - start)
          .count();
  return static_cast<double>(metrics.queries) / seconds;
}

}  // namespace

int main() {
  sim::SimConfig config =
      bench::BaseConfig(sim::LosAngelesCity(), sim::QueryType::kKnn);
  // The observability cost is per query; a short run with the standard
  // density resolves a 1% difference fine.
  config.warmup_min = 5.0;
  config.duration_min = 10.0;

  std::printf("=== Observability overhead (recording %s) ===\n",
              obs::kObservabilityCompiledIn ? "compiled in" : "compiled OUT");
  std::printf("(LA City kNN, %.1f mi world, %.0f min measured; median of 5 "
              "interleaved reps)\n\n",
              config.world_side_mi, config.duration_min);

  constexpr int kReps = 5;
  std::vector<double> bare, observed;
  TimedRun(config, false);  // warm up the page cache / allocator
  for (int rep = 0; rep < kReps; ++rep) {
    bare.push_back(TimedRun(config, false));
    observed.push_back(TimedRun(config, true));
  }

  const double bare_qps = Median(bare);
  const double observed_qps = Median(observed);
  const double overhead = (bare_qps - observed_qps) / bare_qps * 100.0;
  std::printf("%-28s %12.0f queries/s\n", "no observer", bare_qps);
  std::printf("%-28s %12.0f queries/s\n", "trace sink + registry",
              observed_qps);
  std::printf("%-28s %11.1f%%\n", "overhead", overhead);
  if (!obs::kObservabilityCompiledIn && overhead >= 5.0) {
    std::printf("\nFAIL: compiled-out observability must cost < 5%%\n");
    return 1;
  }
  return 0;
}
