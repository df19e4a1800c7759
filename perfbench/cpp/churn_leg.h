#ifndef PERFBENCH_CHURN_LEG_H_
#define PERFBENCH_CHURN_LEG_H_

#include <cstdint>
#include <vector>

#include "bench_util.h"
#include "dynamic/sharded_world.h"
#include "dynamic/update_log.h"
#include "probes.h"
#include "trace.h"

/// \file
/// The churn leg: writes next to reads on one `dynamic::ShardedWorld`. The
/// calling thread is the writer — it `Apply`s the simulator's default
/// `GenerateUpdateBatch` batches at a fixed rate — while closed-loop reader
/// threads run `ShardedWorld::Execute`. A share of the reads carries peer
/// regions taken from earlier answers, so the regions go stale as epochs
/// advance and are revalidated against the update log (or rejected).
/// Every answer is checked afterwards by brute force over the POIs of the
/// epoch it was pinned to, rebuilt by replaying the logged batches.

namespace perfbench {

namespace dynamic = lbsq::dynamic;

struct ChurnPhaseConfig {
  /// Readers stop after this long, once `min_requests` are done...
  double seconds = 10.0;
  size_t min_requests = 0;
  /// ...or when this many requests are done (0 = no cap).
  size_t max_requests = 0;
};

/// One executed read.
struct ChurnRecord {
  size_t index = 0;
  uint64_t epoch = 0;
  uint64_t digest = 0;
  double latency_us = 0.0;
  int64_t access_latency = 0;
  int64_t tuning_time = 0;
  int64_t buckets_read = 0;
  int64_t regions_rejected = 0;
  uint64_t epoch_lag = 0;
  bool carried_peers = false;
  bool resolved_by_peers = false;
};

struct ChurnPhase {
  std::vector<ChurnRecord> records;
  std::vector<double> publish_us;
  double elapsed_s = 0.0;
  /// Layer-probe counters of a traced phase.
  ProbeCounts probes;
};

class ChurnRunner {
 public:
  /// Drives `world`, whose epoch 0 holds `initial`.
  ChurnRunner(dynamic::ShardedWorld* world, std::vector<spatial::Poi> initial,
              uint64_t seed);

  /// Runs one phase over `stream`, starting at `*cursor` (advanced past the
  /// requests it consumed; none is executed twice). With `tracer`, each
  /// read records its execute span, the region-dirty checks of its peer
  /// regions, and the layer probes on its pinned epoch.
  ChurnPhase Run(const std::vector<core::QueryRequest>& stream, size_t* cursor,
                 const ChurnPhaseConfig& config, Tracer* tracer);

  /// Checks every record against brute force over its pinned epoch.
  Tally Verify(const std::vector<core::QueryRequest>& stream,
               const std::vector<ChurnRecord>& records) const;

 private:
  dynamic::ShardedWorld* world_;
  std::vector<spatial::Poi> initial_;
  uint64_t seed_;
  int64_t base_insert_id_;
  /// Batch k (1-based) as generated, for replay by Verify.
  std::vector<std::vector<dynamic::PoiUpdate>> batches_;
};

/// Records a traced churn phase's dynamic-layer and publication metrics.
void ReportChurnLayers(const ChurnPhase& phase,
                       const dynamic::ShardedWorld& world,
                       const Tracer& tracer, Report* report);

}  // namespace perfbench

#endif  // PERFBENCH_CHURN_LEG_H_
