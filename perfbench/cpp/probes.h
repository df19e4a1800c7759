#ifndef PERFBENCH_PROBES_H_
#define PERFBENCH_PROBES_H_

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "bench_util.h"
#include "broadcast/system.h"
#include "core/query_workspace.h"
#include "core/sharded_query_engine.h"
#include "hilbert/hilbert.h"
#include "storage/system_builder.h"
#include "trace.h"

/// \file
/// Per-layer probes for traced runs, all driven through public APIs from
/// outside the engine: the Hilbert cover of a request's search rectangle,
/// the home shard's own `QueryEngine` execution (which reports the buckets
/// it read), and `BroadcastSystem::CollectPois` over those buckets. Plus the
/// set-up legs every workload shares: the store write/open leg and the
/// memo-replay leg.

namespace perfbench {

namespace storage = lbsq::storage;
namespace hilbert = lbsq::hilbert;

/// The shard whose channel a request runs on first: the owner of a kNN
/// point's curve cell, or the first non-empty shard a window's cover
/// touches (the engine's routing rules).
int LeadShard(const core::ShardedQueryEngine& engine,
              const core::QueryRequest& request,
              std::vector<hilbert::IndexRange>* cover_scratch,
              std::vector<uint64_t>* cell_scratch);

/// The rectangle the lead shard covers for a peerless request: the window
/// itself, or the MBR of the kNN search disc bounded by the lead shard's
/// air-index k-th distance bound.
geom::Rect SearchRect(const core::ShardedQueryEngine& engine, int lead,
                      const core::QueryRequest& request,
                      std::vector<double>* scratch);

/// What the probes counted.
struct ProbeCounts {
  int64_t probes = 0;
  int64_t cover_cells = 0;
  int64_t cover_ranges = 0;
  int64_t shards_touched = 0;
  void Merge(const ProbeCounts& other) {
    probes += other.probes;
    cover_cells += other.cover_cells;
    cover_ranges += other.cover_ranges;
    shards_touched += other.shards_touched;
  }
};

/// Per-thread probe state.
class LayerProbe {
 public:
  explicit LayerProbe(const core::ShardedQueryEngine* engine)
      : engine_(engine) {}

  /// Runs the layer probes for `request` (its peers are ignored), recording
  /// spans under `parent` on `spans` and adding to the counters.
  void Probe(const core::QueryRequest& request, int64_t request_id,
             int64_t parent, SpanBuffer* spans);

  /// Re-targets the probe (dynamic worlds publish new engines).
  void set_engine(const core::ShardedQueryEngine* engine);

  const ProbeCounts& counts() const { return counts_; }

 private:
  ProbeCounts counts_;
  const core::ShardedQueryEngine* engine_;
  std::vector<std::unique_ptr<core::QueryWorkspace>> workspaces_;
  core::QueryOutcome home_outcome_;
  broadcast::CollectScratch collect_scratch_;
  std::vector<spatial::Poi> collected_;
  std::vector<hilbert::IndexRange> cover_;
  std::vector<uint64_t> cells_;
  std::vector<double> distances_;
  std::vector<int> touched_;
};

/// Share of `requests` whose cover memo key (lead shard, broadcast cycle,
/// corner cells of the search rectangle) already occurred earlier in the
/// same cycle — the work a cycle-scoped cover memo could share.
double CoverRepeatShare(const core::ShardedQueryEngine& engine,
                        const std::vector<core::QueryRequest>& requests);

/// The store leg: opens `path` through a fresh `pool_pages`-page buffer
/// pool and reassembles the engine.
struct OpenedStore {
  std::unique_ptr<core::ShardedQueryEngine> engine;
  double open_s = 0.0;
  uint64_t pool_hits = 0;
  uint64_t pool_misses = 0;
  uint64_t pool_evictions = 0;
};
bool WriteStore(const storage::SystemBuilder& builder,
                const core::ShardedQueryEngine& engine,
                const std::string& path);
OpenedStore OpenStore(const storage::SystemBuilder& builder,
                      const std::string& path, size_t pool_pages);

/// The memo leg: one fixed request prefix run twice through one workspace;
/// the second pass replays every cover the first one memoized.
struct MemoLeg {
  double first_pass_us = 0.0;   ///< per query
  double replay_pass_us = 0.0;  ///< per query
  int64_t queries = 0;
};
MemoLeg RunMemoLeg(const core::ShardedQueryEngine& engine,
                   const std::vector<core::QueryRequest>& prefix);

/// Records the probe counters and the span-derived layer timings of a
/// traced phase into `report`.
void ReportLayers(const Tracer& tracer, const ProbeCounts& counts,
                  Report* report);

}  // namespace perfbench

#endif  // PERFBENCH_PROBES_H_
