#include "probes.h"

#include <algorithm>
#include <array>
#include <cmath>
#include <limits>
#include <unordered_set>

#include "geom/circle.h"
#include "storage/buffer_pool.h"
#include "storage/storage_manager.h"

namespace perfbench {

int LeadShard(const core::ShardedQueryEngine& engine,
              const core::QueryRequest& request,
              std::vector<hilbert::IndexRange>* cover_scratch,
              std::vector<uint64_t>* cell_scratch) {
  int first_nonempty = 0;
  while (engine.shard_engine(first_nonempty) == nullptr) ++first_nonempty;
  if (request.kind == core::QueryKind::kKnn) {
    const hilbert::HilbertGrid& grid = engine.routing_grid();
    const int s = engine.map().ShardOfIndex(grid.IndexOf(request.position));
    return engine.shard_engine(s) != nullptr ? s : first_nonempty;
  }
  std::vector<int> touched;
  engine.routing_grid().CoverRect(request.window, cell_scratch,
                                  cover_scratch);
  engine.map().ShardsTouching(*cover_scratch, &touched);
  for (const int s : touched) {
    if (engine.shard_engine(s) != nullptr) return s;
  }
  return first_nonempty;
}

geom::Rect SearchRect(const core::ShardedQueryEngine& engine, int lead,
                      const core::QueryRequest& request,
                      std::vector<double>* scratch) {
  if (request.kind == core::QueryKind::kWindow) return request.window;
  const broadcast::BroadcastSystem& system = *engine.shard_system(lead);
  const int k = request.k > 0 ? request.k : engine.options().sbnn.k;
  double radius =
      system.index().KthDistanceUpperBound(request.position, k, scratch);
  if (!std::isfinite(radius)) {
    radius = system.grid().world().MaxDistance(request.position);
  }
  return geom::Circle{request.position, radius}.Mbr();
}

void LayerProbe::set_engine(const core::ShardedQueryEngine* engine) {
  if (engine == engine_) return;
  engine_ = engine;
  // Workspaces memoize per system; a new engine starts them afresh.
  workspaces_.clear();
}

void LayerProbe::Probe(const core::QueryRequest& request, int64_t request_id,
                       int64_t parent, SpanBuffer* spans) {
  const core::ShardedQueryEngine& engine = *engine_;
  core::QueryRequest peerless = request;
  peerless.peers = {};
  peerless.trace = nullptr;

  const int lead = LeadShard(engine, peerless, &cover_, &cells_);
  const geom::Rect rect = SearchRect(engine, lead, peerless, &distances_);
  {
    ScopedSpan span(spans, "hilbert.cover", request_id, parent);
    engine.shard_system(lead)->grid().CoverRect(rect, &cells_, &cover_);
  }
  for (const hilbert::IndexRange& r : cover_) {
    counts_.cover_cells += static_cast<int64_t>(r.hi - r.lo + 1);
  }
  counts_.cover_ranges += static_cast<int64_t>(cover_.size());

  if (workspaces_.size() < static_cast<size_t>(engine.num_shards())) {
    workspaces_.resize(static_cast<size_t>(engine.num_shards()));
  }
  std::unique_ptr<core::QueryWorkspace>& ws =
      workspaces_[static_cast<size_t>(lead)];
  if (ws == nullptr) ws = std::make_unique<core::QueryWorkspace>();
  {
    ScopedSpan span(spans, "core.lead_shard_execute", request_id, parent);
    engine.shard_engine(lead)->Execute(peerless, *ws, &home_outcome_);
  }
  {
    ScopedSpan span(spans, "broadcast.collect", request_id, parent);
    engine.shard_system(lead)->CollectPois(home_outcome_.Common().buckets,
                                           &collect_scratch_, &collected_);
  }

  // Shards the sharded engine queries: a window's touched non-empty shards;
  // for a kNN, the lead plus every shard whose POI bounds lie within the
  // lead answer's k-th distance.
  int64_t touched = 1;
  if (peerless.kind == core::QueryKind::kWindow) {
    engine.routing_grid().CoverRect(peerless.window, &cells_, &cover_);
    engine.map().ShardsTouching(cover_, &touched_);
    touched = 0;
    for (const int s : touched_) {
      touched += engine.shard_engine(s) != nullptr ? 1 : 0;
    }
    touched = std::max<int64_t>(touched, 1);
  } else {
    const std::vector<spatial::PoiDistance>& nn = home_outcome_.knn->neighbors;
    const int k = peerless.k > 0 ? peerless.k : engine.options().sbnn.k;
    const double radius = nn.size() >= static_cast<size_t>(k)
                              ? nn.back().distance
                              : std::numeric_limits<double>::infinity();
    for (int s = 0; s < engine.num_shards(); ++s) {
      if (s == lead || engine.shard_engine(s) == nullptr) continue;
      if (engine.shard_bounds(s).MinDistance(peerless.position) <= radius) {
        ++touched;
      }
    }
  }
  counts_.shards_touched += touched;
  ++counts_.probes;
}

double CoverRepeatShare(const core::ShardedQueryEngine& engine,
                        const std::vector<core::QueryRequest>& requests) {
  if (requests.empty()) return 0.0;
  struct KeyHash {
    size_t operator()(const std::array<uint64_t, 4>& k) const {
      uint64_t h = 0;
      for (const uint64_t w : k) h = (h ^ w) * 0x9e3779b97f4a7c15ull;
      return static_cast<size_t>(h);
    }
  };
  std::unordered_set<std::array<uint64_t, 4>, KeyHash> seen;
  std::vector<hilbert::IndexRange> cover;
  std::vector<uint64_t> cells;
  std::vector<double> distances;
  int64_t repeats = 0;
  for (const core::QueryRequest& request : requests) {
    const int lead = LeadShard(engine, request, &cover, &cells);
    const broadcast::BroadcastSystem& system = *engine.shard_system(lead);
    const geom::Rect rect =
        SearchRect(engine, lead, request, &distances)
            .Intersection(system.grid().world());
    const hilbert::CellXY lo = system.grid().CellOf({rect.x1, rect.y1});
    const hilbert::CellXY hi = system.grid().CellOf({rect.x2, rect.y2});
    const uint64_t cycle = static_cast<uint64_t>(
        request.slot / system.schedule().cycle_length());
    const std::array<uint64_t, 4> key = {
        static_cast<uint64_t>(lead), cycle,
        (static_cast<uint64_t>(lo.x) << 32) | lo.y,
        (static_cast<uint64_t>(hi.x) << 32) | hi.y};
    if (!seen.insert(key).second) ++repeats;
  }
  return static_cast<double>(repeats) / static_cast<double>(requests.size());
}

bool WriteStore(const storage::SystemBuilder& builder,
                const core::ShardedQueryEngine& engine,
                const std::string& path) {
  std::unique_ptr<storage::FileStorageManager> store =
      storage::FileStorageManager::Create(path, storage::kDefaultPageSize);
  return store != nullptr && builder.WriteStore(engine, store.get());
}

OpenedStore OpenStore(const storage::SystemBuilder& builder,
                      const std::string& path, size_t pool_pages) {
  OpenedStore opened;
  const int64_t start = NowNs();
  storage::OpenStatus status = storage::OpenStatus::kOk;
  std::unique_ptr<storage::FileStorageManager> store =
      storage::FileStorageManager::Open(path, &status);
  if (store == nullptr) return opened;
  storage::BufferPool pool(store.get(), pool_pages);
  opened.engine = builder.OpenFromStore(*store, &pool, &status);
  opened.open_s = static_cast<double>(NowNs() - start) / 1e9;
  opened.pool_hits = pool.hits();
  opened.pool_misses = pool.misses();
  opened.pool_evictions = pool.evictions();
  return opened;
}

MemoLeg RunMemoLeg(const core::ShardedQueryEngine& engine,
                   const std::vector<core::QueryRequest>& prefix) {
  MemoLeg leg;
  leg.queries = static_cast<int64_t>(prefix.size());
  if (prefix.empty()) return leg;
  core::ShardedQueryWorkspace workspace;
  core::QueryOutcome outcome;
  double pass_us[2] = {0.0, 0.0};
  for (double& us : pass_us) {
    const int64_t start = NowNs();
    for (const core::QueryRequest& request : prefix) {
      engine.Execute(request, workspace, &outcome);
    }
    us = static_cast<double>(NowNs() - start) / 1e3 /
         static_cast<double>(prefix.size());
  }
  leg.first_pass_us = pass_us[0];
  leg.replay_pass_us = pass_us[1];
  return leg;
}

void ReportLayers(const Tracer& tracer, const ProbeCounts& counts,
                  Report* report) {
  const double probes = static_cast<double>(std::max<int64_t>(counts.probes, 1));
  const struct {
    const char* span;
    const char* metric;
  } timings[] = {
      {"core.execute_knn", "core.execute_knn"},
      {"core.execute_window", "core.execute_window"},
      {"hilbert.cover", "hilbert.cover"},
      {"broadcast.collect", "broadcast.collect"},
  };
  for (const auto& t : timings) {
    std::vector<double> us = tracer.DurationsUs(t.span);
    SetTiming(report, t.metric, "us", Summarize(&us));
  }
  report->Set("core.shards_touched_per_query",
              static_cast<double>(counts.shards_touched) / probes, "count");
  report->Set("hilbert.cover_cells_per_query",
              static_cast<double>(counts.cover_cells) / probes, "count");
  report->Set("hilbert.cover_ranges_per_query",
              static_cast<double>(counts.cover_ranges) / probes, "count");
}

}  // namespace perfbench
