#include "core/sharded_query_engine.h"

#include <algorithm>
#include <cmath>
#include <limits>
#include <utility>

#include "common/check.h"

namespace lbsq::core {

QueryWorkspace& ShardedQueryWorkspace::Shard(size_t shard) {
  if (shards_.size() <= shard) shards_.resize(shard + 1);
  if (shards_[shard] == nullptr) {
    shards_[shard] = std::make_unique<QueryWorkspace>();
  }
  return *shards_[shard];
}

ShardedQueryEngine::ShardedQueryEngine(std::vector<spatial::Poi> pois,
                                       const geom::Rect& world,
                                       const broadcast::BroadcastParams& params,
                                       const EngineOptions& options,
                                       int num_shards)
    : world_(world),
      routing_grid_(world, params.hilbert_order, params.curve),
      map_(hilbert::ShardMap(routing_grid_.num_cells())),
      shard_options_(options) {
  LBSQ_CHECK(!pois.empty());
  LBSQ_CHECK(num_shards >= 1);

  std::vector<geom::Point> positions;
  positions.reserve(pois.size());
  for (const spatial::Poi& p : pois) positions.push_back(p.pos);
  map_ = hilbert::PartitionByOccupancy(routing_grid_, positions, num_shards);

  // Split in input order: shard s's list is the input list filtered to s,
  // so the 1-shard split IS the input list and every shard's broadcast
  // schedule is reproducible from the POI set alone.
  const size_t n_shards = static_cast<size_t>(map_.num_shards());
  std::vector<std::vector<spatial::Poi>> shard_pois(n_shards);
  for (const spatial::Poi& p : pois) {
    const size_t s = static_cast<size_t>(
        map_.ShardOfIndex(routing_grid_.IndexOf(p.pos)));
    shard_pois[s].push_back(p);
  }

  systems_.resize(n_shards);
  for (size_t s = 0; s < n_shards; ++s) {
    if (shard_pois[s].empty()) continue;
    systems_[s] = std::make_shared<broadcast::BroadcastSystem>(
        std::move(shard_pois[s]), world, params);
  }
  Init();
}

ShardedQueryEngine::ShardedQueryEngine(
    const geom::Rect& world, const broadcast::BroadcastParams& params,
    const EngineOptions& options, hilbert::ShardMap map,
    std::vector<std::shared_ptr<const broadcast::BroadcastSystem>> systems)
    : world_(world),
      routing_grid_(world, params.hilbert_order, params.curve),
      map_(std::move(map)),
      shard_options_(options),
      systems_(std::move(systems)) {
  LBSQ_CHECK(map_.num_cells() == routing_grid_.num_cells());
  LBSQ_CHECK(systems_.size() == static_cast<size_t>(map_.num_shards()));
  Init();
}

void ShardedQueryEngine::Init() {
  shard_options_.Validate();
  LBSQ_CHECK(world_.area() > 0.0);
  // Fault injection models one lossy channel; a multi-channel fault model
  // is a different beast. Reject loudly instead of mis-modeling.
  LBSQ_CHECK(map_.num_shards() == 1 || !shard_options_.fault.enabled());

  const size_t n_shards = systems_.size();
  bounds_.assign(n_shards, geom::Rect{});
  poi_counts_.assign(n_shards, 0);
  total_pois_ = 0;
  for (size_t s = 0; s < n_shards; ++s) {
    if (systems_[s] == nullptr) continue;
    const std::vector<spatial::Poi>& pois = systems_[s]->pois();
    LBSQ_CHECK(!pois.empty());
    poi_counts_[s] = pois.size();
    total_pois_ += pois.size();
    for (const spatial::Poi& p : pois) bounds_[s].Expand(p.pos);
  }
  LBSQ_CHECK(total_pois_ > 0);

  // The Lemma 3.2 correctness model must see the *global* density on every
  // shard, or peer-resolution decisions would depend on the shard layout.
  if (shard_options_.poi_density_override < 0.0) {
    shard_options_.poi_density_override =
        static_cast<double>(total_pois_) / world_.area();
  }

  engines_.clear();
  engines_.resize(n_shards);
  first_nonempty_ = -1;
  for (size_t s = 0; s < n_shards; ++s) {
    if (systems_[s] == nullptr) continue;
    if (first_nonempty_ < 0) first_nonempty_ = static_cast<int>(s);
    engines_[s] =
        std::make_unique<QueryEngine>(*systems_[s], world_, shard_options_);
  }
  LBSQ_CHECK(first_nonempty_ >= 0);
}

int ShardedQueryEngine::HomeShard(geom::Point q) const {
  const int s = map_.ShardOfIndex(routing_grid_.IndexOf(q));
  return systems_[static_cast<size_t>(s)] != nullptr ? s : first_nonempty_;
}

void ShardedQueryEngine::Execute(const QueryRequest& request,
                                 ShardedQueryWorkspace& workspace,
                                 QueryOutcome* outcome) const {
  LBSQ_CHECK(outcome != nullptr);
  request.Validate();
  if (num_shards() == 1) {
    // Pure delegation: byte-identical to the unsharded engine.
    engines_[0]->Execute(request, workspace.Shard(0), outcome);
    return;
  }
  if (request.kind == QueryKind::kKnn) {
    ExecuteKnn(request, workspace, outcome);
  } else {
    ExecuteWindow(request, workspace, outcome);
  }
}

QueryOutcome ShardedQueryEngine::Execute(const QueryRequest& request) const {
  ShardedQueryWorkspace workspace;
  QueryOutcome outcome;
  Execute(request, workspace, &outcome);
  return outcome;
}

std::span<const QueryOutcome> ShardedQueryEngine::ExecuteBatch(
    std::span<const QueryRequest> requests,
    ShardedQueryWorkspace& workspace) const {
  // Validate the whole batch up front: a malformed request mid-batch must
  // fail before any arena slot is written, leaving the outcome arena (and
  // the spans previous batches handed out) in a defined state.
  for (const QueryRequest& request : requests) request.Validate();
  std::vector<QueryOutcome>& arena = workspace.arena_;
  if (arena.size() < requests.size()) arena.resize(requests.size());
  for (size_t i = 0; i < requests.size(); ++i) {
    Execute(requests[i], workspace, &arena[i]);
  }
  return std::span<const QueryOutcome>(arena.data(), requests.size());
}

void ShardedQueryEngine::ExecuteKnn(const QueryRequest& request,
                                    ShardedQueryWorkspace& ws,
                                    QueryOutcome* outcome) const {
  const int home = HomeShard(request.position);
  const QueryEngine& home_engine = *engines_[static_cast<size_t>(home)];
  home_engine.Execute(request, ws.Shard(static_cast<size_t>(home)), outcome);
  // The peer stage is a pure function of (q, k, peers, global density) —
  // identical at every shard count — so a peer-resolved home outcome is
  // the final answer.
  if (outcome->knn->resolved_by != ResolvedBy::kBroadcast) return;

  const int k = request.k > 0 ? request.k : shard_options_.sbnn.k;
  const std::vector<spatial::PoiDistance>& home_neighbors =
      outcome->knn->neighbors;
  // The home answer is exact over home's POIs plus the peer candidates, so
  // its k-th distance upper-bounds the global k-th distance: shards whose
  // POIs all lie strictly beyond it cannot contribute.
  const double radius =
      home_neighbors.size() >= static_cast<size_t>(k)
          ? home_neighbors.back().distance
          : std::numeric_limits<double>::infinity();

  ws.merged_neighbors_.assign(home_neighbors.begin(), home_neighbors.end());
  broadcast::AccessStats stats = outcome->knn->stats;
  int64_t skipped = outcome->knn->buckets_skipped;
  // Under partial epoch rebuilds (dynamic::ShardedWorld) clean shards keep
  // the system of their last rebuild, so the shards contributing to this
  // answer can carry divergent epoch stamps. The merged knowledge is only
  // as fresh as the *oldest* contributing channel: stamping anything newer
  // would let cross-epoch revalidation skip update batches that separate a
  // stale contributor from the pinned world epoch.
  uint64_t epoch = systems_[static_cast<size_t>(home)]->epoch();

  QueryRequest partial = request;
  partial.peers = {};        // peer knowledge was consumed by the home run
  partial.trace = nullptr;   // the trace narrates the home execution only
  for (int s = 0; s < num_shards(); ++s) {
    const size_t si = static_cast<size_t>(s);
    if (s == home || engines_[si] == nullptr) continue;
    if (bounds_[si].MinDistance(request.position) > radius) continue;
    engines_[si]->Execute(partial, ws.Shard(si), &ws.partial_knn_);
    epoch = std::min(epoch, systems_[si]->epoch());
    const SbnnOutcome& part = *ws.partial_knn_.knn;
    ws.merged_neighbors_.insert(ws.merged_neighbors_.end(),
                                part.neighbors.begin(), part.neighbors.end());
    stats.access_latency =
        std::max(stats.access_latency, part.stats.access_latency);
    stats.tuning_time += part.stats.tuning_time;
    stats.buckets_read += part.stats.buckets_read;
    skipped += part.buckets_skipped;
  }

  // K-way merge at the seams: (distance, id) order with the kernel tie
  // rules; a POI appearing both as a home peer candidate and in its owner
  // shard's answer collapses (equal distance and id sort adjacently).
  std::sort(ws.merged_neighbors_.begin(), ws.merged_neighbors_.end());
  ws.merged_neighbors_.erase(
      std::unique(ws.merged_neighbors_.begin(), ws.merged_neighbors_.end(),
                  [](const spatial::PoiDistance& a,
                     const spatial::PoiDistance& b) {
                    return a.poi.id == b.poi.id;
                  }),
      ws.merged_neighbors_.end());
  const size_t take =
      std::min(ws.merged_neighbors_.size(), static_cast<size_t>(k));

  SbnnOutcome& merged = *outcome->knn;
  merged.neighbors.assign(ws.merged_neighbors_.begin(),
                          ws.merged_neighbors_.begin() +
                              static_cast<ptrdiff_t>(take));
  merged.stats = stats;
  merged.buckets_skipped = skipped;
  merged.buckets.clear();
  merged.failed_buckets.clear();

  // Rebuild the cacheable as a pure function of the merged answer, so the
  // querier's cache (and everything downstream of it) cannot observe the
  // shard layout: the axis-aligned square inscribed in the k-th neighbor's
  // disc, shrunk a hair below so boundary ties stay outside. Every POI in
  // that square is strictly closer than the k-th distance, hence in the
  // exact merged answer — the completeness invariant holds.
  merged.cacheable.Clear();
  if (take == static_cast<size_t>(k) && merged.neighbors.back().distance > 0.0) {
    const double half = merged.neighbors.back().distance / std::sqrt(2.0) *
                        (1.0 - 1e-9);
    merged.cacheable.region =
        geom::Rect::CenteredSquare(request.position, half);
    for (const spatial::PoiDistance& n : merged.neighbors) {
      if (merged.cacheable.region.Contains(n.poi.pos)) {
        merged.cacheable.pois.push_back(n.poi);
      }
    }
  }
  merged.cacheable.epoch = epoch;
}

void ShardedQueryEngine::ExecuteWindow(const QueryRequest& request,
                                       ShardedQueryWorkspace& ws,
                                       QueryOutcome* outcome) const {
  // Route through the curve: the shards owning any cell the window covers.
  routing_grid_.CoverRect(request.window, &ws.cover_);
  map_.ShardsTouching(ws.cover_, &ws.touched_);

  int lead = -1;
  for (const int s : ws.touched_) {
    if (engines_[static_cast<size_t>(s)] != nullptr) {
      lead = s;
      break;
    }
  }
  // Window over empty shards only: any shard evaluates the peer stage and
  // retrieves nothing of its own.
  if (lead < 0) lead = first_nonempty_;

  engines_[static_cast<size_t>(lead)]->Execute(
      request, ws.Shard(static_cast<size_t>(lead)), outcome);
  // w inside the MVR is a pure peer predicate — final at any shard count.
  if (outcome->window->resolved_by_peers) return;

  ws.merged_pois_.assign(outcome->window->pois.begin(),
                         outcome->window->pois.end());
  broadcast::AccessStats stats = outcome->window->stats;
  // Same min-epoch rule as ExecuteKnn: the merged window knowledge is only
  // as fresh as the oldest contributing channel.
  uint64_t epoch = systems_[static_cast<size_t>(lead)]->epoch();

  QueryRequest partial = request;
  partial.trace = nullptr;  // the trace narrates the lead execution only
  for (const int s : ws.touched_) {
    const size_t si = static_cast<size_t>(s);
    if (s == lead || engines_[si] == nullptr) continue;
    if (!bounds_[si].Intersects(request.window)) continue;
    // Peers ride along: each shard applies the MVR window reduction to its
    // own channel, so sharing shrinks every shard's retrieval.
    engines_[si]->Execute(partial, ws.Shard(si), &ws.partial_window_);
    epoch = std::min(epoch, systems_[si]->epoch());
    const SbwqOutcome& part = *ws.partial_window_.window;
    ws.merged_pois_.insert(ws.merged_pois_.end(), part.pois.begin(),
                           part.pois.end());
    stats.access_latency =
        std::max(stats.access_latency, part.stats.access_latency);
    stats.tuning_time += part.stats.tuning_time;
    stats.buckets_read += part.stats.buckets_read;
  }

  // Union at the seams, deduplicated by id (peer-known POIs surface in
  // every shard's partial answer).
  std::sort(ws.merged_pois_.begin(), ws.merged_pois_.end(),
            [](const spatial::Poi& a, const spatial::Poi& b) {
              return a.id < b.id;
            });
  ws.merged_pois_.erase(
      std::unique(ws.merged_pois_.begin(), ws.merged_pois_.end(),
                  [](const spatial::Poi& a, const spatial::Poi& b) {
                    return a.id == b.id;
                  }),
      ws.merged_pois_.end());

  SbwqOutcome& merged = *outcome->window;
  merged.pois.assign(ws.merged_pois_.begin(), ws.merged_pois_.end());
  merged.stats = stats;
  merged.buckets.clear();
  merged.failed_buckets.clear();
  // The MVR, residual windows, and residual fraction are functions of
  // (window, peers) alone — the lead's values stand for the whole query.

  // Complete knowledge of the whole window: the cacheable is the window
  // plus its exact content — a pure function of the merged answer.
  merged.cacheable.Clear();
  merged.cacheable.region = request.window;
  merged.cacheable.pois.assign(ws.merged_pois_.begin(), ws.merged_pois_.end());
  merged.cacheable.epoch = epoch;
}

}  // namespace lbsq::core
