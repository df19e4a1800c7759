#include "sim/sim_world.h"

#include <algorithm>
#include <utility>

#include "common/check.h"
#include "common/rng.h"
#include "sim/query_exec.h"
#include "sim/update_workload.h"
#include "sim/workload.h"
#include "spatial/generators.h"

namespace lbsq::sim {

namespace {

std::vector<spatial::Poi> InitialPois(const SimConfig& config,
                                      const geom::Rect& bounds) {
  config.Validate();
  Rng poi_rng(DeriveStreamSeed(config.seed, kStreamPois));
  return spatial::GenerateUniformPois(&poi_rng, bounds,
                                      config.ScaledPoiCount());
}

}  // namespace

SimWorld::SimWorld(const SimConfig& config)
    : config_(config),
      bounds_{0.0, 0.0, config.world_side_mi, config.world_side_mi},
      versions_(InitialPois(config, bounds_), bounds_, config.broadcast,
                EngineOptionsFromConfig(config), config.shards),
      current_(versions_.Current()) {
  dynamic::RebuildPolicy rebuild_policy;
  rebuild_policy.force_full = config.updates.force_full_rebuild;
  versions_.set_rebuild_policy(rebuild_policy);
  base_insert_id_ = FirstInsertId(current_->pois);
  if (config.check_cache_invariant) history_.push_back(current_);
}

int64_t SimWorld::MaxCycleLength() const {
  int64_t cycle = 0;
  const core::ShardedQueryEngine& engine = *current_->engine;
  for (int s = 0; s < engine.num_shards(); ++s) {
    const broadcast::BroadcastSystem* system = engine.shard_system(s);
    if (system != nullptr) {
      cycle = std::max(cycle, system->schedule().cycle_length());
    }
  }
  return cycle;
}

void SimWorld::MaybeApplyUpdates(size_t event_index, double event_time_min,
                                 SimMetrics* metrics) {
  if (!config_.updates.enabled()) return;
  const size_t interval =
      static_cast<size_t>(config_.updates.interval_events);
  if (event_index == 0 || event_index % interval != 0) return;
  const uint64_t k = event_index / interval;
  std::vector<dynamic::PoiUpdate> batch =
      GenerateUpdateBatch(config_.updates, config_.seed, k, current_->pois,
                          bounds_, base_insert_id_);
  const int64_t before = versions_.updates_applied();
  const uint64_t published = versions_.Apply(std::move(batch));
  LBSQ_CHECK(published == k);
  current_ = versions_.Current();
  if (config_.check_cache_invariant) history_.push_back(current_);
  if (event_time_min >= config_.warmup_min) {
    metrics->epochs_published += 1;
    metrics->updates_applied += versions_.updates_applied() - before;
  }
}

dynamic::RevalidationStats SimWorld::RevalidatePeers(
    std::vector<core::PeerData>* peers) const {
  if (!config_.updates.enabled()) return {};
  return versions_.RevalidatePeers(current_->id, peers);
}

void SimWorld::CheckCacheInvariant(const core::PeerCache& cache) const {
  for (const core::VerifiedRegion& vr : cache.entries()) {
    LBSQ_CHECK(vr.epoch < history_.size());
    const std::vector<spatial::Poi> truth = spatial::BruteForceWindow(
        history_[static_cast<size_t>(vr.epoch)]->pois, vr.region);
    // Every server POI inside the region must be cached.
    for (const spatial::Poi& poi : truth) {
      const bool present =
          std::any_of(vr.pois.begin(), vr.pois.end(),
                      [&poi](const spatial::Poi& p) { return p.id == poi.id; });
      LBSQ_CHECK(present);
    }
    // And nothing outside the region may be stored in this entry.
    for (const spatial::Poi& poi : vr.pois) {
      LBSQ_CHECK(vr.region.Contains(poi.pos));
    }
  }
}

}  // namespace lbsq::sim
