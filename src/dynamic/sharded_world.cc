#include "dynamic/sharded_world.h"

#include <utility>

#include "common/check.h"
#include "storage/system_builder.h"

namespace lbsq::dynamic {

ShardedWorld::ShardedWorld(std::vector<spatial::Poi> initial,
                           const geom::Rect& world,
                           const broadcast::BroadcastParams& params,
                           const core::EngineOptions& options, int num_shards)
    : world_(world), params_(params), options_(options) {
  auto epoch = std::make_shared<ShardedEpoch>();
  epoch->id = 0;
  epoch->pois = initial;
  broadcast::BroadcastParams epoch_params = params_;
  epoch_params.epoch = 0;
  epoch->engine = std::make_unique<core::ShardedQueryEngine>(
      std::move(initial), world_, epoch_params, options_, num_shards);
  num_shards_ = epoch->engine->num_shards();
  for (int s = 0; s < num_shards_; ++s) {
    if (epoch->engine->shard_system(s) != nullptr) {
      epoch->rebuilt_shards.push_back(s);
    }
  }
  current_ = std::move(epoch);
}

std::shared_ptr<const ShardedEpoch> ShardedWorld::Current() const {
  std::lock_guard<std::mutex> lock(state_mutex_);
  return current_;
}

uint64_t ShardedWorld::latest_epoch() const {
  std::lock_guard<std::mutex> lock(state_mutex_);
  return current_->id;
}

int ShardedWorld::ShardOf(const core::ShardedQueryEngine& engine,
                          geom::Point p) const {
  // One shard owns the whole curve: skip the curve encode.
  if (num_shards_ == 1) return 0;
  return engine.map().ShardOfIndex(engine.routing_grid().IndexOf(p));
}

uint64_t ShardedWorld::Apply(std::vector<PoiUpdate> updates) {
  std::lock_guard<std::mutex> build_lock(build_mutex_);
  const std::shared_ptr<const ShardedEpoch> base = Current();
  const core::ShardedQueryEngine& base_engine = *base->engine;

  // The global mirror advances by one order-preserving merge; the filtered
  // batch is what the log records.
  std::vector<spatial::Poi> pois = base->pois;
  ApplyUpdates(&updates, &pois);
  const uint64_t id = base->id + 1;

  // The net base-relative delta drives per-shard patching; the raw update
  // footprints below still drive the dirty-shard set (a shard a POI merely
  // passed through mid-batch stays clean under netting, but an update that
  // nets to nothing never dirties anything either way).
  const broadcast::SystemDelta delta = DeltaFromBatch(updates);
  const size_t base_n = base->pois.size();
  const bool try_patch =
      !policy_.force_full && base_n > 0 &&
      static_cast<double>(delta.size()) <=
          policy_.full_rebuild_churn_fraction * static_cast<double>(base_n);

  // An update dirties the shard(s) owning its footprint: where the POI
  // lands (insert, move-to) and where it departed from (delete, move-from).
  std::vector<bool> dirty(static_cast<size_t>(num_shards_), false);
  for (const PoiUpdate& u : updates) {
    switch (u.kind) {
      case PoiUpdate::Kind::kInsert:
        dirty[static_cast<size_t>(ShardOf(base_engine, u.pos))] = true;
        break;
      case PoiUpdate::Kind::kDelete:
        dirty[static_cast<size_t>(ShardOf(base_engine, u.old_pos))] = true;
        break;
      case PoiUpdate::Kind::kMove:
        dirty[static_cast<size_t>(ShardOf(base_engine, u.old_pos))] = true;
        dirty[static_cast<size_t>(ShardOf(base_engine, u.pos))] = true;
        break;
    }
  }

  // Refilter the mirror for the dirty shards only (one linear pass — the
  // same order-preserving filter the from-scratch constructor applies, so
  // a rebuilt shard's system is byte-identical to a cold build at this
  // epoch); every clean shard shares its system with the base epoch. One
  // shard's filtered list IS the mirror, so that shard reads it directly.
  std::vector<std::vector<spatial::Poi>> shard_pois(
      static_cast<size_t>(num_shards_));
  if (num_shards_ > 1) {
    for (const spatial::Poi& p : pois) {
      const size_t s = static_cast<size_t>(ShardOf(base_engine, p.pos));
      if (dirty[s]) shard_pois[s].push_back(p);
    }
  }
  const auto shard_input =
      [&](size_t s) -> const std::vector<spatial::Poi>& {
    return num_shards_ == 1 ? pois : shard_pois[s];
  };

  // Partition the net delta by the fixed shard map, the same way POIs are
  // routed: a removal belongs to the shard that owned the POI's base
  // position, an addition to the shard owning its final one.
  std::vector<broadcast::SystemDelta> shard_deltas(
      static_cast<size_t>(num_shards_));
  if (try_patch) {
    for (const broadcast::PoiRemoval& r : delta.removals) {
      shard_deltas[static_cast<size_t>(ShardOf(base_engine, r.pos))]
          .removals.push_back(r);
    }
    for (const spatial::Poi& p : delta.additions) {
      shard_deltas[static_cast<size_t>(ShardOf(base_engine, p.pos))]
          .additions.push_back(p);
    }
  }

  broadcast::BroadcastParams epoch_params = params_;
  epoch_params.epoch = id;
  std::vector<std::shared_ptr<const broadcast::BroadcastSystem>> systems(
      static_cast<size_t>(num_shards_));
  std::vector<int> rebuilt;
  PublicationStats stats;
  stats.epochs_published = 1;
  for (int s = 0; s < num_shards_; ++s) {
    const size_t si = static_cast<size_t>(s);
    if (!dirty[si]) {
      systems[si] = base_engine.shard_system_ptr(s);
      continue;
    }
    rebuilt.push_back(s);
    if (shard_input(si).empty()) continue;
    if (try_patch && base_engine.shard_system(s) != nullptr) {
      broadcast::PatchStats patch_stats;
      // The attempt copies the shard's POIs so a decline can still feed the
      // full build below.
      std::unique_ptr<broadcast::BroadcastSystem> patched =
          broadcast::BroadcastSystem::PatchFrom(
              *base_engine.shard_system(s), shard_input(si), shard_deltas[si],
              epoch_params, &patch_stats);
      if (patched != nullptr) {
        stats.buckets_patched += patch_stats.buckets_patched;
        stats.buckets_shared += patch_stats.buckets_shared;
        systems[si] = std::move(patched);
        continue;
      }
    }
    if (!policy_.force_full) ++stats.full_rebuild_fallbacks;
    systems[si] =
        storage::SystemBuilder(world_, epoch_params)
            .BuildSystemFromPois(num_shards_ == 1 ? pois
                                                  : std::move(shard_pois[si]));
  }
  // The epoch counts as patched when every republished shard came through
  // the incremental path.
  if (stats.full_rebuild_fallbacks == 0 && !policy_.force_full &&
      !rebuilt.empty()) {
    stats.epochs_patched = 1;
  }

  auto next = std::make_shared<ShardedEpoch>();
  next->id = id;
  next->pois = std::move(pois);
  next->engine = std::make_unique<core::ShardedQueryEngine>(
      world_, epoch_params, options_, base_engine.map(), std::move(systems));
  next->rebuilt_shards = std::move(rebuilt);

  const int64_t applied = static_cast<int64_t>(updates.size());
  const int64_t rebuilds = static_cast<int64_t>(next->rebuilt_shards.size());
  stats.shards_rebuilt = rebuilds;
  UpdateBatch batch{id, std::move(updates)};
  {
    std::lock_guard<std::mutex> lock(state_mutex_);
    LBSQ_CHECK(next->id == current_->id + 1);
    current_ = std::move(next);
    log_.Append(std::move(batch));
    updates_applied_ += applied;
    shards_rebuilt_ += rebuilds;
    stats_.MergeFrom(stats);
  }
  return id;
}

bool ShardedWorld::RegionDirty(const geom::Rect& rect, uint64_t from_exclusive,
                               uint64_t to_inclusive) const {
  std::lock_guard<std::mutex> lock(state_mutex_);
  return log_.RegionDirtyBetween(rect, from_exclusive, to_inclusive);
}

RevalidationStats ShardedWorld::RevalidatePeers(
    uint64_t pinned_epoch, std::vector<core::PeerData>* peers) const {
  auto dirty = [this](const geom::Rect& rect, uint64_t lo, uint64_t hi) {
    return RegionDirty(rect, lo, hi);
  };
  return RevalidatePeerDataWith(dirty, pinned_epoch, peers);
}

int64_t ShardedWorld::updates_applied() const {
  std::lock_guard<std::mutex> lock(state_mutex_);
  return updates_applied_;
}

int64_t ShardedWorld::shards_rebuilt() const {
  std::lock_guard<std::mutex> lock(state_mutex_);
  return shards_rebuilt_;
}

PublicationStats ShardedWorld::publication_stats() const {
  std::lock_guard<std::mutex> lock(state_mutex_);
  return stats_;
}

std::shared_ptr<const ShardedEpoch> ShardedWorld::Execute(
    const core::QueryRequest& request, std::vector<core::PeerData>* peers,
    core::ShardedQueryWorkspace& workspace, core::QueryOutcome* outcome,
    RevalidationStats* stats) const {
  LBSQ_CHECK(outcome != nullptr);
  // Peer knowledge must ride in through `peers` so revalidation can edit it.
  LBSQ_CHECK(request.peers.empty());
  std::shared_ptr<const ShardedEpoch> pinned = Current();
  core::QueryRequest exec = request;
  if (peers != nullptr) {
    const RevalidationStats pass = RevalidatePeers(pinned->id, peers);
    if (stats != nullptr) {
      stats->revalidated += pass.revalidated;
      stats->rejected += pass.rejected;
    }
    exec.peers = *peers;
  }
  pinned->engine->Execute(exec, workspace, outcome);
  // Clean shards still carry the epoch stamp of their last rebuild; the
  // knowledge this query verified is consistent with the *global* pinned
  // epoch, and the global log is what future revalidation consults.
  outcome->Cacheable().epoch = pinned->id;
  return pinned;
}

}  // namespace lbsq::dynamic
