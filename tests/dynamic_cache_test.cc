#include <gtest/gtest.h>

#include <algorithm>
#include <memory>
#include <vector>

#include "broadcast/system.h"
#include "common/rng.h"
#include "core/peer_cache.h"
#include "core/query_engine.h"
#include "core/sharded_query_engine.h"
#include "core/verified_region.h"
#include "dynamic/sharded_world.h"
#include "dynamic/update_log.h"
#include "fault/peer_faults.h"
#include "spatial/generators.h"

/// Cross-epoch peer-cache sharing. A cached verified region is complete
/// only with respect to the POI database of the epoch it was verified on;
/// when it is shared into a query pinned to a different epoch it must be
/// revalidated (kept iff no separating update touched it) or rejected.
/// The same completeness oracle also judges fault-injected stale regions
/// (fault/peer_faults), so epoch drift and link corruption are held to one
/// standard: a region may be served only if it is complete w.r.t. the
/// snapshot the query executes against.

namespace lbsq {
namespace {

using core::PeerData;
using core::VerifiedRegion;
using spatial::Poi;

/// The shared oracle: `vr` is complete and exact w.r.t. `server` — every
/// server POI inside the region is cached at its server position, and
/// every cached POI matches a server POI. This is the precondition of
/// Lemma 3.1; both the epoch revalidator and the fault screen exist to
/// keep regions that violate it away from queries.
bool RegionCompleteOn(const std::vector<Poi>& server,
                      const VerifiedRegion& vr) {
  for (const Poi& p : server) {
    if (!vr.region.Contains(p.pos)) continue;
    const bool present = std::any_of(
        vr.pois.begin(), vr.pois.end(),
        [&p](const Poi& c) { return c.id == p.id && c.pos == p.pos; });
    if (!present) return false;
  }
  for (const Poi& c : vr.pois) {
    const bool matches = std::any_of(
        server.begin(), server.end(),
        [&c](const Poi& p) { return p.id == c.id && p.pos == c.pos; });
    if (!matches) return false;
  }
  return true;
}

VerifiedRegion CompleteRegionOn(const std::vector<Poi>& server,
                                geom::Rect region, uint64_t epoch) {
  VerifiedRegion vr;
  vr.region = region;
  vr.epoch = epoch;
  for (const Poi& p : server) {
    if (region.Contains(p.pos)) vr.pois.push_back(p);
  }
  return vr;
}

TEST(DynamicCacheTest, CacheEntriesCarryTheirEpochTag) {
  const geom::Rect world{0.0, 0.0, 10.0, 10.0};
  Rng rng(101);
  std::vector<Poi> pois = spatial::GenerateUniformPois(&rng, world, 120);
  broadcast::BroadcastParams params;
  params.bucket_capacity = 8;
  dynamic::ShardedWorld versions(pois, world, params, {}, 1);

  // Run one broadcast-path query per epoch as the world advances and cache
  // its outcome: the cacheable region must carry the serving epoch through
  // engine stamping, PeerCache insertion, capacity shrinking, and Share().
  core::PeerCache cache(400, 8);
  core::ShardedQueryWorkspace ws;
  core::QueryOutcome outcome;
  for (uint64_t e = 0; e <= 2; ++e) {
    core::QueryRequest request;
    request.kind = core::QueryKind::kKnn;
    request.position = {2.0 + 3.0 * static_cast<double>(e), 5.0};
    request.k = 4;
    const std::shared_ptr<const dynamic::ShardedEpoch> epoch =
        versions.Execute(request, /*peers=*/nullptr, ws, &outcome);
    ASSERT_EQ(epoch->id, e);
    EXPECT_EQ(outcome.Cacheable().epoch, e);
    cache.Insert(outcome.Cacheable(), request.position, request.position,
                 {1.0, 0.0});
    versions.Apply({dynamic::PoiUpdate{
        dynamic::PoiUpdate::Kind::kInsert,
        static_cast<int64_t>(5000 + e), {1.0, 1.0}, {}}});
  }
  ASSERT_FALSE(cache.entries().empty());
  const PeerData shared = cache.Share();
  ASSERT_EQ(shared.regions.size(), cache.entries().size());
  uint64_t max_epoch = 0;
  for (size_t i = 0; i < shared.regions.size(); ++i) {
    // Share() preserves each entry's tag exactly.
    EXPECT_EQ(shared.regions[i].epoch, cache.entries()[i].epoch);
    max_epoch = std::max(max_epoch, shared.regions[i].epoch);
  }
  // Entries verified on distinct epochs coexist, each keeping its own tag.
  EXPECT_GT(max_epoch, 0u);
}

TEST(DynamicCacheTest, RevalidationKeepsCleanRegionsRejectsDirtyOnes) {
  const geom::Rect world{0.0, 0.0, 10.0, 10.0};
  Rng rng(202);
  std::vector<Poi> pois = spatial::GenerateUniformPois(&rng, world, 150);
  broadcast::BroadcastParams params;
  dynamic::ShardedWorld versions(pois, world, params, {}, 1);
  const std::vector<Poi> epoch0 = versions.Current()->pois;

  // Two epoch-0 regions: `clean` in the top-right, `dirty` in the
  // bottom-left where the update batch will land.
  const geom::Rect clean_rect{6.0, 6.0, 9.0, 9.0};
  const geom::Rect dirty_rect{1.0, 1.0, 4.0, 4.0};
  PeerData peer;
  peer.regions.push_back(CompleteRegionOn(epoch0, clean_rect, 0));
  peer.regions.push_back(CompleteRegionOn(epoch0, dirty_rect, 0));

  // Epoch 1: one insert inside the dirty rect, far from the clean one.
  versions.Apply({dynamic::PoiUpdate{dynamic::PoiUpdate::Kind::kInsert,
                                     7000, {2.0, 2.0}, {}}});

  std::vector<PeerData> peers{peer};
  const dynamic::RevalidationStats stats = versions.RevalidatePeers(1, &peers);
  EXPECT_EQ(stats.revalidated, 1);
  EXPECT_EQ(stats.rejected, 1);
  ASSERT_EQ(peers[0].regions.size(), 1u);
  EXPECT_EQ(peers[0].regions[0].region.x1, clean_rect.x1);
  // The survivor is retagged to the pinned epoch and satisfies the oracle
  // on the pinned snapshot.
  EXPECT_EQ(peers[0].regions[0].epoch, 1u);
  EXPECT_TRUE(RegionCompleteOn(versions.Current()->pois, peers[0].regions[0]));

  // Same-epoch regions are never touched.
  std::vector<PeerData> fresh{PeerData{
      {CompleteRegionOn(versions.Current()->pois, dirty_rect, 1)}}};
  const dynamic::RevalidationStats none =
      versions.RevalidatePeers(1, &fresh);
  EXPECT_EQ(none.revalidated, 0);
  EXPECT_EQ(none.rejected, 0);
  EXPECT_EQ(fresh[0].regions.size(), 1u);
}

// Randomized sweep of the revalidation soundness contract: gather regions
// verified on arbitrary historical epochs, revalidate against the latest,
// and require every survivor to satisfy the completeness oracle on the
// pinned snapshot. Rejection is allowed to be conservative (a dirty batch
// elsewhere in the region is grounds for rejection even if no POI actually
// changed); serving an incomplete region is not.
TEST(DynamicCacheTest, SurvivorsOfRevalidationAlwaysSatisfyTheOracle) {
  Rng rng(303);
  const geom::Rect world{0.0, 0.0, 10.0, 10.0};
  int64_t survivors = 0;
  int64_t rejected = 0;
  for (int config = 0; config < 30; ++config) {
    const int n = static_cast<int>(rng.UniformInt(30, 150));
    std::vector<Poi> pois = spatial::GenerateUniformPois(&rng, world, n);
    broadcast::BroadcastParams params;
    dynamic::ShardedWorld versions(pois, world, params, {}, 1);
    int64_t next_id = 900000;

    // Regions captured per epoch, complete w.r.t. that epoch's snapshot.
    std::vector<PeerData> gathered;
    const int epochs = static_cast<int>(rng.UniformInt(1, 6));
    for (int e = 0; e <= epochs; ++e) {
      const std::shared_ptr<const dynamic::ShardedEpoch> snapshot =
          versions.Current();
      PeerData peer;
      const int n_regions = static_cast<int>(rng.UniformInt(1, 4));
      for (int r = 0; r < n_regions; ++r) {
        const geom::Point c{rng.Uniform(0.0, 10.0), rng.Uniform(0.0, 10.0)};
        VerifiedRegion vr = CompleteRegionOn(
            snapshot->pois,
            geom::Rect::CenteredSquare(c, rng.Uniform(0.3, 2.0)),
            snapshot->id);
        if (!vr.pois.empty()) peer.regions.push_back(std::move(vr));
      }
      if (!peer.regions.empty()) gathered.push_back(std::move(peer));
      if (e == epochs) break;
      // Random batch: inserts, deletes, moves against the live snapshot.
      std::vector<dynamic::PoiUpdate> batch;
      const int ops = static_cast<int>(rng.UniformInt(1, 5));
      const std::vector<Poi>& live = snapshot->pois;
      for (int op = 0; op < ops; ++op) {
        dynamic::PoiUpdate u;
        const double kind = rng.NextDouble();
        if (kind < 0.35 && !live.empty()) {
          u.kind = dynamic::PoiUpdate::Kind::kDelete;
          u.id = live[rng.NextBelow(live.size())].id;
        } else if (kind < 0.65 && !live.empty()) {
          u.kind = dynamic::PoiUpdate::Kind::kMove;
          u.id = live[rng.NextBelow(live.size())].id;
          u.pos = {rng.Uniform(0.0, 10.0), rng.Uniform(0.0, 10.0)};
        } else {
          u.kind = dynamic::PoiUpdate::Kind::kInsert;
          u.id = next_id++;
          u.pos = {rng.Uniform(0.0, 10.0), rng.Uniform(0.0, 10.0)};
        }
        batch.push_back(u);
      }
      versions.Apply(std::move(batch));
    }

    const std::shared_ptr<const dynamic::ShardedEpoch> pinned_epoch =
        versions.Current();
    const uint64_t pinned = pinned_epoch->id;
    const std::vector<Poi>& pinned_pois = pinned_epoch->pois;
    const dynamic::RevalidationStats stats =
        versions.RevalidatePeers(pinned, &gathered);
    rejected += stats.rejected;
    for (const PeerData& peer : gathered) {
      for (const VerifiedRegion& vr : peer.regions) {
        EXPECT_EQ(vr.epoch, pinned);
        EXPECT_TRUE(RegionCompleteOn(pinned_pois, vr)) << "config " << config;
        ++survivors;
      }
    }
  }
  // The sweep must exercise both outcomes.
  EXPECT_GT(survivors, 50);
  EXPECT_GT(rejected, 20);
}

// The fault-injection staleness path is held to the same oracle: a region
// that CorruptPeerData marked stale (drifted POI positions — the peer
// cached an old world) fails RegionCompleteOn against the live snapshot,
// exactly like a cross-epoch region the revalidator rejects. One oracle,
// two staleness sources.
TEST(DynamicCacheTest, FaultInjectedStaleRegionsFailTheSharedOracle) {
  Rng rng(404);
  const geom::Rect world{0.0, 0.0, 10.0, 10.0};
  std::vector<Poi> pois = spatial::GenerateUniformPois(&rng, world, 200);

  fault::PeerFaultConfig config;
  config.stale_prob = 1.0;
  config.stale_drift = 0.2;

  int stale_and_incomplete = 0;
  for (int trial = 0; trial < 20; ++trial) {
    const geom::Point c{rng.Uniform(1.0, 9.0), rng.Uniform(1.0, 9.0)};
    VerifiedRegion vr =
        CompleteRegionOn(pois, geom::Rect::CenteredSquare(c, 1.5), 0);
    if (vr.pois.empty()) continue;
    ASSERT_TRUE(RegionCompleteOn(pois, vr));

    std::vector<PeerData> peers{PeerData{{vr}}};
    Rng fault_rng(9000 + static_cast<uint64_t>(trial));
    const fault::PeerFaultStats stats =
        fault::CorruptPeerData(config, &fault_rng, &peers);
    ASSERT_EQ(stats.regions_stale, 1);
    if (!RegionCompleteOn(pois, peers[0].regions[0])) ++stale_and_incomplete;
  }
  // Drifted positions must be caught by the oracle (every non-empty region
  // has at least one moved POI).
  EXPECT_GT(stale_and_incomplete, 15);
}

}  // namespace
}  // namespace lbsq
