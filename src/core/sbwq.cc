#include "core/sbwq.h"

#include <algorithm>
#include <span>

#include "common/check.h"
#include "core/query_internal.h"
#include "kernels/kernels.h"

namespace lbsq::core {

void SbwqOptions::Validate() const {
  LBSQ_CHECK(retrieval == onair::WindowRetrieval::kSingleSpan ||
             retrieval == onair::WindowRetrieval::kPartitionedRanges);
}

namespace internal {

void RunSbwq(const geom::Rect& window, const SbwqOptions& options,
             std::span<const PeerData> peers,
             const broadcast::BroadcastSystem& system, int64_t now,
             obs::TraceRecorder* trace, fault::ChannelSession* faults,
             QueryWorkspace& ws, SbwqOutcome* out) {
  options.Validate();
  LBSQ_CHECK(!window.empty());
  SbwqOutcome& outcome = *out;
  outcome.Reset();

  // Merge peer verified regions and pool the shared POIs that overlap w
  // (the pool is assembled directly in the outcome's poi storage; the
  // containment scan runs through the SIMD window-mask kernel).
  std::vector<spatial::Poi>& pool = outcome.pois;
  for (const PeerData& peer : peers) {
    for (const VerifiedRegion& vr : peer.regions) {
      outcome.mvr.Add(vr.region, &ws.region_scratch);
      const size_t n = vr.pois.size();
      ws.slab.slab.Assign(vr.pois.data(), n);
      uint32_t* idx = ws.slab.IdxFor(n);
      const size_t m =
          kernels::SelectInWindow(ws.slab.slab.xs(), ws.slab.slab.ys(), n,
                                  window.x1, window.y1, window.x2, window.y2,
                                  idx);
      for (size_t j = 0; j < m; ++j) pool.push_back(vr.pois[idx[j]]);
    }
  }
  // Everything pooled from here on comes from CollectPois — already sorted
  // by id and deduplicated, with the selection preserving that order — so
  // the canonicalizing sort below is only needed when the peers contributed.
  const size_t peer_pool_size = pool.size();

  // Residual windows w' = w \ MVR.
  outcome.mvr.SubtractFrom(window, &outcome.residual_windows,
                           &ws.region_scratch);
  double residual_area = 0.0;
  for (const geom::Rect& r : outcome.residual_windows) {
    residual_area += r.area();
  }
  outcome.residual_fraction =
      window.area() > 0.0 ? residual_area / window.area() : 0.0;
  if (trace != nullptr) {
    // MVR merge and subtraction are pure computation (instantaneous in
    // broadcast time); the counter carries the coverage outcome.
    trace->Span("sbwq.mvr", now, now);
    trace->Counter("sbwq.residual_fraction", outcome.residual_fraction);
  }

  if (outcome.residual_windows.empty()) {
    // w lies inside the MVR: the pooled data is complete for w.
    outcome.resolved_by_peers = true;
    if (trace != nullptr) trace->Counter("sbwq.peers_resolved", 1.0);
  } else {
    // Solve the residual window(s) on air. Without window reduction the
    // baseline retrieves the whole original window.
    const bool single_span =
        options.retrieval == onair::WindowRetrieval::kSingleSpan;
    const std::span<const geom::Rect> solved =
        options.use_window_reduction
            ? std::span<const geom::Rect>(outcome.residual_windows)
            : std::span<const geom::Rect>(&window, 1);
    // A hierarchical index is read once for all covers' curve ranges.
    const bool tree_index = system.tree_index() != nullptr;
    ws.needed.clear();
    ws.lookups.clear();
    for (const geom::Rect& rect : solved) {
      system.grid().CoverRect(rect, &ws.cover);
      if (tree_index) {
        ws.lookups.insert(ws.lookups.end(), ws.cover.begin(), ws.cover.end());
      }
      if (ws.cover.empty()) continue;
      if (single_span) {
        system.index().BucketsForSpan(ws.cover.front().lo, ws.cover.back().hi,
                                      &ws.cover_buckets);
      } else {
        system.index().BucketsForRanges(ws.cover, &ws.cover_buckets);
      }
      ws.needed.UnionWith(ws.cover_buckets);
    }
    broadcast::IndexReadMode index_mode =
        broadcast::IndexReadMode::FlatDirectory();
    if (tree_index) {
      index_mode = broadcast::IndexReadMode::TreePaths(
          system.IndexReadBuckets(ws.lookups));
    }
    const broadcast::BucketRuns& retrieved =
        RetrieveNeeded(system, now, index_mode, trace, faults, ws, &outcome);
    if (trace != nullptr) {
      trace->Span("sbwq.fallback", now, now + outcome.stats.access_latency);
    }
    // Only the received buckets whose MBR meets the window can hold a POI
    // inside it (both tests are closed), so only those are processed. The
    // filter uses the original window, not the residuals, so the result
    // does not depend on the peers being complete.
    system.CollectPois(ws.BucketsMeeting(system, retrieved, window),
                       &ws.collect_scratch, &ws.known_pois);
    const size_t n = ws.known_pois.size();
    ws.slab.slab.Assign(ws.known_pois.data(), n);
    uint32_t* idx = ws.slab.IdxFor(n);
    const size_t m =
        kernels::SelectInWindow(ws.slab.slab.xs(), ws.slab.slab.ys(), n,
                                window.x1, window.y1, window.x2, window.y2,
                                idx);
    for (size_t j = 0; j < m; ++j) pool.push_back(ws.known_pois[idx[j]]);
  }

  if (peer_pool_size > 0) {
    std::sort(pool.begin(), pool.end(),
              [](const spatial::Poi& a, const spatial::Poi& b) {
                return a.id < b.id;
              });
    pool.erase(std::unique(pool.begin(), pool.end()), pool.end());
  }
  // Both resolution paths end with complete knowledge of the window — except
  // when the retrieval degraded, in which case caching the window would
  // poison the peer network with a false completeness claim.
  if (!outcome.degraded) {
    outcome.cacheable.region = window;
    outcome.cacheable.pois = outcome.pois;
  }
}

}  // namespace internal
}  // namespace lbsq::core
