#include "core/sbwq.h"

#include <algorithm>
#include <utility>

#include "common/check.h"
#include "core/query_internal.h"
#include "fault/faulty_channel.h"
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
  // Everything pooled from here on comes from CollectPois or the cycle memo
  // — already sorted by id and deduplicated, with selections preserving that
  // order — so the canonicalizing sort below is only needed when the peers
  // contributed.
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
    // baseline retrieves the whole original window. Covers and the bucket
    // lookups derived from them come from the cycle memo.
    const bool single_span =
        options.retrieval == onair::WindowRetrieval::kSingleSpan;
    ws.needed.clear();
    // Set when exactly one cover fed `needed`: its lookup is already sorted
    // and unique, and its memoized index read cost applies verbatim.
    CoverEntry* sole_cover = nullptr;
    if (options.use_window_reduction) {
      for (const geom::Rect& residual : outcome.residual_windows) {
        CoverEntry& cover = ws.Cover(system, residual);
        if (outcome.residual_windows.size() == 1) sole_cover = &cover;
        if (cover.ranges.empty()) continue;
        const std::vector<int64_t>& part = single_span
                                               ? ws.SpanBuckets(system, &cover)
                                               : ws.RangeBuckets(system, &cover);
        ws.needed.insert(ws.needed.end(), part.begin(), part.end());
      }
    } else {
      CoverEntry& cover = ws.Cover(system, window);
      sole_cover = &cover;
      if (!cover.ranges.empty()) {
        const std::vector<int64_t>& part = single_span
                                               ? ws.SpanBuckets(system, &cover)
                                               : ws.RangeBuckets(system, &cover);
        ws.needed.insert(ws.needed.end(), part.begin(), part.end());
      }
    }
    // The memoized content is the neighbourhood of the sole cover's key, so
    // it holds every downloaded POI inside `window` only when that cover is
    // the window's own: no reduction, or one residual equal to the window.
    const bool window_cover =
        sole_cover != nullptr && (!options.use_window_reduction ||
                                  outcome.residual_windows.front() == window);
    std::sort(ws.needed.begin(), ws.needed.end());
    ws.needed.erase(std::unique(ws.needed.begin(), ws.needed.end()),
                    ws.needed.end());
    outcome.buckets.assign(ws.needed.begin(), ws.needed.end());
    broadcast::IndexReadMode index_mode =
        broadcast::IndexReadMode::FlatDirectory();
    if (system.tree_index() != nullptr) {
      if (sole_cover != nullptr) {
        index_mode = broadcast::IndexReadMode::TreePaths(
            ws.TreeReadBuckets(system, sole_cover));
      } else {
        ws.lookups.clear();
        for (const geom::Rect& residual : outcome.residual_windows) {
          const std::vector<hilbert::IndexRange>& part =
              ws.Cover(system, residual).ranges;
          ws.lookups.insert(ws.lookups.end(), part.begin(), part.end());
        }
        index_mode = broadcast::IndexReadMode::TreePaths(
            system.IndexReadBuckets(ws.lookups));
      }
    }
    const std::vector<int64_t>* retrieved = &ws.needed;
    bool complete_cover = false;
    if (faults != nullptr && faults->channel_enabled()) {
      fault::FaultyRetrievalResult r =
          faults->Retrieve(system.schedule(), now, ws.needed, index_mode,
                           trace);
      outcome.stats = r.stats;
      outcome.fault_losses = r.losses;
      outcome.fault_corruptions = r.corruptions;
      outcome.fault_deadline_hit = r.deadline_hit;
      if (!r.complete()) {
        outcome.degraded = true;
        outcome.failed_buckets = std::move(r.failed);
      }
      ws.retrieved = std::move(r.received);
      retrieved = &ws.retrieved;
    } else {
      outcome.stats = broadcast::RetrieveBuckets(system.schedule(), now,
                                                 ws.needed, index_mode, trace);
      complete_cover = window_cover && !sole_cover->ranges.empty();
    }
    if (trace != nullptr) {
      trace->Span("sbwq.fallback", now, now + outcome.stats.access_latency);
    }
    // Only the received buckets whose MBR meets the window can hold a POI
    // inside it (both tests are closed), so only those are processed. The
    // filter uses the original window, not the residuals, so the result
    // does not depend on the peers being complete.
    if (complete_cover) {
      // The memoized bucket content carries its own SoA transpose: the
      // window filter is a single kernel pass, no per-query transpose.
      const std::vector<spatial::Poi>& memo =
          single_span ? ws.SpanPois(system, sole_cover)
                      : ws.RangePois(system, sole_cover);
      const kernels::PoiSlab& mslab =
          single_span ? sole_cover->span_slab : sole_cover->range_slab;
      uint32_t* idx = ws.slab.IdxFor(mslab.size());
      const size_t m = kernels::SelectInWindow(
          mslab.xs(), mslab.ys(), mslab.size(), window.x1, window.y1,
          window.x2, window.y2, idx);
      for (size_t j = 0; j < m; ++j) pool.push_back(memo[idx[j]]);
    } else {
      system.CollectPois(ws.BucketsMeeting(system, *retrieved, window),
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
