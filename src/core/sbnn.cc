#include "core/sbnn.h"

#include <algorithm>
#include <cmath>

#include "common/check.h"
#include "core/query_internal.h"
#include "fault/faulty_channel.h"
#include "geom/circle.h"
#include "kernels/kernels.h"
#include "onair/onair_knn.h"

namespace lbsq::core {

void SbnnOptions::Validate() const {
  LBSQ_CHECK(k >= 1);
  LBSQ_CHECK(min_correctness >= 0.0 && min_correctness <= 1.0);
  LBSQ_CHECK(prefetch_radius_factor >= 1.0);
}

namespace internal {

namespace {

// Converts heap entries into the result representation.
void HeapToNeighbors(const ResultHeap& heap,
                     std::vector<spatial::PoiDistance>* out) {
  out->clear();
  out->reserve(heap.entries().size());
  for (const HeapEntry& e : heap.entries()) {
    out->push_back(spatial::PoiDistance{e.poi, e.distance});
  }
}

// True when every unverified entry clears the correctness threshold.
bool ApproximateAcceptable(const ResultHeap& heap, double min_correctness) {
  for (const HeapEntry& e : heap.entries()) {
    if (!e.verified && e.correctness < min_correctness) return false;
  }
  return true;
}

// The square inscribed in the disc of the last verified entry: every server
// POI inside it is among the verified prefix, so the pair (square, verified
// POIs inside it) satisfies the cache completeness invariant.
void CacheableFromVerifiedPrefix(geom::Point q, const ResultHeap& heap,
                                 VerifiedRegion* vr) {
  vr->Clear();
  const auto lower = heap.LowerBound();
  if (!lower.has_value() || *lower <= 0.0) return;
  // Shrink a hair below the inscribed square so distance ties with POIs that
  // did not fit in the heap (and square-corner contacts) stay outside.
  vr->region = geom::Rect::CenteredSquare(
      q, *lower / std::sqrt(2.0) * (1.0 - 1e-9));
  vr->pois.reserve(heap.entries().size());
  for (const HeapEntry& e : heap.entries()) {
    if (e.verified && vr->region.Contains(e.poi.pos)) vr->pois.push_back(e.poi);
  }
}

// Merges the peer candidates into the collected bucket content. Both
// CollectPois and the memoized content are already sorted by id and
// deduplicated, so the canonicalizing sort is only needed when peer
// candidates were actually merged in. Returns false when two entries share
// an id at different positions (a corrupted peer's copy of a known POI):
// the sort leaves such copies in an order that depends on everything else
// in `known`, so only the whole received set reproduces it.
bool MergeCandidates(const std::vector<spatial::PoiDistance>& candidates,
                     std::vector<spatial::Poi>* known) {
  if (candidates.empty()) return true;
  for (const spatial::PoiDistance& c : candidates) known->push_back(c.poi);
  std::sort(known->begin(), known->end(),
            [](const spatial::Poi& a, const spatial::Poi& b) {
              return a.id < b.id;
            });
  known->erase(std::unique(known->begin(), known->end()), known->end());
  return std::adjacent_find(known->begin(), known->end(),
                            [](const spatial::Poi& a, const spatial::Poi& b) {
                              return a.id == b.id;
                            }) == known->end();
}

}  // namespace

void RunSbnn(geom::Point q, const SbnnOptions& options,
             std::span<const PeerData> peers, double poi_density,
             const broadcast::BroadcastSystem& system, int64_t now,
             obs::TraceRecorder* trace, fault::ChannelSession* faults,
             QueryWorkspace& ws, SbnnOutcome* out) {
  options.Validate();
  SbnnOutcome& outcome = *out;
  outcome.Reset(options.k);
  NearestNeighborVerify(q, options.k, peers, poi_density, &ws.nnv_pool,
                        &outcome.nnv, &ws.region_scratch, &ws.slab);
  const ResultHeap& heap = outcome.nnv.heap;
  if (trace != nullptr) {
    // NNV is pure computation: the span is instantaneous in broadcast time;
    // its cost shows in the counters.
    trace->Span("sbnn.nnv", now, now);
    trace->Counter("sbnn.candidates",
                   static_cast<double>(outcome.nnv.candidate_count));
    trace->Counter("sbnn.verified",
                   static_cast<double>(heap.verified_count()));
  }

  if (heap.fully_verified()) {
    outcome.resolved_by = ResolvedBy::kPeersVerified;
    HeapToNeighbors(heap, &outcome.neighbors);
    CacheableFromVerifiedPrefix(q, heap, &outcome.cacheable);
    if (trace != nullptr) trace->Counter("sbnn.peers_verified", 1.0);
    return;
  }
  if (options.accept_approximate && heap.full() &&
      ApproximateAcceptable(heap, options.min_correctness)) {
    outcome.resolved_by = ResolvedBy::kPeersApproximate;
    HeapToNeighbors(heap, &outcome.neighbors);
    CacheableFromVerifiedPrefix(q, heap, &outcome.cacheable);
    if (trace != nullptr) trace->Counter("sbnn.approx_accept", 1.0);
    return;
  }

  // Broadcast fallback with §3.3.3 data filtering.
  outcome.resolved_by = ResolvedBy::kBroadcast;

  // Search upper bound. The paper's client uses the k-th heap entry when H
  // is full (states 1, 2) and the index-derived bound otherwise; with
  // tighten_with_index_bound both bounds apply (their minimum is sound).
  const auto upper = heap.UpperBound();
  double radius;
  if (options.use_filtering && upper.has_value() &&
      !options.tighten_with_index_bound) {
    radius = *upper;
  } else {
    radius = system.index().KthDistanceUpperBound(q, options.k,
                                                  &ws.index_distances);
    if (!std::isfinite(radius)) {
      radius = system.grid().world().MaxDistance(q);
    }
    if (options.use_filtering && upper.has_value()) {
      radius = std::min(radius, *upper);
    }
  }
  radius *= options.prefetch_radius_factor;

  // Same bucket set onair::BucketsForCircle computes, but the cover and the
  // span lookup come from the cycle memo: co-located queries whose search
  // MBRs clamp to the same grid cells share the work.
  const geom::Rect search_mbr = geom::Circle{q, radius}.Mbr();
  CoverEntry& cover = ws.Cover(system, search_mbr);
  ws.needed.clear();
  if (!cover.ranges.empty()) {
    const std::vector<int64_t>& span = ws.SpanBuckets(system, &cover);
    ws.needed.assign(span.begin(), span.end());
  }

  // Search lower bound: packets fully covered by the circle C_i of radius
  // d_v (the last verified entry) hold only objects the peers already
  // supplied (states 1, 3, 4).
  const auto lower = heap.LowerBound();
  if (options.use_filtering && lower.has_value()) {
    const geom::Circle known{q, *lower};
    ws.kept.clear();
    for (int64_t id : ws.needed) {
      const broadcast::DataBucket& bucket =
          system.buckets()[static_cast<size_t>(id)];
      if (known.ContainsRect(bucket.mbr)) {
        ++outcome.buckets_skipped;
      } else {
        ws.kept.push_back(id);
      }
    }
    ws.needed.swap(ws.kept);
  }

  outcome.buckets.assign(ws.needed.begin(), ws.needed.end());
  broadcast::IndexReadMode index_mode =
      broadcast::IndexReadMode::FlatDirectory();
  if (system.tree_index() != nullptr) {
    index_mode =
        broadcast::IndexReadMode::TreePaths(ws.TreeReadBuckets(system, &cover));
  }
  const std::vector<int64_t>* retrieved = &ws.needed;
  bool complete_span = false;
  if (faults != nullptr && faults->channel_enabled()) {
    fault::FaultyRetrievalResult r =
        faults->Retrieve(system.schedule(), now, ws.needed, index_mode, trace);
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
    // With no filter removals the retrieved set IS the memoized span, so
    // its collected content can come from the memo too.
    complete_span = outcome.buckets_skipped == 0 && !cover.ranges.empty();
  }
  if (trace != nullptr) {
    trace->Span("sbnn.fallback", now, now + outcome.stats.access_latency);
    trace->Counter("sbnn.buckets_skipped",
                   static_cast<double>(outcome.buckets_skipped));
  }

  // Assemble the exact answer from the downloaded buckets plus everything
  // the peers supplied (which covers any packets the filter skipped). Only
  // the received buckets whose MBR meets the search square can hold a POI
  // within `radius` of q, so those are collected first (or, for a complete
  // span, the memoized neighbourhood, a superset of them).
  bool processed_all;
  if (complete_span) {
    const std::vector<spatial::Poi>& memo = ws.SpanPois(system, &cover);
    ws.known_pois.assign(memo.begin(), memo.end());
    processed_all = cover.span_pois_whole;
  } else {
    const std::vector<int64_t>& processed =
        ws.BucketsMeeting(system, *retrieved, Padded(search_mbr));
    processed_all = processed.size() == retrieved->size();
    system.CollectPois(processed, &ws.collect_scratch, &ws.known_pois);
  }
  const bool ids_distinct =
      MergeCandidates(outcome.nnv.candidates, &ws.known_pois);
  spatial::BruteForceKnn(ws.known_pois, q, options.k, &ws.slab,
                         &outcome.neighbors);
  // Certificate: k neighbours within `radius` means every POI of the whole
  // download that could displace one (distance <= the k-th) was in the
  // processed set, so the answer equals the full scan's. Otherwise — too few
  // POIs near q (lost buckets, an index bound unsound for the data) or
  // conflicting copies of one id — scan everything that was received,
  // unless that was done.
  const bool certified =
      ids_distinct &&
      outcome.neighbors.size() == static_cast<size_t>(options.k) &&
      outcome.neighbors.back().distance <= radius;
  if (!certified && !processed_all) {
    system.CollectPois(*retrieved, &ws.collect_scratch, &ws.known_pois);
    (void)MergeCandidates(outcome.nnv.candidates, &ws.known_pois);
    spatial::BruteForceKnn(ws.known_pois, q, options.k, &ws.slab,
                           &outcome.neighbors);
    if (trace != nullptr) trace->Counter("sbnn.collect_refills", 1.0);
  }

  // Every cell intersecting the search MBR is covered by a bucket that was
  // either downloaded or skipped-as-peer-known, so the client now has
  // complete knowledge of the MBR. A degraded retrieval breaks that chain:
  // the cacheable region stays empty — never cache unverified knowledge.
  // Every received POI inside the MBR is in known_pois on either path.
  if (!outcome.degraded) {
    outcome.cacheable.region = search_mbr;
    // BruteForceKnn left ws.slab.slab holding the SoA transpose of
    // known_pois; one window-mask pass sizes and selects the contained set.
    const size_t n = ws.known_pois.size();
    uint32_t* idx = ws.slab.IdxFor(n);
    const size_t contained = kernels::SelectInWindow(
        ws.slab.slab.xs(), ws.slab.slab.ys(), n, search_mbr.x1, search_mbr.y1,
        search_mbr.x2, search_mbr.y2, idx);
    outcome.cacheable.pois.reserve(contained);
    for (size_t j = 0; j < contained; ++j) {
      outcome.cacheable.pois.push_back(ws.known_pois[idx[j]]);
    }
  }
}

}  // namespace internal
}  // namespace lbsq::core
