#include "core/sbnn.h"

#include <algorithm>
#include <cmath>

#include "common/check.h"
#include "core/query_internal.h"
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

// Merges the peer candidates into the collected bucket content. CollectPois
// output is already sorted by id and deduplicated, so the canonicalizing
// sort is only needed when peer candidates were actually merged in. Returns
// false when two entries share an id at different positions (a corrupted
// peer's copy of a known POI): the sort leaves such copies in an order that
// depends on everything else in `known`, so only the whole received set
// reproduces it.
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

// Answers from the POIs of `buckets` merged with the peer candidates (into
// ws.known_pois and outcome->neighbors). Returns the certificate: ids
// distinct and k neighbours within `radius`.
bool AnswerFrom(const broadcast::BroadcastSystem& system, geom::Point q,
                int k, double radius, const broadcast::BucketRuns& buckets,
                QueryWorkspace& ws, SbnnOutcome* outcome) {
  system.CollectPois(buckets, &ws.collect_scratch, &ws.known_pois);
  const bool ids_distinct =
      MergeCandidates(outcome->nnv.candidates, &ws.known_pois);
  spatial::BruteForceKnn(ws.known_pois, q, k, &ws.slab, &outcome->neighbors);
  return ids_distinct &&
         outcome->neighbors.size() == static_cast<size_t>(k) &&
         outcome->neighbors.back().distance <= radius;
}

// The §3.3.3 filter: removes from the one-run download ws.needed the buckets
// whose MBR lies inside `known` and returns how many. Such a bucket holds a
// POI (an empty MBR never lies inside), every POI of it lies inside the
// padded MBR of `known`, and so its curve range meets that rectangle's
// cover: beyond QueryWorkspace::kScanDownloadsUpTo buckets only the cover's
// buckets are tested. The span run is split at the skipped ids.
int64_t SkipPeerKnownBuckets(const broadcast::BroadcastSystem& system,
                             const geom::Circle& known, QueryWorkspace& ws) {
  const std::vector<broadcast::DataBucket>& buckets = system.buckets();
  const broadcast::BucketRun span = ws.needed.runs().front();
  if (span.size() <= QueryWorkspace::kScanDownloadsUpTo) {
    ws.cover_buckets = ws.needed;
  } else {
    system.grid().CoverRect(Padded(known.Mbr()), &ws.cover);
    system.index().BucketsForRanges(ws.cover, &ws.cover_buckets);
  }
  ws.needed.clear();
  int64_t skipped = 0;
  int64_t next = span.lo;  // first id not yet placed in ws.needed
  for (const broadcast::BucketRun& run : ws.cover_buckets.runs()) {
    const int64_t hi = std::min(run.hi, span.hi);
    for (int64_t id = std::max(run.lo, span.lo); id <= hi; ++id) {
      if (!known.ContainsRect(buckets[static_cast<size_t>(id)].mbr)) continue;
      ++skipped;
      if (next < id) ws.needed.Append(next, id - 1);
      next = id + 1;
    }
  }
  if (next <= span.hi) ws.needed.Append(next, span.hi);
  return skipped;
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

  // Same bucket set onair::BucketsForCircle computes, built in workspace
  // scratch: one run.
  const geom::Rect search_mbr = geom::Circle{q, radius}.Mbr();
  system.grid().CoverRect(search_mbr, &ws.cover);
  if (ws.cover.empty()) {
    ws.needed.clear();
  } else {
    system.index().BucketsForSpan(ws.cover.front().lo, ws.cover.back().hi,
                                  &ws.needed);
  }
  broadcast::IndexReadMode index_mode =
      broadcast::IndexReadMode::FlatDirectory();
  if (system.tree_index() != nullptr) {
    index_mode = broadcast::IndexReadMode::TreePaths(
        system.IndexReadBuckets(ws.cover));
  }

  // Search lower bound: packets fully covered by the circle C_i of radius
  // d_v (the last verified entry) hold only objects the peers already
  // supplied (states 1, 3, 4).
  const auto lower = heap.LowerBound();
  if (options.use_filtering && lower.has_value() && !ws.needed.empty()) {
    outcome.buckets_skipped =
        SkipPeerKnownBuckets(system, geom::Circle{q, *lower}, ws);
  }

  const broadcast::BucketRuns& retrieved =
      RetrieveNeeded(system, now, index_mode, trace, faults, ws, &outcome);
  if (trace != nullptr) {
    trace->Span("sbnn.fallback", now, now + outcome.stats.access_latency);
    trace->Counter("sbnn.buckets_skipped",
                   static_cast<double>(outcome.buckets_skipped));
  }

  // Assemble the exact answer from the downloaded buckets plus everything
  // the peers supplied (which covers any packets the filter skipped). Only
  // the received buckets whose MBR meets the search square can hold a POI
  // within `radius` of q, so those are collected first.
  const geom::Rect reach = Padded(search_mbr);
  bool certified =
      AnswerFrom(system, q, options.k, radius,
                 ws.BucketsMeeting(system, retrieved, reach), ws, &outcome);
  // Certificate: k neighbours within `radius` means every POI of the whole
  // download that could displace one (distance <= the k-th) was in the
  // processed set, so the answer equals the full scan's. Otherwise — too few
  // POIs near q (lost buckets, an index bound unsound for the data) or
  // conflicting copies of one id — scan everything that was received,
  // unless that was done.
  //
  // Both cold branches — a failed certificate, and merged peer candidates
  // (whose id-conflict check sees every processed POI) — decide as when the
  // processed set was the MBR scan of the whole download. That set can hold
  // more buckets than the cover-derived one (an MBR meeting the reach while
  // none of its POIs lies inside), so the answer is recomputed from it when
  // it does. Certified peerless answers cannot tell the two sets apart:
  // the extra POIs all lie beyond `radius`.
  if (!certified || !outcome.nnv.candidates.empty()) {
    const int64_t from_cover = ws.processed.count();
    const broadcast::BucketRuns& scanned =
        ws.BucketsMeetingByScan(system, retrieved, reach);
    if (scanned.count() != from_cover) {
      certified = AnswerFrom(system, q, options.k, radius, scanned, ws,
                             &outcome);
    }
    if (!certified && scanned.count() != retrieved.count()) {
      (void)AnswerFrom(system, q, options.k, radius, retrieved, ws, &outcome);
      if (trace != nullptr) trace->Counter("sbnn.collect_refills", 1.0);
    }
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
