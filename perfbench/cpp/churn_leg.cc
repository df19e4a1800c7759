#include "churn_leg.h"

#include <algorithm>
#include <atomic>
#include <mutex>
#include <numeric>
#include <thread>

#include "common/rng.h"
#include "sim/config.h"
#include "sim/update_workload.h"

namespace perfbench {

namespace {

/// Closed-loop reader threads, and the writer's fixed publication rate.
constexpr int kReaders = 2;
constexpr double kBatchesPerSecond = 100.0;
/// Share of reads that carry peer regions: the few earlier answers nearest
/// to the read, from a ring of recent ones.
constexpr double kPeerShare = 0.3;
constexpr size_t kRingSize = 32;
constexpr size_t kPeersPerRead = 3;

geom::Point Center(const core::QueryRequest& r) {
  if (r.kind == core::QueryKind::kKnn) return r.position;
  return {(r.window.x1 + r.window.x2) / 2.0, (r.window.y1 + r.window.y2) / 2.0};
}

/// Whether read `index` carries peers: a pure function of (seed, index).
bool CarriesPeers(uint64_t seed, size_t index, double share) {
  lbsq::Rng rng(lbsq::DeriveStreamSeed(seed, index));
  return rng.NextBool(share);
}

}  // namespace

ChurnRunner::ChurnRunner(dynamic::ShardedWorld* world,
                         std::vector<spatial::Poi> initial, uint64_t seed)
    : world_(world),
      initial_(std::move(initial)),
      seed_(seed),
      base_insert_id_(lbsq::sim::FirstInsertId(initial_)) {}

ChurnPhase ChurnRunner::Run(const std::vector<core::QueryRequest>& stream,
                            size_t* cursor, const ChurnPhaseConfig& config,
                            Tracer* tracer) {
  ChurnPhase phase;
  const size_t limit =
      config.max_requests > 0
          ? std::min(stream.size(), *cursor + config.max_requests)
          : stream.size();
  const size_t min_end = std::min(limit, *cursor + config.min_requests);
  const size_t first = *cursor;
  std::atomic<size_t> next{first};
  std::atomic<int> running{kReaders};
  const int64_t start = NowNs();
  const int64_t stop_at = start + static_cast<int64_t>(config.seconds * 1e9);
  const uint64_t peer_seed = lbsq::DeriveStreamSeed(seed_, 0x70656572);

  std::vector<std::vector<ChurnRecord>> per_reader(kReaders);
  std::vector<ProbeCounts> probe_counts(kReaders);
  std::vector<SpanBuffer*> buffers;
  for (int t = 0; t < kReaders; ++t) {
    buffers.push_back(tracer != nullptr ? tracer->NewBuffer() : nullptr);
  }

  auto reader = [&](int t) {
    SpanBuffer* spans = buffers[static_cast<size_t>(t)];
    std::vector<ChurnRecord>& out = per_reader[static_cast<size_t>(t)];
    // Room for every request up front: growing by doubling would make the
    // peak resident set jump whenever throughput crosses a capacity step.
    out.reserve(limit - first);
    LayerProbe probe(nullptr);
    core::ShardedQueryWorkspace workspace;
    core::QueryOutcome outcome;
    std::vector<core::PeerData> peers;
    std::vector<core::VerifiedRegion> ring;
    size_t ring_pos = 0;
    std::vector<size_t> order;
    for (;;) {
      const size_t i = next.fetch_add(1);
      if (i >= limit || (i >= min_end && NowNs() >= stop_at)) break;
      const core::QueryRequest& request = stream[i];
      ChurnRecord record;
      record.index = i;
      peers.clear();
      if (!ring.empty() && CarriesPeers(peer_seed, i, kPeerShare)) {
        record.carried_peers = true;
        const geom::Point c = Center(request);
        order.resize(ring.size());
        std::iota(order.begin(), order.end(), 0);
        const size_t take = std::min(kPeersPerRead, ring.size());
        std::partial_sort(order.begin(), order.begin() + take, order.end(),
                          [&](size_t a, size_t b) {
                            return ring[a].region.MinDistance(c) <
                                   ring[b].region.MinDistance(c);
                          });
        for (size_t j = 0; j < take; ++j) {
          peers.push_back(core::PeerData{{ring[order[j]]}});
        }
      }
      // Region epochs before revalidation, for the region-dirty probes.
      std::vector<core::VerifiedRegion> carried;
      if (spans != nullptr) {
        for (const core::PeerData& p : peers) carried.push_back(p.regions[0]);
      }
      dynamic::RevalidationStats revalidation;
      const int64_t t0 = NowNs();
      const std::shared_ptr<const dynamic::ShardedEpoch> pinned =
          world_->Execute(request, &peers, workspace, &outcome, &revalidation);
      const int64_t t1 = NowNs();
      record.latency_us = static_cast<double>(t1 - t0) / 1e3;
      record.epoch = pinned->id;
      record.epoch_lag = world_->latest_epoch() - pinned->id;
      record.digest = OutcomeDigest(outcome);
      const broadcast::AccessStats& stats = outcome.Stats();
      record.access_latency = stats.access_latency;
      record.tuning_time = stats.tuning_time;
      record.buckets_read = stats.buckets_read;
      record.regions_rejected = revalidation.rejected;
      record.resolved_by_peers = outcome.ResolvedByPeers();
      if (spans != nullptr) {
        const int64_t root = spans->Record(
            request.kind == core::QueryKind::kKnn ? "core.execute_knn"
                                                   : "core.execute_window",
            static_cast<int64_t>(i), -1, t0, t1);
        for (const core::VerifiedRegion& region : carried) {
          ScopedSpan span(spans, "dynamic.region_dirty",
                          static_cast<int64_t>(i), root);
          world_->RegionDirty(region.region, region.epoch, pinned->id);
        }
        probe.set_engine(pinned->engine.get());
        probe.Probe(request, static_cast<int64_t>(i), root, spans);
      }
      const core::VerifiedRegion& cacheable = outcome.Cacheable();
      if (!cacheable.region.empty() && !outcome.Degraded()) {
        if (ring.size() < kRingSize) {
          ring.push_back(cacheable);
        } else {
          ring[ring_pos] = cacheable;
          ring_pos = (ring_pos + 1) % kRingSize;
        }
      }
      out.push_back(record);
    }
    probe_counts[static_cast<size_t>(t)] = probe.counts();
    running.fetch_sub(1);
  };

  std::vector<std::thread> readers;
  for (int t = 0; t < kReaders; ++t) readers.emplace_back(reader, t);

  // The writer: one batch per period, on schedule, while readers run.
  const lbsq::sim::UpdateWorkloadConfig updates;
  const int64_t period = static_cast<int64_t>(1e9 / kBatchesPerSecond);
  SpanBuffer* writer_spans = tracer != nullptr ? tracer->NewBuffer() : nullptr;
  for (int64_t due = start + period; running.load() > 0; due += period) {
    while (running.load() > 0 && NowNs() < due) {
      std::this_thread::sleep_for(std::chrono::microseconds(
          std::clamp<int64_t>((due - NowNs()) / 1000, 1, 1000)));
    }
    if (running.load() == 0) break;
    const uint64_t batch_index = batches_.size() + 1;
    std::vector<dynamic::PoiUpdate> batch = lbsq::sim::GenerateUpdateBatch(
        updates, seed_, batch_index, world_->Current()->pois, world_->world(),
        base_insert_id_);
    batches_.push_back(batch);
    const int64_t t0 = NowNs();
    world_->Apply(std::move(batch));
    const int64_t t1 = NowNs();
    phase.publish_us.push_back(static_cast<double>(t1 - t0) / 1e3);
    if (writer_spans != nullptr) {
      writer_spans->Record("dynamic.publish", -1, -1, t0, t1);
    }
  }
  for (std::thread& t : readers) t.join();
  phase.elapsed_s = static_cast<double>(NowNs() - start) / 1e9;
  *cursor = std::min(limit, next.load());
  phase.records.reserve(*cursor - first);
  for (size_t t = 0; t < per_reader.size(); ++t) {
    phase.records.insert(phase.records.end(), per_reader[t].begin(),
                         per_reader[t].end());
    phase.probes.Merge(probe_counts[t]);
  }
  return phase;
}

Tally ChurnRunner::Verify(const std::vector<core::QueryRequest>& stream,
                          const std::vector<ChurnRecord>& records) const {
  std::vector<const ChurnRecord*> by_epoch;
  by_epoch.reserve(records.size());
  for (const ChurnRecord& r : records) by_epoch.push_back(&r);
  std::sort(by_epoch.begin(), by_epoch.end(),
            [](const ChurnRecord* a, const ChurnRecord* b) {
              return a->epoch < b->epoch;
            });
  std::mutex mu;
  Tally total;
  ParallelFor(by_epoch.size(), VerifyThreads(), [&](size_t begin, size_t end) {
    Tally tally;
    // Each thread replays the logged batches on its own mirror of the
    // database, up to the epoch of each record it checks.
    std::vector<spatial::Poi> mirror = initial_;
    uint64_t applied = 0;
    std::vector<spatial::PoiDistance> knn;
    std::vector<spatial::Poi> window;
    lbsq::kernels::SlabScratch scratch;
    for (size_t j = begin; j < end; ++j) {
      const ChurnRecord& r = *by_epoch[j];
      while (applied < r.epoch) {
        std::vector<dynamic::PoiUpdate> batch = batches_[applied];
        dynamic::ApplyUpdates(&batch, &mirror);
        ++applied;
      }
      const core::QueryRequest& q = stream[r.index];
      uint64_t expected;
      if (q.kind == core::QueryKind::kKnn) {
        spatial::BruteForceKnn(mirror, q.position, q.k, &scratch, &knn);
        expected = KnnDigest(knn);
      } else {
        spatial::BruteForceWindow(mirror, q.window, &scratch, &window);
        expected = WindowDigest(window);
      }
      ++tally.attempted;
      if (expected != r.digest) {
        ++tally.failed;
        ++tally.wrong;
      }
    }
    std::lock_guard<std::mutex> lock(mu);
    total.Merge(tally);
  });
  return total;
}

void ReportChurnLayers(const ChurnPhase& phase,
                       const dynamic::ShardedWorld& world,
                       const Tracer& tracer, Report* report) {
  std::vector<double> publish = phase.publish_us;
  SetTiming(report, "dynamic.publish", "us", Summarize(&publish));
  std::vector<double> dirty = tracer.DurationsUs("dynamic.region_dirty");
  report->Set("dynamic.region_dirty_us", Summarize(&dirty).p50, "us");
  double rejected = 0.0;
  double lag = 0.0;
  for (const ChurnRecord& r : phase.records) {
    rejected += static_cast<double>(r.regions_rejected);
    lag += static_cast<double>(r.epoch_lag);
  }
  const double reads =
      static_cast<double>(std::max<size_t>(phase.records.size(), 1));
  report->Set("dynamic.regions_rejected_per_query", rejected / reads, "count");
  report->Set("dynamic.epoch_lag", lag / reads, "epochs");
  const dynamic::PublicationStats stats = world.publication_stats();
  const double epochs =
      static_cast<double>(std::max<int64_t>(stats.epochs_published, 1));
  report->Set("broadcast.buckets_patched_per_epoch",
              static_cast<double>(stats.buckets_patched) / epochs, "count");
  report->Set("broadcast.buckets_shared_per_epoch",
              static_cast<double>(stats.buckets_shared) / epochs, "count");
  report->Set("broadcast.full_rebuild_fallbacks",
              static_cast<double>(stats.full_rebuild_fallbacks), "count");
}

}  // namespace perfbench
