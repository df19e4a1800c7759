#ifndef LBSQ_CORE_QUERY_ENGINE_H_
#define LBSQ_CORE_QUERY_ENGINE_H_

#include <cstdint>
#include <optional>
#include <span>
#include <vector>

#include "broadcast/system.h"
#include "common/observability.h"
#include "core/query_result.h"
#include "core/sbnn.h"
#include "core/sbwq.h"
#include "fault/fault_model.h"
#include "geom/point.h"
#include "geom/rect.h"

/// \file
/// The unified query entry point. `QueryEngine` is the single way to run
/// SBNN / SBWQ (the former free functions are internal now): option
/// plumbing, peer-data handling, Lemma 3.2 density derivation, fault
/// plumbing, and trace attachment live in one place instead of being
/// repeated by every driver (the simulators, the benches, the examples).
/// The engine is immutable after construction and shares no mutable state
/// across calls — `Execute` is safe to invoke concurrently from the
/// parallel simulation engine's worker threads, each with its own
/// `QueryWorkspace`.
///
/// Two execution modes, bit-identical in output:
///  - `Execute(request)` — convenience; allocates transient buffers.
///  - `Execute(request, workspace, outcome)` / `ExecuteBatch(requests,
///    workspace)` — the steady-state path: all scratch comes from the
///    caller's `QueryWorkspace` and outcomes recycle their storage, across
///    kNN/window flips too (`QueryOutcome::UseKnn` / `UseWindow`). Zero
///    heap allocations per query once capacities are warm (fault-free
///    path; bench_batch_throughput verifies it on a fresh request stream
///    through one reused outcome and on a replayed batch).

namespace lbsq::core {

class QueryWorkspace;

/// Which query algorithm a request runs.
enum class QueryKind { kKnn, kWindow };

/// One query, self-contained: parameters, the peer snapshot to share from,
/// and the (optional) trace recorder that receives the per-stage breakdown.
///
/// Lifetime rules: `peers` is a non-owning view. The PeerData it refers to
/// must stay alive and unmodified from the moment the request is built
/// until the Execute / ExecuteBatch call that consumes it returns — the
/// engine reads the span during the call and never retains it afterwards.
/// For ExecuteBatch this means every request's backing peer storage must
/// outlive the whole batch call; appending to a vector whose elements back
/// earlier requests' spans invalidates them, so batch builders must
/// finalize the backing storage before binding spans (or use a container
/// with stable element addresses).
struct QueryRequest {
  QueryKind kind = QueryKind::kKnn;
  /// kNN: the query point and the number of neighbors (0 = the engine's
  /// configured default k).
  geom::Point position;
  int k = 0;
  /// Window queries: the query window.
  geom::Rect window;
  /// The broadcast slot at which the query is issued.
  int64_t slot = 0;
  /// Shared data gathered from peers in transmission range (non-owning —
  /// see the lifetime rules above).
  std::span<const PeerData> peers;
  /// Receives span/counter events for this query; null disables tracing.
  obs::TraceRecorder* trace = nullptr;
  /// Fault-injection stream id for this query (typically the global query
  /// id): with faults enabled, the channel fault schedule is a pure function
  /// of (FaultConfig, this id) — independent of threads and other queries.
  /// Ignored when the engine's FaultConfig is disabled.
  uint64_t fault_stream = 0;

  /// Kind-safety: aborts (LBSQ_CHECK) when the fields of the *other* query
  /// kind are set — a window on a kKnn request, or k / a position-dependent
  /// field on a kWindow request — so a malformed request fails loudly
  /// instead of having half its parameters silently ignored. Also aborts
  /// on a NaN or infinite kNN position or window coordinate. Every
  /// Execute / ExecuteBatch call validates its request(s).
  void Validate() const;
};

/// The result of one Execute call: exactly one of the two outcome kinds is
/// populated; the accessors below expose the fields common to both.
struct QueryOutcome {
  QueryKind kind = QueryKind::kKnn;
  std::optional<SbnnOutcome> knn;
  std::optional<SbwqOutcome> window;
  /// Peer regions the defensive screen rejected before the query ran (0
  /// unless screening is enabled).
  int64_t regions_rejected = 0;

  /// True when peers alone answered the query (verified or approximate kNN,
  /// or a fully covered window) — zero broadcast access.
  bool ResolvedByPeers() const;
  /// The fields shared by both query kinds (stats, buckets, cacheable
  /// region, degradation bookkeeping) — one branch here, none for callers.
  QueryResultCommon& Common();
  const QueryResultCommon& Common() const;
  /// Broadcast cost (all zero when resolved by peers).
  const broadcast::AccessStats& Stats() const { return Common().stats; }
  /// The verified knowledge the query produced, ready for cache insertion.
  VerifiedRegion& Cacheable() { return Common().cacheable; }
  const VerifiedRegion& Cacheable() const { return Common().cacheable; }
  /// True when a faulty channel left the answer best-effort (see the
  /// `degraded` field of QueryResultCommon).
  bool Degraded() const { return Common().degraded; }

  /// Engage `knn` (resp. `window`) as the populated kind and disengage the
  /// other. The other kind's storage is parked inside this outcome rather
  /// than destroyed, and a later switch back reclaims it, so an outcome
  /// reused across a mixed kNN/window stream keeps both kinds' buffer
  /// capacity. The returned outcome holds stale fields; the query run
  /// resets it.
  SbnnOutcome& UseKnn(int k);
  SbwqOutcome& UseWindow();

 private:
  std::optional<SbnnOutcome> parked_knn_;
  std::optional<SbwqOutcome> parked_window_;
};

/// The one validated option set shared by every engine — the single
/// `QueryEngine` and the multi-shard `ShardedQueryEngine` alike. Hoisted
/// out of `QueryEngine` so a sharded deployment configures exactly one
/// struct instead of N divergent per-shard copies: the POI density (the
/// Lemma 3.2 correctness model) and the fault policy are *global* facts
/// about the deployment, not per-channel ones.
struct EngineOptions {
  SbnnOptions sbnn;
  SbwqOptions sbwq;
  /// Fault injection and resilience policy. Disabled by default; when
  /// disabled the engine takes the exact pre-fault code path.
  fault::FaultConfig fault;
  /// Overrides the Lemma 3.2 POI density the engine derives from
  /// system/world (negative = derive). Tests and analysis tools use this
  /// to parameterize the correctness model independently of the actual
  /// POI count. A sharded engine pins the *global* density (all POIs over
  /// the whole world) here for every shard, so peer-resolution decisions
  /// are identical at any shard count.
  double poi_density_override = -1.0;

  /// Validates all nested option sets.
  void Validate() const {
    sbnn.Validate();
    sbwq.Validate();
    fault.Validate();
  }
};

/// Facade over the SBNN / SBWQ implementations bound to one broadcast
/// system.
class QueryEngine {
 public:
  /// Binds the engine to `system` broadcasting over `world`. The Lemma 3.2
  /// POI density is derived here, once. Validates `options` (aborts on
  /// out-of-range values).
  QueryEngine(const broadcast::BroadcastSystem& system,
              const geom::Rect& world, const EngineOptions& options);

  /// Executes one query. Thread-safe: reads only immutable engine state and
  /// the request. Convenience form — uses a throwaway workspace.
  QueryOutcome Execute(const QueryRequest& request) const;

  /// Allocation-free form: all scratch comes from `workspace` (one per
  /// thread), `*outcome` is reset in place and refilled (its buffers are
  /// recycled). Bit-identical to the convenience form for any prior
  /// workspace/outcome state.
  void Execute(const QueryRequest& request, QueryWorkspace& workspace,
               QueryOutcome* outcome) const;

  /// Executes `requests` in order through `workspace`, reusing its scratch
  /// across the batch. Returns a view into the workspace's outcome arena,
  /// valid until the next ExecuteBatch on the same workspace; outcome i
  /// corresponds to request i and is bit-identical to
  /// `Execute(requests[i])`.
  std::span<const QueryOutcome> ExecuteBatch(
      std::span<const QueryRequest> requests,
      QueryWorkspace& workspace) const;

  const broadcast::BroadcastSystem& system() const { return system_; }
  const EngineOptions& options() const { return options_; }
  const geom::Rect& world() const { return world_; }
  /// Server POIs per square mile (parameterizes Lemma 3.2).
  double poi_density() const { return poi_density_; }

 private:
  const broadcast::BroadcastSystem& system_;
  geom::Rect world_;
  EngineOptions options_;
  double poi_density_;
};

}  // namespace lbsq::core

#endif  // LBSQ_CORE_QUERY_ENGINE_H_
