#include "core/query_engine.h"

#include <cmath>
#include <optional>
#include <utility>

#include "common/check.h"
#include "core/query_internal.h"
#include "core/query_workspace.h"
#include "fault/faulty_channel.h"
#include "fault/peer_screen.h"

namespace lbsq::core {

void QueryRequest::Validate() const {
  if (kind == QueryKind::kKnn) {
    // A set window on a kNN request would be silently ignored — reject it.
    LBSQ_CHECK(window.empty());
    LBSQ_CHECK(std::isfinite(position.x) && std::isfinite(position.y));
  } else {
    // k (and the query position) belong to kNN; a window request carrying
    // them is malformed.
    LBSQ_CHECK(k == 0);
    LBSQ_CHECK(!window.empty());
    LBSQ_CHECK(std::isfinite(window.x1) && std::isfinite(window.y1) &&
               std::isfinite(window.x2) && std::isfinite(window.y2));
  }
}

bool QueryOutcome::ResolvedByPeers() const {
  if (kind == QueryKind::kKnn) {
    return knn->resolved_by != ResolvedBy::kBroadcast;
  }
  return window->resolved_by_peers;
}

QueryResultCommon& QueryOutcome::Common() {
  return kind == QueryKind::kKnn ? static_cast<QueryResultCommon&>(*knn)
                                 : static_cast<QueryResultCommon&>(*window);
}

const QueryResultCommon& QueryOutcome::Common() const {
  return kind == QueryKind::kKnn
             ? static_cast<const QueryResultCommon&>(*knn)
             : static_cast<const QueryResultCommon&>(*window);
}

namespace {

// Moves `from`'s value into `to` when `to` is empty (a move keeps the
// vectors' buffers), then disengages `from`.
template <typename T>
void MoveStorage(std::optional<T>* from, std::optional<T>* to) {
  if (!from->has_value()) return;
  if (!to->has_value()) to->emplace(std::move(**from));
  from->reset();
}

}  // namespace

SbnnOutcome& QueryOutcome::UseKnn(int k) {
  MoveStorage(&window, &parked_window_);
  MoveStorage(&parked_knn_, &knn);
  if (!knn.has_value()) knn.emplace(k);
  return *knn;
}

SbwqOutcome& QueryOutcome::UseWindow() {
  MoveStorage(&knn, &parked_knn_);
  MoveStorage(&parked_window_, &window);
  if (!window.has_value()) window.emplace();
  return *window;
}

QueryEngine::QueryEngine(const broadcast::BroadcastSystem& system,
                         const geom::Rect& world,
                         const EngineOptions& options)
    : system_(system), world_(world), options_(options) {
  options_.Validate();
  LBSQ_CHECK(world.area() > 0.0);
  poi_density_ =
      options_.poi_density_override >= 0.0
          ? options_.poi_density_override
          : static_cast<double>(system.pois().size()) / world.area();
}

QueryOutcome QueryEngine::Execute(const QueryRequest& request) const {
  QueryWorkspace workspace;
  QueryOutcome outcome;
  Execute(request, workspace, &outcome);
  return outcome;
}

void QueryEngine::Execute(const QueryRequest& request,
                          QueryWorkspace& workspace,
                          QueryOutcome* outcome) const {
  LBSQ_CHECK(outcome != nullptr);
  request.Validate();
  outcome->kind = request.kind;
  outcome->regions_rejected = 0;

  // Fault plumbing. When the engine's FaultConfig is disabled this block
  // compiles down to two null/empty locals and the call below is the exact
  // pre-fault path — bit-identical results and traces.
  const fault::FaultConfig& fault = options_.fault;
  fault::ChannelSession* session = nullptr;
  std::optional<fault::ChannelSession> session_storage;
  if (fault.enabled() && fault.channel.enabled()) {
    session_storage.emplace(
        fault.channel, fault.policy,
        fault::ChannelStreamSeed(fault.seed, request.fault_stream));
    session = &*session_storage;
  }
  std::span<const PeerData> peers = request.peers;
  if (fault.enabled() && fault.screen_peers) {
    workspace.screened.assign(request.peers.begin(), request.peers.end());
    const fault::ScreenResult screen =
        fault::ScreenPeerData(world_, &workspace.screened);
    outcome->regions_rejected = screen.regions_rejected;
    if (request.trace != nullptr && screen.regions_rejected > 0) {
      request.trace->Counter("fault.regions_rejected",
                             static_cast<double>(screen.regions_rejected));
    }
    peers = workspace.screened;
  }

  if (request.kind == QueryKind::kKnn) {
    SbnnOptions sbnn = options_.sbnn;
    if (request.k > 0) sbnn.k = request.k;
    internal::RunSbnn(request.position, sbnn, peers, poi_density_, system_,
                      request.slot, request.trace, session, workspace,
                      &outcome->UseKnn(sbnn.k));
  } else {
    internal::RunSbwq(request.window, options_.sbwq, peers, system_,
                      request.slot, request.trace, session, workspace,
                      &outcome->UseWindow());
  }
  // The produced knowledge is complete with respect to this system's world
  // epoch; tag it so cross-epoch consumers can revalidate (epoch 0 — the
  // static world — leaves the default tag in place).
  outcome->Cacheable().epoch = system_.epoch();
}

std::span<const QueryOutcome> QueryEngine::ExecuteBatch(
    std::span<const QueryRequest> requests, QueryWorkspace& workspace) const {
  // Validate the whole batch up front: a malformed request mid-batch must
  // fail before any arena slot is written, leaving the outcome arena (and
  // the spans previous batches handed out) in a defined state.
  for (const QueryRequest& request : requests) request.Validate();
  std::vector<QueryOutcome>& arena = workspace.outcome_arena();
  // Grow-only: the arena keeps the largest batch's storage so later batches
  // recycle every inner buffer.
  if (arena.size() < requests.size()) arena.resize(requests.size());
  for (size_t i = 0; i < requests.size(); ++i) {
    Execute(requests[i], workspace, &arena[i]);
  }
  return std::span<const QueryOutcome>(arena.data(), requests.size());
}

}  // namespace lbsq::core
