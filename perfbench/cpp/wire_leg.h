#ifndef PERFBENCH_WIRE_LEG_H_
#define PERFBENCH_WIRE_LEG_H_

#include <cstdint>
#include <string>
#include <vector>

#include "bench_util.h"
#include "core/sharded_query_engine.h"
#include "server/protocol.h"
#include "trace.h"

/// \file
/// The wire leg of a traced run: an in-process `server::Server` (one
/// network thread, two workers) fed open loop over loopback by one generator
/// thread — the calling thread — that multiplexes two sessions and sends
/// Poisson arrivals at a fixed offered rate. The generator reports how late
/// it ran. Every answer is checked afterwards, field for field, against
/// in-process `ShardedQueryEngine::Execute` of the same request and against
/// an independent oracle; each answered request of the traced phase is
/// then re-executed in process to split its round trip into engine time and
/// server overhead.

namespace perfbench {

namespace server = lbsq::server;

/// Expected answer digest of a request, from an index independent of the
/// engine.
using Oracle = std::function<uint64_t(const core::QueryRequest& request)>;

struct WireConfig {
  /// Offered rate, requests per second.
  double rate = 2000.0;
  /// Requests sent before the traced phase (distinct, never re-sent).
  size_t warmup = 200;
  /// Requests of the traced phase.
  size_t measured = 3000;
  uint64_t seed = 1;

  /// Requests the leg sends.
  size_t requests() const { return warmup + measured; }
};

struct WireResult {
  bool ok = false;
  std::string error;
  /// Every sent request checked; failures are RETRY_AFTER, errors,
  /// timeouts and wrong answers.
  Tally tally;
};

/// Serves `engine` and drives it with the first `config.requests()` of
/// `requests` (in order; none is sent twice). Records the server, protocol
/// and generator layers into `report`.
WireResult RunWireLeg(const core::ShardedQueryEngine& engine,
                      const std::vector<core::QueryRequest>& requests,
                      const Oracle& oracle, const WireConfig& config,
                      Tracer* tracer, Report* report);

}  // namespace perfbench

#endif  // PERFBENCH_WIRE_LEG_H_
