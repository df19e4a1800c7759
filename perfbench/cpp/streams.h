#ifndef PERFBENCH_STREAMS_H_
#define PERFBENCH_STREAMS_H_

#include <cstdint>
#include <vector>

#include "broadcast/system.h"
#include "core/query_engine.h"
#include "geom/rect.h"
#include "sim/config.h"
#include "spatial/poi.h"

/// \file
/// The generated inputs of every workload, each a pure function of the
/// run's seed: the Table-3 city world with its mobility-driven query stream
/// (the traffic `lbsq_server` exists for), and the metro world with its
/// clustered unique-position stream.

namespace perfbench {

namespace broadcast = lbsq::broadcast;
namespace core = lbsq::core;
namespace geom = lbsq::geom;
namespace sim = lbsq::sim;
namespace spatial = lbsq::spatial;

/// Paper Table 3 "Los Angeles City" at full scale: a 20 mi world with 2,750
/// uniform POIs, drawn from the simulator's POI stream of `seed`.
struct CityWorld {
  sim::SimConfig config;
  geom::Rect world;
  std::vector<spatial::Poi> pois;
  core::EngineOptions options;
};
CityWorld MakeCityWorld(uint64_t seed);

/// The simulator's mobility-driven mixed stream over `city`: 70% kNN
/// (k drawn around 5), 30% windows around 3% of the world, positions from
/// the random-waypoint fleet, slots from the arrival times. Returns the
/// first `count` events in arrival order, as peerless requests.
std::vector<core::QueryRequest> CityStream(const CityWorld& city,
                                           size_t count);

/// The metro world: 1M `GenerateMetroPois` POIs (60% in 80 downtown
/// clusters) over 40 mi, Hilbert order 9, 8 shards, drawn from `seed`.
struct MetroWorld {
  geom::Rect world;
  broadcast::BroadcastParams params;
  core::EngineOptions options;
  int shards = 8;
  std::vector<spatial::Poi> pois;
};
MetroWorld MakeMetroWorld(uint64_t seed);

/// The metro stream's arrival rate: about what the two closed-loop query
/// threads execute per second on a 4-vCPU host (240-380 q/s measured), so
/// a request's broadcast slot tracks when the closed loop issues it.
constexpr double kMetroArrivalsPerSecond = 300.0;

/// Metro request `index` of stream `stream_seed`: 70% kNN (k = 5), 30%
/// windows of 0.05% of the world, centered near a uniformly drawn POI (so
/// positions follow the clustered data and never repeat). Requests arrive
/// at a steady kMetroArrivalsPerSecond on the simulator's channel
/// (`SimConfig::slots_per_second`, 50), so request i is issued in slot
/// floor(i * 50 / kMetroArrivalsPerSecond).
core::QueryRequest MetroRequest(const MetroWorld& metro, uint64_t stream_seed,
                                uint64_t index);

}  // namespace perfbench

#endif  // PERFBENCH_STREAMS_H_
