#include "streams.h"

#include <algorithm>
#include <cmath>
#include <memory>

#include "common/rng.h"
#include "sim/mobility.h"
#include "sim/query_exec.h"
#include "sim/trace.h"
#include "sim/workload.h"
#include "spatial/generators.h"

namespace perfbench {

using lbsq::DeriveStreamSeed;
using lbsq::Rng;

CityWorld MakeCityWorld(uint64_t seed) {
  CityWorld city;
  sim::SimConfig& config = city.config;
  config.params = sim::LosAngelesCity();
  config.world_side_mi = sim::kPaperWorldSideMiles;
  config.query_type = sim::QueryType::kMixed;
  config.mixed_window_fraction = 0.3;
  config.warmup_min = 0.0;
  // Peer-resolved kNN answers must be exact so every answer has one
  // correct value to check against.
  config.accept_approximate = false;
  config.seed = seed;
  city.world = geom::Rect{0.0, 0.0, config.world_side_mi,
                          config.world_side_mi};
  Rng poi_rng(DeriveStreamSeed(seed, sim::kStreamPois));
  city.pois = spatial::GenerateUniformPois(&poi_rng, city.world,
                                           config.ScaledPoiCount());
  city.options = sim::EngineOptionsFromConfig(config);
  return city;
}

std::vector<core::QueryRequest> CityStream(const CityWorld& city,
                                           size_t count) {
  sim::SimConfig config = city.config;
  // Long enough for `count` arrivals with margin; a longer run of the
  // same seed draws the same prefix.
  config.duration_min =
      1.1 * static_cast<double>(count) / config.ScaledQueriesPerMin() + 1.0;
  const std::vector<sim::QueryEvent> events =
      sim::GenerateWorkload(config, city.world);
  const std::unique_ptr<sim::MobilityModel> mobility =
      sim::MakeMobilityModel(config, city.world);
  std::vector<core::QueryRequest> requests;
  requests.reserve(count);
  for (const sim::QueryEvent& event : events) {
    if (requests.size() == count) break;
    core::QueryRequest r;
    r.slot = static_cast<int64_t>(event.time_min * config.slots_per_second *
                                  60.0);
    if (event.type == sim::QueryType::kKnn) {
      r.kind = core::QueryKind::kKnn;
      r.position = mobility->Position(event.host, event.time_min);
      r.k = event.k;
    } else {
      r.kind = core::QueryKind::kWindow;
      r.window = event.window;
    }
    requests.push_back(r);
  }
  return requests;
}

MetroWorld MakeMetroWorld(uint64_t seed) {
  MetroWorld metro;
  metro.world = geom::Rect{0.0, 0.0, 40.0, 40.0};
  metro.params.hilbert_order = 9;
  metro.options.sbnn.k = 5;
  Rng rng(DeriveStreamSeed(seed, sim::kStreamPois));
  metro.pois = spatial::GenerateMetroPois(&rng, metro.world, 1'000'000,
                                          /*clustered_fraction=*/0.6,
                                          /*num_clusters=*/80,
                                          /*cluster_spread=*/0.5);
  return metro;
}

core::QueryRequest MetroRequest(const MetroWorld& metro, uint64_t stream_seed,
                                uint64_t index) {
  Rng rng(DeriveStreamSeed(stream_seed, index));
  const spatial::Poi& anchor =
      metro.pois[rng.NextBelow(metro.pois.size())];
  const geom::Rect& w = metro.world;
  const geom::Point q{
      std::clamp(anchor.pos.x + rng.Normal(0.0, 0.1), w.x1, w.x2),
      std::clamp(anchor.pos.y + rng.Normal(0.0, 0.1), w.y1, w.y2)};
  core::QueryRequest r;
  if (rng.NextBool(0.7)) {
    r.kind = core::QueryKind::kKnn;
    r.position = q;
    r.k = 5;
  } else {
    r.kind = core::QueryKind::kWindow;
    const double half = 0.5 * w.width() * std::sqrt(0.05 / 100.0);
    r.window = geom::Rect::CenteredSquare(q, half);
  }
  r.slot = static_cast<int64_t>(static_cast<double>(index) *
                                sim::SimConfig().slots_per_second /
                                kMetroArrivalsPerSecond);
  return r;
}

}  // namespace perfbench
