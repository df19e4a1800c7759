#include "bench_util.h"

#include <sys/resource.h>
#include <unistd.h>

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdio>
#include <thread>

namespace perfbench {

namespace {

/// Nearest-rank percentile of a sorted sample.
double Rank(const std::vector<double>& sorted, double pct) {
  const double pos = pct / 100.0 * static_cast<double>(sorted.size() - 1);
  return sorted[static_cast<size_t>(std::llround(pos))];
}

std::string FormatValue(double value) {
  char buffer[64];
  std::snprintf(buffer, sizeof(buffer), "%.17g", value);
  return buffer;
}

}  // namespace

Summary Summarize(std::vector<double>* samples, double want_pct) {
  Summary s;
  s.n = static_cast<int64_t>(samples->size());
  if (samples->empty()) return s;
  std::sort(samples->begin(), samples->end());
  s.p50 = Rank(*samples, 50.0);
  // The highest percentile with at least ten samples beyond it, capped at
  // the one asked for.
  const double n = static_cast<double>(s.n);
  double pct = want_pct;
  if (n * (100.0 - pct) / 100.0 < 10.0) {
    pct = std::max(50.0, 100.0 * (1.0 - 10.0 / n));
  }
  s.tail_pct = pct;
  s.tail = Rank(*samples, pct);
  return s;
}

void Digest::Add(uint64_t word) {
  for (int i = 0; i < 8; ++i) {
    h_ ^= (word >> (8 * i)) & 0xffu;
    h_ *= 1099511628211ull;
  }
}

uint64_t KnnDigest(const std::vector<spatial::PoiDistance>& neighbors) {
  Digest d;
  for (const spatial::PoiDistance& n : neighbors) {
    d.Add(static_cast<uint64_t>(n.poi.id));
    d.Add(std::bit_cast<uint64_t>(n.distance));
  }
  d.Add(neighbors.size());
  return d.value();
}

uint64_t WindowDigest(const std::vector<spatial::Poi>& pois) {
  Digest d;
  for (const spatial::Poi& p : pois) d.Add(static_cast<uint64_t>(p.id));
  d.Add(pois.size());
  return d.value();
}

uint64_t OutcomeDigest(const core::QueryOutcome& outcome) {
  return outcome.kind == core::QueryKind::kKnn
             ? KnnDigest(outcome.knn->neighbors)
             : WindowDigest(outcome.window->pois);
}

double PeakRssMib() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // KiB on Linux
}

void ParallelFor(size_t n, int threads,
                 const std::function<void(size_t, size_t)>& fn) {
  threads = std::max(1, threads);
  const size_t per = (n + static_cast<size_t>(threads) - 1) /
                     static_cast<size_t>(threads);
  std::vector<std::thread> pool;
  for (int t = 1; t < threads; ++t) {
    const size_t begin = std::min(n, per * static_cast<size_t>(t));
    const size_t end = std::min(n, begin + per);
    if (begin < end) pool.emplace_back(fn, begin, end);
  }
  fn(0, std::min(n, per));
  for (std::thread& t : pool) t.join();
}

int VerifyThreads() {
  const long cpus = sysconf(_SC_NPROCESSORS_ONLN);
  return static_cast<int>(std::clamp<long>(cpus, 1, 4));
}

void Report::Set(const std::string& name, double value,
                 const std::string& unit) {
  if (!std::isfinite(value)) {
    // A ratio over an empty sample; JSON has no spelling for it.
    Note(name + " had no samples; reported as 0");
    value = 0.0;
  }
  if (metrics_.find(name) == metrics_.end()) order_.push_back(name);
  metrics_[name] = Entry{value, unit};
}

void Report::Note(const std::string& line) { notes_.push_back(line); }

bool Report::Print(const std::vector<std::string>& json_names, bool correct,
                   int64_t attempted, int64_t failed) const {
  for (const std::string& note : notes_) std::printf("# %s\n", note.c_str());
  for (const std::string& name : order_) {
    const Entry& e = metrics_.at(name);
    std::printf("%-40s %16s %s\n", name.c_str(), FormatValue(e.value).c_str(),
                e.unit.c_str());
  }
  bool complete = true;
  std::string json = "{\"correct\": ";
  json += correct ? "true" : "false";
  json += ", \"attempted\": " + std::to_string(attempted);
  json += ", \"failed\": " + std::to_string(failed);
  json += ", \"metrics\": {";
  bool first = true;
  for (const std::string& name : json_names) {
    const auto it = metrics_.find(name);
    if (it == metrics_.end()) {
      std::fprintf(stderr, "perfbench: metric %s was not measured\n",
                   name.c_str());
      complete = false;
      continue;
    }
    if (!first) json += ", ";
    first = false;
    json += "\"" + name + "\": {\"value\": " + FormatValue(it->second.value) +
            ", \"unit\": \"" + it->second.unit + "\"}";
  }
  json += "}}";
  std::printf("%s\n", json.c_str());
  std::fflush(stdout);
  return complete;
}

void SetTiming(Report* report, const std::string& prefix,
               const std::string& unit, const Summary& summary) {
  report->Set(prefix + "_p50_" + unit, summary.p50, unit);
  report->Set(prefix + "_p99_" + unit, summary.tail, unit);
  char line[160];
  std::snprintf(line, sizeof(line),
                "%s: n=%lld samples, tail reported at p%.2f (p99 asked)",
                prefix.c_str(), static_cast<long long>(summary.n),
                summary.tail_pct);
  report->Note(line);
}

}  // namespace perfbench
