#ifndef PERFBENCH_BENCH_UTIL_H_
#define PERFBENCH_BENCH_UTIL_H_

#include <chrono>
#include <cstdint>
#include <functional>
#include <map>
#include <string>
#include <vector>

#include "core/query_engine.h"
#include "spatial/poi.h"

/// \file
/// Shared plumbing of the benchmark program: the monotonic clock, tail-aware
/// percentile summaries, answer digests, the metric report (human lines plus
/// the one-line JSON result), and a bounded parallel-for for the
/// verification passes.

namespace perfbench {

namespace broadcast = lbsq::broadcast;
namespace core = lbsq::core;
namespace geom = lbsq::geom;
namespace spatial = lbsq::spatial;

/// Monotonic nanoseconds.
inline int64_t NowNs() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

/// A timing sample set reduced to its median and its highest reportable
/// tail: the wanted percentile when at least ten samples lie beyond it,
/// otherwise the highest percentile that still has ten beyond it.
struct Summary {
  int64_t n = 0;
  double p50 = 0.0;
  double tail = 0.0;
  /// The percentile `tail` actually reports (e.g. 99.0).
  double tail_pct = 0.0;
};

/// Summarizes `samples` (reordered in place), asking for `want_pct` as the
/// tail percentile.
Summary Summarize(std::vector<double>* samples, double want_pct = 99.0);

/// FNV-1a fold of 64-bit words — the answer-digest primitive.
class Digest {
 public:
  void Add(uint64_t word);
  uint64_t value() const { return h_; }

 private:
  uint64_t h_ = 1469598103934665603ull;
};

/// Digest of an answer plane: kNN (id, distance bits) in canonical order,
/// window ids in canonical id order, each terminated by the answer size.
uint64_t KnnDigest(const std::vector<spatial::PoiDistance>& neighbors);
uint64_t WindowDigest(const std::vector<spatial::Poi>& pois);
uint64_t OutcomeDigest(const core::QueryOutcome& outcome);

/// Peak resident set size of this process so far, MiB.
double PeakRssMib();

/// Runs `fn(i)` for i in [0, n) on `threads` threads (the calling thread
/// included), in contiguous blocks.
void ParallelFor(size_t n, int threads,
                 const std::function<void(size_t begin, size_t end)>& fn);

/// Threads the verification passes may use: nproc, capped at 4.
int VerifyThreads();

/// Collected metrics. `Set` records a value with its unit; `Print` writes a
/// human-readable line per metric and then, as the last stdout line, the
/// JSON result holding the metrics named in `json_names` (all of which must
/// have been set).
class Report {
 public:
  void Set(const std::string& name, double value, const std::string& unit);
  /// A free-form line printed with the report (sample counts, notes).
  void Note(const std::string& line);

  /// Prints and returns false when a JSON metric is missing.
  bool Print(const std::vector<std::string>& json_names, bool correct,
             int64_t attempted, int64_t failed) const;

 private:
  struct Entry {
    double value = 0.0;
    std::string unit;
  };
  std::map<std::string, Entry> metrics_;
  std::vector<std::string> order_;
  std::vector<std::string> notes_;
};

/// Records `summary` as `<prefix>_p50_<unit>` / `<prefix>_p99_<unit>` and
/// notes its sample count and the tail percentile actually reported.
void SetTiming(Report* report, const std::string& prefix,
               const std::string& unit, const Summary& summary);

/// Tally of checked answers.
struct Tally {
  int64_t attempted = 0;
  int64_t failed = 0;
  int64_t wrong = 0;
  void Merge(const Tally& other) {
    attempted += other.attempted;
    failed += other.failed;
    wrong += other.wrong;
  }
};

}  // namespace perfbench

#endif  // PERFBENCH_BENCH_UTIL_H_
