#ifndef LBSQ_BROADCAST_BUCKET_RUNS_H_
#define LBSQ_BROADCAST_BUCKET_RUNS_H_

#include <cstddef>
#include <cstdint>
#include <vector>

/// \file
/// Sets of data bucket ids held as runs of consecutive ids. A client's
/// download on a (1, m) broadcast is a few contiguous stretches of the data
/// file — the air-index lookup of one Hilbert span is one run, that of a
/// cover's ranges a few — so the query path carries downloads, processed
/// sets and the buckets an outcome reports as runs, and its bookkeeping
/// costs O(runs) instead of O(buckets downloaded).

namespace lbsq::broadcast {

/// The inclusive run [lo, hi] of data bucket ids (lo <= hi).
struct BucketRun {
  int64_t lo = 0;
  int64_t hi = 0;

  /// Number of ids in the run.
  int64_t size() const { return hi - lo + 1; }

  friend bool operator==(const BucketRun&, const BucketRun&) = default;
};

/// A set of bucket ids as ascending, disjoint, non-adjacent runs: the
/// canonical form, so two sets are equal exactly when their runs are.
/// Every mutator keeps the capacity of the run storage, so a reused set is
/// allocation-free once warm.
class BucketRuns {
 public:
  BucketRuns() = default;

  /// The set holding `ids` (any order, duplicates allowed).
  static BucketRuns FromIds(const std::vector<int64_t>& ids);

  void clear() { runs_.clear(); }
  bool empty() const { return runs_.empty(); }
  /// The runs, ascending.
  const std::vector<BucketRun>& runs() const { return runs_; }
  /// Number of ids in the set: O(runs).
  int64_t count() const;
  /// Smallest / largest id (the set must not be empty).
  int64_t front() const { return runs_.front().lo; }
  int64_t back() const { return runs_.back().hi; }

  /// Adds the ids [lo, hi] (lo <= hi). `lo` must not precede the start of
  /// the last run (checked); a run overlapping or adjoining the last one
  /// merges into it.
  void Append(int64_t lo, int64_t hi);
  void Append(int64_t id) { Append(id, id); }

  /// Adds every id of `other`, in any order relative to this set's: the
  /// runs are sorted and coalesced in place (O(R log R) for R runs, no
  /// allocation once warm).
  void UnionWith(const BucketRuns& other);

  /// The largest id in the set that is smaller than `limit`, or -1 when
  /// there is none: O(log runs).
  int64_t LastBefore(int64_t limit) const;

  /// True when `id` is in the set: O(log runs).
  bool Contains(int64_t id) const;

  /// Appends every id, ascending, to `*out`.
  void AppendIds(std::vector<int64_t>* out) const;
  /// The ids, ascending.
  std::vector<int64_t> ToIds() const;

  /// Calls fn(id) for every id, ascending.
  template <typename Fn>
  void ForEachId(Fn&& fn) const {
    for (const BucketRun& r : runs_) {
      for (int64_t id = r.lo; id <= r.hi; ++id) fn(id);
    }
  }

  friend bool operator==(const BucketRuns&, const BucketRuns&) = default;

 private:
  std::vector<BucketRun> runs_;
};

/// Calls fn(id) for every id in both `a` and `b`, ascending: one merge pass
/// over the two run lists, O(runs(a) + runs(b) + common ids).
template <typename Fn>
void ForEachCommonId(const BucketRuns& a, const BucketRuns& b, Fn&& fn) {
  const std::vector<BucketRun>& x = a.runs();
  const std::vector<BucketRun>& y = b.runs();
  size_t i = 0;
  size_t j = 0;
  while (i < x.size() && j < y.size()) {
    const int64_t lo = x[i].lo > y[j].lo ? x[i].lo : y[j].lo;
    const int64_t hi = x[i].hi < y[j].hi ? x[i].hi : y[j].hi;
    for (int64_t id = lo; id <= hi; ++id) fn(id);
    if (x[i].hi < y[j].hi) {
      ++i;
    } else {
      ++j;
    }
  }
}

}  // namespace lbsq::broadcast

#endif  // LBSQ_BROADCAST_BUCKET_RUNS_H_
