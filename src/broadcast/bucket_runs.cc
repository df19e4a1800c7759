#include "broadcast/bucket_runs.h"

#include <algorithm>

#include "common/check.h"

namespace lbsq::broadcast {

BucketRuns BucketRuns::FromIds(const std::vector<int64_t>& ids) {
  std::vector<int64_t> sorted = ids;
  std::sort(sorted.begin(), sorted.end());
  BucketRuns set;
  for (const int64_t id : sorted) set.Append(id);
  return set;
}

int64_t BucketRuns::count() const {
  int64_t n = 0;
  for (const BucketRun& r : runs_) n += r.size();
  return n;
}

void BucketRuns::Append(int64_t lo, int64_t hi) {
  LBSQ_CHECK(lo <= hi);
  if (!runs_.empty()) {
    BucketRun& last = runs_.back();
    LBSQ_CHECK(last.lo <= lo);
    if (lo <= last.hi + 1) {
      last.hi = std::max(last.hi, hi);
      return;
    }
  }
  runs_.push_back(BucketRun{lo, hi});
}

void BucketRuns::UnionWith(const BucketRuns& other) {
  const bool ordered =
      empty() || other.empty() || other.front() > back() + 1;
  runs_.insert(runs_.end(), other.runs_.begin(), other.runs_.end());
  if (ordered) return;
  std::sort(runs_.begin(), runs_.end(),
            [](const BucketRun& a, const BucketRun& b) { return a.lo < b.lo; });
  size_t out = 0;
  for (size_t i = 1; i < runs_.size(); ++i) {
    if (runs_[i].lo <= runs_[out].hi + 1) {
      runs_[out].hi = std::max(runs_[out].hi, runs_[i].hi);
    } else {
      runs_[++out] = runs_[i];
    }
  }
  runs_.resize(out + 1);
}

int64_t BucketRuns::LastBefore(int64_t limit) const {
  // The first run starting at or after `limit`; the answer lies in the run
  // before it.
  const auto it = std::partition_point(
      runs_.begin(), runs_.end(),
      [limit](const BucketRun& r) { return r.lo < limit; });
  if (it == runs_.begin()) return -1;
  return std::min(std::prev(it)->hi, limit - 1);
}

bool BucketRuns::Contains(int64_t id) const {
  // The first run ending at or after `id` holds it if any run does.
  const auto it = std::partition_point(
      runs_.begin(), runs_.end(),
      [id](const BucketRun& r) { return r.hi < id; });
  return it != runs_.end() && it->lo <= id;
}

void BucketRuns::AppendIds(std::vector<int64_t>* out) const {
  ForEachId([out](int64_t id) { out->push_back(id); });
}

std::vector<int64_t> BucketRuns::ToIds() const {
  std::vector<int64_t> out;
  AppendIds(&out);
  return out;
}

}  // namespace lbsq::broadcast
