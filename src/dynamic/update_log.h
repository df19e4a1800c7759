#ifndef LBSQ_DYNAMIC_UPDATE_LOG_H_
#define LBSQ_DYNAMIC_UPDATE_LOG_H_

#include <cstdint>
#include <vector>

#include "broadcast/incremental.h"
#include "geom/point.h"
#include "geom/rect.h"
#include "spatial/poi.h"

/// \file
/// The POI update log of the dynamic world: the ordered record of every
/// insert/delete/move batch applied to the server database. Each applied
/// batch advances the world by one *epoch*; the log is the oracle that
/// decides whether a verified region produced under epoch `a` is still
/// complete under epoch `b` — it is, exactly when no update in the batches
/// (a, b] touches the region (Lemma 3.1's completeness precondition is
/// preserved by updates that happen elsewhere).

namespace lbsq::dynamic {

/// One POI mutation.
struct PoiUpdate {
  enum class Kind { kInsert, kDelete, kMove };
  Kind kind = Kind::kInsert;
  /// The POI this update targets. Inserts require an id unused by any live
  /// POI; deletes/moves require a live one (violations are skipped by
  /// ApplyUpdates and counted, never applied).
  int64_t id = -1;
  /// Insert/move: the (new) position.
  geom::Point pos;
  /// Delete/move: the position the POI held before the update. Filled
  /// authoritatively by ApplyUpdates from the pre-update database, so the
  /// logged batch carries exactly the region-dirtying footprint.
  geom::Point old_pos;
};

/// The updates that took the world from epoch `epoch - 1` to `epoch`.
struct UpdateBatch {
  uint64_t epoch = 0;
  std::vector<PoiUpdate> updates;
};

/// Applies `*updates` in order to `*pois`, preserving the database's
/// generation order (deletes erase in place, moves rewrite the position,
/// inserts append) so per-epoch oracles stay deterministic. Invalid
/// operations — insert of a live id, delete/move of a missing one — are
/// skipped AND removed from `*updates`, so the surviving vector is exactly
/// the applied batch (with the `old_pos` of every delete/move filled from
/// the pre-update state), ready for the log. Returns the applied count
/// (== updates->size() on return).
int64_t ApplyUpdates(std::vector<PoiUpdate>* updates,
                     std::vector<spatial::Poi>* pois);

/// Nets an applied batch (the post-ApplyUpdates vector, old_pos filled) down
/// to the base-relative delta the incremental rebuild consumes: one removal
/// per base POI the batch takes off the air (at the position it held in the
/// *base* epoch, however many times it moved before vanishing) and one
/// addition per POI alive at the end that is new or moved. A POI deleted and
/// re-inserted in the same batch nets to a removal plus an addition; one
/// inserted and deleted again nets to nothing. This per-id netting is what
/// keeps the delta resolvable against the base file — intermediate positions
/// of chained moves never appear in it.
broadcast::SystemDelta DeltaFromBatch(const std::vector<PoiUpdate>& updates);

/// Append-only record of applied batches (epochs 1, 2, ... in order).
/// Not internally synchronized — ShardedWorld guards its instance.
class UpdateLog {
 public:
  /// Appends the batch for the next epoch. Requires batch.epoch ==
  /// latest_epoch() + 1 (epochs are dense and ordered).
  void Append(UpdateBatch batch);

  /// The newest epoch the log knows (0 = no updates yet).
  uint64_t latest_epoch() const {
    return batches_.empty() ? 0 : batches_.back().epoch;
  }

  /// All recorded batches, oldest first.
  const std::vector<UpdateBatch>& batches() const { return batches_; }

  /// True when any update in a batch with `from_exclusive < epoch <=
  /// to_inclusive` touches `rect`: an insert or move landing inside it, or
  /// a delete or move departing from inside it. A verified region for which
  /// this returns false over the epoch interval separating producer and
  /// consumer is still complete and may be retagged instead of dropped.
  bool RegionDirtyBetween(const geom::Rect& rect, uint64_t from_exclusive,
                          uint64_t to_inclusive) const;

 private:
  std::vector<UpdateBatch> batches_;
};

}  // namespace lbsq::dynamic

#endif  // LBSQ_DYNAMIC_UPDATE_LOG_H_
