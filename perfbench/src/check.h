// Output checks of the benchmark, made apart from the index: every answer is
// compared with a linear scan over the objects the benchmark itself knows to
// be live. Nothing here calls into the index.
#ifndef PERFBENCH_CHECK_H_
#define PERFBENCH_CHECK_H_

#include <cstdint>
#include <string>
#include <vector>

#include "common/blob.h"
#include "core/metric_index.h"
#include "metrics/distance.h"

namespace perfbench {

using spb::Blob;
using spb::DistanceFunction;
using spb::Neighbor;
using spb::ObjectId;

/// Ground truth by linear scan. Object `id` is `objects[id]`; `live[id]`
/// says whether the benchmark believes it is in the index.
class Oracle {
 public:
  Oracle(const DistanceFunction* metric, const std::vector<Blob>* objects)
      : metric_(metric), objects_(objects), live_(objects->size(), 0) {}

  void SetLive(ObjectId id, bool live) { live_[id] = live ? 1 : 0; }
  bool live(ObjectId id) const { return id < live_.size() && live_[id]; }
  size_t num_live() const;

  /// Ids of live objects within `r` of `q`, ascending.
  std::vector<ObjectId> Range(const Blob& q, double r) const;
  /// The `k` smallest distances from `q` to live objects, ascending.
  std::vector<double> KnnDistances(const Blob& q, size_t k) const;
  /// The `k` smallest distances from `q` to the objects in `ids`.
  std::vector<double> KnnDistancesOver(const Blob& q, size_t k,
                                       const std::vector<ObjectId>& ids) const;

  double Distance(const Blob& q, ObjectId id) const {
    return metric_->Distance(q, (*objects_)[id]);
  }
  size_t num_objects() const { return objects_->size(); }

 private:
  const DistanceFunction* metric_;
  const std::vector<Blob>* objects_;
  std::vector<uint8_t> live_;
};

/// Each check returns "" when the answer is right, else what is wrong.

/// Exact range check: ids (any order) equal the scan's ids.
std::string CheckRange(const std::vector<ObjectId>& expect,
                       std::vector<ObjectId> got);

/// Tie-aware kNN check. `expect` holds the scan's k smallest distances.
/// The returned distances must equal them position by position; every id
/// must be live and distinct, and its recomputed distance must equal the
/// reported one. Ids at tied distances may be any of the tied objects.
std::string CheckKnn(const Oracle& oracle, const Blob& q,
                     const std::vector<double>& expect,
                     const std::vector<Neighbor>& got);

/// Bounds check for a range read that ran while writers were active.
/// `must` are ids the read must return (base objects in the ball that no
/// writer deletes); `may` says whether an id could have been live at some
/// point of the read. Every returned id must be distinct, allowed by `may`,
/// and within `r` of `q`.
std::string CheckRangeBounds(const Oracle& oracle, const Blob& q, double r,
                             const std::vector<ObjectId>& must,
                             const std::vector<uint8_t>& may,
                             std::vector<ObjectId> got);

/// Bounds check for a concurrent kNN read. `upper` are the k smallest
/// distances over objects live throughout the read (the i-th answer may not
/// be farther); `lower` the k smallest over every object that could have
/// been live (the i-th answer may not be nearer). Ids must be distinct,
/// allowed by `may`, and their recomputed distances must equal the
/// reported ones.
std::string CheckKnnBounds(const Oracle& oracle, const Blob& q,
                           const std::vector<double>& upper,
                           const std::vector<double>& lower,
                           const std::vector<uint8_t>& may,
                           const std::vector<Neighbor>& got);

/// Durability check for one acknowledged write after a reopen: `lookup`
/// is the answer of a radius-0 range query for the written object. The id
/// must be in it iff the last acknowledged write was an insert.
std::string CheckLookup(ObjectId id, bool want_present,
                        const std::vector<ObjectId>& lookup);

/// Totals reached by two independent paths must agree.
std::string CheckTotal(const char* what, uint64_t expect, uint64_t got);

/// Plants one wrong answer per check (a dropped neighbour, a swapped
/// neighbour, an extra range id, a never-inserted id, a lost acknowledged
/// insert, ...) and shows that the check rejects it while accepting the
/// right answer. Prints one line per case; returns true iff every planted
/// fault was caught and every right answer accepted.
bool SelfTest();

}  // namespace perfbench

#endif  // PERFBENCH_CHECK_H_
