#include "check.h"

#include <algorithm>
#include <cstdio>
#include <functional>
#include <queue>

#include "data/datasets.h"

namespace perfbench {

namespace {

std::string Fmt(const char* fmt, double a, double b = 0, double c = 0) {
  char buf[256];
  std::snprintf(buf, sizeof(buf), fmt, a, b, c);
  return buf;
}

// The k smallest of `dists`, ascending.
std::vector<double> Smallest(std::vector<double> dists, size_t k) {
  k = std::min(k, dists.size());
  std::partial_sort(dists.begin(), dists.begin() + k, dists.end());
  dists.resize(k);
  return dists;
}

// Distinct ids, each allowed by `allowed`, each at its reported distance.
std::string CheckNeighbourIds(const Oracle& oracle, const Blob& q,
                              const std::function<bool(ObjectId)>& allowed,
                              const std::vector<Neighbor>& got) {
  std::vector<ObjectId> ids;
  for (const Neighbor& n : got) {
    if (n.id >= oracle.num_objects() || !allowed(n.id)) {
      return Fmt("knn returned id %.0f, which was not live", n.id);
    }
    const double d = oracle.Distance(q, n.id);
    if (d != n.distance) {
      return Fmt("knn id %.0f reported at %.17g, recomputed %.17g", n.id,
                 n.distance, d);
    }
    ids.push_back(n.id);
  }
  std::sort(ids.begin(), ids.end());
  if (std::adjacent_find(ids.begin(), ids.end()) != ids.end()) {
    return "knn returned an id twice";
  }
  return "";
}

}  // namespace

size_t Oracle::num_live() const {
  return size_t(std::count(live_.begin(), live_.end(), uint8_t{1}));
}

std::vector<ObjectId> Oracle::Range(const Blob& q, double r) const {
  std::vector<ObjectId> out;
  for (ObjectId id = 0; id < live_.size(); ++id) {
    if (live_[id] && metric_->Distance(q, (*objects_)[id]) <= r) {
      out.push_back(id);
    }
  }
  return out;
}

std::vector<double> Oracle::KnnDistances(const Blob& q, size_t k) const {
  std::priority_queue<double> heap;  // the k smallest so far, max on top
  for (ObjectId id = 0; id < live_.size(); ++id) {
    if (!live_[id]) continue;
    const double d = metric_->Distance(q, (*objects_)[id]);
    if (heap.size() < k) {
      heap.push(d);
    } else if (d < heap.top()) {
      heap.pop();
      heap.push(d);
    }
  }
  std::vector<double> out(heap.size());
  for (size_t i = out.size(); i-- > 0; heap.pop()) out[i] = heap.top();
  return out;
}

std::vector<double> Oracle::KnnDistancesOver(
    const Blob& q, size_t k, const std::vector<ObjectId>& ids) const {
  std::vector<double> d;
  d.reserve(ids.size());
  for (ObjectId id : ids) d.push_back(metric_->Distance(q, (*objects_)[id]));
  return Smallest(std::move(d), k);
}

std::string CheckRange(const std::vector<ObjectId>& expect,
                       std::vector<ObjectId> got) {
  std::sort(got.begin(), got.end());
  if (got == expect) return "";
  std::vector<ObjectId> extra, missing;
  std::set_difference(got.begin(), got.end(), expect.begin(), expect.end(),
                      std::back_inserter(extra));
  std::set_difference(expect.begin(), expect.end(), got.begin(), got.end(),
                      std::back_inserter(missing));
  return Fmt("range returned %.0f ids: %.0f extra or repeated, %.0f missing",
             double(got.size()), double(extra.size()),
             double(missing.size()));
}

std::string CheckKnn(const Oracle& oracle, const Blob& q,
                     const std::vector<double>& expect,
                     const std::vector<Neighbor>& got) {
  if (got.size() != expect.size()) {
    return Fmt("knn returned %.0f neighbours, scan %.0f", double(got.size()),
               double(expect.size()));
  }
  for (size_t i = 0; i < got.size(); ++i) {
    if (got[i].distance != expect[i]) {
      return Fmt("knn neighbour %.0f at %.17g, scan %.17g", double(i),
                 got[i].distance, expect[i]);
    }
  }
  return CheckNeighbourIds(
      oracle, q, [&](ObjectId id) { return oracle.live(id); }, got);
}

std::string CheckRangeBounds(const Oracle& oracle, const Blob& q, double r,
                             const std::vector<ObjectId>& must,
                             const std::vector<uint8_t>& may,
                             std::vector<ObjectId> got) {
  std::sort(got.begin(), got.end());
  if (std::adjacent_find(got.begin(), got.end()) != got.end()) {
    return "range returned an id twice";
  }
  if (!std::includes(got.begin(), got.end(), must.begin(), must.end())) {
    return "range missed a base object inside the radius";
  }
  for (ObjectId id : got) {
    if (id >= may.size() || !may[id]) {
      return Fmt("range returned id %.0f, which was never inserted", id);
    }
    if (oracle.Distance(q, id) > r) {
      return Fmt("range returned id %.0f outside the radius", id);
    }
  }
  return "";
}

std::string CheckKnnBounds(const Oracle& oracle, const Blob& q,
                           const std::vector<double>& upper,
                           const std::vector<double>& lower,
                           const std::vector<uint8_t>& may,
                           const std::vector<Neighbor>& got) {
  if (got.size() != upper.size()) {
    return Fmt("knn returned %.0f neighbours, %.0f were live throughout",
               double(got.size()), double(upper.size()));
  }
  for (size_t i = 0; i < got.size(); ++i) {
    if (got[i].distance > upper[i] || got[i].distance < lower[i] ||
        (i > 0 && got[i].distance < got[i - 1].distance)) {
      return Fmt("knn neighbour %.0f at %.17g outside [%.17g, upper]",
                 double(i), got[i].distance, lower[i]);
    }
  }
  return CheckNeighbourIds(
      oracle, q, [&](ObjectId id) { return id < may.size() && may[id]; },
      got);
}

std::string CheckLookup(ObjectId id, bool want_present,
                        const std::vector<ObjectId>& lookup) {
  const bool present =
      std::find(lookup.begin(), lookup.end(), id) != lookup.end();
  if (present == want_present) return "";
  return want_present ? Fmt("acknowledged insert of id %.0f is lost", id)
                      : Fmt("acknowledged delete of id %.0f came back", id);
}

std::string CheckTotal(const char* what, uint64_t expect, uint64_t got) {
  if (expect == got) return "";
  return std::string(what) +
         Fmt(": expected %.0f, got %.0f", double(expect), double(got));
}

bool SelfTest() {
  // Words under edit distance: integer distances, so kNN answers have ties
  // and the tie-aware path is exercised.
  spb::Dataset ds = spb::MakeWords(3000, 11);
  Oracle oracle(ds.metric.get(), &ds.objects);
  const ObjectId kBase = 2500;  // ids >= kBase are "held out"
  std::vector<uint8_t> may(ds.objects.size(), 0);
  std::vector<ObjectId> base_ids;
  for (ObjectId id = 0; id < kBase; ++id) {
    oracle.SetLive(id, true);
    may[id] = 1;
    base_ids.push_back(id);
  }
  const ObjectId kInserted = kBase;  // inserted, acknowledged
  oracle.SetLive(kInserted, true);
  may[kInserted] = 1;
  const ObjectId kNever = kBase + 1;  // never inserted

  const Blob& q = ds.objects[kBase + 7];
  const size_t k = 10;
  const double r = 2.0;

  // The right answers, built from a scan so no index is involved.
  std::vector<std::pair<double, ObjectId>> all;
  for (ObjectId id = 0; id < ds.objects.size(); ++id) {
    if (oracle.live(id)) all.push_back({oracle.Distance(q, id), id});
  }
  std::sort(all.begin(), all.end());
  std::vector<Neighbor> knn;
  for (size_t i = 0; i < k; ++i) knn.push_back({all[i].second, all[i].first});
  const std::vector<double> expect = oracle.KnnDistances(q, k);
  const std::vector<ObjectId> range = oracle.Range(q, r);
  const std::vector<double> upper = oracle.KnnDistancesOver(q, k, base_ids);

  // A tied swap: the last neighbour replaced by another live object at the
  // same distance, which a correct index may return.
  std::vector<Neighbor> tied = knn;
  const bool have_tie = all[k].first == knn.back().distance;
  if (have_tie) tied.back() = {all[k].second, all[k].first};
  // Wrong answers.
  // The nearest neighbour dropped and the first object strictly farther
  // than the k-th appended, so no tie can make the answer right.
  size_t far = k;
  while (all[far].first == knn.back().distance) ++far;
  std::vector<Neighbor> dropped = knn;
  dropped.erase(dropped.begin());
  dropped.push_back({all[far].second, all[far].first});
  std::sort(dropped.begin(), dropped.end(),
            [](const Neighbor& a, const Neighbor& b) {
              return a.distance < b.distance;
            });
  std::vector<Neighbor> misreported = knn;
  misreported[3].distance += 0.5;
  // A repeated id at a tied position, so only the distinctness test sees it.
  std::vector<Neighbor> repeated = knn;
  size_t tie = 0;
  while (tie + 2 < k && knn[tie].distance != knn[tie + 1].distance) ++tie;
  repeated[tie + 1] = repeated[tie];
  std::vector<Neighbor> dead = knn;
  dead.back() = {kNever, knn.back().distance};
  std::vector<ObjectId> range_extra = range;
  for (const auto& [d, id] : all) {
    if (d > r) {
      range_extra.push_back(id);
      break;
    }
  }
  std::vector<ObjectId> range_dropped = range;
  if (!range_dropped.empty()) range_dropped.pop_back();
  std::vector<ObjectId> range_never = range;
  range_never.push_back(kNever);
  std::vector<ObjectId> must;
  for (ObjectId id : range) {
    if (id < kBase) must.push_back(id);
  }

  struct Case {
    const char* name;
    bool want_ok;
    std::string err;
  };
  const std::vector<Case> cases = {
      {"range: scan answer", true, CheckRange(range, range)},
      {"range: extra id", false, CheckRange(range, range_extra)},
      {"range: dropped id", false, CheckRange(range, range_dropped)},
      {"knn: scan answer", true, CheckKnn(oracle, q, expect, knn)},
      {"knn: tied neighbour swapped", true,
       have_tie ? CheckKnn(oracle, q, expect, tied) : "no tie in sample"},
      {"knn: dropped neighbour", false, CheckKnn(oracle, q, expect, dropped)},
      {"knn: misreported distance", false,
       CheckKnn(oracle, q, expect, misreported)},
      {"knn: repeated id", false, CheckKnn(oracle, q, expect, repeated)},
      {"knn: never-inserted id", false, CheckKnn(oracle, q, expect, dead)},
      {"range bounds: scan answer", true,
       CheckRangeBounds(oracle, q, r, must, may, range)},
      {"range bounds: dropped base id", false,
       CheckRangeBounds(oracle, q, r, must, may, range_dropped)},
      {"range bounds: never-inserted id", false,
       CheckRangeBounds(oracle, q, r, must, may, range_never)},
      {"range bounds: id outside radius", false,
       CheckRangeBounds(oracle, q, r, must, may, range_extra)},
      {"knn bounds: scan answer", true,
       CheckKnnBounds(oracle, q, upper, expect, may, knn)},
      {"knn bounds: dropped neighbour", false,
       CheckKnnBounds(oracle, q, upper, expect, may, dropped)},
      {"knn bounds: never-inserted id", false,
       CheckKnnBounds(oracle, q, upper, expect, may, dead)},
      {"reopen: acknowledged insert present", true,
       CheckLookup(kInserted, true, {kInserted})},
      {"reopen: acknowledged insert lost", false,
       CheckLookup(kInserted, true, {})},
      {"reopen: acknowledged delete back", false,
       CheckLookup(kInserted, false, {kInserted})},
      {"totals: ops acknowledged vs executed", false,
       CheckTotal("ops_executed", 100, 99)},
  };
  bool all_ok = true;
  for (const Case& c : cases) {
    const bool ok = c.err.empty() == c.want_ok;
    all_ok = all_ok && ok;
    std::printf("%-4s %-40s %s\n", ok ? "ok" : "FAIL", c.name,
                c.err.empty() ? "accepted" : c.err.c_str());
  }
  return all_ok;
}

}  // namespace perfbench
