// The repository's benchmark driver. One process runs one workload against
// the SPB-tree server, checks every answer against a linear scan, and
// prints one JSON line: {"correct", "attempted", "failed", "metrics"}.
//
//   spb_perfbench --workload <wire-read|wire-mixed|inproc-cold> --seed <n>
//                 --seconds <s> --trace <0|1> [--work-dir <dir>]
//   spb_perfbench --self-test
//
// --trace 0 measures the end-to-end metrics; --trace 1 repeats the workload
// with a timing decorator on the distance function and spans around the
// benchmark's calls into each layer, and reports the per-layer metrics
// (README.md lists them and the end-to-end metric each should move).
#include <algorithm>
#include <atomic>
#include <barrier>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <deque>
#include <filesystem>
#include <map>
#include <memory>
#include <random>
#include <set>
#include <string>
#include <thread>
#include <vector>

#include "check.h"
#include "common/contention.h"
#include "core/sharded_spb_tree.h"
#include "core/spb_tree.h"
#include "data/datasets.h"
#include "exec/query_executor.h"
#include "net/client.h"
#include "net/protocol.h"
#include "net/server.h"
#include "pivots/selection.h"
#include "trace.h"

namespace perfbench {
namespace {

using spb::MetricIndex;
using spb::OpResult;
using spb::QueryExecutor;
using spb::Request;
using spb::Status;
using Kind = spb::Request::Kind;

// ------------------------------------------------------------ workloads

// One workload. Sizes, radii and mixes are fixed here; README.md states
// them with the reasons.
struct Spec {
  const char* name;
  const char* dataset;       // generator (src/data)
  size_t n_base;             // objects in the index at start
  size_t n_inserts;          // held-out objects for inserts
  double radius;             // range radius
  size_t k;                  // kNN k
  size_t shards;             // 1 = plain SpbTree
  bool on_disk;
  bool wal;                  // group-commit WAL, fsync on
  bool wire;                 // SPB1 loopback, else in-process Submit()
  size_t clients;            // closed-loop connections (at most nproc)
  size_t exec_threads;       // QueryExecutor pool
  bool cold;                 // FlushCaches() before each operation
  std::vector<Kind> round;   // one client's round of operations
  size_t segment_rounds;     // rounds per client in one segment
  size_t pass_segments;      // segments in one pass
};

std::vector<Kind> ReadRound() { return {Kind::kKnn, Kind::kRange}; }

// 27 reads (kNN and range alternating), 2 inserts and 1 delete: 10% writes,
// and the live set grows by one insert per round, so the reopen check sees
// both acknowledged inserts and acknowledged deletes.
std::vector<Kind> MixedRound() {
  std::vector<Kind> r;
  for (size_t i = 0; i < 30; ++i) {
    if (i == 5 || i == 15) {
      r.push_back(Kind::kInsert);
    } else if (i == 25) {
      r.push_back(Kind::kDelete);
    } else {
      r.push_back(r.size() % 2 == 0 ? Kind::kKnn : Kind::kRange);
    }
  }
  return r;
}

const std::vector<Spec>& Specs() {
  static const std::vector<Spec> specs = {
      {"wire-read", "synthetic", 200000, 512, 0.34, 10, 1, false, false, true,
       1, 4, false, ReadRound(), 16, 8},
      {"wire-mixed", "words", 100000, 8192, 2.0, 10, 4, true, true, true, 1, 4,
       false, MixedRound(), 1, 10},
      {"inproc-cold", "color", 100000, 512, 0.13, 10, 1, true, false, false, 1,
       1, true, ReadRound(), 32, 8},
  };
  return specs;
}

constexpr size_t kServeDispatchers = 2;  // spb_cli serve default
constexpr size_t kChunkInserts = 24;     // write probe of read-only loops
constexpr size_t kBytesAtWrites = 96;    // loop writes before bytes_per_object
constexpr size_t kSample = 16;           // per kind: identity + replay sample
constexpr int kMaxBusyRetries = 10000;
constexpr uint64_t kDataSeed = 20150415;  // generator seed of every dataset
constexpr size_t kPoolFactor = 4;         // held-out pool / held-out use

size_t Clients(const Spec& spec) {
  return std::max<size_t>(
      1, std::min<size_t>(spec.clients, std::thread::hardware_concurrency()));
}

// Operations of `kind` in one client's pass.
size_t PerClientPass(const Spec& spec, Kind kind) {
  return spec.segment_rounds * spec.pass_segments *
         size_t(std::count(spec.round.begin(), spec.round.end(), kind));
}

// Held-out query objects of a run: the first half for kNN, the second for
// range, each half as many as one pass of all clients reads, and at least
// kSample for the identity and replay samples.
size_t NumQueries(const Spec& spec) {
  const size_t per_kind =
      Clients(spec) * std::max(PerClientPass(spec, Kind::kKnn),
                               PerClientPass(spec, Kind::kRange));
  return 2 * std::max(per_kind, kSample);
}

// ------------------------------------------------------------ helpers

double Seconds(uint64_t ns) { return double(ns) / 1e9; }

double Percentile(std::vector<double> v, double p) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const double pos = p * double(v.size() - 1);
  const size_t lo = size_t(pos);
  const size_t hi = std::min(lo + 1, v.size() - 1);
  return v[lo] + (v[hi] - v[lo]) * (pos - double(lo));
}

// Mean over slots of each slot's fastest time. A slot is one operation,
// repeated the same way once per pass (or per segment); its fastest time is
// the operation's time with the least interference from other load on the
// host. A mean, not a median: query latencies are bimodal on some datasets,
// and a median over a few hundred queries jumps between the modes with the
// seed.
double MeanOfBest(const std::vector<std::pair<uint32_t, double>>& timed) {
  std::map<uint32_t, double> best;
  for (const auto& [slot, ms] : timed) {
    const auto [it, fresh] = best.emplace(slot, ms);
    if (!fresh) it->second = std::min(it->second, ms);
  }
  double sum = 0;
  for (const auto& [slot, ms] : best) sum += ms;
  return best.empty() ? 0.0 : sum / double(best.size());
}

template <class F>
void ParallelFor(size_t n, F f) {
  const size_t t = std::max<size_t>(
      1, std::min<size_t>(4, std::thread::hardware_concurrency()));
  std::atomic<size_t> next{0};
  std::vector<std::thread> threads;
  for (size_t i = 0; i < t; ++i) {
    threads.emplace_back([&] {
      for (size_t j; (j = next.fetch_add(1)) < n;) f(j);
    });
  }
  for (auto& th : threads) th.join();
}

struct Metric {
  std::string name;
  double value;
  std::string unit;
};

struct Report {
  uint64_t attempted = 0;
  uint64_t failed = 0;
  std::vector<std::string> errors;  // failed checks
  std::vector<Metric> metrics;

  void Check(const std::string& err, const char* where) {
    if (!err.empty() && errors.size() < 20) {
      errors.push_back(std::string(where) + ": " + err);
    }
  }
  void Add(const std::string& name, double value, const char* unit) {
    metrics.push_back({name, value, unit});
  }
};

// The index under test: a plain SpbTree or a ShardedSpbTree.
struct Index {
  std::unique_ptr<spb::SpbTree> tree;
  std::unique_ptr<spb::ShardedSpbTree> sharded;

  MetricIndex* get() const {
    return sharded ? static_cast<MetricIndex*>(sharded.get()) : tree.get();
  }
  Status Save() { return sharded ? sharded->Save() : tree->Save(); }
  Status CheckIntegrity() {
    return sharded ? sharded->CheckIntegrity() : tree->CheckIntegrity();
  }
  void Close() {
    tree.reset();
    sharded.reset();
  }
};

spb::SpbTreeOptions Options(const Spec& spec, const std::string& dir) {
  spb::SpbTreeOptions o;  // spb_cli defaults: planner and locator off
  o.num_shards = spec.shards;
  if (spec.on_disk) o.storage_dir = dir;
  if (spec.wal) {
    o.enable_wal = true;
    o.enable_group_commit = true;
  }
  return o;
}

// ------------------------------------------------------------ operations

// The ways an operation reaches the index.
enum class Path { kWire, kSubmit, kDirect };

struct Endpoints {
  spb::net::Client* client = nullptr;
  QueryExecutor* exec = nullptr;
  MetricIndex* index = nullptr;
};

// Runs one operation on `path`; range ids come back sorted. Busy replies
// over the wire are retried with backoff and counted in `*busy`.
Status RunOp(Path path, const Endpoints& ep, const Request& req,
             OpResult* out, uint64_t* busy) {
  *out = OpResult{};
  if (path == Path::kSubmit) {
    spb::BatchResult br = ep.exec->Submit({&req, 1});
    *out = std::move(br.results[0]);
    return out->status;
  }
  Status s;
  for (int attempt = 0;; ++attempt) {
    if (path == Path::kDirect) {
      switch (req.kind) {
        case Kind::kKnn:
          s = ep.index->KnnQuery(req.obj, req.k, &out->neighbors, nullptr);
          break;
        case Kind::kRange:
          s = ep.index->RangeQuery(req.obj, req.radius, &out->range_ids,
                                   nullptr);
          break;
        case Kind::kInsert:
          s = ep.index->Insert(req.obj, req.id);
          break;
        case Kind::kDelete:
          s = ep.index->Delete(req.obj, req.id, &out->found);
          break;
      }
    } else {
      switch (req.kind) {
        case Kind::kKnn:
          s = ep.client->Knn(req.obj, req.k, &out->neighbors);
          break;
        case Kind::kRange:
          s = ep.client->Range(req.obj, req.radius, &out->range_ids);
          break;
        case Kind::kInsert:
          s = ep.client->Insert(req.obj, req.id);
          break;
        case Kind::kDelete:
          s = ep.client->Delete(req.obj, req.id, &out->found);
          break;
      }
    }
    if (s.code() != Status::Code::kBusy || attempt >= kMaxBusyRetries) break;
    ++*busy;
    std::this_thread::sleep_for(std::chrono::microseconds(
        std::min(1000, 50 << std::min(attempt, 4))));
  }
  std::sort(out->range_ids.begin(), out->range_ids.end());
  out->status = s;
  return s;
}

bool IsRead(Kind k) { return k == Kind::kKnn || k == Kind::kRange; }

// One operation of the measured loop, kept for the checks.
struct OpRecord {
  Kind kind;
  uint32_t target;  // query index (reads) or object id (writes)
  uint32_t slot;    // position in the pass, over all clients
  double ms;
  OpResult result;
};

// ------------------------------------------------------------ the run

class Run {
 public:
  Run(const Spec& spec, uint64_t seed, double seconds, bool trace,
      std::string dir)
      : spec_(spec), seed_(seed), seconds_(seconds), trace_(trace),
        dir_(std::move(dir)) {}

  Report Execute();

 private:
  void Generate();
  Status Setup();
  void MainLoop();
  void ClientLoop(size_t c);
  void EndSegment();
  void ProbeChunk();
  void CheckLoop();
  void CheckIdentity();
  void Replay();
  void CheckFinalState();
  void Reopen();
  void Metrics();

  Request MakeRequest(Kind kind, uint32_t target) const {
    switch (kind) {
      case Kind::kKnn:
        return Request::Knn(queries_[target], spec_.k);
      case Kind::kRange:
        return Request::Range(queries_[target], spec_.radius);
      case Kind::kInsert:
        return Request::Insert(objects_[target], target);
      case Kind::kDelete:
        return Request::Delete(objects_[target], target);
    }
    return {};
  }
  Path MainPath() const { return spec_.wire ? Path::kWire : Path::kSubmit; }
  // RunOp on this run's endpoints; counts the wire ops the server
  // acknowledged, for the ops_executed cross-check.
  Status Do(Path path, spb::net::Client* client, const Request& req,
            OpResult* out, uint64_t* busy) {
    const Status s =
        RunOp(path, {client, exec_.get(), index_.get()}, req, out, busy);
    if (path == Path::kWire && s.ok()) wire_acked_.fetch_add(1);
    return s;
  }
  // Applies an acknowledged write to the benchmark's own view.
  void Acknowledge(Kind kind, ObjectId id, const OpResult& r) {
    if (!r.status.ok()) return;
    if (kind == Kind::kInsert) {
      oracle_->SetLive(id, true);
      ++acked_inserts_;
    } else if (kind == Kind::kDelete) {
      if (r.found) {
        oracle_->SetLive(id, false);
        ++found_deletes_;
      } else {
        report_.Check("delete of an acknowledged insert was not found",
                      "writes");
      }
    }
    last_write_[id] = kind;
  }

  const Spec& spec_;
  const uint64_t seed_;
  const double seconds_;
  const bool trace_;
  const std::string dir_;
  Report report_;

  spb::Dataset ds_;
  std::vector<Blob> objects_;  // [base | held-out inserts], id = position
  std::vector<Blob> queries_;  // held out, never inserted
  std::unique_ptr<TimingDistance> timing_;
  const DistanceFunction* metric_ = nullptr;  // what the index uses
  std::unique_ptr<Oracle> oracle_;

  Index index_;
  std::unique_ptr<QueryExecutor> exec_;
  std::unique_ptr<spb::net::Server> server_;
  std::vector<std::unique_ptr<spb::net::Client>> clients_;

  // Setup.
  double setup_s_ = 0, pivot_select_s_ = 0, bulk_load_s_ = 0, save_s_ = 0,
         server_start_s_ = 0;

  // Main loop.
  std::vector<std::vector<OpRecord>> records_;  // per client
  std::vector<uint64_t> busy_;                  // per client
  // The clients meet at the end of each segment; the last to arrive runs
  // EndSegment.
  struct SegmentEnd {
    Run* run;
    void operator()() noexcept { run->EndSegment(); }
  };
  std::unique_ptr<std::barrier<SegmentEnd>> segment_end_;
  bool read_only_ = false;
  bool more_passes_ = true;
  size_t segments_done_ = 0;
  uint64_t deadline_ns_ = 0, segment_start_ns_ = 0, pass_start_ns_ = 0;
  std::vector<uint64_t> segment_ns_;  // fastest time of each segment of a pass
  spb::StatsSnapshot stats_before_, stats_after_;
  spb::ArenaQueueStats arena_before_, arena_after_;
  std::vector<spb::LockStatsSnapshot> locks_;
  TimingDistance::Totals dist_before_, dist_after_;
  std::atomic<uint64_t> wire_acked_{0};
  std::atomic<uint64_t> loop_writes_{0};  // acknowledged writes of the loop
  spb::StatsSnapshot stats_bytes_;        // after kBytesAtWrites of them
  bool bytes_taken_ = false;
  uint64_t acked_inserts_ = 0, found_deletes_ = 0;
  std::map<ObjectId, Kind> last_write_;
  std::vector<std::pair<uint32_t, double>> probe_write_ms_;  // slot, ms
  uint64_t probe_compdists_ = 0, probe_pa_ = 0;
  double reopen_s_ = 0;

  // Traced replay.
  SpanLog spans_;
  double codec_us_per_op_ = 0;
  double share_of_query_ = 0;
  uint64_t range_compdists_ = 0, range_results_ = 0;
};

void Run::Generate() {
  // The dataset, and so the index built from it, is fixed like the paper's:
  // the base is the generator's first n_base objects. The seed draws the
  // queries and the objects to insert from a held-out pool of the same
  // generator, kPoolFactor times larger than needed. Seeding the base too
  // would change the pivots, and with them the mean query cost by a quarter
  // between seeds, hiding any smaller change.
  const size_t held = spec_.n_inserts + NumQueries(spec_);
  ds_ = spb::MakeDatasetByName(spec_.dataset,
                               spec_.n_base + kPoolFactor * held, kDataSeed);
  std::vector<Blob>& all = ds_.objects;
  std::shuffle(all.begin() + spec_.n_base, all.end(),
               std::mt19937_64(seed_));
  const auto held_end = all.begin() + spec_.n_base + held;
  queries_.assign(all.begin() + spec_.n_base + spec_.n_inserts, held_end);
  all.erase(all.begin() + spec_.n_base + spec_.n_inserts, all.end());
  objects_ = std::move(all);
  oracle_ = std::make_unique<Oracle>(ds_.metric.get(), &objects_);
  for (ObjectId id = 0; id < spec_.n_base; ++id) oracle_->SetLive(id, true);
  metric_ = ds_.metric.get();
  if (trace_) {
    timing_ = std::make_unique<TimingDistance>(ds_.metric.get());
    metric_ = timing_.get();
  }
}

// Build (plus Save on disk, plus executor and server start), timed from the
// generated objects in memory to an index ready to serve.
Status Run::Setup() {
  const std::vector<Blob> base(objects_.begin(),
                               objects_.begin() + spec_.n_base);
  const spb::SpbTreeOptions opts = Options(spec_, dir_ + "/index");
  spb::PivotSelectionOptions popts;
  popts.num_pivots = opts.num_pivots;
  popts.seed = opts.seed;
  if (spec_.shards > 1 && trace_) {
    // ShardedSpbTree::Build selects its pivots inside; this separate call
    // with the same options times that step for the layer split.
    const uint64_t t0 = NowNs();
    spb::SelectPivots(opts.pivot_selector, base, *metric_, popts);
    pivot_select_s_ = Seconds(NowNs() - t0);
  }
  const uint64_t start = NowNs();
  Status s;
  if (spec_.shards > 1) {
    s = spb::ShardedSpbTree::Build(base, metric_, opts, &index_.sharded);
    bulk_load_s_ = Seconds(NowNs() - start);
  } else {
    spb::PivotTable pivots(
        spb::SelectPivots(opts.pivot_selector, base, *metric_, popts));
    const uint64_t t1 = NowNs();
    pivot_select_s_ = Seconds(t1 - start);
    s = spb::SpbTree::BuildWithPivots(base, metric_, std::move(pivots), opts,
                                      &index_.tree);
    bulk_load_s_ = Seconds(NowNs() - t1);
  }
  if (!s.ok()) return s;
  if (spec_.on_disk) {
    const uint64_t t2 = NowNs();
    SPB_RETURN_IF_ERROR(index_.Save());
    save_s_ = Seconds(NowNs() - t2);
  }
  const uint64_t t3 = NowNs();
  exec_ = std::make_unique<QueryExecutor>(index_.get(), spec_.exec_threads);
  if (spec_.wire) {
    spb::net::ServerOptions sopts;
    sopts.num_dispatchers = kServeDispatchers;
    server_ = std::make_unique<spb::net::Server>(exec_.get(), sopts);
    SPB_RETURN_IF_ERROR(server_->Start());
  }
  const uint64_t end = NowNs();
  server_start_s_ = Seconds(end - t3);
  setup_s_ = Seconds(end - start);
  if (spec_.wire) {
    for (size_t c = 0; c < Clients(spec_); ++c) {
      clients_.push_back(std::make_unique<spb::net::Client>());
      SPB_RETURN_IF_ERROR(
          clients_.back()->Connect("127.0.0.1", server_->port()));
    }
  }
  return Status::OK();
}

// Closed loop in passes. In every pass each client runs the same rounds on
// the same queries, so each of its operations (a slot) repeats once per
// pass. A pass is cut into segments; the clients meet at the end of each
// (EndSegment), and passes go on until the deadline has passed. Writes
// insert fresh held-out objects in every pass and delete the client's own
// earlier ones.
void Run::ClientLoop(size_t c) {
  const size_t half = NumQueries(spec_) / 2;
  const size_t knn_first = c * PerClientPass(spec_, Kind::kKnn);
  const size_t range_first = c * PerClientPass(spec_, Kind::kRange);
  const size_t per_segment = spec_.segment_rounds * spec_.round.size();
  const size_t per_pass = spec_.pass_segments * per_segment;
  // The last kSample held-out objects are left for the traced replay.
  const size_t per_client = (spec_.n_inserts - kSample) / Clients(spec_);
  ObjectId insert_next = ObjectId(spec_.n_base + c * per_client);
  const ObjectId insert_end = ObjectId(insert_next + per_client);
  std::deque<ObjectId> own;  // this client's live inserts, oldest first
  spb::net::Client* client = spec_.wire ? clients_[c].get() : nullptr;
  std::vector<OpRecord>& recs = records_[c];
  do {
    size_t knn_next = knn_first, range_next = range_first;
    for (size_t i = 0; i < per_pass; ++i) {
      if (i > 0 && i % per_segment == 0) segment_end_->arrive_and_wait();
      const Kind kind = spec_.round[i % spec_.round.size()];
      const uint32_t slot = uint32_t(c * per_pass + i);
      uint32_t target = 0;
      if (kind == Kind::kKnn) {
        target = uint32_t(knn_next++);
      } else if (kind == Kind::kRange) {
        target = uint32_t(half + range_next++);
      } else if (kind == Kind::kInsert) {
        if (insert_next == insert_end) {
          report_.Check("insert pool ran dry", "client loop");  // sized not to
          insert_next = ObjectId(insert_end - 1);
        }
        target = insert_next++;
      } else if (!own.empty()) {
        target = own.front();
        own.pop_front();
      } else {
        recs.push_back({kind, 0, slot, 0.0, {}});
        recs.back().result.status = Status::NotFound("no insert to delete");
        continue;
      }
      const Request req = MakeRequest(kind, target);
      if (spec_.cold) index_.get()->FlushCaches();
      OpRecord rec{kind, target, slot, 0.0, {}};
      const uint64_t t0 = NowNs();
      Do(MainPath(), client, req, &rec.result, &busy_[c]);
      rec.ms = double(NowNs() - t0) / 1e6;
      if (kind == Kind::kInsert && rec.result.status.ok()) {
        own.push_back(target);
      }
      // Storage grows with every write, so bytes_per_object is read after
      // a fixed number of them, not at the deadline: read there, it would
      // follow how many writes the run managed, i.e. its throughput.
      if (!IsRead(kind) && rec.result.status.ok() &&
          loop_writes_.fetch_add(1) + 1 == kBytesAtWrites) {
        stats_bytes_ = index_.get()->CollectStats();
        bytes_taken_ = true;
      }
      recs.push_back(std::move(rec));
    }
    segment_end_->arrive_and_wait();
  } while (more_passes_);
}

// Runs when the last client has finished a segment: keeps the segment's
// fastest time over the passes and runs one chunk of the write probe on
// read-only workloads. At the end of a pass it decides whether another pass
// starts.
void Run::EndSegment() {
  const uint64_t now = NowNs();
  const size_t seg = segments_done_++ % spec_.pass_segments;
  const uint64_t ns = now - segment_start_ns_;
  if (seg == segment_ns_.size()) {
    segment_ns_.push_back(ns);
  } else {
    segment_ns_[seg] = std::min(segment_ns_[seg], ns);
  }
  if (read_only_) ProbeChunk();
  if (seg + 1 == spec_.pass_segments) {
    // Another pass starts if at least half of it fits before the deadline,
    // so the loop lasts --seconds give or take half a pass.
    more_passes_ = now + (now - pass_start_ns_) / 2 < deadline_ns_;
    pass_start_ns_ = NowNs();
  }
  segment_start_ns_ = NowNs();
}

// Read-only workloads time writes with a probe spread over the loop: a
// burst of writes after it measured only the host's speed in that instant,
// and its median moved by a quarter between runs. After each segment the
// probe inserts the same kChunkInserts held-out objects and deletes them
// again, by direct calls on the index, while every client waits; so every
// read still sees the base set and is checked exactly. Over the wire these
// ~0.1 ms writes were mostly thread hand-offs, and their mean jumped by 40%
// between runs with where the threads ran. The inserts and the first half
// of the deletes are timed: two inserts to one delete, as in the mixed
// round.
void Run::ProbeChunk() {
  const spb::StatsSnapshot before = index_.get()->CollectStats();
  uint32_t slot = 0;
  for (Kind kind : {Kind::kInsert, Kind::kDelete}) {
    for (size_t i = 0; i < kChunkInserts; ++i) {
      const ObjectId id = ObjectId(spec_.n_base + i);
      OpResult res;
      uint64_t busy = 0;
      const uint64_t t0 = NowNs();
      Do(Path::kDirect, nullptr, MakeRequest(kind, id), &res, &busy);
      if (kind == Kind::kInsert || i < kChunkInserts / 2) {
        probe_write_ms_.push_back({slot++, double(NowNs() - t0) / 1e6});
      }
      ++report_.attempted;
      if (!res.status.ok()) ++report_.failed;
      Acknowledge(kind, id, res);
    }
  }
  const spb::StatsSnapshot after = index_.get()->CollectStats();
  probe_compdists_ +=
      after.distance_computations - before.distance_computations;
  probe_pa_ += after.page_accesses - before.page_accesses;
}

void Run::MainLoop() {
  const size_t clients = Clients(spec_);
  records_.assign(clients, {});
  busy_.assign(clients, 0);
  stats_before_ = index_.get()->CollectStats();
  arena_before_ = exec_->arena()->queue_stats();
  if (timing_) dist_before_ = timing_->totals();
  read_only_ = std::all_of(spec_.round.begin(), spec_.round.end(), IsRead);
  if (read_only_) {
    // Storage as set-up left it: reads do not change it, and the probe's
    // writes are not part of the workload.
    stats_bytes_ = stats_before_;
    bytes_taken_ = true;
  }
  segment_end_ = std::make_unique<std::barrier<SegmentEnd>>(
      std::ptrdiff_t(clients), SegmentEnd{this});
  spb::ContentionReset();
  const uint64_t start = NowNs();
  deadline_ns_ = start + uint64_t(seconds_ * 1e9);
  segment_start_ns_ = pass_start_ns_ = start;
  std::vector<std::thread> threads;
  for (size_t c = 0; c < clients; ++c) {
    threads.emplace_back([this, c] { ClientLoop(c); });
  }
  for (auto& t : threads) t.join();
  locks_ = spb::ContentionSnapshot();
  if (timing_) dist_after_ = timing_->totals();
  arena_after_ = exec_->arena()->queue_stats();
  stats_after_ = index_.get()->CollectStats();
  if (!bytes_taken_) {
    std::fprintf(stderr,
                 "note: only %llu loop writes were acknowledged "
                 "(bytes_per_object waits for %zu); it is read at the "
                 "deadline\n",
                 (unsigned long long)loop_writes_.load(), kBytesAtWrites);
    stats_bytes_ = stats_after_;
  }
  for (const auto& recs : records_) {
    for (const OpRecord& r : recs) {
      ++report_.attempted;
      if (!r.result.status.ok()) ++report_.failed;
    }
  }
}

// Every read of the loop against the scan. Reads of a loop without writes
// are checked exactly; reads that ran beside writers are checked by bounds:
// base objects are never deleted, so they bound the answer from one side,
// and base plus every insert issued bounds it from the other.
void Run::CheckLoop() {
  std::set<uint32_t> used;
  for (const auto& recs : records_) {
    for (const OpRecord& r : recs) {
      if (IsRead(r.kind)) used.insert(r.target);
    }
  }
  const std::vector<uint32_t> targets(used.begin(), used.end());
  const bool mixed = std::any_of(spec_.round.begin(), spec_.round.end(),
                                 [](Kind k) { return !IsRead(k); });
  std::vector<uint8_t> may(objects_.size(), 0);
  std::vector<ObjectId> base_ids, issued;
  for (ObjectId id = 0; id < spec_.n_base; ++id) {
    may[id] = 1;
    base_ids.push_back(id);
  }
  for (const auto& recs : records_) {
    for (const OpRecord& r : recs) {
      if (r.kind == Kind::kInsert) {
        may[r.target] = 1;
        issued.push_back(r.target);
      }
    }
  }
  // Base-only answers; with no writes in the loop they are the exact ones.
  Oracle base(ds_.metric.get(), &objects_);
  for (ObjectId id : base_ids) base.SetLive(id, true);
  std::map<uint32_t, std::vector<ObjectId>> range_expect;
  std::map<uint32_t, std::vector<double>> knn_upper, knn_lower;
  for (uint32_t t : targets) {
    range_expect[t];
    knn_upper[t];
    knn_lower[t];
  }
  const size_t half = NumQueries(spec_) / 2;
  ParallelFor(targets.size(), [&](size_t i) {
    const uint32_t t = targets[i];
    const Blob& q = queries_[t];
    if (t >= half) {
      range_expect.at(t) = base.Range(q, spec_.radius);
      return;
    }
    std::vector<double> upper = base.KnnDistances(q, spec_.k);
    if (mixed) {
      std::vector<double> lower =
          base.KnnDistancesOver(q, spec_.k, issued);
      lower.insert(lower.end(), upper.begin(), upper.end());
      std::sort(lower.begin(), lower.end());
      lower.resize(std::min(lower.size(), spec_.k));
      knn_lower.at(t) = std::move(lower);
    }
    knn_upper.at(t) = std::move(upper);
  });
  std::vector<const OpRecord*> reads;
  for (const auto& recs : records_) {
    for (const OpRecord& r : recs) {
      if (IsRead(r.kind) && r.result.status.ok()) reads.push_back(&r);
    }
  }
  std::vector<std::string> errs(reads.size());
  ParallelFor(reads.size(), [&](size_t i) {
    const OpRecord& r = *reads[i];
    const Blob& q = queries_[r.target];
    if (r.kind == Kind::kRange) {
      const std::vector<ObjectId>& expect = range_expect.at(r.target);
      errs[i] = mixed ? CheckRangeBounds(base, q, spec_.radius, expect, may,
                                         r.result.range_ids)
                      : CheckRange(expect, r.result.range_ids);
    } else {
      const std::vector<double>& upper = knn_upper.at(r.target);
      errs[i] = mixed ? CheckKnnBounds(base, q, upper, knn_lower.at(r.target),
                                       may, r.result.neighbors)
                      : CheckKnn(base, q, upper, r.result.neighbors);
    }
  });
  for (const std::string& e : errs) report_.Check(e, "loop read");
  // The loop's writes, in each client's order, update the benchmark's view.
  for (const auto& recs : records_) {
    for (const OpRecord& r : recs) {
      if (!IsRead(r.kind)) Acknowledge(r.kind, r.target, r.result);
    }
  }
}

// On a query sample, the wire answer equals the in-process Submit() answer
// (in-process workloads: Submit() equals the direct index call), and both
// equal the scan over the final live set.
void Run::CheckIdentity() {
  const size_t half = NumQueries(spec_) / 2;
  const Path other = spec_.wire ? Path::kSubmit : Path::kDirect;
  uint64_t busy = 0;
  for (size_t i = 0; i < 2 * kSample; ++i) {
    const Kind kind = i % 2 == 0 ? Kind::kKnn : Kind::kRange;
    const uint32_t t = uint32_t((i / 2) * (half / kSample) + (i % 2) * half);
    const Request req = MakeRequest(kind, t);
    OpResult a, b;
    Do(MainPath(), clients_.empty() ? nullptr : clients_[0].get(), req, &a,
       &busy);
    Do(other, nullptr, req, &b, &busy);
    if (!a.status.ok() || !b.status.ok()) {
      report_.Check(a.status.ok() ? b.status.ToString() : a.status.ToString(),
                    "identity sample");
      continue;
    }
    if (a.range_ids != b.range_ids || a.neighbors != b.neighbors) {
      report_.Check("answers differ between the two paths", "identity sample");
    }
    report_.Check(kind == Kind::kRange
                      ? CheckRange(oracle_->Range(req.obj, req.radius),
                                   a.range_ids)
                      : CheckKnn(*oracle_, req.obj,
                                 oracle_->KnnDistances(req.obj, req.k),
                                 a.neighbors),
                  "final state");
  }
}

// Traced run only: a sample of the workload's reads replayed three ways
// (over the wire, through Submit(), as direct MetricIndex calls), each
// after FlushCaches(), plus direct inserts and deletes of unused held-out
// objects; and the codec cost of the sample's own frames.
void Run::Replay() {
  const size_t half = NumQueries(spec_) / 2;
  spb::net::Client* client = clients_.empty() ? nullptr : clients_[0].get();
  std::vector<std::pair<Request, OpResult>> frames;
  uint64_t busy = 0;
  TimingDistance::Totals direct_dist;
  uint64_t direct_ns = 0;
  for (size_t i = 0; i < 2 * kSample; ++i) {
    const Kind kind = i % 2 == 0 ? Kind::kKnn : Kind::kRange;
    const uint32_t t = uint32_t((i / 2) * (half / kSample) +
                                half / kSample / 2 + (i % 2) * half);
    const Request req = MakeRequest(kind, t);
    OpResult res;
    for (Path p : {Path::kWire, Path::kSubmit, Path::kDirect}) {
      if (p == Path::kWire && client == nullptr) continue;
      index_.get()->FlushCaches();
      const spb::StatsSnapshot before = index_.get()->CollectStats();
      const TimingDistance::Totals d0 = timing_->totals();
      const uint64_t t0 = NowNs();
      Do(p, client, req, &res, &busy);
      const uint64_t t1 = NowNs();
      const char* name = p == Path::kWire     ? "wire"
                         : p == Path::kSubmit ? "submit"
                                              : "direct";
      spans_.Add(name, i, t0, t1);
      if (p != Path::kDirect) continue;
      spans_.Add(kind == Kind::kKnn ? "direct.knn" : "direct.range", i, t0, t1);
      const TimingDistance::Totals d = timing_->totals() - d0;
      direct_dist.calls += d.calls;
      direct_dist.timed_calls += d.timed_calls;
      direct_dist.timed_ns += d.timed_ns;
      direct_ns += t1 - t0;
      if (kind == Kind::kRange) {
        range_compdists_ += index_.get()->CollectStats().distance_computations -
                            before.distance_computations;
        range_results_ += res.range_ids.size();
      }
    }
    frames.push_back({req, res});
  }
  share_of_query_ = direct_ns == 0 ? 0.0
                                   : double(direct_dist.calls) *
                                         direct_dist.ns_per_call() /
                                         double(direct_ns);
  // Direct writes: held-out objects no client used (the tail of the pool).
  for (size_t i = 0; i < kSample; ++i) {
    const ObjectId id = ObjectId(objects_.size() - 1 - i);
    for (Kind kind : {Kind::kInsert, Kind::kDelete}) {
      OpResult res;
      index_.get()->FlushCaches();
      const uint64_t t0 = NowNs();
      Do(Path::kDirect, nullptr, MakeRequest(kind, id), &res, &busy);
      spans_.Add(kind == Kind::kInsert ? "direct.insert" : "direct.delete", i,
                 t0, NowNs());
      if (!res.status.ok()) {
        report_.Check(res.status.ToString(), "replay write");
      }
      Acknowledge(kind, id, res);
    }
  }
  // Codec: encode + decode of each sample op's request and reply frames.
  constexpr int kReps = 20;
  const uint64_t t0 = NowNs();
  for (int rep = 0; rep < kReps; ++rep) {
    for (const auto& [req, res] : frames) {
      const std::vector<Request> reqs{req};
      std::vector<uint8_t> buf;
      spb::net::EncodeRequestsPayload(reqs, &buf);
      std::vector<Request> decoded;
      report_.Check(spb::net::DecodeRequestsPayload(buf.data(), buf.size(),
                                                    &decoded)
                            .ok()
                        ? ""
                        : "request decode failed",
                    "codec");
      buf.clear();
      spb::net::EncodeResultsPayload(reqs, {res}, {}, &buf);
      std::vector<OpResult> results;
      spb::net::WireBatchStats ws;
      report_.Check(spb::net::DecodeResultsPayload(buf.data(), buf.size(),
                                                   &results, &ws)
                            .ok()
                        ? ""
                        : "reply decode failed",
                    "codec");
    }
  }
  codec_us_per_op_ =
      double(NowNs() - t0) / 1e3 / double(kReps * frames.size());
}

// Totals reached two ways, and the index's own integrity check.
void Run::CheckFinalState() {
  if (server_) {
    report_.Check(CheckTotal("server ops_executed vs acknowledged ops",
                             wire_acked_.load(),
                             server_->stats().ops_executed),
                  "totals");
  }
  const spb::StatsSnapshot s = index_.get()->CollectStats();
  report_.Check(CheckTotal("num_objects vs base + inserts - deletes",
                           spec_.n_base + acked_inserts_ - found_deletes_,
                           s.num_objects),
                "totals");
  report_.Check(CheckTotal("oracle live count vs num_objects",
                           oracle_->num_live(), s.num_objects),
                "totals");
  if (timing_) {
    report_.Check(
        CheckTotal("distance calls seen by the decorator vs index compdists",
                   dist_after_.calls - dist_before_.calls,
                   stats_after_.distance_computations -
                       stats_before_.distance_computations),
        "totals");
  }
  const Status st = index_.CheckIntegrity();
  report_.Check(st.ok() ? "" : st.ToString(), "CheckIntegrity");
}

// Closes the index and opens it again (WAL replay where the WAL is on).
// Every acknowledged insert must be present and every acknowledged delete
// absent; the object count must survive.
void Run::Reopen() {
  for (auto& c : clients_) c->Close();
  if (server_) server_->Stop();
  server_.reset();
  exec_.reset();
  if (!spec_.wal) {
    const Status s = index_.Save();
    report_.Check(s.ok() ? "" : s.ToString(), "save before reopen");
  }
  index_.Close();
  const spb::SpbTreeOptions opts = Options(spec_, dir_ + "/index");
  const uint64_t t0 = NowNs();
  Status s = spec_.shards > 1
                 ? spb::ShardedSpbTree::Open(opts.storage_dir, metric_, opts,
                                             &index_.sharded)
                 : spb::SpbTree::Open(opts.storage_dir, metric_, opts,
                                      &index_.tree);
  reopen_s_ = Seconds(NowNs() - t0);
  if (!s.ok()) {
    report_.Check(s.ToString(), "reopen");
    return;
  }
  report_.Check(CheckTotal("num_objects after reopen", oracle_->num_live(),
                           index_.get()->CollectStats().num_objects),
                "reopen");
  std::vector<std::pair<ObjectId, Kind>> writes(last_write_.begin(),
                                                last_write_.end());
  std::vector<std::string> errs(writes.size());
  ParallelFor(writes.size(), [&](size_t i) {
    std::vector<ObjectId> ids;
    const auto [id, kind] = writes[i];
    const Status q = index_.get()->RangeQuery(objects_[id], 0.0, &ids, nullptr);
    errs[i] = q.ok() ? CheckLookup(id, kind == Kind::kInsert, ids)
                     : q.ToString();
  });
  for (const std::string& e : errs) report_.Check(e, "reopen");
  s = index_.CheckIntegrity();
  report_.Check(s.ok() ? "" : s.ToString(), "CheckIntegrity after reopen");
}

void Run::Metrics() {
  std::vector<std::pair<uint32_t, double>> knn, range, writes;
  uint64_t loop_ops = 0, busy = 0;
  size_t loop_reads = 0;
  for (const auto& recs : records_) {
    for (const OpRecord& r : recs) {
      ++loop_ops;
      if (r.kind == Kind::kKnn) knn.push_back({r.slot, r.ms});
      if (r.kind == Kind::kRange) range.push_back({r.slot, r.ms});
      if (IsRead(r.kind)) ++loop_reads;
      if (!IsRead(r.kind)) writes.push_back({r.slot, r.ms});
    }
  }
  for (uint64_t b : busy_) busy += b;
  if (writes.empty()) writes = probe_write_ms_;
  const double n_reads = double(std::max<size_t>(1, loop_reads));
  const spb::StatsSnapshot& a = stats_before_;
  const spb::StatsSnapshot& b = stats_after_;
  // Throughput of a pass made of each segment's fastest repetition.
  const size_t passes = segments_done_ / spec_.pass_segments;
  const double pass_ops = double(loop_ops) / double(passes);
  uint64_t best_pass_ns = 0;
  for (uint64_t ns : segment_ns_) best_pass_ns += ns;
  const double ops_per_s = pass_ops / Seconds(best_pass_ns);
  const double knn_ms = MeanOfBest(knn);
  const double range_ms = MeanOfBest(range);
  const double write_ms = MeanOfBest(writes);
  const double live = double(std::max<uint64_t>(1, stats_bytes_.num_objects));
  if (!trace_) {
    report_.Add("setup_s", setup_s_, "s");
    report_.Add("ops_per_s", ops_per_s, "ops/s");
    report_.Add("knn_ms", knn_ms, "ms");
    report_.Add("range_ms", range_ms, "ms");
    report_.Add("write_ms", write_ms, "ms");
    report_.Add("compdists_per_query",
                double(b.distance_computations - a.distance_computations -
                       probe_compdists_) /
                    n_reads,
                "count");
    report_.Add("pa_per_query",
                double(b.page_accesses - a.page_accesses - probe_pa_) /
                    n_reads,
                "count");
    report_.Add("bytes_per_object", double(stats_bytes_.storage_bytes) / live,
                "B");
    return;
  }
  auto median_of = [&](const char* name) {
    std::vector<double> v;
    for (const auto& [op, us] : spans_.ByOp(name)) v.push_back(us);
    return Percentile(v, 0.5);
  };
  // Paired per operation: the same op's span on two paths.
  auto paired_gap = [&](const char* outer, const char* inner) {
    const auto o = spans_.ByOp(outer);
    const auto in = spans_.ByOp(inner);
    std::vector<double> gaps;
    for (size_t i = 0; i < o.size() && i < in.size(); ++i) {
      gaps.push_back(o[i].second - in[i].second);
    }
    return Percentile(gaps, 0.5);
  };
  const double per_op = 1.0 / double(std::max<uint64_t>(1, loop_ops));
  report_.Add("net.overhead_us",
              spec_.wire ? paired_gap("wire", "submit") : 0.0, "us");
  report_.Add("net.codec_us_per_op", codec_us_per_op_, "us");
  report_.Add("net.busy_replies", double(busy), "count");
  report_.Add("exec.submit_overhead_us", paired_gap("submit", "direct"), "us");
  report_.Add("exec.arena.parks",
              double(arena_after_.parks - arena_before_.parks) * per_op,
              "1/op");
  report_.Add("exec.arena.inline_drains",
              double(arena_after_.inline_drains - arena_before_.inline_drains) *
                  per_op,
              "1/op");
  for (const char* lock : {"arena.queue_mu", "exec.write_mu", "locator.model",
                           "node_cache.shard", "pool.shard", "shard.box",
                           "snapshot.admin", "write_queue.mu"}) {
    double wait_ms = 0, contended = 0;
    for (const spb::LockStatsSnapshot& l : locks_) {
      if (l.name == lock) {
        wait_ms = double(l.wait_ns) / 1e6;
        contended = double(l.contended);
      }
    }
    report_.Add(std::string("exec.lock_wait_ms.") + lock, wait_ms * per_op,
                "ms/op");
    report_.Add(std::string("exec.lock_contended.") + lock,
                contended * per_op, "1/op");
  }
  report_.Add("core.knn_us", median_of("direct.knn"), "us");
  report_.Add("core.range_us", median_of("direct.range"), "us");
  report_.Add("core.insert_us", median_of("direct.insert"), "us");
  report_.Add("core.delete_us", median_of("direct.delete"), "us");
  report_.Add("core.compdists_per_result",
              range_results_ == 0
                  ? 0.0
                  : double(range_compdists_) / double(range_results_),
              "count");
  const TimingDistance::Totals d = dist_after_ - dist_before_;
  report_.Add("metrics.calls_per_query",
              double(d.calls - probe_compdists_) / n_reads, "count");
  report_.Add("metrics.ns_per_call", d.ns_per_call(), "ns");
  report_.Add("metrics.share_of_query", share_of_query_, "ratio");
  report_.Add("metrics.cutoff_pruned_ratio",
              d.cutoff_calls == 0
                  ? 0.0
                  : double(d.cutoff_pruned) / double(d.cutoff_calls),
              "ratio");
  const double hits = double(b.cache_hits - a.cache_hits);
  const double misses = double(b.page_reads - a.page_reads);
  report_.Add("storage.pool_hit_ratio",
              hits + misses == 0 ? 0.0 : hits / (hits + misses), "ratio");
  report_.Add("storage.physical_reads_per_query",
              double(b.physical_reads - a.physical_reads) / n_reads, "count");
  const double issued = double(b.prefetch_issued - a.prefetch_issued);
  report_.Add("storage.prefetch_hit_ratio",
              issued == 0 ? 0.0
                          : double(b.prefetch_hits - a.prefetch_hits) / issued,
              "ratio");
  report_.Add("storage.coalesced_pages_per_query",
              double(b.coalesced_pages - a.coalesced_pages) / n_reads,
              "count");
  const double loop_writes = double(std::max<size_t>(
      1, loop_ops - loop_reads));
  report_.Add("storage.wal_fsyncs_per_write",
              double(b.wal_fsyncs - a.wal_fsyncs) / loop_writes, "count");
  const double groups = double(b.wal_groups - a.wal_groups);
  report_.Add("storage.wal_records_per_group",
              groups == 0 ? 0.0
                          : double(b.wal_next_lsn - a.wal_next_lsn) / groups,
              "count");
  report_.Add("storage.wq_max_group", double(b.wq_max_group), "count");
  report_.Add("storage.dead_bytes_per_object",
              double(stats_bytes_.dead_bytes) / live, "B");
  report_.Add("storage.compactions",
              double(b.wq_compactions - a.wq_compactions), "count");
  report_.Add("storage.reopen_s", reopen_s_, "s");
  report_.Add("setup.pivot_select_s", pivot_select_s_, "s");
  report_.Add("setup.bulk_load_s", bulk_load_s_, "s");
  report_.Add("setup.save_s", save_s_, "s");
  report_.Add("setup.server_start_s", server_start_s_, "s");
  report_.Add("trace.ops_per_s", ops_per_s, "ops/s");
  report_.Add("trace.knn_ms", knn_ms, "ms");
  report_.Add("trace.range_ms", range_ms, "ms");
  report_.Add("trace.write_ms", write_ms, "ms");
}

Report Run::Execute() {
  std::filesystem::remove_all(dir_);
  Generate();
  const Status s = Setup();
  if (!s.ok()) {
    report_.Check(s.ToString(), "setup");
    report_.attempted = 1;
    report_.failed = 1;
    return report_;
  }
  MainLoop();
  CheckLoop();
  if (trace_) Replay();
  CheckIdentity();
  CheckFinalState();
  if (spec_.on_disk) Reopen();
  Metrics();
  for (auto& c : clients_) c->Close();
  if (server_) server_->Stop();
  server_.reset();
  exec_.reset();
  index_.Close();
  std::filesystem::remove_all(dir_);
  return report_;
}

void PrintJson(const Report& r) {
  std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, "
              "\"metrics\": {",
              r.errors.empty() ? "true" : "false",
              (unsigned long long)r.attempted, (unsigned long long)r.failed);
  for (size_t i = 0; i < r.metrics.size(); ++i) {
    const Metric& m = r.metrics[i];
    const double v = std::isfinite(m.value) ? m.value : 0.0;
    std::printf("%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}",
                i == 0 ? "" : ", ", m.name.c_str(), v, m.unit.c_str());
  }
  std::printf("}}\n");
}

int Main(int argc, char** argv) {
  std::string workload, work_dir = ".bench_work";
  uint64_t seed = 1;
  double seconds = 30;  // BENCHMARK.json run_seconds
  int trace = 0;
  bool self_test = false;
  for (int i = 1; i < argc; ++i) {
    const std::string a = argv[i];
    const char* v = i + 1 < argc ? argv[i + 1] : nullptr;
    if (a == "--self-test") {
      self_test = true;
    } else if (v != nullptr && a == "--workload") {
      workload = v, ++i;
    } else if (v != nullptr && a == "--seed") {
      seed = std::strtoull(v, nullptr, 10), ++i;
    } else if (v != nullptr && a == "--seconds") {
      seconds = std::atof(v), ++i;
    } else if (v != nullptr && a == "--trace") {
      trace = std::atoi(v), ++i;
    } else if (v != nullptr && a == "--work-dir") {
      work_dir = v, ++i;
    } else {
      std::fprintf(stderr, "unknown argument %s\n", a.c_str());
      return 2;
    }
  }
  if (self_test) return SelfTest() ? 0 : 1;
  for (const Spec& spec : Specs()) {
    if (workload != spec.name) continue;
    if (!(seconds > 0) || (trace != 0 && trace != 1)) {
      std::fprintf(stderr, "bad --seconds or --trace\n");
      return 2;
    }
    Run run(spec, seed, seconds, trace == 1, work_dir + "/" + spec.name);
    const Report r = run.Execute();
    for (const std::string& e : r.errors) {
      std::fprintf(stderr, "CHECK FAILED %s\n", e.c_str());
    }
    PrintJson(r);
    return 0;
  }
  std::fprintf(stderr, "unknown workload '%s'\n", workload.c_str());
  return 2;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) { return perfbench::Main(argc, argv); }
