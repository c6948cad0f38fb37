#include "core/fleet.h"

#include <chrono>
#include <condition_variable>
#include <deque>
#include <future>
#include <mutex>
#include <sstream>
#include <stdexcept>
#include <thread>
#include <utility>

#include "core/checkpoint_store.h"
#include "trace/trace_reader.h"
#include "util/serialize.h"
#include "util/fault_test.h"
#include "util/metrics.h"
#include "util/thread_pool.h"
#include "util/vecn.h"

namespace sentinel::core {

namespace {

/// Every state of `a` has a counterpart in `b` within tol.
bool covered_by(const hmm::MarkovChain& a, const CentroidLookup& lookup_a,
                const hmm::MarkovChain& b, const CentroidLookup& lookup_b, double tol) {
  for (const auto id_a : a.states()) {
    const auto ca = lookup_a(id_a);
    if (!ca) return false;
    bool matched = false;
    for (const auto id_b : b.states()) {
      const auto cb = lookup_b(id_b);
      if (cb && vecn::dist(*ca, *cb) <= tol) {
        matched = true;
        break;
      }
    }
    if (!matched) return false;
  }
  return true;
}

int verdict_rank(Verdict v) {
  switch (v) {
    case Verdict::kNormal: return 0;
    case Verdict::kError: return 1;
    case Verdict::kAttack: return 2;
  }
  return 0;
}

/// Human-readable message of a captured exception, for attributed statuses.
std::string describe(const std::exception_ptr& e) {
  try {
    std::rethrow_exception(e);
  } catch (const std::exception& ex) {
    return ex.what();
  } catch (...) {
    return "unknown exception";
  }
}

// Health transitions. Caller thread only; monotonic, keeping the first cause.
void quarantine(RegionState& st, util::Status status, std::exception_ptr error) {
  if (st.health == RegionHealth::kQuarantined) return;
  st.health = RegionHealth::kQuarantined;
  st.status = std::move(status);
  st.error = std::move(error);
}

void degrade(RegionState& st, util::Status status) {
  if (st.health != RegionHealth::kHealthy) return;
  st.health = RegionHealth::kDegraded;
  st.status = std::move(status);
}

/// Run `job` on the shared pool, or, for a fleet that runs inline
/// (threads = 1), on the caller when it waits for the result.
template <typename F>
auto start_job(bool on_pool, F&& job) {
  if (on_pool) return util::ThreadPool::shared().submit(std::forward<F>(job));
  return std::async(std::launch::deferred, std::forward<F>(job));
}

}  // namespace

bool models_structurally_similar(const hmm::MarkovChain& a, const CentroidLookup& lookup_a,
                                 const hmm::MarkovChain& b, const CentroidLookup& lookup_b,
                                 double tol) {
  return covered_by(a, lookup_a, b, lookup_b, tol) && covered_by(b, lookup_b, a, lookup_a, tol);
}

const char* to_string(RegionHealth h) {
  switch (h) {
    case RegionHealth::kHealthy: return "healthy";
    case RegionHealth::kDegraded: return "degraded";
    case RegionHealth::kQuarantined: return "quarantined";
  }
  return "unknown";
}

std::string to_string(const FleetReport& r) {
  std::ostringstream os;
  os << "fleet: " << to_string(r.overall) << '\n';
  for (const auto& [name, report] : r.regions) {
    os << "[region " << name << "] " << to_string(report.network) << '\n';
    for (const auto& [id, d] : report.sensors) {
      os << "[region " << name << "] sensor " << id << ": " << to_string(d) << '\n';
    }
  }
  if (!r.structural_outliers.empty()) {
    os << "structural outliers:";
    for (const auto& name : r.structural_outliers) os << ' ' << name;
    os << '\n';
  }
  // Screen-tier lines only for regions that screen: an all-off fleet renders
  // byte-identically to a report predating the tier.
  if (!r.screens.empty()) {
    os << "screen tier:\n";
    for (const auto& [name, s] : r.screens) {
      os << "[region " << name << "] escalated " << s.escalated << "/" << s.sensors
         << ", sensor-windows screened " << s.screened_windows << " escalated "
         << s.escalated_windows << ", trips chi2 " << s.chi2_trips << " runs "
         << s.runs_trips << ", edges +" << s.escalations << " -" << s.deescalations
         << '\n';
    }
  }
  // Health lines only when something is off: an all-healthy fleet renders
  // byte-identically to a report predating the health lifecycle.
  bool any_unhealthy = false;
  for (const auto& [name, st] : r.health) {
    if (st.health != RegionHealth::kHealthy) any_unhealthy = true;
  }
  if (any_unhealthy) {
    os << "region health:\n";
    for (const auto& [name, st] : r.health) {
      os << "[region " << name << "] " << to_string(st.health);
      if (!st.status.is_ok()) os << ": " << st.status.to_string();
      os << " (ingested " << st.records_ingested << ", dropped " << st.records_dropped;
      if (st.malformed.total() > 0) os << ", " << to_string(st.malformed);
      os << ")\n";
    }
  }
  return os.str();
}

/// Per-region shard; every region has one, and every thread count runs it
/// the same way. The producer appends records to producer_buf and hands
/// whole batches and windows to `queue` -- one FIFO, so they apply in the
/// caller's order -- and only the single drain task in flight (`draining`)
/// advances the pipeline: the single-writer invariant. At threads = 1 that
/// task runs inline on the caller at each handoff. Each pipeline call that
/// can throw goes through run(), which parks the first exception here and
/// refuses every later call; the producer folds both into the region's
/// health record where it quiesces the shard (absorb), so every health
/// transition happens on the caller thread, at the same point at any
/// thread count.
struct FleetMonitor::Shard {
  Shard(std::string region_name, DetectionPipeline& p, RegionState& s)
      : name(std::move(region_name)), pipeline(&p), state(&s) {}

  /// Records an item stands for: a batch's size, a window's sensor count.
  static std::size_t weight(const QueueItem& item) {
    const auto* batch = std::get_if<RecordBatch>(&item);
    return batch != nullptr ? batch->size() : std::get<ObservationSet>(item).rep_sensors.size();
  }

  /// Make one pipeline call (`what` names it in the status message) unless
  /// an earlier one failed. A throw is parked with the call's `weight`
  /// records counted as dropped -- the poisoned pipeline's exact progress is
  /// unknowable, so accounting is call-granular -- and every later call is
  /// refused, its `weight` counted as dropped too. Calls are the producer's
  /// batches and windows, which are the same at any thread count, and so is
  /// the split.
  template <typename Call>
  void run(const char* what, std::size_t weight, Call&& call) {
    // Only the pipeline's writer sets `error`, so it reads it unlocked.
    if (!error) {
      try {
        call();
        return;
      } catch (...) {
        std::lock_guard<std::mutex> lock(mu);
        error = std::current_exception();
        failed_call = what;
        dropped += weight;
        return;
      }
    }
    std::lock_guard<std::mutex> lock(mu);
    dropped += weight;
  }

  // Set at creation, or producer-thread-only.
  const std::string name;
  DetectionPipeline* const pipeline;
  RegionState* const state;                // the region's entry in health_
  std::uint64_t ckpt_anchor = 0;  // records_ingested at the last checkpoint
  RecordBatch producer_buf;       // records not yet handed off

  // Drain-task-only: the FIFO swapped out for applying. Its nodes outlive
  // each swap, so a warm drain allocates nothing.
  std::deque<QueueItem> applying;

  // Guarded by mu.
  std::mutex mu;
  std::condition_variable cv;     // queue shrank or drain task finished
  std::deque<QueueItem> queue;    // batches move in whole; drained FIFO
  std::size_t queue_records = 0;  // summed weight of `queue`, for backpressure
  bool draining = false;          // a drain task owns this shard's pipeline
  std::exception_ptr error;       // first pipeline failure, folded into health
  const char* failed_call = nullptr;
  std::size_t dropped = 0;        // records of the failed and refused calls
};

/// The checkpoint committer: a single dedicated thread that runs the
/// store's fsync/rename commit protocol so disk latency never blocks the
/// ingest (producer) thread. The producer serializes each snapshot itself
/// at a quiesced record boundary (commit_region_checkpoint) -- the bytes
/// crossing this queue are immutable, so the on-disk store always names a
/// checkpoint covering exactly the records the meta records. FIFO order
/// means epochs advance in enqueue order; the destructor drains whatever is
/// queued before joining, so fleet destruction implies full durability of
/// every snapshot taken.
struct FleetMonitor::Committer {
  struct Pending {
    std::string region;
    std::string bytes;  // serialized resumable checkpoint
    RegionCheckpointMeta meta;
  };

  explicit Committer(FleetMonitor& fleet) : fleet_(fleet), thread_([this] { run(); }) {}

  ~Committer() {
    {
      std::lock_guard<std::mutex> lk(mu);
      stop = true;
    }
    cv.notify_all();
    thread_.join();
  }

  void enqueue(Pending p) {
    {
      std::lock_guard<std::mutex> lk(mu);
      queue.push_back(std::move(p));
    }
    cv.notify_all();
  }

  /// Block until every enqueued commit has reached disk (or failed).
  void drain() {
    std::unique_lock<std::mutex> lk(mu);
    drained.wait(lk, [this] { return queue.empty() && !busy; });
  }

 private:
  void run() {
    std::unique_lock<std::mutex> lk(mu);
    for (;;) {
      cv.wait(lk, [this] { return stop || !queue.empty(); });
      if (queue.empty()) {
        if (stop) return;  // drained: nothing left to make durable
        continue;
      }
      Pending p = std::move(queue.front());
      queue.pop_front();
      busy = true;
      lk.unlock();
      const util::Status s = fleet_.store_->commit_region_bytes(p.region, p.bytes, p.meta);
      if (s.is_ok()) {
        fleet_.m_ckpt_commits_->inc();
        fleet_.m_ckpt_bytes_->add(p.meta.bytes);
      } else {
        // An I/O failure, not a region-health event: the previously
        // committed epoch still stands and detection continues.
        fleet_.m_ckpt_failures_->inc();
      }
      lk.lock();
      busy = false;
      if (queue.empty()) drained.notify_all();
    }
  }

  FleetMonitor& fleet_;
  std::mutex mu;
  std::condition_variable cv;       // work arrived or stop requested
  std::condition_variable drained;  // queue empty and no commit in flight
  std::deque<Pending> queue;
  bool stop = false;
  bool busy = false;  // a commit is between unlock and relock
  std::thread thread_;  // last member: starts only after the state above exists
};

FleetMonitor::FleetMonitor(FleetConfig cfg) : cfg_(cfg) {
  if (!(cfg_.state_match_tol > 0.0)) {
    throw std::invalid_argument("FleetMonitor: tolerance must be positive");
  }
  if (cfg_.max_queue_records == 0) {
    throw std::invalid_argument("FleetMonitor: max_queue_records must be >= 1");
  }
  const auto& h = cfg_.health;
  if (!(h.degraded_malformed_ratio >= 0.0) || !(h.quarantine_malformed_ratio >= 0.0) ||
      h.degraded_malformed_ratio > 1.0 || h.quarantine_malformed_ratio > 1.0 ||
      h.degraded_malformed_ratio > h.quarantine_malformed_ratio) {
    throw std::invalid_argument(
        "FleetMonitor: malformed ratios must satisfy 0 <= degraded <= quarantine <= 1");
  }
  // The shared pool has no worker thread on a 1-CPU quota, where every
  // fleet drains inline.
  if (cfg_.threads != 1 && util::ThreadPool::shared().runs_inline()) cfg_.threads = 1;
  if (!cfg_.checkpoint_dir.empty()) {
    store_ = std::make_unique<CheckpointStore>(cfg_.checkpoint_dir);
    committer_ = std::make_unique<Committer>(*this);
  }

  auto& reg = util::metrics();
  m_enqueued_ = &reg.counter("fleet.records_enqueued");
  m_windows_ = &reg.counter("fleet.windows_ingested");
  m_handoffs_ = &reg.counter("fleet.handoff_batches");
  m_backpressure_ = &reg.counter("fleet.backpressure_waits");
  m_backpressure_ns_ = &reg.counter("fleet.backpressure_block_ns");
  m_snapshots_ = &reg.counter("fleet.report_snapshots");
  m_drained_ = &reg.counter("fleet.records_drained");
  m_drain_batches_ = &reg.counter("fleet.drain_batches");
  m_dropped_ = &reg.counter("fleet.records_dropped_quarantined");
  m_ckpt_commits_ = &reg.counter("fleet.checkpoint_commits");
  m_ckpt_failures_ = &reg.counter("fleet.checkpoint_failures");
  m_ckpt_bytes_ = &reg.counter("fleet.checkpoint_bytes");
  m_queue_depth_ = &reg.histogram("fleet.queue_depth",
                                  util::Histogram::exponential_bounds(64, 2.0, 10));
}

FleetMonitor::FleetMonitor(double state_match_tol)
    : FleetMonitor([state_match_tol] {
        FleetConfig c;
        c.state_match_tol = state_match_tol;
        return c;
      }()) {}

// Members then destroy in reverse declaration order: committer_ first among
// the moving parts (drains queued checkpoint commits and joins while store_
// is still alive), then store_, then shards_ and regions_.
FleetMonitor::~FleetMonitor() {
  // The shared pool outlives the fleet: wait out every drain task still
  // queued or running on it, each of which applies its shard's queue and
  // returns its batches to the free list before it clears `draining`.
  for (const auto& [name, sh] : shards_) {
    std::unique_lock<std::mutex> lock(sh->mu);
    sh->cv.wait(lock, [&] { return !sh->draining; });
  }
}

void FleetMonitor::register_region(const std::string& name, DetectionPipeline& pipeline) {
  RegionState& st = health_.emplace(name, RegionState{}).first->second;
  shards_.emplace(name, std::make_unique<Shard>(name, pipeline, st));
}

void FleetMonitor::add_region(const std::string& name, PipelineConfig cfg) {
  const auto [it, inserted] = regions_.try_emplace(name, std::move(cfg));
  if (!inserted) throw std::invalid_argument("FleetMonitor: duplicate region " + name);
  register_region(name, it->second);
}

void FleetMonitor::add_region(const std::string& name, PipelineConfig cfg,
                              std::istream& checkpoint) {
  const auto [it, inserted] = regions_.try_emplace(name, std::move(cfg), checkpoint);
  if (!inserted) throw std::invalid_argument("FleetMonitor: duplicate region " + name);
  register_region(name, it->second);
}

util::Result<std::uint64_t> FleetMonitor::add_region_resumed(const std::string& name,
                                                             PipelineConfig cfg) {
  if (!store_) {
    throw std::invalid_argument("FleetMonitor: add_region_resumed requires checkpoint_dir");
  }
  if (regions_.count(name) > 0) {
    throw std::invalid_argument("FleetMonitor: duplicate region " + name);
  }
  auto manifest = store_->load_manifest();
  if (!manifest.is_ok()) {
    if (manifest.status().code() == util::StatusCode::kNotFound) {
      add_region(name, std::move(cfg));  // nothing ever committed: fresh start
      return std::uint64_t{0};
    }
    return manifest.status();  // torn/corrupt manifest: create nothing
  }
  const auto it = manifest->regions.find(name);
  if (it == manifest->regions.end()) {
    add_region(name, std::move(cfg));  // region never checkpointed: fresh start
    return std::uint64_t{0};
  }
  const RegionCheckpointMeta& meta = it->second;
  std::string bytes;
  if (util::Status s = store_->read_region(meta, bytes); !s.is_ok()) return s;
  std::istringstream checkpoint(bytes);
  try {
    add_region(name, std::move(cfg), checkpoint);
  } catch (const std::exception& e) {
    // Passed its checksum but the codec rejected it: config or format drift.
    // Nothing was inserted (the pipeline constructor threw), so surface as
    // data rather than leaving a half-restored region behind.
    return util::Status(util::StatusCode::kDataLoss,
                        "region " + name + ": checkpoint restore failed: " + e.what());
  }
  Shard& sh = shard_of(name);
  RegionState& st = *sh.state;
  st.health = meta.health;
  st.status = meta.status;
  st.records_ingested = meta.records_applied;
  st.records_dropped = meta.records_dropped;
  st.malformed = meta.malformed;
  st.comment_lines = meta.comment_lines;
  sh.ckpt_anchor = meta.records_applied;
  return std::uint64_t{meta.records_applied};
}

FleetMonitor::Shard& FleetMonitor::shard_of(const std::string& name) const {
  const auto it = shards_.find(name);
  if (it == shards_.end()) throw std::invalid_argument("FleetMonitor: unknown region " + name);
  return *it->second;
}

RegionState& FleetMonitor::state_of(const std::string& name) const {
  return *shard_of(name).state;
}

const RegionState& FleetMonitor::region_health(const std::string& name) const {
  return state_of(name);
}

void FleetMonitor::absorb(Shard& sh) const {
  std::exception_ptr err;
  const char* what = nullptr;
  std::size_t dropped = 0;
  {
    std::lock_guard<std::mutex> lock(sh.mu);
    err = sh.error;
    what = sh.failed_call;
    dropped = std::exchange(sh.dropped, 0);
  }
  RegionState& st = *sh.state;
  if (dropped > 0) {
    // Counted as ingested when handed to the shard; they never got applied.
    st.records_ingested -= dropped;
    st.records_dropped += dropped;
    m_dropped_->add(dropped);
  }
  if (err && st.health != RegionHealth::kQuarantined) {
    quarantine(st,
               util::Status(util::StatusCode::kInternal, "region " + sh.name + ": " + what +
                                                             " failed: " + describe(err)),
               err);
  }
}

FleetMonitor::Shard* FleetMonitor::admit(const std::string& region, std::size_t weight) {
  Shard& sh = shard_of(region);  // throws on unknown region
  RegionState& st = *sh.state;
  if (st.health == RegionHealth::kQuarantined) {
    st.records_dropped += weight;
    m_dropped_->add(weight);
    return nullptr;
  }
  st.records_ingested += weight;
  return &sh;
}

void FleetMonitor::add_record(const std::string& region, const SensorRecord& rec) {
  add_records(region, std::span<const SensorRecord>(&rec, 1));
}

void FleetMonitor::add_records(const std::string& region, std::span<const SensorRecord> recs) {
  if (recs.empty()) return;
  Shard* sh = admit(region, recs.size());
  if (sh == nullptr) return;
  if (sh->producer_buf.empty()) {
    // Start the next batch in the one a drain task recycled longest ago, if
    // one is back.
    std::lock_guard<std::mutex> lock(free_mu_);
    if (!free_batches_.empty()) {
      sh->producer_buf = std::move(free_batches_.front());
      free_batches_.pop_front();
    }
  }
  sh->producer_buf.append(recs);
  if (sh->producer_buf.size() >= kBatchRecords) flush_shard(*sh);
  maybe_checkpoint(*sh);
}

void FleetMonitor::add_window(const std::string& region, const ObservationSet& window) {
  const std::size_t weight = window.rep_sensors.size();
  Shard* sh = admit(region, weight);
  if (sh == nullptr) return;
  m_windows_->inc();
  flush_shard(*sh);  // buffered records go ahead of the window
  if (cfg_.threads == 1) {
    // The inline drain left the queue empty: process the window uncopied.
    sh->run("pipeline", weight, [&] { sh->pipeline->process_window(window); });
  } else {
    enqueue(*sh, window);
  }
  maybe_checkpoint(*sh);
}

void FleetMonitor::maybe_checkpoint(Shard& sh) {
  if (!store_ || cfg_.checkpoint_every_records == 0) return;
  if (sh.state->health == RegionHealth::kQuarantined) return;
  if (sh.state->records_ingested - sh.ckpt_anchor < cfg_.checkpoint_every_records) return;
  commit_region_checkpoint(sh);
}

void FleetMonitor::commit_region_checkpoint(Shard& sh) {
  SENTINEL_FAULT_POINT(util::fault::kCheckpointBegin);
  // Quiesce this region's shard first: the pipeline must be at a record
  // boundary and untouched by workers while it serializes (the single-writer
  // invariant), and a resumed run replays from exactly records_ingested.
  quiesce(sh);
  const RegionState& st = *sh.state;
  if (st.health == RegionHealth::kQuarantined) return;  // suspect state: never persisted
  Committer::Pending p;
  p.region = sh.name;
  p.meta.records_applied = st.records_ingested;
  p.meta.health = st.health;
  p.meta.status = st.status;
  p.meta.records_dropped = st.records_dropped;
  p.meta.malformed = st.malformed;
  p.meta.comment_lines = st.comment_lines;
  if (sh.pipeline->screens() != nullptr) {
    p.meta.escalated_sensors = sh.pipeline->screen_stats().escalated;
  }
  // Snapshot here, on the producer thread, while the region is quiescent:
  // the committer only ever sees immutable bytes, never the live pipeline.
  std::ostringstream os;
  sh.pipeline->save_checkpoint(os, serialize::Format::kBinary, CheckpointScope::kResumable);
  p.bytes = os.str();
  // Anchor advances at snapshot time, not commit time: the interval clock
  // restarts even if this commit later fails on disk (the next cadence
  // simply takes a fresh snapshot; the previous epoch still stands).
  sh.ckpt_anchor = st.records_ingested;
  committer_->enqueue(std::move(p));
}

void FleetMonitor::checkpoint_now() {
  if (!store_) return;
  for (auto& [name, sh] : shards_) commit_region_checkpoint(*sh);
  committer_->drain();  // on return the store names these snapshots
}

FleetMonitor::IngestSummary FleetMonitor::ingest(const std::string& region, TraceReader& reader,
                                                 std::size_t batch_records,
                                                 std::size_t skip_records) {
  if (batch_records == 0) batch_records = TraceReader::kDefaultBatch;
  RegionState& st = state_of(region);  // throws on unknown region
  IngestSummary sum;
  const MalformedCounts before = st.malformed;
  const std::size_t comment_base = st.comment_lines;
  std::vector<SensorRecord> batch;

  // Resume: fast-forward past the prefix the restored checkpoint already
  // covers. The reader's malformed/comment tallies over that prefix are
  // captured here and subtracted at the end -- the restored RegionState
  // already accounts for them -- while the rate check below keeps using the
  // reader's running totals plus `skipped`, so a resumed run condemns a bad
  // feed at exactly the same point an uninterrupted one would.
  std::size_t skipped = 0;
  MalformedCounts skip_malformed;
  std::size_t skip_comments = 0;
  if (skip_records > 0 && st.health != RegionHealth::kQuarantined) {
    try {
      skipped = reader.skip_records(skip_records);
    } catch (...) {
      const auto err = std::current_exception();
      quarantine(st,
                 util::Status(util::StatusCode::kDataLoss,
                              "region " + region + ": reader failed: " + describe(err)),
                 err);
    }
    skip_malformed = reader.malformed();
    skip_comments = reader.comment_lines();
    if (skipped < skip_records && st.health != RegionHealth::kQuarantined) {
      quarantine(st,
                 util::Status(util::StatusCode::kDataLoss,
                              "region " + region + ": trace shorter than its checkpoint: " +
                                  "resume skip wanted " + std::to_string(skip_records) +
                                  " records, trace held " + std::to_string(skipped)),
                 nullptr);
    }
  }
  for (;;) {
    if (st.health == RegionHealth::kQuarantined) break;
    std::size_t n = 0;
    try {
      n = reader.read_batch(batch, batch_records);
    } catch (...) {
      const auto err = std::current_exception();
      quarantine(st,
                 util::Status(util::StatusCode::kDataLoss,
                              "region " + region + ": reader failed: " + describe(err)),
                 err);
      break;
    }
    if (n > 0) {
      // Fold the reader's running tallies in *before* applying the records:
      // a checkpoint committed inside add_records must snapshot malformed /
      // comment accounting consistent with records_ingested, or a resumed
      // run under-counts the skipped prefix.
      st.malformed = before;
      st.malformed += reader.malformed() - skip_malformed;
      st.comment_lines = comment_base + (reader.comment_lines() - skip_comments);
      add_records(region, {batch.data(), n});
      sum.records += n;
      SENTINEL_FAULT_POINT(util::fault::kIngestBatch);
    }

    // Malformed-rate check per batch so a hostile feed is cut off early
    // instead of after millions of lines. Rates only count once the sample
    // is large enough to mean something. Checked even on the final empty
    // batch: a feed whose entire tail (or entirety) is malformed reaches
    // EOF with n == 0 and must still be condemned by rate, not merely
    // flagged as silent at finish().
    const std::size_t mal = reader.malformed().total();
    const std::size_t lines = skipped + sum.records + mal;
    if (mal > 0 && lines >= cfg_.health.min_lines_for_rate) {
      const double ratio = static_cast<double>(mal) / static_cast<double>(lines);
      if (ratio >= cfg_.health.quarantine_malformed_ratio) {
        quarantine(st,
                   util::Status(util::StatusCode::kDataLoss,
                                "region " + region + ": malformed-line rate too high: " +
                                    to_string(reader.malformed()) + " in " +
                                    std::to_string(lines) + " lines"),
                   nullptr);
        break;
      }
      if (ratio >= cfg_.health.degraded_malformed_ratio) {
        degrade(st,
                util::Status(util::StatusCode::kDataLoss,
                             "region " + region + ": elevated malformed-line rate: " +
                                 to_string(reader.malformed()) + " in " +
                                 std::to_string(lines) + " lines"));
      }
    }
    if (n == 0) break;
  }
  // A broken source (truncated binary payload, mid-stream read error) ends
  // the feed with a sticky reader status; the region's learned state only
  // covers an unknown prefix, so it stops voting.
  const util::Status rs = reader.status();
  if (!rs.is_ok() && st.health != RegionHealth::kQuarantined) {
    quarantine(st, util::Status(rs.code(), "region " + region + ": " + rs.message()),
               nullptr);
  }
  st.malformed = before;
  st.malformed += reader.malformed() - skip_malformed;
  st.comment_lines = comment_base + (reader.comment_lines() - skip_comments);
  sum.status = st.status;
  return sum;
}

FleetMonitor::IngestSummary FleetMonitor::ingest_file(const std::string& region,
                                                      const std::string& path,
                                                      std::size_t expected_dims,
                                                      std::size_t skip_records) {
  RegionState& st = state_of(region);  // unknown region: throw before touching the file
  std::unique_ptr<TraceReader> reader;
  try {
    reader = open_trace_reader(path, expected_dims);
  } catch (...) {
    const auto err = std::current_exception();
    quarantine(st,
               util::Status(util::StatusCode::kInvalidArgument,
                            "region " + region + ": cannot open trace: " + describe(err)),
               err);
    IngestSummary sum;
    sum.status = st.status;
    return sum;
  }
  return ingest(region, *reader, 0, skip_records);
}

void FleetMonitor::flush_shard(Shard& sh) const {
  if (sh.producer_buf.empty()) return;
  // Whole-batch handoff: the batch's columns move into the queue, and
  // add_records starts the next one in a batch a drain task recycled, so
  // each record is copied into memory the fleet already owns. The drain
  // side applies the batch as a single fused pass.
  enqueue(sh, std::move(sh.producer_buf));
  sh.producer_buf.clear();
}

void FleetMonitor::enqueue(Shard& sh, QueueItem item) const {
  const std::size_t weight = Shard::weight(item);
  bool start_drain = false;
  {
    std::unique_lock<std::mutex> lock(sh.mu);
    // Backpressure: block while the region's queue is at capacity (in
    // records). A full queue is a documented-healthy state (the producer
    // simply outran the pipeline), counted -- and the block attributed to
    // this region by duration -- so operators can size max_queue_records
    // and a service front end can bill the stall to the tenant that caused
    // it.
    if (sh.queue_records >= cfg_.max_queue_records) {
      m_backpressure_->inc();
      ++sh.state->backpressure_waits;
      const auto t0 = std::chrono::steady_clock::now();
      sh.cv.wait(lock, [&] { return sh.queue_records < cfg_.max_queue_records; });
      const auto blocked = static_cast<std::uint64_t>(
          std::chrono::duration_cast<std::chrono::nanoseconds>(
              std::chrono::steady_clock::now() - t0)
              .count());
      sh.state->backpressure_block_ns += blocked;
      m_backpressure_ns_->add(blocked);
    }
    sh.queue.push_back(std::move(item));
    sh.queue_records += weight;
    m_queue_depth_->record(sh.queue_records);
    start_drain = !std::exchange(sh.draining, true);
  }
  m_handoffs_->inc();
  m_enqueued_->add(weight);
  if (!start_drain) return;
  if (cfg_.threads == 1) {
    drain_shard(sh);
  } else {
    util::ThreadPool::shared().post([this, &sh] { drain_shard(sh); });
  }
}

void FleetMonitor::drain_shard(Shard& sh) const {
  for (;;) {
    std::size_t taken = 0;
    {
      std::lock_guard<std::mutex> lock(sh.mu);
      if (sh.queue.empty()) {
        sh.draining = false;
        sh.cv.notify_all();
        return;
      }
      sh.applying.swap(sh.queue);
      taken = std::exchange(sh.queue_records, 0);
    }
    sh.cv.notify_all();  // queue emptied; unblock backpressured producers
    // FIFO, so the pipeline sees record batches and windows in the caller's
    // order -- the same sequence, hence the same report, at any thread
    // count. Behind a failure run() refuses each item and counts it dropped:
    // the pipeline's state after a throw is unknown.
    for (const QueueItem& item : sh.applying) {
      sh.run("pipeline", Shard::weight(item), [&] {
        if (const auto* batch = std::get_if<RecordBatch>(&item)) {
          sh.pipeline->add_batch(*batch);
        } else {
          sh.pipeline->process_window(std::get<ObservationSet>(item));
        }
      });
    }
    {
      // The applied batches go back, emptied, for any region to refill.
      std::lock_guard<std::mutex> lock(free_mu_);
      for (QueueItem& item : sh.applying) {
        if (auto* batch = std::get_if<RecordBatch>(&item)) {
          batch->clear();
          free_batches_.push_back(std::move(*batch));
        }
      }
    }
    sh.applying.clear();
    m_drained_->add(taken);
    m_drain_batches_->inc();
    SENTINEL_FAULT_POINT(util::fault::kDrainBatch);
  }
}

void FleetMonitor::quiesce(Shard& sh) const {
  flush_shard(sh);
  {
    std::unique_lock<std::mutex> lock(sh.mu);
    sh.cv.wait(lock, [&] { return !sh.draining; });
  }
  absorb(sh);
}

void FleetMonitor::drain() const {
  // Quiesce every shard, then fold worker faults into the health records.
  // Even when one region is poisoned, the caller must be able to inspect
  // the healthy regions after drain() returns -- no worker still running,
  // no exception escaping. Flushing every shard first lets them drain in
  // parallel.
  for (const auto& [name, sh] : shards_) flush_shard(*sh);
  for (const auto& [name, sh] : shards_) quiesce(*sh);
}

void FleetMonitor::flag_if_silent(const std::string& name, RegionState& st) const {
  if (cfg_.health.flag_silent_regions && st.health == RegionHealth::kHealthy &&
      st.records_ingested == 0) {
    degrade(st, util::Status(util::StatusCode::kUnavailable,
                             "region " + name + ": no records ingested"));
  }
}

void FleetMonitor::finish() {
  drain();
  // Flush partial windows for live regions only; a quarantined pipeline's
  // state is suspect and is left untouched so healthy-region results match
  // a fleet that never contained it.
  std::vector<std::future<void>> jobs;
  for (const auto& [name, shard] : shards_) {
    if (shard->state->health == RegionHealth::kQuarantined) continue;
    jobs.push_back(start_job(cfg_.threads != 1, [&sh = *shard] {
      sh.run("finish", 0, [&] { sh.pipeline->finish(); });
    }));
  }
  for (auto& job : jobs) job.wait();
  // Fold outcomes in region-name order so the health transitions are
  // deterministic.
  for (const auto& [name, sh] : shards_) {
    absorb(*sh);
    flag_if_silent(name, *sh->state);
  }
}

FleetMonitor::FleetSnapshot FleetMonitor::report_snapshot() {
  // diagnose() drains, then reads each quiescent pipeline through const
  // accessors only -- no window closes, no model is finalized -- so the
  // fleet keeps ingesting afterwards as if the snapshot never happened.
  FleetSnapshot snap;
  snap.epoch = ++snapshot_epoch_;
  snap.report = diagnose();
  m_snapshots_->inc();
  return snap;
}

void FleetMonitor::finish_region(const std::string& name) {
  Shard& sh = shard_of(name);  // throws on unknown region
  quiesce(sh);
  if (sh.state->health != RegionHealth::kQuarantined) {
    sh.run("finish", 0, [&] { sh.pipeline->finish(); });
    absorb(sh);
  }
  flag_if_silent(name, *sh.state);
}

std::size_t FleetMonitor::queue_depth(const std::string& region) const {
  Shard& sh = shard_of(region);  // throws on unknown region
  const std::size_t buffered = sh.producer_buf.size();  // producer-thread-only
  std::lock_guard<std::mutex> lock(sh.mu);
  return sh.queue_records + buffered;
}

DetectionPipeline& FleetMonitor::region(const std::string& name) {
  return *shard_of(name).pipeline;
}

const DetectionPipeline& FleetMonitor::region(const std::string& name) const {
  return *shard_of(name).pipeline;
}

std::vector<std::string> FleetMonitor::region_names() const {
  std::vector<std::string> out;
  out.reserve(regions_.size());
  for (const auto& [name, pipeline] : regions_) out.push_back(name);
  return out;
}

FleetReport FleetMonitor::diagnose() const {
  drain();
  FleetReport fleet;
  fleet.health = health_;
  // Quarantined regions are out: they neither report nor vote, so the
  // remaining entries are identical to a fleet that never held them.
  std::vector<std::pair<const std::string*, const DetectionPipeline*>> live;
  live.reserve(regions_.size());
  for (const auto& [name, pipeline] : regions_) {
    if (state_of(name).health != RegionHealth::kQuarantined) {
      live.emplace_back(&name, &pipeline);
    }
  }

  // Per-region diagnoses, and cached pruned models, one pool job per
  // region. Each job reads one quiescent pipeline through const accessors
  // only, so jobs are independent; results are assembled in region-name
  // order, making the report identical at any thread count.
  struct RegionDiag {
    DiagnosisReport report;
    hmm::MarkovChain model;
  };
  std::vector<std::future<RegionDiag>> diags;
  diags.reserve(live.size());
  for (const auto& [name, pipeline] : live) {
    diags.push_back(start_job(cfg_.threads != 1, [pipeline] {
      return RegionDiag{pipeline->diagnose(), pipeline->correct_model()};
    }));
  }
  for (auto& job : diags) job.wait();
  std::map<std::string, hmm::MarkovChain> models;
  for (std::size_t i = 0; i < live.size(); ++i) {
    RegionDiag rd = diags[i].get();
    fleet.regions.emplace(*live[i].first, std::move(rd.report));
    models.emplace(*live[i].first, std::move(rd.model));
  }
  // Screen-tier stats of screening regions (cheap counter copies; the
  // pipelines are quiescent after drain()).
  for (const auto& [name, pipeline] : live) {
    if (pipeline->screens() != nullptr) {
      fleet.screens.emplace(*name, pipeline->screen_stats());
    }
  }
  for (const auto& [name, report] : fleet.regions) {
    if (verdict_rank(report.network.verdict) > verdict_rank(fleet.overall)) {
      fleet.overall = report.network.verdict;
    }
    for (const auto& [id, d] : report.sensors) {
      if (verdict_rank(d.verdict) > verdict_rank(fleet.overall)) fleet.overall = d.verdict;
    }
  }

  // Cross-region structural check: a region is an outlier when it disagrees
  // with more than half of the other live regions. One job per region; each
  // job compares its region's model against every other (the O(regions^2)
  // part).
  if (live.size() >= 3) {
    const auto is_outlier = [&](const std::string& name, const DetectionPipeline& pipeline) {
      std::size_t disagreements = 0, others = 0;
      for (const auto& [other_name, other] : live) {
        if (*other_name == name) continue;
        ++others;
        if (!models_structurally_similar(models.at(name), pipeline.centroid_lookup(),
                                         models.at(*other_name), other->centroid_lookup(),
                                         cfg_.state_match_tol)) {
          ++disagreements;
        }
      }
      return others > 0 && 2 * disagreements > others;
    };
    std::vector<std::future<bool>> votes;
    votes.reserve(live.size());
    for (const auto& [name, pipeline] : live) {
      votes.push_back(start_job(cfg_.threads != 1, [&is_outlier, name, pipeline] {
        return is_outlier(*name, *pipeline);
      }));
    }
    for (auto& job : votes) job.wait();
    for (std::size_t i = 0; i < live.size(); ++i) {
      if (votes[i].get()) fleet.structural_outliers.push_back(*live[i].first);
    }
  }
  return fleet;
}

void export_region_metrics(util::MetricsSnapshot& snap, const FleetMonitor& fleet) {
  for (const auto& [name, st] : fleet.health()) {
    const std::string prefix = "fleet.region." + name + ".";
    snap.add_counter(prefix + "records_ingested", st.records_ingested);
    snap.add_counter(prefix + "records_dropped", st.records_dropped);
    snap.add_counter(prefix + "malformed_lines", st.malformed.total());
    snap.add_counter(prefix + "backpressure_waits", st.backpressure_waits);
    snap.add_counter(prefix + "backpressure_block_ns", st.backpressure_block_ns);
    snap.add_counter(prefix + "health", static_cast<std::uint64_t>(st.health));
    if (st.health != RegionHealth::kQuarantined) {
      export_pipeline_metrics(snap, prefix, fleet.region(name));
    }
  }
}

}  // namespace sentinel::core
