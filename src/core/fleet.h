// Two-tier deployment: the paper's procedure "executes on a single data
// collector node (e.g., a base station or a cluster head)". FleetMonitor is
// the base-station tier above several cluster heads: each region runs its
// own DetectionPipeline over its own sensors, and the fleet level combines
// the regional diagnoses and cross-checks the learned environment models --
// regions observing the same phenomenon should converge to structurally
// similar M_C models, so a region whose model diverges from the fleet
// majority is flagged even if its own internal majority was compromised
// (a region-level mitigation of the paper's majority assumption).
//
// Regions are independent until the cross-region structural vote, so the
// fleet parallelizes across them (FleetConfig::threads), on one code path
// at every thread count: each region owns a shard, every pipeline call that
// can throw runs through it, and finish()/diagnose() fan per-region jobs
// out over the fleet's pool. Only the ingest handoff depends on the thread
// count. With one worker the pool runs its tasks inline and a record span
// or window is applied in place on the caller thread; with more, records
// are batched into the region's bounded FIFO and drained by a pool worker.
// Each region's pipeline is only ever touched by one thread at a time (the
// single-writer invariant; see docs/CONCURRENCY.md) and sees its input in
// the caller's order, so the FleetReport is bit-identical at any thread
// count.
//
// Fault isolation: one region's bad feed must not take the fleet down. Each
// region carries a health state (Healthy -> Degraded -> Quarantined,
// monotonic); a pipeline exception, a broken reader, or a malformed-rate
// breach quarantines that region -- its remaining input is dropped and
// counted, its captured error rides along in the FleetReport, and every
// other region ingests, finishes, and diagnoses exactly as if the sick
// region had never been added. ingest/drain/finish therefore never throw
// for data-dependent failures; caller misuse (unknown region, bad config)
// still throws. See docs/OBSERVABILITY.md for the health-state machine.

#pragma once

#include <cstdint>
#include <exception>
#include <map>
#include <memory>
#include <span>
#include <string>
#include <variant>
#include <vector>

#include "core/pipeline.h"
#include "trace/trace_io.h"
#include "util/status.h"

namespace sentinel {
class TraceReader;
}

namespace sentinel::util {
class Counter;
class Histogram;
class ThreadPool;
}  // namespace sentinel::util

namespace sentinel::core {

class CheckpointStore;

/// Centroid-matched structural similarity between two environment models:
/// every significant state of one model must have a state of the other
/// within `tol` (attribute distance), in both directions. State ids are
/// region-local, so matching is by attributes, not ids.
bool models_structurally_similar(const hmm::MarkovChain& a, const CentroidLookup& lookup_a,
                                 const hmm::MarkovChain& b, const CentroidLookup& lookup_b,
                                 double tol);

/// Region health lifecycle. Transitions are monotonic (a region never
/// recovers within a session -- its learned state is suspect once poisoned)
/// and are applied only on the caller thread, so the sequence of states is
/// deterministic at any FleetConfig::threads.
enum class RegionHealth {
  kHealthy,      // ingesting normally
  kDegraded,     // suspicious but still voting: elevated malformed rate, or
                 // silent (zero records) at finish()
  kQuarantined,  // excluded from diagnosis and the structural vote; further
                 // records dropped and counted
};

const char* to_string(RegionHealth h);

/// Everything the fleet knows about one region's condition. Plain data,
/// copied into FleetReport so a report outlives the monitor.
struct RegionState {
  RegionHealth health = RegionHealth::kHealthy;
  /// Why the region left kHealthy (ok while healthy).
  util::Status status;
  /// The captured pipeline/reader exception when one caused the transition;
  /// null for threshold-driven transitions. Message is attributed with the
  /// region name; rethrowable for callers that want the original type.
  std::exception_ptr error;
  /// Record accounting; a window counts at its sensor count. A record is
  /// ingested when handed to the region and moves to dropped if a pipeline
  /// failure discards it before it is applied, so once drained, ingested +
  /// dropped equals the records offered, at any thread count.
  std::size_t records_ingested = 0;  // accepted and not dropped
  std::size_t records_dropped = 0;   // offered to a quarantined region, or
                                     // in (or queued behind) a failed call
  /// Malformed-line causes accumulated from this region's readers.
  MalformedCounts malformed;
  std::size_t comment_lines = 0;
  /// Backpressure attribution (always 0 with one worker, which applies
  /// input in place and never queues): how many producer handoffs found
  /// this region's queue at capacity, and the total wall-clock the producer
  /// spent blocked in those waits. Purely observational -- timing-dependent,
  /// so never rendered into reports -- but it is what lets an admission
  /// controller (src/service) or an operator reading --metrics-json tell
  /// *which* tenant is saturating its shard and by how much.
  std::uint64_t backpressure_waits = 0;
  std::uint64_t backpressure_block_ns = 0;
};

struct FleetReport {
  /// Diagnoses of non-quarantined regions only: a quarantined region's
  /// learned state is suspect, so it neither reports nor votes.
  std::map<std::string, DiagnosisReport> regions;
  /// Regions whose pruned M_C disagrees (by centroid-matched structure) with
  /// the majority of the other non-quarantined regions.
  std::vector<std::string> structural_outliers;
  /// Worst verdict across non-quarantined regions (attack > error > normal).
  Verdict overall = Verdict::kNormal;
  /// Screen-tier statistics of regions whose pipelines screen
  /// (PipelineConfig::screen.mode != off). Empty for an all-off fleet, whose
  /// report therefore renders byte-identically to one predating the tier.
  std::map<std::string, screen::ScreenStats> screens;
  /// Health of every region, quarantined ones included (with their captured
  /// error), so one sick feed stays visible without poisoning the rest.
  std::map<std::string, RegionState> health;
};

std::string to_string(const FleetReport& r);

/// Thresholds for the data-quality health transitions.
struct RegionHealthConfig {
  /// Malformed-line rate (malformed / total lines seen) beyond which a
  /// region is marked Degraded / Quarantined during ingest(). Rates are only
  /// evaluated once min_lines_for_rate lines were seen, so a single early
  /// bad line cannot quarantine a region.
  double degraded_malformed_ratio = 0.05;
  double quarantine_malformed_ratio = 0.50;
  std::size_t min_lines_for_rate = 64;
  /// Mark regions that saw zero records Degraded at finish() -- a silent
  /// cluster head is a finding, not business as usual.
  bool flag_silent_regions = true;
};

struct FleetConfig {
  /// Attribute distance within which two regions' model states count as the
  /// same physical state during the cross-region structural check.
  double state_match_tol = 6.0;
  /// Pool workers for ingestion and diagnosis, shared by all regions; 0 =
  /// util::default_concurrency() (hardware threads capped by the CPU
  /// quota). With 1 the pool runs its tasks inline on the caller thread and
  /// every record span or window is applied in place; with N > 1 records
  /// are handed off in batches to per-region queues drained by the workers.
  /// Any value produces bit-identical FleetReports -- threads only changes
  /// wall-clock.
  std::size_t threads = 1;
  /// Per-region ingest queue bound (records; threads > 1). add_record and
  /// add_window block once a region's queue is this deep -- backpressure
  /// instead of unbounded memory when producers outrun the pipelines.
  /// Deeper queues cost memory (a queued record takes 16 B plus 8 B per
  /// attribute in its flat batch: 32 B at two attributes) but reduce
  /// producer stalls on oversubscribed machines.
  /// Backpressure is a documented-healthy state: the wait is counted
  /// (fleet.backpressure_waits), not a health transition.
  std::size_t max_queue_records = 16384;
  /// Producer-side batch (threads > 1): add_record copies records into the
  /// region's flat RecordBatch without the shard lock and hands the batch
  /// over once it holds `batch_records` records. The drain task clears each
  /// applied batch and returns it to the region, which starts its next
  /// batch in it, so a warm handoff allocates nothing. Per-record pipeline
  /// cost is tiny (real work happens once per closed window), so unbatched
  /// handoff would spend more on locking and worker wakeups than on
  /// detection. 1 = hand off every record immediately.
  std::size_t batch_records = 256;
  /// Health-transition thresholds (see RegionHealthConfig).
  RegionHealthConfig health;
  /// Directory for crash-consistent region checkpoints ("" = checkpointing
  /// off). Each region commits independently -- serialized state, temp file,
  /// fsync, atomic rename, then a manifest naming the last committed epoch
  /// per region. See core/checkpoint_store.h and docs/RELIABILITY.md.
  std::string checkpoint_dir;
  /// Commit a region's checkpoint after this many newly ingested records
  /// (0 = only on explicit checkpoint_now()). Smaller intervals shrink the
  /// replay tail after a crash but cost more commit I/O. The default is
  /// sized from the measured costs (docs/RELIABILITY.md): replaying a
  /// 262144-record tail takes tens of milliseconds at ingest speed, while
  /// each commit pays multiple fsync barriers -- so the interval is cheap
  /// to keep long and expensive to shorten.
  std::size_t checkpoint_every_records = 262144;
};

class FleetMonitor {
 public:
  explicit FleetMonitor(FleetConfig cfg);

  /// Default-config monitor (one worker); tol as in
  /// FleetConfig::state_match_tol.
  explicit FleetMonitor(double state_match_tol = 6.0);

  ~FleetMonitor();
  FleetMonitor(const FleetMonitor&) = delete;
  FleetMonitor& operator=(const FleetMonitor&) = delete;

  /// Create a region (cluster head). Throws if the name already exists.
  /// Not thread-safe against concurrent add_record: build the fleet first,
  /// then ingest.
  void add_region(const std::string& name, PipelineConfig cfg);

  /// Create a region restored from a pipeline checkpoint (see
  /// DetectionPipeline::save_checkpoint and docs/CONCURRENCY.md for the
  /// checkpoint format).
  void add_region(const std::string& name, PipelineConfig cfg, std::istream& checkpoint);

  /// Create a region restored from the fleet's checkpoint store (requires
  /// FleetConfig::checkpoint_dir; throws without one, or on a duplicate
  /// region). Returns the number of records the restored state already
  /// covers -- pass it as `skip_records` to ingest()/ingest_file() to replay
  /// only the trace tail. Falls back to a fresh add_region (returning 0)
  /// when the store has no manifest or no entry for this region. A torn or
  /// corrupt manifest/checkpoint returns a non-ok Status (kDataLoss) and
  /// creates nothing -- never a garbage region.
  util::Result<std::uint64_t> add_region_resumed(const std::string& name, PipelineConfig cfg);

  /// Route a record to its region's pipeline. Throws on unknown region
  /// (caller misuse); a record for a quarantined region is dropped and
  /// counted, never an error. A pipeline exception raised by this or
  /// earlier records quarantines the region instead of propagating. The
  /// ingestion API (add_record/ingest/drain/finish) is meant for one
  /// producer thread; the parallelism is the fleet's, across regions.
  void add_record(const std::string& region, const SensorRecord& rec);

  /// Bulk variant: one region lookup for the whole span. Prefer this when
  /// records arrive in per-region bursts (a cluster head uploading its
  /// backlog) -- per-record name resolution, not detection, dominates
  /// ingest cost at fleet scale.
  void add_records(const std::string& region, std::span<const SensorRecord> recs);

  /// Window-granular ingest for pre-aggregated feeds: a cluster head that
  /// windows locally and uploads one ObservationSet per closed window (the
  /// regime the screen tier is sized for -- per-record windowing cost would
  /// otherwise dominate the screened per-sensor cost). Bypasses the region's
  /// windower entirely; the window is processed as-is, so its rep arrays
  /// must already hold one representative per sensor, with rep_sums,
  /// rep_total and cached_mean filled as the windower fills them. A window
  /// whose arrays disagree in length makes process_window throw, which
  /// quarantines the region. Windows count toward records_ingested /
  /// backpressure / checkpoint cadence at weight rep_sensors.size(). Within
  /// a region, record spans and windows are applied in the order the caller
  /// hands them over, at any thread count. Quarantine/error semantics match
  /// add_record. One worker processes the window in place (no copy); more
  /// copy it into the region's queue.
  void add_window(const std::string& region, const ObservationSet& window);

  /// What ingest()/ingest_file() report back: how much arrived and the
  /// region's status afterwards (ok unless the feed degraded/quarantined
  /// the region).
  struct IngestSummary {
    std::size_t records = 0;  // records accepted into the region
    util::Status status;      // region status after this ingest
    /// Producer block time attributable to *this* ingest call: how long the
    /// caller sat in backpressure waits while feeding these records (0 with
    /// one worker, which applies records in place).
    std::uint64_t backpressure_block_ns = 0;
  };

  /// Streaming ingestion: pump `reader` dry into `region` in batches of
  /// `batch_records` (0 = TraceReader::kDefaultBatch). Memory is one batch
  /// plus the reader's own fixed read-ahead (for CSV, a few decoded chunks
  /// and the mapped pages behind them; see trace/trace_reader.h), whatever
  /// the trace size, and the records flow through the same add_records path
  /// as bulk ingestion, so the resulting FleetReport is byte-identical to
  /// reading the whole trace up front. Malformed lines are attributed to the
  /// region per cause; a malformed-rate breach or a non-ok reader status
  /// (truncation, mid-stream loss) transitions the region's health instead
  /// of throwing. The rate is checked after every batch against the
  /// reader's tallies, which equal a serial read's after every call, so a
  /// hostile feed is cut off at the same line at any thread count.
  /// `skip_records` fast-forwards the reader past records a restored
  /// checkpoint already covers (see add_region_resumed) before ingesting the
  /// tail; a trace shorter than the skip quarantines the region (its
  /// checkpoint describes data the trace no longer holds).
  IngestSummary ingest(const std::string& region, TraceReader& reader,
                       std::size_t batch_records = 0, std::size_t skip_records = 0);

  /// Open `path` (CSV or SNTRB1 by probe) and ingest it. A file that cannot
  /// even be opened as a trace (missing, garbage header) quarantines the
  /// region with the captured error -- the fleet keeps running.
  IngestSummary ingest_file(const std::string& region, const std::string& path,
                            std::size_t expected_dims = 0, std::size_t skip_records = 0);

  /// Block until every record and window handed to the fleet has been
  /// applied to its pipeline (already true with one worker, which applies
  /// input in place), and fold pipeline failures into the health records:
  /// a failure quarantines its region (error captured) rather than
  /// rethrowing.
  void drain() const;

  /// Flush all regions' partial windows, one pool job per region. Implies
  /// drain(). A finish()-time pipeline exception quarantines its region;
  /// silent regions are flagged per RegionHealthConfig::flag_silent_regions.
  void finish();

  /// Direct pipeline access. With threads > 1, call drain() first unless
  /// ingestion is quiescent -- a worker may still be applying records.
  DetectionPipeline& region(const std::string& name);
  const DetectionPipeline& region(const std::string& name) const;
  std::vector<std::string> region_names() const;

  /// Health record of one region (throws on unknown region) / all regions.
  const RegionState& region_health(const std::string& name) const;
  const std::map<std::string, RegionState>& health() const { return health_; }

  /// Commit a checkpoint for every non-quarantined region now, regardless
  /// of checkpoint_every_records (a quarantined pipeline's state is suspect
  /// and is never persisted), and block until the committer thread has
  /// pushed every commit to disk -- on return the store names these
  /// snapshots (or kept the previous epoch on failure). Commit failures are
  /// counted (fleet.checkpoint_failures), not thrown: the previous
  /// committed epoch still stands. No-op without a checkpoint_dir.
  void checkpoint_now();

  /// Combined fleet diagnosis. Drains first, then runs per-region
  /// diagnose()/correct_model() and the structural cross-check on the pool,
  /// quarantined regions excluded throughout. Deterministic: identical at
  /// any thread count, and healthy regions' entries are identical to a
  /// fleet that never contained the quarantined ones.
  FleetReport diagnose() const;

  /// A live diagnosis epoch: diagnose() plus a monotonic sequence number.
  struct FleetSnapshot {
    std::uint64_t epoch = 0;  // 1 for the first snapshot, then counting up
    FleetReport report;
  };

  /// Diagnose the fleet *without* finish()-style finalization: drains, then
  /// reads every live pipeline through const accessors only. No partial
  /// window is closed and no model is touched, so ingestion continues
  /// afterwards exactly as if the snapshot had never been taken -- the
  /// final finish() report is byte-identical to a never-snapshotted run
  /// (test-enforced). This is what a resident service answers REPORT
  /// requests from while tenants keep streaming.
  FleetSnapshot report_snapshot();

  /// Snapshots taken so far (the epoch of the last report_snapshot()).
  std::uint64_t snapshot_epoch() const { return snapshot_epoch_; }

  /// finish() for a single region: quiesce its shard, flush its partial
  /// window, and apply the silent-region check -- other regions keep
  /// ingesting untouched. Regions are independent until the structural
  /// vote, so finishing them one by one as their feeds end yields the same
  /// per-region diagnoses as one collective finish(). A finish()-time
  /// pipeline exception quarantines the region, as in finish().
  void finish_region(const std::string& name);

  /// Records currently queued for `region` (its shard queue plus the
  /// producer-side buffer); always 0 with one worker, which applies input
  /// in place. Producer-thread only, like the ingestion API: this is
  /// the admission-control probe -- a service front end rejects a tenant's
  /// frame (instead of blocking inside ingest) when the shard is already at
  /// FleetConfig::max_queue_records. Throws on unknown region.
  std::size_t queue_depth(const std::string& region) const;

  const FleetConfig& config() const { return cfg_; }

 private:
  struct Shard;      // per-region ingest shard (defined in fleet.cpp)
  struct Committer;  // checkpoint fsync/rename thread (defined in fleet.cpp)
  /// One unit of a shard's queue: a producer batch of records (flat, and
  /// recycled once applied), or a window.
  using QueueItem = std::variant<RecordBatch, ObservationSet>;

  void register_region(const std::string& name, DetectionPipeline& pipeline);
  Shard& shard_of(const std::string& name) const;  // throws on unknown region
  RegionState& state_of(const std::string& name) const;
  /// Account `weight` records offered to `region`: dropped when it is
  /// quarantined (returns null), else counted as ingested.
  Shard* admit(const std::string& region, std::size_t weight);
  /// threads > 1 handoff: hand the producer buffer / `item` to the shard's
  /// FIFO (blocking while it is full) and make sure a drain task is running.
  /// Behind a parked failure the input is dropped instead.
  void flush_shard(Shard& shard) const;
  void enqueue(Shard& shard, QueueItem item) const;
  void drain_shard(Shard& shard) const;
  /// Hand off `shard`'s buffer, wait until no drain task runs and its queue
  /// is empty, then absorb().
  void quiesce(Shard& shard) const;
  /// Fold the shard's parked failure and dropped count into its health
  /// record (caller thread only).
  void absorb(Shard& shard) const;
  /// Degrade a region that saw no records, per flag_silent_regions.
  void flag_if_silent(const std::string& name, RegionState& st) const;
  /// Commit the region's checkpoint when the interval since its last commit
  /// reached checkpoint_every_records.
  void maybe_checkpoint(Shard& shard);
  /// Quiesce the region's shard, snapshot its checkpoint bytes on this (the
  /// caller) thread, and hand them to the committer thread, which runs the
  /// store's fsync/rename commit protocol off the ingest path.
  void commit_region_checkpoint(Shard& shard);

  FleetConfig cfg_;
  std::map<std::string, DetectionPipeline> regions_;
  std::map<std::string, std::unique_ptr<Shard>> shards_;  // one per region
  std::unique_ptr<util::ThreadPool> pool_;
  std::unique_ptr<CheckpointStore> store_;  // null without checkpoint_dir
  /// Single dedicated thread owning every store commit; declared after
  /// store_ so its destructor drains the queue and joins while the store is
  /// still alive. Null without checkpoint_dir.
  std::unique_ptr<Committer> committer_;
  /// report_snapshot() sequence number. Caller thread only.
  std::uint64_t snapshot_epoch_ = 0;
  /// ingest()'s read buffer, kept across calls so a service that ingests
  /// one frame per call reuses its records' attribute storage. Caller
  /// thread only, like the rest of the ingestion API.
  std::vector<SensorRecord> ingest_buf_;

  /// Health records, keyed like regions_. Only the caller (producer) thread
  /// reads or writes these -- workers report through their Shard and the
  /// caller folds that in -- so transitions are deterministic and lock-free.
  /// Mutable: drain()/diagnose() are logically const but must be able to
  /// absorb worker faults discovered while quiescing.
  mutable std::map<std::string, RegionState> health_;

  // Fleet-level metric handles (process-global registry; resolved once).
  util::Counter* m_enqueued_ = nullptr;
  util::Counter* m_windows_ = nullptr;
  util::Counter* m_handoffs_ = nullptr;
  util::Counter* m_backpressure_ = nullptr;
  util::Counter* m_backpressure_ns_ = nullptr;
  util::Counter* m_snapshots_ = nullptr;
  util::Counter* m_drained_ = nullptr;
  util::Counter* m_drain_batches_ = nullptr;
  util::Counter* m_dropped_ = nullptr;
  util::Counter* m_ckpt_commits_ = nullptr;
  util::Counter* m_ckpt_failures_ = nullptr;
  util::Counter* m_ckpt_bytes_ = nullptr;
  util::Histogram* m_queue_depth_ = nullptr;
};

}  // namespace sentinel::core
