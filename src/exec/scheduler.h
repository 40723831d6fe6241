// Morsel-driven work-stealing scheduling for the real-mmap backend.
//
// A partition-pass is decomposed into bounded-size *morsels* (tuple ranges)
// grouped into *chains*. A chain is the unit of scheduling: its morsels run
// in order, by exactly one worker at a time, which is what preserves the
// drivers' one-writer-per-target discipline — morsels of a partition-pass
// that share an output target (RP/RS bump cursors, per-partition driver
// state) always belong to one chain. Morsels whose bodies touch no shared
// target (pure probe loops such as nested-loops pass 1) may instead be
// emitted as independent single-morsel chains, letting one hot Zipf
// partition spread across every worker instead of serializing the pass.
//
// Scheduling: chains are dealt longest-first onto per-worker deques
// (classic LPT seeding); a worker pops its own deque from the front and,
// when empty, steals from the back of the deque of the *busiest* victim
// (largest pending estimated cost). The chain set is fixed up front —
// chains never spawn chains — so a worker whose own deque is empty and
// whose steal attempt finds every deque empty can exit: no further work
// can appear. Run() joins every worker before returning, giving callers
// the same barrier semantics as a plain spawn/join loop.
//
// Determinism: chain construction is a pure function of (counts, options),
// morsels within a chain run in order, and the join-output tallies the
// bodies feed are commutative sums — so output count and checksum are
// bit-identical regardless of worker count or steal interleaving. Only
// wall-clock timing and the steal/idle telemetry vary between runs.
// Shared pool (multi-query): SharedWorkerPool owns a persistent set of
// worker threads onto which any number of callers concurrently submit
// chain *sets* (one set per backend pass). Workers pick ONE morsel at a
// time, cycling over the active sets in weighted round-robin order
// (QueryPriority weights), so N in-flight queries interleave at morsel
// granularity on W threads instead of oversubscribing N*W threads. A
// chain is held by at most one worker while one of its morsels runs and
// re-enters its set's runnable queue afterwards (under the pool mutex,
// which gives the next morsel's owner happens-before over the previous
// one), preserving the one-owner-in-order chain rule — and therefore the
// drivers' determinism argument — across suspensions and worker handoffs.
// RunChainSet blocks the submitting thread until its set completes,
// keeping the same pass-barrier semantics as Run().
#ifndef MMJOIN_EXEC_SCHEDULER_H_
#define MMJOIN_EXEC_SCHEDULER_H_

#include <condition_variable>
#include <cstdint>
#include <deque>
#include <functional>
#include <mutex>
#include <thread>
#include <vector>

namespace mmjoin::exec {

/// Default morsel granularity: 16 Ki tuples (2 MiB of 128-byte objects) —
/// coarse enough that deque traffic is noise, fine enough that a hot
/// partition decomposes into many units.
inline constexpr uint64_t kDefaultMorselTuples = uint64_t{1} << 14;

/// Skew threshold/factor: a partition whose tuple count exceeds this many
/// times the mean is hot, and is over-split into at least workers times
/// this many morsels.
inline constexpr uint64_t kDefaultSkewSplitFactor = 4;

/// Worker threads a run over `partitions` partitions will use:
/// min(partitions, max_threads or hardware_concurrency); one worker runs
/// every chain inline on the calling thread. Shared by the real backend
/// and the adaptive planner's cost inputs so predicted and actual
/// parallelism never diverge.
uint32_t EffectiveWorkers(uint32_t partitions, uint32_t max_threads);

/// Runs fn(u) exactly once for every unit u in [0, units) on `workers`
/// threads — the caller plus workers-1 spawned ones (never more threads
/// than units) — handing units out through one atomic counter, and
/// returns once every unit has run and every spawned thread is joined.
/// For short fan-outs of independent units outside the join drivers: the
/// durable store's chunk checksum pass. Bodies
/// that fill per-unit slots need no further synchronization; the joins
/// order their writes before the caller's reads.
void ParallelFor(uint32_t units, uint32_t workers,
                 const std::function<void(uint32_t)>& fn);

/// Tunables of chain construction and the worker pool.
struct SchedulerOptions {
  uint32_t workers = 1;
  uint64_t morsel_tuples = kDefaultMorselTuples;
  /// NUMA home node per worker slot (empty = no affinity). When set (to
  /// `workers` entries), chains carrying a node tag are dealt to a worker
  /// of that node and stealing prefers same-node victims. Affinity shapes
  /// *placement only* — every chain still runs exactly once, so results
  /// are unchanged; only locality (and the steal telemetry) moves.
  std::vector<uint32_t> worker_node;
  /// Runs once on each *spawned* worker thread, before its first chain —
  /// the real backend uses it to pin the thread to its node's cpus. Never
  /// invoked on the inline (calling-thread) path.
  std::function<void(uint32_t)> worker_start;
};

/// One tuple range [begin, end) of one partition's pass work.
struct Morsel {
  uint32_t partition = 0;
  uint64_t begin = 0;
  uint64_t end = 0;
};

/// Sentinel node tag for chains with no NUMA affinity.
inline constexpr uint32_t kAnyNode = 0xffffffffu;

/// An ordered sequence of morsels executed by one worker at a time.
struct MorselChain {
  uint32_t partition = 0;
  uint64_t cost = 0;  ///< estimated work (tuples; >= 1 so LPT can order)
  /// Preferred NUMA node (kAnyNode = no preference). Only consulted when
  /// SchedulerOptions::worker_node is populated.
  uint32_t node = kAnyNode;
  std::vector<Morsel> morsels;
};

/// Per-worker telemetry of one Run(): written by the owning worker thread
/// during the run, read by the caller after the join.
struct WorkerRunStats {
  uint64_t chains = 0;
  uint64_t morsels = 0;
  uint64_t steals = 0;          ///< chains taken from another deque
  uint64_t steal_failures = 0;  ///< steal attempts that found every deque empty
  /// Page faults (minor + major) this worker's *spawned thread* incurred,
  /// from RUSAGE_THREAD deltas. Stays 0 on the inline (calling-thread)
  /// path — those faults are already covered by the caller's own thread
  /// counter, and recording them here too would double-count.
  uint64_t faults = 0;
  double done_ms = 0;  ///< clock when this worker ran out of work
  double idle_ms = 0;  ///< tail idle: time between done_ms and the join
};

/// Page faults (minor + major) of the calling thread, via
/// getrusage(RUSAGE_THREAD) — the per-thread counter whose deltas sum
/// exactly across concurrent threads, unlike the process-wide RUSAGE_SELF
/// (which made concurrent passes double-count). Falls back to RUSAGE_SELF
/// where RUSAGE_THREAD does not exist.
uint64_t ThreadFaults();

/// Splits per-partition tuple counts into morsel chains. Pure and
/// deterministic: depends only on (counts, options, independent).
///
/// - Every partition is covered by morsels [0, counts[i]) in order; a
///   zero-count partition still gets one empty morsel [0, 0) so per-
///   partition epilogues (flushes, segment drops) run exactly once.
/// - A partition whose count exceeds kDefaultSkewSplitFactor * mean(counts)
///   is *over-split*: its morsel size shrinks so the partition yields at
///   least workers * kDefaultSkewSplitFactor morsels (bounded below by 1
///   tuple).
/// - independent=false: one chain per partition (morsels share an output
///   target and stay chained to one owner).
///   independent=true: every morsel becomes its own single-morsel chain
///   (the body declared the ranges free of shared targets).
std::vector<MorselChain> BuildChains(const std::vector<uint64_t>& counts,
                                     const SchedulerOptions& options,
                                     bool independent);

/// The worker pool. Each Run() spawns `options.workers` threads, executes
/// every chain exactly once, and joins them all before returning (with one
/// worker or an empty chain set it runs inline on the calling thread).
class WorkStealingScheduler {
 public:
  /// body(worker, morsel): execute one morsel on the given worker slot.
  using MorselFn = std::function<void(uint32_t, const Morsel&)>;
  /// Called when a worker starts a chain; `stolen` marks a cross-deque take.
  using ChainFn = std::function<void(uint32_t, const MorselChain&, bool)>;
  /// Monotonic milliseconds, used for done/idle accounting. Must be
  /// thread-safe.
  using ClockFn = std::function<double()>;

  WorkStealingScheduler(const SchedulerOptions& options, ClockFn clock);

  /// Runs every chain exactly once; returns after all workers joined.
  /// `on_chain` may be null.
  void Run(std::vector<MorselChain> chains, const MorselFn& body,
           const ChainFn& on_chain = nullptr);

  /// Telemetry of the most recent Run(), one entry per worker.
  const std::vector<WorkerRunStats>& worker_stats() const { return stats_; }

 private:
  SchedulerOptions options_;
  ClockFn clock_;
  std::vector<WorkerRunStats> stats_;
};

/// Priority class of a chain-set submission on a SharedWorkerPool. The
/// classes are weights, not tiers: a `kHigh` query receives 4 morsel
/// picks for every 1 a `kLow` query receives, but every active query
/// keeps making progress — no class can starve another.
enum class QueryPriority : uint8_t {
  kLow = 0,
  kNormal = 1,
  kHigh = 2,
};

const char* PriorityName(QueryPriority p);

/// Morsel picks a submission receives per weighted-round-robin turn:
/// 1 / 2 / 4 for low / normal / high.
inline uint32_t PriorityWeight(QueryPriority p) {
  return uint32_t{1} << static_cast<uint8_t>(p);
}

/// A persistent worker pool shared by concurrent queries. Construction
/// spawns the workers; destruction (or Shutdown) drains nothing — callers
/// must not destroy the pool while a RunChainSet is in flight.
class SharedWorkerPool {
 public:
  using MorselFn = WorkStealingScheduler::MorselFn;
  using ChainFn = WorkStealingScheduler::ChainFn;

  explicit SharedWorkerPool(uint32_t workers);
  ~SharedWorkerPool();

  SharedWorkerPool(const SharedWorkerPool&) = delete;
  SharedWorkerPool& operator=(const SharedWorkerPool&) = delete;

  uint32_t workers() const { return workers_; }

  /// Executes every chain of the set exactly once on the pool's workers,
  /// interleaved at morsel granularity with concurrently submitted sets,
  /// and returns only when the whole set has completed (the same barrier
  /// semantics as WorkStealingScheduler::Run). `body(worker, morsel)`
  /// runs on pool worker threads with worker in [0, workers()); `on_chain`
  /// (may be null) fires when a worker picks up a chain it was not the
  /// previous owner of — `stolen` marks a mid-chain handoff. `stats`, if
  /// non-null, is resized to workers() and receives THIS submission's
  /// per-worker telemetry (morsels, chains, handoffs as steals, per-morsel
  /// RUSAGE_THREAD fault deltas).
  void RunChainSet(std::vector<MorselChain> chains, const MorselFn& body,
                   const ChainFn& on_chain, QueryPriority priority,
                   std::vector<WorkerRunStats>* stats);

  /// Joins the workers. Idempotent; implied by the destructor. Callers
  /// must have no RunChainSet in flight.
  void Shutdown();

  /// Chain sets currently submitted and not yet complete.
  uint32_t active_sets() const;
  /// Chain sets ever submitted (telemetry).
  uint64_t total_sets() const;

 private:
  struct ChainState {
    size_t next_morsel = 0;    ///< progress; morsels run in order
    uint32_t last_worker = 0;  ///< previous owner, for handoff telemetry
    bool started = false;
  };

  /// One RunChainSet in flight: its chains, the runnable queue (chain
  /// indices not currently held by a worker), and its priority weight.
  /// Lives on the submitting thread's stack; guarded by mu_.
  struct Submission {
    std::vector<MorselChain> chains;
    std::vector<ChainState> state;
    std::deque<size_t> runnable;
    uint64_t morsels_left = 0;  ///< includes morsels currently executing
    uint32_t weight = 1;
    const MorselFn* body = nullptr;
    const ChainFn* on_chain = nullptr;
    std::vector<WorkerRunStats> stats;
    bool done = false;
  };

  void WorkerLoop(uint32_t self);
  /// Picks the next (submission, chain) pair in weighted-round-robin
  /// order, or nullptr when no submission has a runnable chain. mu_ held.
  Submission* PickSubmission();

  uint32_t workers_;
  mutable std::mutex mu_;
  std::condition_variable work_cv_;  ///< workers wait for runnable chains
  std::condition_variable done_cv_;  ///< submitters wait for completion
  std::vector<Submission*> active_;  ///< submission list, WRR order
  size_t cursor_ = 0;                ///< WRR position within active_
  uint32_t turn_left_ = 0;  ///< morsel picks left in the cursor's turn
  uint64_t total_sets_ = 0;
  bool stop_ = false;
  std::vector<std::thread> threads_;
};

}  // namespace mmjoin::exec

#endif  // MMJOIN_EXEC_SCHEDULER_H_
