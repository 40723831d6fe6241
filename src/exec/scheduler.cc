#include "exec/scheduler.h"

#include <sys/resource.h>

#include <algorithm>
#include <atomic>
#include <cassert>
#include <deque>
#include <mutex>
#include <numeric>
#include <thread>
#include <utility>
#include <vector>

namespace mmjoin::exec {

namespace {

uint64_t CeilDiv(uint64_t a, uint64_t b) { return (a + b - 1) / b; }

/// Deterministic chain order for LPT seeding: largest first, ties broken by
/// (partition, begin) so construction never depends on container order.
bool ChainBefore(const MorselChain& a, const MorselChain& b) {
  if (a.cost != b.cost) return a.cost > b.cost;
  if (a.partition != b.partition) return a.partition < b.partition;
  return a.morsels.front().begin < b.morsels.front().begin;
}

}  // namespace

uint64_t ThreadFaults() {
  struct rusage ru;
#ifdef RUSAGE_THREAD
  if (getrusage(RUSAGE_THREAD, &ru) != 0) return 0;
#else
  if (getrusage(RUSAGE_SELF, &ru) != 0) return 0;
#endif
  return static_cast<uint64_t>(ru.ru_minflt) +
         static_cast<uint64_t>(ru.ru_majflt);
}

uint32_t EffectiveWorkers(uint32_t partitions, uint32_t max_threads) {
  uint32_t bound = max_threads;
  if (bound == 0) bound = std::max(1u, std::thread::hardware_concurrency());
  return std::max(1u, std::min(partitions, bound));
}

void ParallelFor(uint32_t units, uint32_t workers,
                 const std::function<void(uint32_t)>& fn) {
  std::atomic<uint32_t> next{0};
  const auto drain = [&] {
    for (uint32_t u; (u = next.fetch_add(1, std::memory_order_relaxed)) <
                     units;) {
      fn(u);
    }
  };
  const uint32_t spawned = std::max(1u, std::min(workers, units)) - 1;
  std::vector<std::thread> threads;
  threads.reserve(spawned);
  for (uint32_t t = 0; t < spawned; ++t) threads.emplace_back(drain);
  drain();
  for (std::thread& t : threads) t.join();
}

std::vector<MorselChain> BuildChains(const std::vector<uint64_t>& counts,
                                     const SchedulerOptions& options,
                                     bool independent) {
  const uint64_t d = counts.size();
  const uint64_t total =
      std::accumulate(counts.begin(), counts.end(), uint64_t{0});
  const uint64_t mean = std::max<uint64_t>(1, d ? total / d : 0);
  const uint64_t threshold = kDefaultSkewSplitFactor * mean;
  const uint64_t base_morsel = std::max<uint64_t>(1, options.morsel_tuples);
  const uint64_t workers = std::max<uint32_t>(1, options.workers);
  const uint64_t hot_units = workers * kDefaultSkewSplitFactor;

  std::vector<MorselChain> chains;
  chains.reserve(d);
  for (uint32_t i = 0; i < d; ++i) {
    const uint64_t n = counts[i];
    uint64_t morsel = base_morsel;
    if (n > threshold) {
      // Hot partition: over-split so it decomposes into at least
      // workers * kDefaultSkewSplitFactor units.
      morsel = std::min(morsel, std::max<uint64_t>(1, CeilDiv(n, hot_units)));
    }
    std::vector<Morsel> morsels;
    if (n == 0) {
      // Epilogues (flushes, drops) still need one body invocation.
      morsels.push_back(Morsel{i, 0, 0});
    } else {
      morsels.reserve(static_cast<size_t>(CeilDiv(n, morsel)));
      for (uint64_t b = 0; b < n; b += morsel) {
        morsels.push_back(Morsel{i, b, std::min(n, b + morsel)});
      }
    }
    if (independent) {
      for (const Morsel& m : morsels) {
        chains.push_back(MorselChain{
            i, std::max<uint64_t>(1, m.end - m.begin), kAnyNode, {m}});
      }
    } else {
      chains.push_back(MorselChain{i, std::max<uint64_t>(1, n), kAnyNode,
                                   std::move(morsels)});
    }
  }
  return chains;
}

WorkStealingScheduler::WorkStealingScheduler(const SchedulerOptions& options,
                                             ClockFn clock)
    : options_(options), clock_(std::move(clock)) {}

void WorkStealingScheduler::Run(std::vector<MorselChain> chains,
                                const MorselFn& body, const ChainFn& on_chain) {
  const uint32_t w = std::max<uint32_t>(1, options_.workers);
  stats_.assign(w, WorkerRunStats{});

  std::sort(chains.begin(), chains.end(), ChainBefore);

  if (w == 1 || chains.size() <= 1) {
    // Inline on the calling thread; still one chain at a time, in order.
    WorkerRunStats& st = stats_[0];
    for (const MorselChain& c : chains) {
      if (on_chain) on_chain(0, c, /*stolen=*/false);
      ++st.chains;
      for (const Morsel& m : c.morsels) {
        body(0, m);
        ++st.morsels;
      }
    }
    st.done_ms = clock_();
    return;
  }

  // LPT seeding: deal each chain (largest first) to the least-loaded deque.
  // A node-tagged chain (with worker_node populated) restricts the search
  // to that node's workers; if no worker lives on the chain's node, the
  // deal falls back to the global least-loaded deque.
  const bool affine = options_.worker_node.size() >= w;
  std::vector<std::deque<MorselChain*>> deques(w);
  std::vector<uint64_t> pending(w, 0);
  for (MorselChain& c : chains) {
    uint32_t target = w;
    if (affine && c.node != kAnyNode) {
      for (uint32_t v = 0; v < w; ++v) {
        if (options_.worker_node[v] != c.node) continue;
        if (target == w || pending[v] < pending[target]) target = v;
      }
    }
    if (target == w) {
      target = 0;
      for (uint32_t v = 1; v < w; ++v) {
        if (pending[v] < pending[target]) target = v;
      }
    }
    deques[target].push_back(&c);
    pending[target] += c.cost;
  }

  // One coarse lock over all deques: pops are O(1) and morsels are big, so
  // contention is noise, and a single lock keeps the steal path (scan for
  // the busiest victim + pop) trivially race-free under TSan.
  std::mutex mu;

  auto worker = [&](uint32_t self) {
    WorkerRunStats& st = stats_[self];
    for (;;) {
      MorselChain* c = nullptr;
      bool stolen = false;
      {
        std::lock_guard<std::mutex> lock(mu);
        if (!deques[self].empty()) {
          c = deques[self].front();
          deques[self].pop_front();
          pending[self] -= c->cost;
        } else {
          // Steal from the busiest victim (largest pending cost; lowest
          // index on ties), from the opposite end of its deque. Under
          // affinity, a same-node victim always beats a cross-node one;
          // cross-node steals remain the fallback so no worker idles
          // while any deque holds work.
          uint32_t victim = w;
          bool victim_same = false;
          for (uint32_t v = 0; v < w; ++v) {
            if (v == self || deques[v].empty()) continue;
            const bool same =
                affine && options_.worker_node[v] == options_.worker_node[self];
            if (victim == w || (same && !victim_same) ||
                (same == victim_same && pending[v] > pending[victim])) {
              victim = v;
              victim_same = same;
            }
          }
          if (victim != w) {
            c = deques[victim].back();
            deques[victim].pop_back();
            pending[victim] -= c->cost;
            stolen = true;
            ++st.steals;
          } else {
            ++st.steal_failures;
          }
        }
      }
      if (c == nullptr) break;  // every deque empty: no work can appear
      if (on_chain) on_chain(self, *c, stolen);
      ++st.chains;
      for (const Morsel& m : c->morsels) {
        body(self, m);
        ++st.morsels;
      }
    }
    st.done_ms = clock_();
  };

  std::vector<std::thread> threads;
  threads.reserve(w);
  for (uint32_t t = 0; t < w; ++t) {
    threads.emplace_back([&worker, t, this] {
      if (options_.worker_start) options_.worker_start(t);
      const uint64_t faults_at_start = ThreadFaults();
      worker(t);
      stats_[t].faults = ThreadFaults() - faults_at_start;
    });
  }
  for (auto& th : threads) th.join();

  const double join_ms = clock_();
  for (WorkerRunStats& st : stats_) {
    st.idle_ms = std::max(0.0, join_ms - st.done_ms);
  }
}

const char* PriorityName(QueryPriority p) {
  switch (p) {
    case QueryPriority::kLow:
      return "low";
    case QueryPriority::kNormal:
      return "normal";
    case QueryPriority::kHigh:
      return "high";
  }
  return "?";
}

SharedWorkerPool::SharedWorkerPool(uint32_t workers)
    : workers_(std::max<uint32_t>(1, workers)) {
  threads_.reserve(workers_);
  for (uint32_t t = 0; t < workers_; ++t) {
    threads_.emplace_back([this, t] { WorkerLoop(t); });
  }
}

SharedWorkerPool::~SharedWorkerPool() { Shutdown(); }

void SharedWorkerPool::Shutdown() {
  {
    std::lock_guard<std::mutex> lock(mu_);
    if (stop_) return;
    stop_ = true;
  }
  work_cv_.notify_all();
  for (auto& th : threads_) th.join();
  threads_.clear();
}

uint32_t SharedWorkerPool::active_sets() const {
  std::lock_guard<std::mutex> lock(mu_);
  return static_cast<uint32_t>(active_.size());
}

uint64_t SharedWorkerPool::total_sets() const {
  std::lock_guard<std::mutex> lock(mu_);
  return total_sets_;
}

SharedWorkerPool::Submission* SharedWorkerPool::PickSubmission() {
  const size_t n = active_.size();
  if (n == 0) return nullptr;
  // Weighted round robin over the active submissions: the cursor
  // submission keeps receiving morsel picks until its turn budget
  // (= its priority weight) is spent, then the cursor advances to the
  // next submission with a runnable chain. turn_left_ belongs to the
  // pool, not the submission, so submissions entering and leaving never
  // carry stale budgets.
  for (size_t scanned = 0; scanned < n; ++scanned) {
    const size_t idx = (cursor_ + scanned) % n;
    Submission* sub = active_[idx];
    if (sub->runnable.empty()) continue;
    if (scanned != 0) {
      cursor_ = idx;
      turn_left_ = sub->weight;
    }
    if (turn_left_ == 0) turn_left_ = sub->weight;  // fresh turn
    --turn_left_;
    if (turn_left_ == 0) cursor_ = (idx + 1) % n;
    return sub;
  }
  return nullptr;
}

void SharedWorkerPool::WorkerLoop(uint32_t self) {
  std::unique_lock<std::mutex> lock(mu_);
  for (;;) {
    Submission* sub = PickSubmission();
    if (sub == nullptr) {
      if (stop_) return;
      work_cv_.wait(lock);
      continue;
    }
    const size_t ci = sub->runnable.front();
    sub->runnable.pop_front();
    ChainState& cs = sub->state[ci];
    const MorselChain& chain = sub->chains[ci];
    const Morsel& m = chain.morsels[cs.next_morsel];
    const bool fresh = !cs.started;
    const bool handoff = cs.started && cs.last_worker != self;
    cs.started = true;
    WorkerRunStats& st = sub->stats[self];
    if (fresh) ++st.chains;
    if (handoff) ++st.steals;
    const MorselFn* body = sub->body;
    const ChainFn* on_chain = sub->on_chain;
    lock.unlock();

    const uint64_t faults_before = ThreadFaults();
    if (on_chain != nullptr && *on_chain && (fresh || handoff)) {
      (*on_chain)(self, chain, handoff);
    }
    (*body)(self, m);
    const uint64_t fault_delta = ThreadFaults() - faults_before;

    lock.lock();
    // All submission state is updated BEFORE the completion decrement:
    // once morsels_left hits 0 the submitter wakes, reclaims the
    // Submission (it lives on RunChainSet's stack) and `sub` dangles.
    st.faults += fault_delta;
    ++st.morsels;
    ++cs.next_morsel;
    cs.last_worker = self;
    if (cs.next_morsel < chain.morsels.size()) {
      // The chain re-enters its runnable queue: one morsel at a time is
      // exactly what lets another query's morsel slot in between — and
      // the re-queue under mu_ is what hands the next owner
      // happens-before over this morsel's writes.
      sub->runnable.push_back(ci);
      work_cv_.notify_one();
    }
    if (--sub->morsels_left == 0) {
      sub->done = true;
      done_cv_.notify_all();
    }
  }
}

void SharedWorkerPool::RunChainSet(std::vector<MorselChain> chains,
                                   const MorselFn& body,
                                   const ChainFn& on_chain,
                                   QueryPriority priority,
                                   std::vector<WorkerRunStats>* stats) {
  if (stats != nullptr) stats->assign(workers_, WorkerRunStats{});
  if (chains.empty()) return;
  // LPT order: the longest chains sit at the front of the runnable queue,
  // so the pool's earliest picks go to the work most likely to straggle.
  std::sort(chains.begin(), chains.end(), ChainBefore);

  Submission sub;
  sub.chains = std::move(chains);
  sub.state.resize(sub.chains.size());
  for (size_t i = 0; i < sub.chains.size(); ++i) {
    sub.runnable.push_back(i);
    sub.morsels_left += sub.chains[i].morsels.size();
  }
  sub.weight = PriorityWeight(priority);
  sub.body = &body;
  sub.on_chain = &on_chain;
  sub.stats.assign(workers_, WorkerRunStats{});

  std::unique_lock<std::mutex> lock(mu_);
  assert(!stop_ && "RunChainSet on a shut-down pool");
  active_.push_back(&sub);
  ++total_sets_;
  work_cv_.notify_all();
  done_cv_.wait(lock, [&sub] { return sub.done; });
  for (size_t i = 0; i < active_.size(); ++i) {
    if (active_[i] != &sub) continue;
    active_.erase(active_.begin() + static_cast<ptrdiff_t>(i));
    if (cursor_ > i) --cursor_;
    if (!active_.empty()) cursor_ %= active_.size();
    else cursor_ = 0;
    break;
  }
  lock.unlock();
  if (stats != nullptr) *stats = std::move(sub.stats);
}

}  // namespace mmjoin::exec
