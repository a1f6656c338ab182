// Minimal blocking thread pool for the Monte Carlo sampling hot path.
//
// The pool owns `size() - 1` worker threads; the caller of `parallel_for`
// participates as a worker on its own job, so a pool of size 1 never spawns
// a thread and runs the body inline (the sequential path). Work is handed
// out as single indices from an atomic cursor — MC samples are coarse
// enough that per-index dispatch overhead is negligible, and it
// load-balances the uneven per-sample costs of partial-Bayesian replay.
//
// Multiple jobs may be IN FLIGHT AT ONCE: concurrent `parallel_for` callers
// (e.g. several serving replicas sharing the process-wide pool) each run
// their own job, and idle workers join whichever active job still has
// helper slots (oldest first). `max_workers` therefore partitions the pool:
// R replicas each submitting with max_workers = size()/R slice the workers
// between them instead of serializing behind one another.
//
// Determinism contract: the pool makes no ordering promises, so callers
// that need bit-identical results across thread counts must (a) give every
// index its own independent random stream and (b) write results into
// per-index slots, reducing them in a fixed order afterwards. Both MC
// predictive runners (bayes::mc_predict, core::Accelerator::predict) follow
// this pattern.
//
// Start placement: on Linux, worker i starts on the (i+1)-th allowed CPU
// after the CPU its creator runs on (worker_start_cpu), then gets its full
// affinity mask back — a start position, not a pin. The reason is a host
// property: a new thread starts on its creator's CPU, and where the
// cpuset's sched_load_balance is 0 the kernel does not rebalance running
// threads, so only wake-up placement can move a worker off that CPU. In
// the serving benchmark's process, 4-lane calibration on unplaced workers
// took one thread's time in 3 of 4 runs, and a third of it once placed.
#ifndef BNN_RUNTIME_THREAD_POOL_H
#define BNN_RUNTIME_THREAD_POOL_H

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <exception>
#include <functional>
#include <memory>
#include <mutex>
#include <thread>
#include <vector>

namespace bnn::runtime {

/// Resolves a thread-count knob: 0 means "auto" (hardware concurrency),
/// any positive value is taken literally. Throws on negative values.
int resolve_thread_count(int requested);

/// The CPU pool worker `worker` (0-based) starts on: the (worker + 1)-th CPU
/// after `creator_cpu` in `allowed` (ascending CPU ids), wrapping around,
/// so the first allowed.size() workers start on distinct CPUs. A creator CPU
/// outside the set counts from the first allowed CPU above it. -1 (stay
/// where the thread starts) when fewer than two CPUs are allowed.
int worker_start_cpu(const std::vector<int>& allowed, int creator_cpu, int worker);

/// Blocking fork-join pool. A pool is reusable across any number of
/// `parallel_for` jobs; constructing one is cheap but not free (it spawns
/// OS threads), so serving loops should reuse one pool — their own, or the
/// process-wide `shared_pool()` — instead of building one per call.
///
/// Thread-safety: `parallel_for` may be called from multiple threads
/// concurrently; the jobs run CONCURRENTLY, sharing the worker threads
/// (each job bounded by its own `max_workers` cap). It must NOT be called
/// from inside a running body (no nesting) — except for calls that take
/// the inline sequential path (`max_workers == 1`, `count <= 1`, or a
/// pool of size 1), which never touch the pool's scheduling state.
class ThreadPool {
 public:
  /// `num_threads` follows the resolve_thread_count convention (0 = auto).
  /// Workers start on the CPUs worker_start_cpu names (Linux only).
  explicit ThreadPool(int num_threads);
  ~ThreadPool();

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  /// Total workers including the calling thread of parallel_for.
  int size() const { return static_cast<int>(workers_.size()) + 1; }

  /// Runs body(i) for every i in [0, count), blocking until all indices
  /// have finished. Indices are claimed dynamically; every index runs
  /// exactly once. If any invocation throws, the remaining indices still
  /// run and the first exception is rethrown to the caller.
  ///
  /// `max_workers` caps how many workers (including the caller) touch this
  /// job: 0 means "all of them", 1 runs the job inline on the calling
  /// thread. The cap only changes scheduling, never results — callers
  /// honouring the determinism contract above get bit-identical output for
  /// every cap. This is how a shared, hardware-sized pool serves callers
  /// that ask for fewer threads (num_threads knobs), and how concurrent
  /// callers slice the pool between them (worker partitioning).
  void parallel_for(std::int64_t count, const std::function<void(std::int64_t)>& body,
                    int max_workers = 0);

 private:
  struct Job {
    const std::function<void(std::int64_t)>* body = nullptr;
    std::int64_t count = 0;
    std::atomic<std::int64_t> cursor{0};
    std::atomic<std::int64_t> done{0};
    std::atomic<int> helper_slots{0};  // how many non-caller workers may join
    std::mutex error_mutex;
    std::exception_ptr error;
  };

  void worker_loop();
  void chew(const std::shared_ptr<Job>& job);

  std::vector<std::thread> workers_;
  std::mutex mutex_;
  std::condition_variable work_ready_;
  std::condition_variable job_done_;
  std::vector<std::shared_ptr<Job>> active_;  // in-flight jobs, guarded by mutex_
  std::uint64_t generation_ = 0;              // bumped per new job, guarded by mutex_
  bool stop_ = false;                         // guarded by mutex_
};

/// Process-wide shared pool, sized to the hardware concurrency, created on
/// first use and alive until process exit. This is the default executor of
/// the Monte Carlo runners and the serving layer: reusing it across calls
/// avoids the thread spawn/join cost that per-call pools pay, which
/// dominates for serving workloads issuing many small-S requests.
/// Callers wanting fewer lanes pass `max_workers` to parallel_for instead
/// of building a smaller pool; concurrent callers (serving replicas) share
/// the workers, each within its own cap.
ThreadPool& shared_pool();

}  // namespace bnn::runtime

#endif  // BNN_RUNTIME_THREAD_POOL_H
