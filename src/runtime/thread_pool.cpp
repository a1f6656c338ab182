#include "runtime/thread_pool.h"

#include <algorithm>

#ifdef __linux__
#include <sched.h>
#endif

#include "util/check.h"

namespace bnn::runtime {

namespace {

// The calling thread's allowed CPUs, ascending (empty off Linux).
std::vector<int> allowed_cpus() {
  std::vector<int> cpus;
#ifdef __linux__
  cpu_set_t set;
  CPU_ZERO(&set);
  if (sched_getaffinity(0, sizeof(set), &set) == 0)
    for (int cpu = 0; cpu < CPU_SETSIZE; ++cpu)
      if (CPU_ISSET(cpu, &set)) cpus.push_back(cpu);
#endif
  return cpus;
}

int current_cpu() {
#ifdef __linux__
  return sched_getcpu();  // -1 on failure: counts from the lowest allowed CPU
#else
  return -1;
#endif
}

// Moves the calling thread onto `cpu` (-1: stays put), then gives it back
// the mask it had, so the kernel may still move it later.
void start_on(int cpu) {
#ifdef __linux__
  if (cpu < 0) return;
  cpu_set_t full;
  CPU_ZERO(&full);
  if (sched_getaffinity(0, sizeof(full), &full) != 0) return;
  cpu_set_t one;
  CPU_ZERO(&one);
  CPU_SET(cpu, &one);
  if (sched_setaffinity(0, sizeof(one), &one) == 0) sched_setaffinity(0, sizeof(full), &full);
#else
  (void)cpu;
#endif
}

}  // namespace

int resolve_thread_count(int requested) {
  util::require(requested >= 0, "thread pool: thread count must be >= 0 (0 = auto)");
  if (requested > 0) return requested;
  const unsigned hw = std::thread::hardware_concurrency();
  return hw == 0 ? 1 : static_cast<int>(hw);
}

int worker_start_cpu(const std::vector<int>& allowed, int creator_cpu, int worker) {
  util::require(worker >= 0, "thread pool: worker index must be >= 0");
  if (allowed.size() < 2) return -1;
  const auto after = static_cast<std::size_t>(
      std::upper_bound(allowed.begin(), allowed.end(), creator_cpu) - allowed.begin());
  return allowed[(after + static_cast<std::size_t>(worker)) % allowed.size()];
}

ThreadPool::ThreadPool(int num_threads) {
  const int resolved = resolve_thread_count(num_threads);
  const std::vector<int> allowed = allowed_cpus();
  const int creator = current_cpu();
  workers_.reserve(static_cast<std::size_t>(resolved - 1));
  for (int i = 0; i < resolved - 1; ++i)
    workers_.emplace_back([this, cpu = worker_start_cpu(allowed, creator, i)] {
      start_on(cpu);
      worker_loop();
    });
}

ThreadPool::~ThreadPool() {
  {
    std::lock_guard<std::mutex> lock(mutex_);
    stop_ = true;
  }
  work_ready_.notify_all();
  for (std::thread& worker : workers_) worker.join();
}

void ThreadPool::chew(const std::shared_ptr<Job>& job) {
  for (;;) {
    const std::int64_t index = job->cursor.fetch_add(1, std::memory_order_relaxed);
    if (index >= job->count) return;
    try {
      (*job->body)(index);
    } catch (...) {
      std::lock_guard<std::mutex> lock(job->error_mutex);
      if (!job->error) job->error = std::current_exception();
    }
    if (job->done.fetch_add(1, std::memory_order_acq_rel) + 1 == job->count) {
      std::lock_guard<std::mutex> lock(mutex_);
      job_done_.notify_all();
    }
  }
}

void ThreadPool::worker_loop() {
  std::uint64_t seen = 0;
  std::unique_lock<std::mutex> lock(mutex_);
  for (;;) {
    work_ready_.wait(lock, [this, seen] { return stop_ || generation_ != seen; });
    if (stop_) return;
    seen = generation_;
    // Scan the active jobs (oldest first) and help every one we can claim
    // a slot on. Helpers must hold one of a job's slots; a declined slot
    // leaves that job to its cap's worth of workers — that is how a capped
    // job (`max_workers`) shares a pool with concurrent submitters. After
    // chewing, rescan: the job list may have changed in the meantime.
    for (bool worked = true; worked;) {
      worked = false;
      for (std::size_t i = 0; i < active_.size(); ++i) {
        const std::shared_ptr<Job> job = active_[i];
        if (job->helper_slots.fetch_sub(1, std::memory_order_acq_rel) > 0) {
          lock.unlock();
          chew(job);
          lock.lock();
          worked = true;
          break;  // active_ may have changed while unlocked
        }
        job->helper_slots.fetch_add(1, std::memory_order_relaxed);
      }
    }
  }
}

void ThreadPool::parallel_for(std::int64_t count,
                              const std::function<void(std::int64_t)>& body,
                              int max_workers) {
  util::require(max_workers >= 0, "thread pool: max_workers must be >= 0 (0 = all)");
  if (count <= 0) return;

  const int cap = max_workers == 0 ? size() : std::min(max_workers, size());

  auto job = std::make_shared<Job>();
  job->body = &body;
  job->count = count;
  // Never wake more helpers than there are indices beyond the caller's first.
  job->helper_slots.store(static_cast<int>(std::min<std::int64_t>(cap - 1, count - 1)),
                          std::memory_order_relaxed);

  if (workers_.empty() || count == 1 || cap == 1) {
    chew(job);  // inline sequential path, no synchronization (nestable)
  } else {
    // Concurrent submitters run concurrently: each job joins the active
    // list and idle workers split themselves across the listed jobs by
    // claiming helper slots. The caller works its own job unconditionally.
    {
      std::lock_guard<std::mutex> lock(mutex_);
      active_.push_back(job);
      ++generation_;
    }
    work_ready_.notify_all();
    chew(job);
    std::unique_lock<std::mutex> lock(mutex_);
    job_done_.wait(lock, [&job] {
      return job->done.load(std::memory_order_acquire) == job->count;
    });
    active_.erase(std::find(active_.begin(), active_.end(), job));
  }

  if (job->error) std::rethrow_exception(job->error);
}

ThreadPool& shared_pool() {
  static ThreadPool pool(0);  // hardware-sized; joined at process exit
  return pool;
}

}  // namespace bnn::runtime
