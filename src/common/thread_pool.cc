#include "src/common/thread_pool.h"

#include <algorithm>

#include "src/common/lock_registry.h"
#include "src/obs/metrics.h"

namespace cloudtalk {

#if defined(CLOUDTALK_INVARIANTS) && CLOUDTALK_INVARIANTS
namespace {

// Lock roles for the order checker. All batch mutexes share one role: the
// checker cares about the queue-vs-batch ordering, not batch identity.
LockId QueueLockId() {
  static const LockId id = LockRegistry::Instance().Register("thread_pool.queue");
  return id;
}
LockId BatchLockId() {
  static const LockId id = LockRegistry::Instance().Register("thread_pool.batch");
  return id;
}

}  // namespace
#endif

ThreadPool::ThreadPool(int num_threads) {
  const int n = std::max(0, num_threads);
  workers_.reserve(n);
  for (int i = 0; i < n; ++i) {
    workers_.emplace_back([this] { WorkerLoop(); });
  }
}

ThreadPool::~ThreadPool() {
  {
    std::lock_guard<std::mutex> lock(queue_mutex_);
    CT_LOCK_TRACE(QueueLockId());
    stopping_ = true;
  }
  queue_cv_.notify_all();
  for (std::thread& worker : workers_) {
    worker.join();
  }
}

ThreadPool& ThreadPool::Shared() {
  // Never destroyed: a static pool's destructor would run after the main
  // thread's thread_locals are gone, and its traced queue lock would then
  // touch the freed held-lock stack (src/common/lock_registry.cc). The idle
  // workers simply end with the process.
  static ThreadPool* const pool =
      new ThreadPool(static_cast<int>(std::thread::hardware_concurrency()) - 1);
  return *pool;
}

int ThreadPool::ResolveThreadCount(int threads) {
  if (threads > 0) {
    return threads;
  }
  const int hw = static_cast<int>(std::thread::hardware_concurrency());
  return std::max(1, hw);
}

void ThreadPool::WorkerLoop() {
  while (true) {
    std::function<void()> task;
    {
      std::unique_lock<std::mutex> lock(queue_mutex_);
      queue_cv_.wait(lock, [this] { return stopping_ || !queue_.empty(); });
      CT_LOCK_TRACE(QueueLockId());
      if (stopping_ && queue_.empty()) {
        return;
      }
      task = std::move(queue_.front());
      queue_.pop_front();
      CT_OBS_GAUGE_ADD("M400", -1.0);
    }
    task();
  }
}

void ThreadPool::RunShards(Batch& batch, bool stolen) {
  int finished = 0;
  while (true) {
    const int shard = batch.next.fetch_add(1, std::memory_order_relaxed);
    if (shard >= batch.shards) {
      break;
    }
    (*batch.fn)(shard);
    ++finished;
  }
  if (finished > 0) {
    if (stolen) {
      CT_OBS_ADD("M401", finished);
    } else {
      CT_OBS_ADD("M402", finished);
    }
  }
  if (finished > 0 &&
      batch.done.fetch_add(finished, std::memory_order_acq_rel) + finished == batch.shards) {
    // Last shard: wake the caller. The lock pairs with the caller's wait so
    // the notify cannot be lost between its predicate check and sleep.
    std::lock_guard<std::mutex> lock(batch.mutex);
    CT_LOCK_TRACE(BatchLockId());
    batch.all_done.notify_all();
  }
}

void ThreadPool::Run(int shards, const std::function<void(int)>& fn) {
  if (shards <= 0) {
    return;
  }
  // The batch is shared with helper tasks that may outlive this frame's
  // useful work (a helper can be dequeued after all shards are claimed), so
  // it must be heap-allocated and reference-counted.
  CT_OBS_INC("M403");
  auto batch = std::make_shared<Batch>();
  batch->shards = shards;
  batch->fn = &fn;
  const int helpers = std::min(worker_count(), shards - 1);
  if (helpers > 0) {
    {
      std::lock_guard<std::mutex> lock(queue_mutex_);
      CT_LOCK_TRACE(QueueLockId());
      for (int i = 0; i < helpers; ++i) {
        queue_.push_back([batch] { RunShards(*batch, /*stolen=*/true); });
      }
      CT_OBS_GAUGE_ADD("M400", static_cast<double>(helpers));
    }
    queue_cv_.notify_all();
  }
  RunShards(*batch, /*stolen=*/false);  // The caller is always one of the lanes.
  std::unique_lock<std::mutex> lock(batch->mutex);
  CT_LOCK_TRACE(BatchLockId());
  batch->all_done.wait(lock, [&] {
    return batch->done.load(std::memory_order_acquire) == batch->shards;
  });
  // `fn` may now be destroyed: every shard has run; late helpers see
  // next >= shards and never touch fn.
}

}  // namespace cloudtalk
