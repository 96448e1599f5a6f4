// Fixed-size thread pool with a bounded queue and explicit backpressure.
//
// Density evaluation — the serving hot path and the sampler/outlier scan
// passes alike — is embarrassingly parallel: scores are independent per
// point. The executor's job is mundane but load-bearing: keep a fixed
// number of workers busy, never queue unbounded work, and make overload
// VISIBLE instead of slow. It lives below `density` in the dependency
// stack so estimators and samplers can shard batches without depending on
// the serving layer. Admission is all-or-nothing and non-blocking: a
// submission that does not fit in the queue returns kUnavailable
// immediately (the daemon surfaces that to the client, who retries or
// backs off). Nothing in the submission path waits on capacity, so a
// saturated server keeps answering.
//
// ParallelFor is the work-sharding primitive: it splits [0, total) into
// roughly worker-count contiguous shards, admits them as one unit and waits
// for completion. Shards write to disjoint output ranges, so parallel
// execution is bitwise identical to the sequential loop — the property the
// end-to-end serving guarantee rests on.
//
// Shutdown is graceful: queued and in-flight tasks are drained, then the
// workers are joined. Submissions after Shutdown fail with
// kFailedPrecondition.

#ifndef DBS_PARALLEL_BATCH_EXECUTOR_H_
#define DBS_PARALLEL_BATCH_EXECUTOR_H_

#include <condition_variable>
#include <cstdint>
#include <deque>
#include <functional>
#include <mutex>
#include <thread>
#include <vector>

#include "util/status.h"

namespace dbs::parallel {

struct BatchExecutorOptions {
  // Worker threads; clamped to >= 1.
  int num_workers = 4;
  // Maximum queued (not yet running) tasks; clamped to >= 1.
  int64_t queue_capacity = 256;
  // ParallelFor never makes shards smaller than this many indices — below
  // it, task-dispatch overhead dominates the work itself.
  int64_t min_shard = 256;
};

class BatchExecutor {
 public:
  explicit BatchExecutor(const BatchExecutorOptions& options);
  ~BatchExecutor();

  BatchExecutor(const BatchExecutor&) = delete;
  BatchExecutor& operator=(const BatchExecutor&) = delete;

  // Enqueues one task. Returns kUnavailable when the queue is full and
  // kFailedPrecondition after Shutdown; never blocks.
  [[nodiscard]] Status TrySubmit(std::function<void()> task);

  // Enqueues all tasks or none (single admission decision under one lock),
  // with the same error contract as TrySubmit.
  [[nodiscard]] Status TrySubmitAll(std::vector<std::function<void()>> tasks);

  // Runs fn(begin, end) over disjoint shards covering [0, total) and waits
  // for all of them. Returns kUnavailable without running anything when the
  // queue cannot admit every shard. `fn` must be safe to call concurrently
  // on disjoint ranges. Must not be called from a worker thread (the caller
  // blocks until the shards finish).
  [[nodiscard]] Status ParallelFor(int64_t total,
                     const std::function<void(int64_t, int64_t)>& fn);

  // Drains queued and in-flight tasks, then joins the workers. Idempotent.
  void Shutdown();

  int num_workers() const { return num_workers_; }

  // Currently queued (not yet running) tasks.
  int64_t queue_depth() const;

 private:
  void WorkerLoop();

  const int num_workers_;
  const int64_t queue_capacity_;
  const int64_t min_shard_;

  // Guards queue_ and shutdown_. Leaf lock: released before any queued
  // task runs, so tasks may take their own locks freely.
  mutable std::mutex mu_;
  std::condition_variable work_ready_;
  std::deque<std::function<void()>> queue_;
  bool shutdown_ = false;
  std::vector<std::thread> workers_;
};

}  // namespace dbs::parallel

#endif  // DBS_PARALLEL_BATCH_EXECUTOR_H_
