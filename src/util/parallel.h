// Dependency-free data parallelism for the measurement pipeline.
//
// The pipeline's hot stages share one shape: const shared state, many
// independent work items, a deterministic merge. This header provides the
// one sanctioned way to fan those items out:
//
//   * ThreadPool -- a fixed-size worker pool with a FIFO task queue. The
//     destructor drains every queued task before joining, so shutdown
//     with queued work cannot deadlock or drop work.
//   * parallel_for(n, fn) -- run fn(0..n-1) across the global pool and
//     block until all items finish. The first exception thrown by any
//     item is rethrown in the caller. Iteration-to-thread assignment is
//     dynamic, so callers MUST NOT depend on execution order: collect
//     results into index-addressed slots and merge serially afterwards
//     (the determinism contract, see docs/performance.md).
//     Scheduling is chunked: the shared work counter hands out a static
//     chunk of `grain` consecutive indices per atomic op, not single
//     indices, so fine-grained items stop paying one atomic per item.
//     The grain comes from the MANRS_GRAIN environment variable
//     (unset/0/garbage -> auto = n / (threads * 8), clamped to >= 1);
//     chunking never changes which indices run, only how they batch.
//   * parallel_map<T>(n, fn) -- the index-slot pattern packaged: returns
//     {fn(0), ..., fn(n-1)} exactly as a serial loop would.
//
// Sizing: the global pool takes its width from the MANRS_THREADS
// environment variable (unset/0/garbage -> hardware_concurrency, huge
// values clamp to kMaxThreads). MANRS_THREADS=1 is an exact serial
// fallback: parallel_for degenerates to a plain loop on the calling
// thread -- no pool, no worker threads, bit-for-bit the serial program.
// Nested parallel_for calls (an item that itself fans out) also run
// serially inline, which makes nesting safe instead of a deadlock.
//
// Ownership rule (enforced by manrs_analyze): no raw std::thread /
// std::jthread / std::async outside src/util/parallel.*. All concurrency
// flows through this layer so TSan coverage of tests/test_parallel.cpp
// covers the whole pipeline.
#pragma once

#include <condition_variable>
#include <cstddef>
#include <deque>
#include <functional>
#include <mutex>
#include <thread>
#include <vector>

namespace manrs::util {

/// Upper bound on pool width; MANRS_THREADS beyond this clamps down.
inline constexpr size_t kMaxThreads = 256;

/// Resolve a MANRS_THREADS-style string against a hardware thread count.
/// nullptr / empty / non-numeric / 0 fall back to `hardware` (itself
/// clamped to at least 1); anything above kMaxThreads clamps to it.
/// Exposed for tests; callers use default_thread_count().
size_t parse_thread_count(const char* value, size_t hardware);

/// Pool width implied by the environment: parse_thread_count applied to
/// getenv("MANRS_THREADS") and std::thread::hardware_concurrency().
size_t default_thread_count();

/// Resolve a MANRS_GRAIN-style string. nullptr / empty / non-numeric / 0
/// mean "auto" and return 0; explicit values pass through. Exposed for
/// tests; callers use grain_size().
size_t parse_grain(const char* value);

/// Automatic chunk size for n items on `threads` threads:
/// n / (threads * 8) clamped to >= 1 -- about eight chunks per thread,
/// enough slack for dynamic load balancing without per-item atomics.
size_t auto_grain(size_t n, size_t threads);

/// Fixed-width worker pool. Tasks run in FIFO order across workers; the
/// destructor drains the queue (every submitted task runs) and joins.
class ThreadPool {
 public:
  explicit ThreadPool(size_t threads);
  ~ThreadPool();
  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  size_t size() const { return workers_.size(); }

  /// Fire-and-forget task. Tasks must not throw (there is no caller to
  /// receive the exception; parallel_for wraps its items instead). The
  /// destructor guarantees every submitted task has run before joining.
  void submit(std::function<void()> task);

  /// Run fn(i) for every i in [0, n) and block until all complete. The
  /// calling thread participates in the work, so progress never depends
  /// on pool capacity. If one or more items throw, the first exception
  /// (in completion order) is rethrown here after all workers stop
  /// picking up new items. `grain` is the chunk size the shared counter
  /// hands out per atomic op; 0 = auto_grain(n, size() + 1), values
  /// above n clamp to n. Chunking affects batching only, never which
  /// indices run.
  void parallel_for(size_t n, const std::function<void(size_t)>& fn,
                    size_t grain = 0);

 private:
  void worker_loop();

  std::mutex mutex_;
  std::condition_variable work_cv_;
  std::deque<std::function<void()>> queue_;
  bool stop_ = false;
  std::vector<std::thread> workers_;
};

/// Width of the process-global pool (initialising it from the
/// environment on first use).
size_t thread_count();

/// Reconfigure the process-global pool. 0 = re-read the environment on
/// next use. Not safe concurrently with in-flight parallel_for calls;
/// intended for tests and bench drivers, which are serial at top level.
void set_thread_count(size_t n);

/// Chunk size used by the global parallel_for (initialised from
/// MANRS_GRAIN on first use). 0 = auto per call.
size_t grain_size();

/// Reconfigure the global grain. 0 = re-read the environment on next
/// use (mirroring set_thread_count). Same concurrency caveat.
void set_grain(size_t n);

/// parallel_for over the process-global pool (serial inline when the
/// configured width is 1, n < 2, or the caller is itself a pool worker).
void parallel_for(size_t n, const std::function<void(size_t)>& fn);

/// Index-slot map: out[i] = fn(i), computed in parallel, returned in
/// index order. T must be default-constructible and movable.
template <typename T, typename Fn>
std::vector<T> parallel_map(size_t n, Fn&& fn) {
  std::vector<T> out(n);
  parallel_for(n, [&](size_t i) { out[i] = fn(i); });
  return out;
}

}  // namespace manrs::util
