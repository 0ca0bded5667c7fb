#pragma once

#include <atomic>
#include <condition_variable>
#include <cstddef>
#include <cstdint>
#include <functional>
#include <mutex>
#include <thread>
#include <vector>

/// A small reusable worker pool for data-parallel loops.
///
/// Built for the erasure hot path (full-blob 2-D encode and per-row
/// commitments, see docs/ERASURE.md): the work items are large, independent
/// slab operations, so a simple shared-index loop with no per-item
/// allocation is all that is needed. Workers are started once and parked on
/// a condition variable between jobs.
///
/// Determinism note: callers in this codebase only submit loops whose
/// iterations write disjoint output ranges, so results are byte-identical
/// for any worker count (including zero).
namespace pandas::util {

class ThreadPool {
 public:
  /// Spawns `threads` workers; 0 means hardware_concurrency() - 1 (the
  /// calling thread participates in every loop, so a 1-core machine gets a
  /// pool with no workers and parallel_for degrades to an inline loop).
  explicit ThreadPool(unsigned threads = 0);
  ~ThreadPool();

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  /// Worker threads owned by the pool (excludes the caller).
  [[nodiscard]] unsigned workers() const noexcept {
    return static_cast<unsigned>(threads_.size());
  }

  /// Runs fn(i) for every i in [begin, end), distributing iterations over
  /// the workers plus the calling thread; returns when all are done.
  /// `end` must stay below 2^48.
  /// `fn` must not throw. Nested parallel_for calls — from the caller or
  /// from inside a job on a worker — run inline on the issuing thread.
  /// Blocking dispatch from a pool worker (of any pool) would deadlock (the
  /// class of bug TSan caught in the nested-encode path); the inline
  /// fallback makes that unreachable, and an explicit guard on the dispatch
  /// path throws std::logic_error if a refactor ever re-opens it.
  void parallel_for(std::size_t begin, std::size_t end,
                    const std::function<void(std::size_t)>& fn);

  /// True when the calling thread is a worker owned by any ThreadPool.
  /// Exposed for the dispatch guard above and for tests/assertions in code
  /// that must only run on a coordinating thread.
  [[nodiscard]] static bool current_thread_is_worker() noexcept;

  /// Process-wide shared pool, sized for the machine. First use spawns the
  /// workers; intended for one-off heavyweight jobs like blob encodes.
  static ThreadPool& shared();

 private:
  void worker_loop();
  /// Claims and runs indices of the job tagged `tag` (ending at `end`)
  /// until they run out or a newer job replaces it.
  void run_range(const std::function<void(std::size_t)>& fn, std::uint64_t tag,
                 std::size_t end);

  std::vector<std::thread> threads_;
  std::mutex mu_;
  std::condition_variable work_cv_;
  std::condition_variable done_cv_;

  /// Low bits of the claim word hold the next index, high bits the job tag.
  static constexpr unsigned kIndexBits = 48;
  static constexpr std::uint64_t kIndexMask = (std::uint64_t{1} << kIndexBits) - 1;
  /// Tag of a job generation. Only jobs g and g + 1 can ever be in flight
  /// together, so the wrap-around of the 16-bit tag is harmless.
  [[nodiscard]] static std::uint64_t tag_of(std::uint64_t generation) noexcept {
    return generation & (~std::uint64_t{0} >> kIndexBits);
  }

  // Current job; guarded by mu_ for publication, indices claimed lock-free.
  std::function<void(std::size_t)> job_;
  std::size_t end_ = 0;
  /// (job tag << kIndexBits) | next index. A worker that copied job g claims
  /// an index only while the tag still reads g, so a worker waking late can
  /// never run g's function on the indices of the job published after it.
  std::atomic<std::uint64_t> claim_{0};
  std::uint64_t generation_ = 0;   // bumped per job so workers wake once each
  unsigned active_ = 0;            // workers still inside the current job
  bool stop_ = false;
};

}  // namespace pandas::util
