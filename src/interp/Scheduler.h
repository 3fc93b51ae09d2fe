//===- interp/Scheduler.h - Morsel work-stealing scheduler ------*- C++ -*-===//
//
// Part of the stird project.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The job system of the parallel evaluator: one persistent pool of worker
/// threads, each owning a Chase–Lev work-stealing deque of task entries.
/// Parallel scans cut their partition streams into fixed-size morsels and
/// submit them as one job; independent rules of a stratum are submitted the
/// same way. A thread that drains its own deque steals from a sibling, so
/// a skewed morsel no longer idles every other core the way the old
/// barrier pool's static 1:1 partition assignment did.
///
/// Determinism contract: the scheduler only decides *where* a task runs,
/// never what it observes. Tasks write into task-indexed private buffers
/// and counter blocks; the submitter merges them in ascending task index
/// at the job barrier, so results and obs counters are invariant under
/// thread count, morsel size and steal interleavings.
///
//===----------------------------------------------------------------------===//

#ifndef STIRD_INTERP_SCHEDULER_H
#define STIRD_INTERP_SCHEDULER_H

#include <array>
#include <atomic>
#include <condition_variable>
#include <cstddef>
#include <cstdint>
#include <deque>
#include <functional>
#include <memory>
#include <mutex>
#include <thread>
#include <vector>

namespace stird::interp {

/// A Chase–Lev work-stealing deque over 64-bit entries (Chase & Lev,
/// SPAA'05, with the C11 memory orderings of Lê et al., PPoPP'13 — spelled
/// with per-operation seq_cst/acquire instead of standalone fences, which
/// ThreadSanitizer models precisely). The owner pushes and pops at the
/// bottom; thieves steal from the top. Every pushed entry is returned by
/// exactly one pop() or steal().
class WorkStealingDeque {
public:
  explicit WorkStealingDeque(std::size_t CapacityHint = 64);
  ~WorkStealingDeque();

  WorkStealingDeque(const WorkStealingDeque &) = delete;
  WorkStealingDeque &operator=(const WorkStealingDeque &) = delete;

  /// Appends \p Entry at the bottom. Owner thread only.
  void push(std::uint64_t Entry);

  /// Removes the most recently pushed entry (LIFO — keeps a worker on the
  /// morsels of the job it is already executing). Owner thread only.
  bool pop(std::uint64_t &Entry);

  /// Removes the oldest entry (FIFO — thieves take from the opposite end,
  /// minimizing contention with the owner). Any thread.
  bool steal(std::uint64_t &Entry);

private:
  /// A power-of-two ring of atomic slots. Slots are atomics with relaxed
  /// access (not plain words) because a slow thief may read a slot the
  /// owner is concurrently recycling; the value it reads is then discarded
  /// when its CAS on Top fails, but the read itself must be race-free.
  struct Ring {
    explicit Ring(std::int64_t Capacity)
        : Capacity(Capacity), Mask(Capacity - 1),
          Slots(new std::atomic<std::uint64_t>[Capacity]) {}
    std::uint64_t get(std::int64_t I) const {
      return Slots[I & Mask].load(std::memory_order_relaxed);
    }
    void put(std::int64_t I, std::uint64_t Entry) {
      Slots[I & Mask].store(Entry, std::memory_order_relaxed);
    }
    const std::int64_t Capacity;
    const std::int64_t Mask;
    std::unique_ptr<std::atomic<std::uint64_t>[]> Slots;
  };

  /// Doubles the ring. Owner only; the old ring is retired, not freed —
  /// a concurrent thief may still be reading it.
  Ring *grow(Ring *Old, std::int64_t Top, std::int64_t Bottom);

  std::atomic<std::int64_t> Top{0};
  std::atomic<std::int64_t> Bottom{0};
  std::atomic<Ring *> Buf;
  /// Rings replaced by grow(), freed with the deque.
  std::vector<std::unique_ptr<Ring>> Retired;
};

/// How the executing thread came to hold a task entry. Inline means the
/// entry never went through a deque (no workers, single task, or a full
/// job table); Own is a worker popping its own deque; Injected is an
/// external submission grabbed from the injection queue; Stolen is a
/// Chase–Lev steal from a sibling's deque.
enum class EntrySource : unsigned { Inline, Own, Injected, Stolen };

/// The string forms "inline"/"own"/"injected"/"stolen".
const char *entrySourceName(EntrySource Source);

/// A coherent-enough snapshot of the scheduler's counters, for the stats
/// command and the Prometheus renderer. All counters are monotonic except
/// QueueDepth, a gauge of published-but-not-yet-started entries.
struct SchedulerTelemetry {
  std::uint64_t Jobs = 0;      ///< run() jobs that went through the pool
  std::uint64_t Submitted = 0; ///< detached submit() jobs dispatched
  std::uint64_t Tasks = 0;     ///< task entries executed, any source
  std::uint64_t ExecutedOwn = 0;
  std::uint64_t ExecutedInjected = 0;
  std::uint64_t ExecutedStolen = 0; ///< == successful steals
  std::uint64_t ExecutedInline = 0;
  std::uint64_t QueueDepth = 0;
};

/// The morsel scheduler: NumThreads - 1 worker threads plus whatever
/// thread calls run(). One Scheduler serves a whole Program — every engine
/// made from the program at the same -jN shares it, so resident serving
/// sessions and update batches reuse one warm pool instead of spawning
/// per-engine threads.
///
/// run() is a fork-join barrier over NumTasks task indices. It is:
///  * blocking — returns only after every task of the job executed;
///  * reentrant — a task may itself call run() (nested parallel sections
///    become jobs on the same deques);
///  * thread-safe — concurrent run() calls from different threads (e.g.
///    independent rules submitting their inner scans) interleave freely.
/// While waiting for its own job the submitting thread helps execute
/// pending tasks — its own or any concurrent job's — so the pool can
/// never deadlock on nested submissions.
class Scheduler {
public:
  using TaskFn = std::function<void(std::size_t Task, std::size_t Slot)>;

  explicit Scheduler(std::size_t NumThreads);
  ~Scheduler();

  Scheduler(const Scheduler &) = delete;
  Scheduler &operator=(const Scheduler &) = delete;

  std::size_t numThreads() const { return Workers.size() + 1; }

  /// Runs Fn(Task, Slot) for every Task in [0, NumTasks), on this thread
  /// and the workers, and returns after the last task finished. Slot
  /// identifies the executing thread (0 = an external thread, I + 1 =
  /// worker I) — stable across the scheduler's lifetime, for trace tracks
  /// and other per-thread attribution. Which task lands on which slot is
  /// scheduling-dependent; anything merged across tasks must be indexed
  /// by Task, not Slot.
  void run(std::size_t NumTasks, const TaskFn &Fn);

  /// Fire-and-forget: enqueues \p Fn as a one-task detached job and
  /// returns immediately; completion is not awaited and the job owns its
  /// own state (freed by whichever thread executes the task last). The
  /// serving front end dispatches request handlers this way so its event
  /// loop never blocks on evaluation. With no workers (a -j1 pool) or a
  /// full job table, Fn runs inline on the calling thread instead — the
  /// call is then blocking, but never lost.
  void submit(std::function<void()> Fn);

  /// Counter snapshot (relaxed loads; see SchedulerTelemetry).
  SchedulerTelemetry telemetry() const;

  /// The slot executing on the calling thread: worker index + 1, or 0 for
  /// external threads. Stable across the scheduler's lifetime — the same
  /// convention as run()'s Slot argument and trace tracks.
  std::size_t executingSlot() const { return currentSlot(); }

  /// How the task entry currently executing on this thread reached it.
  /// Meaningful only inside a task body (request handlers use it for
  /// steal attribution in traces); Inline otherwise.
  static EntrySource currentEntrySource();

private:
  /// In-flight jobs are slots in a fixed table so deque entries can name
  /// them in 16 bits. 64 concurrent jobs is far beyond any real nesting
  /// depth; run() falls back to inline execution when the table is full.
  static constexpr std::size_t MaxJobs = 64;
  static constexpr std::uint64_t TaskMask = (std::uint64_t(1) << 48) - 1;

  /// One in-flight job, owned by its submitter's stack frame — except
  /// detached jobs (submit()), which live on the heap, point Fn at their
  /// own Owned closure, and are deleted by the thread that executes their
  /// last task. The slot table entry is cleared only after the last task's
  /// completion count, at which point no deque entry referencing the slot
  /// can remain.
  struct Job {
    const TaskFn *Fn = nullptr;
    std::size_t NumTasks = 0;
    std::atomic<std::size_t> Executed{0};
    /// Detached jobs carry their closure (Fn == &Owned) and slot index so
    /// the completing thread can recycle the slot and free the job.
    TaskFn Owned;
    std::size_t SlotIndex = 0;
    bool Detached = false;
  };

  void workerLoop(std::size_t Index);
  /// Executes one pending entry from anywhere (own deque, injection
  /// queue, or a steal). Returns false when nothing was available.
  bool tryRunOne();
  /// Decodes and executes one deque entry, bumping its job's completion
  /// count and waking the submitter on the last task. \p Source records
  /// how this thread obtained the entry.
  void runEntry(std::uint64_t Entry, EntrySource Source);
  bool grabInjected(std::uint64_t &Entry);
  bool trySteal(std::uint64_t &Entry);
  /// The calling thread's slot: worker index + 1, or 0 for externals.
  std::size_t currentSlot() const;
  /// Wakes one idle worker (or all) after entries were published and
  /// counted in Queued.
  void wakeWorkers(bool All);
  /// Runs the whole job inline on the calling thread (no workers, a
  /// single task, or a full job table).
  void runInline(std::size_t NumTasks, const TaskFn &Fn);

  std::vector<std::unique_ptr<WorkStealingDeque>> Deques;
  std::vector<std::thread> Workers;

  /// Tasks submitted by threads that own no deque (the Chase–Lev push is
  /// owner-only). Workers drain it one entry at a time plus a batch moved
  /// into their own deque, from which the rest of the pool steals.
  std::mutex InjM;
  std::deque<std::uint64_t> Injected;

  std::array<std::atomic<Job *>, MaxJobs> JobSlots{};

  /// Sleep/wake for idle workers, and the job-completion barrier for
  /// submitters. Completion signaling never touches the Job after its
  /// final fetch_add (the submitter's frame may already be gone), so the
  /// condition variables are scheduler-owned.
  std::mutex WakeM;
  std::condition_variable WakeCV;
  std::mutex DoneM;
  std::condition_variable DoneCV;
  std::atomic<bool> Stop{false};
  /// Published-but-not-started entries: bumped just before entries land
  /// in a deque or the injection queue, dropped when runEntry() picks one
  /// up. Inline executions never touch it. An idle worker sleeps only
  /// while it reads zero under WakeM; also reported as QueueDepth.
  std::atomic<std::uint64_t> Queued{0};

  /// Telemetry counters (relaxed; monitoring only, never control flow).
  std::atomic<std::uint64_t> CtrJobs{0};
  std::atomic<std::uint64_t> CtrSubmitted{0};
  std::atomic<std::uint64_t> CtrOwn{0};
  std::atomic<std::uint64_t> CtrInjected{0};
  std::atomic<std::uint64_t> CtrStolen{0};
  std::atomic<std::uint64_t> CtrInline{0};
};

} // namespace stird::interp

#endif // STIRD_INTERP_SCHEDULER_H
