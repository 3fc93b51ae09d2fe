//===- interp/Scheduler.cpp - Morsel work-stealing scheduler --------------===//
//
// Part of the stird project.
//
//===----------------------------------------------------------------------===//

#include "interp/Scheduler.h"

#include <cassert>
#include <chrono>

namespace stird::interp {

namespace {

/// Which scheduler (if any) the current thread is a worker of, and its
/// worker index there. Checked against `this` on every use, so multiple
/// Scheduler instances (tests, independent programs) coexist: a worker of
/// scheduler A submitting to scheduler B counts as external there.
struct WorkerTls {
  Scheduler *Owner = nullptr;
  std::size_t Index = 0;
};
thread_local WorkerTls Tls;

/// Per-thread victim-rotation state for steals. A plain LCG: steal order
/// only affects load balance, never results.
thread_local std::uint64_t StealSeed = 0x9e3779b97f4a7c15ULL;

/// How the entry currently executing on this thread was obtained; Inline
/// outside any task body.
thread_local EntrySource CurrentSource = EntrySource::Inline;

} // namespace

const char *entrySourceName(EntrySource Source) {
  switch (Source) {
  case EntrySource::Inline:
    return "inline";
  case EntrySource::Own:
    return "own";
  case EntrySource::Injected:
    return "injected";
  case EntrySource::Stolen:
    return "stolen";
  }
  return "?";
}

//===----------------------------------------------------------------------===//
// WorkStealingDeque
//===----------------------------------------------------------------------===//

WorkStealingDeque::WorkStealingDeque(std::size_t CapacityHint) {
  std::int64_t Capacity = 8;
  while (Capacity < static_cast<std::int64_t>(CapacityHint))
    Capacity *= 2;
  Buf.store(new Ring(Capacity), std::memory_order_relaxed);
}

WorkStealingDeque::~WorkStealingDeque() {
  delete Buf.load(std::memory_order_relaxed);
}

WorkStealingDeque::Ring *WorkStealingDeque::grow(Ring *Old, std::int64_t T,
                                                 std::int64_t B) {
  Ring *Grown = new Ring(Old->Capacity * 2);
  for (std::int64_t I = T; I < B; ++I)
    Grown->put(I, Old->get(I));
  // The old ring stays allocated until the deque dies: a thief that loaded
  // it before the swap may still read (and then discard) a slot from it.
  Retired.emplace_back(Old);
  Buf.store(Grown, std::memory_order_release);
  return Grown;
}

void WorkStealingDeque::push(std::uint64_t Entry) {
  const std::int64_t B = Bottom.load(std::memory_order_relaxed);
  const std::int64_t T = Top.load(std::memory_order_acquire);
  Ring *R = Buf.load(std::memory_order_relaxed);
  if (B - T >= R->Capacity)
    R = grow(R, T, B);
  R->put(B, Entry);
  // seq_cst store: publishes the slot write to thieves and orders the
  // Bottom bump against their Top/Bottom loads.
  Bottom.store(B + 1, std::memory_order_seq_cst);
}

bool WorkStealingDeque::pop(std::uint64_t &Entry) {
  const std::int64_t B = Bottom.load(std::memory_order_relaxed) - 1;
  Ring *R = Buf.load(std::memory_order_relaxed);
  // Reserve the bottom slot before reading Top: a thief observing the old
  // Bottom and this pop cannot both take the same entry.
  Bottom.store(B, std::memory_order_seq_cst);
  std::int64_t T = Top.load(std::memory_order_seq_cst);
  if (T > B) {
    // Already empty; restore.
    Bottom.store(B + 1, std::memory_order_relaxed);
    return false;
  }
  Entry = R->get(B);
  if (T < B)
    return true; // More than one entry remained; no thief can reach B.
  // Exactly one entry: race the thieves for it via Top.
  const bool Won = Top.compare_exchange_strong(
      T, T + 1, std::memory_order_seq_cst, std::memory_order_relaxed);
  Bottom.store(B + 1, std::memory_order_relaxed);
  return Won;
}

bool WorkStealingDeque::steal(std::uint64_t &Entry) {
  std::int64_t T = Top.load(std::memory_order_seq_cst);
  const std::int64_t B = Bottom.load(std::memory_order_seq_cst);
  if (T >= B)
    return false;
  // Acquire pairs with the release store in grow(): the ring we load holds
  // the entries published up to the Bottom we just read.
  Ring *R = Buf.load(std::memory_order_acquire);
  Entry = R->get(T);
  // The CAS claims the entry; on failure another thief (or the owner's
  // final pop) took it and the read value is discarded.
  return Top.compare_exchange_strong(T, T + 1, std::memory_order_seq_cst,
                                     std::memory_order_relaxed);
}

//===----------------------------------------------------------------------===//
// Scheduler
//===----------------------------------------------------------------------===//

Scheduler::Scheduler(std::size_t NumThreads) {
  const std::size_t NumWorkers = NumThreads > 1 ? NumThreads - 1 : 0;
  Deques.reserve(NumWorkers);
  for (std::size_t I = 0; I < NumWorkers; ++I)
    Deques.push_back(std::make_unique<WorkStealingDeque>());
  Workers.reserve(NumWorkers);
  for (std::size_t I = 0; I < NumWorkers; ++I)
    Workers.emplace_back([this, I] { workerLoop(I); });
}

Scheduler::~Scheduler() {
  {
    std::lock_guard<std::mutex> Lock(WakeM);
    Stop.store(true, std::memory_order_relaxed);
  }
  WakeCV.notify_all();
  for (std::thread &W : Workers)
    W.join();
}

std::size_t Scheduler::currentSlot() const {
  return Tls.Owner == this ? Tls.Index + 1 : 0;
}

EntrySource Scheduler::currentEntrySource() { return CurrentSource; }

SchedulerTelemetry Scheduler::telemetry() const {
  SchedulerTelemetry T;
  T.Jobs = CtrJobs.load(std::memory_order_relaxed);
  T.Submitted = CtrSubmitted.load(std::memory_order_relaxed);
  T.ExecutedOwn = CtrOwn.load(std::memory_order_relaxed);
  T.ExecutedInjected = CtrInjected.load(std::memory_order_relaxed);
  T.ExecutedStolen = CtrStolen.load(std::memory_order_relaxed);
  T.ExecutedInline = CtrInline.load(std::memory_order_relaxed);
  T.Tasks = T.ExecutedOwn + T.ExecutedInjected + T.ExecutedStolen +
            T.ExecutedInline;
  T.QueueDepth = Queued.load(std::memory_order_relaxed);
  return T;
}

void Scheduler::runInline(std::size_t NumTasks, const TaskFn &Fn) {
  const std::size_t Slot = currentSlot();
  CtrInline.fetch_add(NumTasks, std::memory_order_relaxed);
  for (std::size_t I = 0; I < NumTasks; ++I)
    Fn(I, Slot);
}

void Scheduler::run(std::size_t NumTasks, const TaskFn &Fn) {
  if (NumTasks == 0)
    return;
  if (Workers.empty() || NumTasks == 1) {
    runInline(NumTasks, Fn);
    return;
  }
  assert(NumTasks <= TaskMask && "task index exceeds the entry encoding");

  Job J;
  J.Fn = &Fn;
  J.NumTasks = NumTasks;

  // Claim a job slot; a full table (64 jobs already in flight) degrades to
  // inline execution rather than blocking.
  std::size_t Slot = MaxJobs;
  for (std::size_t I = 0; I < MaxJobs; ++I) {
    Job *Expected = nullptr;
    if (JobSlots[I].compare_exchange_strong(Expected, &J,
                                            std::memory_order_acq_rel,
                                            std::memory_order_relaxed)) {
      Slot = I;
      break;
    }
  }
  if (Slot == MaxJobs) {
    runInline(NumTasks, Fn);
    return;
  }

  // Publish the task entries. A worker pushes onto its own deque (the
  // pool steals from it); an external thread uses the injection queue.
  CtrJobs.fetch_add(1, std::memory_order_relaxed);
  Queued.fetch_add(NumTasks, std::memory_order_relaxed);
  const std::uint64_t Tag = static_cast<std::uint64_t>(Slot) << 48;
  if (Tls.Owner == this) {
    WorkStealingDeque &Own = *Deques[Tls.Index];
    for (std::size_t I = 0; I < NumTasks; ++I)
      Own.push(Tag | I);
  } else {
    std::lock_guard<std::mutex> Lock(InjM);
    for (std::size_t I = 0; I < NumTasks; ++I)
      Injected.push_back(Tag | I);
  }
  wakeWorkers(/*All=*/true);

  // Help until the job completes. Executing any pending entry — including
  // other jobs' — keeps nested and concurrent submissions deadlock-free.
  // The short wait_for is a backstop against the (benign) race between a
  // completer's notify and this thread entering the wait.
  while (J.Executed.load(std::memory_order_acquire) < NumTasks) {
    if (tryRunOne())
      continue;
    std::unique_lock<std::mutex> Lock(DoneM);
    if (J.Executed.load(std::memory_order_acquire) >= NumTasks)
      break;
    DoneCV.wait_for(Lock, std::chrono::microseconds(200));
  }

  // All entries are consumed and executed; recycling the slot is safe.
  JobSlots[Slot].store(nullptr, std::memory_order_release);
}

void Scheduler::runEntry(std::uint64_t Entry, EntrySource Source) {
  const std::size_t Slot = static_cast<std::size_t>(Entry >> 48);
  const std::size_t Task = static_cast<std::size_t>(Entry & TaskMask);
  Job *J = JobSlots[Slot].load(std::memory_order_acquire);
  assert(J && "deque entry outlived its job slot");
  Queued.fetch_sub(1, std::memory_order_relaxed);
  switch (Source) {
  case EntrySource::Own:
    CtrOwn.fetch_add(1, std::memory_order_relaxed);
    break;
  case EntrySource::Injected:
    CtrInjected.fetch_add(1, std::memory_order_relaxed);
    break;
  case EntrySource::Stolen:
    CtrStolen.fetch_add(1, std::memory_order_relaxed);
    break;
  case EntrySource::Inline:
    CtrInline.fetch_add(1, std::memory_order_relaxed);
    break;
  }
  const TaskFn *Fn = J->Fn;
  // Read everything needed for completion *before* the fetch_add: the
  // submitter may observe the final count and destroy the Job (its stack
  // frame) the moment the add lands.
  const std::size_t Total = J->NumTasks;
  const bool Detached = J->Detached;
  const EntrySource Outer = CurrentSource;
  CurrentSource = Source;
  (*Fn)(Task, currentSlot());
  CurrentSource = Outer;
  if (J->Executed.fetch_add(1, std::memory_order_acq_rel) + 1 == Total) {
    if (Detached) {
      // Nobody waits on a detached job: recycle the slot (no remaining
      // deque entry can reference it — all Total entries executed) and
      // free the heap-owned job here.
      JobSlots[J->SlotIndex].store(nullptr, std::memory_order_release);
      delete J;
      return;
    }
    // Empty critical section: a submitter between its predicate check and
    // wait() holds DoneM, so this lock/unlock cannot slip into that gap.
    { std::lock_guard<std::mutex> Lock(DoneM); }
    DoneCV.notify_all();
  }
}

void Scheduler::submit(std::function<void()> Fn) {
  CtrSubmitted.fetch_add(1, std::memory_order_relaxed);
  if (Workers.empty()) {
    CtrInline.fetch_add(1, std::memory_order_relaxed);
    Fn();
    return;
  }
  auto J = std::make_unique<Job>();
  J->Owned = [Body = std::move(Fn)](std::size_t, std::size_t) { Body(); };
  J->Fn = &J->Owned;
  J->NumTasks = 1;
  J->Detached = true;

  std::size_t Slot = MaxJobs;
  for (std::size_t I = 0; I < MaxJobs; ++I) {
    Job *Expected = nullptr;
    if (JobSlots[I].compare_exchange_strong(Expected, J.get(),
                                            std::memory_order_acq_rel,
                                            std::memory_order_relaxed)) {
      Slot = I;
      break;
    }
  }
  if (Slot == MaxJobs) {
    // Full job table: degrade to inline execution, like run() does.
    CtrInline.fetch_add(1, std::memory_order_relaxed);
    J->Owned(0, currentSlot());
    return;
  }
  J->SlotIndex = Slot;

  Queued.fetch_add(1, std::memory_order_relaxed);
  const std::uint64_t Entry = static_cast<std::uint64_t>(Slot) << 48;
  if (Tls.Owner == this) {
    Deques[Tls.Index]->push(Entry);
  } else {
    std::lock_guard<std::mutex> Lock(InjM);
    Injected.push_back(Entry);
  }
  J.release(); // owned by the executing thread from here on
  wakeWorkers(/*All=*/false);
}

void Scheduler::wakeWorkers(bool All) {
  // Empty critical section: an idle worker between its Queued check and
  // wait() holds WakeM, so the notify cannot slip into that gap. The
  // caller bumped Queued before publishing, and the lock orders that bump
  // before the worker's next check.
  { std::lock_guard<std::mutex> Lock(WakeM); }
  if (All)
    WakeCV.notify_all();
  else
    WakeCV.notify_one();
}

bool Scheduler::grabInjected(std::uint64_t &Entry) {
  std::lock_guard<std::mutex> Lock(InjM);
  if (Injected.empty())
    return false;
  Entry = Injected.front();
  Injected.pop_front();
  // A worker also moves a proportional batch into its own deque, where
  // the rest of the pool can steal it without touching the queue mutex.
  if (Tls.Owner == this) {
    WorkStealingDeque &Own = *Deques[Tls.Index];
    std::size_t Batch = Injected.size() / (Deques.size() + 1);
    for (; Batch > 0; --Batch) {
      Own.push(Injected.front());
      Injected.pop_front();
    }
  }
  return true;
}

bool Scheduler::trySteal(std::uint64_t &Entry) {
  const std::size_t N = Deques.size();
  if (N == 0)
    return false;
  StealSeed = StealSeed * 6364136223846793005ULL + 1442695040888963407ULL;
  const std::size_t Start = static_cast<std::size_t>(StealSeed >> 33) % N;
  for (std::size_t I = 0; I < N; ++I) {
    const std::size_t Victim = (Start + I) % N;
    if (Tls.Owner == this && Victim == Tls.Index)
      continue;
    if (Deques[Victim]->steal(Entry))
      return true;
  }
  return false;
}

bool Scheduler::tryRunOne() {
  std::uint64_t Entry;
  if (Tls.Owner == this && Deques[Tls.Index]->pop(Entry)) {
    runEntry(Entry, EntrySource::Own);
    return true;
  }
  if (grabInjected(Entry)) {
    runEntry(Entry, EntrySource::Injected);
    return true;
  }
  if (trySteal(Entry)) {
    runEntry(Entry, EntrySource::Stolen);
    return true;
  }
  return false;
}

void Scheduler::workerLoop(std::size_t Index) {
  Tls.Owner = this;
  Tls.Index = Index;
  for (;;) {
    if (tryRunOne())
      continue;
    std::unique_lock<std::mutex> Lock(WakeM);
    // Sleep only while nothing is queued; publishers notify through
    // wakeWorkers(), so no wake-up is lost and no timeout is needed.
    WakeCV.wait(Lock, [this] {
      return Stop.load(std::memory_order_relaxed) ||
             Queued.load(std::memory_order_relaxed) != 0;
    });
    if (Stop.load(std::memory_order_relaxed))
      return;
  }
}

} // namespace stird::interp
