//===- tests/interp/SchedulerTest.cpp - Work-stealing scheduler tests ----------===//
//
// Part of the stird project.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The job system's own contract, tested below the engine: every entry
/// pushed into a Chase–Lev deque comes back from exactly one pop() or
/// steal() (no lost or duplicated morsels under concurrent thieves), and
/// Scheduler::run() executes every task index exactly once — including
/// nested submissions from inside tasks and concurrent submissions from
/// several external threads. The stress tests drive seeded schedules so a
/// failure reproduces; the suite carries the `sanitize` label, making it
/// the core workload of the ThreadSanitizer and AddressSanitizer builds.
///
//===----------------------------------------------------------------------===//

#include "interp/Scheduler.h"

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <cstdint>
#include <numeric>
#include <thread>
#include <vector>

using namespace stird::interp;

namespace {

/// SplitMix64 — the same tiny deterministic generator the program fuzzer
/// uses, inlined so the scheduler tests need no test-support library.
struct Rng {
  explicit Rng(std::uint64_t Seed) : State(Seed) {}
  std::uint64_t next() {
    std::uint64_t Z = (State += 0x9e3779b97f4a7c15ULL);
    Z = (Z ^ (Z >> 30)) * 0xbf58476d1ce4e5b9ULL;
    Z = (Z ^ (Z >> 27)) * 0x94d049bb133111ebULL;
    return Z ^ (Z >> 31);
  }
  std::size_t below(std::size_t Bound) { return next() % Bound; }
  std::uint64_t State;
};

//===----------------------------------------------------------------------===//
// WorkStealingDeque
//===----------------------------------------------------------------------===//

TEST(WorkStealingDequeTest, PopIsLifoStealIsFifo) {
  WorkStealingDeque D;
  for (std::uint64_t I = 0; I < 4; ++I)
    D.push(I);
  std::uint64_t E = 99;
  // Thieves take the oldest entry, the owner the newest.
  ASSERT_TRUE(D.steal(E));
  EXPECT_EQ(E, 0u);
  ASSERT_TRUE(D.pop(E));
  EXPECT_EQ(E, 3u);
  ASSERT_TRUE(D.steal(E));
  EXPECT_EQ(E, 1u);
  ASSERT_TRUE(D.pop(E));
  EXPECT_EQ(E, 2u);
  EXPECT_FALSE(D.pop(E));
  EXPECT_FALSE(D.steal(E));
}

TEST(WorkStealingDequeTest, GrowsPastCapacityHint) {
  WorkStealingDeque D(/*CapacityHint=*/8);
  constexpr std::uint64_t N = 5000; // forces several ring doublings
  for (std::uint64_t I = 0; I < N; ++I)
    D.push(I);
  for (std::uint64_t I = N; I-- > 0;) {
    std::uint64_t E = ~0ull;
    ASSERT_TRUE(D.pop(E));
    EXPECT_EQ(E, I); // growth preserves order and content
  }
  std::uint64_t E;
  EXPECT_FALSE(D.pop(E));
}

TEST(WorkStealingDequeTest, InterleavedPushPopSurvivesGrowth) {
  WorkStealingDeque D(/*CapacityHint=*/8);
  Rng R(7);
  std::vector<int> Seen(2000, 0);
  std::uint64_t Next = 0;
  std::size_t Held = 0;
  while (Next < Seen.size() || Held > 0) {
    if (Next < Seen.size() && (Held == 0 || R.below(100) < 60)) {
      D.push(Next++);
      ++Held;
    } else {
      std::uint64_t E = ~0ull;
      ASSERT_TRUE(D.pop(E));
      ++Seen[E];
      --Held;
    }
  }
  for (std::size_t I = 0; I < Seen.size(); ++I)
    EXPECT_EQ(Seen[I], 1) << "entry " << I;
}

/// The deque's exactly-once guarantee under fire: one owner pushes N
/// entries in seeded bursts (popping some itself, as a worker draining its
/// own morsels does), while thief threads steal continuously. Every entry
/// must be consumed by exactly one thread.
void stealStress(std::uint64_t Seed, std::size_t NumThieves) {
  constexpr std::uint64_t N = 20000;
  WorkStealingDeque D(/*CapacityHint=*/8);
  std::vector<std::atomic<int>> Taken(N);
  for (auto &T : Taken)
    T.store(0, std::memory_order_relaxed);
  std::atomic<bool> Done{false};

  std::vector<std::thread> Thieves;
  for (std::size_t T = 0; T < NumThieves; ++T)
    Thieves.emplace_back([&] {
      std::uint64_t E;
      while (!Done.load(std::memory_order_acquire))
        if (D.steal(E))
          Taken[E].fetch_add(1, std::memory_order_relaxed);
      while (D.steal(E)) // final drain after the owner stops
        Taken[E].fetch_add(1, std::memory_order_relaxed);
    });

  Rng R(Seed);
  std::uint64_t Next = 0;
  while (Next < N) {
    // Bursty production with occasional owner pops exercises both the
    // T < B fast path and the single-entry CAS race against the thieves.
    const std::size_t Burst = 1 + R.below(64);
    for (std::size_t I = 0; I < Burst && Next < N; ++I)
      D.push(Next++);
    const std::size_t Pops = R.below(Burst + 1);
    for (std::size_t I = 0; I < Pops; ++I) {
      std::uint64_t E;
      if (!D.pop(E))
        break;
      Taken[E].fetch_add(1, std::memory_order_relaxed);
    }
  }
  {
    std::uint64_t E;
    while (D.pop(E))
      Taken[E].fetch_add(1, std::memory_order_relaxed);
  }
  Done.store(true, std::memory_order_release);
  for (std::thread &T : Thieves)
    T.join();

  std::uint64_t Lost = 0, Duplicated = 0;
  for (std::uint64_t I = 0; I < N; ++I) {
    const int C = Taken[I].load(std::memory_order_relaxed);
    Lost += C == 0 ? 1 : 0;
    Duplicated += C > 1 ? 1 : 0;
  }
  EXPECT_EQ(Lost, 0u) << "seed " << Seed;
  EXPECT_EQ(Duplicated, 0u) << "seed " << Seed;
}

TEST(WorkStealingDequeTest, ExactlyOnceUnderOneThief) {
  for (std::uint64_t Seed = 1; Seed <= 4; ++Seed)
    stealStress(Seed, 1);
}

TEST(WorkStealingDequeTest, ExactlyOnceUnderManyThieves) {
  for (std::uint64_t Seed = 1; Seed <= 4; ++Seed)
    stealStress(Seed * 0x51ed2701, 3);
}

//===----------------------------------------------------------------------===//
// Scheduler
//===----------------------------------------------------------------------===//

/// Runs \p NumTasks on \p S and returns per-task execution counts; also
/// checks every reported slot stays inside [0, numThreads()).
std::vector<int> countedRun(Scheduler &S, std::size_t NumTasks) {
  std::vector<std::atomic<int>> Counts(NumTasks);
  for (auto &C : Counts)
    C.store(0, std::memory_order_relaxed);
  std::atomic<bool> SlotOk{true};
  S.run(NumTasks, [&](std::size_t Task, std::size_t Slot) {
    if (Slot >= S.numThreads())
      SlotOk.store(false, std::memory_order_relaxed);
    Counts[Task].fetch_add(1, std::memory_order_relaxed);
  });
  EXPECT_TRUE(SlotOk.load());
  std::vector<int> Out(NumTasks);
  for (std::size_t I = 0; I < NumTasks; ++I)
    Out[I] = Counts[I].load(std::memory_order_relaxed);
  return Out;
}

TEST(SchedulerTest, ExecutesEveryTaskExactlyOnce) {
  Scheduler S(4);
  EXPECT_EQ(S.numThreads(), 4u);
  for (std::size_t NumTasks : {std::size_t(1), std::size_t(2),
                               std::size_t(7), std::size_t(64),
                               std::size_t(1000)}) {
    const std::vector<int> Counts = countedRun(S, NumTasks);
    for (std::size_t I = 0; I < NumTasks; ++I)
      EXPECT_EQ(Counts[I], 1) << "task " << I << " of " << NumTasks;
  }
}

TEST(SchedulerTest, ZeroTasksIsANoOp) {
  Scheduler S(4);
  bool Ran = false;
  S.run(0, [&](std::size_t, std::size_t) { Ran = true; });
  EXPECT_FALSE(Ran);
}

TEST(SchedulerTest, SingleThreadRunsInlineInSubmissionOrder) {
  Scheduler S(1);
  EXPECT_EQ(S.numThreads(), 1u);
  std::vector<std::size_t> Order;
  S.run(8, [&](std::size_t Task, std::size_t Slot) {
    EXPECT_EQ(Slot, 0u); // the submitting thread is always slot 0
    Order.push_back(Task);
  });
  std::vector<std::size_t> Expected(8);
  std::iota(Expected.begin(), Expected.end(), 0);
  EXPECT_EQ(Order, Expected);
}

TEST(SchedulerTest, NestedRunFromInsideTasks) {
  // A rule job submitting its inner parallel scan: the inner run() must
  // complete on the same pool without deadlock, and both levels must
  // execute exactly once.
  Scheduler S(4);
  constexpr std::size_t Outer = 6, Inner = 32;
  std::vector<std::atomic<int>> Counts(Outer * Inner);
  for (auto &C : Counts)
    C.store(0, std::memory_order_relaxed);
  S.run(Outer, [&](std::size_t O, std::size_t) {
    S.run(Inner, [&](std::size_t I, std::size_t) {
      Counts[O * Inner + I].fetch_add(1, std::memory_order_relaxed);
    });
  });
  for (std::size_t I = 0; I < Counts.size(); ++I)
    EXPECT_EQ(Counts[I].load(), 1) << "nested task " << I;
}

TEST(SchedulerTest, ConcurrentExternalSubmitters) {
  // Independent resident sessions sharing one program pool: several
  // external threads submit jobs concurrently; each job's barrier must
  // release only after its own tasks ran, exactly once each.
  Scheduler S(4);
  constexpr std::size_t NumSubmitters = 4, Rounds = 25, Tasks = 16;
  std::vector<std::thread> Submitters;
  std::vector<std::atomic<std::uint64_t>> Sums(NumSubmitters);
  for (auto &Sum : Sums)
    Sum.store(0, std::memory_order_relaxed);
  for (std::size_t T = 0; T < NumSubmitters; ++T)
    Submitters.emplace_back([&, T] {
      for (std::size_t R = 0; R < Rounds; ++R)
        S.run(Tasks, [&](std::size_t Task, std::size_t) {
          Sums[T].fetch_add(Task + 1, std::memory_order_relaxed);
        });
    });
  for (std::thread &T : Submitters)
    T.join();
  const std::uint64_t PerRound = Tasks * (Tasks + 1) / 2;
  for (std::size_t T = 0; T < NumSubmitters; ++T)
    EXPECT_EQ(Sums[T].load(), Rounds * PerRound) << "submitter " << T;
}

TEST(SchedulerTest, ManySmallJobsReuseTheWarmPool) {
  // The resident-serving pattern: hundreds of small jobs on one pool.
  // Guards job-slot recycling — a stale slot entry would misroute a task.
  Scheduler S(3);
  for (int Round = 0; Round < 300; ++Round) {
    const std::vector<int> Counts = countedRun(S, 3);
    for (std::size_t I = 0; I < Counts.size(); ++I)
      ASSERT_EQ(Counts[I], 1) << "round " << Round << " task " << I;
  }
}

TEST(SchedulerTest, DetachedSubmitsAllExecute) {
  // The serving-dispatch path: fire-and-forget jobs with no join barrier.
  // Every submitted closure must run exactly once, from any submitter
  // thread, interleaved with fork-join run() calls on the same pool.
  Scheduler S(4);
  constexpr std::size_t NumJobs = 500;
  std::atomic<std::size_t> Ran{0};
  std::vector<std::atomic<int>> PerJob(NumJobs);
  for (auto &C : PerJob)
    C.store(0, std::memory_order_relaxed);
  for (std::size_t I = 0; I < NumJobs; ++I)
    S.submit([&, I] {
      PerJob[I].fetch_add(1, std::memory_order_relaxed);
      Ran.fetch_add(1, std::memory_order_acq_rel);
    });
  // A barrier job on the same pool must not starve behind the detached
  // backlog, and vice versa.
  S.run(16, [](std::size_t, std::size_t) {});
  while (Ran.load(std::memory_order_acquire) < NumJobs)
    std::this_thread::yield();
  for (std::size_t I = 0; I < NumJobs; ++I)
    EXPECT_EQ(PerJob[I].load(), 1) << "detached job " << I;
}

TEST(SchedulerTest, DetachedSubmitFromWorkerAndExternalThreads) {
  // submit() from inside a task (a worker thread) takes the own-deque
  // path; from outside it goes through the injection queue. Both must
  // execute exactly once.
  Scheduler S(3);
  constexpr std::size_t Outer = 24;
  std::atomic<std::size_t> Ran{0};
  S.run(Outer, [&](std::size_t, std::size_t) {
    S.submit([&] { Ran.fetch_add(1, std::memory_order_acq_rel); });
  });
  std::thread External([&] {
    for (int I = 0; I < 10; ++I)
      S.submit([&] { Ran.fetch_add(1, std::memory_order_acq_rel); });
  });
  External.join();
  while (Ran.load(std::memory_order_acquire) < Outer + 10)
    std::this_thread::yield();
  EXPECT_EQ(Ran.load(), Outer + 10);
}

TEST(SchedulerTest, SingleThreadedSubmitRunsInline) {
  Scheduler S(1);
  bool Ran = false;
  S.submit([&] { Ran = true; });
  EXPECT_TRUE(Ran) << "no workers: submit must execute inline";
}

TEST(SchedulerTest, SubmitWakesTheIdleWorkerEveryRoundTrip) {
  // The serving pattern: an external thread submits one job and waits for
  // it, so the lone worker goes idle before every submit. The waiter
  // spins, so each submit lands while the worker is still on its way from
  // the failed poll to its wait; a notify lost in that gap leaves the job
  // queued with the worker asleep (the idle wait has no timeout), which
  // trips the watchdog.
  constexpr std::uint64_t RoundTrips = 20000;
  std::atomic<std::uint64_t> Done{0};
  Scheduler S(2); // one worker
  for (std::uint64_t I = 0; I < RoundTrips; ++I) {
    S.submit([&] { Done.fetch_add(1, std::memory_order_release); });
    const auto Deadline =
        std::chrono::steady_clock::now() + std::chrono::seconds(10);
    while (Done.load(std::memory_order_acquire) != I + 1) {
      ASSERT_LT(std::chrono::steady_clock::now(), Deadline)
          << "round trip " << I << " was never executed";
      std::this_thread::yield();
    }
  }
  const SchedulerTelemetry T = S.telemetry();
  EXPECT_EQ(T.ExecutedInjected + T.ExecutedStolen + T.ExecutedOwn,
            RoundTrips);
  EXPECT_EQ(T.QueueDepth, 0u);
}

TEST(SchedulerTest, TasksSeeSubmitterSideEffects) {
  // The fork-join barrier: writes made before run() are visible to every
  // task, and every task's writes are visible after run() returns.
  Scheduler S(4);
  constexpr std::size_t N = 128;
  std::vector<std::uint64_t> In(N), Out(N, 0);
  for (std::size_t I = 0; I < N; ++I)
    In[I] = I * I + 1;
  S.run(N, [&](std::size_t Task, std::size_t) { Out[Task] = In[Task]; });
  EXPECT_EQ(Out, In);
}

} // namespace
