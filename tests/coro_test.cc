#include <gtest/gtest.h>

#include <numeric>

#include "src/coro/interleave.h"
#include "src/coro/native_workloads.h"
#include "src/coro/task.h"

namespace yieldhide::coro {
namespace {

Task<int> CountTo(int n) {
  int total = 0;
  for (int i = 1; i <= n; ++i) {
    total += i;
    co_await YieldNow{};
  }
  co_return total;
}

Task<void> Nothing() { co_return; }

TEST(TaskTest, RunsToCompletion) {
  Task<int> task = CountTo(4);
  EXPECT_FALSE(task.done());
  int resumes = 0;
  while (!task.done()) {
    task.Resume();
    ++resumes;
  }
  EXPECT_EQ(task.result(), 10);
  EXPECT_EQ(resumes, 5);  // 4 yields + final
}

TEST(TaskTest, VoidTask) {
  Task<void> task = Nothing();
  task.Resume();
  EXPECT_TRUE(task.done());
}

TEST(TaskTest, MoveTransfersOwnership) {
  Task<int> a = CountTo(1);
  Task<int> b = std::move(a);
  EXPECT_FALSE(a.valid());
  EXPECT_TRUE(b.valid());
  while (!b.done()) {
    b.Resume();
  }
  EXPECT_EQ(b.result(), 1);
}

TEST(InterleaveTest, AllTasksComplete) {
  std::vector<Task<int>> tasks;
  for (int i = 1; i <= 5; ++i) {
    tasks.push_back(CountTo(i));
  }
  const size_t resumes = InterleaveAll(tasks);
  int total = 0;
  for (auto& task : tasks) {
    EXPECT_TRUE(task.done());
    total += task.result();
  }
  EXPECT_EQ(total, 1 + 3 + 6 + 10 + 15);
  EXPECT_EQ(resumes, 5u + 4 + 3 + 2 + 1 + 5u);  // i yields each + 1 final each
}

TEST(InterleaveTest, SequentialMatchesInterleaved) {
  std::vector<Task<int>> a, b;
  for (int i = 1; i <= 4; ++i) {
    a.push_back(CountTo(i));
    b.push_back(CountTo(i));
  }
  InterleaveAll(a);
  RunSequential(b);
  for (int i = 0; i < 4; ++i) {
    EXPECT_EQ(a[i].result(), b[i].result());
  }
}

TEST(NativeDualModeTest, PrimaryFinishesScavengersBounded) {
  Task<int> primary = CountTo(10);
  std::vector<Task<int>> scavengers;
  for (int i = 0; i < 3; ++i) {
    scavengers.push_back(CountTo(1000));  // long-running batch work
  }
  const NativeDualModeStats stats = RunNativeDualMode(primary, scavengers, 2);
  EXPECT_TRUE(primary.done());
  EXPECT_EQ(primary.result(), 55);
  EXPECT_EQ(stats.primary_resumes, 11u);
  // Two scavenger resumes per primary suspension (10 suspensions).
  EXPECT_EQ(stats.scavenger_resumes, 20u);
  for (auto& task : scavengers) {
    EXPECT_FALSE(task.done());  // best-effort work left unfinished
  }
}

TEST(NativeDualModeTest, NoScavengersDegrades) {
  Task<int> primary = CountTo(3);
  std::vector<Task<int>> none;
  RunNativeDualMode(primary, none, 4);
  EXPECT_TRUE(primary.done());
  EXPECT_EQ(primary.result(), 6);
}

TEST(NativeDualModeTest, ScavengersCanFinish) {
  Task<int> primary = CountTo(100);
  std::vector<Task<int>> scavengers;
  scavengers.push_back(CountTo(2));
  const NativeDualModeStats stats = RunNativeDualMode(primary, scavengers, 1);
  EXPECT_EQ(stats.scavengers_finished, 1u);
  EXPECT_TRUE(scavengers[0].done());
}

// --- Native workloads -------------------------------------------------------------

TEST(NativeChaseTest, CoroMatchesPlain) {
  NativeChaseData data(1 << 12, 42);
  for (int task = 0; task < 4; ++task) {
    const uint32_t start = data.StartFor(task);
    const uint64_t plain = data.ChasePlain(start, 500);
    Task<uint64_t> coro = data.ChaseCoro(start, 500);
    while (!coro.done()) {
      coro.Resume();
    }
    EXPECT_EQ(coro.result(), plain);
  }
}

TEST(NativeChaseTest, InterleavedGroupMatchesPlain) {
  NativeChaseData data(1 << 12, 7);
  std::vector<Task<uint64_t>> tasks;
  std::vector<uint64_t> expected;
  for (int i = 0; i < 8; ++i) {
    tasks.push_back(data.ChaseCoro(data.StartFor(i), 300));
    expected.push_back(data.ChasePlain(data.StartFor(i), 300));
  }
  InterleaveAll(tasks);
  for (int i = 0; i < 8; ++i) {
    EXPECT_EQ(tasks[i].result(), expected[i]);
  }
}

TEST(NativeChaseTest, FullCyclePermutation) {
  NativeChaseData data(256, 3);
  // Sattolo guarantees a single cycle: walking 256 steps returns to start
  // and visits every node exactly once.
  const uint64_t sum_all = data.ChasePlain(0, 256);
  const uint64_t sum_twice = data.ChasePlain(0, 512);
  EXPECT_EQ(sum_twice, 2 * sum_all);
}

TEST(NativeHashTest, CoroMatchesPlain) {
  NativeHashData table(12, 0.5, 99);
  const auto keys = table.MakeKeys(1000, 0.7, 123);
  const uint64_t plain = table.ProbePlain(keys);
  Task<uint64_t> coro = table.ProbeCoro(keys);
  while (!coro.done()) {
    coro.Resume();
  }
  EXPECT_EQ(coro.result(), plain);
}

TEST(NativeHashTest, AllAbsentKeysSumZero) {
  NativeHashData table(10, 0.3, 5);
  const auto keys = table.MakeKeys(100, 0.0, 9);
  EXPECT_EQ(table.ProbePlain(keys), 0u);
}

TEST(NativeHashTest, HitFractionAffectsSum) {
  NativeHashData table(12, 0.5, 99);
  const auto all_hits = table.MakeKeys(500, 1.0, 1);
  const auto no_hits = table.MakeKeys(500, 0.0, 1);
  EXPECT_GT(table.ProbePlain(all_hits), 0u);
  EXPECT_EQ(table.ProbePlain(no_hits), 0u);
}

}  // namespace
}  // namespace yieldhide::coro
