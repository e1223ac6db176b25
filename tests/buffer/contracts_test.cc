// Death tests for the runtime contract checks (buffer/contracts.h,
// util/dcheck.h): each check must actually abort on a violation, and the
// checks must be live on the real pin/eviction/stats paths. These are
// the runtime mirror of the compile-time thread-safety annotations — see
// the "Static analysis" section of DESIGN.md.

#include "buffer/contracts.h"

#include <gtest/gtest.h>

#include <memory>

#include "buffer/buffer_pool.h"
#include "serve/concurrent_buffer_pool.h"
#include "test_disk.h"
#include "util/dcheck.h"

namespace irbuf::buffer {
namespace {

#if defined(IRBUF_ENABLE_DCHECKS)

class ContractsDeathTest : public ::testing::Test {
 protected:
  void SetUp() override {
    // The serving pool spawns no threads here, but the default "fast"
    // death-test style is documented unsafe once any thread exists.
    ::testing::FLAGS_gtest_death_test_style = "threadsafe";
  }
};

TEST_F(ContractsDeathTest, DcheckAbortsOnFalseCondition) {
  EXPECT_DEATH(IRBUF_DCHECK(1 + 1 == 3, "arithmetic broke"),
               "arithmetic broke");
}

TEST_F(ContractsDeathTest, DcheckPassesOnTrueCondition) {
  IRBUF_DCHECK(1 + 1 == 2, "never printed");  // Must not abort.
}

TEST_F(ContractsDeathTest, PinReleaseCheckFiresOnUnderflow) {
  EXPECT_DEATH(contracts::CheckPinRelease(0), "no outstanding pins");
  contracts::CheckPinRelease(1);  // A held pin releases fine.
}

TEST_F(ContractsDeathTest, VictimCheckFiresOnPinnedFrame) {
  EXPECT_DEATH(contracts::CheckVictimEvictable(/*occupied=*/true, /*pins=*/2),
               "pinned frame");
  EXPECT_DEATH(contracts::CheckVictimEvictable(/*occupied=*/false, /*pins=*/0),
               "unoccupied frame");
  contracts::CheckVictimEvictable(true, 0);  // A legal victim passes.
}

TEST_F(ContractsDeathTest, StatsConservationCheckFiresOnImbalance) {
  EXPECT_DEATH(contracts::CheckStatsConservation(10, 4, 5),
               "fetches != hits \\+ misses");
  contracts::CheckStatsConservation(10, 4, 6);
}

TEST_F(ContractsDeathTest, DiskReadConservationCheckFiresOnImbalance) {
  // An unaccounted device read (the duplicate-read bug class)...
  EXPECT_DEATH(contracts::CheckDiskReadConservation(/*misses=*/5,
                                                    /*prefetch_reads=*/2,
                                                    /*device_reads=*/8),
               "device-read conservation violated");
  // ...and a read counted but never issued both trip it.
  EXPECT_DEATH(contracts::CheckDiskReadConservation(5, 2, 6),
               "device-read conservation violated");
  contracts::CheckDiskReadConservation(5, 2, 7);  // Balanced passes.
}

// The checks are wired into the real pin lifecycle: releasing more
// guards than pins aborts inside ConcurrentBufferPool::Unpin.
TEST_F(ContractsDeathTest, DoubleReleaseOnServingPoolDies) {
  EXPECT_DEATH(
      {
        auto disk = MakeTestDisk({2});
        serve::ConcurrentPoolOptions options;
        options.capacity = 2;
        serve::ConcurrentBufferPool pool(disk.get(), options);
        auto pinned = pool.FetchPinned(PageId{0, 0});
        ASSERT_TRUE(pinned.ok());
        // A guard forged on the same frame without its own pin: the
        // second release underflows the count.
        PinnedPage forged(&pool, pinned.value().get(),
                          pinned.value().frame(), /*was_miss=*/false);
        forged.Release();          // pins 1 -> 0.
        pinned.value().Release();  // pins 0 -> contract violation.
      },
      "no outstanding pins");
}

// Destroying the serving pool with a live guard violates the quiescence
// contract.
TEST_F(ContractsDeathTest, PoolDestructionWithLivePinDies) {
  EXPECT_DEATH(
      {
        auto disk = MakeTestDisk({2});
        serve::ConcurrentPoolOptions options;
        options.capacity = 2;
        auto pool =
            std::make_unique<serve::ConcurrentBufferPool>(disk.get(), options);
        auto pinned = pool->FetchPinned(PageId{0, 0});
        ASSERT_TRUE(pinned.ok());
        pool.reset();  // Outstanding pin -> contract violation.
        pinned.value().Release();
      },
      "outstanding pins");
}

// So does destroying it while a query still holds a lease.
TEST_F(ContractsDeathTest, PoolDestructionWithLiveLeaseDies) {
  EXPECT_DEATH(
      {
        auto disk = MakeTestDisk({2});
        auto pool = std::make_unique<serve::ConcurrentBufferPool>(
            disk.get(), serve::ConcurrentPoolOptions{});
        QueryLease lease = pool->BeginQuery(QueryContext{});
        pool.reset();  // Live lease -> contract violation.
        lease.End();
      },
      "live query leases");
}

#else

TEST(ContractsDeathTest, SkippedWithoutDchecks) {
  GTEST_SKIP() << "built with IRBUF_DCHECKS=OFF";
}

#endif  // IRBUF_ENABLE_DCHECKS

}  // namespace
}  // namespace irbuf::buffer
