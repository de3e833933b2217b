#include "core/instance.h"

#include <gtest/gtest.h>

#include <atomic>
#include <functional>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "data/io.h"
#include "tests/paper_example.h"

namespace gepc {
namespace {

using testing_support::MakePaperInstance;

TEST(InstanceTest, PaperInstanceDimensions) {
  const Instance instance = MakePaperInstance();
  EXPECT_EQ(instance.num_users(), 5);
  EXPECT_EQ(instance.num_events(), 4);
}

TEST(InstanceTest, PaperInstanceValidates) {
  EXPECT_TRUE(MakePaperInstance().Validate().ok());
}

TEST(InstanceTest, UtilityMatrixRoundTrips) {
  Instance instance = MakePaperInstance();
  EXPECT_DOUBLE_EQ(instance.utility(0, 0), 0.7);
  EXPECT_DOUBLE_EQ(instance.utility(4, 3), 0.7);
  instance.set_utility(2, 1, 0.25);
  EXPECT_DOUBLE_EQ(instance.utility(2, 1), 0.25);
}

TEST(InstanceTest, DistancesMatchGeometry) {
  const Instance instance = MakePaperInstance();
  EXPECT_NEAR(instance.UserEventDistance(0, 0), std::sqrt(17.0), 1e-12);
  EXPECT_NEAR(instance.EventEventDistance(0, 1), std::sqrt(41.0), 1e-12);
}

TEST(InstanceTest, ConflictsMatchPaperExample) {
  const Instance instance = MakePaperInstance();
  EXPECT_TRUE(instance.EventsConflict(0, 2));   // e1 / e3 overlap
  EXPECT_TRUE(instance.EventsConflict(1, 3));   // e2 / e4 touch
  EXPECT_FALSE(instance.EventsConflict(0, 1));
  EXPECT_FALSE(instance.EventsConflict(2, 3));
}

TEST(InstanceTest, SetEventTimeInvalidatesConflictCache) {
  Instance instance = MakePaperInstance();
  EXPECT_FALSE(instance.EventsConflict(0, 1));
  // Move e1 on top of e2.
  ASSERT_TRUE(instance.set_event_time(0, {16 * 60, 17 * 60}).ok());
  EXPECT_TRUE(instance.EventsConflict(0, 1));
  EXPECT_FALSE(instance.EventsConflict(0, 2));
}

TEST(InstanceTest, SetEventTimeRejectsEmptyInterval) {
  Instance instance = MakePaperInstance();
  EXPECT_EQ(instance.set_event_time(0, {100, 100}).code(),
            StatusCode::kInvalidArgument);
  EXPECT_EQ(instance.set_event_time(99, {0, 10}).code(),
            StatusCode::kOutOfRange);
}

TEST(InstanceTest, SetEventBoundsValidation) {
  Instance instance = MakePaperInstance();
  EXPECT_TRUE(instance.set_event_bounds(0, 2, 3).ok());
  EXPECT_EQ(instance.event(0).lower_bound, 2);
  EXPECT_EQ(instance.set_event_bounds(0, 4, 3).code(),
            StatusCode::kInvalidArgument);
  EXPECT_EQ(instance.set_event_bounds(0, -1, 3).code(),
            StatusCode::kInvalidArgument);
  EXPECT_EQ(instance.set_event_bounds(-1, 0, 1).code(),
            StatusCode::kOutOfRange);
}

TEST(InstanceTest, SetUserBudget) {
  Instance instance = MakePaperInstance();
  instance.set_user_budget(0, 99.0);
  EXPECT_DOUBLE_EQ(instance.user(0).budget, 99.0);
}

TEST(InstanceTest, AddEventGrowsMatrixAndPreservesUtilities) {
  Instance instance = MakePaperInstance();
  Event extra;
  extra.location = {0, 0};
  extra.lower_bound = 0;
  extra.upper_bound = 2;
  extra.time = {21 * 60, 22 * 60};
  const EventId id = instance.AddEvent(extra, {0.1, 0.2, 0.3, 0.4, 0.5});
  EXPECT_EQ(id, 4);
  EXPECT_EQ(instance.num_events(), 5);
  EXPECT_DOUBLE_EQ(instance.utility(0, 4), 0.1);
  EXPECT_DOUBLE_EQ(instance.utility(4, 4), 0.5);
  // Old utilities untouched.
  EXPECT_DOUBLE_EQ(instance.utility(0, 0), 0.7);
  EXPECT_DOUBLE_EQ(instance.utility(4, 3), 0.7);
  // New event participates in the conflict relation.
  EXPECT_FALSE(instance.EventsConflict(4, 3));
}

TEST(InstanceTest, ValidateRejectsNegativeBudget) {
  Instance instance({{{0, 0}, -1.0}}, {{{0, 0}, 0, 1, {0, 10}}});
  EXPECT_EQ(instance.Validate().code(), StatusCode::kInvalidArgument);
}

TEST(InstanceTest, ValidateRejectsBadEventBounds) {
  Instance instance({{{0, 0}, 1.0}}, {{{0, 0}, 3, 1, {0, 10}}});
  EXPECT_EQ(instance.Validate().code(), StatusCode::kInvalidArgument);
}

TEST(InstanceTest, ValidateRejectsLowerBoundAboveUserCount) {
  Instance instance({{{0, 0}, 1.0}}, {{{0, 0}, 5, 9, {0, 10}}});
  EXPECT_EQ(instance.Validate().code(), StatusCode::kInfeasible);
}

TEST(InstanceTest, ValidateRejectsNegativeUtility) {
  Instance instance({{{0, 0}, 1.0}}, {{{0, 0}, 0, 1, {0, 10}}});
  instance.set_utility(0, 0, -0.5);
  EXPECT_EQ(instance.Validate().code(), StatusCode::kInvalidArgument);
}

TEST(InstanceTest, TotalLowerBoundSumsXi) {
  EXPECT_EQ(MakePaperInstance().TotalLowerBound(), 1 + 2 + 3 + 1);
}

TEST(InstanceTest, CopyIsIndependent) {
  Instance a = MakePaperInstance();
  Instance b = a;
  b.set_utility(0, 0, 0.0);
  ASSERT_TRUE(b.set_event_time(0, {1, 2}).ok());
  EXPECT_DOUBLE_EQ(a.utility(0, 0), 0.7);
  EXPECT_EQ(a.event(0).time.start, 13 * 60);
  EXPECT_TRUE(a.EventsConflict(0, 2));
  EXPECT_FALSE(b.EventsConflict(0, 2));

  // A copy shares the utility matrix and the conflict graph with its
  // original, so mutating the *original* must not reach the copy either.
  const auto serialize = [](const Instance& instance) {
    std::ostringstream out;
    EXPECT_TRUE(SaveInstance(instance, out).ok());
    for (int x = 0; x < instance.num_events(); ++x) {
      for (int y = 0; y < instance.num_events(); ++y) {
        out << instance.EventsConflict(x, y);
      }
    }
    return out.str();
  };
  const std::string pristine = serialize(MakePaperInstance());
  const std::vector<std::function<void(Instance*)>> mutators = {
      [](Instance* i) { i->set_utility(1, 2, 0.05); },
      [](Instance* i) { i->set_user_budget(2, 1.5); },
      [](Instance* i) { ASSERT_TRUE(i->set_event_bounds(3, 0, 1).ok()); },
      [](Instance* i) { ASSERT_TRUE(i->set_event_time(0, {1, 2}).ok()); },
      [](Instance* i) { i->set_event_location(1, {9.0, 9.0}); },
      [](Instance* i) {
        Event event;
        event.time = {13 * 60, 14 * 60};
        i->AddEvent(event, std::vector<double>(
                               static_cast<size_t>(i->num_users()), 0.3));
      },
  };
  for (size_t k = 0; k < mutators.size(); ++k) {
    Instance original = MakePaperInstance();
    const Instance copy = original;
    mutators[k](&original);
    EXPECT_NE(serialize(original), pristine) << "mutator " << k;
    EXPECT_EQ(serialize(copy), pristine) << "mutator " << k;
  }
}

// Once another thread has read through a copy and dropped it, set_utility
// writes in place. The flag is deliberately relaxed, so only set_utility's
// own uniqueness check can order that write after the reader's last read;
// TSan reports a race if it does not.
TEST(InstanceTest, WriteAfterCopyDroppedOnAnotherThread) {
  for (int round = 0; round < 20; ++round) {
    Instance original = MakePaperInstance();
    std::atomic<bool> dropped{false};
    double seen = 0.0;
    std::thread reader([copy = original, &dropped, &seen]() mutable {
      seen = copy.utility(0, 0);
      copy = Instance();
      dropped.store(true, std::memory_order_relaxed);
    });
    while (!dropped.load(std::memory_order_relaxed)) {
      std::this_thread::yield();
    }
    original.set_utility(0, 0, 0.25);
    reader.join();
    EXPECT_DOUBLE_EQ(seen, 0.7);
    EXPECT_DOUBLE_EQ(original.utility(0, 0), 0.25);
  }
}

}  // namespace
}  // namespace gepc
