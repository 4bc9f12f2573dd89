// SearchControl: cancellation latches, deadlines (including already-expired
// ones) latch, the first reason wins for every observer, incumbent events are
// gated to strictly improving quality, and ticks are rate limited.
#include <gtest/gtest.h>

#include <limits>
#include <thread>
#include <vector>

#include "common/check.h"
#include "core/search_control.h"

namespace fsbb::core {
namespace {

TEST(StopReason, ToStringCoversEveryReason) {
  EXPECT_STREQ(to_string(StopReason::kOptimal), "optimal");
  EXPECT_STREQ(to_string(StopReason::kCanceled), "canceled");
  EXPECT_STREQ(to_string(StopReason::kDeadline), "deadline");
  EXPECT_STREQ(to_string(StopReason::kBudget), "budget");
  EXPECT_STREQ(to_string(StopReason::kFrozen), "frozen");
}

TEST(SearchControl, RunsFreelyWithoutCancelOrDeadline) {
  SearchControl control;
  EXPECT_FALSE(control.should_stop().has_value());
  EXPECT_FALSE(control.cancel_requested());
  EXPECT_FALSE(control.has_deadline());
  EXPECT_FALSE(control.should_stop().has_value());
}

TEST(SearchControl, CancelLatchesForever) {
  SearchControl control;
  control.request_cancel();
  EXPECT_TRUE(control.cancel_requested());
  ASSERT_TRUE(control.should_stop().has_value());
  EXPECT_EQ(*control.should_stop(), StopReason::kCanceled);
  // Latched: still canceled on every later poll.
  EXPECT_EQ(*control.should_stop(), StopReason::kCanceled);
}

TEST(SearchControl, ZeroDeadlineStopsTheVeryFirstPoll) {
  SearchControl control;
  control.set_deadline_after(0);
  EXPECT_TRUE(control.has_deadline());
  ASSERT_TRUE(control.should_stop().has_value());
  EXPECT_EQ(*control.should_stop(), StopReason::kDeadline);
}

TEST(SearchControl, FutureDeadlineDoesNotStopYet) {
  SearchControl control;
  control.set_deadline_after(3600.0);  // one hour: never reached in-test
  EXPECT_FALSE(control.should_stop().has_value());
  // 1e10 s (~317 years) overflows the clock's int64 nanoseconds; it must
  // mean "no deadline", not wrap into the past and stop at once.
  control.set_deadline_after(1e10);
  EXPECT_FALSE(control.has_deadline());
  EXPECT_FALSE(control.should_stop().has_value());
}

TEST(SearchControl, FirstReasonWinsAcrossThreads) {
  // A past deadline and a cancel race; whatever latches first must be
  // reported identically to every poller afterwards.
  SearchControl control;
  control.set_deadline_after(0);
  control.request_cancel();
  const StopReason first = *control.should_stop();
  std::vector<std::thread> pollers;
  std::vector<StopReason> seen(8, StopReason::kOptimal);
  for (int i = 0; i < 8; ++i) {
    pollers.emplace_back([&control, &seen, i] {
      seen[static_cast<std::size_t>(i)] = *control.should_stop();
    });
  }
  for (std::thread& t : pollers) t.join();
  for (const StopReason reason : seen) EXPECT_EQ(reason, first);
}

TEST(SearchControl, IncumbentEventsAreStrictlyImproving) {
  SearchControl control;
  std::vector<SearchEvent> events;
  control.set_sink([&events](const SearchEvent& e) { events.push_back(e); });

  const std::vector<fsp::JobId> perm{2, 0, 1};
  control.emit_incumbent(100, perm, 1, 1, 0);
  control.emit_incumbent(120, perm, 2, 2, 0);  // worse: dropped
  control.emit_incumbent(100, perm, 3, 3, 0);  // equal: dropped
  control.emit_incumbent(90, perm, 4, 4, 0);

  ASSERT_EQ(events.size(), 2u);
  EXPECT_EQ(events[0].kind, SearchEvent::Kind::kIncumbent);
  EXPECT_EQ(events[0].incumbent, 100);
  EXPECT_EQ(events[0].permutation, perm);
  EXPECT_EQ(events[1].incumbent, 90);
  EXPECT_GE(events[1].elapsed_seconds, events[0].elapsed_seconds);
}

TEST(SearchControl, TicksAreRateLimited) {
  SearchControl control;
  int ticks = 0;
  control.set_sink([&ticks](const SearchEvent& e) {
                     if (e.kind == SearchEvent::Kind::kTick) ++ticks;
                   },
                   /*min_tick_seconds=*/3600.0);
  for (int i = 0; i < 100; ++i) control.maybe_emit_tick(50, i, i, i);
  EXPECT_EQ(ticks, 1);  // only the first one fits in the hour-long window
}

TEST(SearchControl, ZeroIntervalTicksAllPass) {
  SearchControl control;
  int ticks = 0;
  control.set_sink([&ticks](const SearchEvent& e) {
                     if (e.kind == SearchEvent::Kind::kTick) ++ticks;
                   },
                   /*min_tick_seconds=*/0);
  for (int i = 0; i < 10; ++i) control.maybe_emit_tick(50, i, i, i);
  EXPECT_EQ(ticks, 10);
}

TEST(StopReason, ParseRoundTripsEveryReason) {
  for (const StopReason r :
       {StopReason::kOptimal, StopReason::kCanceled, StopReason::kDeadline,
        StopReason::kBudget, StopReason::kFrozen}) {
    EXPECT_EQ(parse_stop_reason(to_string(r)), r);
  }
}

TEST(StopReason, ParseRejectsUnknownText) {
  EXPECT_THROW(parse_stop_reason("bogus"), CheckFailure);
  EXPECT_THROW(parse_stop_reason(""), CheckFailure);
  EXPECT_THROW(parse_stop_reason("Optimal"), CheckFailure);  // case-sensitive
}

TEST(SearchControl, ExternalIncumbentDefaultsToNoBound) {
  SearchControl control;
  EXPECT_EQ(control.external_incumbent(),
            std::numeric_limits<fsp::Time>::max());
}

TEST(SearchControl, OfferIncumbentKeepsTheTightestBound) {
  SearchControl control;
  control.offer_incumbent(200);
  EXPECT_EQ(control.external_incumbent(), 200);
  control.offer_incumbent(300);  // looser: ignored
  EXPECT_EQ(control.external_incumbent(), 200);
  control.offer_incumbent(150);
  EXPECT_EQ(control.external_incumbent(), 150);
}

TEST(SearchControl, ConcurrentOffersConvergeToTheMinimum) {
  SearchControl control;
  std::vector<std::thread> threads;
  for (int t = 0; t < 4; ++t) {
    threads.emplace_back([&control, t] {
      for (fsp::Time v = 1000 - t; v >= 100; v -= 4) {
        control.offer_incumbent(v);
      }
    });
  }
  for (std::thread& t : threads) t.join();
  EXPECT_EQ(control.external_incumbent(), 100);
}

TEST(SearchControl, EventsWithoutSinkAreNoOps) {
  SearchControl control;
  const std::vector<fsp::JobId> perm{0};
  control.emit_incumbent(10, perm, 0, 0, 0);  // must not crash
  control.maybe_emit_tick(10, 0, 0, 0);
  EXPECT_FALSE(control.should_stop().has_value());
}

}  // namespace
}  // namespace fsbb::core
