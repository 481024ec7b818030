// EventQueue against a reference model + slab-pool recycling.
//
// The queue's contract is a (time, FIFO) total order under any
// interleaving of push / cancel / pop.  The randomized scripts drive the
// queue and a deliberately naive model — a live list of (time, push
// order, tag) scanned for its minimum — side by side and demand identical
// event streams, then the pool tests pin the slot-recycling rules
// (bounded slab, generation-guarded ids) directly.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <vector>

#include "event/event_queue.hpp"
#include "util/rng.hpp"

namespace cyclops {
namespace {

using event::Event;
using event::EventQueue;
using Id = EventQueue::Id;

Event make_event(util::SimTimeUs time, std::int64_t tag) {
  Event ev;
  ev.time = time;
  ev.type = 7;
  ev.i64 = tag;
  return ev;
}

/// The reference: every live event with its push order; pop scans for
/// the earliest (time, order).
struct ModelEntry {
  util::SimTimeUs time = 0;
  std::uint64_t order = 0;
  std::int64_t tag = 0;
  Id id = 0;  ///< the queue's handle for the same event
};

/// Runs one randomized op script against the queue and the model.  Ops:
/// push, cancel (live or already fired), supersede — the multi_tx apply
/// pattern: cancel a pending event, then push its replacement at an
/// earlier or equal time — and pop.
void run_model_script(std::uint64_t seed, double cancel_bias) {
  util::Rng rng(seed);
  EventQueue q;
  std::vector<ModelEntry> live;
  std::vector<Id> fired;  // popped or cancelled ids; must stay dead
  util::SimTimeUs now = 0;
  std::uint64_t next_order = 0;
  std::int64_t next_tag = 0;

  const auto push = [&](util::SimTimeUs t) {
    const std::int64_t tag = next_tag++;
    const Id id = q.push(make_event(t, tag));
    live.push_back(ModelEntry{t, next_order++, tag, id});
  };
  const auto model_pop = [&]() {
    const auto it = std::min_element(
        live.begin(), live.end(),
        [](const ModelEntry& a, const ModelEntry& b) {
          return a.time != b.time ? a.time < b.time : a.order < b.order;
        });
    const ModelEntry top = *it;
    live.erase(it);
    return top;
  };

  for (int op = 0; op < 4000; ++op) {
    const double r = rng.uniform();
    if (r < 0.45 || live.empty()) {
      // Mixed offsets with frequent duplicate times (the FIFO tie-break
      // is the property most worth hammering).
      push(now + static_cast<util::SimTimeUs>(rng.uniform_index(48)));
    } else if (r < 0.45 + cancel_bias) {
      const std::size_t pick = rng.uniform_index(live.size());
      ASSERT_TRUE(q.cancel(live[pick].id));
      fired.push_back(live[pick].id);
      live.erase(live.begin() + static_cast<std::ptrdiff_t>(pick));
    } else if (r < 0.45 + cancel_bias + 0.15) {
      // Supersede: the replacement lands no later than the event it
      // replaces, so it must overtake anything pending in between.
      const std::size_t pick = rng.uniform_index(live.size());
      const util::SimTimeUs old_time = live[pick].time;
      ASSERT_TRUE(q.cancel(live[pick].id));
      fired.push_back(live[pick].id);
      live.erase(live.begin() + static_cast<std::ptrdiff_t>(pick));
      push(now + static_cast<util::SimTimeUs>(
                     rng.uniform_index(static_cast<std::size_t>(
                         old_time - now + 1))));
    } else if (r < 0.45 + cancel_bias + 0.18 && !fired.empty()) {
      // Cancelling a fired or cancelled timer is a harmless no-op.
      ASSERT_FALSE(q.cancel(fired[rng.uniform_index(fired.size())]));
    } else {
      const ModelEntry want = model_pop();
      Event got;
      ASSERT_TRUE(q.pop_next(got));
      ASSERT_EQ(got.time, want.time);
      ASSERT_EQ(got.i64, want.tag);
      ASSERT_GE(got.time, now);  // pops are monotone
      ASSERT_FALSE(q.pending(want.id));
      fired.push_back(want.id);
      now = got.time;
    }
    ASSERT_EQ(q.size(), live.size());
    ASSERT_EQ(q.empty(), live.empty());
  }

  // Drain and compare the full remaining stream.
  Event got;
  while (!live.empty()) {
    const ModelEntry want = model_pop();
    ASSERT_TRUE(q.pop_next(got));
    ASSERT_EQ(got.time, want.time);
    ASSERT_EQ(got.i64, want.tag);
  }
  ASSERT_FALSE(q.pop_next(got));
  for (const Id id : fired) ASSERT_FALSE(q.pending(id));
}

TEST(EventQueueEquivalence, RandomizedScriptsMatchReferenceModel) {
  for (std::uint64_t seed = 1; seed <= 8; ++seed) {
    run_model_script(seed, /*cancel_bias=*/0.10);
  }
}

TEST(EventQueueEquivalence, CancelHeavyScriptsMatchReferenceModel) {
  for (std::uint64_t seed = 100; seed <= 104; ++seed) {
    run_model_script(seed, /*cancel_bias=*/0.30);
  }
}

TEST(EventQueueEquivalence, FifoOrderPreservedForEqualTimes) {
  EventQueue q;
  for (std::int64_t i = 0; i < 64; ++i) q.push(make_event(10, i));
  Event ev;
  for (std::int64_t i = 0; i < 64; ++i) {
    ASSERT_TRUE(q.pop_next(ev));
    EXPECT_EQ(ev.i64, i) << "queue broke FIFO among equal times";
  }
}

TEST(EventQueueEquivalence, FarApartSingleTimerChain) {
  // Single-pending-timer chains (the event_eval shape): each push lands
  // in an empty queue at a time arbitrarily far past the previous one.
  // Pops must track exactly.
  EventQueue q;
  util::SimTimeUs t = 0;
  util::Rng rng(9);
  Event ev;
  for (int i = 0; i < 1000; ++i) {
    t += static_cast<util::SimTimeUs>(1 + rng.uniform_index(1u << 14));
    q.push(make_event(t, i));
    ASSERT_TRUE(q.pop_next(ev));
    EXPECT_EQ(ev.time, t);
    EXPECT_EQ(ev.i64, i);
    EXPECT_TRUE(q.empty());
  }
}

TEST(EventQueuePool, SlabStaysBoundedUnderChurn) {
  EventQueue q;
  Event ev;
  util::SimTimeUs t = 0;
  for (int i = 0; i < 64; ++i) q.push(make_event(t + i, i));
  // Steady-state churn recycles freed slots; the slab must not grow past
  // the high-water mark of concurrently-live events.
  for (int i = 0; i < 10000; ++i) {
    ASSERT_TRUE(q.pop_next(ev));
    q.push(make_event(ev.time + 64, ev.i64));
  }
  EXPECT_LE(q.pool_slots(), 64u) << "pool leaked slots under churn";
}

TEST(EventQueuePool, StaleIdNeverResurrectsRecycledSlot) {
  EventQueue q;
  const Id dead = q.push(make_event(5, 1));
  ASSERT_TRUE(q.cancel(dead));
  // The freed slot is recycled by the next push; the old id's generation
  // no longer matches.
  const Id heir = q.push(make_event(6, 2));
  ASSERT_NE(dead, heir);
  EXPECT_FALSE(q.pending(dead));
  EXPECT_FALSE(q.cancel(dead)) << "stale id cancelled the new occupant";
  EXPECT_TRUE(q.pending(heir));
  Event ev;
  ASSERT_TRUE(q.pop_next(ev));
  EXPECT_EQ(ev.i64, 2);
  // Popped ids go stale the same way cancelled ones do.
  EXPECT_FALSE(q.cancel(heir));
  EXPECT_TRUE(q.empty());
}

TEST(EventQueuePool, GenerationSurvivesManyRecycles) {
  EventQueue q;
  std::vector<Id> history;
  for (int i = 0; i < 256; ++i) {
    const Id id = q.push(make_event(i, i));
    history.push_back(id);
    ASSERT_TRUE(q.cancel(id));
  }
  // One slot, recycled 256 times: every historical id must now be dead.
  EXPECT_EQ(q.pool_slots(), 1u);
  for (const Id id : history) EXPECT_FALSE(q.pending(id));
}

TEST(EventQueuePool, ClearKeepsSlabAndRestartsLikeFresh) {
  EventQueue q;
  std::vector<Id> ids;
  for (int i = 0; i < 48; ++i) ids.push_back(q.push(make_event(i * 3, i)));
  const std::size_t slab = q.pool_slots();
  q.clear();
  EXPECT_TRUE(q.empty());
  EXPECT_EQ(q.size(), 0u);
  EXPECT_EQ(q.pool_slots(), slab) << "clear() must keep the slab";
  // Every pre-clear id is dead: no pending hits, no cancels of the slots'
  // new occupants.
  for (const Id id : ids) EXPECT_FALSE(q.pending(id));
  for (const Id id : ids) EXPECT_FALSE(q.cancel(id));
  // The reused queue is observationally a fresh one: same (time, FIFO)
  // pop order for the same pushes, including equal-time ties.
  EventQueue fresh;
  for (int i = 0; i < 48; ++i) {
    const util::SimTimeUs t = 1000 + (i % 4) * 10;
    q.push(make_event(t, i));
    fresh.push(make_event(t, i));
  }
  Event a, b;
  while (fresh.pop_next(b)) {
    ASSERT_TRUE(q.pop_next(a));
    EXPECT_EQ(a.time, b.time);
    EXPECT_EQ(a.i64, b.i64);
  }
  EXPECT_TRUE(q.empty());
}

}  // namespace
}  // namespace cyclops
