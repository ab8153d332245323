/// Unit tests for the streaming coalescer (stream/coalescer.hpp): the
/// last-write-wins rule, the failure barrier, the task-name boundary, and
/// the survivor-index contract.

#include <gtest/gtest.h>

#include <string>
#include <utility>
#include <variant>

#include "lbmem/stream/coalescer.hpp"

namespace lbmem {
namespace {

Event at(Time when,
         std::variant<TaskArrival, TaskRemoval, WcetChange, ProcessorFailure>
             payload) {
  Event event;
  event.at = when;
  event.payload = std::move(payload);
  return event;
}

Event arrival(Time when, const std::string& name,
              std::vector<NewTaskSpec::Producer> producers = {}) {
  NewTaskSpec spec;
  spec.name = name;
  spec.period = 12;
  spec.wcet = 1;
  spec.memory = 2;
  spec.producers = std::move(producers);
  return at(when, TaskArrival{std::move(spec)});
}

using Survivors = std::vector<std::size_t>;

TEST(StreamCoalescer, EmptyAndSingletonPassThrough) {
  EXPECT_TRUE(coalesce_events({}).empty());
  EXPECT_EQ(coalesce_events({at(3, WcetChange{"a", 2})}), Survivors{0});
}

TEST(StreamCoalescer, LastWriteWinsKeepsOnlyTheNewestEstimate) {
  const std::vector<Event> batch{
      at(1, WcetChange{"a", 2}),
      at(2, WcetChange{"b", 3}),
      at(3, WcetChange{"a", 4}),
      at(4, WcetChange{"a", 5}),
  };
  // Order preserved: b's change (position 1) before a's last (position 3).
  EXPECT_EQ(coalesce_events(batch), (Survivors{1, 3}));
}

TEST(StreamCoalescer, FailureIsABarrier) {
  // The same WcetChange pair that would coalesce in one segment survives
  // when a failure sits between them; the failure itself always survives.
  const std::vector<Event> batch{
      at(1, WcetChange{"a", 2}),
      at(2, ProcessorFailure{1}),
      at(3, WcetChange{"a", 4}),
  };
  EXPECT_EQ(coalesce_events(batch), (Survivors{0, 1, 2}));
}

TEST(StreamCoalescer, ArrivalsAndRemovalsAreNeverCoalesced) {
  // Arrive-then-re-estimate, arrive-then-leave, re-estimate-then-leave and
  // an admission naming a queued task as producer all reach the engine
  // unchanged: only an estimate superseded by a newer estimate is dropped.
  const std::vector<Event> shapes{
      arrival(1, "dyn0"),
      at(2, WcetChange{"dyn0", 4}),
      arrival(3, "dyn1"),
      at(4, TaskRemoval{"dyn1"}),
      at(5, WcetChange{"a", 2}),
      at(6, TaskRemoval{"a"}),
      arrival(7, "dyn2"),
      arrival(8, "dyn3", {NewTaskSpec::Producer{"dyn2", 1}}),
      at(9, TaskRemoval{"dyn2"}),
  };
  EXPECT_EQ(coalesce_events(shapes),
            (Survivors{0, 1, 2, 3, 4, 5, 6, 7, 8}));

  // A removal and re-arrival end the name's run of estimates: the estimate
  // queued after the re-arrival does not supersede the one before the
  // removal, which targets the task that left.
  const std::vector<Event> reborn{
      at(1, WcetChange{"b", 2}),
      at(2, TaskRemoval{"b"}),
      arrival(3, "b"),
      at(4, WcetChange{"b", 5}),
  };
  EXPECT_EQ(coalesce_events(reborn), (Survivors{0, 1, 2, 3}));
}

TEST(StreamCoalescer, IsDeterministicAndIdempotent) {
  const std::vector<Event> batch{
      at(1, WcetChange{"a", 2}),  at(2, WcetChange{"a", 3}),
      arrival(3, "dyn0"),         at(4, WcetChange{"dyn0", 9}),
      at(5, ProcessorFailure{2}), at(6, WcetChange{"a", 4}),
      at(7, TaskRemoval{"dyn0"}), at(8, WcetChange{"dyn0", 3}),
      at(9, WcetChange{"dyn0", 4}),
  };
  const Survivors once = coalesce_events(batch);
  EXPECT_EQ(once, (Survivors{1, 2, 3, 4, 5, 6, 8}));
  EXPECT_EQ(coalesce_events(batch), once);
  // The survivors are a fixpoint: coalescing them again drops nothing.
  std::vector<Event> kept;
  for (const std::size_t i : once) kept.push_back(batch[i]);
  EXPECT_EQ(coalesce_events(kept).size(), kept.size());
}

TEST(StreamCoalescer, KeptIndicesIdentifySurvivors) {
  const std::vector<Event> batch{
      at(1, WcetChange{"a", 2}),
      at(2, WcetChange{"a", 3}),
      at(3, WcetChange{"b", 4}),
  };
  const Survivors kept = coalesce_events(batch);
  ASSERT_EQ(kept.size(), 2u);
  EXPECT_EQ(kept[0], 1u);  // a's last write
  EXPECT_EQ(kept[1], 2u);  // b's only write
  EXPECT_EQ(std::get<WcetChange>(batch[kept[0]].payload).wcet, 3);
}

}  // namespace
}  // namespace lbmem
