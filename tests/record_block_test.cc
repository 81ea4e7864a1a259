// RecordBlock + BlockArena: the pooled routing chunks of the fleet ingest
// pipeline. Grouping by device on append, compaction, and the arena's
// recycle contract — blocks come back cleared (reuse-poisoning) with their
// groups' heap capacity intact up to the retention budget, and the
// counters tell allocation from reuse apart.
#include "service/record_block.h"

#include <vector>

#include "gtest/gtest.h"

namespace bqs {
namespace {

TrackPoint Pt(double x) { return TrackPoint{{x, 0.0}, x}; }

/// One run of `device` records at x = first, first + 1, ...
std::vector<FleetRecord> MakeRun(DeviceId device, int first, int count) {
  std::vector<FleetRecord> run;
  for (int i = 0; i < count; ++i) run.push_back({device, Pt(first + i)});
  return run;
}

/// A block and the slot map that binds its devices to groups, held by the
/// test thread in both roles. The default budget never binds.
struct Window {
  explicit Window(std::size_t retain_points = std::size_t{1} << 20)
      : block(retain_points) {
    AssumeRole(slots.owner_role);
    slots.NewWindow();
  }
  void Append(DeviceId device, int first, int count)
      REQUIRES(slots.owner_role) {
    const std::vector<FleetRecord> run = MakeRun(device, first, count);
    block.Append(slots, run);
  }
  DeviceSlotMap slots;
  RecordBlock block;
};

std::vector<double> Xs(const RouteGroup& group) {
  std::vector<double> xs;
  for (const TrackPoint& pt : group.points) xs.push_back(pt.pos.x);
  return xs;
}

TEST(RecordBlockTest, AppendGroupsInFirstSeenOrderKeepingDeviceOrder) {
  Window w;
  AssumeRole(w.slots.owner_role);
  w.Append(7, 0, 3);
  w.Append(9, 10, 1);
  w.Append(7, 11, 2);  // device 7 again, not consecutive: same group
  w.Append(4, 20, 1);
  w.Append(9, 30, 2);

  const auto groups = w.block.groups();
  ASSERT_EQ(groups.size(), 3u);
  EXPECT_EQ(groups[0].device, 7u);
  EXPECT_EQ(groups[1].device, 9u);
  EXPECT_EQ(groups[2].device, 4u);
  EXPECT_EQ(Xs(groups[0]), (std::vector<double>{0, 1, 2, 11, 12}));
  EXPECT_EQ(Xs(groups[1]), (std::vector<double>{10, 30, 31}));
  EXPECT_EQ(Xs(groups[2]), (std::vector<double>{20}));
  EXPECT_EQ(w.block.size(), 9u);

  // The groups partition the block exactly.
  std::size_t covered = 0;
  for (const RouteGroup& group : groups) covered += group.points.size();
  EXPECT_EQ(covered, w.block.size());
}

TEST(RecordBlockTest, ClearKeepsEveryGroupsCapacity) {
  Window w;
  AssumeRole(w.slots.owner_role);
  w.Append(1, 0, 100);
  w.Append(2, 0, 40);
  const std::size_t cap1 = w.block.groups()[0].points.capacity();
  const std::size_t cap2 = w.block.groups()[1].points.capacity();
  const RouteGroup* first_group = w.block.groups().data();
  w.block.Clear();
  EXPECT_TRUE(w.block.empty());
  EXPECT_TRUE(w.block.groups().empty());

  // The next window reuses the same group slots, heap intact.
  w.slots.NewWindow();
  w.Append(3, 0, 1);
  w.Append(4, 0, 1);
  ASSERT_EQ(w.block.groups().size(), 2u);
  EXPECT_EQ(w.block.groups().data(), first_group);
  EXPECT_EQ(w.block.groups()[0].device, 3u);
  EXPECT_EQ(w.block.groups()[0].points.capacity(), cap1);
  EXPECT_EQ(w.block.groups()[1].points.capacity(), cap2);
}

TEST(RecordBlockTest, ClearBoundsTheCapacityAHotDeviceLeavesBehind) {
  // A hot device that opens at a different slot each window grows each of
  // those slots to a full window; Clear keeps kRetainedBlocks windows of
  // capacity in all, not one per slot.
  constexpr std::size_t kCapacity = 256;
  constexpr std::size_t kWindows = 16;
  constexpr std::size_t kBudget = RecordBlock::kRetainedBlocks * kCapacity;
  Window w(kBudget);
  AssumeRole(w.slots.owner_role);
  const int hot_points = static_cast<int>(kCapacity - kWindows);
  for (std::size_t window = 0; window < kWindows; ++window) {
    w.slots.NewWindow();
    // `window` cold devices first, so the hot device opens at slot
    // `window`.
    for (std::size_t d = 0; d < window; ++d) w.Append(d, 0, 1);
    w.Append(99, 0, hot_points);
    w.block.Clear();
  }
  // One point in every slot shows what each slot kept.
  w.slots.NewWindow();
  for (std::size_t d = 0; d < kWindows; ++d) w.Append(d, 0, 1);
  ASSERT_EQ(w.block.groups().size(), kWindows);
  std::size_t retained = 0;
  std::size_t kept_hot = 0;
  for (const RouteGroup& group : w.block.groups()) {
    retained += group.points.capacity();
    if (group.points.capacity() >= static_cast<std::size_t>(hot_points)) {
      ++kept_hot;
    }
  }
  EXPECT_LE(retained, kBudget + kWindows);
  // Pooling still keeps what fits: the first slots hold on to their heap.
  EXPECT_GE(kept_hot, RecordBlock::kRetainedBlocks / 2);
  EXPECT_LT(kept_hot, kWindows);
}

TEST(RecordBlockTest, TruncateKeepsOldestPointsAndRebindsSurvivors) {
  Window w;
  AssumeRole(w.slots.owner_role);
  w.Append(1, 0, 4);
  w.Append(2, 10, 3);
  w.Append(3, 20, 2);
  const std::vector<uint32_t> keep = {2, 0, 5};
  EXPECT_EQ(w.block.Truncate(w.slots, keep), 5u);

  ASSERT_EQ(w.block.groups().size(), 2u);
  EXPECT_EQ(w.block.groups()[0].device, 1u);
  EXPECT_EQ(Xs(w.block.groups()[0]), (std::vector<double>{0, 1}));
  EXPECT_EQ(w.block.groups()[1].device, 3u);
  EXPECT_EQ(Xs(w.block.groups()[1]), (std::vector<double>{20, 21}));
  EXPECT_EQ(w.block.size(), 4u);

  // The survivors stay bound: later records join their groups, and the
  // dropped device opens a new group at the end.
  w.Append(3, 22, 1);
  w.Append(2, 13, 1);
  ASSERT_EQ(w.block.groups().size(), 3u);
  EXPECT_EQ(Xs(w.block.groups()[1]), (std::vector<double>{20, 21, 22}));
  EXPECT_EQ(w.block.groups()[2].device, 2u);
  EXPECT_EQ(Xs(w.block.groups()[2]), (std::vector<double>{13}));
  EXPECT_EQ(w.block.size(), 6u);
}

TEST(BlockArenaTest, AcquireAllocatesWhenPoolIsEmpty) {
  BlockArena arena(4, 64);
  AssumeRole(arena.producer_role);
  RecordBlock* a = arena.Acquire();
  RecordBlock* b = arena.Acquire();
  ASSERT_NE(a, nullptr);
  ASSERT_NE(b, nullptr);
  EXPECT_NE(a, b);
  EXPECT_TRUE(a->empty());
  EXPECT_EQ(arena.allocated(), 2u);
  EXPECT_EQ(arena.recycled(), 0u);
}

TEST(BlockArenaTest, ReleaseRecyclesClearedBlocksWithCapacity) {
  BlockArena arena(4, 64);
  AssumeRole(arena.producer_role);
  AssumeRole(arena.consumer_role);
  DeviceSlotMap slots;
  AssumeRole(slots.owner_role);
  RecordBlock* block = arena.Acquire();
  block->Append(slots, MakeRun(5, 0, 64));
  const std::size_t cap = block->groups()[0].points.capacity();

  // Reuse-poisoning: Release clears immediately, so a stale handle held
  // past this point reads as empty instead of replaying old records.
  arena.Release(block);
  EXPECT_TRUE(block->empty());
  EXPECT_TRUE(block->groups().empty());

  RecordBlock* again = arena.Acquire();
  EXPECT_EQ(again, block);  // LIFO-ish reuse of the one pooled block
  EXPECT_TRUE(again->empty());
  slots.NewWindow();
  again->Append(slots, MakeRun(6, 0, 1));
  EXPECT_EQ(again->groups()[0].points.capacity(), cap);  // heap survived
  EXPECT_EQ(arena.allocated(), 1u);
  EXPECT_EQ(arena.recycled(), 1u);
}

TEST(BlockArenaTest, RecycleOutlivesManyCycles) {
  BlockArena arena(2, 16);
  AssumeRole(arena.producer_role);
  AssumeRole(arena.consumer_role);
  DeviceSlotMap slots;
  AssumeRole(slots.owner_role);
  RecordBlock* first = arena.Acquire();
  arena.Release(first);
  for (int cycle = 0; cycle < 1000; ++cycle) {
    RecordBlock* block = arena.Acquire();
    ASSERT_TRUE(block->empty()) << "cycle " << cycle;
    slots.NewWindow();
    block->Append(slots, MakeRun(1, 0, 16));
    arena.Release(block);
  }
  // Steady state never allocates: one block serves every cycle.
  EXPECT_EQ(arena.allocated(), 1u);
  EXPECT_EQ(arena.recycled(), 1000u);
}

TEST(BlockArenaTest, ManyOutstandingBlocksStayIndependent) {
  BlockArena arena(3, 16);
  AssumeRole(arena.producer_role);
  AssumeRole(arena.consumer_role);
  DeviceSlotMap slots;
  AssumeRole(slots.owner_role);
  std::vector<RecordBlock*> held;
  for (int i = 0; i < 5; ++i) {
    RecordBlock* block = arena.Acquire();
    slots.NewWindow();
    block->Append(slots, MakeRun(static_cast<DeviceId>(i), i, 1));
    held.push_back(block);
  }
  // Five live blocks, each with its own contents.
  for (int i = 0; i < 5; ++i) {
    const RecordBlock& block = *held[static_cast<std::size_t>(i)];
    ASSERT_EQ(block.groups().size(), 1u);
    EXPECT_EQ(block.groups()[0].device, static_cast<DeviceId>(i));
  }
  for (RecordBlock* block : held) arena.Release(block);
  // All five fit back in the recycle ring (depth + 2), so the next five
  // acquires are pure reuse.
  const uint64_t allocated_before = arena.allocated();
  for (int i = 0; i < 5; ++i) EXPECT_TRUE(arena.Acquire()->empty());
  EXPECT_EQ(arena.allocated(), allocated_before);
  EXPECT_EQ(arena.recycled(), 5u);
}

}  // namespace
}  // namespace bqs
