// Protocol fuzzer for the service layer's lock-light building blocks:
// SpscRing (ingest queue) and BlockArena (pooled routing blocks).
//
// The input bytes drive an op sequence against both structures on one
// thread — legal, since SPSC only bounds each side to at most one thread
// — and every observable result is checked against a trivial reference
// model (a deque for the ring, handle bookkeeping and a per-device list
// of each block's grouped directory for the arena). The
// point is memory-safety and protocol coverage under ASan/UBSan: slot
// reuse after wraparound, Stop() in every phase, recycle-ring traffic,
// and the arena's cleared-on-release poisoning.

#include <algorithm>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <deque>
#include <utility>
#include <vector>

#include "fuzz_input.h"
#include "service/device_slot_map.h"
#include "service/record_block.h"
#include "service/spsc_ring.h"
#include "trajectory/point.h"

namespace {

using bqs_fuzz::FuzzInput;

constexpr int kMaxOps = 2048;

void FuzzRing(FuzzInput& in) {
  const std::size_t capacity = static_cast<std::size_t>(in.IntIn(1, 8));
  bqs::SpscRing<uint32_t> ring(capacity);
  // One thread plays both sides; assert both role capabilities once.
  bqs::AssumeRole(ring.producer_role);
  bqs::AssumeRole(ring.consumer_role);

  std::deque<uint32_t> model;
  bool stopped = false;
  uint32_t next_value = 0;

  FUZZ_CHECK(ring.capacity() == capacity, "capacity=%zu", capacity);

  for (int op = 0; op < kMaxOps && !in.empty(); ++op) {
    switch (in.IntIn(0, 9)) {
      case 0:
      case 1:
      case 2:
      case 3: {  // TryPush
        const uint32_t value = next_value;
        const bool pushed = ring.TryPush(value);
        const bool expect = !stopped && model.size() < capacity;
        FUZZ_CHECK(pushed == expect,
                   "TryPush op=%d pushed=%d expect=%d size=%zu stopped=%d",
                   op, pushed, expect, model.size(), stopped);
        if (pushed) {
          model.push_back(value);
          ++next_value;
        }
        break;
      }
      case 4:
      case 5:
      case 6:
      case 7: {  // TryPop
        uint32_t out = 0;
        const bool popped = ring.TryPop(out);
        FUZZ_CHECK(popped == !model.empty(),
                   "TryPop op=%d popped=%d model_size=%zu", op, popped,
                   model.size());
        if (popped) {
          FUZZ_CHECK(out == model.front(), "TryPop op=%d got=%u want=%u", op,
                     out, model.front());
          model.pop_front();
        }
        break;
      }
      case 8: {  // size/stopped are exact single-threaded
        FUZZ_CHECK(ring.size() == model.size(), "size op=%d got=%zu want=%zu",
                   op, ring.size(), model.size());
        FUZZ_CHECK(ring.stopped() == stopped, "stopped op=%d", op);
        break;
      }
      default: {  // Stop — items already queued must still drain
        ring.Stop();
        stopped = true;
        break;
      }
    }
  }

  // Drain: everything the model holds must still come out in order.
  uint32_t out = 0;
  while (!model.empty()) {
    FUZZ_CHECK(ring.TryPop(out), "drain: ring empty, model has %zu",
               model.size());
    FUZZ_CHECK(out == model.front(), "drain: got=%u want=%u", out,
               model.front());
    model.pop_front();
  }
  FUZZ_CHECK(!ring.TryPop(out), "ring should be empty after drain");
}

void FuzzArena(FuzzInput& in) {
  const std::size_t max_outstanding = static_cast<std::size_t>(in.IntIn(1, 6));
  // A window of 4 points against runs of up to 8 x 4: recycled blocks
  // hold more than their retention budget, so Clear frees groups too.
  bqs::BlockArena arena(max_outstanding, 4);
  bqs::AssumeRole(arena.producer_role);
  bqs::AssumeRole(arena.consumer_role);
  bqs::DeviceSlotMap slots;
  bqs::AssumeRole(slots.owner_role);

  std::vector<bqs::RecordBlock*> outstanding;
  uint64_t acquires = 0;

  for (int op = 0; op < kMaxOps && !in.empty(); ++op) {
    const bool want_acquire = in.Bool();
    if (want_acquire && outstanding.size() < max_outstanding) {
      bqs::RecordBlock* block = arena.Acquire();
      FUZZ_CHECK(block != nullptr, "Acquire returned null op=%d", op);
      // Cleared-on-release poisoning: every handed-out block is empty.
      FUZZ_CHECK(block->empty() && block->groups().empty(),
                 "Acquire op=%d returned non-empty block (%zu pts, %zu "
                 "groups)",
                 op, block->size(), block->groups().size());
      ++acquires;
      // Fill with a few runs, then an optional compaction; the grouped
      // directory must match a per-device model of what went in.
      slots.NewWindow();
      std::vector<std::pair<bqs::DeviceId, std::vector<double>>> model;
      const int runs = in.IntIn(0, 8);
      for (int r = 0; r < runs; ++r) {
        const bqs::DeviceId device = static_cast<bqs::DeviceId>(in.U8() % 4);
        const int count = in.IntIn(1, 4);
        std::vector<bqs::FleetRecord> run;
        for (int i = 0; i < count; ++i) {
          bqs::TrackPoint pt;
          pt.pos = {in.Step(100.0), in.Step(100.0)};
          pt.t = static_cast<double>(op) + static_cast<double>(r * 8 + i);
          run.push_back({device, pt});
        }
        block->Append(slots, run);
        auto it = std::find_if(model.begin(), model.end(), [&](const auto& g) {
          return g.first == device;
        });
        if (it == model.end()) {
          model.push_back({device, {}});
          it = model.end() - 1;
        }
        for (const bqs::FleetRecord& record : run) {
          it->second.push_back(record.point.t);
        }
      }
      if (in.Bool()) {
        std::vector<uint32_t> keep;
        for (auto& group : model) {
          keep.push_back(static_cast<uint32_t>(in.IntIn(0, 4)));
          if (group.second.size() > keep.back()) {
            group.second.resize(keep.back());
          }
        }
        block->Truncate(slots, keep);
        model.erase(std::remove_if(model.begin(), model.end(),
                                   [](const auto& g) {
                                     return g.second.empty();
                                   }),
                    model.end());
      }
      const auto groups = block->groups();
      FUZZ_CHECK(groups.size() == model.size(),
                 "block has %zu groups, model %zu", groups.size(),
                 model.size());
      std::size_t total = 0;
      for (std::size_t g = 0; g < groups.size(); ++g) {
        FUZZ_CHECK(groups[g].device == model[g].first,
                   "group %zu is device %llu, model %llu", g,
                   static_cast<unsigned long long>(groups[g].device),
                   static_cast<unsigned long long>(model[g].first));
        FUZZ_CHECK(groups[g].points.size() == model[g].second.size(),
                   "group %zu holds %zu points, model %zu", g,
                   groups[g].points.size(), model[g].second.size());
        for (std::size_t i = 0; i < model[g].second.size(); ++i) {
          FUZZ_CHECK(groups[g].points[i].t == model[g].second[i],
                     "group %zu point %zu out of order", g, i);
        }
        total += groups[g].points.size();
      }
      FUZZ_CHECK(total == block->size(), "groups cover %zu of %zu points",
                 total, block->size());
      outstanding.push_back(block);
    } else if (!outstanding.empty()) {
      const std::size_t pick = static_cast<std::size_t>(
          in.IntIn(0, static_cast<int>(outstanding.size()) - 1));
      bqs::RecordBlock* block = outstanding[pick];
      outstanding[pick] = outstanding.back();
      outstanding.pop_back();
      arena.Release(block);
      // Release clears immediately — a stale handle reads empty.
      FUZZ_CHECK(block->empty() && block->groups().empty(),
                 "Release left %zu points", block->size());
    }
  }

  FUZZ_CHECK(arena.allocated() + arena.recycled() == acquires,
             "allocated=%llu recycled=%llu acquires=%llu",
             static_cast<unsigned long long>(arena.allocated()),
             static_cast<unsigned long long>(arena.recycled()),
             static_cast<unsigned long long>(acquires));
  FUZZ_CHECK(arena.allocated() <= max_outstanding + 1,
             "allocated=%llu exceeds steady-state bound %zu",
             static_cast<unsigned long long>(arena.allocated()),
             max_outstanding + 1);
}

}  // namespace

extern "C" int LLVMFuzzerTestOneInput(const uint8_t* data, std::size_t size) {
  FuzzInput in(data, size);
  if (in.Bool()) {
    FuzzRing(in);
  } else {
    FuzzArena(in);
  }
  return 0;
}
