// Protocol fuzzer for the service layer's lock-light building blocks:
// SpscRing (ingest queue) and BlockArena (pooled routing blocks).
//
// The input bytes drive an op sequence against both structures on one
// thread — legal, since SPSC only bounds each side to at most one thread
// — and every observable result is checked against a trivial reference
// model (a deque for the ring, handle bookkeeping for the arena). The
// point is memory-safety and protocol coverage under ASan/UBSan: slot
// reuse after wraparound, Stop() in every phase, recycle-ring traffic,
// and the arena's cleared-on-release poisoning.

#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <deque>
#include <vector>

#include "fuzz_input.h"
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
  const std::size_t block_capacity = static_cast<std::size_t>(in.IntIn(1, 32));
  const std::size_t max_outstanding = static_cast<std::size_t>(in.IntIn(1, 6));
  bqs::BlockArena arena(block_capacity, max_outstanding);
  bqs::AssumeRole(arena.producer_role);
  bqs::AssumeRole(arena.consumer_role);

  std::vector<bqs::RecordBlock*> outstanding;
  uint64_t acquires = 0;

  for (int op = 0; op < kMaxOps && !in.empty(); ++op) {
    const bool want_acquire = in.Bool();
    if (want_acquire && outstanding.size() < max_outstanding) {
      bqs::RecordBlock* block = arena.Acquire();
      FUZZ_CHECK(block != nullptr, "Acquire returned null op=%d", op);
      // Cleared-on-release poisoning: every handed-out block is empty.
      FUZZ_CHECK(block->empty() && block->runs.empty(),
                 "Acquire op=%d returned non-empty block (%zu pts, %zu runs)",
                 op, block->points.size(), block->runs.size());
      ++acquires;
      // Fill with a few coalescable records; run directory must match.
      const int appends = in.IntIn(0, 8);
      bqs::DeviceId device = static_cast<bqs::DeviceId>(in.U8() % 3);
      for (int i = 0; i < appends; ++i) {
        if (in.Bool()) device = static_cast<bqs::DeviceId>(in.U8() % 3);
        bqs::TrackPoint pt;
        pt.pos = {in.Step(100.0), in.Step(100.0)};
        pt.t = static_cast<double>(op) + static_cast<double>(i) * 0.01;
        block->Append(device, pt);
      }
      std::size_t directory_total = 0;
      for (const bqs::DeviceRun& run : block->runs) directory_total += run.count;
      FUZZ_CHECK(directory_total == block->points.size(),
                 "run directory covers %zu of %zu points", directory_total,
                 block->points.size());
      outstanding.push_back(block);
    } else if (!outstanding.empty()) {
      const std::size_t pick = static_cast<std::size_t>(
          in.IntIn(0, static_cast<int>(outstanding.size()) - 1));
      bqs::RecordBlock* block = outstanding[pick];
      outstanding[pick] = outstanding.back();
      outstanding.pop_back();
      arena.Release(block);
      // Release clears immediately — a stale handle reads empty.
      FUZZ_CHECK(block->empty(), "Release left %zu points",
                 block->points.size());
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
