#include "service/fleet_engine.h"

#include <algorithm>
#include <chrono>
#include <cmath>
#include <limits>
#include <utility>
#include <vector>

#include <sched.h>

#include "common/fault_injector.h"
#include "common/math_utils.h"
#include "storage/compaction.h"
#include "storage/keypoint_wal.h"

namespace bqs {

namespace {

/// Token-bucket capacity of a rate-limited device, in seconds of its
/// admission rate: twice the rate is one second of burst on top of steady
/// state. The capacity never drops below one record.
constexpr double kDeviceBurstSeconds = 2.0;

/// Seed of the stochastic rounding of fractional token grants: shed
/// decisions are a pure function of (feed, configuration).
constexpr uint64_t kShedSeed = 0x5eed5eedULL;

/// Longest finite latency budget, one day: past it a budget waits as long
/// as this, which keeps the deadline arithmetic clear of overflow.
constexpr double kMaxLatencyBudgetMs = 24.0 * 3600.0 * 1000.0;

/// Eps-ladder hysteresis: a degraded session steps one rung back down once
/// its shard's usage drops below this fraction of the shard budget.
constexpr double kRecoverHeadroom = 0.5;

/// Moves the calling shard worker, one of `workers`, to the `index`-th CPU
/// of its allowed set counted from the one after `creator_cpu` (where the
/// engine was built and its producer usually runs), then gives the thread
/// its whole allowed set back: a starting place, not a pin, and only when
/// every worker can have a CPU besides the producer's. A new thread starts
/// on its creator's CPU, and a guest scheduler on a 4-vCPU KVM host kept
/// all three workers of a 3-shard engine there for whole runs while the
/// other CPUs idled: the workers ran one at a time, a woken worker waited
/// ~250 us for its turn, and each barrier waited ~2 ms for the backlog.
/// Workers started apart stayed apart in the same runs.
void StartWorkerApart(int creator_cpu, std::size_t index,
                      std::size_t workers) {
  cpu_set_t allowed;
  if (sched_getaffinity(0, sizeof allowed, &allowed) != 0) return;
  std::vector<std::size_t> cpus;
  for (std::size_t cpu = 0; cpu < static_cast<std::size_t>(CPU_SETSIZE);
       ++cpu) {
    if (CPU_ISSET(cpu, &allowed)) cpus.push_back(cpu);
  }
  if (cpus.size() <= workers) return;
  std::size_t first = 0;
  while (first < cpus.size() &&
         static_cast<int>(cpus[first]) <= creator_cpu) {
    ++first;
  }
  cpu_set_t one;
  CPU_ZERO(&one);
  CPU_SET(cpus[(first + index) % cpus.size()], &one);
  if (sched_setaffinity(0, sizeof one, &one) == 0) {
    (void)sched_setaffinity(0, sizeof allowed, &allowed);
  }
}

}  // namespace

void AccumulateDecisionStats(DecisionStats& into, const DecisionStats& s) {
  into.points += s.points;
  into.trivial_includes += s.trivial_includes;
  into.warmup_checks += s.warmup_checks;
  into.upper_bound_includes += s.upper_bound_includes;
  into.lower_bound_splits += s.lower_bound_splits;
  into.exact_computations += s.exact_computations;
  into.exact_includes += s.exact_includes;
  into.exact_splits += s.exact_splits;
  into.uncertain_splits += s.uncertain_splits;
  into.segments += s.segments;
  into.exact_points_scanned += s.exact_points_scanned;
  into.peak_exact_state = std::max(into.peak_exact_state, s.peak_exact_state);
  into.kernel_fallbacks += s.kernel_fallbacks;
}

FleetEngine::FleetEngine(const FleetEngineOptions& options, FleetSink& sink)
    : options_(options), sink_(sink), factory_(options.algorithm) {
  // The single-shard shortcut: one worker cannot outrun the caller doing
  // the work itself (it only adds a handoff and a cache round trip), so
  // num_shards <= 1 runs inline. Threads start at 2 shards.
  inline_ = options_.num_shards <= 1;
  const std::size_t shard_count = inline_ ? 1 : options_.num_shards;
  options_.block_capacity = std::clamp<std::size_t>(
      options_.block_capacity, 16, std::size_t{1} << 20);
  options_.max_pending_blocks =
      std::max<std::size_t>(options_.max_pending_blocks, 1);
  options_.wal_checkpoint_points =
      std::max<std::size_t>(options_.wal_checkpoint_points, 1);
  eager_accounting_ = options_.memory_budget_bytes > 0;
  if (eager_accounting_) {
    per_shard_budget_ = std::max<std::size_t>(
        options_.memory_budget_bytes / shard_count, 1);
  }
  double& budget = options_.overload.latency_budget_ms;
  if (!std::isfinite(budget)) {
    budget = std::numeric_limits<double>::infinity();
  } else {
    budget = std::clamp(budget, 0.0, kMaxLatencyBudgetMs);
  }
  // Shedding is a property of the producer->worker handoff; inline mode
  // has no queue to overflow, so a finite budget only engages when sharded.
  shedding_ = !inline_ && std::isfinite(budget);
  shards_.reserve(shard_count);
  for (std::size_t i = 0; i < shard_count; ++i) {
    shards_.push_back(std::make_unique<Shard>(options_.max_pending_blocks,
                                              options_.block_capacity));
  }
  if (!inline_) {
    const int creator_cpu = sched_getcpu();
    for (std::size_t i = 0; i < shard_count; ++i) {
      shards_[i]->worker = std::thread([this, s = shards_[i].get(),
                                        creator_cpu, i, shard_count] {
        StartWorkerApart(creator_cpu, i, shard_count);
        WorkerLoop(*s);
      });
    }
  }
}

FleetEngine::~FleetEngine() {
  // Records already handed to IngestBatch still get compressed: seal the
  // partial blocks, then let the rings drain before the workers exit.
  SealAll();
  for (auto& shard : shards_) shard->ring.Stop();
  for (auto& shard : shards_) {
    if (shard->worker.joinable()) shard->worker.join();
  }
}

std::size_t FleetEngine::ShardOf(DeviceId device) const {
  // One shard (inline mode) needs neither the mix nor the division, which
  // the router would otherwise pay on every run.
  if (shards_.size() == 1) return 0;
  return static_cast<std::size_t>(SplitMix64(device) % shards_.size());
}

void FleetEngine::Enqueue(Shard& shard, ShardCommand cmd) {
  if (inline_) {
    // Inline mode is the same command without the ring: the caller runs
    // it on its own thread, where the worker would have.
    AssumeWorker(shard);
    Execute(shard, cmd);
    return;
  }
  if (!shard.ring.Push(cmd)) return;  // stopped (destructor teardown only)
  ++shard.enqueued;
  shard.peak_depth = std::max(shard.peak_depth, shard.ring.size());
}

void FleetEngine::Seal(Shard& shard) {
  if (shard.filling == nullptr || shard.filling->empty()) return;
  ShardCommand cmd;
  cmd.kind = ShardCommand::Kind::kBlock;
  cmd.block = shard.filling;
  shard.filling = nullptr;
  ++shard.blocks_dispatched;
  Enqueue(shard, cmd);
}

void FleetEngine::SealAll() {
  for (auto& shard : shards_) {
    AssumeProducer(*shard);  // single-producer API contract
    Seal(*shard);
  }
}

void FleetEngine::IngestBatch(std::span<const FleetRecord> records) {
  if (records.empty()) return;
  if (!factory_.streaming()) {
    records_dropped_ += records.size();
    return;
  }
  // Single-producer API contract: this thread owns every shard's routing
  // side (record->shard assignment is dynamic, so assert them all once).
  for (auto& shard : shards_) AssumeProducer(*shard);
  const std::size_t cap = options_.block_capacity;
  // One deadline per IngestBatch: every seal this batch triggers shares
  // it, so the caller's worst-case latency is one budget, not one per
  // seal. Taken lazily — the clock read is paid only by shed configs.
  std::chrono::steady_clock::time_point deadline{};
  bool has_deadline = false;
  if (shedding_ && options_.overload.latency_budget_ms > 0.0) {
    deadline = std::chrono::steady_clock::now() +
               std::chrono::microseconds(static_cast<int64_t>(
                   options_.overload.latency_budget_ms * 1000.0));
    has_deadline = true;
  }
  batch_shed_ = false;
  std::size_t i = 0;
  while (i < records.size()) {
    // One maximal run of same-device records: the shard and the device's
    // group are picked once per run, not once per record.
    const DeviceId device = records[i].device;
    std::size_t end = i + 1;
    while (end < records.size() && records[end].device == device) ++end;
    Shard& shard = *shards_[ShardOf(device)];
    while (i < end) {
      if (shard.filling == nullptr) {
        shard.filling = shard.arena.Acquire();
        shard.slots.NewWindow();
      }
      // A run longer than the block's room splits at the cap; the rest
      // opens the device's group in the next block.
      const std::size_t take = std::min(end - i, cap - shard.filling->size());
      shard.filling->Append(shard.slots, records.subspan(i, take));
      i += take;
      if (shard.filling->size() >= cap) {
        if (shedding_) {
          SealForIngest(shard, deadline, has_deadline);
        } else {
          Seal(shard);
        }
      }
    }
  }
  if (batch_shed_) ++shed_batches_;
  // Inline mode never defers work past the IngestBatch that delivered it:
  // its block needs no handoff, so the partial block runs now.
  if (inline_) Seal(*shards_[0]);
}

void FleetEngine::SealForIngest(
    Shard& shard, std::chrono::steady_clock::time_point deadline,
    bool has_deadline) {
  if (shard.filling == nullptr || shard.filling->empty()) return;
  RecordBlock* const block = shard.filling;
  // A fired kRingFull fault makes the ring look full without waiting for
  // the worker to actually fall behind — the deterministic trigger the
  // shed tests replay from a seed.
  bool synthetic_full = false;
  if (FaultInjector* const injector = options_.fault_injector) {
    if (injector->ShouldFire(FaultSite::kRingFull)) {
      ++shard.shed.faults;
      synthetic_full = true;
    }
  }
  bool pushed = false;
  if (!synthetic_full) {
    ShardCommand cmd;
    cmd.kind = ShardCommand::Kind::kBlock;
    cmd.block = block;
    pushed = has_deadline ? shard.ring.PushUntil(cmd, deadline)
                          : shard.ring.TryPush(cmd);
  }
  if (pushed) {
    shard.filling = nullptr;
    ++shard.blocks_dispatched;
    ++shard.enqueued;
    shard.peak_depth = std::max(shard.peak_depth, shard.ring.size());
    return;
  }
  if (shard.ring.stopped()) return;  // destructor teardown; keep the block
  // Ring still full past the budget: shed. With a device rate, the block
  // is first compacted through the token buckets — over-rate (hot) devices
  // lose their over-rate suffix, everyone else's records survive in place
  // and re-queue with the block's next seal. Only when compaction removes
  // nothing (no device over rate: the worker is simply behind) does the
  // block shed whole.
  if (options_.overload.device_rate_per_second > 0.0 &&
      CompactByDevice(shard)) {
    batch_shed_ = true;
    return;  // survivors stay as shard.filling
  }
  const uint64_t count = static_cast<uint64_t>(block->size());
  shard.shed.records += count;
  if (has_deadline) {
    shard.shed.latency += count;
  } else {
    shard.shed.ring_full += count;
  }
  batch_shed_ = true;
  block->Clear();  // stays acquired as shard.filling, capacity reused
  shard.slots.NewWindow();
}

bool FleetEngine::CompactByDevice(Shard& shard) {
  RecordBlock& block = *shard.filling;
  const double rate = options_.overload.device_rate_per_second;
  const double burst = std::max(rate * kDeviceBurstSeconds, 1.0);
  // One grant per device per block: the block is already grouped, so each
  // device asks its bucket once for all of its records in the block.
  shard.grants.clear();
  for (const RouteGroup& group : block.groups()) {
    DeviceTokenBucket& bucket = shard.buckets[group.device];
    // Refill on the group's newest stream time; the grant is a pure
    // function of (feed, configuration) — wall-clock never enters.
    const uint64_t salt =
        kShedSeed ^ SplitMix64(group.device) ^ (shard.shed_events++);
    shard.grants.push_back(
        bucket.Grant(group.points.back().t,
                     static_cast<uint32_t>(group.points.size()), rate,
                     burst, salt));
  }
  const std::size_t shed = block.Truncate(shard.slots, shard.grants);
  if (shed == 0) return false;
  shard.shed.records += shed;
  shard.shed.rate_limited += shed;
  return true;
}

void FleetEngine::Ingest(DeviceId device, const TrackPoint& pt) {
  const FleetRecord record{device, pt};
  IngestBatch(std::span<const FleetRecord>(&record, 1));
}

void FleetEngine::FinishDevice(DeviceId device) {
  if (!factory_.streaming()) return;  // no sessions can exist
  Shard& shard = *shards_[ShardOf(device)];
  AssumeProducer(shard);  // single-producer API contract
  // Pending records for the device must compress before the finish does.
  Seal(shard);
  ShardCommand cmd;
  cmd.kind = ShardCommand::Kind::kFinishDevice;
  cmd.device = device;
  Enqueue(shard, cmd);
}

void FleetEngine::FinishAll() {
  if (!factory_.streaming()) return;
  SealAll();
  for (auto& shard : shards_) {
    AssumeProducer(*shard);  // single-producer API contract
    ShardCommand cmd;
    cmd.kind = ShardCommand::Kind::kFinishAll;
    Enqueue(*shard, cmd);
  }
  Flush();
}

void FleetEngine::Flush() {
  SealAll();
  for (auto& shard : shards_) WaitIdle(*shard);
}

void FleetEngine::WaitIdle(Shard& shard) {
  if (inline_) return;  // the caller already holds the worker side
  const uint64_t target = shard.enqueued;
  if (shard.completed.load(std::memory_order_acquire) >= target) return;
  MutexLock lock(shard.idle_mu);
  shard.caller_waiting.store(true, std::memory_order_seq_cst);
  shard.cv_idle.wait(lock.native(), [&] {
    return shard.completed.load(std::memory_order_seq_cst) >= target;
  });
  shard.caller_waiting.store(false, std::memory_order_relaxed);
}

FleetStats FleetEngine::Stats() {
  SealAll();
  FleetStats total;
  total.records_dropped = records_dropped_;
  total.shed_batches = shed_batches_;
  for (auto& shard_ptr : shards_) {
    Shard& shard = *shard_ptr;
    AssumeProducer(shard);  // single-producer API contract
    WaitIdle(shard);        // grants shard.worker_role (idle protocol)
    // The shard is drained: the seq_cst completed==enqueued read makes the
    // worker's writes visible and — with the single-producer API keeping
    // new work out — exclusive to this thread until the next Enqueue.
    if (!eager_accounting_) {
      // Lazy accounting: the run fast path skipped StateBytes entirely, so
      // compute the live footprint here, where it is actually asked for.
      std::size_t live = 0;
      for (const auto& [device, session] : shard.sessions) {
        (void)device;
        live += kSessionBaseBytes + session.compressor->StateBytes();
      }
      shard.state_bytes = live;
      shard.counters.peak_state_bytes =
          std::max(shard.counters.peak_state_bytes, shard.state_bytes);
    }
    const FleetStats& c = shard.counters;
    total.records_ingested += c.records_ingested;
    total.key_points_emitted += c.key_points_emitted;
    total.sessions_opened += c.sessions_opened;
    total.sessions_finished += c.sessions_finished;
    total.sessions_evicted += c.sessions_evicted;
    total.sessions_idled += c.sessions_idled;
    total.coalesced_runs += c.coalesced_runs;
    total.blocks_dispatched += shard.blocks_dispatched;
    total.blocks_allocated += shard.arena.allocated();
    total.blocks_recycled += shard.arena.recycled();
    total.worker_wakes += shard.ring.consumer_waits();
    total.backpressure_waits += shard.ring.producer_waits();
    total.peak_queue_depth = std::max(total.peak_queue_depth,
                                      shard.peak_depth);
    total.live_sessions += shard.sessions.size();
    total.state_bytes += shard.state_bytes;
    total.peak_state_bytes += c.peak_state_bytes;
    total.records_shed += shard.shed.records;
    total.shed_ring_full += shard.shed.ring_full;
    total.shed_latency += shard.shed.latency;
    total.shed_rate_limited += shard.shed.rate_limited;
    total.sessions_degraded += c.sessions_degraded;
    total.sessions_recovered += c.sessions_recovered;
    total.wal_checkpoints += c.wal_checkpoints;
    total.wal_points += c.wal_points;
    total.wal_append_failures += c.wal_append_failures;
    total.wal_failures_io += c.wal_failures_io;
    total.wal_failures_writer_dead += c.wal_failures_writer_dead;
    total.faults_injected += shard.shed.faults + c.faults_injected;
    total.max_error_bound = std::max(total.max_error_bound,
                                     c.max_error_bound);
    total.max_device_backlog = std::max(total.max_device_backlog,
                                        c.max_device_backlog);
    AccumulateDecisionStats(total.decisions, c.decisions);
    for (const auto& [device, session] : shard.sessions) {
      (void)device;
      if (const DecisionStats* s = session.compressor->decision_stats()) {
        AccumulateDecisionStats(total.decisions, *s);
      }
      if (session.eps_level > 0) ++total.degraded_sessions;
      total.max_error_bound = std::max(total.max_error_bound,
                                       session.compressor->ErrorBound());
      if (shard.has_stream_t) {
        total.max_session_age_seconds =
            std::max(total.max_session_age_seconds,
                     shard.max_stream_t - session.last_t);
      }
    }
  }
  total.compaction_runs = compaction_runs_;
  total.compaction_failures = compaction_failures_;
  if (options_.wal != nullptr) {
    total.storage_healthy = !options_.wal->dead();
    if (options_.compactor != nullptr && options_.compactor->degraded()) {
      total.storage_healthy = false;
    }
  }
  return total;
}

void FleetEngine::CheckpointWal() {
  if (options_.wal == nullptr) return;
  SealAll();
  // Every staged session of every shard goes into one batch, so the WAL's
  // durability policy (the write, and any sync) runs once per barrier.
  // The shards stay drained until the next Enqueue, so the second pass
  // walks the same sessions in the same order and counts each ack.
  for (auto& shard_ptr : shards_) {
    Shard& shard = *shard_ptr;
    AssumeProducer(shard);  // single-producer API contract
    WaitIdle(shard);        // grants shard.worker_role (idle protocol)
    for (auto& [device, session] : shard.sessions) {
      if (!session.staged.empty()) {
        wal_batch_.push_back({device, session.staged});
      }
    }
  }
  bool writer_dead = options_.wal->dead();
  options_.wal->AppendBatch(wal_batch_, &wal_acks_);
  wal_batch_.clear();  // its views into the staged points end here
  std::size_t next_ack = 0;
  for (auto& shard_ptr : shards_) {
    Shard& shard = *shard_ptr;
    WaitIdle(shard);  // still drained: re-grants shard.worker_role
    for (auto& [device, session] : shard.sessions) {
      (void)device;
      if (session.staged.empty()) continue;
      CountWalAck(shard, session.staged.size(), wal_acks_[next_ack++],
                  &writer_dead);
      session.staged.clear();
    }
  }
  // The checkpoint barrier is the compaction trigger: every staged point
  // is in the WAL now, so draining sealed segments into blocks moves a
  // maximal prefix. Skipped outright when degraded — WAL-only mode; the
  // error already lives in the compactor's stats and storage_healthy.
  if (options_.compactor != nullptr && !options_.compactor->degraded()) {
    const Status st =
        options_.compactor->CompactOnce(options_.wal->current_segment_index());
    if (st.ok()) {
      ++compaction_runs_;
    } else {
      ++compaction_failures_;
    }
  }
}

void FleetEngine::WorkerLoop(Shard& shard) {
  // This thread IS the shard's worker for the engine's whole lifetime.
  AssumeWorker(shard);
  FaultInjector* const injector = options_.fault_injector;
  ShardCommand cmd;
  while (shard.ring.Pop(cmd)) {
    if (injector != nullptr &&
        injector->ShouldFire(FaultSite::kWorkerStall)) {
      // The deterministic worker-outage: park until the test releases the
      // gate. Commands queue behind the stall exactly as they would behind
      // a descheduled or wedged worker thread.
      ++shard.counters.faults_injected;
      injector->WaitStallReleased();
    }
    Execute(shard, cmd);
    shard.completed.fetch_add(1, std::memory_order_seq_cst);
    if (shard.caller_waiting.load(std::memory_order_seq_cst)) {
      MutexLock lock(shard.idle_mu);
      shard.cv_idle.notify_all();
    }
  }
}

void FleetEngine::Execute(Shard& shard, const ShardCommand& cmd) {
  switch (cmd.kind) {
    case ShardCommand::Kind::kBlock:
      ProcessBlock(shard, *cmd.block);
      shard.arena.Release(cmd.block);
      break;
    case ShardCommand::Kind::kFinishDevice:
      if (shard.sessions.contains(cmd.device)) {
        CloseSession(shard, cmd.device, SessionEndReason::kFinished);
      }
      break;
    case ShardCommand::Kind::kFinishAll:
      FinishShard(shard);
      break;
  }
}

void FleetEngine::ProcessBlock(Shard& shard, const RecordBlock& block) {
  // The block is grouped already: each device's span goes to its
  // compressor straight from block memory, in first-seen order.
  for (const RouteGroup& group : block.groups()) {
    DispatchRun(shard, group.device, group.points);
  }
  if (options_.idle_timeout_seconds > 0.0) CloseIdleSessions(shard);
}

void FleetEngine::DispatchRun(Shard& shard, DeviceId device,
                              std::span<const TrackPoint> points) {
  Session& session = SessionFor(shard, device);
  std::vector<KeyPoint>& keys = EmitBuffer(shard, session);
  const std::size_t from = keys.size();
  session.compressor->PushBatch(points, &keys);
  ForwardKeyPoints(shard, device, keys, from);
  ++shard.counters.coalesced_runs;
  shard.counters.records_ingested += points.size();
  shard.counters.max_device_backlog =
      std::max(shard.counters.max_device_backlog, points.size());
  AfterRun(shard, session, device, points.back().t);
  MaybeInjectEvict(shard, device);  // `session` may dangle past this call
}

void FleetEngine::MaybeInjectEvict(Shard& shard, DeviceId device) {
  FaultInjector* const injector = options_.fault_injector;
  if (injector == nullptr) return;
  if (!injector->ShouldFire(FaultSite::kMidBatchEvict)) return;
  ++shard.counters.faults_injected;
  if (shard.sessions.contains(device)) {
    CloseSession(shard, device, SessionEndReason::kEvicted);
  }
}

FleetEngine::Session& FleetEngine::SessionFor(Shard& shard, DeviceId device) {
  auto it = shard.sessions.find(device);
  if (it != shard.sessions.end()) return it->second;
  Session session;
  session.compressor = factory_.Make();
  ++shard.counters.sessions_opened;
  if (eager_accounting_) {
    session.accounted_bytes =
        kSessionBaseBytes + session.compressor->StateBytes();
    shard.state_bytes += session.accounted_bytes;
    shard.counters.peak_state_bytes =
        std::max(shard.counters.peak_state_bytes, shard.state_bytes);
  }
  return shard.sessions.emplace(device, std::move(session)).first->second;
}

void FleetEngine::AfterRun(Shard& shard, Session& session, DeviceId device,
                           double last_t) {
  // Maintained unconditionally (two stores and a compare) so the
  // session-age watermark in Stats() works without the idle machinery.
  session.last_t = last_t;
  NoteStreamTime(shard, last_t);
  if (options_.wal != nullptr &&
      session.staged.size() >= options_.wal_checkpoint_points) {
    CheckpointSession(shard, device, session);
  }
  if (!eager_accounting_) return;  // the lazy fast path: no StateBytes calls
  if (session.last_active != 0) shard.lru.erase(session.last_active);
  session.last_active = ++shard.activity_clock;
  shard.lru.emplace(session.last_active, device);
  const std::size_t now_bytes =
      kSessionBaseBytes + session.compressor->StateBytes();
  shard.state_bytes = shard.state_bytes - session.accounted_bytes + now_bytes;
  session.accounted_bytes = now_bytes;
  shard.counters.peak_state_bytes =
      std::max(shard.counters.peak_state_bytes, shard.state_bytes);
  // Recovery half of the eps ladder: once pressure clears the hysteresis
  // headroom, a degraded session steps one rung back down at its next
  // block boundary (here), re-tightening the reported bound.
  if (session.eps_level > 0 &&
      shard.state_bytes <
          static_cast<std::size_t>(
              kRecoverHeadroom * static_cast<double>(per_shard_budget_))) {
    ReseatSession(shard, device, session, session.eps_level - 1);
  }
  EnforceBudget(shard);
}

std::vector<KeyPoint>& FleetEngine::EmitBuffer(Shard& shard,
                                               Session& session) {
  if (options_.wal != nullptr) return session.staged;
  shard.emit_scratch.clear();
  return shard.emit_scratch;
}

void FleetEngine::ForwardKeyPoints(Shard& shard, DeviceId device,
                                   const std::vector<KeyPoint>& keys,
                                   std::size_t from) {
  for (std::size_t i = from; i < keys.size(); ++i) {
    sink_.OnKeyPoint(device, keys[i]);
  }
  shard.counters.key_points_emitted += keys.size() - from;
}

void FleetEngine::NoteStreamTime(Shard& shard, double t) {
  if (!shard.has_stream_t || t > shard.max_stream_t) {
    shard.max_stream_t = t;
    shard.has_stream_t = true;
  }
}

void FleetEngine::FinishShard(Shard& shard) {
  shard.device_scratch.clear();
  for (const auto& [device, session] : shard.sessions) {
    (void)session;
    shard.device_scratch.push_back(device);
  }
  shard.finish_tails.clear();
  for (const DeviceId device : shard.device_scratch) {
    CloseSession(shard, device, SessionEndReason::kFinished,
                 &shard.finish_tails);
  }
  if (shard.finish_tails.empty()) return;
  for (const auto& [device, keys] : shard.finish_tails) {
    shard.finish_batch.push_back({device, keys});
  }
  bool writer_dead = options_.wal->dead();
  options_.wal->AppendBatch(shard.finish_batch, &shard.finish_acks);
  shard.finish_batch.clear();  // its views into the tails end here
  for (std::size_t i = 0; i < shard.finish_tails.size(); ++i) {
    CountWalAck(shard, shard.finish_tails[i].second.size(),
                shard.finish_acks[i], &writer_dead);
  }
  shard.finish_tails.clear();
}

void FleetEngine::CloseSession(
    Shard& shard, DeviceId device, SessionEndReason reason,
    std::vector<std::pair<DeviceId, std::vector<KeyPoint>>>* tails) {
  auto it = shard.sessions.find(device);
  Session& session = it->second;
  std::vector<KeyPoint>& keys = EmitBuffer(shard, session);
  const std::size_t from = keys.size();
  session.compressor->Finish(&keys);
  ForwardKeyPoints(shard, device, keys, from);
  // The closing key points are staged now: make the whole session durable
  // before it disappears (or, for FinishAll, hand them to its batch).
  // Every close reason takes this path, so finish, idle sweep and memory
  // eviction all checkpoint.
  if (tails != nullptr && options_.wal != nullptr && !session.staged.empty()) {
    tails->emplace_back(device, std::move(session.staged));
    session.staged.clear();
  } else {
    CheckpointSession(shard, device, session);
  }
  if (const DecisionStats* stats = session.compressor->decision_stats()) {
    AccumulateDecisionStats(shard.counters.decisions, *stats);
  }
  shard.counters.max_error_bound = std::max(
      shard.counters.max_error_bound, session.compressor->ErrorBound());
  sink_.OnSessionEnd(device, reason);
  switch (reason) {
    case SessionEndReason::kFinished:
      ++shard.counters.sessions_finished;
      break;
    case SessionEndReason::kEvicted:
      ++shard.counters.sessions_evicted;
      break;
    case SessionEndReason::kIdle:
      ++shard.counters.sessions_idled;
      break;
  }
  if (eager_accounting_) {
    shard.state_bytes -= session.accounted_bytes;
    if (session.last_active != 0) shard.lru.erase(session.last_active);
  }
  shard.sessions.erase(it);  // the compressor and its heap go with it
}

void FleetEngine::CheckpointSession(Shard& shard, DeviceId device,
                                    Session& session) {
  if (options_.wal == nullptr || session.staged.empty()) return;
  bool writer_dead = options_.wal->dead();
  CountWalAck(shard, session.staged.size(),
              options_.wal->Append(device, session.staged), &writer_dead);
  session.staged.clear();
}

void FleetEngine::CountWalAck(Shard& shard, std::size_t points,
                              const Result<WalAppendAck>& ack,
                              bool* writer_dead) {
  if (ack.ok()) {
    ++shard.counters.wal_checkpoints;
    shard.counters.wal_points += points;
  } else {
    // The WAL refused (typically its fsync gate tripped). The points were
    // already delivered to the sink — the log just has a hole, which the
    // failure counter reports. Dropping the staged batch instead of
    // retrying keeps a dead WAL from turning into per-run overhead. The
    // reason split: the append that hit the error itself vs refusals by a
    // writer already known dead — in a failed batch, its first checkpoint
    // vs the rest, as a loop of single appends would have counted them.
    ++shard.counters.wal_append_failures;
    if (*writer_dead) {
      ++shard.counters.wal_failures_writer_dead;
    } else {
      ++shard.counters.wal_failures_io;
    }
    if (ack.status().code() != StatusCode::kInvalidArgument) {
      *writer_dead = true;
    }
  }
}

void FleetEngine::EnforceBudget(Shard& shard) {
  // First resort, when an eps ladder is configured: degrade instead of
  // drop. Sessions step up the ladder breadth-first in LRU order — every
  // session reaches rung k before any reaches k+1 — each step closing the
  // open segment under the old bound and re-minting the compressor at the
  // widened epsilon (freeing its accumulated heap). Data keeps flowing at
  // reduced fidelity; eviction below remains the backstop once the whole
  // shard sits at the top rung.
  const std::vector<double>& ladder = options_.overload.eps_ladder;
  if (!ladder.empty()) {
    for (uint32_t rung = 1;
         rung <= ladder.size() && shard.state_bytes > per_shard_budget_;
         ++rung) {
      for (auto it = shard.lru.begin();
           it != shard.lru.end() && shard.state_bytes > per_shard_budget_;
           ++it) {
        const DeviceId device = it->second;
        Session& session = shard.sessions.find(device)->second;
        if (session.eps_level < rung) {
          ReseatSession(shard, device, session, rung);
        }
      }
    }
  }
  while (shard.state_bytes > per_shard_budget_ && !shard.sessions.empty()) {
    CloseSession(shard, shard.lru.begin()->second,
                 SessionEndReason::kEvicted);
  }
}

void FleetEngine::ReseatSession(Shard& shard, DeviceId device,
                                Session& session, uint32_t level) {
  // Segment-boundary hand-off: the closing key point emitted here honors
  // the *current* bound, so everything already emitted keeps its
  // guarantee; the stream then continues on a compressor minted at the
  // new rung's epsilon. The old compressor is destroyed outright — this
  // is the step that actually returns heap to the budget.
  std::vector<KeyPoint>& keys = EmitBuffer(shard, session);
  const std::size_t from = keys.size();
  session.compressor->Finish(&keys);
  ForwardKeyPoints(shard, device, keys, from);
  // A reseat closes the compressed segment under the old bound — a
  // durability edge like any close: checkpoint what the old compressor
  // emitted before the stream continues under the new epsilon.
  CheckpointSession(shard, device, session);
  if (const DecisionStats* stats = session.compressor->decision_stats()) {
    AccumulateDecisionStats(shard.counters.decisions, *stats);
  }
  const double scale =
      level == 0 ? 1.0 : options_.overload.eps_ladder[level - 1];
  session.compressor = factory_.MakeScaled(scale);
  if (level > session.eps_level) {
    ++shard.counters.sessions_degraded;
  } else {
    ++shard.counters.sessions_recovered;
  }
  session.eps_level = level;
  const double bound = session.compressor->ErrorBound();
  shard.counters.max_error_bound =
      std::max(shard.counters.max_error_bound, bound);
  sink_.OnErrorBoundChanged(device, bound);
  const std::size_t now_bytes =
      kSessionBaseBytes + session.compressor->StateBytes();
  shard.state_bytes = shard.state_bytes - session.accounted_bytes + now_bytes;
  session.accounted_bytes = now_bytes;
  shard.counters.peak_state_bytes =
      std::max(shard.counters.peak_state_bytes, shard.state_bytes);
}

void FleetEngine::CloseIdleSessions(Shard& shard) {
  if (!shard.has_stream_t) return;
  const double cutoff = shard.max_stream_t - options_.idle_timeout_seconds;
  shard.device_scratch.clear();
  for (const auto& [device, session] : shard.sessions) {
    if (session.last_t < cutoff) shard.device_scratch.push_back(device);
  }
  for (const DeviceId device : shard.device_scratch) {
    CloseSession(shard, device, SessionEndReason::kIdle);
  }
}

}  // namespace bqs
