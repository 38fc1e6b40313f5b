// Multi-worker data-plane engine: RSS-style sharded packet processing with
// a streaming ring-buffer ingest path and RCU-style rule publication.
//
// A single P4Switch is a faithful per-packet model, but a gateway serving
// heavy traffic runs one pipeline replica per core with receive-side scaling:
// packets are sharded to workers by a hash of their flow key, so all packets
// of one flow hit the same replica (keeping per-flow state — the rate-guard
// sketch, the flow-verdict cache — worker-local and race-free). Statistics
// live in per-worker shards and are merged on read; the hot path never takes
// a lock or touches an atomic per packet (synchronization is per chunk).
//
// The shard key hashes the bytes of the program's parser fields (the flow
// identity the table matches on) — or, when a rate guard is configured, the
// guard's key fields alone, since the guard's per-key sketch is the only
// cross-packet state and every packet of one guard key must serialize on
// one replica for its count (and hence the verdict stream) to match a
// sequential switch exactly.
//
// Rule-state ownership (the RCU split; see p4/rule_snapshot.h):
//   * The engine owns one control-plane MatchActionTable. Every rule call
//     (install_rules / clear_rules / set_default_action /
//     set_malformed_policy / set_match_backend / set_rate_guard) mutates it
//     and publishes an immutable ControlPlan — rule snapshot, guard spec and
//     shard fields — behind one mutex-guarded pointer.
//   * A worker replica is written only by its own thread: it adopts the
//     newest plan at a chunk boundary, never in the middle of a frame, so a
//     live rule swap is hitless. A worker that receives no frames keeps its
//     old plan; nothing else catches it up. Per-entry hit counters live in
//     per-worker shards, one per snapshot version; on adoption the shard of
//     the outgoing rules is archived and stays queryable via
//     hit_count_for_version(). Merged counter reads are keyed to the
//     published version, so a worker that has not adopted it yet
//     contributes zero, exactly as a sequential switch would.
//
// Delivery: there is one packet path. A worker waits on its ring, pops a
// chunk, classifies each frame with P4Switch::process() and hands the
// verdict to the open stream's sink. process_batch() is an internal stream
// whose sink files verdicts by batch index; it does not have its own
// delivery mode.
//
// Threading contract:
//   * Rule calls are serialized against each other (one control thread at a
//     time) and are safe concurrent with everything on the packet side:
//     stream_push(), stream_flush(), start_stream()/stop_stream() and
//     process_batch().
//   * process_batch() and start_stream()/stream_push()/stream_flush()/
//     stop_stream() form a single-producer interface: one ingest thread at a
//     time.
//   * Readers of merged state (stats(), hit_count(), flow_cache_stats(),
//     publish_telemetry()) need a quiesced dataplane: call them between
//     batches, or after stream_flush() has returned with no pushes in
//     flight. publish_telemetry() also reads the control table, so it must
//     not overlap a rule call either.
//   * match_backend(), rules_version() and rules_snapshot() read the
//     published plan and are safe from any thread at any time.
#pragma once

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <exception>
#include <functional>
#include <memory>
#include <mutex>
#include <optional>
#include <string_view>
#include <thread>
#include <vector>

#include "p4/switch.h"

namespace p4iot::p4 {

/// What stream_push() does when a worker's ingest ring is full.
enum class BackpressurePolicy : std::uint8_t {
  kBlock = 0,  ///< wait for the worker to drain a slot (lossless)
  kDrop = 1,   ///< shed the frame and count it (p4iot_engine_ring_dropped)
};

const char* backpressure_policy_name(BackpressurePolicy policy) noexcept;
/// Parse "block" / "drop"; nullopt on anything else.
std::optional<BackpressurePolicy> parse_backpressure_policy(std::string_view name);

struct EngineConfig {
  /// Worker replica count; 0 = one per hardware thread.
  std::size_t workers = 0;
  std::size_t table_capacity = 1024;
  /// Per-worker flow-verdict cache slots; 0 disables the cache.
  std::size_t flow_cache_capacity = 4096;
  /// Lookup backend for every worker replica. The engine is the scale path,
  /// so it defaults to the compiled tuple-space index; the single P4Switch
  /// keeps the linear scan as its faithful default.
  MatchBackend match_backend = MatchBackend::kCompiled;
  /// Per-worker ingest ring slots (process_batch() also moves frames
  /// through the rings, but always blocks on a full ring).
  std::size_t ring_capacity = 1024;
  /// Full-ring policy for stream_push().
  BackpressurePolicy backpressure = BackpressurePolicy::kBlock;
};

class DataplaneEngine {
 public:
  explicit DataplaneEngine(P4Program program, EngineConfig config = {});
  ~DataplaneEngine();

  DataplaneEngine(const DataplaneEngine&) = delete;
  DataplaneEngine& operator=(const DataplaneEngine&) = delete;

  /// Shard `batch` across the workers and block until every verdict is in;
  /// verdicts come back in packet order. Runs as an internal stream: a sink
  /// that files verdicts into `out` by frame index, always-blocking push
  /// whatever the configured policy, then flush and close. Batch frames are
  /// numbered by batch index and do not advance the stream `seq`. Throws
  /// std::logic_error while a stream is open.
  std::vector<Verdict> process_batch(std::span<const pkt::Packet> batch);
  void process_batch(std::span<const pkt::Packet> batch, std::vector<Verdict>& out);

  // -- streaming ingest -----------------------------------------------------

  /// Async verdict delivery: invoked on worker threads, concurrently across
  /// workers. `seq` is the frame's push sequence number; frames of one flow
  /// land on one worker, so their sink calls are ordered by `seq` — cross-
  /// flow ordering is unspecified. An exception thrown by the sink (or by a
  /// stream mirror handler) is caught on the worker: the frame still counts
  /// as delivered, and the first such exception is rethrown on the caller
  /// by the next stream_flush() or stop_stream().
  using VerdictSink =
      std::function<void(std::uint64_t seq, const pkt::Packet&, const Verdict&)>;

  /// Open a stream: workers drain their ingest rings and deliver verdicts
  /// through `sink`. Requires an idle engine (no open stream, no batch in
  /// flight).
  void start_stream(VerdictSink sink);
  /// Enqueue frames (single producer). Frames are taken BY REFERENCE — the
  /// caller must keep them alive and unchanged until stream_flush() or
  /// stop_stream() returns. Returns how many were accepted; under kDrop the
  /// remainder was shed and counted, under kBlock all are accepted.
  std::size_t stream_push(std::span<const pkt::Packet> frames);
  bool stream_push(const pkt::Packet& frame) {
    return stream_push(std::span<const pkt::Packet>(&frame, 1)) == 1;
  }
  /// Block until every accepted frame's verdict has been delivered. The
  /// rings are empty when this returns (but the stream stays open). Then
  /// rethrows the first exception a sink threw since the last flush.
  void stream_flush();
  /// Flush, then close the stream (rethrowing like stream_flush(), after
  /// the stream is closed). Idempotent.
  void stop_stream();
  bool streaming() const noexcept { return streaming_.load(std::memory_order_acquire); }

  struct StreamStats {
    std::uint64_t accepted = 0;   ///< frames enqueued since start_stream
    std::uint64_t delivered = 0;  ///< verdicts handed to the sink
    std::uint64_t dropped = 0;    ///< frames shed by the kDrop policy
  };
  StreamStats stream_stats() const;
  /// Frames shed at one worker's ring since start_stream (kDrop only).
  std::uint64_t ring_dropped(std::size_t worker) const;

  // -- runtime rule API (control plane) -------------------------------------
  // Serialized against each other; safe concurrent with streaming ingest
  // and process_batch() (workers adopt at chunk boundaries).
  TableWriteStatus install_rules(const std::vector<TableEntry>& entries);
  void set_default_action(ActionOp action);
  void clear_rules();
  void set_malformed_policy(MalformedPolicy policy);
  void set_match_backend(MatchBackend backend);
  /// Active lookup backend, read from the published plan — safe from any
  /// thread, unlike peeking at a worker replica (the pre-snapshot
  /// implementation read workers_[0] unsynchronized).
  MatchBackend match_backend() const;
  void set_rate_guard(const RateGuardSpec& spec);
  void clear_rate_guard();

  /// Version of the published rule set; moves on every rule mutation.
  std::uint64_t rules_version() const;
  /// The published snapshot itself (immutable; safe to hold).
  std::shared_ptr<const RuleSnapshot> rules_snapshot() const;

  /// Mirror handler. process_batch() hands mirrored frames to it on the
  /// calling thread after the batch, in packet order; a stream runs it on
  /// the worker thread, just before the frame's sink call. Not safe to
  /// change while a stream is open or a batch is in flight.
  void set_mirror_handler(P4Switch::MirrorHandler handler);

  /// Copy merged engine state into the global telemetry registry: the
  /// aggregate dataplane/cache/guard gauges (publish_dataplane_gauges() over
  /// the merged worker shards; rule and guard gauges come from the control
  /// state), per-worker packet counts
  /// (`p4iot_engine_worker_packets{worker="i"}`) and ring-drop counts
  /// (`p4iot_engine_ring_dropped{worker="i"}`), and worker/batch gauges.
  /// Snapshot-time only, never on the hot path.
  void publish_telemetry() const;

  /// Per-worker SwitchStats shards merged on read (quiesced dataplane only).
  SwitchStats stats() const;
  /// Merged per-entry hit counters of the published rule version
  /// (hit_count_for_version(rules_version(), ...)).
  std::uint64_t hit_count(std::size_t entry_index) const;
  std::uint64_t default_hits() const;
  /// Merged per-entry hits recorded against a specific rule version —
  /// current or retired (see MatchActionTable::hits_for_version). This is
  /// how credit earned before a live swap stays attributable after it.
  std::uint64_t hit_count_for_version(std::uint64_t version,
                                      std::size_t entry_index) const;
  std::uint64_t default_hits_for_version(std::uint64_t version) const;
  /// Merged flow-cache counters (all zero when the cache is disabled).
  FlowCacheStats flow_cache_stats() const;
  void reset_stats();

  std::size_t worker_count() const noexcept { return workers_.size(); }
  const P4Switch& worker(std::size_t i) const { return workers_[i]->sw; }
  const P4Program& program() const noexcept { return workers_[0]->sw.program(); }
  BackpressurePolicy backpressure() const noexcept { return backpressure_; }
  std::size_t ring_capacity() const noexcept { return ring_capacity_; }

 private:
  /// Immutable control-plane publication: everything the dataplane derives
  /// from the rule state, swapped through one atomic pointer.
  struct ControlPlan {
    std::uint64_t gen = 0;
    std::shared_ptr<const RuleSnapshot> rules;
    std::shared_ptr<const RateGuardSpec> guard;  ///< null = no guard
    std::vector<FieldRef> shard_fields;
  };

  /// Bounded SPSC ingest ring (producer: the pushing thread; consumer: the
  /// owning worker). Frames are held by reference; `seq` orders delivery.
  struct Ring {
    struct Item {
      const pkt::Packet* frame = nullptr;
      std::uint64_t seq = 0;
    };
    std::vector<Item> slots;
    std::size_t head = 0;   ///< next pop position
    std::size_t count = 0;  ///< occupied slots
    std::uint64_t dropped = 0;
    mutable std::mutex m;
    std::condition_variable data_cv;   ///< signalled on push and engine stop
    std::condition_variable space_cv;  ///< signalled on pop
  };

  struct Worker {
    explicit Worker(P4Program program, std::size_t capacity)
        : sw(std::move(program), capacity) {}
    P4Switch sw;
    Ring ring;
    std::shared_ptr<const ControlPlan> plan;  ///< last plan adopted (own thread)
    std::vector<std::size_t> stage;           ///< per-call shard staging
  };

  /// Max frames a worker takes from its ring per lock acquisition: the
  /// adoption/synchronization granularity (and the swap latency bound).
  static constexpr std::size_t kWorkerChunk = 256;

  static std::size_t shard_of(const pkt::Packet& packet,
                              std::span<const FieldRef> fields,
                              std::size_t worker_count) noexcept;
  /// The worker thread: wait for frames on the ring, adopt the newest plan,
  /// classify and deliver a chunk; until the engine stops.
  void worker_main(Worker& w);
  /// Adopt the newest published plan into `w` if it changed (chunk boundary,
  /// on `w`'s own thread).
  void maybe_adopt(Worker& w);
  /// Build and publish a fresh plan from the control table + guard spec.
  void publish_plan();
  /// Shard `frames` and enqueue; `seq0` numbers them. Blocking push unless
  /// `allow_drop`. Returns frames accepted.
  std::size_t enqueue(std::span<const pkt::Packet> frames, std::uint64_t seq0,
                      bool allow_drop);
  /// Start workers delivering through `sink` (public streams and batches).
  void open_stream(VerdictSink sink);
  /// Wait until every accepted frame is delivered; returns (and clears) the
  /// first exception a sink threw.
  std::exception_ptr drain();

  /// Published plan pointer. Writers (rule calls) replace it under
  /// plan_mutex_ and then advance plan_gen_; readers check plan_gen_ first
  /// (one relaxed-cost atomic per chunk) and only take the mutex when it
  /// moved. The mutex acquire is the happens-before edge from the control
  /// thread's snapshot build to the adopting worker.
  std::shared_ptr<const ControlPlan> current_plan() const;

  std::vector<std::unique_ptr<Worker>> workers_;
  MatchActionTable control_;  ///< authoritative rule state (control thread)
  std::shared_ptr<const RateGuardSpec> guard_spec_;
  mutable std::mutex plan_mutex_;
  std::shared_ptr<const ControlPlan> plan_ptr_;
  std::atomic<std::uint64_t> plan_gen_{0};
  P4Switch::MirrorHandler mirror_;
  std::size_t ring_capacity_ = 1024;
  BackpressurePolicy backpressure_ = BackpressurePolicy::kBlock;

  // Telemetry (registry-resident series shared process-wide; see DESIGN §8).
  struct EngineMetrics {
    common::telemetry::Counter* batches;
    common::telemetry::LatencyHistogram* batch_ns;
    common::telemetry::Gauge* batch_packets;
    common::telemetry::Gauge* shard_imbalance;
    common::telemetry::LatencyHistogram* swap_ns;
    static EngineMetrics acquire();
  };
  EngineMetrics metrics_ = EngineMetrics::acquire();

  // Dispatch state. Workers wait on their ring for the engine's lifetime;
  // streaming_ only backs the producer-side misuse checks.
  std::vector<std::thread> threads_;
  std::atomic<bool> streaming_{false};
  std::atomic<bool> stop_{false};
  std::size_t last_max_shard_ = 0;  ///< largest shard of the last enqueue

  // Delivery accounting. accepted_total_/push_seq_ belong to the producer
  // thread; delivered_total_ is written by workers under done_mutex_ and
  // awaited by flush/batch on done_cv_ — that lock is the happens-before
  // edge that makes post-flush reads of worker state race-free. It also
  // guards delivery_error_, the first exception a sink threw.
  std::uint64_t push_seq_ = 0;
  std::uint64_t accepted_total_ = 0;
  std::uint64_t session_base_ = 0;  ///< accepted_total_ at start_stream
  mutable std::mutex done_mutex_;
  std::condition_variable done_cv_;
  std::uint64_t delivered_total_ = 0;
  std::exception_ptr delivery_error_;

  VerdictSink sink_;  ///< the open stream's delivery (batches included)
};

}  // namespace p4iot::p4
