#include "p4/engine.h"

#include <algorithm>
#include <stdexcept>
#include <string>
#include <utility>

namespace p4iot::p4 {

namespace telemetry = common::telemetry;

const char* backpressure_policy_name(BackpressurePolicy policy) noexcept {
  switch (policy) {
    case BackpressurePolicy::kBlock: return "block";
    case BackpressurePolicy::kDrop: return "drop";
  }
  return "?";
}

std::optional<BackpressurePolicy> parse_backpressure_policy(std::string_view name) {
  if (name == "block") return BackpressurePolicy::kBlock;
  if (name == "drop") return BackpressurePolicy::kDrop;
  return std::nullopt;
}

DataplaneEngine::EngineMetrics DataplaneEngine::EngineMetrics::acquire() {
  auto& reg = telemetry::Registry::global();
  return {
      &reg.counter("p4iot_engine_batches_total", "Batches dispatched"),
      &reg.histogram("p4iot_engine_batch_ns",
                     "Wall time per process_batch call in ns"),
      &reg.gauge("p4iot_engine_batch_packets", "Packets in the last batch"),
      &reg.gauge("p4iot_engine_shard_imbalance",
                 "Largest shard / ideal even share in the last batch"),
      &reg.histogram("p4iot_engine_swap_ns",
                     "Control-plane publication latency in ns (rule call to "
                     "plan visible; workers adopt at the next chunk)"),
  };
}

DataplaneEngine::DataplaneEngine(P4Program program, EngineConfig config) {
  snapshot_interval_ = config.snapshot_interval_batches;
  ring_capacity_ = std::max<std::size_t>(1, config.ring_capacity);
  backpressure_ = config.backpressure;
  std::size_t n = config.workers;
  if (n == 0) n = std::max(1u, std::thread::hardware_concurrency());

  control_ = MatchActionTable("firewall", program.keys, config.table_capacity,
                              program.default_action);
  control_.set_match_backend(config.match_backend);

  workers_.reserve(n);
  for (std::size_t i = 0; i < n; ++i) {
    workers_.push_back(std::make_unique<Worker>(program, config.table_capacity));
    workers_.back()->ring.slots.resize(ring_capacity_);
    if (config.flow_cache_capacity > 0)
      workers_.back()->sw.enable_flow_cache(config.flow_cache_capacity);
  }
  publish_plan();  // engine is idle: the adoption fans out eagerly

  threads_.reserve(n);
  for (std::size_t i = 0; i < n; ++i)
    threads_.emplace_back([this, i] { worker_main(i); });
}

DataplaneEngine::~DataplaneEngine() {
  {
    std::lock_guard lock(mutex_);
    stop_.store(true, std::memory_order_release);
  }
  work_cv_.notify_all();
  wake_all_rings();
  for (auto& t : threads_) t.join();
}

std::shared_ptr<const DataplaneEngine::ControlPlan>
DataplaneEngine::current_plan() const {
  std::lock_guard lock(plan_mutex_);
  return plan_ptr_;
}

void DataplaneEngine::publish_plan() {
  const std::uint64_t t0 = telemetry::now_ns();
  auto plan = std::make_shared<ControlPlan>();
  // publish_plan is control-thread-serialized, so load+1 cannot collide.
  plan->gen = plan_gen_.load(std::memory_order_relaxed) + 1;
  plan->rules = control_.snapshot();
  plan->guard = guard_spec_;
  auto fields = std::make_shared<std::vector<FieldRef>>(
      guard_spec_ ? guard_spec_->key_fields
                  : workers_[0]->sw.program().parser.fields);
  plan->shard_fields = std::move(fields);
  {
    std::lock_guard lock(plan_mutex_);
    plan_ptr_ = plan;
  }
  plan_gen_.store(plan->gen, std::memory_order_release);
  // Workers pick the plan up at their next chunk boundary. When the engine
  // is idle the workers are parked and quiesced, so apply it here on the
  // control thread: rule calls between batches then behave exactly like the
  // pre-snapshot fan-out engine (every single-step counter carry included).
  if (!streaming()) for (auto& w : workers_) maybe_adopt(*w);
  metrics_.swap_ns->record(telemetry::now_ns() - t0);
}

void DataplaneEngine::maybe_adopt(Worker& w) {
  const std::uint64_t gen = plan_gen_.load(std::memory_order_acquire);
  if (w.plan && w.plan->gen == gen) return;
  std::shared_ptr<const ControlPlan> plan = current_plan();
  if (!plan || plan == w.plan) return;
  const std::shared_ptr<const ControlPlan> old = std::move(w.plan);
  w.plan = plan;
  w.sw.adopt_rules(plan->rules);
  if (plan->guard != (old ? old->guard : nullptr)) {
    if (plan->guard) {
      w.sw.set_rate_guard(*plan->guard);
    } else {
      w.sw.clear_rate_guard();
    }
  }
}

std::size_t DataplaneEngine::shard_of(const pkt::Packet& packet,
                                      std::span<const FieldRef> fields,
                                      std::size_t worker_count) noexcept {
  // FNV-1a over the flow-identity bytes (zero-padded past the frame end,
  // matching parser semantics): equal flow keys → equal shard. When a rate
  // guard is configured the fields are *exactly* its key fields: mixing in
  // the parser fields would scatter one guard key across workers and split
  // its count (a divergence the fuzz differential harness caught). Without
  // a guard, parser fields give the best cache locality; the table and the
  // exact-match flow cache are correct under any sharding.
  const auto frame = packet.view();
  std::uint64_t h = 1469598103934665603ULL;
  for (const auto& f : fields) {
    for (std::size_t i = 0; i < f.width; ++i) {
      const std::size_t pos = f.offset + i;
      const std::uint8_t b = pos < frame.size() ? frame[pos] : 0;
      h = (h ^ b) * 1099511628211ULL;
    }
  }
  return static_cast<std::size_t>(h % worker_count);
}

void DataplaneEngine::worker_main(std::size_t worker_index) {
  Worker& w = *workers_[worker_index];
  for (;;) {
    {
      std::unique_lock lock(mutex_);
      work_cv_.wait(lock, [&] {
        return stop_.load(std::memory_order_relaxed) ||
               streaming_.load(std::memory_order_relaxed);
      });
      if (stop_.load(std::memory_order_relaxed)) return;
    }
    ring_loop(w);
    if (stop_.load(std::memory_order_acquire)) return;
  }
}

void DataplaneEngine::ring_loop(Worker& w) {
  Ring& r = w.ring;
  std::vector<Ring::Item> chunk;
  chunk.reserve(kWorkerChunk);
  for (;;) {
    chunk.clear();
    {
      std::unique_lock lock(r.m);
      r.data_cv.wait(lock, [&] {
        return r.count > 0 || stop_.load(std::memory_order_relaxed) ||
               !streaming_.load(std::memory_order_relaxed);
      });
      if (stop_.load(std::memory_order_relaxed)) return;
      if (r.count == 0) return;  // stream closed with a drained ring
      const std::size_t take = std::min(r.count, kWorkerChunk);
      for (std::size_t i = 0; i < take; ++i) {
        chunk.push_back(r.slots[r.head]);
        r.head = (r.head + 1) % r.slots.size();
      }
      r.count -= take;
    }
    r.space_cv.notify_all();

    // Chunk boundary: the only place a worker changes rule state. Frames
    // within one chunk all see one snapshot — a swap is hitless.
    maybe_adopt(w);

    // The one delivery path. A throwing sink must not take the worker down
    // (std::terminate): the frame still counts as delivered, so a flush
    // cannot hang, and the first error is rethrown on the caller.
    std::exception_ptr error;
    for (const auto& item : chunk) {
      const Verdict verdict = w.sw.process(*item.frame);
      try {
        if (sink_) sink_(item.seq, *item.frame, verdict);
      } catch (...) {
        if (!error) error = std::current_exception();
      }
    }
    {
      std::lock_guard lock(done_mutex_);
      if (error && !delivery_error_) delivery_error_ = std::move(error);
      delivered_total_ += chunk.size();
    }
    done_cv_.notify_all();
  }
}

void DataplaneEngine::wake_all_rings() {
  for (auto& w : workers_) {
    { std::lock_guard lock(w->ring.m); }
    w->ring.data_cv.notify_all();
    w->ring.space_cv.notify_all();
  }
}

std::size_t DataplaneEngine::enqueue(std::span<const pkt::Packet> frames,
                                     std::uint64_t seq0, bool allow_drop) {
  const std::shared_ptr<const ControlPlan> plan = current_plan();
  const std::vector<FieldRef>& fields = *plan->shard_fields;
  for (auto& w : workers_) w->stage.clear();
  for (std::size_t i = 0; i < frames.size(); ++i)
    workers_[shard_of(frames[i], fields, workers_.size())]->stage.push_back(i);

  last_max_shard_ = 0;
  for (const auto& w : workers_)
    last_max_shard_ = std::max(last_max_shard_, w->stage.size());

  std::size_t accepted = 0;
  for (auto& wp : workers_) {
    Worker& w = *wp;
    if (w.stage.empty()) continue;
    Ring& r = w.ring;
    {
      std::unique_lock lock(r.m);
      for (const std::size_t i : w.stage) {
        if (r.count == r.slots.size()) {
          if (allow_drop) {
            ++r.dropped;
            continue;
          }
          // Lossless backpressure: hand what is queued to the worker and
          // wait for a slot (the worker pops under the same mutex).
          r.data_cv.notify_all();
          r.space_cv.wait(lock, [&] {
            return r.count < r.slots.size() ||
                   stop_.load(std::memory_order_relaxed);
          });
          if (stop_.load(std::memory_order_relaxed)) break;
        }
        r.slots[(r.head + r.count) % r.slots.size()] = {&frames[i], seq0 + i};
        ++r.count;
        ++accepted;
      }
    }
    r.data_cv.notify_all();
  }
  return accepted;
}

std::vector<Verdict> DataplaneEngine::process_batch(std::span<const pkt::Packet> batch) {
  std::vector<Verdict> verdicts;
  process_batch(batch, verdicts);
  return verdicts;
}

void DataplaneEngine::process_batch(std::span<const pkt::Packet> batch,
                                    std::vector<Verdict>& out) {
  if (streaming())
    throw std::logic_error(
        "DataplaneEngine::process_batch: stream is open (stop_stream first)");
  out.resize(batch.size());
  if (batch.empty()) return;
  const std::uint64_t batch_start_ns = telemetry::now_ns();

  // A batch is an internal stream whose sink files verdicts by batch index
  // (so the stream seq numbering does not move), pushed with always-block
  // backpressure: a batch loses nothing whatever the configured policy.
  open_stream([&out](std::uint64_t i, const pkt::Packet&, const Verdict& v) {
    out[i] = v;
  });
  accepted_total_ += enqueue(batch, 0, /*allow_drop=*/false);
  stop_stream();

  // Mirrored frames reach the handler on the caller's thread, in packet order.
  if (mirror_)
    for (std::size_t i = 0; i < batch.size(); ++i)
      if (out[i].action == ActionOp::kMirror) mirror_(batch[i]);

  // Batch-granularity telemetry: a handful of atomics plus one ring-buffer
  // span per dispatch — amortized to nothing over the packets inside.
  const std::uint64_t batch_end_ns = telemetry::now_ns();
  metrics_.batches->inc();
  metrics_.batch_ns->record(batch_end_ns - batch_start_ns);
  metrics_.batch_packets->set(static_cast<double>(batch.size()));
  const double ideal =
      static_cast<double>(batch.size()) / static_cast<double>(workers_.size());
  metrics_.shard_imbalance->set(
      ideal > 0.0 ? static_cast<double>(last_max_shard_) / ideal : 0.0);
  telemetry::SpanRecorder::global().record(
      {"engine.batch", "engine", batch_start_ns, batch_end_ns, 0,
       std::to_string(batch.size()) + " pkts / " +
           std::to_string(workers_.size()) + " workers"});

  if (snapshot_interval_ > 0 && ++batches_since_snapshot_ >= snapshot_interval_) {
    batches_since_snapshot_ = 0;
    publish_telemetry();
    if (snapshot_hook_) snapshot_hook_();
  }
}

void DataplaneEngine::start_stream(VerdictSink sink) {
  if (streaming())
    throw std::logic_error("DataplaneEngine::start_stream: engine not idle");
  session_base_ = accepted_total_;
  for (auto& w : workers_) {
    std::lock_guard lock(w->ring.m);
    w->ring.dropped = 0;
  }
  if (mirror_) {
    // Stream mirrors run on the worker, just before the frame's sink call.
    sink = [mirror = mirror_, sink = std::move(sink)](
               std::uint64_t seq, const pkt::Packet& p, const Verdict& v) {
      if (v.action == ActionOp::kMirror) mirror(p);
      if (sink) sink(seq, p, v);
    };
  }
  open_stream(std::move(sink));
}

void DataplaneEngine::open_stream(VerdictSink sink) {
  sink_ = std::move(sink);
  {
    std::lock_guard lock(mutex_);
    streaming_.store(true, std::memory_order_release);
  }
  work_cv_.notify_all();
}

std::size_t DataplaneEngine::stream_push(std::span<const pkt::Packet> frames) {
  if (!streaming())
    throw std::logic_error("DataplaneEngine::stream_push: no open stream");
  if (frames.empty()) return 0;
  const std::uint64_t seq0 = push_seq_;
  push_seq_ += frames.size();
  const std::size_t accepted =
      enqueue(frames, seq0, backpressure_ == BackpressurePolicy::kDrop);
  accepted_total_ += accepted;
  return accepted;
}

std::exception_ptr DataplaneEngine::drain() {
  std::unique_lock lock(done_mutex_);
  done_cv_.wait(lock, [&] { return delivered_total_ >= accepted_total_; });
  return std::exchange(delivery_error_, nullptr);
}

void DataplaneEngine::stream_flush() {
  if (std::exception_ptr error = drain()) std::rethrow_exception(error);
}

void DataplaneEngine::stop_stream() {
  if (!streaming()) return;
  std::exception_ptr error = drain();
  {
    std::lock_guard lock(mutex_);
    streaming_.store(false, std::memory_order_release);
  }
  wake_all_rings();
  sink_ = nullptr;
  // The rings are drained and the workers quiesced (the drain's done_mutex_
  // handshake is the happens-before edge), so fan the newest plan out here:
  // workers that saw no traffic after a mid-stream swap adopt it now, and
  // merged counter reads after the stream are canonical.
  for (auto& w : workers_) maybe_adopt(*w);
  if (error) std::rethrow_exception(error);
}

DataplaneEngine::StreamStats DataplaneEngine::stream_stats() const {
  StreamStats s;
  s.accepted = accepted_total_ - session_base_;
  {
    std::lock_guard lock(done_mutex_);
    s.delivered = delivered_total_ - session_base_;
  }
  for (std::size_t w = 0; w < workers_.size(); ++w) s.dropped += ring_dropped(w);
  return s;
}

std::uint64_t DataplaneEngine::ring_dropped(std::size_t worker) const {
  const Ring& r = workers_[worker]->ring;
  std::lock_guard lock(r.m);
  return r.dropped;
}

TableWriteStatus DataplaneEngine::install_entry(const TableEntry& entry) {
  const auto status = control_.add_entry(entry);
  if (status == TableWriteStatus::kOk) publish_plan();
  return status;
}

TableWriteStatus DataplaneEngine::install_rules(const std::vector<TableEntry>& entries) {
  const auto status = control_.replace_entries(entries);
  if (status == TableWriteStatus::kOk) publish_plan();
  return status;
}

void DataplaneEngine::set_default_action(ActionOp action) {
  control_.set_default_action(action);
  publish_plan();
}

void DataplaneEngine::clear_rules() {
  control_.clear();
  publish_plan();
}

void DataplaneEngine::set_match_backend(MatchBackend backend) {
  control_.set_match_backend(backend);
  publish_plan();
}

MatchBackend DataplaneEngine::match_backend() const {
  return current_plan()->rules->backend;
}

void DataplaneEngine::set_malformed_policy(MalformedPolicy policy) {
  control_.set_malformed_policy(policy);
  publish_plan();
}

void DataplaneEngine::set_rate_guard(const RateGuardSpec& spec) {
  guard_spec_ = std::make_shared<const RateGuardSpec>(spec);
  publish_plan();
}

void DataplaneEngine::clear_rate_guard() {
  guard_spec_.reset();
  publish_plan();
}

std::uint64_t DataplaneEngine::rules_version() const {
  return current_plan()->rules->version;
}

std::shared_ptr<const RuleSnapshot> DataplaneEngine::rules_snapshot() const {
  return current_plan()->rules;
}

void DataplaneEngine::adopt_rules(std::shared_ptr<const RuleSnapshot> snap) {
  if (!snap) return;
  control_.adopt_snapshot(std::move(snap));
  publish_plan();
}

void DataplaneEngine::set_mirror_handler(P4Switch::MirrorHandler handler) {
  mirror_ = std::move(handler);
}

SwitchStats DataplaneEngine::stats() const {
  SwitchStats merged;
  for (const auto& w : workers_) {
    const auto& s = w->sw.stats();
    merged.packets += s.packets;
    merged.permitted += s.permitted;
    merged.dropped += s.dropped;
    merged.mirrored += s.mirrored;
    merged.rate_guard_drops += s.rate_guard_drops;
    merged.malformed += s.malformed;
    merged.bytes_in += s.bytes_in;
    merged.bytes_forwarded += s.bytes_forwarded;
    for (std::size_t c = 0; c < 16; ++c) merged.drops_by_class[c] += s.drops_by_class[c];
  }
  return merged;
}

std::uint64_t DataplaneEngine::hit_count(std::size_t entry_index) const {
  std::uint64_t total = 0;
  for (const auto& w : workers_) total += w->sw.table().hit_count(entry_index);
  return total;
}

std::uint64_t DataplaneEngine::default_hits() const {
  std::uint64_t total = 0;
  for (const auto& w : workers_) total += w->sw.table().default_hits();
  return total;
}

std::uint64_t DataplaneEngine::hit_count_for_version(std::uint64_t version,
                                                     std::size_t entry_index) const {
  std::uint64_t total = 0;
  for (const auto& w : workers_)
    total += w->sw.table().hits_for_version(version, entry_index);
  return total;
}

std::uint64_t DataplaneEngine::default_hits_for_version(std::uint64_t version) const {
  std::uint64_t total = 0;
  for (const auto& w : workers_)
    total += w->sw.table().default_hits_for_version(version);
  return total;
}

FlowCacheStats DataplaneEngine::flow_cache_stats() const {
  FlowCacheStats merged;
  for (const auto& w : workers_) {
    if (const FlowVerdictCache* cache = w->sw.flow_cache()) {
      merged.hits += cache->stats().hits;
      merged.misses += cache->stats().misses;
      merged.insertions += cache->stats().insertions;
      merged.invalidations += cache->stats().invalidations;
    }
  }
  return merged;
}

void DataplaneEngine::reset_stats() {
  for (auto& w : workers_) w->sw.reset_stats();
}

void DataplaneEngine::publish_telemetry() const {
  auto& reg = telemetry::Registry::global();
  reg.set_gauge("p4iot_engine_workers", static_cast<double>(workers_.size()),
                "Worker replica count");
  reg.set_gauge("p4iot_engine_ring_capacity", static_cast<double>(ring_capacity_),
                "Per-worker ingest ring slots");
  reg.set_gauge("p4iot_engine_backpressure",
                static_cast<double>(static_cast<int>(backpressure_)),
                "Full-ring policy (0 = block, 1 = drop)");
  const P4Switch& first = workers_[0]->sw;
  DataplaneGauges gauges;
  gauges.stats = stats();
  gauges.table = &first.table();
  if (first.flow_cache_enabled()) gauges.cache = flow_cache_stats();
  if (const RateGuard* guard = first.rate_guard()) gauges.guard = &guard->spec();
  std::uint64_t dropped_sum = 0;
  for (std::size_t w = 0; w < workers_.size(); ++w) {
    const auto& sw = workers_[w]->sw;
    reg.set_gauge("p4iot_engine_worker_packets{worker=\"" + std::to_string(w) + "\"}",
                  static_cast<double>(sw.stats().packets),
                  "Packets processed by each worker replica");
    const std::uint64_t dropped = ring_dropped(w);
    dropped_sum += dropped;
    reg.set_gauge("p4iot_engine_ring_dropped{worker=\"" + std::to_string(w) + "\"}",
                  static_cast<double>(dropped),
                  "Frames shed at each worker's full ring (drop policy)");
    if (const FlowVerdictCache* cache = sw.flow_cache()) {
      gauges.cache_occupancy += cache->occupancy();
      gauges.cache_capacity += cache->capacity();
    }
    if (const RateGuard* guard = sw.rate_guard()) {
      gauges.guard_tripped += guard->tripped_count();
      gauges.guard_sketch_load += guard->sketch().load_factor();
    }
  }
  gauges.guard_sketch_load /= static_cast<double>(workers_.size());
  reg.set_gauge("p4iot_engine_ring_dropped_total", static_cast<double>(dropped_sum),
                "Frames shed across all ingest rings (drop policy)");
  publish_dataplane_gauges(gauges);
}

}  // namespace p4iot::p4
