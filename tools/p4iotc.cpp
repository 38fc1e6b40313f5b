// p4iotc — command-line front end for the p4iot library.
//
//   p4iotc generate --dataset wifi_ip --seed 42 --duration 120 --out cap.trc
//   p4iotc train    --trace cap.trc --fields 4 --out model.bin [--p4 fw.p4]
//   p4iotc eval     --model model.bin --trace cap.trc
//   p4iotc inspect  --model model.bin
//   p4iotc convert  --trace cap.trc --pcap-prefix cap
//   p4iotc stats    --trace cap.trc [--workers 4] [--batch 2048]
//                   [--match-backend linear|compiled]
//   p4iotc replay   --trace cap.trc [--workers 4] [--batch 2048] [--stream]
//                   [--ring-size 1024] [--backpressure block|drop]
//
// Any command accepts --metrics-out FILE (Prometheus text snapshot of the
// telemetry registry) and --trace-out FILE (chrome://tracing span JSON),
// written after the command finishes. Options may be spelled --key value or
// --key=value.
//
// Exit status: 0 on success, 1 on usage errors, 2 on I/O / data errors.
#include <algorithm>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <map>
#include <optional>
#include <string>
#include <vector>

#include "common/telemetry.h"
#include "common/telemetry_export.h"
#include "core/evaluation.h"
#include "core/pipeline.h"
#include "core/serialize.h"
#include "p4/engine.h"
#include "packet/dissect.h"
#include "packet/pcap.h"
#include "packet/trace.h"
#include "sdn/controller.h"
#include "trafficgen/datasets.h"

namespace {

using namespace p4iot;

/// Minimal argument map; accepts `--key value` and `--key=value`.
class Args {
 public:
  Args(int argc, char** argv, int first) {
    for (int i = first; i < argc; ++i) {
      if (std::strncmp(argv[i], "--", 2) != 0) {
        error_ = std::string("expected --option, got: ") + argv[i];
        return;
      }
      const std::string token = argv[i] + 2;
      const auto eq = token.find('=');
      if (eq != std::string::npos) {
        values_[token.substr(0, eq)] = token.substr(eq + 1);
      } else if (token == "stream") {
        // Boolean flag: takes no value. Move-assigned, because GCC 12 at -O3
        // reports a false -Wrestrict for assigning a literal here.
        values_[token] = std::string("1");
      } else if (i + 1 < argc) {
        values_[token] = argv[++i];
      } else {
        error_ = std::string("option missing a value: ") + argv[i];
        return;
      }
    }
  }

  const std::string& error() const noexcept { return error_; }

  std::optional<std::string> get(const std::string& key) const {
    const auto it = values_.find(key);
    return it == values_.end() ? std::nullopt : std::optional<std::string>(it->second);
  }
  std::string get_or(const std::string& key, std::string fallback) const {
    return get(key).value_or(std::move(fallback));
  }
  double number_or(const std::string& key, double fallback) const {
    const auto v = get(key);
    return v ? std::atof(v->c_str()) : fallback;
  }

 private:
  std::map<std::string, std::string> values_;
  std::string error_;
};

int usage() {
  std::fprintf(stderr,
               "usage: p4iotc <command> [--option value ...]\n"
               "  generate --dataset wifi_ip|zigbee|ble|mixed --out FILE.trc\n"
               "           [--seed N] [--duration SECONDS] [--devices N]\n"
               "  train    --trace FILE.trc --out MODEL.bin\n"
               "           [--fields K] [--p4 FILE.p4] [--rules FILE.txt]\n"
               "  eval     --model MODEL.bin --trace FILE.trc\n"
               "  inspect  --model MODEL.bin\n"
               "  convert  --trace FILE.trc --pcap-prefix PREFIX\n"
               "  stats    --trace FILE.trc [--fields K] [--workers N] [--batch N]\n"
               "           [--match-backend linear|compiled]\n"
               "  replay   --trace FILE.trc [--fields K] [--workers N] [--batch N]\n"
               "           [--stream] [--ring-size N] [--backpressure block|drop]\n"
               "           [--match-backend linear|compiled]\n"
               "any command also accepts:\n"
               "  --metrics-out FILE   Prometheus snapshot of runtime telemetry\n"
               "  --trace-out FILE     chrome://tracing JSON of recorded spans\n");
  return 1;
}

std::optional<gen::DatasetId> parse_dataset(const std::string& name) {
  for (const auto id : gen::all_datasets())
    if (name == gen::dataset_name(id)) return id;
  return std::nullopt;
}

int cmd_generate(const Args& args) {
  const auto dataset_name = args.get("dataset");
  const auto out = args.get("out");
  if (!dataset_name || !out) return usage();
  const auto id = parse_dataset(*dataset_name);
  if (!id) {
    std::fprintf(stderr, "unknown dataset: %s\n", dataset_name->c_str());
    return 1;
  }

  gen::DatasetOptions options;
  options.seed = static_cast<std::uint64_t>(args.number_or("seed", 42));
  options.duration_s = args.number_or("duration", 120.0);
  options.benign_devices = static_cast<int>(args.number_or("devices", 10));

  const auto trace = gen::make_dataset(*id, options);
  if (!pkt::write_trace(trace, *out)) {
    std::fprintf(stderr, "cannot write %s\n", out->c_str());
    return 2;
  }
  const auto stats = trace.stats();
  std::printf("wrote %s: %zu packets, %.1f%% attack, %.0fs\n", out->c_str(),
              stats.packets, 100.0 * stats.attack_fraction(), stats.duration_s);
  return 0;
}

int cmd_train(const Args& args) {
  const auto trace_path = args.get("trace");
  const auto out = args.get("out");
  if (!trace_path || !out) return usage();
  const auto trace = pkt::read_trace(*trace_path);
  if (!trace) {
    std::fprintf(stderr, "cannot read trace %s\n", trace_path->c_str());
    return 2;
  }

  const auto k = static_cast<std::size_t>(args.number_or("fields", 4));
  core::TwoStagePipeline pipeline(core::PipelineConfig::with_fields(k));
  pipeline.fit(*trace);
  if (!pipeline.trained()) {
    std::fprintf(stderr, "training produced no usable model\n");
    return 2;
  }
  if (!core::save_pipeline(pipeline, *out)) {
    std::fprintf(stderr, "cannot write model %s\n", out->c_str());
    return 2;
  }

  std::printf("trained on %zu packets in %.2fs: %zu fields, %zu rules, %zu TCAM bits\n",
              trace->size(), pipeline.timings().total_seconds,
              pipeline.selection().fields.size(), pipeline.rules().entries.size(),
              pipeline.rules().tcam_bits);
  std::printf("model written to %s\n", out->c_str());

  if (const auto p4_path = args.get("p4")) {
    std::ofstream(*p4_path) << pipeline.p4_source();
    std::printf("P4 program written to %s\n", p4_path->c_str());
  }
  if (const auto rules_path = args.get("rules")) {
    std::ofstream(*rules_path) << pipeline.runtime_commands();
    std::printf("runtime commands written to %s\n", rules_path->c_str());
  }
  return 0;
}

int cmd_eval(const Args& args) {
  const auto model_path = args.get("model");
  const auto trace_path = args.get("trace");
  if (!model_path || !trace_path) return usage();
  const auto pipeline = core::load_pipeline(*model_path);
  if (!pipeline) {
    std::fprintf(stderr, "cannot load model %s\n", model_path->c_str());
    return 2;
  }
  const auto trace = pkt::read_trace(*trace_path);
  if (!trace) {
    std::fprintf(stderr, "cannot read trace %s\n", trace_path->c_str());
    return 2;
  }

  const auto cm = core::evaluate_pipeline(*pipeline, *trace);
  std::printf("%s\n", cm.summary().c_str());

  // Per-attack breakdown (requires labels in the trace).
  std::size_t per_attack_total[pkt::kNumAttackTypes] = {};
  std::size_t per_attack_caught[pkt::kNumAttackTypes] = {};
  for (const auto& p : trace->packets()) {
    if (!p.is_attack()) continue;
    const auto idx = static_cast<std::size_t>(p.attack);
    ++per_attack_total[idx];
    per_attack_caught[idx] += pipeline->predict(p) ? 1 : 0;
  }
  for (int a = 1; a < pkt::kNumAttackTypes; ++a) {
    if (per_attack_total[a] == 0) continue;
    std::printf("  %-14s %zu/%zu\n",
                pkt::attack_type_name(static_cast<pkt::AttackType>(a)),
                per_attack_caught[a], per_attack_total[a]);
  }
  return 0;
}

int cmd_inspect(const Args& args) {
  const auto model_path = args.get("model");
  if (!model_path) return usage();
  const auto pipeline = core::load_pipeline(*model_path);
  if (!pipeline) {
    std::fprintf(stderr, "cannot load model %s\n", model_path->c_str());
    return 2;
  }

  std::printf("model %s\n", model_path->c_str());
  std::printf("  window: %zu bytes\n", pipeline->rules().program.parser.window_bytes);
  std::printf("  fields (%zu):\n", pipeline->selection().fields.size());
  for (const auto& f : pipeline->selection().fields)
    std::printf("    offset %zu width %zu saliency %.4f\n", f.offset, f.width,
                f.saliency);
  std::printf("  rules: %zu entries, %zu TCAM bits, default %s\n",
              pipeline->rules().entries.size(), pipeline->rules().tcam_bits,
              p4::action_op_name(pipeline->rules().program.default_action));
  std::printf("  stage-2 tree: %zu nodes\n", pipeline->rules().tree.nodes().size());
  return 0;
}

int cmd_convert(const Args& args) {
  const auto trace_path = args.get("trace");
  const auto prefix = args.get("pcap-prefix");
  if (!trace_path || !prefix) return usage();
  const auto trace = pkt::read_trace(*trace_path);
  if (!trace) {
    std::fprintf(stderr, "cannot read trace %s\n", trace_path->c_str());
    return 2;
  }
  for (const auto link : {pkt::LinkType::kEthernet, pkt::LinkType::kIeee802154,
                          pkt::LinkType::kBleLinkLayer}) {
    const std::string path =
        *prefix + "_" + pkt::link_type_name(link) + ".pcap";
    const auto written = pkt::write_pcap(*trace, link, path);
    if (!written) {
      std::fprintf(stderr, "cannot write %s\n", path.c_str());
      return 2;
    }
    if (*written == 0) {
      std::remove(path.c_str());
      continue;
    }
    std::printf("wrote %s (%zu packets)\n", path.c_str(), *written);
  }
  return 0;
}

/// Replay a labelled trace through the full runtime (controller with a
/// transactional bootstrap swap, then the multi-worker engine) and report
/// live telemetry: verdict mix, cache hit rate, per-stage latency
/// percentiles, per-worker packet counts. The usual companion flags
/// --metrics-out / --trace-out turn the run into machine-readable snapshots.
int cmd_stats(const Args& args) {
  const auto trace_path = args.get("trace");
  if (!trace_path) return usage();
  const auto trace = pkt::read_trace(*trace_path);
  if (!trace) {
    std::fprintf(stderr, "cannot read trace %s\n", trace_path->c_str());
    return 2;
  }

  namespace telemetry = common::telemetry;
  const auto k = static_cast<std::size_t>(args.number_or("fields", 4));
  const auto workers = static_cast<std::size_t>(args.number_or("workers", 4));
  const auto batch_size =
      std::max<std::size_t>(1, static_cast<std::size_t>(args.number_or("batch", 2048)));

  // Sample stage latency densely for this one-shot report: the replay is
  // offline, so the hot-path budget that dictates 1/64 in production does
  // not apply here.
  telemetry::set_stage_sampling_shift(2);

  // Control plane: bootstrap performs the transactional build → install →
  // verify → retire swap (recorded as spans), then the replay exercises the
  // sampling/drift loop against the trace's own labels.
  sdn::ControllerConfig config;
  config.pipeline = core::PipelineConfig::with_fields(k);
  sdn::Controller controller(
      config, [](const pkt::Packet& p) { return std::optional<bool>(p.is_attack()); });
  if (!controller.bootstrap(*trace)) {
    std::fprintf(stderr, "bootstrap failed (table too small?)\n");
    return 2;
  }
  for (const auto& packet : trace->packets()) (void)controller.handle(packet);
  controller.publish_telemetry();

  // Data plane at scale: the same rules served by the multi-worker engine.
  // --match-backend selects the worker lookup implementation: `compiled`
  // (default, the tuple-space index) or `linear` (the reference TCAM scan).
  const auto backend_name = args.get_or("match-backend", "compiled");
  const auto backend = p4::parse_match_backend(backend_name);
  if (!backend) {
    std::fprintf(stderr, "unknown match backend: %s (expected linear|compiled)\n",
                 backend_name.c_str());
    return 1;
  }
  p4::EngineConfig engine_config;
  engine_config.workers = workers;
  engine_config.match_backend = *backend;
  const auto engine = controller.pipeline().make_engine(engine_config);
  const auto& packets = trace->packets();
  std::vector<p4::Verdict> verdicts;
  for (std::size_t off = 0; off < packets.size(); off += batch_size) {
    const auto count = std::min(batch_size, packets.size() - off);
    engine->process_batch(std::span(packets).subspan(off, count), verdicts);
  }
  engine->publish_telemetry();

  const auto stats = engine->stats();
  const auto cache = engine->flow_cache_stats();
  std::printf("replayed %llu packets through %zu workers (batch %zu)\n",
              static_cast<unsigned long long>(stats.packets), engine->worker_count(),
              batch_size);
  std::printf("verdicts: %llu permitted, %llu dropped, %llu mirrored, %llu malformed\n",
              static_cast<unsigned long long>(stats.permitted),
              static_cast<unsigned long long>(stats.dropped),
              static_cast<unsigned long long>(stats.mirrored),
              static_cast<unsigned long long>(stats.malformed));
  std::printf("flow cache: %.1f%% hit rate (%llu hits / %llu misses)\n",
              100.0 * cache.hit_rate(), static_cast<unsigned long long>(cache.hits),
              static_cast<unsigned long long>(cache.misses));
  const auto rules = engine->rules_snapshot();
  if (rules->compiled) {  // set iff the backend is compiled
    std::printf("match backend: %s (%zu tuple-space groups over %zu entries)\n",
                p4::match_backend_name(rules->backend), rules->compiled->group_count(),
                rules->entries.size());
  } else {
    std::printf("match backend: %s\n", p4::match_backend_name(rules->backend));
  }
  std::printf("controller: %zu events, %zu retrains, degraded=%s\n",
              controller.events().size(), controller.retrain_count(),
              controller.degraded() ? "yes" : "no");

  const auto& registry = telemetry::Registry::global();
  std::printf("stage latency (sampled, ns):\n");
  for (const char* name :
       {"p4iot_switch_parse_ns", "p4iot_switch_cache_hit_ns",
        "p4iot_switch_tcam_scan_ns", "p4iot_switch_guard_ns",
        "p4iot_switch_packet_ns"}) {
    const auto* histogram = registry.find_histogram(name);
    if (!histogram) continue;
    const auto snap = histogram->snapshot();
    if (snap.count == 0) continue;
    std::printf("  %-28s p50=%-8.0f p95=%-8.0f p99=%-8.0f max=%llu (n=%llu)\n",
                name, snap.percentile(50), snap.percentile(95), snap.percentile(99),
                static_cast<unsigned long long>(snap.max),
                static_cast<unsigned long long>(snap.count));
  }
  return 0;
}


/// `replay`: train on the trace, then drive the multi-worker engine over it
/// either batched (default: process_batch per --batch frames) or through the
/// streaming ring-buffer ingest (--stream): frames are pushed continuously,
/// verdicts are delivered asynchronously on worker threads, and
/// --backpressure picks what a full ring does — `block` is lossless,
/// `drop` sheds frames and counts them per worker ring.
int cmd_replay(const Args& args) {
  const auto trace_path = args.get("trace");
  if (!trace_path) return usage();
  const auto trace = pkt::read_trace(*trace_path);
  if (!trace) {
    std::fprintf(stderr, "cannot read trace %s\n", trace_path->c_str());
    return 2;
  }

  namespace telemetry = common::telemetry;
  const auto k = static_cast<std::size_t>(args.number_or("fields", 4));
  const auto workers = static_cast<std::size_t>(args.number_or("workers", 4));
  const auto batch_size =
      std::max<std::size_t>(1, static_cast<std::size_t>(args.number_or("batch", 2048)));
  const bool stream = args.get("stream").has_value();
  const auto ring_size =
      std::max<std::size_t>(1, static_cast<std::size_t>(args.number_or("ring-size", 1024)));
  const auto policy_name = args.get_or("backpressure", "block");
  const auto policy = p4::parse_backpressure_policy(policy_name);
  if (!policy) {
    std::fprintf(stderr, "unknown backpressure policy: %s (expected block|drop)\n",
                 policy_name.c_str());
    return 1;
  }
  const auto backend_name = args.get_or("match-backend", "compiled");
  const auto backend = p4::parse_match_backend(backend_name);
  if (!backend) {
    std::fprintf(stderr, "unknown match backend: %s (expected linear|compiled)\n",
                 backend_name.c_str());
    return 1;
  }

  core::TwoStagePipeline pipeline(core::PipelineConfig::with_fields(k));
  pipeline.fit(*trace);
  if (!pipeline.trained()) {
    std::fprintf(stderr, "training produced no usable model\n");
    return 2;
  }

  p4::EngineConfig engine_config;
  engine_config.workers = workers;
  engine_config.match_backend = *backend;
  engine_config.ring_capacity = ring_size;
  engine_config.backpressure = *policy;
  const auto engine = pipeline.make_engine(engine_config);

  const auto& packets = trace->packets();
  const std::uint64_t t0 = telemetry::now_ns();
  if (stream) {
    engine->start_stream(
        [](std::uint64_t, const pkt::Packet&, const p4::Verdict&) {});
    for (std::size_t off = 0; off < packets.size(); off += batch_size) {
      const auto count = std::min(batch_size, packets.size() - off);
      engine->stream_push(std::span(packets).subspan(off, count));
    }
    engine->stream_flush();
    const auto ss = engine->stream_stats();
    engine->stop_stream();
    std::printf("replay: streamed %zu frames through %zu workers "
                "(ring %zu, backpressure %s)\n",
                packets.size(), engine->worker_count(), ring_size,
                p4::backpressure_policy_name(*policy));
    std::printf("stream: %llu accepted, %llu delivered, %llu dropped\n",
                static_cast<unsigned long long>(ss.accepted),
                static_cast<unsigned long long>(ss.delivered),
                static_cast<unsigned long long>(ss.dropped));
  } else {
    std::vector<p4::Verdict> verdicts;
    for (std::size_t off = 0; off < packets.size(); off += batch_size) {
      const auto count = std::min(batch_size, packets.size() - off);
      engine->process_batch(std::span(packets).subspan(off, count), verdicts);
    }
    std::printf("replay: batched %zu frames through %zu workers (batch %zu)\n",
                packets.size(), engine->worker_count(), batch_size);
  }
  const double seconds =
      static_cast<double>(telemetry::now_ns() - t0) / 1e9;
  engine->publish_telemetry();

  const auto stats = engine->stats();
  std::printf("verdicts: %llu permitted, %llu dropped, %llu mirrored, %llu malformed\n",
              static_cast<unsigned long long>(stats.permitted),
              static_cast<unsigned long long>(stats.dropped),
              static_cast<unsigned long long>(stats.mirrored),
              static_cast<unsigned long long>(stats.malformed));
  std::printf("match backend: %s; throughput: %.2f Mpps\n",
              p4::match_backend_name(engine->match_backend()),
              seconds > 0.0
                  ? static_cast<double>(stats.packets) / seconds / 1e6
                  : 0.0);
  return 0;
}

/// --metrics-out / --trace-out: serialize the telemetry accumulated during
/// whatever command just ran.
int write_telemetry_outputs(const Args& args) {
  if (const auto metrics_path = args.get("metrics-out")) {
    if (!common::telemetry::write_prometheus(*metrics_path)) {
      std::fprintf(stderr, "cannot write %s\n", metrics_path->c_str());
      return 2;
    }
    std::printf("telemetry metrics written to %s\n", metrics_path->c_str());
  }
  if (const auto trace_path = args.get("trace-out")) {
    if (!common::telemetry::write_trace_json(*trace_path)) {
      std::fprintf(stderr, "cannot write %s\n", trace_path->c_str());
      return 2;
    }
    std::printf("span trace written to %s\n", trace_path->c_str());
  }
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  if (argc < 2) return usage();
  const std::string command = argv[1];
  const Args args(argc, argv, 2);
  if (!args.error().empty()) {
    std::fprintf(stderr, "%s\n", args.error().c_str());
    return usage();
  }

  int status;
  if (command == "generate") status = cmd_generate(args);
  else if (command == "train") status = cmd_train(args);
  else if (command == "eval") status = cmd_eval(args);
  else if (command == "inspect") status = cmd_inspect(args);
  else if (command == "convert") status = cmd_convert(args);
  else if (command == "stats") status = cmd_stats(args);
  else if (command == "replay") status = cmd_replay(args);
  else return usage();

  if (status != 0) return status;
  return write_telemetry_outputs(args);
}
