// Pins the allocation-free packet path: once warmed up, classifying a frame
// must not touch the heap, on the single switch (both lookup backends, flow
// cache on and off) and through a 2-worker engine stream. Global operator
// new is replaced with a counting one, which is why this file is its own
// test executable: no other test binary sees the replacement.
#include <gtest/gtest.h>

#include <atomic>
#include <cstdint>
#include <cstdlib>
#include <new>
#include <vector>

#include "core/pipeline.h"
#include "p4/engine.h"
#include "trafficgen/datasets.h"

namespace {
std::atomic<std::uint64_t> g_allocations{0};
}  // namespace

// Every unaligned new/delete form is replaced, so that a runtime which
// supplies its own allocator (the sanitizers do) never frees memory that
// this malloc handed out, or the reverse. The allocating form is out of
// line, so the compiler never sees malloc() behind an inlined new and pairs
// it with a delete (a false -Wmismatched-new-delete at -O3).
[[gnu::noinline]] void* operator new(std::size_t size, const std::nothrow_t&) noexcept {
  g_allocations.fetch_add(1, std::memory_order_relaxed);
  return std::malloc(size ? size : 1);
}
void* operator new(std::size_t size) {
  if (void* p = operator new(size, std::nothrow)) return p;
  throw std::bad_alloc();
}
void* operator new[](std::size_t size) { return operator new(size); }
void* operator new[](std::size_t size, const std::nothrow_t&) noexcept {
  return operator new(size, std::nothrow);
}
// Out of line, so the compiler does not pair an inlined free() with a new.
[[gnu::noinline]] void operator delete(void* p) noexcept { std::free(p); }
[[gnu::noinline]] void operator delete(void* p, std::size_t) noexcept { std::free(p); }
[[gnu::noinline]] void operator delete(void* p, const std::nothrow_t&) noexcept { std::free(p); }
[[gnu::noinline]] void operator delete[](void* p) noexcept { std::free(p); }
[[gnu::noinline]] void operator delete[](void* p, std::size_t) noexcept { std::free(p); }
[[gnu::noinline]] void operator delete[](void* p, const std::nothrow_t&) noexcept { std::free(p); }

namespace p4iot::p4 {
namespace {

struct LearnedGateway {
  core::TwoStagePipeline pipeline;
  pkt::Trace test;
};

// The wifi_ip dataset's learned rules and its held-out test split; trained
// once per process (fit quality is irrelevant, only the packet path is).
const LearnedGateway& wifi_ip() {
  static const LearnedGateway gateway = [] {
    gen::DatasetOptions options;
    options.seed = 21;
    options.duration_s = 15.0;
    options.benign_devices = 6;
    const auto trace = gen::make_dataset(gen::DatasetId::kWifiIp, options);
    common::Rng rng(1);
    auto [train, test] = trace.split(0.7, rng);
    auto config = core::PipelineConfig::with_fields(4);
    config.stage1.probe.epochs = 6;
    config.stage1.probe.hidden_sizes = {24, 12};
    config.stage1.autoencoder.epochs = 5;
    config.stage1.autoencoder.encoder_sizes = {16, 8};
    LearnedGateway g{core::TwoStagePipeline(config), std::move(test)};
    g.pipeline.fit(train);
    return g;
  }();
  return gateway;
}

template <typename F>
std::uint64_t allocations_during(F&& body) {
  const std::uint64_t before = g_allocations.load(std::memory_order_relaxed);
  body();
  return g_allocations.load(std::memory_order_relaxed) - before;
}

TEST(AllocationFree, CounterSeesHeapAllocations) {
  const std::uint64_t allocations = allocations_during([] {
    std::vector<int> v(64);
    EXPECT_EQ(v.size(), 64u);
  });
  EXPECT_GE(allocations, 1u);
}

TEST(AllocationFree, SwitchProcessAfterWarmUp) {
  const auto& g = wifi_ip();
  ASSERT_FALSE(g.pipeline.rules().entries.empty());
  const auto& frames = g.test.packets();
  ASSERT_GT(frames.size(), 100u);
  for (const MatchBackend backend : {MatchBackend::kLinear, MatchBackend::kCompiled}) {
    for (const bool cache : {false, true}) {
      P4Switch sw = g.pipeline.make_switch();
      sw.set_match_backend(backend);
      if (cache) sw.enable_flow_cache();
      for (const auto& p : frames) (void)sw.process(p);  // warm-up
      const std::uint64_t allocations = allocations_during([&] {
        for (const auto& p : frames) (void)sw.process(p);
      });
      EXPECT_EQ(allocations, 0u) << match_backend_name(backend)
                                 << (cache ? " + flow cache" : "") << ": "
                                 << allocations << " allocations over "
                                 << frames.size() << " frames";
    }
  }
}

TEST(AllocationFree, TwoWorkerEngineStreamAfterWarmUp) {
  const auto& g = wifi_ip();
  const auto& frames = g.test.packets();
  DataplaneEngine engine(g.pipeline.rules().program, EngineConfig{.workers = 2});
  ASSERT_EQ(g.pipeline.install(engine), TableWriteStatus::kOk);
  std::atomic<std::uint64_t> delivered{0};
  engine.start_stream([&delivered](std::uint64_t, const pkt::Packet&, const Verdict&) {
    delivered.fetch_add(1, std::memory_order_relaxed);
  });
  engine.stream_push(std::span(frames));  // warm-up
  engine.stream_flush();
  const std::uint64_t allocations = allocations_during([&] {
    engine.stream_push(std::span(frames));
    engine.stream_flush();
  });
  engine.stop_stream();
  EXPECT_EQ(delivered.load(), 2 * frames.size());
  EXPECT_EQ(allocations, 0u) << allocations << " allocations over " << frames.size()
                             << " frames";
}

}  // namespace
}  // namespace p4iot::p4
