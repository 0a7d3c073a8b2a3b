/// \file test_obs.cpp
/// \brief Tests for the observability subsystem (src/obs/): span tracer
///        ring-buffer semantics, Chrome trace-event export validity,
///        concurrent emission (the TSan CI leg runs this binary), the
///        metrics registry, and PR 6's zero-perturbation guarantee --
///        waveforms must be bitwise-identical with tracing on or off.
#include <atomic>
#include <cstring>
#include <string>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "circuit/mna.hpp"
#include "circuit/netlist.hpp"
#include "core/scheduler.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "runtime/batch.hpp"
#include "runtime/scenario.hpp"
#include "solver/dc.hpp"
#include "solver/json_writer.hpp"
#include "solver/observer.hpp"
#include "solver/tr_adaptive.hpp"
#include "test_util.hpp"

namespace matex::obs {
namespace {

using circuit::MnaSystem;
using circuit::Netlist;
using circuit::PulseSpec;
using circuit::Waveform;
using solver::JsonValue;
using solver::StateRecorder;
using solver::parse_json;
using solver::uniform_grid;

/// Tracing/metrics are process-global; every test leaves them disabled and
/// drained so tests stay order-independent.
struct ObsTest : ::testing::Test {
  void SetUp() override {
    stop_tracing();
    disable_metrics();
    discard_trace();
  }
  void TearDown() override {
    stop_tracing();
    disable_metrics();
    discard_trace();
  }
};

/// Counts events named `name` in a parsed trace document.
int count_events(const JsonValue& doc, std::string_view name) {
  int n = 0;
  for (const JsonValue& ev : doc.at("traceEvents").array)
    if (ev.at("name").as_string() == name) ++n;
  return n;
}

const JsonValue* find_event(const JsonValue& doc, std::string_view name) {
  for (const JsonValue& ev : doc.at("traceEvents").array)
    if (ev.at("name").as_string() == name) return &ev;
  return nullptr;
}

/// Small RC fixture with two pulsed loads (two scheduler groups).
Netlist two_group_netlist() {
  Netlist netlist;
  netlist.add_voltage_source("Vdd", "p", "0", Waveform::dc(1.0));
  netlist.add_resistor("Rp", "p", "a0", 0.2);
  const char* chain[] = {"a0", "a1", "a2", "a3"};
  for (int i = 0; i < 4; ++i) {
    netlist.add_capacitor(testing::numbered("C", i), chain[i], "0", 0.3);
    if (i + 1 < 4)
      netlist.add_resistor(testing::numbered("R", i), chain[i],
                           chain[i + 1], 0.5);
  }
  PulseSpec bump;
  bump.v1 = 0.0;
  bump.v2 = 0.2;
  bump.delay = 0.3;
  bump.rise = 0.1;
  bump.width = 0.2;
  bump.fall = 0.1;
  netlist.add_current_source("I1", "a1", "0", Waveform::pulse(bump));
  bump.delay = 0.8;
  bump.v2 = 0.1;
  netlist.add_current_source("I2", "a3", "0", Waveform::pulse(bump));
  return netlist;
}

// ------------------------------------------------------------ span tracer

TEST_F(ObsTest, DisabledTracingEmitsNothing) {
  {
    MATEX_SPAN("should_not_appear", "n", 3);
    instant("also_not", "k", 1.0);
  }
  EXPECT_EQ(buffered_event_count(), 0);
  const JsonValue doc = parse_json(chrome_trace_json());
  EXPECT_TRUE(doc.at("traceEvents").array.empty());
}

TEST_F(ObsTest, SpanExportIsValidChromeTraceJson) {
  start_tracing();
  {
    MATEX_SPAN("outer", "n", 42, "label", "lit");
    MATEX_SPAN("inner");
  }
  instant("tick", "k", 7);
  stop_tracing();

  const std::string json = chrome_trace_json();
  const JsonValue doc = parse_json(json);  // throws on malformed output
  EXPECT_EQ(doc.at("displayTimeUnit").as_string(), "ms");
  EXPECT_EQ(doc.at("droppedEvents").as_number(), 0.0);

  const JsonValue* outer = find_event(doc, "outer");
  ASSERT_NE(outer, nullptr);
  EXPECT_EQ(outer->at("ph").as_string(), "X");
  EXPECT_EQ(outer->at("cat").as_string(), "matex");
  EXPECT_GE(outer->at("dur").as_number(), 0.0);
  EXPECT_GE(outer->at("ts").as_number(), 0.0);
  EXPECT_EQ(outer->at("args").at("n").as_number(), 42.0);
  EXPECT_EQ(outer->at("args").at("label").as_string(), "lit");

  ASSERT_NE(find_event(doc, "inner"), nullptr);
  const JsonValue* tick = find_event(doc, "tick");
  ASSERT_NE(tick, nullptr);
  EXPECT_EQ(tick->at("ph").as_string(), "i");
  EXPECT_EQ(tick->at("s").as_string(), "t");

  // The export drains the rings.
  EXPECT_EQ(buffered_event_count(), 0);
}

TEST_F(ObsTest, LateArgsAndNullStringAttributes) {
  start_tracing();
  {
    Span span("late", "fixed", 1);
    span.arg("result", 3.5).arg("skipped", static_cast<const char*>(nullptr));
  }
  stop_tracing();
  const JsonValue doc = parse_json(chrome_trace_json());
  const JsonValue* ev = find_event(doc, "late");
  ASSERT_NE(ev, nullptr);
  EXPECT_EQ(ev->at("args").at("result").as_number(), 3.5);
  EXPECT_EQ(ev->at("args").find("skipped"), nullptr);
}

TEST_F(ObsTest, ConcurrentSpanEmission) {
  // 8 producers x 2000 spans, each into its own SPSC ring: the sanitize CI
  // matrix runs this under TSan to prove the protocol race-free.
  start_tracing();
  constexpr int kThreads = 8;
  constexpr int kSpans = 2000;
  std::atomic<int> sink{0};
  std::vector<std::thread> threads;
  threads.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t)
    threads.emplace_back([&sink, t] {
      set_thread_name(intern(testing::numbered("emitter-", t)));
      for (int i = 0; i < kSpans; ++i) {
        MATEX_SPAN("worker_span", "thread", t, "i", i);
        sink.fetch_add(1, std::memory_order_relaxed);
      }
    });
  for (std::thread& t : threads) t.join();
  stop_tracing();

  EXPECT_EQ(dropped_event_count(), 0);
  const JsonValue doc = parse_json(chrome_trace_json());
  EXPECT_EQ(count_events(doc, "worker_span"), kThreads * kSpans);
  EXPECT_EQ(count_events(doc, "thread_name"), kThreads);
}

TEST_F(ObsTest, RingOverflowDropsAndCountsWithoutBlocking) {
  TraceOptions options;
  options.ring_capacity = 64;
  start_tracing(options);
  // A fresh thread gets a ring with the tiny capacity; its producer must
  // never block or overwrite once the ring is full.
  std::thread emitter([] {
    for (int i = 0; i < 200; ++i) MATEX_SPAN("flood", "i", i);
  });
  emitter.join();
  stop_tracing();

  EXPECT_EQ(dropped_event_count(), 200 - 64);
  const JsonValue doc = parse_json(chrome_trace_json());
  EXPECT_EQ(count_events(doc, "flood"), 64);
  EXPECT_EQ(doc.at("droppedEvents").as_number(), 200.0 - 64.0);
}

TEST_F(ObsTest, RepeatedSessionsDiscardStaleEvents) {
  start_tracing();
  { MATEX_SPAN("stale"); }
  stop_tracing();
  // Undrained events from the first session must not leak into the next.
  start_tracing();
  { MATEX_SPAN("fresh"); }
  stop_tracing();
  const JsonValue doc = parse_json(chrome_trace_json());
  EXPECT_EQ(count_events(doc, "stale"), 0);
  EXPECT_EQ(count_events(doc, "fresh"), 1);
}

// -------------------------------------------------------- solver coverage

TEST_F(ObsTest, SolverPhasesAndSchedulerIdentityAppearInTrace) {
  runtime::BatchOptions bopt;
  bopt.threads = 2;
  runtime::BatchEngine engine(bopt);
  engine.add_deck("deck", two_group_netlist());

  runtime::CampaignSweep sweep;
  sweep.methods = {krylov::KrylovKind::kRational};
  sweep.gammas = {0.05};
  sweep.tolerances = {1e-8};
  sweep.base.t_end = 2.0;
  sweep.base.output_times = uniform_grid(0.0, 2.0, 0.1);
  const auto scenarios = engine.expand(sweep);
  ASSERT_FALSE(scenarios.empty());

  start_tracing();
  const auto report = engine.run(scenarios);
  stop_tracing();
  ASSERT_EQ(report.failures, 0);

  const JsonValue doc = parse_json(chrome_trace_json());
  // Phase attribution: assembly, factorization, solves and Krylov.
  EXPECT_GT(count_events(doc, "factor") + count_events(doc, "refactor"), 0);
  EXPECT_GT(count_events(doc, "solve"), 0);
  EXPECT_GT(count_events(doc, "arnoldi"), 0);
  EXPECT_GT(count_events(doc, "dc"), 0);
  // Cache event stream.
  EXPECT_GT(count_events(doc, "cache.miss"), 0);
  // Per-task scheduler spans carry scenario/node identity.
  const JsonValue* node = find_event(doc, "node");
  ASSERT_NE(node, nullptr);
  EXPECT_EQ(node->at("args").at("scenario").as_string(), scenarios[0].name);
  EXPECT_GE(node->at("args").at("node").as_number(), 0.0);
  const JsonValue* scenario = find_event(doc, "scenario");
  ASSERT_NE(scenario, nullptr);
  EXPECT_EQ(scenario->at("args").at("name").as_string(), scenarios[0].name);
  EXPECT_GT(count_events(doc, "task"), 0);
  EXPECT_GT(count_events(doc, "superpose"), 0);
}

TEST_F(ObsTest, PaperProtocolRunFactorsOnceAndRefillsPerNode) {
  // Table 3 protocol: no factor cache, every node builds its own R-MATEX
  // operator but receives DC's LU(G). C + gamma*G has pattern(G), so the
  // only full factorization is DC's LU(G); each node pays one refill.
  const Netlist netlist = two_group_netlist();
  const MnaSystem mna(netlist);
  core::SchedulerOptions sopt;
  sopt.t_end = 2.0;
  sopt.solver.gamma = 0.05;
  sopt.solver.tolerance = 1e-9;
  sopt.output_times = uniform_grid(0.0, 2.0, 0.1);

  start_tracing();
  const auto result =
      core::run_distributed_matex(mna, sopt, solver::Observer{});
  stop_tracing();
  ASSERT_EQ(result.group_count, 2u);

  const JsonValue doc = parse_json(chrome_trace_json());
  EXPECT_EQ(count_events(doc, "factor"), 1);
  EXPECT_EQ(count_events(doc, "refactor"),
            static_cast<int>(result.group_count));
  for (const JsonValue& ev : doc.at("traceEvents").array) {
    if (ev.at("name").as_string() == "refactor") {
      EXPECT_NE(ev.at("args").at("kernel").as_string(), "fallback");
    }
  }

  // The ordering runs once, inside DC's factor span: a refill reuses the
  // analysis, so no order span sits under a refactor.
  ASSERT_EQ(count_events(doc, "order"), 1);
  const JsonValue* factor = find_event(doc, "factor");
  ASSERT_NE(factor, nullptr);
  const JsonValue& order = *find_event(doc, "order");
  const auto contains = [](const JsonValue& outer, const JsonValue& inner) {
    const double t0 = outer.at("ts").as_number();
    const double t1 = t0 + outer.at("dur").as_number();
    const double s0 = inner.at("ts").as_number();
    const double s1 = s0 + inner.at("dur").as_number();
    return outer.at("tid").as_number() == inner.at("tid").as_number() &&
           s0 >= t0 && s1 <= t1 + 1e-3;
  };
  EXPECT_TRUE(contains(*factor, order));
  EXPECT_EQ(order.at("args").at("n").as_number(),
            static_cast<double>(mna.dimension()));
  for (const JsonValue& ev : doc.at("traceEvents").array) {
    if (ev.at("name").as_string() == "refactor") {
      EXPECT_FALSE(contains(ev, order));
    }
  }
}

TEST_F(ObsTest, WaveformsBitwiseIdenticalTracingOnOrOff) {
  const Netlist netlist = two_group_netlist();
  const MnaSystem mna(netlist);
  const auto dc = solver::dc_operating_point(mna);

  solver::AdaptiveTrOptions topt;
  topt.t_end = 1.0;
  topt.h_init = 1e-3;
  topt.lte_tol = 1e-6;
  topt.output_times = uniform_grid(0.0, 1.0, 0.05);

  core::SchedulerOptions sopt;
  sopt.t_end = 2.0;
  sopt.solver.gamma = 0.05;
  sopt.solver.tolerance = 1e-9;
  sopt.output_times = uniform_grid(0.0, 2.0, 0.1);

  const auto run_both = [&](StateRecorder& tr, StateRecorder& dist) {
    run_adaptive_trapezoidal(mna, dc.x, topt, tr.observer());
    core::run_distributed_matex(mna, sopt, dist.observer());
  };

  StateRecorder tr_off, dist_off;
  run_both(tr_off, dist_off);

  start_tracing();
  enable_metrics();
  StateRecorder tr_on, dist_on;
  run_both(tr_on, dist_on);
  stop_tracing();
  disable_metrics();

  const auto expect_bitwise = [](const StateRecorder& a,
                                 const StateRecorder& b) {
    ASSERT_EQ(a.sample_count(), b.sample_count());
    for (std::size_t i = 0; i < a.sample_count(); ++i) {
      ASSERT_EQ(a.state(i).size(), b.state(i).size());
      // memcmp, not ==: bitwise identity is the guarantee (NaN-safe, no
      // -0.0 aliasing).
      EXPECT_EQ(std::memcmp(a.state(i).data(), b.state(i).data(),
                            a.state(i).size() * sizeof(double)),
                0)
          << "sample " << i;
    }
  };
  expect_bitwise(tr_off, tr_on);
  expect_bitwise(dist_off, dist_on);
}

// ----------------------------------------------------------------- metrics

TEST_F(ObsTest, HistogramBucketsAndMoments) {
  Histogram h(1.0, 1e4);
  h.record(0.5);    // underflow (<= lo)
  h.record(1.0);    // underflow boundary
  h.record(2.0);
  h.record(100.0);
  h.record(2e4);    // overflow
  const auto s = h.snapshot();
  EXPECT_EQ(s.count, 5);
  EXPECT_EQ(s.underflow, 2);
  EXPECT_EQ(s.overflow, 1);
  EXPECT_DOUBLE_EQ(s.min, 0.5);
  EXPECT_DOUBLE_EQ(s.max, 2e4);
  EXPECT_DOUBLE_EQ(s.sum, 0.5 + 1.0 + 2.0 + 100.0 + 2e4);
  long long bucketed = 0;
  for (const long long b : s.buckets) bucketed += b;
  EXPECT_EQ(bucketed, 2);
  // Bucket edges are geometric over (lo, hi].
  EXPECT_DOUBLE_EQ(s.edge(0), 1.0);
  EXPECT_NEAR(s.edge(Histogram::kBucketCount), 1e4, 1e-8 * 1e4);
}

TEST_F(ObsTest, ConcurrentCountersAndHistograms) {
  MetricsRegistry& reg = MetricsRegistry::global();
  Counter& counter = reg.counter("test.obs.concurrent");
  Histogram& hist = reg.histogram("test.obs.hist", 1e-3, 1e3);
  counter.reset();
  hist.reset();
  constexpr int kThreads = 8;
  constexpr int kOps = 10000;
  std::vector<std::thread> threads;
  threads.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t)
    threads.emplace_back([&] {
      for (int i = 0; i < kOps; ++i) {
        counter.add();
        hist.record(1.0);
      }
    });
  for (std::thread& t : threads) t.join();
  EXPECT_EQ(counter.value(), kThreads * kOps);
  const auto s = hist.snapshot();
  EXPECT_EQ(s.count, kThreads * kOps);
  EXPECT_DOUBLE_EQ(s.sum, static_cast<double>(kThreads * kOps));
}

TEST_F(ObsTest, RegistryJsonRoundTrips) {
  MetricsRegistry& reg = MetricsRegistry::global();
  reg.counter("test.obs.json_counter").reset();
  reg.counter("test.obs.json_counter").add(3);
  reg.gauge("test.obs.json_gauge").set(2.5);
  Histogram& hist = reg.histogram("test.obs.json_hist", 1.0, 100.0);
  hist.reset();
  hist.record(10.0);

  solver::JsonWriter w;
  w.begin_object();
  w.key("metrics");
  reg.write_json(w);
  w.end_object();
  const JsonValue doc = parse_json(w.str());
  const JsonValue& m = doc.at("metrics");
  EXPECT_EQ(m.at("counters").at("test.obs.json_counter").as_number(), 3.0);
  EXPECT_EQ(m.at("gauges").at("test.obs.json_gauge").as_number(), 2.5);
  const JsonValue& h = m.at("histograms").at("test.obs.json_hist");
  EXPECT_EQ(h.at("count").as_number(), 1.0);
  EXPECT_EQ(h.at("mean").as_number(), 10.0);
}

TEST_F(ObsTest, MetricsGateKeepsHotPathsSilent) {
  MetricsRegistry::global().histogram("tradpt.step_size", 1e-15, 1e-3).reset();
  const Netlist netlist = two_group_netlist();
  const MnaSystem mna(netlist);
  const auto dc = solver::dc_operating_point(mna);
  solver::AdaptiveTrOptions topt;
  topt.t_end = 0.5;
  topt.h_init = 1e-3;
  topt.lte_tol = 1e-6;

  // Disabled: the solver must not record anything.
  run_adaptive_trapezoidal(mna, dc.x, topt, {});
  EXPECT_EQ(MetricsRegistry::global()
                .histogram("tradpt.step_size", 1e-15, 1e-3)
                .snapshot()
                .count,
            0);

  enable_metrics();
  const auto stats = run_adaptive_trapezoidal(mna, dc.x, topt, {});
  disable_metrics();
  EXPECT_EQ(MetricsRegistry::global()
                .histogram("tradpt.step_size", 1e-15, 1e-3)
                .snapshot()
                .count,
            stats.steps);
}

}  // namespace
}  // namespace matex::obs
