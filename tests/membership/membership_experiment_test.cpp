// Membership at the experiment level: enabling the SWIM detector on a
// zero-churn run must not move a single protocol-level number (its traffic
// rides the same transport but never touches the protocol RNG or tables),
// detector-enabled runs must stay bit-identical across --workers counts,
// and a mid-run crash must be detected, epoch-bumped, and — for the
// hashing schemes — absorbed by an owner-map rebuild.
#include <gtest/gtest.h>

#include <algorithm>
#include <vector>

#include "driver/experiment.h"
#include "driver/parallel.h"
#include "workload/polygraph.h"

namespace adc::driver {
namespace {

workload::Trace tiny_trace() {
  workload::PolygraphConfig config;
  config.fill_requests = 800;
  config.phase2_requests = 1200;
  config.phase3_requests = 1000;
  config.hot_set_size = 100;
  config.seed = 5;
  return workload::generate_polygraph_trace(config);
}

ExperimentConfig base_config(Scheme scheme) {
  ExperimentConfig config;
  config.scheme = scheme;
  config.proxies = 3;
  config.adc.single_table_size = 150;
  config.adc.multiple_table_size = 150;
  config.adc.caching_table_size = 80;
  config.sample_every = 500;
  return config;
}

/// The zero-churn contract: everything the protocol computes is identical;
/// only raw transport counters (messages, events, end time) may differ,
/// because SWIM probes ride the same network.
void expect_protocol_identical(const ExperimentResult& a, const ExperimentResult& b) {
  EXPECT_EQ(a.summary.completed, b.summary.completed);
  EXPECT_EQ(a.summary.hits, b.summary.hits);
  EXPECT_EQ(a.summary.total_hops, b.summary.total_hops);
  EXPECT_EQ(a.summary.total_forwards, b.summary.total_forwards);
  EXPECT_EQ(a.summary.total_latency, b.summary.total_latency);
  EXPECT_EQ(a.origin_served, b.origin_served);
  EXPECT_EQ(a.hops_p50, b.hops_p50);
  EXPECT_EQ(a.hops_p95, b.hops_p95);
  EXPECT_EQ(a.hops_max, b.hops_max);
  EXPECT_EQ(a.latency_p50, b.latency_p50);
  EXPECT_EQ(a.latency_p95, b.latency_p95);
  EXPECT_EQ(a.latency_p99, b.latency_p99);
  ASSERT_EQ(a.series.size(), b.series.size());
  for (std::size_t i = 0; i < a.series.size(); ++i) {
    EXPECT_EQ(a.series[i].requests, b.series[i].requests);
    EXPECT_EQ(a.series[i].hit_rate, b.series[i].hit_rate);
    EXPECT_EQ(a.series[i].hops, b.series[i].hops);
    EXPECT_EQ(a.series[i].latency, b.series[i].latency);
  }
  ASSERT_EQ(a.proxies.size(), b.proxies.size());
  for (std::size_t i = 0; i < a.proxies.size(); ++i) {
    EXPECT_EQ(a.proxies[i].requests_received, b.proxies[i].requests_received);
    EXPECT_EQ(a.proxies[i].local_hits, b.proxies[i].local_hits);
    EXPECT_EQ(a.proxies[i].cached_objects, b.proxies[i].cached_objects);
    EXPECT_EQ(a.proxies[i].table_entries, b.proxies[i].table_entries);
  }
  EXPECT_EQ(a.adc_totals.requests_received, b.adc_totals.requests_received);
  EXPECT_EQ(a.adc_totals.local_hits, b.adc_totals.local_hits);
  EXPECT_EQ(a.adc_totals.forwards_learned, b.adc_totals.forwards_learned);
  EXPECT_EQ(a.adc_totals.forwards_random, b.adc_totals.forwards_random);
  EXPECT_EQ(a.adc_totals.resolver_claims, b.adc_totals.resolver_claims);
  EXPECT_EQ(a.adc_totals.cache_admissions, b.adc_totals.cache_admissions);
  EXPECT_EQ(a.adc_totals.stale_claims_rejected, b.adc_totals.stale_claims_rejected);
}

class MembershipSchemesTest : public ::testing::TestWithParam<Scheme> {};

TEST_P(MembershipSchemesTest, ZeroChurnDetectorIsProtocolInvisible) {
  const auto trace = tiny_trace();
  const ExperimentConfig off = base_config(GetParam());
  ExperimentConfig on = off;
  on.membership.swim.enabled = true;
  const auto a = run_experiment(off, trace);
  const auto b = run_experiment(on, trace);
  expect_protocol_identical(a, b);
  // The detector ran (it is not simply disabled)...
  EXPECT_GT(b.messages, a.messages);
  // ...but with zero churn it confirmed nothing and repaired nothing.
  EXPECT_EQ(b.membership.max_epoch, 0u);
  EXPECT_EQ(b.membership.deaths, 0u);
  EXPECT_EQ(b.membership.joins, 0u);
  EXPECT_EQ(b.membership.repair_rounds, 0u);
  EXPECT_EQ(b.membership.max_reshuffle_fraction, 0.0);
  EXPECT_EQ(b.adc_totals.repair_offers, 0u);
  EXPECT_EQ(b.adc_totals.repairs_applied, 0u);
}

TEST_P(MembershipSchemesTest, DetectorRunsAreBitIdenticalAcrossWorkers) {
  const auto trace = tiny_trace();
  ExperimentConfig config = base_config(GetParam());
  config.membership.swim.enabled = true;
  // Two copies of the same config: with 3 workers both land on distinct
  // threads; with 1 they run serially.  Every copy must agree bit for bit.
  const std::vector<ExperimentConfig> configs = {config, config, config};
  const auto serial = run_parallel(configs, trace, 1);
  const auto fanned = run_parallel(configs, trace, 3);
  ASSERT_EQ(serial.size(), 3u);
  ASSERT_EQ(fanned.size(), 3u);
  for (std::size_t i = 0; i < serial.size(); ++i) {
    SCOPED_TRACE("copy " + std::to_string(i));
    expect_protocol_identical(serial[i], fanned[i]);
    // Raw transport counters included: same config, same probe traffic.
    EXPECT_EQ(serial[i].messages, fanned[i].messages);
    EXPECT_EQ(serial[i].events, fanned[i].events);
    EXPECT_EQ(serial[i].sim_end_time, fanned[i].sim_end_time);
    EXPECT_EQ(serial[i].membership.max_epoch, fanned[i].membership.max_epoch);
    EXPECT_EQ(serial[i].membership.repair_rounds, fanned[i].membership.repair_rounds);
  }
}

INSTANTIATE_TEST_SUITE_P(Schemes, MembershipSchemesTest,
                         ::testing::Values(Scheme::kAdc, Scheme::kCarp, Scheme::kConsistent,
                                           Scheme::kRendezvous),
                         [](const auto& info) { return std::string(scheme_name(info.param)); });

TEST(MembershipExperiment, PermanentCrashIsDetectedAndReshufflesOwners) {
  const auto trace = tiny_trace();
  const auto probe = run_experiment(base_config(Scheme::kCarp), trace);

  ExperimentConfig config = base_config(Scheme::kCarp);
  config.membership.swim.enabled = true;
  fault::CrashWindow window;
  window.node = 1;
  window.at = probe.sim_end_time / 3;
  window.restart = kSimTimeMax;  // never comes back
  window.flush_state = true;
  config.fault_plan.crashes.push_back(window);
  config.request_timeout =
      std::max<SimTime>(static_cast<SimTime>(probe.latency_p99 * 20.0), 1000);
  const auto result = run_experiment(config, trace);

  // Every request resolved despite the permanent loss of one member.
  EXPECT_EQ(result.summary.completed + result.summary.failed, trace.size());
  // Both survivors confirmed the death and bumped their epoch.
  EXPECT_GE(result.membership.max_epoch, 1u);
  EXPECT_GE(result.membership.deaths, 2u);
  // The CARP owner map was rebuilt: the dead member's URL share moved, and
  // the move was measured.  With 1 of 3 members gone roughly a third of
  // the URL space reassigns — assert a sane, nonzero fraction.
  EXPECT_GT(result.membership.max_reshuffle_fraction, 0.1);
  EXPECT_LT(result.membership.max_reshuffle_fraction, 0.9);
  EXPECT_GT(result.summary.hit_rate(), 0.0);
}

TEST(MembershipExperiment, AdcCrashTriggersSilentPeerPurgeAndRepair) {
  const auto trace = tiny_trace();
  const auto probe = run_experiment(base_config(Scheme::kAdc), trace);

  ExperimentConfig config = base_config(Scheme::kAdc);
  config.membership.swim.enabled = true;
  fault::CrashWindow window;
  window.node = 1;
  window.at = probe.sim_end_time / 3;
  window.restart = kSimTimeMax;
  window.flush_state = true;
  config.fault_plan.crashes.push_back(window);
  config.request_timeout =
      std::max<SimTime>(static_cast<SimTime>(probe.latency_p99 * 20.0), 1000);
  const auto result = run_experiment(config, trace);

  EXPECT_EQ(result.summary.completed + result.summary.failed, trace.size());
  EXPECT_GE(result.membership.max_epoch, 1u);
  EXPECT_GE(result.membership.deaths, 2u);
  // Death armed the anti-entropy scheduler on the survivors.
  EXPECT_GT(result.membership.repair_rounds, 0u);
  EXPECT_GT(result.summary.hit_rate(), 0.0);
}

TEST(MembershipExperiment, PurgeCountIsTheProxiesPeerInvalidations) {
  const auto trace = tiny_trace();
  const auto probe = run_experiment(base_config(Scheme::kAdc), trace);

  ExperimentConfig config = base_config(Scheme::kAdc);
  config.membership.swim.enabled = true;
  fault::CrashWindow window;
  window.node = 1;
  window.at = probe.sim_end_time / 3;
  window.restart = kSimTimeMax;
  window.flush_state = true;
  config.fault_plan.crashes.push_back(window);
  config.request_timeout =
      std::max<SimTime>(static_cast<SimTime>(probe.latency_p99 * 20.0), 1000);
  const auto result = run_experiment(config, trace);

  // The confirmed death purged entries naming the dead member, and the run's
  // purge count is exactly what the proxies themselves counted.
  EXPECT_GE(result.membership.deaths, 2u);
  EXPECT_GT(result.faults.entries_invalidated, 0u);
  EXPECT_EQ(result.faults.entries_invalidated, result.adc_totals.peer_invalidations);
}

}  // namespace
}  // namespace adc::driver
