// Campaign-service tests (DESIGN.md §14): checkpoint framing, manifest
// parsing, pump/run equivalence, crash-mid-campaign exact resume, and the
// fair-share + quota admission properties.
#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>
#include <set>
#include <sstream>
#include <string>

#include "core/search.hpp"
#include "core/sha_search.hpp"
#include "core/variants.hpp"
#include "eval/surrogate.hpp"
#include "exec/sim_executor.hpp"
#include "nas/search_space.hpp"
#include "svc/checkpoint.hpp"
#include "svc/manifest.hpp"
#include "svc/registry.hpp"

namespace {

using namespace agebo;

std::string tmp_path(const std::string& stem) {
  return std::string(::testing::TempDir()) + stem;
}

svc::CampaignSpec agebo_spec(const std::string& name, const std::string& tenant,
                             std::uint64_t seed, double minutes) {
  svc::CampaignSpec spec;
  spec.name = name;
  spec.tenant = tenant;
  spec.kind = svc::CampaignKind::kAgebo;
  spec.dataset = "covertype";
  spec.variant = "agebo";
  spec.wall_time_seconds = minutes * 60.0;
  spec.seed = seed;
  return spec;
}

void expect_same_history(const std::vector<core::EvalRecord>& a,
                         const std::vector<core::EvalRecord>& b) {
  ASSERT_EQ(a.size(), b.size());
  for (std::size_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(a[i].index, b[i].index) << "record " << i;
    EXPECT_EQ(a[i].objective, b[i].objective) << "record " << i;
    EXPECT_EQ(a[i].finish_time, b[i].finish_time) << "record " << i;
    EXPECT_EQ(a[i].train_seconds, b[i].train_seconds) << "record " << i;
    EXPECT_EQ(a[i].failed, b[i].failed) << "record " << i;
    EXPECT_EQ(a[i].attempts, b[i].attempts) << "record " << i;
    EXPECT_EQ(a[i].degraded, b[i].degraded) << "record " << i;
    EXPECT_EQ(a[i].final_world, b[i].final_world) << "record " << i;
    EXPECT_EQ(a[i].config.genome, b[i].config.genome) << "record " << i;
    EXPECT_EQ(a[i].config.hparams, b[i].config.hparams) << "record " << i;
  }
}

// --- Checkpoint framing ---------------------------------------------------

TEST(SvcCheckpoint, ChecksumRoundTrip) {
  const std::string payload = "agebo-svc-ckpt v1\nworkers 4 live 0\n";
  const std::string framed = svc::with_checksum(payload);
  EXPECT_EQ(svc::verify_checksum(framed, "test"), payload);
}

TEST(SvcCheckpoint, DetectsCorruption) {
  std::string framed = svc::with_checksum("clock 123.5\nnext-id 7\n");
  framed[6] = '9';  // flip one payload byte
  EXPECT_THROW(svc::verify_checksum(framed, "test"), std::runtime_error);
}

TEST(SvcCheckpoint, DetectsTruncation) {
  const std::string framed = svc::with_checksum("clock 123.5\nnext-id 7\n");
  // A partially written file loses the trailing checksum line.
  const std::string truncated = framed.substr(0, framed.size() / 2);
  EXPECT_THROW(svc::verify_checksum(truncated, "test"), std::runtime_error);
}

TEST(SvcCheckpoint, AtomicWriteReadRoundTrip) {
  const std::string path = tmp_path("svc_ckpt_roundtrip.txt");
  svc::atomic_write_file(path, "hello checkpoint\n");
  EXPECT_EQ(svc::read_file(path), "hello checkpoint\n");
  std::remove(path.c_str());
}

// --- Manifest parsing -----------------------------------------------------

TEST(SvcManifest, ParsesTenantsAndCampaigns) {
  std::istringstream is(
      "# comment line\n"
      "tenant prod priority=3 max-in-flight=8 node-hours=2\n"
      "tenant lab\n"
      "\n"
      "campaign a tenant=prod kind=agebo dataset=covertype variant=agebo "
      "minutes=45 seed=7 kappa=0.01 timeout=1800 retries=2\n"
      "campaign b tenant=lab kind=sha bracket=16 eta=4 rungs=2 minutes=30\n");
  const svc::Manifest m = svc::parse_manifest(is, "inline");
  ASSERT_EQ(m.tenants.size(), 2u);
  EXPECT_EQ(m.tenants[0].name, "prod");
  EXPECT_EQ(m.tenants[0].priority, 3.0);
  EXPECT_EQ(m.tenants[0].max_in_flight, 8u);
  EXPECT_EQ(m.tenants[0].node_seconds_budget, 2.0 * 3600.0);
  EXPECT_EQ(m.tenants[1].priority, 1.0);
  ASSERT_EQ(m.campaigns.size(), 2u);
  EXPECT_EQ(m.campaigns[0].name, "a");
  EXPECT_EQ(m.campaigns[0].variant, "agebo");
  EXPECT_EQ(m.campaigns[0].wall_time_seconds, 45.0 * 60.0);
  EXPECT_EQ(m.campaigns[0].seed, 7u);
  EXPECT_EQ(m.campaigns[0].kappa, 0.01);
  EXPECT_EQ(m.campaigns[0].timeout_seconds, 1800.0);
  EXPECT_EQ(m.campaigns[0].max_retries, 2u);
  EXPECT_EQ(m.campaigns[1].kind, svc::CampaignKind::kSha);
  EXPECT_EQ(m.campaigns[1].sha_bracket, 16u);
  EXPECT_EQ(m.campaigns[1].sha_eta, 4u);
  EXPECT_EQ(m.campaigns[1].sha_rungs, 2u);
}

TEST(SvcManifest, ParsesElasticKeys) {
  std::istringstream is(
      "tenant prod\n"
      "campaign a tenant=prod minutes=30 "
      "elastic-crash=0.05 elastic-seed=42 elastic-min-replicas=2\n");
  const svc::Manifest m = svc::parse_manifest(is, "inline");
  ASSERT_EQ(m.campaigns.size(), 1u);
  EXPECT_EQ(m.campaigns[0].elastic_crash, 0.05);
  EXPECT_EQ(m.campaigns[0].elastic_seed, 42u);
  EXPECT_EQ(m.campaigns[0].elastic_min_replicas, 2u);
}

TEST(SvcManifest, RejectsElasticCrashOutOfRange) {
  std::istringstream is(
      "tenant prod\n"
      "campaign a tenant=prod minutes=30 elastic-crash=1.0\n");
  EXPECT_THROW(svc::parse_manifest(is, "inline"), std::runtime_error);
}

TEST(SvcManifest, ErrorsNameTheLine) {
  std::istringstream is(
      "tenant prod\n"
      "campaign a tenant=prod minutes=nope\n");
  try {
    svc::parse_manifest(is, "bad.txt");
    FAIL() << "expected parse error";
  } catch (const std::runtime_error& e) {
    EXPECT_NE(std::string(e.what()).find("bad.txt:2"), std::string::npos)
        << e.what();
  }
}

TEST(SvcManifest, RejectsMalformedInput) {
  const char* cases[] = {
      "frobnicate x\n",                               // unknown directive
      "tenant prod priority=0\n",                     // non-positive priority
      "tenant prod\ntenant prod\n",                   // duplicate tenant
      "tenant prod\ncampaign a tenant=prod kind=x\n", // bad kind
      "tenant prod\ncampaign a tenant=prod nope=1\n", // unknown key
      "tenant prod\ncampaign a minutes=5\n",          // missing tenant=
      "tenant prod\ncampaign a tenant=ghost\n",       // undeclared tenant
      "tenant prod\n",                                // no campaigns
      "tenant prod\ncampaign a tenant=prod\n"
      "campaign a tenant=prod\n",                     // duplicate campaign
  };
  for (const char* text : cases) {
    std::istringstream is(text);
    EXPECT_THROW(svc::parse_manifest(is, "case"), std::runtime_error) << text;
  }
}

// --- Pump / run equivalence ----------------------------------------------

TEST(SvcPump, AgeboRegistryMatchesOwningRun) {
  // Owning mode: the searcher drives its own executor.
  nas::SearchSpace space;
  eval::SurrogateEvaluator evaluator(space, eval::covertype_profile());
  exec::SimulatedExecutor executor(16, 90.0, {}, {});
  core::SearchConfig cfg = core::config_by_name("agebo", 9, 0.001);
  cfg.wall_time_seconds = 30.0 * 60.0;
  core::AgeboSearch search(space, evaluator, executor, cfg);
  const auto owning = search.run();

  // Service mode: the registry admits the same campaign's tickets onto a
  // shared executor with identical parameters.
  svc::SvcConfig svc_cfg;
  svc_cfg.workers = 16;
  svc_cfg.job_overhead_seconds = 90.0;
  svc::CampaignRegistry registry(svc_cfg, space);
  registry.add_campaign(agebo_spec("solo", "default", 9, 30.0));
  EXPECT_TRUE(registry.run());

  expect_same_history(owning.history, registry.campaign(0).history());
}

TEST(SvcPump, ShaRegistryMatchesOwningRun) {
  nas::SearchSpace space;
  eval::SurrogateEvaluator evaluator(space, eval::covertype_profile());
  exec::SimulatedExecutor executor(8, 90.0, {}, {});
  core::ShaJointConfig cfg;
  cfg.bracket_size = 8;
  cfg.eta = 2;
  cfg.rungs = 2;
  cfg.wall_time_seconds = 30.0 * 60.0;
  cfg.seed = 3;
  core::ShaJointSearch search(space, evaluator, executor, cfg);
  const auto owning = search.run();

  svc::SvcConfig svc_cfg;
  svc_cfg.workers = 8;
  svc_cfg.job_overhead_seconds = 90.0;
  svc::CampaignRegistry registry(svc_cfg, space);
  svc::CampaignSpec spec;
  spec.name = "sha";
  spec.tenant = "default";
  spec.kind = svc::CampaignKind::kSha;
  spec.dataset = "covertype";
  spec.wall_time_seconds = 30.0 * 60.0;
  spec.seed = 3;
  spec.sha_bracket = 8;
  spec.sha_eta = 2;
  spec.sha_rungs = 2;
  registry.add_campaign(spec);
  EXPECT_TRUE(registry.run());

  expect_same_history(owning.history, registry.campaign(0).history());
}

// --- Crash + resume -------------------------------------------------------

// The acceptance gate: kill a faulty multi-campaign service mid-search,
// resume from its checkpoint, and the final per-campaign trajectories must
// be IDENTICAL to an uninterrupted run — not merely similar.
TEST(SvcResume, KilledServiceReproducesUninterruptedRun) {
  nas::SearchSpace space;
  svc::SvcConfig cfg;
  cfg.workers = 16;
  cfg.job_overhead_seconds = 90.0;
  cfg.faults.crash_prob = 0.05;
  cfg.faults.seed = 4242;

  auto add_campaigns = [](svc::CampaignRegistry& r) {
    auto a = agebo_spec("alpha", "default", 5, 45.0);
    a.max_retries = 1;
    r.add_campaign(a);
    svc::CampaignSpec b;
    b.name = "beta";
    b.tenant = "default";
    b.kind = svc::CampaignKind::kSha;
    b.dataset = "covertype";
    b.wall_time_seconds = 45.0 * 60.0;
    b.seed = 11;
    b.sha_bracket = 8;
    b.sha_eta = 2;
    b.sha_rungs = 2;
    r.add_campaign(b);
  };

  // Uninterrupted reference.
  svc::CampaignRegistry uninterrupted(cfg, space);
  add_campaigns(uninterrupted);
  EXPECT_TRUE(uninterrupted.run());

  // Killed at t=1200s, mid-flight, then resumed in a fresh registry.
  const std::string ckpt = tmp_path("svc_resume_test.ckpt");
  svc::SvcConfig kill_cfg = cfg;
  kill_cfg.checkpoint_path = ckpt;
  svc::CampaignRegistry killed(kill_cfg, space);
  add_campaigns(killed);
  EXPECT_FALSE(killed.run(/*stop_after_seconds=*/1200.0));

  svc::CampaignRegistry resumed(kill_cfg, space);
  resumed.load_checkpoint(ckpt);
  EXPECT_TRUE(resumed.run());

  ASSERT_EQ(resumed.n_campaigns(), 2u);
  expect_same_history(uninterrupted.campaign(0).history(),
                      resumed.campaign(0).history());
  expect_same_history(uninterrupted.campaign(1).history(),
                      resumed.campaign(1).history());
  EXPECT_EQ(uninterrupted.campaign(0).result().best_objective,
            resumed.campaign(0).result().best_objective);
  std::remove(ckpt.c_str());
}

TEST(SvcResume, RejectsCorruptedCheckpoint) {
  nas::SearchSpace space;
  svc::SvcConfig cfg;
  cfg.workers = 8;
  svc::CampaignRegistry registry(cfg, space);
  registry.add_campaign(agebo_spec("solo", "default", 2, 20.0));
  registry.run(/*stop_after_seconds=*/600.0);
  const std::string ckpt = tmp_path("svc_corrupt_test.ckpt");
  registry.save_checkpoint(ckpt);

  std::string bytes = svc::read_file(ckpt);
  bytes[bytes.size() / 3] ^= 0x20;
  svc::atomic_write_file(ckpt, bytes);

  svc::CampaignRegistry fresh(cfg, space);
  EXPECT_THROW(fresh.load_checkpoint(ckpt), std::runtime_error);
  std::remove(ckpt.c_str());
}

// Torn-write fuzz: whatever prefix of a checkpoint survives a crash mid
// write, load_checkpoint must reject it with a clean error — never load
// partial state, read past the buffer, or crash (ASan covers the latter in
// CI's svc job). Truncate at every 64-byte boundary, including byte 0.
TEST(SvcResume, TruncatedCheckpointAlwaysFailsCleanly) {
  nas::SearchSpace space;
  svc::SvcConfig cfg;
  cfg.workers = 8;
  svc::CampaignRegistry registry(cfg, space);
  auto spec = agebo_spec("solo", "default", 2, 20.0);
  spec.elastic_crash = 0.02;  // exercise the optional elastic spec line too
  spec.elastic_seed = 5;
  registry.add_campaign(spec);
  registry.run(/*stop_after_seconds=*/600.0);
  const std::string ckpt = tmp_path("svc_torn_test.ckpt");
  registry.save_checkpoint(ckpt);
  const std::string bytes = svc::read_file(ckpt);
  ASSERT_GT(bytes.size(), 64u);

  for (std::size_t cut = 0; cut < bytes.size(); cut += 64) {
    svc::atomic_write_file(ckpt, bytes.substr(0, cut));
    svc::CampaignRegistry fresh(cfg, space);
    EXPECT_THROW(fresh.load_checkpoint(ckpt), std::runtime_error)
        << "checkpoint truncated at byte " << cut << " loaded successfully";
  }
  std::remove(ckpt.c_str());
}

TEST(SvcResume, RejectsWorkerCountMismatch) {
  nas::SearchSpace space;
  svc::SvcConfig cfg;
  cfg.workers = 8;
  svc::CampaignRegistry registry(cfg, space);
  registry.add_campaign(agebo_spec("solo", "default", 2, 20.0));
  registry.run(/*stop_after_seconds=*/600.0);
  const std::string ckpt = tmp_path("svc_mismatch_test.ckpt");
  registry.save_checkpoint(ckpt);

  svc::SvcConfig other = cfg;
  other.workers = 16;
  svc::CampaignRegistry fresh(other, space);
  EXPECT_THROW(fresh.load_checkpoint(ckpt), std::runtime_error);
  std::remove(ckpt.c_str());
}

// --- Fair-share and quotas ------------------------------------------------

// Two always-backlogged tenants at 3:1 priority must split consumed
// node-seconds within 10% of 3:1 (ISSUE acceptance bound).
TEST(SvcFairness, PriorityRatioGovernsNodeTimeSplit) {
  nas::SearchSpace space;
  svc::SvcConfig cfg;
  cfg.workers = 8;
  cfg.job_overhead_seconds = 90.0;
  // Oversubscribe: each campaign keeps 8 tickets alive on an 8-slot
  // cluster, so admission is always contended and stride order decides.
  cfg.initial_per_campaign = 8;
  svc::CampaignRegistry registry(cfg, space);
  svc::TenantSpec hi;
  hi.name = "hi";
  hi.priority = 3.0;
  registry.set_tenant(hi);
  svc::TenantSpec lo;
  lo.name = "lo";
  lo.priority = 1.0;
  registry.set_tenant(lo);
  registry.add_campaign(agebo_spec("hi-camp", "hi", 21, 600.0));
  registry.add_campaign(agebo_spec("lo-camp", "lo", 22, 600.0));

  EXPECT_FALSE(registry.run(/*stop_after_seconds=*/8.0 * 3600.0));

  const auto usage = registry.tenant_usage();
  ASSERT_EQ(usage.size(), 2u);
  ASSERT_GT(usage[1].consumed_node_seconds, 0.0);
  const double ratio =
      usage[0].consumed_node_seconds / usage[1].consumed_node_seconds;
  EXPECT_GE(ratio, 2.7) << "hi=" << usage[0].consumed_node_seconds
                        << " lo=" << usage[1].consumed_node_seconds;
  EXPECT_LE(ratio, 3.3) << "hi=" << usage[0].consumed_node_seconds
                        << " lo=" << usage[1].consumed_node_seconds;
}

TEST(SvcQuota, MaxInFlightIsNeverExceeded) {
  nas::SearchSpace space;
  svc::SvcConfig cfg;
  cfg.workers = 8;
  cfg.initial_per_campaign = 8;
  svc::CampaignRegistry registry(cfg, space);
  svc::TenantSpec capped;
  capped.name = "capped";
  capped.max_in_flight = 2;
  registry.set_tenant(capped);
  registry.add_campaign(agebo_spec("capped-camp", "capped", 4, 30.0));

  while (registry.step()) {
    const auto usage = registry.tenant_usage();
    ASSERT_EQ(usage.size(), 1u);
    EXPECT_LE(usage[0].in_flight, 2u);
  }
  // The campaign still finishes its budget, just at bounded concurrency.
  EXPECT_TRUE(registry.campaign_done(0));
  EXPECT_GT(registry.campaign(0).history().size(), 4u);
}

// A tenant that exhausts its node-second budget stops being admitted and
// its campaign terminates cleanly — WITHOUT starving the other tenant.
TEST(SvcQuota, BudgetExhaustionDoesNotStarveOthers) {
  nas::SearchSpace space;
  svc::SvcConfig cfg;
  cfg.workers = 8;
  cfg.initial_per_campaign = 4;
  svc::CampaignRegistry registry(cfg, space);
  svc::TenantSpec broke;
  broke.name = "broke";
  broke.node_seconds_budget = 3600.0;  // about two evaluations
  registry.set_tenant(broke);
  svc::TenantSpec rich;
  rich.name = "rich";
  registry.set_tenant(rich);
  registry.add_campaign(agebo_spec("broke-camp", "broke", 6, 120.0));
  registry.add_campaign(agebo_spec("rich-camp", "rich", 7, 60.0));

  EXPECT_TRUE(registry.run());
  EXPECT_TRUE(registry.campaign_done(0));
  EXPECT_TRUE(registry.campaign_done(1));
  // The budgeted tenant got a taste, the unlimited one ran its full hour.
  EXPECT_GT(registry.campaign(1).history().size(),
            registry.campaign(0).history().size());
  const auto usage = registry.tenant_usage();
  EXPECT_GE(usage[0].consumed_node_seconds, usage[0].node_seconds_budget);
}

TEST(SvcRegistry, RejectsDuplicateCampaignNames) {
  nas::SearchSpace space;
  svc::SvcConfig cfg;
  cfg.workers = 4;
  svc::CampaignRegistry registry(cfg, space);
  registry.add_campaign(agebo_spec("same", "default", 1, 10.0));
  EXPECT_THROW(registry.add_campaign(agebo_spec("same", "default", 2, 10.0)),
               std::invalid_argument);
}

// --- Checkpoint-format stability ------------------------------------------

// Golden v1 checkpoints committed under tests/fixtures/, written by
//   agebo_campaign --variant agebo [--bo-shards 2] --workers 8 --minutes 30
//                  --seed 41 --checkpoint <fixture> --stop-after 600
// at the release that introduced each section. Current code must keep
// loading them: a change that breaks these tests breaks every checkpoint
// users have on disk and needs a versioned migration, not a silent format
// edit. Loading is not enough: the resumed campaign must finish on exactly
// the trajectory of an uninterrupted run of the same spec, which is what
// pins the frozen centralized-BO reader (`bo 1`) to the optimizer state
// that wrote it.
void expect_golden_loads(const std::string& fixture,
                         const std::string& variant) {
  const std::string path = std::string(AGEBO_FIXTURE_DIR) + "/" + fixture;
  nas::SearchSpace space;
  svc::SvcConfig cfg;
  cfg.workers = 8;
  cfg.job_overhead_seconds = 90.0;
  svc::CampaignRegistry registry(cfg, space);
  registry.load_checkpoint(path);
  ASSERT_EQ(registry.n_campaigns(), 1u);
  EXPECT_GT(registry.now(), 0.0);
  const std::size_t n_loaded = registry.campaign(0).history().size();
  // Completions the v1 file already resolved: its history rows plus the
  // simulator's pending completion events (`event <finish_time> ...`; the
  // campaign starts at t=0, so its clock is the executor's).
  std::set<double> v1_events;
  {
    std::istringstream lines(svc::read_file(path));
    std::string line;
    while (std::getline(lines, line)) {
      std::istringstream fields(line);
      std::string key;
      double finish = 0.0;
      if ((fields >> key >> finish) && key == "event") v1_events.insert(finish);
    }
  }
  ASSERT_FALSE(v1_events.empty());
  // The resumed service must be able to finish the campaign it loaded.
  EXPECT_TRUE(registry.run());
  EXPECT_TRUE(registry.campaign_done(0));
  EXPECT_FALSE(registry.campaign(0).history().empty());

  // The spec the fixture header names, run in-process without a stop.
  svc::CampaignSpec spec = agebo_spec("campaign", "default", 41, 30.0);
  spec.variant = variant;
  svc::CampaignRegistry uninterrupted(cfg, space);
  uninterrupted.add_campaign(spec);
  EXPECT_TRUE(uninterrupted.run());

  const auto& a = uninterrupted.campaign(0).history();
  const auto& b = registry.campaign(0).history();
  ASSERT_EQ(a.size(), b.size());
  ASSERT_LT(n_loaded, b.size());
  for (std::size_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(a[i].index, b[i].index) << "record " << i;
    EXPECT_EQ(a[i].objective, b[i].objective) << "record " << i;
    EXPECT_EQ(a[i].finish_time, b[i].finish_time) << "record " << i;
    EXPECT_EQ(a[i].train_seconds, b[i].train_seconds) << "record " << i;
    EXPECT_EQ(a[i].failed, b[i].failed) << "record " << i;
    EXPECT_EQ(a[i].attempts, b[i].attempts) << "record " << i;
    EXPECT_EQ(a[i].degraded, b[i].degraded) << "record " << i;
    // v1 history rows and completion events predate the final_world field.
    if (i >= n_loaded && v1_events.count(b[i].finish_time) == 0) {
      EXPECT_EQ(a[i].final_world, b[i].final_world) << "record " << i;
    }
    EXPECT_EQ(a[i].config.genome, b[i].config.genome) << "record " << i;
    EXPECT_EQ(a[i].config.hparams, b[i].config.hparams) << "record " << i;
  }
}

TEST(SvcGolden, LoadsCommittedV1Checkpoint) {
  expect_golden_loads("svc_golden_v1.ckpt", "agebo");
}

TEST(SvcGolden, LoadsCommittedV1ShardedCheckpoint) {
  expect_golden_loads("svc_golden_v1_sharded.ckpt", "agebo-d2");
}

}  // namespace
