#include "svc/registry.hpp"

#include <algorithm>
#include <sstream>
#include <stdexcept>

#include "common/state_io.hpp"
#include "exec/live_executor.hpp"
#include "exec/sim_executor.hpp"
#include "obs/span.hpp"
#include "svc/checkpoint.hpp"

namespace agebo::svc {

namespace {

const char* kind_token(CampaignKind kind) {
  return kind == CampaignKind::kAgebo ? "agebo" : "sha";
}

CampaignKind kind_from_token(const std::string& token,
                             const std::string& what) {
  if (token == "agebo") return CampaignKind::kAgebo;
  if (token == "sha") return CampaignKind::kSha;
  state::fail(what, "bad campaign kind \"" + token + "\"");
}

}  // namespace

CampaignRegistry::CampaignRegistry(SvcConfig cfg, const nas::SearchSpace& space)
    : cfg_(std::move(cfg)), space_(&space) {
  if (cfg_.workers == 0) {
    throw std::invalid_argument("SvcConfig: zero workers");
  }
  if (cfg_.checkpoint_every_seconds > 0.0 && cfg_.checkpoint_path.empty()) {
    throw std::invalid_argument(
        "SvcConfig: checkpoint interval without checkpoint_path");
  }
  if (cfg_.live) {
    executor_ = std::make_unique<exec::LiveExecutor>(cfg_.workers, cfg_.policy,
                                                     cfg_.faults);
  } else {
    executor_ = std::make_unique<exec::SimulatedExecutor>(
        cfg_.workers, cfg_.job_overhead_seconds, cfg_.policy, cfg_.faults);
  }
  auto& reg = obs::Registry::global();
  m_admitted_ = reg.counter("svc.admitted");
  m_completed_ = reg.counter("svc.completed");
  m_checkpoints_ = reg.counter("svc.checkpoints");
  m_active_ = reg.gauge("svc.campaigns_active");
}

double CampaignRegistry::now() const { return executor_->now(); }

void CampaignRegistry::set_tenant(TenantSpec spec) {
  if (started_) throw std::logic_error("set_tenant after the service started");
  if (spec.name.empty()) throw std::invalid_argument("TenantSpec: empty name");
  if (spec.priority <= 0.0) {
    throw std::invalid_argument("TenantSpec: non-positive priority");
  }
  auto it = tenants_.find(spec.name);
  if (it == tenants_.end()) {
    Tenant t;
    t.spec = spec;
    t.busy = obs::Registry::global().dcounter(exec::tenant_busy_metric(spec.name));
    t.busy_baseline = t.busy.total();
    tenant_order_.push_back(spec.name);
    tenants_.emplace(spec.name, std::move(t));
  } else {
    it->second.spec = std::move(spec);
  }
}

CampaignRegistry::Tenant& CampaignRegistry::tenant_of(const std::string& name) {
  auto it = tenants_.find(name);
  if (it == tenants_.end()) {
    TenantSpec spec;
    spec.name = name;
    set_tenant(spec);
    it = tenants_.find(name);
  }
  return it->second;
}

std::size_t CampaignRegistry::add_campaign(CampaignSpec spec) {
  if (started_) throw std::logic_error("add_campaign after the service started");
  if (by_name_.count(spec.name) > 0) {
    throw std::invalid_argument("duplicate campaign name \"" + spec.name + "\"");
  }
  tenant_of(spec.tenant);  // materialize the tenant
  CampaignRt rt;
  rt.campaign = std::make_unique<Campaign>(spec, *space_);
  const std::size_t index = campaigns_.size();
  by_name_.emplace(spec.name, index);
  campaigns_.push_back(std::move(rt));
  return index;
}

Campaign* CampaignRegistry::find(const std::string& name) {
  const auto it = by_name_.find(name);
  return it == by_name_.end() ? nullptr : campaigns_[it->second].campaign.get();
}

double CampaignRegistry::tenant_consumed(const Tenant& t) const {
  return t.consumed_offset + (t.busy.total() - t.busy_baseline);
}

bool CampaignRegistry::tenant_admissible(const Tenant& t) const {
  if (t.spec.max_in_flight > 0 && t.in_flight >= t.spec.max_in_flight) {
    return false;
  }
  if (t.spec.node_seconds_budget > 0.0 &&
      tenant_consumed(t) >= t.spec.node_seconds_budget) {
    return false;
  }
  return true;
}

std::size_t CampaignRegistry::width_in_flight() const {
  return width_in_flight_;
}

void CampaignRegistry::start_pending_campaigns() {
  if (started_) return;
  started_ = true;
  std::size_t n_init = cfg_.initial_per_campaign;
  if (n_init == 0) {
    n_init = std::max<std::size_t>(
        1, cfg_.workers / std::max<std::size_t>(1, campaigns_.size()));
  }
  std::size_t active = 0;
  for (auto& rt : campaigns_) {
    if (rt.done) continue;  // restored-as-done campaigns stay done
    if (!rt.campaign->started()) {
      rt.start_time = executor_->now();
      for (const auto& t : rt.campaign->start(n_init)) {
        rt.queue.push_back(t.ticket);
      }
    }
    ++active;
  }
  m_active_.set(static_cast<double>(active));
}

void CampaignRegistry::submit_ticket(std::size_t ci, std::uint64_t ticket_id) {
  CampaignRt& rt = campaigns_[ci];
  const core::EvalTicket& t = rt.campaign->outstanding().at(ticket_id);
  eval::SurrogateEvaluator* evaluator = &rt.campaign->evaluator();
  const eval::ModelConfig config = t.config;
  const double fidelity = t.fidelity;
  exec::JobSpec spec;
  spec.width = t.width;
  spec.timeout_seconds = t.timeout_seconds;
  spec.max_retries = t.max_retries;
  spec.tag = t.tag.empty() ? "svc." + rt.campaign->spec().name : t.tag;
  spec.tenant = rt.campaign->spec().tenant;
  const std::uint64_t job = executor_->submit(
      [evaluator, config, fidelity] {
        return evaluator->evaluate(eval::EvalRequest{config, fidelity});
      },
      spec);
  rt.jobs.emplace(job, ticket_id);
  job_owner_.emplace(job, ci);
  m_admitted_.inc();
}

void CampaignRegistry::admit() {
  for (;;) {
    // Min-pass admissible tenant with queued work; ties resolve to the
    // earliest-registered tenant, so admission order is deterministic.
    Tenant* best = nullptr;
    std::size_t best_ci = 0;
    for (const auto& name : tenant_order_) {
      Tenant& t = tenants_.at(name);
      if (!tenant_admissible(t)) continue;
      std::size_t ci = campaigns_.size();
      for (std::size_t i = 0; i < campaigns_.size(); ++i) {
        if (campaigns_[i].done) continue;
        if (campaigns_[i].campaign->spec().tenant != name) continue;
        if (campaigns_[i].queue.empty()) continue;
        ci = i;
        break;
      }
      if (ci == campaigns_.size()) continue;
      if (best == nullptr || t.pass < best->pass) {
        best = &t;
        best_ci = ci;
      }
    }
    if (best == nullptr) break;

    CampaignRt& rt = campaigns_[best_ci];
    const std::uint64_t ticket_id = rt.queue.front();
    const core::EvalTicket& t = rt.campaign->outstanding().at(ticket_id);
    // Cap total admitted gang width at the cluster size: the executor
    // never queues internally, so fair-share is decided here.
    if (width_in_flight_ + t.width > cfg_.workers) break;
    const std::size_t width = t.width;
    rt.queue.pop_front();
    submit_ticket(best_ci, ticket_id);
    width_in_flight_ += width;
    best->in_flight += 1;
    // Stride scheduling: advancing pass by admitted width over priority
    // makes long-run admitted node-time proportional to priority.
    best->pass += static_cast<double>(width) / best->spec.priority;
  }
}

void CampaignRegistry::mark_done(std::size_t ci) {
  CampaignRt& rt = campaigns_[ci];
  if (rt.done) return;
  rt.done = true;
  std::size_t active = 0;
  for (const auto& c : campaigns_) {
    if (!c.done) ++active;
  }
  m_active_.set(static_cast<double>(active));
}

void CampaignRegistry::route(const std::vector<exec::Finished>& finished) {
  // Group completions per campaign, preserving executor delivery order.
  std::vector<std::vector<core::EvalDone>> per_campaign(campaigns_.size());
  for (const auto& f : finished) {
    const auto owner = job_owner_.find(f.id);
    if (owner == job_owner_.end()) {
      throw std::logic_error("svc: completion for unknown job " +
                             std::to_string(f.id));
    }
    const std::size_t ci = owner->second;
    job_owner_.erase(owner);
    CampaignRt& rt = campaigns_[ci];
    const auto jt = rt.jobs.find(f.id);
    const std::uint64_t ticket_id = jt->second;
    rt.jobs.erase(jt);

    const core::EvalTicket& t = rt.campaign->outstanding().at(ticket_id);
    width_in_flight_ -= t.width;
    Tenant& tenant = tenants_.at(rt.campaign->spec().tenant);
    tenant.in_flight -= 1;

    core::EvalDone d;
    d.ticket = ticket_id;
    d.finish_time = f.finish_time - rt.start_time;
    d.objective = f.output.objective;
    d.train_seconds = f.output.train_seconds;
    d.failed = f.output.failed;
    d.timed_out = f.output.timed_out;
    d.attempts = f.attempts;
    d.degraded = f.output.degraded;
    d.final_world = f.output.final_world;
    per_campaign[ci].push_back(d);
    m_completed_.inc();

    // Zero-duration completion mark on the campaign's trace lane (marks,
    // not spans: concurrent evaluations of one campaign overlap, which
    // would violate the lane-nesting invariant trace_validate enforces).
    obs::record_span("svc.eval", "svc.campaign." + rt.campaign->spec().name,
                     f.finish_time, 0.0,
                     {{"ticket", std::to_string(ticket_id)},
                      {"objective", std::to_string(f.output.objective)},
                      {"failed", f.output.failed ? "1" : "0"}});
  }

  for (std::size_t ci = 0; ci < campaigns_.size(); ++ci) {
    if (per_campaign[ci].empty()) continue;
    CampaignRt& rt = campaigns_[ci];
    const double now_rel = executor_->now() - rt.start_time;
    for (const auto& t : rt.campaign->step(per_campaign[ci], now_rel)) {
      rt.queue.push_back(t.ticket);
    }
    // Best-objective staircase per campaign, in executor time.
    for (const auto& d : per_campaign[ci]) {
      const double objective = d.failed ? 0.0 : d.objective;
      if (objective > rt.best && d.finish_time <= rt.campaign->wall_time_seconds()) {
        rt.best = objective;
        obs::record_counter_sample("svc." + rt.campaign->spec().name + ".best",
                                   d.finish_time + rt.start_time, rt.best);
      }
    }
    if (rt.campaign->started() && rt.queue.empty() &&
        rt.campaign->outstanding().empty() && rt.jobs.empty()) {
      mark_done(ci);
    }
  }
}

void CampaignRegistry::maybe_checkpoint() {
  if (cfg_.checkpoint_every_seconds <= 0.0 || cfg_.checkpoint_path.empty()) {
    return;
  }
  if (now() - last_checkpoint_time_ >= cfg_.checkpoint_every_seconds) {
    save_checkpoint(cfg_.checkpoint_path);
    last_checkpoint_time_ = now();
  }
}

bool CampaignRegistry::step() {
  start_pending_campaigns();
  admit();

  bool any_open = false;
  for (const auto& rt : campaigns_) {
    if (!rt.done) any_open = true;
  }
  if (!any_open) return false;

  const auto finished = executor_->get_finished(/*block=*/true);
  if (finished.empty()) {
    // Nothing in flight and nothing admissible: remaining queues are
    // starved by exhausted quotas (or an empty cluster) forever. Terminate
    // those campaigns cleanly rather than spinning.
    for (std::size_t ci = 0; ci < campaigns_.size(); ++ci) {
      if (!campaigns_[ci].done) mark_done(ci);
    }
    return false;
  }
  route(finished);
  maybe_checkpoint();

  for (const auto& rt : campaigns_) {
    if (!rt.done) return true;
  }
  return false;
}

bool CampaignRegistry::run(double stop_after_seconds) {
  start_pending_campaigns();
  for (;;) {
    if (stop_after_seconds > 0.0 && now() >= stop_after_seconds) {
      if (!cfg_.checkpoint_path.empty()) save_checkpoint(cfg_.checkpoint_path);
      return false;
    }
    if (!step()) break;
  }
  // Shutdown checkpoint: a completed service leaves a resumable record.
  if (!cfg_.checkpoint_path.empty()) save_checkpoint(cfg_.checkpoint_path);
  return true;
}

std::vector<TenantUsage> CampaignRegistry::tenant_usage() const {
  std::vector<TenantUsage> out;
  out.reserve(tenant_order_.size());
  for (const auto& name : tenant_order_) {
    const Tenant& t = tenants_.at(name);
    TenantUsage u;
    u.name = name;
    u.priority = t.spec.priority;
    u.consumed_node_seconds = tenant_consumed(t);
    u.node_seconds_budget = t.spec.node_seconds_budget;
    u.in_flight = t.in_flight;
    for (const auto& rt : campaigns_) {
      if (rt.campaign->spec().tenant == name) u.queued += rt.queue.size();
    }
    out.push_back(std::move(u));
  }
  return out;
}

void CampaignRegistry::save_checkpoint(const std::string& path) const {
  std::ostringstream os;
  os.precision(17);
  os << kCheckpointMagic << " v" << kCheckpointVersion << '\n';
  os << "workers " << cfg_.workers << " live " << (cfg_.live ? 1 : 0) << '\n';
  os << "clock " << executor_->now() << '\n';

  std::ostringstream exec_blob;
  const bool have_exec = executor_->save_state(exec_blob);
  os << "executor-state " << (have_exec ? 1 : 0) << '\n';
  if (have_exec) os << exec_blob.str();

  os << "tenants " << tenant_order_.size() << '\n';
  for (const auto& name : tenant_order_) {
    const Tenant& t = tenants_.at(name);
    os << "tenant " << name << ' ' << t.spec.priority << ' '
       << t.spec.max_in_flight << ' ' << t.spec.node_seconds_budget << ' '
       << t.pass << ' ' << tenant_consumed(t) << '\n';
  }

  os << "campaigns " << campaigns_.size() << '\n';
  for (const auto& rt : campaigns_) {
    const CampaignSpec& spec = rt.campaign->spec();
    os << "campaign " << spec.name << ' ' << spec.tenant << ' '
       << kind_token(spec.kind) << ' ' << spec.dataset << ' ' << spec.variant
       << ' ' << spec.wall_time_seconds << ' ' << spec.seed << ' ' << spec.kappa
       << ' ' << spec.timeout_seconds << ' ' << spec.max_retries << ' '
       << spec.sha_bracket << ' ' << spec.sha_eta << ' ' << spec.sha_rungs
       << '\n';
    // Written only when enabled so checkpoints from non-elastic services
    // stay byte-identical to earlier releases (golden-fixture compat).
    if (spec.elastic_crash > 0.0) {
      os << "elastic " << spec.elastic_crash << ' ' << spec.elastic_seed << ' '
         << spec.elastic_min_replicas << '\n';
    }
    os << "start-time " << rt.start_time << " done " << (rt.done ? 1 : 0)
       << " best " << rt.best << '\n';
    os << "queue " << rt.queue.size();
    for (const std::uint64_t id : rt.queue) os << ' ' << id;
    os << '\n';
    // Ordered dump of the job map so the file is deterministic.
    std::vector<std::pair<std::uint64_t, std::uint64_t>> jobs(rt.jobs.begin(),
                                                              rt.jobs.end());
    std::sort(jobs.begin(), jobs.end());
    os << "jobs " << jobs.size() << '\n';
    for (const auto& [job, ticket] : jobs) {
      os << "job " << job << ' ' << ticket << '\n';
    }
    os << "state\n";
    rt.campaign->save_state(os);
  }

  atomic_write_file(path, with_checksum(os.str()));
  m_checkpoints_.inc();
}

void CampaignRegistry::load_checkpoint(const std::string& path) {
  const std::string what = "svc checkpoint";
  if (started_ || !campaigns_.empty() || !tenants_.empty()) {
    throw std::logic_error(
        "load_checkpoint: registry already has tenants or campaigns");
  }
  const std::string payload = verify_checksum(read_file(path), what);
  std::istringstream is(payload);

  std::string magic, version;
  std::string want_version = std::to_string(kCheckpointVersion);
  want_version.insert(want_version.begin(), 'v');
  if (!(is >> magic >> version) || magic != kCheckpointMagic ||
      version != want_version) {
    state::fail(what, "bad magic/version line");
  }
  std::size_t workers = 0;
  state::expect_key(is, "workers", what);
  if (!(is >> workers)) state::fail(what, "truncated workers");
  const bool live = state::read_flag(is, "live", what);
  if (workers != cfg_.workers || live != cfg_.live) {
    state::fail(what,
                      "checkpoint was written by a differently-configured "
                      "service (workers/live mismatch)");
  }
  state::expect_key(is, "clock", what);
  double clock = 0.0;
  if (!(is >> clock)) state::fail(what, "truncated clock");

  const bool have_exec = state::read_flag(is, "executor-state", what);
  bool exec_restored = false;
  if (have_exec) {
    is >> std::ws;
    exec_restored = executor_->load_state(is);
  }

  const std::size_t n_tenants = state::read_count(is, "tenants", what);
  for (std::size_t i = 0; i < n_tenants; ++i) {
    state::expect_key(is, "tenant", what);
    TenantSpec spec;
    double pass = 0.0, consumed = 0.0;
    if (!(is >> spec.name >> spec.priority >> spec.max_in_flight >>
          spec.node_seconds_budget >> pass >> consumed)) {
      state::fail(what, "truncated tenant");
    }
    set_tenant(spec);
    Tenant& t = tenants_.at(spec.name);
    t.pass = pass;
    t.consumed_offset = consumed;
    t.busy_baseline = t.busy.total();  // future consumption is the delta
  }

  const std::size_t n_campaigns = state::read_count(is, "campaigns", what);
  for (std::size_t i = 0; i < n_campaigns; ++i) {
    state::expect_key(is, "campaign", what);
    CampaignSpec spec;
    std::string kind;
    if (!(is >> spec.name >> spec.tenant >> kind >> spec.dataset >>
          spec.variant >> spec.wall_time_seconds >> spec.seed >> spec.kappa >>
          spec.timeout_seconds >> spec.max_retries >> spec.sha_bracket >>
          spec.sha_eta >> spec.sha_rungs)) {
      state::fail(what, "truncated campaign spec");
    }
    spec.kind = kind_from_token(kind, what);
    // Optional elastic line (absent in pre-elastic checkpoints).
    is >> std::ws;
    if (is.peek() == 'e') {
      state::expect_key(is, "elastic", what);
      if (!(is >> spec.elastic_crash >> spec.elastic_seed >>
            spec.elastic_min_replicas)) {
        state::fail(what, "truncated elastic spec");
      }
    }
    const std::size_t ci = add_campaign(spec);
    CampaignRt& rt = campaigns_[ci];
    state::expect_key(is, "start-time", what);
    if (!(is >> rt.start_time)) state::fail(what, "truncated start-time");
    rt.done = state::read_flag(is, "done", what);
    state::expect_key(is, "best", what);
    if (!(is >> rt.best)) state::fail(what, "truncated best");

    const std::size_t n_queue = state::read_count(is, "queue", what);
    for (std::size_t q = 0; q < n_queue; ++q) {
      std::uint64_t id = 0;
      if (!(is >> id)) state::fail(what, "truncated queue");
      rt.queue.push_back(id);
    }
    const std::size_t n_jobs = state::read_count(is, "jobs", what);
    for (std::size_t j = 0; j < n_jobs; ++j) {
      state::expect_key(is, "job", what);
      std::uint64_t job = 0, ticket = 0;
      if (!(is >> job >> ticket)) state::fail(what, "truncated job");
      rt.jobs.emplace(job, ticket);
      job_owner_.emplace(job, ci);
    }
    state::expect_key(is, "state", what);
    is >> std::ws;
    rt.campaign->load_state(is);
  }

  if (!exec_restored) {
    // The executor could not snapshot (live pool) or the snapshot was
    // rejected: in-flight work is lost. Fall back to resubmitting every
    // outstanding ticket — each campaign's queue becomes its full
    // outstanding set, in ticket order.
    for (auto& rt : campaigns_) {
      rt.jobs.clear();
      rt.queue.clear();
      for (const auto& [id, t] : rt.campaign->outstanding()) {
        (void)t;
        rt.queue.push_back(id);
      }
    }
    job_owner_.clear();
  }

  // Rebuild in-flight accounting from the restored job maps.
  width_in_flight_ = 0;
  for (auto& [name, t] : tenants_) {
    (void)name;
    t.in_flight = 0;
  }
  for (const auto& rt : campaigns_) {
    Tenant& t = tenants_.at(rt.campaign->spec().tenant);
    for (const auto& [job, ticket] : rt.jobs) {
      (void)job;
      width_in_flight_ += rt.campaign->outstanding().at(ticket).width;
      t.in_flight += 1;
    }
  }

  started_ = true;  // campaigns resume mid-flight; no fresh start() calls
  last_checkpoint_time_ = now();
  std::size_t active = 0;
  for (const auto& rt : campaigns_) {
    if (!rt.done) ++active;
  }
  m_active_.set(static_cast<double>(active));
}

}  // namespace agebo::svc
