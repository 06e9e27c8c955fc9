// One tenant-owned search campaign inside the service (DESIGN.md §14).
//
// A Campaign owns its dataset evaluator and a pumped searcher (AgEBO or
// SHA) but NOT an executor — the CampaignRegistry schedules every
// campaign's tickets onto one shared executor through admission control.
// The campaign exposes a kind-agnostic pump facade plus checkpoint
// save/load that delegates to the searcher's state dialect.
#pragma once

#include <cstdint>
#include <iosfwd>
#include <map>
#include <optional>
#include <string>
#include <vector>

#include "core/search.hpp"
#include "core/sha_search.hpp"
#include "eval/surrogate.hpp"
#include "nas/search_space.hpp"

namespace agebo::svc {

enum class CampaignKind { kAgebo, kSha };

/// Declarative campaign description — what the manifest file and the
/// checkpoint store. A spec plus the shared search space fully determines
/// a fresh Campaign (SearchConfig itself carries std::function members and
/// cannot be serialized; `variant`/`kind` + knobs rebuild it via
/// core::config_by_name).
struct CampaignSpec {
  std::string name;    ///< unique; no whitespace (used in lanes/checkpoints)
  std::string tenant;  ///< accounting principal (TenantSpec::name)
  CampaignKind kind = CampaignKind::kAgebo;
  std::string dataset = "covertype";  ///< eval::profile_by_name
  std::string variant = "agebo";      ///< core::config_by_name (kAgebo only)
  double wall_time_seconds = 180.0 * 60.0;
  std::uint64_t seed = 1;
  double kappa = 0.001;
  /// Per-evaluation kill deadline and resubmission cap (kAgebo only —
  /// SHA controls evaluation cost through rung fidelity). 0 = disabled.
  double timeout_seconds = 0.0;
  std::size_t max_retries = 0;
  /// Successive-halving knobs (kSha only).
  std::size_t sha_bracket = 27;
  std::size_t sha_eta = 3;
  std::size_t sha_rungs = 3;
  /// Elastic-training simulation (eval::ElasticSimConfig): per-replica
  /// per-epoch crash probability > 0 turns it on. Persisted in the service
  /// checkpoint so a resumed degraded campaign replays identically.
  double elastic_crash = 0.0;
  std::uint64_t elastic_seed = 0;
  std::size_t elastic_min_replicas = 1;
};

class Campaign {
 public:
  /// Builds the evaluator and the (not yet started) pumped searcher.
  /// Throws std::invalid_argument on a bad spec (unknown dataset/variant,
  /// whitespace in names).
  Campaign(CampaignSpec spec, const nas::SearchSpace& space);

  const CampaignSpec& spec() const { return spec_; }
  eval::SurrogateEvaluator& evaluator() { return evaluator_; }

  // Pump facade (see core/search.hpp). Times are campaign-relative.
  std::vector<core::EvalTicket> start(std::size_t n_init);
  std::vector<core::EvalTicket> step(const std::vector<core::EvalDone>& done,
                                     double now);
  bool started() const;
  /// Tickets issued but not completed (queued in the registry or running).
  const std::map<std::uint64_t, core::EvalTicket>& outstanding() const;
  const std::vector<core::EvalRecord>& history() const;
  core::SearchResult result() const;
  double wall_time_seconds() const { return spec_.wall_time_seconds; }

  /// Checkpoint blob delegation (searcher dialect, common/state_io).
  void save_state(std::ostream& os) const;
  void load_state(std::istream& is);

 private:
  CampaignSpec spec_;
  eval::SurrogateEvaluator evaluator_;
  // Exactly one is engaged, per spec_.kind.
  std::optional<core::AgeboSearch> agebo_;
  std::optional<core::ShaJointSearch> sha_;
};

}  // namespace agebo::svc
