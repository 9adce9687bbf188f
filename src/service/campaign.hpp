#pragma once
/// \file campaign.hpp
/// \brief The service-level vocabulary: tenants submit *campaigns* (one
/// ensemble each) to a long-running service that multiplexes them over a
/// shared grid.
///
/// A campaign is the control-plane unit the paper's §6 experiments ran by
/// hand: "around 10 scenarios of 150 years" per climatologist, restarted
/// across expiring Grid'5000 reservations. CampaignState carries exactly the
/// state the crash-recoverable journal must reproduce: the per-scenario
/// month frontier (which month each chain has reached) plus the immutable
/// scenario-to-cluster assignment (a scenario never migrates once placed —
/// the paper's "cannot change location" rule).

#include <cmath>
#include <string>
#include <vector>

#include "common/types.hpp"

namespace oagrid::service {

/// Identifier of one submitted campaign, unique within a service lifetime
/// (and within its journal).
using CampaignId = std::uint32_t;

/// What a tenant submits: who they are, how much of the grid they are
/// entitled to relative to other owners, and the workload size.
struct CampaignSpec {
  std::string owner;   ///< tenant name (fair-share accounting key)
  double weight = 1.0; ///< fair-share weight (finite, > 0)
  Count scenarios = 0; ///< NS
  Count months = 0;    ///< NM

  void validate() const {
    OAGRID_REQUIRE(!owner.empty(), "campaign needs an owner");
    // Finite too: the weight keys the owner's fair-share queue bucket.
    OAGRID_REQUIRE(std::isfinite(weight) && weight > 0.0,
                   "campaign weight must be positive and finite");
    OAGRID_REQUIRE(scenarios >= 1, "campaign needs at least one scenario");
    OAGRID_REQUIRE(months >= 1, "campaign needs at least one month");
  }
};

enum class CampaignStatus {
  kScheduled, ///< submit time lies in the service's future
  kQueued,    ///< submitted, waiting for admission
  kRejected,  ///< refused at submission (queue full — admission control)
  kRunning,   ///< admitted; holds leases and executes months
  kCompleted, ///< every scenario reached its final month
};

[[nodiscard]] const char* to_string(CampaignStatus status) noexcept;

/// Full per-campaign service state. Everything here is either journaled
/// directly or deterministically re-derived during recovery replay.
struct CampaignState {
  CampaignId id = 0;
  CampaignSpec spec;
  CampaignStatus status = CampaignStatus::kScheduled;

  Seconds submit_time = 0.0; ///< service-clock instant of submission
  Seconds admit_time = 0.0;  ///< instant admission was granted
  Seconds finish_time = 0.0; ///< instant the last month completed

  /// frontier[s] = months completed by scenario s (the restart-chain
  /// position; the climate restart files are the data-plane analogue).
  std::vector<MonthIndex> frontier;
  /// scenario_ready[s] = completion time of the scenario's last month (the
  /// earliest instant its next month may start).
  std::vector<Seconds> scenario_ready;
  /// assignment[s] = cluster the scenario was pinned to at admission.
  std::vector<ClusterId> assignment;

  Count months_done = 0;

  [[nodiscard]] Count total_months() const noexcept {
    return spec.scenarios * spec.months;
  }
  [[nodiscard]] Count months_remaining() const noexcept {
    return total_months() - months_done;
  }
  /// Unfinished scenarios currently pinned to `cluster`.
  [[nodiscard]] Count unfinished_on(ClusterId cluster) const noexcept;
  /// Campaign makespan (finish - submit); 0 until completed.
  [[nodiscard]] Seconds makespan() const noexcept {
    return status == CampaignStatus::kCompleted ? finish_time - submit_time
                                                : 0.0;
  }
};

}  // namespace oagrid::service
