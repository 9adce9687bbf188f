#pragma once
/// \file messages.hpp
/// \brief Typed messages of the Figure 9 protocol.
///
/// Step numbering follows the paper: (1) client sends NS and NM to the
/// clusters; (2) each cluster computes its performance vector; (3) vectors
/// return to the client; (4) the client computes the repartition; (5) the
/// client sends execution requests; (6) clusters execute their share.

#include <memory>
#include <string>
#include <variant>

#include "common/types.hpp"
#include "sched/heuristics.hpp"
#include "sched/repartition.hpp"

namespace oagrid::middleware {

template <typename T>
class Mailbox;

/// Step (3) payload: entries first..first+performance.size()-1 of the
/// cluster's performance vector.
struct PerfResponse {
  int request_id = 0;
  ClusterId cluster = 0;
  Count first = 1;
  sched::PerformanceVector performance;
};

/// Step (6) completion report.
struct ExecuteResponse {
  int request_id = 0;
  ClusterId cluster = 0;
  Count scenarios_run = 0;
  Seconds makespan = 0.0;
  Count mains_executed = 0;
  Count posts_executed = 0;
  /// Busy fraction of the allocated processor-seconds (see SimResult).
  double group_utilization = 0.0;
};

/// Streamed during step (6) when the request asks for it: how far the
/// cluster's campaign has advanced (in completed main tasks and simulated
/// time) — what a monitoring dashboard would subscribe to during the real
/// multi-week execution.
struct ProgressUpdate {
  int request_id = 0;
  ClusterId cluster = 0;
  Count months_done = 0;
  Count months_total = 0;
  Seconds simulated_time = 0.0;
};

/// A request the daemon could not serve (an empty entry range, an allocation
/// that failed, ...). The SeD reports the exception here instead of dying
/// with it; the client fails the campaign with `message`.
struct ErrorResponse {
  int request_id = 0;
  ClusterId cluster = 0;
  std::string message;
};

using SedResponse = std::variant<PerfResponse, ExecuteResponse, ProgressUpdate,
                                 ErrorResponse>;

/// Where a daemon sends its answers to one request. The request shares the
/// mailbox with the client, so a daemon that answers after the client gave
/// up on it (a missed step deadline, a failed campaign) still sends into
/// live memory.
using ReplyBox = std::shared_ptr<Mailbox<SedResponse>>;

/// Step (1) request: "compute the time needed to execute from 1 to NS
/// simulations" — or, when the client pulls its vectors on demand, only
/// entries first..last of that vector. The default range, 1..NS, is the
/// paper's full request; a ranged one extends a prefix the client already
/// holds, and its entries equal the full vector's bit for bit.
struct PerfRequest {
  int request_id = 0;
  Count scenarios = 0;  ///< NS
  Count months = 0;     ///< NM
  Count first = 1;      ///< first entry wanted (1-based)
  Count last = 0;       ///< last entry wanted, inclusive; 0 = NS
  sched::Heuristic heuristic = sched::Heuristic::kKnapsack;
  ReplyBox reply;
};

/// Step (5) request: execute `scenarios` simulations. Setting
/// `progress_every` > 0 asks for a ProgressUpdate on `reply` each time that
/// many main tasks complete.
struct ExecuteRequest {
  int request_id = 0;
  Count scenarios = 0;
  Count months = 0;
  sched::Heuristic heuristic = sched::Heuristic::kKnapsack;
  Count progress_every = 0;
  ReplyBox reply;
};

struct ShutdownRequest {};

using SedRequest = std::variant<PerfRequest, ExecuteRequest, ShutdownRequest>;

}  // namespace oagrid::middleware
