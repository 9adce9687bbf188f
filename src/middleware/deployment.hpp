#pragma once
/// \file deployment.hpp
/// \brief The client-facing middleware interface.
///
/// DIET deployments range from one flat Master Agent to a tree of Local
/// Agents; the client's Figure 9 protocol is identical against either, so it
/// programs against this interface. MasterAgent (flat fleet) and
/// HierarchicalAgent (LA tree) both implement it.

#include <utility>

#include "middleware/messages.hpp"

namespace oagrid::middleware {

class Deployment {
 public:
  virtual ~Deployment() = default;

  /// Number of server daemons reachable through this deployment.
  [[nodiscard]] virtual int daemon_count() const = 0;

  /// Steps (1)-(3) as a pull: ask the daemon serving cluster `id` for
  /// entries first..last of its performance vector; the PerfResponse (or an
  /// ErrorResponse) arrives at `reply`. Steps 1-3 reach the daemons only
  /// through this call, one targeted request per cluster and pull round.
  /// Throws on an unknown id.
  void send_perf_request(ClusterId id, int request_id, Count scenarios,
                         Count months, Count first, Count last,
                         sched::Heuristic heuristic,
                         ReplyBox reply) {
    deliver(id, PerfRequest{.request_id = request_id,
                            .scenarios = scenarios,
                            .months = months,
                            .first = first,
                            .last = last,
                            .heuristic = heuristic,
                            .reply = std::move(reply)});
  }

  /// Step (5): deliver one execution request to the daemon serving cluster
  /// `id`. Throws on an unknown id.
  void send_execute(ClusterId id, int request_id, Count scenarios,
                    Count months, sched::Heuristic heuristic,
                    ReplyBox reply) {
    deliver(id, ExecuteRequest{.request_id = request_id,
                               .scenarios = scenarios,
                               .months = months,
                               .heuristic = heuristic,
                               .reply = std::move(reply)});
  }

 protected:
  /// Routes a PerfRequest or ExecuteRequest to the daemon serving cluster
  /// `id`. Throws on an unknown id.
  virtual void deliver(ClusterId id, SedRequest request) = 0;
};

}  // namespace oagrid::middleware
