#pragma once
/// \file deployment.hpp
/// \brief The client-facing middleware interface.
///
/// DIET deployments range from one flat Master Agent to a tree of Local
/// Agents; the client's Figure 9 protocol is identical against either, so it
/// programs against this interface. MasterAgent (flat fleet) and
/// HierarchicalAgent (LA tree) both implement it.

#include "middleware/messages.hpp"

namespace oagrid::middleware {

class Deployment {
 public:
  virtual ~Deployment() = default;

  /// Number of server daemons reachable through this deployment.
  [[nodiscard]] virtual int daemon_count() const = 0;

  /// Step (1): fan the performance request out to every daemon; responses
  /// arrive at `reply`. Returns the number of daemons contacted.
  virtual int broadcast_perf_request(int request_id, Count scenarios,
                                     Count months, sched::Heuristic heuristic,
                                     Mailbox<SedResponse>& reply) = 0;

  /// Steps (1)-(3) as a pull: ask the daemon serving cluster `id` for
  /// entries first..last of its performance vector; the PerfResponse
  /// arrives at `reply`. Routed like send_execute; throws on an unknown id.
  virtual void send_perf_request(ClusterId id, int request_id, Count scenarios,
                                 Count months, Count first, Count last,
                                 sched::Heuristic heuristic,
                                 Mailbox<SedResponse>& reply) = 0;

  /// Step (5): deliver one execution request to the daemon serving cluster
  /// `id`. Throws on an unknown id.
  virtual void send_execute(ClusterId id, int request_id, Count scenarios,
                            Count months, sched::Heuristic heuristic,
                            Mailbox<SedResponse>& reply) = 0;
};

}  // namespace oagrid::middleware
