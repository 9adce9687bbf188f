#include "middleware/master_agent.hpp"

namespace oagrid::middleware {

MasterAgent::MasterAgent(const platform::Grid& grid) {
  for (const auto& cluster : grid.clusters()) deploy(cluster);
}

ClusterId MasterAgent::deploy(platform::Cluster cluster) {
  const auto id = static_cast<ClusterId>(daemons_.size());
  daemons_.push_back(std::make_unique<ServerDaemon>(id, std::move(cluster)));
  return id;
}

ServerDaemon& MasterAgent::daemon(ClusterId id) {
  OAGRID_REQUIRE(id >= 0 && id < daemon_count(), "daemon id out of range");
  return *daemons_[static_cast<std::size_t>(id)];
}

int MasterAgent::broadcast_perf_request(int request_id, Count scenarios,
                                        Count months,
                                        sched::Heuristic heuristic,
                                        Mailbox<SedResponse>& reply) {
  for (auto& daemon : daemons_) {
    PerfRequest request;
    request.request_id = request_id;
    request.scenarios = scenarios;
    request.months = months;
    request.heuristic = heuristic;
    request.reply = &reply;
    daemon->inbox().send(SedRequest{request});
  }
  return daemon_count();
}

void MasterAgent::send_perf_request(ClusterId id, int request_id,
                                    Count scenarios, Count months, Count first,
                                    Count last, sched::Heuristic heuristic,
                                    Mailbox<SedResponse>& reply) {
  PerfRequest request;
  request.request_id = request_id;
  request.scenarios = scenarios;
  request.months = months;
  request.first = first;
  request.last = last;
  request.heuristic = heuristic;
  request.reply = &reply;
  daemon(id).inbox().send(SedRequest{request});
}

void MasterAgent::send_execute(ClusterId id, int request_id, Count scenarios,
                               Count months, sched::Heuristic heuristic,
                               Mailbox<SedResponse>& reply) {
  ExecuteRequest request;
  request.request_id = request_id;
  request.scenarios = scenarios;
  request.months = months;
  request.heuristic = heuristic;
  request.reply = &reply;
  daemon(id).inbox().send(SedRequest{request});
}

void MasterAgent::shutdown() {
  for (auto& daemon : daemons_) daemon->stop();
}

}  // namespace oagrid::middleware
