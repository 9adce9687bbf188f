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

void MasterAgent::deliver(ClusterId id, SedRequest request) {
  daemon(id).inbox().send(std::move(request));
}

void MasterAgent::shutdown() {
  for (auto& daemon : daemons_) daemon->stop();
}

}  // namespace oagrid::middleware
