#pragma once
/// \file master_agent.hpp
/// \brief DIET-style Master Agent: the directory through which clients reach
/// server daemons.
///
/// In DIET the Master Agent routes requests and aggregates server responses;
/// here it owns the SeD fleet and routes each targeted request to the daemon
/// of its cluster.

#include <memory>
#include <vector>

#include "middleware/deployment.hpp"
#include "middleware/server_daemon.hpp"
#include "platform/grid.hpp"

namespace oagrid::middleware {

class MasterAgent final : public Deployment {
 public:
  MasterAgent() = default;

  /// Boots one SeD per cluster of the grid.
  explicit MasterAgent(const platform::Grid& grid);

  /// Registers an additional SeD for `cluster`; returns its id.
  ClusterId deploy(platform::Cluster cluster);

  [[nodiscard]] int daemon_count() const noexcept override {
    return static_cast<int>(daemons_.size());
  }
  [[nodiscard]] ServerDaemon& daemon(ClusterId id);

  /// Stops every daemon (also done on destruction).
  void shutdown();

 private:
  void deliver(ClusterId id, SedRequest request) override;

  std::vector<std::unique_ptr<ServerDaemon>> daemons_;
};

}  // namespace oagrid::middleware
