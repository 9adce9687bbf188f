#pragma once
/// \file parallel.hpp
/// \brief parallel_for over the process-wide shared_pool().
///
/// A forwarding shim, kept only because the end-to-end benchmark package
/// (e2ebench/, which compiles the library sources directly) includes it.
/// Library, tool, bench and example code calls shared_pool().parallel_for
/// directly: the one parallelism mechanism is ThreadPool
/// (common/thread_pool.hpp).

#include <cstddef>
#include <utility>

#include "common/thread_pool.hpp"

namespace oagrid {

/// Runs body(i) for every i in [begin, end) on shared_pool(), with at most
/// `threads` participating threads (0 = all cores); blocks until every
/// iteration finished. threads == 1 runs inline in index order; a call from
/// inside a parallel region runs inline too. The first exception a body
/// throws is rethrown here.
template <typename Body>
void parallel_for(std::size_t begin, std::size_t end, Body&& body,
                  std::size_t threads = 0) {
  shared_pool().parallel_for(begin, end, std::forward<Body>(body), threads);
}

}  // namespace oagrid
