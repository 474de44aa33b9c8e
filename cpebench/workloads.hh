/**
 * @file
 * The benchmark's named workloads.  Each one is a grid of simulation
 * configs (the runs a user wants) plus one service request per run that
 * asks for exactly that config, so the direct and the served halves of
 * a benchmark run measure the same work and can be checked against each
 * other run by run.
 */

#ifndef CPEBENCH_WORKLOADS_HH
#define CPEBENCH_WORKLOADS_HH

#include <cstdint>
#include <string>
#include <vector>

#include "serve/protocol.hh"
#include "sim/config.hh"

namespace cpebench {

struct Workload
{
    std::vector<cpe::sim::SimConfig> grid;
    /** requests[i] asks the server for grid[i], as machine text. */
    std::vector<cpe::serve::SweepRequest> requests;
};

/**
 * The machine labels (F5's column names) whose geomean IPC ratio is
 * port_efficiency_pct: one port with every technique over two ports.
 */
inline constexpr const char *kSinglePortAllLabel = "1p all";
inline constexpr const char *kDualPortLabel = "2 ports";

/**
 * Build workload @p name with workload seed @p seed.  @p tiny shrinks
 * the grid to scale-1 runs of two kernels for the self-test.
 * Throws std::invalid_argument on an unknown name.
 */
Workload makeWorkload(const std::string &name, std::uint64_t seed,
                      bool tiny);

} // namespace cpebench

#endif // CPEBENCH_WORKLOADS_HH
