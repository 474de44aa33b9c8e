/**
 * @file
 * Component drives: the paper's D-cache port subsystem and the memory
 * hierarchy run standalone on a workload's captured address stream, so
 * their host cost is visible from outside the timing core.
 */

#ifndef CPEBENCH_DRIVES_HH
#define CPEBENCH_DRIVES_HH

#include <cstdint>
#include <vector>

#include "func/captured_trace.hh"
#include "sim/config.hh"

namespace cpebench {

/** One memory-stream event: a load, a store, or a mode switch. */
struct MemOp
{
    enum Kind : std::uint8_t { Load, Store, ModeSwitch };
    cpe::Addr addr = 0;
    cpe::Addr pc = 0;
    std::uint8_t size = 0;
    Kind kind = Load;
};

/** The loads, stores and kernel-mode switches of @p trace, in order. */
std::vector<MemOp> memStream(const cpe::func::CapturedTrace &trace);

/** What one drive did and how long it took. */
struct DriveTiming
{
    double seconds = 0.0;
    std::uint64_t operations = 0;
    /** False when the drive could not finish (a stuck unit). */
    bool completed = true;
};

/**
 * A standalone core::DCacheUnit configured like @p config (ports,
 * store buffer, line buffers, L1D, MSHRs) fed with @p ops: up to two
 * memory operations per cycle in program order between beginCycle and
 * endCycle, a rejected one retried the next cycle, mode switches passed
 * through, then drainAll.
 */
DriveTiming driveDCache(const std::vector<MemOp> &ops,
                        const cpe::sim::SimConfig &config);

/**
 * A standalone mem::Cache with @p config's L1D geometry: access every
 * load and store, fill on a miss.  The line address of every miss is
 * appended to @p miss_lines.
 */
DriveTiming driveL1(const std::vector<MemOp> &ops,
                    const cpe::sim::SimConfig &config,
                    std::vector<cpe::Addr> &miss_lines);

/** MemHierarchy::fetchLine for each of @p lines, one after another. */
DriveTiming driveFetchLine(const std::vector<cpe::Addr> &lines,
                           const cpe::sim::SimConfig &config);

} // namespace cpebench

#endif // CPEBENCH_DRIVES_HH
