/**
 * @file
 * Host-speed probe: a fixed unit of branchy host work, timed between
 * simulate calls, so host timings can be scaled to one reference speed.
 *
 * A shared host runs this benchmark's thread at a speed that drifts by
 * tens of percent over minutes (thread CPU time equals wall time, so the
 * thread is slowed, not descheduled).  The time of a sort of random
 * keys follows the simulator's through those drifts (per direct pass,
 * r = 0.88-0.90), though less steeply; pointer chases and a multiply
 * chain track them worse.  The probe is the benchmark's own code, so a
 * change to the simulator does not change it.
 */

#ifndef CPEBENCH_HOST_PROBE_HH
#define CPEBENCH_HOST_PROBE_HH

#include <cstdint>
#include <vector>

namespace cpebench {

class HostProbe
{
  public:
    /** Probe time on the tuning host (4-vCPU Xeon VM), microseconds. */
    static constexpr double kReferenceUs = 600.0;

    /**
     * How steeply the simulator's host time follows the probe's: the
     * slope of log(simulate time) against log(probe time) across runs
     * was 1.48-1.54 on both workloads (20 runs, r = 0.89-0.98).
     */
    static constexpr double kSensitivity = 1.5;

    /**
     * The factor that scales a host time measured while the probe
     * averaged @p mean_us to the reference host speed:
     * (kReferenceUs / mean_us) ^ kSensitivity.
     */
    static double scaleFor(double mean_us);

    HostProbe();

    /** Sort a fresh set of pseudo-random keys; @return microseconds. */
    double sampleUs();

  private:
    std::vector<std::uint32_t> keys_;
    std::uint64_t state_ = 0x9e3779b97f4a7c15ull;
    std::uint64_t sink_ = 0;
};

} // namespace cpebench

#endif // CPEBENCH_HOST_PROBE_HH
