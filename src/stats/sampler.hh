/**
 * @file
 * Interval sampling over StatGroup trees: every N cycles the sampler
 * snapshots all registered scalars (and distributions) and emits the
 * *deltas* since the previous snapshot as one timeseries record, plus
 * a few derived per-interval metrics (IPC, port utilization, line-
 * buffer hit rate, store-buffer occupancy).
 *
 * Deltas are the invariant the tests pin down: with warm-up off, the
 * per-interval deltas of every scalar sum exactly to its end-of-run
 * total.  A StatGroup::resetAll() between samples (the warm-up
 * boundary) makes a counter go backwards; the sampler clamps such
 * deltas to the post-reset value, so records stay non-negative (and
 * the sum-to-total identity holds for the measurement region only).
 *
 * The final interval is closed by finalize() at the true end of the
 * run (including the post-HALT memory drain), so it may be longer
 * than sample_cycles; a run ending exactly on an interval boundary
 * produces no zero-length trailing record.
 */

#ifndef CPE_STATS_SAMPLER_HH
#define CPE_STATS_SAMPLER_HH

#include <cstdint>
#include <string>
#include <vector>

#include "stats/stats.hh"
#include "util/json.hh"
#include "util/types.hh"

namespace cpe::obs {
class Probe;
}

namespace cpe::stats {

/** Periodic StatGroup snapshotter producing a per-interval timeseries. */
class IntervalSampler
{
  public:
    /** @param interval_cycles Sample period; 0 disables the sampler. */
    explicit IntervalSampler(Cycle interval_cycles = 0)
        : interval_(interval_cycles)
    {
    }

    IntervalSampler(const IntervalSampler &) = delete;
    IntervalSampler &operator=(const IntervalSampler &) = delete;

    bool enabled() const { return interval_ > 0 || phaseMode_; }
    Cycle interval() const { return interval_; }

    /**
     * Phase-driven mode (sampled simulation): instead of a fixed
     * cycle period, the phase engine closes one record per
     * DetailedMeasure interval with rebase()/sampleAt(), so the
     * timeseries *is* the per-measurement-interval IPC series the
     * Estimator consumes.  Call before start(); tick() and finalize()
     * become no-ops (the engine owns interval boundaries).
     */
    void setPhaseMode() { phaseMode_ = true; }
    bool phaseMode() const { return phaseMode_; }

    /**
     * Phase mode: re-baseline every attached stat at @p now (the
     * start of a measurement interval).  Whatever accumulated since
     * the last record — fast-forward or warm-up pollution, or a
     * StatGroup::restore rolling values back — is discarded rather
     * than reported.
     */
    void rebase(Cycle now);

    /**
     * Phase mode: close the record for [last rebase, @p now) (the end
     * of a measurement interval).  A zero-length interval emits
     * nothing.
     */
    void
    sampleAt(Cycle now)
    {
        if (started_ && now > intervalStart_)
            sample(now);
    }

    /**
     * Register every scalar and distribution under @p root (full
     * dotted names).  Call once per stats root (core, memsys) before
     * start(); the groups must outlive the sampler.
     */
    void attach(const StatGroup &root);

    /** Take the baseline snapshot; sampling begins at @p now. */
    void start(Cycle now);

    /**
     * Per-cycle hook (the core calls this after each simulated cycle
     * with the count of *elapsed* cycles): emits a record whenever an
     * interval boundary is crossed.
     */
    void
    tick(Cycle now)
    {
        if (interval_ && now >= next_)
            sample(now);
    }

    /**
     * Close the trailing partial interval at the true end of the run.
     * A zero-length tail (run ended exactly on a boundary) emits
     * nothing.  Idempotent.
     */
    void finalize(Cycle now);

    /** Also route each record through @p probe (a trace "interval"
     *  line when the run is traced). */
    void setProbe(obs::Probe *probe) { probe_ = probe; }

    std::size_t intervalCount() const { return records_.size(); }
    const std::vector<Json> &records() const { return records_; }

    /**
     * The whole timeseries:
     * {"interval_cycles": N, "intervals": [record...]} — each record
     * carries seq/start/end/cycles, the derived metrics, non-zero
     * scalar deltas under "stats", and distribution deltas under
     * "dists".
     */
    Json toJson() const;

  private:
    struct ScalarRef
    {
        std::string name;
        const Scalar *stat;
        std::uint64_t base = 0;
    };
    struct DistRef
    {
        std::string name;
        const Distribution *stat;
        std::uint64_t baseSamples = 0;
        double baseSum = 0.0;
    };

    /** Emit the record for [intervalStart_, now) and rebase. */
    void sample(Cycle now);

    /** Delta of the named scalar in the record being built (0 if the
     *  stat is not attached). */
    static double deltaOf(const Json &stats, const std::string &name);

    Cycle interval_;
    Cycle next_ = 0;
    Cycle intervalStart_ = 0;
    bool phaseMode_ = false;
    bool started_ = false;
    unsigned seq_ = 0;
    std::vector<ScalarRef> scalars_;
    std::vector<DistRef> dists_;
    std::vector<Json> records_;
    obs::Probe *probe_ = nullptr;
};

} // namespace cpe::stats

#endif // CPE_STATS_SAMPLER_HH
