/**
 * @file
 * Types shared by the pipeline stages: the in-flight instruction record
 * that moves through fetch -> rename -> issue -> commit.
 */

#ifndef CPE_CPU_PIPELINE_TYPES_HH
#define CPE_CPU_PIPELINE_TYPES_HH

#include <cstdint>

#include "core/dcache_unit.hh"
#include "func/trace.hh"

namespace cpe::cpu {

/** Maximum register source operands of any instruction. */
constexpr unsigned MaxSrcs = 2;

/**
 * One in-flight dynamic instruction with its timing state.  Owned by
 * the ROB from dispatch to commit.
 */
struct TimingInst
{
    func::DynInst di;

    Cycle fetchCycle = 0;
    Cycle dispatchCycle = 0;
    Cycle issueCycle = 0;
    Cycle doneCycle = 0;
    Cycle commitCycle = 0;

    bool dispatched = false;
    bool issued = false;
    bool done = false;

    /**
     * Sequence numbers of the producing instructions for each source
     * register, or 0 when the value is already architectural (no
     * in-flight producer at rename time).
     *
     * For stores the slots have fixed meaning: [0] is the address
     * (base-register) producer and [1] the data producer.  A store
     * issues its AGU on [0] alone; [1] gates forwarding and commit.
     */
    SeqNum srcProducer[MaxSrcs] = {0, 0};

    /** operandsReady before every producer it waits on has issued. */
    static constexpr Cycle NotReady = ~Cycle{0};

    /**
     * The cycle from which this instruction's operands are available
     * to issue: the latest doneCycle of the producers it waits on (the
     * address producer alone for a store's AGU, every source
     * otherwise).  The issue stage sets it once, when the last of
     * those producers has issued; a producer's doneCycle is fixed at
     * its issue, so the value never changes afterwards.
     */
    Cycle operandsReady = NotReady;

    /** Fetch compared prediction with the trace: this one was wrong. */
    bool mispredicted = false;

    /** Where the load's data came from (valid once issued). */
    core::LoadSource loadSource = core::LoadSource::CacheHit;

    bool isLoad() const { return di.isLoad(); }
    bool isStore() const { return di.isStore(); }
    bool isControl() const { return di.isControl(); }
};

} // namespace cpe::cpu

#endif // CPE_CPU_PIPELINE_TYPES_HH
