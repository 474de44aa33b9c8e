/**
 * @file
 * Reorder buffer: owns every in-flight TimingInst, provides in-order
 * commit, and finds producers by sequence number for wakeup checks.
 *
 * The window is a fixed ring of robSize slots.  Dispatch hands out
 * sequence numbers contiguously (they are the functional model's
 * commit order), so the instruction with sequence number s sits
 * s - headSeq slots behind the head and lookup is one subtraction.
 * A slot is reused only after its instruction commits, so the raw
 * TimingInst pointers handed to the issue queue and LSQ stay valid
 * for the instruction's whole window lifetime.
 */

#ifndef CPE_CPU_ROB_HH
#define CPE_CPU_ROB_HH

#include "cpu/pipeline_types.hh"
#include "stats/stats.hh"
#include "util/ring.hh"

namespace cpe::cpu {

/** The reorder buffer. */
class Rob
{
  public:
    explicit Rob(std::size_t capacity);

    bool full() const { return window_.full(); }
    bool empty() const { return window_.empty(); }
    std::size_t size() const { return window_.size(); }
    std::size_t capacity() const { return window_.capacity(); }

    /**
     * Insert at the tail (dispatch); @return the stable pointer.  The
     * sequence number must follow the tail's (any number may start an
     * empty window).
     */
    TimingInst *push(const TimingInst &inst);

    /** Oldest in-flight instruction, or nullptr. */
    TimingInst *head() { return empty() ? nullptr : &window_.front(); }

    /** Remove the head (commit). */
    void popHead();

    /**
     * The in-flight instruction with sequence number @p seq, or
     * nullptr when it is not in the window (committed already, or not
     * dispatched yet).
     */
    const TimingInst *
    find(SeqNum seq) const
    {
        // Older sequence numbers wrap to huge offsets.
        SeqNum offset = seq - headSeq_;
        return offset < window_.size() ? &window_[offset] : nullptr;
    }

    /**
     * Is the producer with sequence @p seq complete by @p now?  Seq 0
     * (no in-flight producer at rename) and producers outside the
     * window (committed already) count as complete.
     */
    bool
    producerDone(SeqNum seq, Cycle now) const
    {
        if (seq == 0)
            return true;
        const TimingInst *producer = find(seq);
        return !producer || (producer->done && producer->doneCycle <= now);
    }

    /**
     * The cycle by which every producer @p inst waits on to issue has
     * completed (see TimingInst::operandsReady), or
     * TimingInst::NotReady while one of them has not issued yet.
     */
    Cycle operandsReadyCycle(const TimingInst &inst) const;

    /** The window oldest-first (the phase-boundary squash). */
    util::Ring<TimingInst>::const_iterator begin() const
    {
        return window_.begin();
    }
    util::Ring<TimingInst>::const_iterator end() const
    {
        return window_.end();
    }

    /** Phase-boundary squash: drop every in-flight instruction
     *  (statistics keep their values). */
    void clear() { window_.clear(); }

    stats::StatGroup &statGroup() { return statGroup_; }

    stats::Scalar dispatched;
    stats::Scalar committed;
    stats::Scalar fullStalls;  ///< dispatch attempts with a full ROB

  private:
    util::Ring<TimingInst> window_;
    SeqNum headSeq_ = 0;  ///< sequence number of window_.front()
    stats::StatGroup statGroup_;
};

} // namespace cpe::cpu

#endif // CPE_CPU_ROB_HH
