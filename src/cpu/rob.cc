#include "cpu/rob.hh"

#include <algorithm>

#include "util/logging.hh"

namespace cpe::cpu {

Rob::Rob(std::size_t capacity) : window_(capacity), statGroup_("rob")
{
    statGroup_.addScalar("dispatched", &dispatched,
                         "instructions entering the window");
    statGroup_.addScalar("committed", &committed,
                         "instructions committed");
    statGroup_.addScalar("full_stalls", &fullStalls,
                         "dispatch attempts refused: ROB full");
}

TimingInst *
Rob::push(const TimingInst &inst)
{
    if (empty())
        headSeq_ = inst.di.seq;
    CPE_ASSERT(inst.di.seq == headSeq_ + window_.size(),
               "ROB sequence numbers must be contiguous: pushed "
                   << inst.di.seq << " after "
                   << headSeq_ + window_.size() - 1);
    TimingInst *stable = &window_.push_back(inst);
    ++dispatched;
    return stable;
}

void
Rob::popHead()
{
    window_.pop_front();
    ++headSeq_;
    ++committed;
}

Cycle
Rob::operandsReadyCycle(const TimingInst &inst) const
{
    // Stores need only their address operand to issue the AGU;
    // everything else waits for all sources.
    unsigned needed_srcs = inst.isStore() ? 1 : MaxSrcs;
    Cycle ready = 0;
    for (unsigned i = 0; i < needed_srcs; ++i) {
        if (inst.srcProducer[i] == 0)
            continue;
        const TimingInst *producer = find(inst.srcProducer[i]);
        if (!producer)
            continue;  // committed already
        if (!producer->done)
            return TimingInst::NotReady;
        ready = std::max(ready, producer->doneCycle);
    }
    return ready;
}

} // namespace cpe::cpu
