#include "drives.hh"

#include "core/dcache_unit.hh"
#include "mem/hierarchy.hh"
#include "spans.hh"

namespace cpebench {

using namespace cpe;

namespace {

/** Memory operations the drive offers the unit per cycle. */
constexpr unsigned kOpsPerCycle = 2;

/** Cycles without progress after which a drive gives up. */
constexpr Cycle kStuckCycles = 1'000'000;

} // namespace

std::vector<MemOp>
memStream(const func::CapturedTrace &trace)
{
    std::vector<MemOp> ops;
    for (std::size_t i = 0; i < trace.size(); ++i) {
        const func::DynInst &inst = trace[i];
        MemOp op;
        op.addr = inst.memAddr;
        op.pc = inst.pc;
        op.size = inst.memSize;
        if (inst.isLoad())
            op.kind = MemOp::Load;
        else if (inst.isStore())
            op.kind = MemOp::Store;
        else if (inst.inst.op == isa::Opcode::EMODE ||
                 inst.inst.op == isa::Opcode::XMODE)
            op.kind = MemOp::ModeSwitch;
        else
            continue;
        ops.push_back(op);
    }
    return ops;
}

DriveTiming
driveDCache(const std::vector<MemOp> &ops, const sim::SimConfig &config)
{
    mem::MemHierarchy hierarchy(config.l2, config.dram);
    core::DCacheUnit unit(config.core.dcache, &hierarchy);

    DriveTiming timing;
    auto start = Clock::now();
    Cycle now = 0;
    Cycle lastProgress = 0;
    std::size_t next = 0;
    while (next < ops.size()) {
        unit.beginCycle(now);
        unsigned issued = 0;
        while (next < ops.size() && issued < kOpsPerCycle) {
            const MemOp &op = ops[next];
            if (op.kind == MemOp::ModeSwitch) {
                unit.onModeSwitch();
            } else if (op.kind == MemOp::Load) {
                if (!unit.tryLoad(op.addr, op.size, now, op.pc).accepted)
                    break;
                ++issued;
            } else {
                if (!unit.tryStore(op.addr, op.size, now, op.pc))
                    break;
                ++issued;
            }
            ++next;
        }
        unit.endCycle(now);
        if (issued)
            lastProgress = now;
        else if (now - lastProgress > kStuckCycles) {
            timing.completed = false;
            break;
        }
        ++now;
    }
    unit.drainAll(now);
    timing.seconds = seconds(start, Clock::now());
    timing.operations = next;
    return timing;
}

DriveTiming
driveL1(const std::vector<MemOp> &ops, const sim::SimConfig &config,
        std::vector<Addr> &miss_lines)
{
    mem::Cache cache(config.core.dcache.cache);
    DriveTiming timing;
    auto start = Clock::now();
    for (const MemOp &op : ops) {
        if (op.kind == MemOp::ModeSwitch)
            continue;
        bool write = op.kind == MemOp::Store;
        if (!cache.access(op.addr, write)) {
            cache.fill(op.addr, write);
            miss_lines.push_back(cache.lineAddr(op.addr));
        }
        ++timing.operations;
    }
    timing.seconds = seconds(start, Clock::now());
    return timing;
}

DriveTiming
driveFetchLine(const std::vector<Addr> &lines, const sim::SimConfig &config)
{
    mem::MemHierarchy hierarchy(config.l2, config.dram);
    DriveTiming timing;
    auto start = Clock::now();
    Cycle now = 0;
    for (Addr line : lines)
        now = hierarchy.fetchLine(line, now);
    timing.seconds = seconds(start, Clock::now());
    timing.operations = lines.size();
    return timing;
}

} // namespace cpebench
