/**
 * @file
 * Unit tests for the pipeline building blocks: the fixed ring behind
 * the core's queues, rename map, ROB, issue queue, functional-unit
 * pool, and the fetch unit driven by a recorded trace.
 */

#include <gtest/gtest.h>

#include "cpu/fetch.hh"
#include "cpu/func_units.hh"
#include "cpu/issue_queue.hh"
#include "cpu/rename.hh"
#include "cpu/rob.hh"
#include "func/executor.hh"
#include "prog/builder.hh"
#include "util/ring.hh"

namespace cpe::cpu {
namespace {

using namespace prog::reg;

TimingInst
makeInst(SeqNum seq, isa::Inst op)
{
    TimingInst inst;
    inst.di.seq = seq;
    inst.di.inst = op;
    inst.di.cls = isa::classOf(op.op);
    return inst;
}

TEST(Ring, WrapsAroundInFifoOrder)
{
    util::Ring<int> ring(3);
    EXPECT_TRUE(ring.empty());
    EXPECT_EQ(ring.capacity(), 3u);
    int next_in = 0, next_out = 0;
    // Keep two or three entries live while the head laps the slots
    // several times.
    for (int round = 0; round < 10; ++round) {
        while (!ring.full())
            ring.push_back(next_in++);
        ASSERT_EQ(ring.size(), 3u);
        EXPECT_EQ(ring.front(), next_out);
        EXPECT_EQ(ring.back(), next_in - 1);
        for (std::size_t i = 0; i < ring.size(); ++i)
            EXPECT_EQ(ring[i], next_out + static_cast<int>(i));
        ring.pop_front();
        ++next_out;
        if (round % 2) {
            ring.pop_front();
            ++next_out;
        }
    }
    EXPECT_GT(next_in, 9);
}

TEST(Ring, IteratesBothDirections)
{
    util::Ring<int> ring(4);
    for (int v = 0; v < 6; ++v) {
        if (ring.full())
            ring.pop_front();
        ring.push_back(v);
    }
    // Holds 2..5, wrapped past the end of its slots.
    std::vector<int> forward(ring.begin(), ring.end());
    EXPECT_EQ(forward, (std::vector<int>{2, 3, 4, 5}));
    std::vector<int> backward(ring.rbegin(), ring.rend());
    EXPECT_EQ(backward, (std::vector<int>{5, 4, 3, 2}));

    const util::Ring<int> &view = ring;
    std::vector<int> const_forward;
    for (int v : view)
        const_forward.push_back(v);
    EXPECT_EQ(const_forward, forward);
    std::vector<int> const_backward(view.rbegin(), view.rend());
    EXPECT_EQ(const_backward, backward);

    // Writes through an iterator land in the ring.
    for (int &v : ring)
        v *= 10;
    EXPECT_EQ(ring.front(), 20);
    EXPECT_EQ(ring.back(), 50);
}

TEST(Ring, ClearEmptiesAndRestartsCleanly)
{
    util::Ring<int> ring(3);
    ring.push_back(1);
    ring.push_back(2);
    ring.pop_front();
    ring.push_back(3);
    ring.clear();
    EXPECT_TRUE(ring.empty());
    EXPECT_EQ(ring.begin(), ring.end());
    ring.push_back(7);
    EXPECT_EQ(ring.size(), 1u);
    EXPECT_EQ(ring.front(), 7);
    EXPECT_EQ(ring.back(), 7);
}

TEST(Ring, PushedSlotKeepsItsAddressUntilPopped)
{
    util::Ring<int> ring(3);
    int *first = &ring.push_back(1);
    int *second = &ring.push_back(2);
    ring.pop_front();
    ring.push_back(3);
    ring.push_back(4);  // reuses the popped slot
    EXPECT_EQ(&ring[0], second);
    EXPECT_EQ(&ring[2], first);
    EXPECT_EQ(*second, 2);
    EXPECT_EQ(*first, 4);
}

TEST(Rename, TracksRawDependencies)
{
    RenameStage rename;
    // i1: add x5 = x1 + x2 ; i2: add x6 = x5 + x5 ; i3: add x5 = x6+x0
    auto i1 = makeInst(1, {isa::Opcode::ADD, 5, 1, 2, 0});
    auto i2 = makeInst(2, {isa::Opcode::ADD, 6, 5, 5, 0});
    auto i3 = makeInst(3, {isa::Opcode::ADD, 5, 6, 0, 0});
    rename.rename(i1);
    rename.rename(i2);
    rename.rename(i3);
    EXPECT_EQ(i1.srcProducer[0], 0u);   // architectural
    EXPECT_EQ(i2.srcProducer[0], 1u);   // produced by i1 (dedup'd)
    EXPECT_EQ(i3.srcProducer[0], 2u);

    // i4 reads x5: the *youngest* writer (i3) wins.
    auto i4 = makeInst(4, {isa::Opcode::ADD, 7, 5, 0, 0});
    rename.rename(i4);
    EXPECT_EQ(i4.srcProducer[0], 3u);

    // After i3 retires, x5 is architectural again.
    rename.retire(i3);
    auto i5 = makeInst(5, {isa::Opcode::ADD, 8, 5, 0, 0});
    rename.rename(i5);
    EXPECT_EQ(i5.srcProducer[0], 0u);
}

TEST(Rename, StoreSlotsAreAddrThenData)
{
    RenameStage rename;
    auto addr_prod = makeInst(1, {isa::Opcode::ADD, 5, 1, 2, 0});
    auto data_prod = makeInst(2, {isa::Opcode::ADD, 6, 1, 2, 0});
    rename.rename(addr_prod);
    rename.rename(data_prod);
    // sd x6, 0(x5)
    auto store = makeInst(3, {isa::Opcode::SD, isa::NoReg, 5, 6, 0});
    rename.rename(store);
    EXPECT_EQ(store.srcProducer[0], 1u);  // address
    EXPECT_EQ(store.srcProducer[1], 2u);  // data
}

TEST(Rob, InOrderCommitAndProducerLookup)
{
    Rob rob(4);
    EXPECT_TRUE(rob.empty());
    auto *a = rob.push(makeInst(1, {isa::Opcode::ADD, 5, 1, 2, 0}));
    auto *b = rob.push(makeInst(2, {isa::Opcode::ADD, 6, 5, 0, 0}));
    EXPECT_EQ(rob.size(), 2u);
    EXPECT_EQ(rob.head(), a);

    // Producer not done yet.
    EXPECT_FALSE(rob.producerDone(1, 100));
    a->done = true;
    a->doneCycle = 50;
    EXPECT_FALSE(rob.producerDone(1, 49));
    EXPECT_TRUE(rob.producerDone(1, 50));
    // Unknown/committed producers count as done; seq 0 always done.
    EXPECT_TRUE(rob.producerDone(0, 0));
    EXPECT_TRUE(rob.producerDone(999, 0));

    rob.popHead();
    EXPECT_EQ(rob.head(), b);
    EXPECT_TRUE(rob.producerDone(1, 0));  // committed
}

TEST(Rob, CapacityAndStability)
{
    Rob rob(3);
    std::vector<TimingInst *> ptrs;
    for (SeqNum seq = 1; seq <= 3; ++seq)
        ptrs.push_back(rob.push(makeInst(seq, {isa::Opcode::NOP,
                                               isa::NoReg, isa::NoReg,
                                               isa::NoReg, 0})));
    EXPECT_TRUE(rob.full());
    // Pointers must stay valid across pop/push churn (a slot is
    // reused only after its instruction commits).
    rob.popHead();
    rob.push(makeInst(4, {isa::Opcode::NOP, isa::NoReg, isa::NoReg,
                          isa::NoReg, 0}));
    EXPECT_EQ(ptrs[1]->di.seq, 2u);
    EXPECT_EQ(ptrs[2]->di.seq, 3u);
}

TEST(Rob, WrapsAroundMoreThanThreeTimesCapacity)
{
    Rob rob(4);
    SeqNum next = 1, oldest = 1;
    // Fill, then keep the window between two and four entries deep
    // while 16 instructions pass through four slots.
    while (next <= 16) {
        while (!rob.full() && next <= 16)
            rob.push(makeInst(next++, {isa::Opcode::NOP, isa::NoReg,
                                       isa::NoReg, isa::NoReg, 0}));
        ASSERT_EQ(rob.head()->di.seq, oldest);
        for (SeqNum seq = oldest; seq < next; ++seq) {
            ASSERT_NE(rob.find(seq), nullptr) << seq;
            EXPECT_EQ(rob.find(seq)->di.seq, seq);
        }
        rob.popHead();
        rob.popHead();
        oldest += 2;
    }
    EXPECT_EQ(rob.dispatched.value(), 16u);
    EXPECT_EQ(rob.committed.value(), oldest - 1);
    std::vector<SeqNum> window;
    for (const TimingInst &inst : rob)
        window.push_back(inst.di.seq);
    EXPECT_EQ(window, (std::vector<SeqNum>{15, 16}));
}

TEST(Rob, InWindowPointersStayStableAcrossWrap)
{
    Rob rob(3);
    auto nop = [](SeqNum seq) {
        return makeInst(seq, {isa::Opcode::NOP, isa::NoReg, isa::NoReg,
                              isa::NoReg, 0});
    };
    rob.push(nop(1));
    TimingInst *b = rob.push(nop(2));
    TimingInst *c = rob.push(nop(3));
    b->issueCycle = 22;
    c->issueCycle = 33;
    rob.popHead();
    TimingInst *d = rob.push(nop(4));  // wraps into seq 1's slot
    rob.popHead();
    TimingInst *e = rob.push(nop(5));  // wraps into seq 2's slot
    // Still-in-window entries were not moved by the churn.
    EXPECT_EQ(rob.find(3), c);
    EXPECT_EQ(c->di.seq, 3u);
    EXPECT_EQ(c->issueCycle, 33u);
    EXPECT_EQ(rob.find(4), d);
    EXPECT_EQ(rob.find(5), e);
    // Seq 2 committed, and its slot now belongs to seq 5.
    EXPECT_EQ(rob.find(2), nullptr);
    EXPECT_EQ(e, b);
}

TEST(Rob, FindAndProducerDoneByWindowPosition)
{
    Rob rob(4);
    std::vector<TimingInst *> pushed;
    for (SeqNum seq = 5; seq <= 8; ++seq)
        pushed.push_back(
            rob.push(makeInst(seq, {isa::Opcode::ADD, 5, 1, 2, 0})));
    rob.popHead();  // seq 5 commits; seq 9 wraps into its slot
    TimingInst *nine = rob.push(makeInst(9, {isa::Opcode::ADD, 5, 1, 2, 0}));
    EXPECT_EQ(rob.find(9), nine);
    EXPECT_EQ(rob.find(6), pushed[1]);

    // Committed producers are absent and count as done.
    EXPECT_EQ(rob.find(5), nullptr);
    EXPECT_EQ(rob.find(1), nullptr);
    EXPECT_TRUE(rob.producerDone(5, 0));
    // Younger-than-window (not yet dispatched) sequence numbers are
    // absent too.
    EXPECT_EQ(rob.find(10), nullptr);
    EXPECT_TRUE(rob.producerDone(10, 0));
    // Seq 0 means "no in-flight producer".
    EXPECT_EQ(rob.find(0), nullptr);
    EXPECT_TRUE(rob.producerDone(0, 0));

    // An in-window producer is done once issued and its cycle reached.
    TimingInst *seven = pushed[2];
    ASSERT_EQ(rob.find(7), seven);
    EXPECT_FALSE(rob.producerDone(7, 1000));
    seven->done = true;
    seven->doneCycle = 40;
    EXPECT_FALSE(rob.producerDone(7, 39));
    EXPECT_TRUE(rob.producerDone(7, 40));
}

TEST(Rob, OperandsReadyCycleWaitsForEveryIssuedProducer)
{
    Rob rob(8);
    TimingInst *p1 = rob.push(makeInst(1, {isa::Opcode::ADD, 5, 1, 2, 0}));
    TimingInst *p2 = rob.push(makeInst(2, {isa::Opcode::ADD, 6, 1, 2, 0}));
    TimingInst consumer = makeInst(3, {isa::Opcode::ADD, 7, 5, 6, 0});
    consumer.srcProducer[0] = 1;
    consumer.srcProducer[1] = 2;
    TimingInst store = makeInst(4, {isa::Opcode::SD, isa::NoReg, 5, 6, 0});
    store.srcProducer[0] = 1;  // address
    store.srcProducer[1] = 2;  // data

    EXPECT_EQ(rob.operandsReadyCycle(consumer), TimingInst::NotReady);
    p1->done = true;
    p1->doneCycle = 12;
    // One source still unissued; the store's AGU needs only [0].
    EXPECT_EQ(rob.operandsReadyCycle(consumer), TimingInst::NotReady);
    EXPECT_EQ(rob.operandsReadyCycle(store), 12u);
    p2->done = true;
    p2->doneCycle = 9;
    EXPECT_EQ(rob.operandsReadyCycle(consumer), 12u);  // the later one

    // Committed producers and seq 0 impose nothing.
    rob.popHead();
    rob.popHead();
    EXPECT_EQ(rob.operandsReadyCycle(consumer), 0u);
    TimingInst free_op = makeInst(5, {isa::Opcode::ADD, 8, 1, 2, 0});
    EXPECT_EQ(rob.operandsReadyCycle(free_op), 0u);
}

TEST(RobDeathTest, NonContiguousPushPanics)
{
    Rob rob(4);
    rob.push(makeInst(1, {isa::Opcode::NOP, isa::NoReg, isa::NoReg,
                          isa::NoReg, 0}));
    EXPECT_DEATH(rob.push(makeInst(3, {isa::Opcode::NOP, isa::NoReg,
                                       isa::NoReg, isa::NoReg, 0})),
                 "contiguous");
}

TEST(IssueQueueTest, AgeOrderAndReaping)
{
    IssueQueue iq(4);
    auto a = makeInst(1, {isa::Opcode::ADD, 5, 1, 2, 0});
    auto b = makeInst(2, {isa::Opcode::ADD, 6, 1, 2, 0});
    auto c = makeInst(3, {isa::Opcode::ADD, 7, 1, 2, 0});
    iq.add(&a);
    iq.add(&b);
    iq.add(&c);
    EXPECT_EQ(iq.entries()[0]->di.seq, 1u);
    EXPECT_EQ(iq.entries()[2]->di.seq, 3u);

    b.issued = true;
    iq.removeIssued();
    ASSERT_EQ(iq.size(), 2u);
    EXPECT_EQ(iq.entries()[0]->di.seq, 1u);
    EXPECT_EQ(iq.entries()[1]->di.seq, 3u);
    EXPECT_FALSE(iq.full());
}

TEST(FuPoolTest, PipelinedThroughput)
{
    FuPoolParams params;
    params.intAlu = {1, 1, true};
    FuPool pool(params);
    // One ALU, pipelined: one issue per cycle.
    EXPECT_EQ(pool.tryIssue(isa::InstClass::IntAlu, 10), 11u);
    EXPECT_EQ(pool.tryIssue(isa::InstClass::IntAlu, 10), 0u);
    EXPECT_TRUE(pool.canIssue(isa::InstClass::IntAlu, 11));
    EXPECT_EQ(pool.tryIssue(isa::InstClass::IntAlu, 11), 12u);
}

TEST(FuPoolTest, NonPipelinedOccupancy)
{
    FuPoolParams params;
    params.intDiv = {1, 20, false};
    FuPool pool(params);
    EXPECT_EQ(pool.tryIssue(isa::InstClass::IntDiv, 0), 20u);
    EXPECT_FALSE(pool.canIssue(isa::InstClass::IntDiv, 10));
    EXPECT_EQ(pool.tryIssue(isa::InstClass::IntDiv, 10), 0u);
    EXPECT_EQ(pool.structuralStalls.value(), 1u);
    EXPECT_EQ(pool.tryIssue(isa::InstClass::IntDiv, 20), 40u);
}

TEST(FuPoolTest, ClassMappingAndLatency)
{
    FuPool pool(FuPoolParams{});
    EXPECT_EQ(pool.latency(isa::InstClass::IntAlu), 1u);
    EXPECT_EQ(pool.latency(isa::InstClass::Branch), 1u);  // shares ALUs
    EXPECT_GT(pool.latency(isa::InstClass::FpMul), 1u);
    EXPECT_GT(pool.latency(isa::InstClass::IntDiv),
              pool.latency(isa::InstClass::IntMul));
    // Loads and stores share the AGUs.
    EXPECT_TRUE(pool.canIssue(isa::InstClass::Load, 0));
    EXPECT_TRUE(pool.canIssue(isa::InstClass::Store, 0));
}

// --- Fetch unit -------------------------------------------------------

struct FetchRig
{
    prog::Program program;
    func::Executor executor;
    BranchPredictor bpred;
    mem::MemHierarchy hierarchy;
    FetchUnit fetch;

    explicit FetchRig(prog::Program prog,
                      FetchParams params = FetchParams{})
        : program(std::move(prog)), executor(program),
          bpred(BranchPredictorParams{}),
          hierarchy(mem::L2Params{}, mem::DramParams{}),
          fetch(params, &executor, &bpred, &hierarchy)
    {
    }
};

prog::Program
straightLine(unsigned count)
{
    prog::Builder b("straight");
    for (unsigned i = 0; i < count; ++i)
        b.addi(t0, t0, 1);
    b.halt();
    return b.build();
}

TEST(Fetch, WidthLimitAndQueueing)
{
    FetchRig rig(straightLine(10));
    Cycle now = 0;
    // First access misses the I-cache: nothing fetched yet.
    rig.fetch.tick(now);
    EXPECT_TRUE(rig.fetch.queue().empty());
    EXPECT_GT(rig.fetch.icacheMissCycles.value(), 0u);

    // Wait out the fill, then groups of fetchWidth arrive per cycle.
    for (now = 1; now < 500 && rig.fetch.queue().empty(); ++now)
        rig.fetch.tick(now);
    EXPECT_LE(rig.fetch.queue().size(), 4u);
    std::size_t before = rig.fetch.queue().size();
    rig.fetch.tick(now);
    EXPECT_LE(rig.fetch.queue().size() - before, 4u);
}

TEST(Fetch, StopsAtQueueCapacity)
{
    FetchParams params;
    params.queueCapacity = 6;
    FetchRig rig(straightLine(40), params);
    for (Cycle now = 0; now < 500; ++now)
        rig.fetch.tick(now);
    EXPECT_LE(rig.fetch.queue().size(), 6u);
    EXPECT_GT(rig.fetch.queueFullBreaks.value(), 0u);
}

TEST(Fetch, FreezesOnMispredictUntilResolved)
{
    // A data-dependent branch the predictor cannot know cold: first
    // encounter of a taken branch predicted not-taken.
    prog::Builder b("br");
    prog::Label target = b.newLabel();
    b.loadImm(t0, 1);
    b.bne(t0, zero, target);  // taken, cold predictor says not-taken
    b.addi(t1, t1, 1);        // wrong path (never committed)
    b.bind(target);
    b.addi(t2, t2, 1);
    b.halt();
    FetchRig rig(b.build());

    // Run until the branch has been fetched.
    Cycle now = 0;
    SeqNum branch_seq = 0;
    for (; now < 1000 && !branch_seq; ++now) {
        rig.fetch.tick(now);
        for (auto &inst : rig.fetch.queue())
            if (inst.mispredicted)
                branch_seq = inst.di.seq;
    }
    ASSERT_NE(branch_seq, 0u);
    EXPECT_TRUE(rig.fetch.stalledOnBranch());

    // Frozen: further ticks fetch nothing.
    std::size_t frozen_size = rig.fetch.queue().size();
    rig.fetch.tick(now);
    rig.fetch.tick(now + 1);
    EXPECT_EQ(rig.fetch.queue().size(), frozen_size);

    // Resolution un-freezes at the given cycle.
    rig.fetch.resolveBranch(branch_seq, now + 5);
    rig.fetch.tick(now + 4);
    EXPECT_EQ(rig.fetch.queue().size(), frozen_size);
    rig.fetch.tick(now + 5);
    EXPECT_GT(rig.fetch.queue().size(), frozen_size);
    // The next fetched instruction is the branch target (committed
    // path), not the wrong path.
    const auto &resumed = rig.fetch.queue()[frozen_size];
    EXPECT_EQ(resumed.di.inst.op, isa::Opcode::ADDI);
    EXPECT_EQ(resumed.di.inst.rd, t2);
}

TEST(Fetch, WrongPathFetchPollutesICache)
{
    // A cold taken branch far forward: while frozen, the wrong-path
    // front end streams fall-through lines through the I-cache.
    prog::Builder b("wp");
    prog::Label target = b.newLabel();
    b.loadImm(t0, 1);
    b.bne(t0, zero, target);   // cold predictor: not-taken (wrong)
    for (int i = 0; i < 64; ++i)
        b.nop();               // wrong path: several I-lines
    b.bind(target);
    b.addi(t2, t2, 1);
    b.halt();
    prog::Program program = b.build();

    FetchParams params;
    params.modelWrongPathIFetch = true;
    FetchRig rig(std::move(program), params);

    Cycle now = 0;
    for (; now < 2000 && !rig.fetch.stalledOnBranch(); ++now)
        rig.fetch.tick(now);
    ASSERT_TRUE(rig.fetch.stalledOnBranch());

    // Let the wrong path run for a while.
    std::uint64_t misses_before = rig.fetch.icache().misses.value();
    for (Cycle t = now; t < now + 400; ++t)
        rig.fetch.tick(t);
    EXPECT_GT(rig.fetch.wrongPathLines.value(), 2u);
    EXPECT_GT(rig.fetch.wrongPathMisses.value(), 0u);
    EXPECT_GT(rig.fetch.icache().misses.value(), misses_before);

    // Resolution stops the wrong path and fetch resumes correctly.
    std::uint64_t wp_lines = rig.fetch.wrongPathLines.value();
    rig.fetch.resolveBranch(2, now + 401);
    // The target line is cold (the wrong path went the other way), so
    // allow the I-miss to resolve.
    bool fetched_target = false;
    for (Cycle t = now + 401; t < now + 900 && !fetched_target; ++t) {
        rig.fetch.tick(t);
        for (const auto &inst : rig.fetch.queue())
            fetched_target |= inst.di.inst.op == isa::Opcode::ADDI &&
                              inst.di.inst.rd == t2;
    }
    EXPECT_EQ(rig.fetch.wrongPathLines.value(), wp_lines);
    EXPECT_TRUE(fetched_target)
        << "fetch resumed somewhere other than the branch target";
}

TEST(Fetch, TraceExhaustion)
{
    FetchRig rig(straightLine(2));
    for (Cycle now = 0; now < 500 && !rig.fetch.traceExhausted(); ++now)
        rig.fetch.tick(now);
    EXPECT_TRUE(rig.fetch.traceExhausted());
    EXPECT_EQ(rig.fetch.queue().size(), 3u);  // 2 addi + halt
}

} // namespace
} // namespace cpe::cpu
