/**
 * @file
 * Load/store-queue unit tests: capacity, conservative disambiguation
 * (and the oldest-unissued-store position behind it), forwarding
 * decisions (full / partial / data-not-ready), and in-order commit
 * bookkeeping — driven directly, without the whole core.
 */

#include <gtest/gtest.h>

#include "cpu/lsq.hh"
#include "cpu/rob.hh"

namespace cpe::cpu {
namespace {

struct LsqRig
{
    mem::MemHierarchy hierarchy{mem::L2Params{}, mem::DramParams{}};
    core::DCacheUnit dcache;
    Rob rob{32};
    Lsq lsq;

    LsqRig()
        : dcache(makeDcache(), &hierarchy), lsq(LsqParams{4, 4})
    {
    }

    static core::DCacheParams
    makeDcache()
    {
        core::DCacheParams params;
        params.tech = core::PortTechConfig::dualPortBase();
        return params;
    }

    /** Dispatch a load or store at @p addr into ROB + LSQ. */
    TimingInst *
    addMem(SeqNum seq, bool is_store, Addr addr, unsigned size,
           SeqNum data_producer = 0)
    {
        TimingInst inst;
        inst.di.seq = seq;
        inst.di.inst.op = is_store ? isa::Opcode::SD : isa::Opcode::LD;
        inst.di.cls = is_store ? isa::InstClass::Store
                               : isa::InstClass::Load;
        inst.di.memAddr = addr;
        inst.di.memSize = static_cast<std::uint8_t>(size);
        inst.srcProducer[1] = data_producer;
        TimingInst *stable = rob.push(inst);
        lsq.dispatch(stable);
        return stable;
    }

    /** Mark a store's AGU as done at @p cycle. */
    static void
    aguDone(TimingInst *store, Cycle cycle)
    {
        store->issued = true;
        store->done = true;
        store->doneCycle = cycle;
    }
};

TEST(LsqUnit, CapacityGatesDispatch)
{
    LsqRig rig;
    for (SeqNum seq = 1; seq <= 4; ++seq)
        rig.addMem(seq, false, 0x1000 + 8 * seq, 8);
    EXPECT_FALSE(rig.lsq.canDispatch(false));  // LQ full
    EXPECT_TRUE(rig.lsq.canDispatch(true));    // SQ still open
    for (SeqNum seq = 5; seq <= 8; ++seq)
        rig.addMem(seq, true, 0x2000 + 8 * seq, 8);
    EXPECT_FALSE(rig.lsq.canDispatch(true));
    EXPECT_EQ(rig.lsq.loads(), 4u);
    EXPECT_EQ(rig.lsq.stores(), 4u);
}

TEST(LsqUnit, LoadWaitsForOlderStoreAddress)
{
    LsqRig rig;
    TimingInst *store = rig.addMem(1, true, 0x2000, 8);
    TimingInst *load = rig.addMem(2, false, 0x1000, 8);

    // Older store has not issued its AGU: the load must wait even
    // though the addresses do not overlap.
    rig.dcache.beginCycle(0);
    EXPECT_FALSE(rig.lsq.tryIssueLoad(load, rig.dcache, rig.rob, 0));
    EXPECT_EQ(rig.lsq.addrUnknownStalls.value(), 1u);

    LsqRig::aguDone(store, 0);
    EXPECT_TRUE(rig.lsq.tryIssueLoad(load, rig.dcache, rig.rob, 1));
}

TEST(LsqUnit, StoresIssuingYoungestFirstKeepTheStall)
{
    LsqRig rig;
    TimingInst *s1 = rig.addMem(1, true, 0x2000, 8);
    TimingInst *s2 = rig.addMem(2, true, 0x2100, 8);
    TimingInst *s3 = rig.addMem(3, true, 0x2200, 8);
    TimingInst *load = rig.addMem(4, false, 0x1000, 8);
    rig.dcache.beginCycle(0);

    // Every retry while an older store's address is unknown counts
    // once, whichever older store it is.
    EXPECT_FALSE(rig.lsq.tryIssueLoad(load, rig.dcache, rig.rob, 0));
    EXPECT_EQ(rig.lsq.addrUnknownStalls.value(), 1u);
    LsqRig::aguDone(s3, 0);
    EXPECT_FALSE(rig.lsq.tryIssueLoad(load, rig.dcache, rig.rob, 1));
    EXPECT_EQ(rig.lsq.addrUnknownStalls.value(), 2u);
    LsqRig::aguDone(s2, 1);
    EXPECT_FALSE(rig.lsq.tryIssueLoad(load, rig.dcache, rig.rob, 2));
    EXPECT_EQ(rig.lsq.addrUnknownStalls.value(), 3u);

    // Only the oldest store issuing releases the load.
    LsqRig::aguDone(s1, 2);
    EXPECT_TRUE(rig.lsq.tryIssueLoad(load, rig.dcache, rig.rob, 3));
    EXPECT_EQ(rig.lsq.addrUnknownStalls.value(), 3u);
    EXPECT_EQ(rig.lsq.partialStalls.value(), 0u);
}

TEST(LsqUnit, CommitStoreKeepsTheOldestUnissuedPosition)
{
    LsqRig rig;
    TimingInst *s1 = rig.addMem(1, true, 0x2000, 8);
    TimingInst *s2 = rig.addMem(2, true, 0x2100, 8);
    TimingInst *l3 = rig.addMem(3, false, 0x1000, 8);
    LsqRig::aguDone(s1, 0);
    rig.dcache.beginCycle(0);

    // s2 (SQ position 1) blocks; the commit of s1 moves it to the head.
    EXPECT_FALSE(rig.lsq.tryIssueLoad(l3, rig.dcache, rig.rob, 0));
    rig.lsq.commitStore(s1);
    EXPECT_FALSE(rig.lsq.tryIssueLoad(l3, rig.dcache, rig.rob, 1));
    EXPECT_EQ(rig.lsq.addrUnknownStalls.value(), 2u);

    // Once every store has issued, a store dispatched later blocks
    // only the loads younger than it.
    LsqRig::aguDone(s2, 1);
    EXPECT_TRUE(rig.lsq.tryIssueLoad(l3, rig.dcache, rig.rob, 2));
    rig.addMem(4, true, 0x2200, 8);
    TimingInst *l5 = rig.addMem(5, false, 0x1100, 8);
    TimingInst *l6 = rig.addMem(6, false, 0x1200, 8);
    rig.dcache.beginCycle(3);
    EXPECT_FALSE(rig.lsq.tryIssueLoad(l5, rig.dcache, rig.rob, 3));
    EXPECT_EQ(rig.lsq.addrUnknownStalls.value(), 3u);
    rig.lsq.commitStore(s2);
    EXPECT_FALSE(rig.lsq.tryIssueLoad(l6, rig.dcache, rig.rob, 3));
    EXPECT_EQ(rig.lsq.addrUnknownStalls.value(), 4u);
}

TEST(LsqUnit, ClearResetsTheOldestUnissuedPosition)
{
    LsqRig rig;
    TimingInst *s1 = rig.addMem(1, true, 0x2000, 8);
    TimingInst *s2 = rig.addMem(2, true, 0x2100, 8);
    TimingInst *l3 = rig.addMem(3, false, 0x1000, 8);
    LsqRig::aguDone(s1, 0);
    LsqRig::aguDone(s2, 0);
    rig.dcache.beginCycle(0);
    // Advances the position past both issued stores.
    EXPECT_TRUE(rig.lsq.tryIssueLoad(l3, rig.dcache, rig.rob, 0));

    // A phase-boundary squash, then a fresh window: its one unissued
    // store sits at SQ position 0 and must block the load behind it.
    rig.lsq.clear();
    rig.rob.clear();
    rig.addMem(100, true, 0x2000, 8);
    TimingInst *load = rig.addMem(101, false, 0x1000, 8);
    rig.dcache.beginCycle(1);
    EXPECT_FALSE(rig.lsq.tryIssueLoad(load, rig.dcache, rig.rob, 1));
    EXPECT_EQ(rig.lsq.addrUnknownStalls.value(), 1u);
}

TEST(LsqUnit, YoungerStoresDoNotBlockOlderLoads)
{
    LsqRig rig;
    TimingInst *load = rig.addMem(1, false, 0x1000, 8);
    rig.addMem(2, true, 0x1000, 8);  // younger store, same address

    rig.dcache.beginCycle(0);
    EXPECT_TRUE(rig.lsq.tryIssueLoad(load, rig.dcache, rig.rob, 0));
    EXPECT_EQ(rig.lsq.addrUnknownStalls.value(), 0u);
}

TEST(LsqUnit, FullCoverageForwardsWhenDataReady)
{
    LsqRig rig;
    TimingInst *store = rig.addMem(1, true, 0x3000, 8);
    TimingInst *load = rig.addMem(2, false, 0x3000, 8);
    LsqRig::aguDone(store, 0);

    rig.dcache.beginCycle(1);
    ASSERT_TRUE(rig.lsq.tryIssueLoad(load, rig.dcache, rig.rob, 1));
    EXPECT_EQ(rig.lsq.lsqForwards.value(), 1u);
    EXPECT_EQ(load->loadSource, core::LoadSource::StoreBufferFwd);
    EXPECT_EQ(load->doneCycle, 2u);  // 1-cycle forward
    // No cache port was touched.
    EXPECT_EQ(rig.dcache.ports().grants.value(), 0u);
}

TEST(LsqUnit, ForwardWaitsForStoreData)
{
    LsqRig rig;
    // Store's data comes from producer seq 10, which is still in
    // flight.
    TimingInst producer;
    producer.di.seq = 10;
    producer.di.inst.op = isa::Opcode::ADD;
    TimingInst *prod = rig.rob.push(producer);

    TimingInst *store = rig.addMem(11, true, 0x3000, 8, /*data=*/10);
    TimingInst *load = rig.addMem(12, false, 0x3000, 8);
    LsqRig::aguDone(store, 0);

    rig.dcache.beginCycle(1);
    EXPECT_FALSE(rig.lsq.tryIssueLoad(load, rig.dcache, rig.rob, 1));
    EXPECT_EQ(rig.lsq.partialStalls.value(), 1u);

    prod->done = true;
    prod->doneCycle = 3;
    EXPECT_TRUE(rig.lsq.tryIssueLoad(load, rig.dcache, rig.rob, 3));
    EXPECT_EQ(rig.lsq.lsqForwards.value(), 1u);
}

TEST(LsqUnit, PartialOverlapStalls)
{
    LsqRig rig;
    TimingInst *store = rig.addMem(1, true, 0x3004, 4);  // bytes 4-7
    TimingInst *load = rig.addMem(2, false, 0x3000, 8);  // bytes 0-7
    LsqRig::aguDone(store, 0);

    rig.dcache.beginCycle(1);
    EXPECT_FALSE(rig.lsq.tryIssueLoad(load, rig.dcache, rig.rob, 1));
    EXPECT_EQ(rig.lsq.partialStalls.value(), 1u);

    // Once the store commits out of the queue, the load proceeds to
    // the cache (which now holds/fetches the full line).
    rig.lsq.commitStore(store);
    EXPECT_TRUE(rig.lsq.tryIssueLoad(load, rig.dcache, rig.rob, 2));
    EXPECT_NE(load->loadSource, core::LoadSource::StoreBufferFwd);
}

TEST(LsqUnit, YoungestOverlappingStoreWins)
{
    LsqRig rig;
    TimingInst *old_store = rig.addMem(1, true, 0x3000, 8);
    TimingInst *new_store = rig.addMem(2, true, 0x3000, 4);  // bytes 0-3
    TimingInst *load = rig.addMem(3, false, 0x3000, 8);
    LsqRig::aguDone(old_store, 0);
    LsqRig::aguDone(new_store, 0);

    // The youngest overlapping store covers the load only partially:
    // forwarding from the older full-width store would return stale
    // bytes 0-3, so the load must wait.
    rig.dcache.beginCycle(1);
    EXPECT_FALSE(rig.lsq.tryIssueLoad(load, rig.dcache, rig.rob, 1));
    EXPECT_EQ(rig.lsq.partialStalls.value(), 1u);

    // A 4-byte load fully inside the youngest store forwards fine.
    TimingInst *narrow = rig.addMem(4, false, 0x3000, 4);
    EXPECT_TRUE(rig.lsq.tryIssueLoad(narrow, rig.dcache, rig.rob, 1));
    EXPECT_EQ(narrow->loadSource, core::LoadSource::StoreBufferFwd);
}

TEST(LsqUnit, CommitsAreInOrder)
{
    LsqRig rig;
    TimingInst *l1 = rig.addMem(1, false, 0x1000, 8);
    TimingInst *s1 = rig.addMem(2, true, 0x2000, 8);
    TimingInst *l2 = rig.addMem(3, false, 0x3000, 8);

    rig.lsq.commitLoad(l1);
    rig.lsq.commitStore(s1);
    rig.lsq.commitLoad(l2);
    EXPECT_EQ(rig.lsq.loads(), 0u);
    EXPECT_EQ(rig.lsq.stores(), 0u);
}

TEST(LsqUnitDeathTest, OutOfOrderCommitPanics)
{
    LsqRig rig;
    rig.addMem(1, false, 0x1000, 8);
    TimingInst *younger = rig.addMem(2, false, 0x2000, 8);
    EXPECT_DEATH(rig.lsq.commitLoad(younger), "in order");
}

} // namespace
} // namespace cpe::cpu
