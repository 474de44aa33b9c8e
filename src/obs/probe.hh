/**
 * @file
 * The one observability seam of the timing model.
 *
 * Every observable component holds one `obs::Probe *`, null unless the
 * run armed a consumer.  Each hook site is one branch on that pointer
 * emitting one typed Event (cycle, attributed PC, cause or payload);
 * hooks only *read* model state, so an observed run produces
 * byte-identical results.  The probe routes each event to the armed
 * consumers: the Tracer writes the trace-schema kinds (isTraced()), the
 * Profiler counts every kind.  It also owns the state both share: the
 * current cycle, for hooks with none of their own, and the context PC
 * (PcScope), so hooks deep inside the ports or line buffers never need
 * to know which instruction drove them.  Context PC 0 is the machine
 * itself: store-buffer drains, fills, prefetches.
 */

#ifndef CPE_OBS_PROBE_HH
#define CPE_OBS_PROBE_HH

#include <cstdint>

#include "util/types.hh"

namespace cpe {
class Json;
}

namespace cpe::obs {

class Profiler;
class Tracer;

/** What happened.  The kinds up to CommitStall form the trace schema
 *  (names from eventKindName()); the rest only feed the Profiler. */
enum class EventKind : std::uint8_t {
    PortGrant,     ///< port booked;            a = cycles occupied
    PortConflict,  ///< acquisition refused: every port busy
    SbInsert,      ///< new store-buffer entry; addr = line, a = bytes
    SbMerge,       ///< store combined;         addr = line, a = bytes
    SbDrain,       ///< one drain port access;  a = bytes, b = entry freed
    SbRestore,     ///< refused drain undone;   b = entry re-created
    LbFill,        ///< window captured;        addr = line, a = new bytes
    LbHit,         ///< load served by buffer;  addr = line
    LbEvict,       ///< buffer dropped;         addr = line, a = cause
    MshrAlloc,     ///< fill started;           addr = line, a = write,
                   ///<                         b = prefetch
    MshrRetire,    ///< fill data arrived;      addr = line
    CacheEvict,    ///< L1D line displaced;     addr = line, a = dirty
    Fill,          ///< line installed in L1D;  addr = line
    Commit,        ///< instructions committed; a = count this cycle
    CommitStall,   ///< commit made no progress; a = cause
    Load,          ///< load accepted;          a = LoadOutcome
    Store,         ///< store accepted (buffer or port)
    AccessStall,   ///< load/store refused;     a = AccessStallCause
    LbMiss,        ///< line-buffer lookup missed
    SetAccess,     ///< L1D demand access;      addr = address, a = hit
};

/** @return true for the kinds the trace schema carries. */
constexpr bool
isTraced(EventKind kind)
{
    return kind <= EventKind::CommitStall;
}

/** LbEvict causes (the "a" payload). */
enum : std::uint64_t {
    LbEvictReplaced = 1,   ///< LRU displacement by a capture
    LbEvictLineInval = 2,  ///< backing L1 line evicted
    LbEvictStore = 3,      ///< invalidated by a store (policy)
    LbEvictFlush = 4,      ///< full-file flush (mode switch)
};

/** CommitStall causes (the "a" payload). */
enum : std::uint64_t {
    StallRobEmpty = 0,     ///< window empty (frontend bound)
    StallHeadIncomplete = 1, ///< head not done executing
    StallStoreReject = 2,  ///< D-cache refused the head store
};

/** Load outcomes (the "a" payload of Load). */
enum LoadOutcome : std::uint64_t {
    LoadForwarded,   ///< forwarded from the store buffer
    LoadLineBuffer,  ///< served by a line buffer
    LoadCacheHit,    ///< port access, L1 hit
    LoadMiss,        ///< primary miss -> new MSHR
    LoadMissMerged,  ///< merged into an in-flight fill
};

/** AccessStall causes (the "a" payload). */
enum AccessStallCause : std::uint64_t {
    StallSbFull,     ///< store refused: store buffer full
    StallMshrFull,   ///< load refused: MSHRs exhausted
    StallPartial,    ///< load blocked: partial store-buffer overlap
};

/** One event; payload meaning depends on the kind. */
struct Event
{
    std::uint64_t seq = 0;  ///< trace position (assigned by the Tracer)
    Cycle cycle = 0;
    EventKind kind = EventKind::Commit;
    Addr pc = 0;  ///< static PC of the instruction in flight, 0 if none
    Addr addr = 0;
    std::uint64_t a = 0;
    std::uint64_t b = 0;
};

/** Per-run event router; arm its consumers before attaching it. */
class Probe
{
  public:
    /** Route trace-schema events and interval records to @p tracer. */
    void armTrace(Tracer *tracer) { tracer_ = tracer; }
    /** Route every event to @p profiler. */
    void armProfile(Profiler *profiler) { profiler_ = profiler; }
    bool armed() const { return tracer_ || profiler_; }

    /** The owning core keeps this at its current cycle. */
    void advanceTo(Cycle now) { now_ = now; }
    /** Attribute subsequent events to @p pc (0 = the machine). */
    void setPc(Addr pc) { pc_ = pc; }

    /** Emit at @p cycle, attributed to the context PC. */
    void
    emit(Cycle cycle, EventKind kind, Addr addr = 0, std::uint64_t a = 0,
         std::uint64_t b = 0)
    {
        emitFor(pc_, cycle, kind, addr, a, b);
    }

    /** emit() at the tracked current cycle. */
    void
    emitNow(EventKind kind, Addr addr = 0, std::uint64_t a = 0,
            std::uint64_t b = 0)
    {
        emitFor(pc_, now_, kind, addr, a, b);
    }

    /** Emit attributed to @p pc rather than the context PC. */
    void
    emitFor(Addr pc, Cycle cycle, EventKind kind, Addr addr = 0,
            std::uint64_t a = 0, std::uint64_t b = 0)
    {
        // With only a trace armed, profile-only kinds stop here.
        if (profiler_ || isTraced(kind))
            route(Event{0, cycle, kind, pc, addr, a, b});
    }

    /** Route one IntervalSampler record (a trace "interval" line). */
    void interval(const Json &record);

    /** The warm-up boundary: zero the profile with the statistics. */
    void beginMeasurement();

  private:
    void route(const Event &event);

    Tracer *tracer_ = nullptr;
    Profiler *profiler_ = nullptr;
    Cycle now_ = 0;
    Addr pc_ = 0;
};

/** Attributes events to @p pc while alive, then restores PC 0; inert
 *  for a null probe or a zero PC. */
class PcScope
{
  public:
    PcScope(Probe *probe, Addr pc) : probe_(pc ? probe : nullptr)
    {
        if (probe_)
            probe_->setPc(pc);
    }
    ~PcScope()
    {
        if (probe_)
            probe_->setPc(0);
    }
    PcScope(const PcScope &) = delete;
    PcScope &operator=(const PcScope &) = delete;

  private:
    Probe *probe_;
};

} // namespace cpe::obs

#endif // CPE_OBS_PROBE_HH
