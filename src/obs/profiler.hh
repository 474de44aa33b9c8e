/**
 * @file
 * In-simulator stall-attribution profiler: per-static-PC counters for
 * everything the paper's techniques buy or cost (port grants and
 * conflicts, store-buffer-full stalls, line-buffer hits, MSHR waits,
 * commit stalls by cause) plus per-cache-set access/miss/eviction
 * counters.
 *
 * The Profiler is a consumer of the obs::Probe seam: model
 * components never see it.  When the run arms a profile, the probe
 * hands it every event, and count() turns each into per-PC and
 * per-set counter updates.  Hooks only *read* model state, so a
 * profiled run produces byte-identical results (locked down by
 * tests/test_obs_profile.cc, which also asserts that the per-PC sums
 * equal the aggregate StatGroup totals exactly).
 *
 * Each event carries the PC it is attributed to (obs::Probe's context
 * PC).  PC 0 is the machine itself — store-buffer drains, fills,
 * prefetches — and gets its own bucket.
 */

#ifndef CPE_OBS_PROFILER_HH
#define CPE_OBS_PROFILER_HH

#include <cstdint>
#include <unordered_map>
#include <vector>

#include "obs/probe.hh"
#include "util/json.hh"
#include "util/types.hh"

namespace cpe::obs {

/** Everything attributed to one static PC (bucket 0 = no PC). */
struct PcCounters
{
    // Load outcomes (mirrors the dcache_unit loads_* scalars).
    std::uint64_t loads = 0;
    std::uint64_t sbFwd = 0;        ///< forwarded from the store buffer
    std::uint64_t lbServed = 0;     ///< served by a line buffer
    std::uint64_t cacheHits = 0;    ///< port access, L1 hit
    std::uint64_t misses = 0;       ///< primary miss -> new MSHR
    std::uint64_t missMerged = 0;   ///< merged into an in-flight fill
    std::uint64_t stores = 0;       ///< stores accepted (buffer or port)
    // Line-buffer lookups made on behalf of this PC.
    std::uint64_t lbLookups = 0;
    std::uint64_t lbHits = 0;
    // Port traffic driven by this PC (drains/fills land in bucket 0).
    std::uint64_t portGrants = 0;
    std::uint64_t portConflicts = 0;///< retries: every port busy
    // Stall causes.
    std::uint64_t sbFullStalls = 0; ///< store refused: buffer full
    std::uint64_t mshrWaits = 0;    ///< load retries: MSHRs exhausted
    std::uint64_t partialStalls = 0;///< load blocked: partial SB overlap
    std::uint64_t commitStallHead = 0;  ///< commit blocked: head not done
    std::uint64_t commitStallStore = 0; ///< commit blocked: store refused
    // Miss traffic started for this PC.
    std::uint64_t mshrAllocs = 0;

    /** Total stall cycles attributed to this PC (the ranking key). */
    std::uint64_t
    stallCycles() const
    {
        return portConflicts + sbFullStalls + mshrWaits + partialStalls +
               commitStallHead + commitStallStore;
    }

    /** Any activity at all (empty buckets are not reported). */
    bool
    any() const
    {
        return loads || stores || lbLookups || portGrants ||
               mshrAllocs || stallCycles();
    }
};

/** Per-L1D-set counters (conflict heatmap). */
struct SetCounters
{
    std::uint64_t accesses = 0;   ///< demand accesses (hits + misses)
    std::uint64_t misses = 0;
    std::uint64_t evictions = 0;  ///< valid lines displaced
};

/**
 * Per-run attribution profiler.  One Profiler belongs to one
 * simulation run, like the Tracer; it is plain data, never shared
 * across threads.
 */
class Profiler
{
  public:
    Profiler() = default;
    Profiler(const Profiler &) = delete;
    Profiler &operator=(const Profiler &) = delete;

    /**
     * Size the per-set counters to the profiled L1D: @p sets sets of
     * @p line_bytes lines, indexed by line address modulo sets (as
     * mem::Cache does).
     */
    void initSets(unsigned sets, unsigned line_bytes);

    /** Count one event into its PC's bucket or its L1D set. */
    void count(const Event &event);

    /**
     * Zero every counter (the warm-up boundary, mirroring
     * StatGroup::resetAll() so the per-PC sums keep matching the
     * post-warm-up aggregates).  Set geometry survives.
     */
    void reset();

    // --- reporting ---

    /** Aggregate of every bucket (equals the StatGroup totals). */
    PcCounters totals() const;

    /**
     * The profile document embedded in JSON results: {"top": N,
     * "totals": {...}, "pcs": [top-N buckets by stall cycles],
     * "sets": {...}}.  Zero-valued per-PC members are omitted (like
     * the trace schema); totals always carry every key.
     */
    Json toJson(unsigned top_n) const;

  private:
    /** The L1D set @p addr maps to. */
    SetCounters &
    setOf(Addr addr)
    {
        return sets_[(addr >> lineShift_) & (sets_.size() - 1)];
    }

    Addr lastPc_ = 0;           ///< PC of the memoized bucket
    PcCounters none_;           ///< bucket for PC 0 (machine-initiated)
    PcCounters *cur_ = &none_;  ///< memoized bucket of lastPc_
    std::unordered_map<Addr, PcCounters> pcs_;
    std::vector<SetCounters> sets_;
    unsigned lineShift_ = 0;
    std::uint64_t robEmptyCycles_ = 0;
};

// Inline: the probe calls this once per event of a profiled run.
inline void
Profiler::count(const Event &event)
{
    if (event.pc != lastPc_) {
        lastPc_ = event.pc;
        cur_ = event.pc ? &pcs_[event.pc] : &none_;
    }
    PcCounters &pc = *cur_;
    switch (event.kind) {
      case EventKind::PortGrant: ++pc.portGrants; break;
      case EventKind::PortConflict: ++pc.portConflicts; break;
      case EventKind::LbHit: ++pc.lbLookups; ++pc.lbHits; break;
      case EventKind::LbMiss: ++pc.lbLookups; break;
      case EventKind::MshrAlloc: ++pc.mshrAllocs; break;
      case EventKind::Store: ++pc.stores; break;
      case EventKind::CacheEvict: ++setOf(event.addr).evictions; break;
      case EventKind::SetAccess: {
        SetCounters &set = setOf(event.addr);
        ++set.accesses;
        if (!event.a)
            ++set.misses;
        break;
      }
      case EventKind::CommitStall:
        switch (event.a) {
          case StallRobEmpty: ++robEmptyCycles_; break;
          case StallHeadIncomplete: ++pc.commitStallHead; break;
          case StallStoreReject: ++pc.commitStallStore; break;
        }
        break;
      case EventKind::Load:
        ++pc.loads;
        switch (event.a) {
          case LoadForwarded: ++pc.sbFwd; break;
          case LoadLineBuffer: ++pc.lbServed; break;
          case LoadCacheHit: ++pc.cacheHits; break;
          case LoadMiss: ++pc.misses; break;
          case LoadMissMerged: ++pc.missMerged; break;
        }
        break;
      case EventKind::AccessStall:
        switch (event.a) {
          case StallSbFull: ++pc.sbFullStalls; break;
          case StallMshrFull: ++pc.mshrWaits; break;
          case StallPartial: ++pc.partialStalls; break;
        }
        break;
      default:
        break;
    }
}

/**
 * Render a profile document (Profiler::toJson output) as the top-N
 * per-PC stall-attribution table `cpe_eval --profile` prints.
 */
std::string profileTable(const Json &profile);

} // namespace cpe::obs

#endif // CPE_OBS_PROFILER_HH
