/**
 * @file
 * Offline trace analysis: the library behind the `cpe_trace` tool.
 *
 * Consumes the JSONL traces cpe_eval writes (schema:
 * docs/observability.md) and offers:
 *
 *   - loadTraceFile(): parse a trace into per-run streams (parallel
 *     sweeps interleave runs in one file, each line tagged "r");
 *   - validateRun(): the structural invariants any correct trace must
 *     satisfy, as a lint returning human-readable violations — the
 *     oracle tests/test_obs_invariants.cc runs over real traced runs;
 *   - summarizeRun(): headline numbers and a stall-cause breakdown;
 *   - hotReport(): top-N PCs (or cache lines) by attributed stalls;
 *   - heatmapCsv(): per-L1D-set conflict traffic as CSV.
 *
 * Events are held as compact structs, not Json values: a traced F5 run
 * is a few million events, and a parsed Json object per event would
 * cost two orders of magnitude more memory than the 56-byte record.
 */

#ifndef CPE_OBS_ANALYSIS_HH
#define CPE_OBS_ANALYSIS_HH

#include <cstdint>
#include <iosfwd>
#include <string>
#include <vector>

#include "obs/tracer.hh"
#include "util/json.hh"
#include "util/types.hh"

namespace cpe::obs {

/** One parsed "ev" line (payload semantics depend on the kind). */
struct TraceEvent
{
    std::uint64_t seq = 0;
    Cycle cycle = 0;
    EventKind kind = EventKind::Commit;
    bool knownKind = false;
    Addr pc = 0;
    Addr addr = 0;
    std::uint64_t a = 0;
    std::uint64_t b = 0;
};

/** Everything one run contributed to a trace file. */
struct TraceRun
{
    std::uint64_t id = 0;
    Json begin;                     ///< run_begin line (null if absent)
    Json end;                       ///< run_end line (null if absent)
    std::vector<TraceEvent> events; ///< "ev" lines, stream order
    std::vector<Json> intervals;    ///< "interval" lines, stream order
    /** Unseen "k" names (schema drift), in first-seen order. */
    std::vector<std::string> unknownKinds;

    /** Header geometry (0 = the producer did not record it). */
    unsigned l1dSets() const;
    unsigned lineBytes() const;
    std::string workload() const;
    std::string configTag() const;
};

/** A whole trace file: one or more runs keyed by their "r" id. */
struct TraceFile
{
    std::vector<TraceRun> runs;     ///< ordered by run id

    const TraceRun *findRun(std::uint64_t id) const;
};

/**
 * Parse a JSONL trace from @p in (@p context names it in errors).
 * Throws IoError on malformed JSON or a line without "t"/"r".
 */
TraceFile parseTrace(std::istream &in, const std::string &context);

/** parseTrace() over the file at @p path; throws IoError if
 *  unreadable. */
TraceFile loadTraceFile(const std::string &path);

/**
 * Check every structural invariant of one run's stream and return the
 * violations (empty = clean).  Covers: run_begin/run_end presence,
 * contiguous "s" sequence numbers, monotone cycles, known event kinds,
 * the run_end events/dropped accounting, store-buffer entry lifetimes,
 * line-buffer hits only between a fill and an evict, MSHR
 * allocate/retire balance, commit events summing to the footer's
 * instruction count, and interval records that are contiguous and sum
 * exactly to the footer's final stats.
 *
 * Assumes warm-up was off for the traced run (cpe_eval's default):
 * a mid-run stats reset breaks the interval-sum ground truth.
 */
std::vector<std::string> validateRun(const TraceRun &run);

/**
 * Headline numbers plus a stall-cause breakdown for one run:
 * {"run", "workload", "config", "cycles", "insts", "ipc", "events",
 *  "dropped", "stalls": {cause: count, ...}}.
 */
Json summarizeRun(const TraceRun &run);

/** Render summarizeRun() output as the table `cpe_trace summary`
 *  prints. */
std::string summaryTable(const Json &summary);

/** What hotReport() aggregates by. */
enum class HotBy { Pc, Line };

/**
 * Rank PCs (HotBy::Pc) or cache lines (HotBy::Line) by stall events
 * attributed to them and render the top @p top_n as a table.  Per PC
 * the stall metric is port conflicts plus commit stalls; per line it
 * is miss traffic (MSHR allocations), evictions, and store-reject
 * commit stalls — the events that carry a line address.
 */
std::string hotReport(const TraceRun &run, unsigned top_n, HotBy by);

/**
 * Per-L1D-set conflict traffic as CSV (set,accesses columns depend on
 * what the trace carries: misses started, fills, evictions).  Needs
 * the run_begin geometry ("l1d_sets"/"line_bytes"); throws ConfigError
 * when the trace predates it.
 */
std::string heatmapCsv(const TraceRun &run);

/** The `cpe_trace` CLI: validate | summary | hot | heatmap. */
int traceMain(int argc, char **argv);

} // namespace cpe::obs

#endif // CPE_OBS_ANALYSIS_HH
