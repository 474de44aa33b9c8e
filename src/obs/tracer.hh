/**
 * @file
 * Cycle-level observability: a low-overhead structured event tracer.
 *
 * The Tracer is a consumer of the obs::Probe seam: model components
 * never see it.  When the run arms a trace, the probe hands it every
 * event whose kind is in the trace schema (isTraced()); events
 * accumulate in a ring and flush to the TraceSink in batches as JSONL
 * (one JSON object per line).
 *
 * Trace-file schema (see docs/observability.md for the full story):
 *
 *   {"t":"run_begin","r":0,"workload":...,"config":...,...}
 *   {"t":"ev","r":0,"s":<seq>,"c":<cycle>,"k":"<kind>"
 *       [,"pc":P][,"addr":A][,"a":N][,"b":M]}
 *   {"t":"interval","r":0,...}          (emitted via IntervalSampler)
 *   {"t":"run_end","r":0,...,"dropped":D,"stats":{...}}
 *
 * "r" is a per-sink run id: parallel sweeps share one FileTraceSink,
 * whose writes are mutex-serialized whole batches — events of one run
 * stay in order, and lines of different runs interleave at batch
 * granularity, each carrying its run id.
 */

#ifndef CPE_OBS_TRACER_HH
#define CPE_OBS_TRACER_HH

#include <cstdint>
#include <fstream>
#include <mutex>
#include <string>
#include <vector>

#include "obs/probe.hh"
#include "util/json.hh"
#include "util/types.hh"

namespace cpe::obs {

/** @return the stable trace-file name of @p kind (e.g. "sb_insert");
 *  "?" for the profile-only kinds. */
const char *eventKindName(EventKind kind);

/**
 * Destination for trace bytes.  write() must append the whole block
 * atomically with respect to other writers — that is the contract that
 * keeps parallel-sweep traces parseable line by line.
 */
class TraceSink
{
  public:
    virtual ~TraceSink() = default;

    /** Append @p size bytes (always whole JSONL lines). */
    virtual void write(const char *data, std::size_t size) = 0;

    /** Claim the next run id for a Tracer binding to this sink. */
    std::uint64_t claimRunId();

  private:
    std::mutex idMutex_;
    std::uint64_t nextRunId_ = 0;
};

/** Appends to a file; throws IoError if the path cannot be opened. */
class FileTraceSink : public TraceSink
{
  public:
    explicit FileTraceSink(const std::string &path);
    ~FileTraceSink() override;

    void write(const char *data, std::size_t size) override;

  private:
    std::string path_;
    std::ofstream out_;
    std::mutex mutex_;
};

/** Accumulates the trace in memory (tests). */
class StringTraceSink : public TraceSink
{
  public:
    void write(const char *data, std::size_t size) override;

    /** Everything written so far. */
    std::string text() const;

  private:
    mutable std::mutex mutex_;
    std::string text_;
};

/** Discards the trace, counting bytes (overhead benchmarks). */
class CountingTraceSink : public TraceSink
{
  public:
    void write(const char *, std::size_t size) override
    {
        std::lock_guard<std::mutex> lock(mutex_);
        bytes_ += size;
    }

    std::uint64_t bytes() const
    {
        std::lock_guard<std::mutex> lock(mutex_);
        return bytes_;
    }

  private:
    mutable std::mutex mutex_;
    std::uint64_t bytes_ = 0;
};

/**
 * Per-run event recorder.  One Tracer belongs to one simulation run
 * (single-threaded, like every other per-run structure); only the
 * sink is shared across runs.
 */
class Tracer
{
  public:
    /** Events buffered before a batch is flushed to the sink. */
    static constexpr std::size_t RingEvents = 4096;

    Tracer() = default;
    Tracer(const Tracer &) = delete;
    Tracer &operator=(const Tracer &) = delete;

    /**
     * Bind to @p sink and emit the run_begin line.  @p sample_cycles
     * is recorded in the header (0 = no interval sampling);
     * @p l1d_sets / @p line_bytes describe the traced cache's geometry
     * so offline tools can map addresses to sets (0 = unknown).
     */
    void beginRun(TraceSink *sink, const std::string &workload,
                  const std::string &config_tag, Cycle sample_cycles,
                  unsigned l1d_sets = 0, unsigned line_bytes = 0);

    /** @return true when bound to a sink (between beginRun and endRun). */
    bool active() const { return sink_ != nullptr; }

    /** Append @p event, numbering it (no-op unless active). */
    void
    record(Event event)
    {
        if (!sink_)
            return;
        event.seq = eventsRecorded_++;
        ring_.push_back(event);
        if (ring_.size() >= RingEvents)
            flush();
    }

    /**
     * Emit one interval record (flushes buffered events first so the
     * line lands after the events it summarizes).  @p record is the
     * IntervalSampler's payload; "t" and "r" are added here.
     */
    void emitInterval(const Json &record);

    /**
     * Flush and emit the run_end line carrying the run's headline
     * numbers and final per-stat totals (the interval sum check's
     * ground truth).
     */
    void endRun(Cycle cycles, std::uint64_t insts, double ipc,
                const Json &final_stats);

    /**
     * Events recorded but never written: a sink write failure discards
     * the in-flight batch (the run keeps going, the trace degrades).
     * Reported as the run_end footer's "dropped" field; `cpe_trace
     * validate` flags any nonzero value.
     */
    std::uint64_t eventsDropped() const { return eventsDropped_; }

    /** Write out any buffered events. */
    void flush();

  private:
    void writeAll(const std::string &text);

    TraceSink *sink_ = nullptr;
    std::uint64_t runId_ = 0;
    std::uint64_t eventsRecorded_ = 0;
    std::uint64_t eventsDropped_ = 0;
    std::vector<Event> ring_;
    std::string scratch_;  ///< reused batch-formatting buffer
};

} // namespace cpe::obs

#endif // CPE_OBS_TRACER_HH
