/**
 * @file
 * In-memory span log for the traced benchmark run.
 *
 * A span is one call into a simulator layer, timed from the
 * benchmark's own code: layer, name, start, end, the span that caused
 * it, and the thread that ran it.  Spans are appended to a vector under
 * a mutex and written out only when the run ends, so recording costs
 * one clock read per edge and a few locked steps per span.  When the
 * log is disarmed or paused a Scope reads no clock at all.
 */

#ifndef CPEBENCH_SPANS_HH
#define CPEBENCH_SPANS_HH

#include <atomic>
#include <chrono>
#include <cstdint>
#include <map>
#include <mutex>
#include <string>
#include <vector>

namespace cpebench {

using Clock = std::chrono::steady_clock;

/** Seconds between two steady-clock points. */
inline double
seconds(Clock::time_point from, Clock::time_point to)
{
    return std::chrono::duration<double>(to - from).count();
}

struct Span
{
    std::uint32_t id = 0;
    std::uint32_t parent = 0; ///< 0 = root
    std::uint32_t thread = 0; ///< small per-thread index
    const char *layer = "";
    const char *name = "";
    std::int64_t startNs = 0; ///< relative to the log's epoch
    std::int64_t endNs = 0;
};

class SpanLog
{
  public:
    explicit SpanLog(bool armed) : armed_(armed), epoch_(Clock::now()) {}

    /**
     * Pause or resume recording on an armed log; a paused log behaves
     * like a disarmed one.  Change it only while no Scope is open on
     * another thread.
     */
    void setRecording(bool on) { recording_.store(on); }

    /**
     * RAII span.  Nested Scopes on one thread parent automatically; a
     * Scope opened on another thread names its parent explicitly.
     */
    class Scope
    {
      public:
        Scope(SpanLog &log, const char *layer, const char *name,
              std::uint32_t parent = kInherit);
        ~Scope();

        Scope(const Scope &) = delete;
        Scope &operator=(const Scope &) = delete;

        std::uint32_t id() const { return span_.id; }

        static constexpr std::uint32_t kInherit = ~0u;

      private:
        SpanLog &log_;
        bool active_;
        Span span_;
        std::uint32_t savedCurrent_ = 0;
    };

    /** Every recorded span, in completion order. */
    std::vector<Span> spans() const;

    /**
     * Self time per layer, seconds: each span's duration minus the part
     * of it that its children's intervals cover.
     */
    std::map<std::string, double> selfSecondsByLayer() const;

    /** Write one JSON object per span to @p path; false on I/O error. */
    bool writeJsonl(const std::string &path) const;

  private:
    std::int64_t nowNs() const;
    std::uint32_t threadIndex();

    const bool armed_;
    std::atomic<bool> recording_{true};
    Clock::time_point epoch_;
    mutable std::mutex mutex_;
    std::vector<Span> spans_;
    std::uint32_t nextId_ = 1;
    std::map<std::uint64_t, std::uint32_t> threads_;
};

} // namespace cpebench

#endif // CPEBENCH_SPANS_HH
