#include "spans.hh"

#include <algorithm>
#include <fstream>
#include <functional>
#include <thread>

namespace cpebench {

namespace {

/** The innermost open span on this thread (0 = none). */
thread_local std::uint32_t currentSpan = 0;

} // namespace

SpanLog::Scope::Scope(SpanLog &log, const char *layer, const char *name,
                      std::uint32_t parent)
    : log_(log), active_(log.armed_ && log.recording_.load())
{
    if (!active_)
        return;
    span_.layer = layer;
    span_.name = name;
    span_.parent = parent == kInherit ? currentSpan : parent;
    span_.thread = log_.threadIndex();
    {
        std::lock_guard<std::mutex> lock(log_.mutex_);
        span_.id = log_.nextId_++;
    }
    savedCurrent_ = currentSpan;
    currentSpan = span_.id;
    span_.startNs = log_.nowNs();
}

SpanLog::Scope::~Scope()
{
    if (!active_)
        return;
    span_.endNs = log_.nowNs();
    currentSpan = savedCurrent_;
    std::lock_guard<std::mutex> lock(log_.mutex_);
    log_.spans_.push_back(span_);
}

std::int64_t
SpanLog::nowNs() const
{
    return std::chrono::duration_cast<std::chrono::nanoseconds>(
               Clock::now() - epoch_)
        .count();
}

std::uint32_t
SpanLog::threadIndex()
{
    std::uint64_t key = std::hash<std::thread::id>{}(
        std::this_thread::get_id());
    std::lock_guard<std::mutex> lock(mutex_);
    auto [it, inserted] = threads_.emplace(
        key, static_cast<std::uint32_t>(threads_.size()));
    (void)inserted;
    return it->second;
}

std::vector<Span>
SpanLog::spans() const
{
    std::lock_guard<std::mutex> lock(mutex_);
    return spans_;
}

std::map<std::string, double>
SpanLog::selfSecondsByLayer() const
{
    std::vector<Span> all = spans();
    std::map<std::uint32_t, std::vector<std::pair<std::int64_t,
                                                  std::int64_t>>>
        children;
    for (const Span &span : all)
        if (span.parent)
            children[span.parent].emplace_back(span.startNs, span.endNs);

    std::map<std::string, double> self;
    for (const Span &span : all) {
        std::int64_t covered = 0;
        auto it = children.find(span.id);
        if (it != children.end()) {
            // Children on several threads may overlap: subtract the
            // union of their intervals, clipped to the parent.
            auto intervals = it->second;
            std::sort(intervals.begin(), intervals.end());
            std::int64_t runStart = 0, runEnd = -1;
            for (auto [start, end] : intervals) {
                start = std::max(start, span.startNs);
                end = std::min(end, span.endNs);
                if (end <= start)
                    continue;
                if (start > runEnd) {
                    if (runEnd > runStart)
                        covered += runEnd - runStart;
                    runStart = start;
                    runEnd = end;
                } else {
                    runEnd = std::max(runEnd, end);
                }
            }
            if (runEnd > runStart)
                covered += runEnd - runStart;
        }
        self[span.layer] +=
            static_cast<double>(span.endNs - span.startNs - covered) * 1e-9;
    }
    return self;
}

bool
SpanLog::writeJsonl(const std::string &path) const
{
    std::ofstream out(path);
    if (!out)
        return false;
    for (const Span &span : spans())
        out << "{\"id\":" << span.id << ",\"parent\":" << span.parent
            << ",\"thread\":" << span.thread << ",\"layer\":\""
            << span.layer << "\",\"name\":\"" << span.name
            << "\",\"start_ns\":" << span.startNs
            << ",\"end_ns\":" << span.endNs << "}\n";
    out.flush();
    return static_cast<bool>(out);
}

} // namespace cpebench
