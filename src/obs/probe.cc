#include "obs/probe.hh"

#include "obs/profiler.hh"
#include "obs/tracer.hh"

namespace cpe::obs {

void
Probe::route(const Event &event)
{
    if (tracer_ && isTraced(event.kind))
        tracer_->record(event);
    if (profiler_)
        profiler_->count(event);
}

void
Probe::interval(const Json &record)
{
    if (tracer_)
        tracer_->emitInterval(record);
}

void
Probe::beginMeasurement()
{
    if (profiler_)
        profiler_->reset();
}

} // namespace cpe::obs
