#include "trace.hh"

#include <cstdio>
#include <fstream>
#include <stdexcept>

#include "bench.hh"

namespace perfbench
{

Tracer::Scope::Scope(Tracer &tracer, const char *name)
    : _tracer(tracer), _index(-1)
{
    if (!tracer._enabled)
        return;
    _index = static_cast<int>(tracer._spans.size());
    tracer._spans.push_back(
        Span{name, tracer._open, tracer._job, now(), 0.0});
    tracer._open = _index;
}

Tracer::Scope::~Scope()
{
    if (_index < 0)
        return;
    Span &span = _tracer._spans[static_cast<std::size_t>(_index)];
    span.end = now();
    _tracer._open = span.parent;
}

std::vector<double>
Tracer::durations(const std::string &name) const
{
    std::vector<double> out;
    for (const Span &span : _spans) {
        if (name == span.name)
            out.push_back(span.end - span.start);
    }
    return out;
}

void
Tracer::write(const std::filesystem::path &path) const
{
    if (path.empty())
        return;
    std::ofstream out(path, std::ios::binary | std::ios::trunc);
    if (!out)
        throw std::runtime_error("cannot write spans to " + path.string());
    const double origin = _spans.empty() ? 0.0 : _spans.front().start;
    out << "{\"traceEvents\": [";
    for (std::size_t i = 0; i < _spans.size(); ++i) {
        const Span &span = _spans[i];
        char event[256];
        std::snprintf(event, sizeof(event),
                      "%s\n{\"name\": \"%s\", \"ph\": \"X\", \"pid\": 0, "
                      "\"tid\": 0, \"ts\": %.3f, \"dur\": %.3f, "
                      "\"args\": {\"job\": %llu, \"parent\": %d}}",
                      i ? "," : "", span.name,
                      (span.start - origin) * 1e6,
                      (span.end - span.start) * 1e6,
                      static_cast<unsigned long long>(span.job),
                      span.parent);
        out << event;
    }
    out << "\n]}\n";
}

} // namespace perfbench
