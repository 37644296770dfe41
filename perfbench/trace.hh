/**
 * @file
 * Spans for the traced run. The benchmark records a span around each
 * call it makes into a layer of the simulator (its public entry
 * points); the program itself is not instrumented. Spans stay in
 * memory; per-layer numbers are read off them when the run ends.
 *
 * A disabled Tracer records nothing, so the same replay code runs
 * once untraced and once traced and the difference is the overhead.
 * Single-threaded: the traced replays run serially.
 */

#ifndef PERFBENCH_TRACE_HH
#define PERFBENCH_TRACE_HH

#include <cstdint>
#include <filesystem>
#include <string>
#include <vector>

namespace perfbench
{

class Tracer
{
  public:
    struct Span
    {
        const char *name;
        /** Index of the enclosing span, -1 for a root. */
        int parent;
        /** The job (root span) this span belongs to. */
        std::uint64_t job;
        double start;
        double end;
    };

    /** Closes its span when it goes out of scope. */
    class Scope
    {
      public:
        Scope(Tracer &tracer, const char *name);
        ~Scope();
        Scope(const Scope &) = delete;
        Scope &operator=(const Scope &) = delete;

      private:
        Tracer &_tracer;
        int _index;
    };

    explicit Tracer(bool enabled) : _enabled(enabled) {}

    bool enabled() const { return _enabled; }

    /** Start a new job: spans opened from now on carry its id. */
    void beginJob(std::uint64_t job) { _job = job; }

    /** Durations in seconds of every span named @a name. */
    std::vector<double> durations(const std::string &name) const;

    /** Write every span to @a path as a Chrome trace (chrome://tracing
     *  or Perfetto); a no-op for an empty path. */
    void write(const std::filesystem::path &path) const;

  private:
    bool _enabled;
    std::uint64_t _job = 0;
    int _open = -1;
    std::vector<Span> _spans;
};

} // namespace perfbench

#endif // PERFBENCH_TRACE_HH
