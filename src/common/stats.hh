/**
 * @file
 * Statistics primitives beyond plain counters.
 *
 * Each hardware model counts events in its own `struct Stats` of
 * integer fields, so every read of a counter is checked by the
 * compiler. What lives here is what a plain field cannot express: a
 * streaming distribution and a fixed-window time series. No sampling
 * happens unless the owning model calls the accessors.
 */

#ifndef REGLESS_COMMON_STATS_HH
#define REGLESS_COMMON_STATS_HH

#include <cstdint>
#include <vector>

#include "common/types.hh"

namespace regless
{

/**
 * Running distribution: tracks count, sum, min, max, and the sums needed
 * for a streaming standard deviation (Welford's algorithm).
 */
class Distribution
{
  public:
    /** Record one sample. */
    void sample(double value);

    std::uint64_t count() const { return _count; }
    double sum() const { return _sum; }
    double min() const { return _count ? _min : 0.0; }
    double max() const { return _count ? _max : 0.0; }
    double mean() const { return _count ? _sum / _count : 0.0; }

    /** Population standard deviation of the samples seen so far. */
    double stddev() const;

  private:
    std::uint64_t _count = 0;
    double _sum = 0.0;
    double _min = 0.0;
    double _max = 0.0;
    double _mean = 0.0;
    double _m2 = 0.0;
};

/**
 * Fixed-window time series: accumulates a value per window of @a period
 * cycles, recording one point per elapsed window. Used for the paper's
 * "per 100 cycles" plots (Figures 2 and 3).
 */
class WindowedSeries
{
  public:
    explicit WindowedSeries(Cycle period = 100) : _period(period) {}

    /** Add @a delta to the window containing @a now. */
    void record(Cycle now, double delta);

    /** Close any open window so points() reflects all recorded data. */
    void flush();

    const std::vector<double> &points() const { return _points; }

    /** Mean of all completed window totals. */
    double meanPerWindow() const;

  private:
    Cycle _period;
    Cycle _windowStart = 0;
    double _accum = 0.0;
    bool _open = false;
    std::vector<double> _points;
};

/** Geometric mean of a vector of strictly positive values. */
double geomean(const std::vector<double> &values);

} // namespace regless

#endif // REGLESS_COMMON_STATS_HH
