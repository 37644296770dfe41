/**
 * @file
 * Lightweight statistics primitives used by every hardware model.
 *
 * Modelled loosely on gem5's stats package: named scalar counters,
 * distributions, and fixed-window time series, grouped per component and
 * dumpable as text. All stats are plain doubles/integers; no sampling
 * happens unless the owning model calls the accessors.
 */

#ifndef REGLESS_COMMON_STATS_HH
#define REGLESS_COMMON_STATS_HH

#include <cstdint>
#include <map>
#include <ostream>
#include <string>
#include <vector>

#include "common/types.hh"

namespace regless
{

/** Monotonically increasing event counter. */
class Counter
{
  public:
    Counter() = default;

    void operator++() { ++_value; }
    void operator++(int) { ++_value; }
    void operator+=(std::uint64_t delta) { _value += delta; }

    std::uint64_t value() const { return _value; }
    void reset() { _value = 0; }

  private:
    std::uint64_t _value = 0;
};

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

    void reset();

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

    Cycle period() const { return _period; }
    const std::vector<double> &points() const { return _points; }

    /** Mean of all completed window totals. */
    double meanPerWindow() const;

    void reset();

  private:
    Cycle _period;
    Cycle _windowStart = 0;
    double _accum = 0.0;
    bool _open = false;
    std::vector<double> _points;
};

/**
 * Named bag of counters and distributions owned by one component.
 * Components create stats up front and hold references; the group owns
 * storage and provides dumping.
 */
class StatGroup
{
  public:
    explicit StatGroup(std::string name) : _name(std::move(name)) {}

    StatGroup(const StatGroup &) = delete;
    StatGroup &operator=(const StatGroup &) = delete;

    /** Create (or fetch) a named counter. */
    Counter &counter(const std::string &stat_name);

    /**
     * Read registered counter @a stat_name. Every read goes through
     * here, not counter(), so a misspelled name panics instead of
     * creating a silent zero.
     */
    std::uint64_t value(const std::string &stat_name) const;

    /** Create (or fetch) a named distribution. */
    Distribution &distribution(const std::string &stat_name);

    const std::string &name() const { return _name; }

    /** Write "group.stat value" lines for every registered stat. */
    void dump(std::ostream &os) const;

  private:
    std::string _name;
    std::map<std::string, Counter> _counters;
    std::map<std::string, Distribution> _distributions;
};

/** Geometric mean of a vector of strictly positive values. */
double geomean(const std::vector<double> &values);

} // namespace regless

#endif // REGLESS_COMMON_STATS_HH
