#include "common/stats.hh"

#include <cmath>

#include "common/logging.hh"

namespace regless
{

void
Distribution::sample(double value)
{
    ++_count;
    _sum += value;
    if (_count == 1) {
        _min = _max = value;
    } else {
        if (value < _min)
            _min = value;
        if (value > _max)
            _max = value;
    }
    // Welford's online update.
    double delta = value - _mean;
    _mean += delta / static_cast<double>(_count);
    _m2 += delta * (value - _mean);
}

double
Distribution::stddev() const
{
    if (_count < 1)
        return 0.0;
    return std::sqrt(_m2 / static_cast<double>(_count));
}

void
WindowedSeries::record(Cycle now, double delta)
{
    if (!_open) {
        _windowStart = (now / _period) * _period;
        _open = true;
    }
    while (now >= _windowStart + _period) {
        _points.push_back(_accum);
        _accum = 0.0;
        _windowStart += _period;
    }
    _accum += delta;
}

void
WindowedSeries::flush()
{
    if (_open) {
        _points.push_back(_accum);
        _accum = 0.0;
        _open = false;
    }
}

double
WindowedSeries::meanPerWindow() const
{
    if (_points.empty())
        return 0.0;
    double total = 0.0;
    for (double p : _points)
        total += p;
    return total / static_cast<double>(_points.size());
}

double
geomean(const std::vector<double> &values)
{
    if (values.empty())
        return 0.0;
    double log_sum = 0.0;
    for (double v : values) {
        if (v <= 0.0)
            panic("geomean requires positive values, got ", v);
        log_sum += std::log(v);
    }
    return std::exp(log_sum / static_cast<double>(values.size()));
}

} // namespace regless
