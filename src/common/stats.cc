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
Distribution::reset()
{
    *this = Distribution();
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

void
WindowedSeries::reset()
{
    _accum = 0.0;
    _open = false;
    _points.clear();
}

Counter &
StatGroup::counter(const std::string &stat_name)
{
    return _counters[stat_name];
}

std::uint64_t
StatGroup::value(const std::string &stat_name) const
{
    const auto it = _counters.find(stat_name);
    if (it == _counters.end())
        panic("stat group '", _name, "' has no counter '", stat_name,
              "'");
    return it->second.value();
}

Distribution &
StatGroup::distribution(const std::string &stat_name)
{
    return _distributions[stat_name];
}

void
StatGroup::dump(std::ostream &os) const
{
    for (const auto &[stat_name, ctr] : _counters)
        os << _name << "." << stat_name << " " << ctr.value() << "\n";
    for (const auto &[stat_name, dist] : _distributions) {
        os << _name << "." << stat_name << ".mean " << dist.mean() << "\n";
        os << _name << "." << stat_name << ".stddev " << dist.stddev()
           << "\n";
        os << _name << "." << stat_name << ".count " << dist.count() << "\n";
    }
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
