#include "sim/experiment.hh"

#include <cmath>
#include <cstdio>
#include <iomanip>
#include <sstream>

#include "common/logging.hh"
#include "common/stats.hh"

namespace regless::sim
{

RunStats
runKernel(const ir::Kernel &kernel, ProviderKind kind)
{
    return runKernel(kernel, GpuConfig::forProvider(kind));
}

RunStats
runKernel(const ir::Kernel &kernel, const GpuConfig &config)
{
    GpuSimulator simulator(kernel, config);
    return simulator.run();
}

RunStats
runRegless(const ir::Kernel &kernel, unsigned osu_entries)
{
    GpuConfig config = GpuConfig::forProvider(ProviderKind::Regless);
    config.setOsuCapacity(osu_entries);
    return runKernel(kernel, config);
}

std::string
cell(const std::string &text, unsigned width)
{
    std::ostringstream oss;
    oss << std::left << std::setw(width) << text;
    return oss.str();
}

std::string
cell(double value, unsigned width, unsigned digits)
{
    std::ostringstream oss;
    oss << std::left << std::setw(width) << std::fixed
        << std::setprecision(digits) << value;
    return oss.str();
}

void
banner(std::ostream &os, const std::string &title,
       const std::string &paper_ref)
{
    os << "# " << title << "\n";
    os << "# Reproduces: " << paper_ref
       << " (RegLess, MICRO-50 2017)\n";
    os << "#" << std::string(70, '-') << "\n";
}

TableWriter::TableWriter(std::ostream &os,
                         std::vector<TableColumn> columns)
    : _os(os), _columns(std::move(columns))
{
}

void
TableWriter::header() const
{
    for (const TableColumn &column : _columns)
        _os << cell(column.header, column.width);
    _os << "\n";
}

void
TableWriter::row(std::initializer_list<TableCell> cells) const
{
    row(std::vector<TableCell>(cells));
}

void
TableWriter::row(const std::vector<TableCell> &cells) const
{
    if (cells.size() > _columns.size())
        fatal("table row has ", cells.size(), " cells but only ",
              _columns.size(), " columns");
    std::size_t i = 0;
    for (const TableCell &c : cells) {
        const TableColumn &column = _columns[i++];
        if (c.isText())
            _os << cell(c.text(), column.width);
        else
            _os << cell(c.number(), column.width, column.digits);
    }
    _os << "\n";
}

GeomeanSeries::GeomeanSeries(std::string what) : _what(std::move(what))
{
}

void
GeomeanSeries::add(const std::string &label, double value)
{
    if (!(value > 0.0) || !std::isfinite(value))
        fatal(_what, ": job '", label, "' produced degenerate value ",
              value,
              " — a zero-cycle or zero-energy run; rerun with"
              " --no-cache or delete its cache entry to re-simulate");
    _values.push_back(value);
}

double
GeomeanSeries::value() const
{
    return geomean(_values);
}

} // namespace regless::sim
