/**
 * @file
 * Direct, uncached experiment drivers for examples and tests, and the
 * table formatting shared by the figure generators behind
 * regless_report (see DESIGN.md §4).
 */

#ifndef REGLESS_SIM_EXPERIMENT_HH
#define REGLESS_SIM_EXPERIMENT_HH

#include <initializer_list>
#include <ostream>
#include <string>
#include <vector>

#include "ir/kernel.hh"
#include "sim/gpu_config.hh"
#include "sim/gpu_simulator.hh"
#include "sim/run_stats.hh"

namespace regless::sim
{

/** Run @a kernel under the canonical configuration for @a kind. */
RunStats runKernel(const ir::Kernel &kernel, ProviderKind kind);

/** Run @a kernel under an explicit configuration. */
RunStats runKernel(const ir::Kernel &kernel, const GpuConfig &config);

/**
 * Run @a kernel under RegLess with a specific OSU capacity (derives
 * matching compiler constraints).
 */
RunStats runRegless(const ir::Kernel &kernel, unsigned osu_entries);

/** Fixed-width left-aligned cell. */
std::string cell(const std::string &text, unsigned width);

/** Fixed-width numeric cell with @a digits decimals. */
std::string cell(double value, unsigned width, unsigned digits = 3);

/** Print a standard figure banner with the figure/table reference. */
void banner(std::ostream &os, const std::string &title,
            const std::string &paper_ref);

/** One column of a fixed-width text table. */
struct TableColumn
{
    std::string header;
    unsigned width;
    /** Decimals for numeric cells in this column. */
    unsigned digits = 3;
};

/** Heterogeneous table cell: text or a number. */
class TableCell
{
  public:
    TableCell(const char *text) : _kind(Kind::Text), _text(text) {}
    TableCell(std::string text)
        : _kind(Kind::Text), _text(std::move(text))
    {
    }
    TableCell(double value) : _kind(Kind::Number), _number(value) {}
    TableCell(unsigned value)
        : _kind(Kind::Number), _number(static_cast<double>(value))
    {
    }

    bool isText() const { return _kind == Kind::Text; }
    const std::string &text() const { return _text; }
    double number() const { return _number; }

  private:
    enum class Kind
    {
        Text,
        Number,
    } _kind;
    std::string _text;
    double _number = 0.0;
};

/**
 * Fixed-width table writer shared by every figure generator so data
 * rows, summary rows, and headers stay aligned (bench tables used to
 * hand-roll widths and drift — fig16's geomean rows were 24 wide
 * under an 18-wide header that named only one of four columns).
 */
class TableWriter
{
  public:
    TableWriter(std::ostream &os, std::vector<TableColumn> columns);

    /** Print the header row (every column's name). */
    void header() const;

    /**
     * Print one row. Fewer cells than columns leaves the tail empty;
     * more is fatal(). Numeric cells use their column's digits.
     */
    void row(std::initializer_list<TableCell> cells) const;

    /** row() for cell lists built at run time (e.g. one column per
     *  registered provider). */
    void row(const std::vector<TableCell> &cells) const;

  private:
    std::ostream &_os;
    std::vector<TableColumn> _columns;
};

/**
 * Labelled ratio series for geomean summaries. geomean() panic()s on
 * a non-positive sample with only the bare value; this wrapper checks
 * each sample as it is added and fatal()s naming the offending job
 * (kernel/variant) and metric instead, so a zero-cycle or zero-energy
 * run is diagnosable from the report output.
 */
class GeomeanSeries
{
  public:
    /** @param what Metric description, e.g. "fig16 runtime ratio". */
    explicit GeomeanSeries(std::string what);

    /** Record @a value for job @a label; fatal() unless 0 < value < inf. */
    void add(const std::string &label, double value);

    /** Geometric mean of all samples. */
    double value() const;

    std::size_t count() const { return _values.size(); }

  private:
    std::string _what;
    std::vector<double> _values;
};

} // namespace regless::sim

#endif // REGLESS_SIM_EXPERIMENT_HH
