/**
 * @file
 * Figure 11: area of RegLess configurations (128..2048 OSU entries),
 * normalized to the 2048-entry baseline register file, split into
 * logic, storage, and compressor components. Pure area model, no
 * simulation.
 */

#include "figures/figures.hh"

#include "energy/area_model.hh"
#include "sim/experiment.hh"

namespace regless::figures
{

void
genFig11Area(FigureContext &ctx)
{
    const double baseline = energy::plainRfArea(2048).total();

    sim::TableWriter table(ctx.out, {{"capacity", 10, 0},
                                     {"logic", 9},
                                     {"storage", 9},
                                     {"compressor", 12},
                                     {"total", 9}});
    table.header();
    for (unsigned cap : {128u, 192u, 256u, 384u, 512u, 1024u, 2048u}) {
        energy::AreaBreakdown b = energy::reglessArea(cap);
        table.row({static_cast<double>(cap), b.logic / baseline,
                   b.storage / baseline, b.compressor / baseline,
                   b.total() / baseline});
    }
    ctx.out << "# paper: RegLess-512 total ~0.3x of baseline RF area\n";
}

} // namespace regless::figures
