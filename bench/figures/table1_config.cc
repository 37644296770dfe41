/**
 * @file
 * Table 1: the simulation parameters, echoed from the live
 * configuration objects so the table can never drift from the code.
 * No simulation.
 */

#include "figures/figures.hh"

#include "sim/experiment.hh"

namespace regless::figures
{

void
genTable1Config(FigureContext &ctx)
{
    sim::GpuConfig cfg =
        sim::GpuConfig::forProvider(sim::ProviderKind::Regless);

    ctx.out << "SMs modelled        1 in detail (shared-resource "
               "bandwidth scaled per 16-SM GPU)\n";
    ctx.out << "Warps per SM        " << cfg.sm.numWarps << ", "
            << cfg.sm.numSchedulers << " schedulers, issue width "
            << arch::kIssueWidth << "\n";
    ctx.out << "Warp scheduler      GTO\n";
    ctx.out << "L1 cache            " << cfg.mem.l1.sizeBytes / 1024
            << "KB, " << cfg.mem.l1.mshrs
            << " MSHRs, data accesses bypassed\n";
    ctx.out << "L1 bandwidth        one request per cycle\n";
    ctx.out << "L2 cache            "
            << cfg.mem.l2.sizeBytes / 1024 / 1024 << "MB, "
            << cfg.mem.dram.channels << " memory partitions\n";
    ctx.out << "DRAM                " << cfg.mem.dram.accessLatency
            << "-cycle latency, per-SM share "
            << cfg.mem.dram.bandwidthShare << "\n";
    ctx.out << "Baseline RF         " << cfg.baselineRfEntries
            << " entries ("
            << cfg.baselineRfEntries * regBytes / 1024 << "KB)\n";
    ctx.out << "RegLess OSU         " << cfg.regless.osuEntriesPerSm
            << " entries across " << staging::kNumShards
            << " shards of 8 banks\n";
    ctx.out << "Compressor          one read or write per cycle, "
            << cfg.regless.compressor.cacheLines
            << " lines internal storage per shard ("
            << cfg.regless.compressor.cacheLines * staging::kNumShards
            << " per SM)\n";
}

} // namespace regless::figures
