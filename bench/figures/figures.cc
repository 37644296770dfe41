#include "figures/figures.hh"

#include <ostream>

#include "common/flags.hh"
#include "common/sim_error.hh"
#include "sim/experiment.hh"

namespace regless::figures
{

// Generator functions, one translation unit per figure.
void genFig02WorkingSet(FigureContext &ctx);
void genFig03BackingStore(FigureContext &ctx);
void genFig05LivenessSeams(FigureContext &ctx);
void genFig11Area(FigureContext &ctx);
void genFig12Power(FigureContext &ctx);
void genFig13Pareto(FigureContext &ctx);
void genFig14RfEnergy(FigureContext &ctx);
void genFig15GpuEnergy(FigureContext &ctx);
void genFig16Runtime(FigureContext &ctx);
void genFig17PreloadLocation(FigureContext &ctx);
void genFig18L1Bandwidth(FigureContext &ctx);
void genFig19RegionRegisters(FigureContext &ctx);
void genTable1Config(FigureContext &ctx);
void genTable2RegionSizes(FigureContext &ctx);
void genAblationRegless(FigureContext &ctx);
void genAblationCompressor(FigureContext &ctx);
void genAblationStaticCompression(FigureContext &ctx);
void genAblationDivergence(FigureContext &ctx);
void genOversubscriptionSweep(FigureContext &ctx);
void genMultiSmScaling(FigureContext &ctx);
void genStallBreakdown(FigureContext &ctx);
void genProviderBakeoff(FigureContext &ctx);
void genMultiTenant(FigureContext &ctx);

const std::vector<Figure> &
allFigures()
{
    // Explicit table (no static registration) so the report order is
    // the paper's figure order and the linker can never drop one.
    static const std::vector<Figure> figures = {
        {"fig02_working_set",
         "Register working set per 100 cycles (KB)", "Figure 2",
         genFig02WorkingSet},
        {"fig03_backing_store",
         "Backing-store accesses per 100 cycles (hotspot)", "Figure 3",
         genFig03BackingStore},
        {"fig05_liveness_seams",
         "Live registers per static instruction (particle_filter)",
         "Figure 5", genFig05LivenessSeams},
        {"fig11_area", "Normalized area per OSU capacity", "Figure 11",
         genFig11Area},
        {"fig12_power",
         "Normalized register-structure power per OSU capacity",
         "Figure 12", genFig12Power},
        {"fig13_pareto", "Run time vs GPU energy per OSU capacity",
         "Figure 13", genFig13Pareto},
        {"fig14_rf_energy", "Normalized register-file energy",
         "Figure 14", genFig14RfEnergy},
        {"fig15_gpu_energy", "Normalized total GPU energy",
         "Figure 15", genFig15GpuEnergy},
        {"fig16_runtime", "Normalized run time (lower is better)",
         "Figure 16", genFig16Runtime},
        {"fig17_preload_location", "Preload source breakdown (%)",
         "Figure 17", genFig17PreloadLocation},
        {"fig18_l1_bandwidth", "RegLess L1 requests per cycle",
         "Figure 18", genFig18L1Bandwidth},
        {"fig19_region_registers", "Registers per region", "Figure 19",
         genFig19RegionRegisters},
        {"table1_config", "Simulation parameters", "Table 1",
         genTable1Config},
        {"table2_region_sizes", "Region sizes", "Table 2",
         genTable2RegionSizes},
        {"ablation_regless", "RegLess design ablations",
         "DESIGN.md section 5", genAblationRegless},
        {"ablation_compressor", "Compressor pattern-set ablation",
         "section 5.3 (the six value patterns)",
         genAblationCompressor},
        {"ablation_static_compression",
         "Static vs dynamic compression encodings + bank gating",
         "DESIGN.md section 14 (value-range analysis)",
         genAblationStaticCompression},
        {"ablation_divergence",
         "Soft-definition cost vs divergence degree",
         "section 4.4 / 6.4 (conservative liveness)",
         genAblationDivergence},
        {"oversubscription_sweep",
         "Register-file oversubscription sweep",
         "section 7 (RegLess needs no design change to oversubscribe)",
         genOversubscriptionSweep},
        {"multi_sm_scaling", "Multi-SM scaling with shared DRAM",
         "section 6.5 (RegLess adds no L2/DRAM pressure)",
         genMultiSmScaling},
        {"stall_breakdown", "Issue-slot stall attribution (%)",
         "DESIGN.md section 10 (one cause per slot)",
         genStallBreakdown},
        {"provider_bakeoff",
         "Provider bake-off: runtime / energy / area, all providers",
         "DESIGN.md section 13 (the provider registry)",
         genProviderBakeoff},
        {"multi_tenant",
         "Multi-tenant QoS: co-run slowdown, preemption, capacity "
         "policies",
         "DESIGN.md section 16 (concurrent kernel residency)",
         genMultiTenant},
    };
    return figures;
}

const Figure *
findFigure(const std::string &name)
{
    for (const Figure &figure : allFigures()) {
        if (name == figure.name)
            return &figure;
    }
    return nullptr;
}

void
runFigure(const Figure &figure, FigureContext &ctx)
{
    sim::banner(ctx.out, figure.title, figure.paperRef);
    try {
        figure.generate(ctx);
    } catch (const sim::SimError &e) {
        ctx.out << "# figure skipped: " << e.what() << "\n";
    }
}

ReportOptions
parseReportOptions(int argc, char **argv)
{
    ReportOptions options;
    for (int i = 1; i < argc; ++i) {
        const std::string arg = argv[i];
        auto value = [&]() -> std::string {
            if (i + 1 >= argc)
                throw FlagError("missing value for " + arg);
            return argv[++i];
        };
        if (arg == "--filter") {
            options.filters.push_back(value());
        } else if (arg == "--list") {
            options.list = true;
        } else if (arg == "--jobs") {
            options.jobs = flagNumber<unsigned>(arg, value());
        } else if (arg == "--json") {
            options.jsonPath = value();
        } else if (arg == "--no-cache") {
            options.cache = false;
        } else if (arg == "--cache-dir") {
            options.cacheDir = value();
        } else if (arg == "--lint") {
            options.lint = true;
        } else if (arg == "--max-cycles") {
            options.maxCycles = flagNumber<Cycle>(arg, value());
        } else if (arg == "--job-timeout") {
            options.jobTimeoutSec = flagNumber<double>(arg, value());
        } else if (arg == "--inject-deadlock") {
            options.injectDeadlock = true;
        } else {
            throw FlagError("unknown flag '" + arg + "'");
        }
    }
    return options;
}

sim::ExperimentEngine::Options
engineOptions(const ReportOptions &options)
{
    sim::ExperimentEngine::Options engine;
    engine.jobs = options.jobs;
    engine.cacheDir = options.cache ? options.cacheDir : "";
    engine.lint = options.lint;
    engine.maxCycles = options.maxCycles;
    engine.jobTimeoutSec = options.jobTimeoutSec;
    return engine;
}

} // namespace regless::figures
