/**
 * @file
 * Pipeline viewer: a text timeline of every warp's capacity-manager
 * state over time — the paper's Figure 9 state machine, animated.
 * Each row is one warp, each column a sampling interval:
 *
 *   . inactive    p preloading    A active    d draining    # done
 *
 *   ./build/examples/pipeline_viewer [benchmark] [sample_cycles]
 */

#include <iostream>
#include <string>
#include <vector>

#include "common/flags.hh"
#include "regless/regless_provider.hh"
#include "sim/gpu_simulator.hh"
#include "workloads/rodinia.hh"

using namespace regless;

namespace
{

char
glyph(staging::CmState state)
{
    switch (state) {
      case staging::CmState::Inactive: return '.';
      case staging::CmState::Preloading: return 'p';
      case staging::CmState::Active: return 'A';
      case staging::CmState::Draining: return 'd';
      case staging::CmState::Done: return '#';
    }
    return '?';
}

} // namespace

int
runExample(int argc, char **argv)
{
    std::string name = argc > 1 ? argv[1] : "srad_v1";
    unsigned sample =
        argc > 2 ? flagNumber<unsigned>("sample_cycles", argv[2]) : 64;

    sim::GpuConfig cfg =
        sim::GpuConfig::forProvider(sim::ProviderKind::Regless);
    sim::GpuSimulator g(workloads::makeRodinia(name), cfg);
    auto &rp = static_cast<staging::ReglessProvider &>(g.provider());
    auto &sm = g.sm();

    std::vector<std::string> rows(cfg.sm.numWarps);
    std::vector<double> occupancy;
    while (!sm.done() && sm.now() < 2'000'000) {
        for (unsigned i = 0; i < sample && !sm.done(); ++i)
            sm.step();
        for (WarpId w = 0; w < cfg.sm.numWarps; ++w)
            rows[w].push_back(
                glyph(rp.cm(w % staging::kNumShards).state(w)));
        unsigned lines = 0;
        for (unsigned s = 0; s < staging::kNumShards; ++s)
            lines += rp.osu(s).occupiedLines();
        occupancy.push_back(
            100.0 * lines /
            static_cast<double>(rp.config().osuEntriesPerSm));
    }

    std::cout << "# " << name << ": warp states every " << sample
              << " cycles (" << sm.now() << " cycles total)\n";
    std::cout << "# . inactive  p preloading  A active  d draining  "
                 "# done\n\n";
    for (WarpId w = 0; w < cfg.sm.numWarps; ++w) {
        if (w % 4 == 0 && w > 0)
            std::cout << "\n";
        std::cout << (w < 10 ? "w " : "w") << w << " " << rows[w]
                  << "\n";
    }
    std::cout << "\nOSU occupancy (%):";
    for (double o : occupancy)
        std::cout << " " << static_cast<int>(o);
    std::cout << "\n";
    return 0;
}

int
main(int argc, char **argv)
{
    // Library code throws SimError; the example main is the
    // process-exit boundary.
    try {
        return runExample(argc, argv);
    } catch (const FlagError &e) {
        std::cerr << "fatal: " << e.what() << "\n";
        return 2;
    } catch (const std::exception &e) {
        std::cerr << "fatal: " << e.what() << "\n";
        return 1;
    }
}
