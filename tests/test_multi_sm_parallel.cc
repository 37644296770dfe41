/**
 * @file
 * Determinism tests for the parallel multi-SM executor: RunStats must
 * be bit-identical for any worker-thread count (threads == 1 is the
 * serial reference), across workloads and operand providers, and
 * run-to-run on randomized kernels. These are the invariants the
 * epoch-barrier scheme and the SM-id-ordered DRAM drain exist to
 * provide; see DESIGN.md "Parallel multi-SM execution".
 */

#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "common/rng.hh"
#include "common/thread_pool.hh"
#include "sim/multi_sm.hh"
#include "workloads/kernel_builder.hh"
#include "workloads/rodinia.hh"

namespace regless
{
namespace
{

struct MultiRunResult
{
    sim::RunStats total;
    std::vector<sim::RunStats> perSm;
};

MultiRunResult
runMulti(const ir::Kernel &kernel, sim::ProviderKind provider,
         unsigned sms, unsigned threads)
{
    sim::MultiSmSimulator multi(
        kernel, sim::GpuConfig::forProvider(provider), sms, threads);
    MultiRunResult result;
    result.total = multi.run();
    result.perSm = multi.perSm();
    return result;
}

/** Field-exact comparison with a readable failure message. */
void
expectIdentical(const MultiRunResult &ref, const MultiRunResult &got,
                const std::string &what)
{
    EXPECT_TRUE(ref.total == got.total)
        << what << ": aggregate stats diverged (cycles " << ref.total.cycles
        << " vs " << got.total.cycles << ", insns " << ref.total.insns
        << " vs " << got.total.insns << ", dram "
        << ref.total.dramAccesses << " vs " << got.total.dramAccesses
        << ")";
    ASSERT_EQ(ref.perSm.size(), got.perSm.size()) << what;
    for (std::size_t i = 0; i < ref.perSm.size(); ++i) {
        EXPECT_TRUE(ref.perSm[i] == got.perSm[i])
            << what << ": per-SM stats diverged for SM " << i;
    }
}

/** Threads never change results: the headline acceptance invariant. */
class ThreadCountInvariance
    : public ::testing::TestWithParam<
          std::tuple<std::string, sim::ProviderKind>>
{
};

TEST_P(ThreadCountInvariance, BitIdenticalAcrossThreadCounts)
{
    const auto &[name, provider] = GetParam();
    constexpr unsigned sms = 8;
    ir::Kernel kernel = workloads::makeRodinia(name);

    MultiRunResult serial = runMulti(kernel, provider, sms, 1);
    // 3 does not divide the 8 SMs: uneven home sets and steals.
    for (unsigned threads : {2u, 3u, 8u}) {
        MultiRunResult parallel =
            runMulti(kernel, provider, sms, threads);
        expectIdentical(serial, parallel,
                        name + " with " + std::to_string(threads) +
                            " threads");
    }
}

INSTANTIATE_TEST_SUITE_P(
    WorkloadsAndProviders, ThreadCountInvariance,
    ::testing::Combine(::testing::Values("nn", "bfs", "hotspot"),
                       ::testing::Values(sim::ProviderKind::Baseline,
                                         sim::ProviderKind::Regless)),
    [](const ::testing::TestParamInfo<
        std::tuple<std::string, sim::ProviderKind>> &info) {
        return std::get<0>(info.param) + "_" +
               sim::providerName(std::get<1>(info.param));
    });

TEST(MultiSmParallel, DefaultThreadCountMatchesSerial)
{
    ir::Kernel kernel = workloads::makeRodinia("nn");
    MultiRunResult serial =
        runMulti(kernel, sim::ProviderKind::Regless, 4, 1);
    // threads = 0 lets the simulator pick (hardware concurrency).
    MultiRunResult defaulted =
        runMulti(kernel, sim::ProviderKind::Regless, 4, 0);
    expectIdentical(serial, defaulted, "default thread count");
}

TEST(MultiSmParallel, ThreadOversubscriptionIsHarmless)
{
    ir::Kernel kernel = workloads::makeRodinia("bfs");
    MultiRunResult serial =
        runMulti(kernel, sim::ProviderKind::Baseline, 2, 1);
    // More threads than SMs: capped, still identical.
    MultiRunResult oversub =
        runMulti(kernel, sim::ProviderKind::Baseline, 2, 16);
    expectIdentical(serial, oversub, "16 threads on 2 SMs");
}

/**
 * Randomized stress: kernels synthesized with the builder DSL from a
 * seed. Exercises divergence, loops, loads/stores, and barrier-heavy
 * shapes the curated Rodinia set may miss.
 */
ir::Kernel
stressKernel(std::uint64_t seed)
{
    Rng rng(seed);
    workloads::KernelBuilder b("stress_" + std::to_string(seed));
    b.setWarpsPerBlock(4 + 4 * static_cast<unsigned>(rng.nextBelow(2)));

    RegId tid = b.tid();
    RegId addr = b.imuli(tid, 4);
    std::vector<RegId> pool{tid, addr};
    auto any = [&]() -> RegId {
        return pool[rng.nextBelow(pool.size())];
    };

    const unsigned segments = 2 + rng.nextBelow(3);
    for (unsigned seg = 0; seg < segments; ++seg) {
        switch (rng.nextBelow(4)) {
          case 0: {
            // Arithmetic chain to build register pressure.
            unsigned n = 3 + rng.nextBelow(5);
            for (unsigned i = 0; i < n; ++i)
                pool.push_back(rng.chance(0.5)
                                   ? b.iadd(any(), any())
                                   : b.imad(any(), any(), any()));
            break;
          }
          case 1: {
            // Strided global loads feeding an accumulator: DRAM
            // traffic, the state the epoch drain arbitrates.
            RegId masked = b.band(any(), b.movi(4095));
            RegId la = b.imuli(masked, 4);
            RegId v = b.ld(la, 1 << 16);
            RegId w = b.ld(la, (1 << 16) + (1 << 13));
            pool.push_back(b.iadd(v, w));
            b.st(pool.back(), addr, (2u << 20) + 8192 * seg);
            break;
          }
          case 2: {
            // Divergent diamond.
            RegId bit = b.band(tid, b.movi(1 + rng.nextBelow(7)));
            RegId p = b.setNe(bit, b.movi(0));
            workloads::Label else_l = b.newLabel();
            workloads::Label join = b.newLabel();
            RegId merged = b.reg();
            RegId np = b.setEq(p, b.movi(0));
            b.braIf(np, else_l);
            b.iaddTo(merged, any(), any());
            b.jmp(join);
            b.bind(else_l);
            b.iaddTo(merged, any(), b.movi(rng.nextRange(1, 40)));
            b.bind(join);
            pool.push_back(merged);
            break;
          }
          default: {
            // Counted loop with a load in the body.
            RegId acc = b.reg();
            b.movTo(acc, any());
            RegId i = b.reg();
            b.moviTo(i, 0);
            RegId limit = b.movi(2 + rng.nextBelow(5));
            workloads::Label head = b.newLabel();
            b.bind(head);
            RegId masked = b.band(acc, b.movi(2047));
            RegId la = b.imuli(masked, 4);
            b.iaddTo(acc, acc, b.ld(la, 1 << 18));
            b.iaddiTo(i, i, 1);
            RegId p = b.setLt(i, limit);
            b.braIf(p, head);
            pool.push_back(acc);
            break;
          }
        }
    }
    b.st(any(), addr, 3u << 20);
    return b.build();
}

class ParallelStress : public ::testing::TestWithParam<std::uint64_t>
{
};

TEST_P(ParallelStress, SameSeedSameStatsTwice)
{
    const std::uint64_t seed = GetParam();
    constexpr unsigned sms = 4;
    constexpr unsigned threads = 4;

    // Build the kernel twice from the seed too: the whole pipeline
    // (synthesis -> compile -> parallel execution) must be repeatable.
    MultiRunResult first = runMulti(stressKernel(seed),
                                    sim::ProviderKind::Regless, sms,
                                    threads);
    MultiRunResult second = runMulti(stressKernel(seed),
                                     sim::ProviderKind::Regless, sms,
                                     threads);
    expectIdentical(first, second,
                    "seed " + std::to_string(seed) + " re-run");

    MultiRunResult serial = runMulti(stressKernel(seed),
                                     sim::ProviderKind::Regless, sms, 1);
    expectIdentical(serial, first,
                    "seed " + std::to_string(seed) + " vs serial");
}

INSTANTIATE_TEST_SUITE_P(Seeds, ParallelStress,
                         ::testing::Range<std::uint64_t>(1, 9));

TEST(ThreadPoolTest, RunsEveryIndexExactlyOnce)
{
    // Counts around the pool size leave some workers with no home
    // item, or with one more than the others, so claims and steals
    // meet at every boundary of the home sets.
    constexpr int rounds = 50;
    for (unsigned size : {1u, 2u, 3u, 4u, 8u}) {
        ThreadPool pool(size);
        EXPECT_EQ(pool.size(), size);
        const std::size_t counts[] = {0,  1,  size - 1, size, size + 1,
                                      63, 64, 65,       103,  1000};
        for (std::size_t count : counts) {
            std::vector<std::atomic<int>> hits(count);
            for (auto &h : hits)
                h.store(0);
            for (int round = 0; round < rounds; ++round) {
                pool.parallelFor(count, [&](std::size_t i) {
                    hits[i].fetch_add(1, std::memory_order_relaxed);
                });
            }
            for (std::size_t i = 0; i < count; ++i) {
                EXPECT_EQ(hits[i].load(), rounds)
                    << "pool of " << size << ", " << count
                    << " items, index " << i;
            }
        }
    }
}

TEST(ThreadPoolTest, SingleThreadRunsInline)
{
    ThreadPool pool(1);
    EXPECT_EQ(pool.size(), 1u);
    std::thread::id self = std::this_thread::get_id();
    bool inline_everywhere = true;
    pool.parallelFor(17, [&](std::size_t) {
        if (std::this_thread::get_id() != self)
            inline_everywhere = false;
    });
    EXPECT_TRUE(inline_everywhere);
}

} // namespace
} // namespace regless
