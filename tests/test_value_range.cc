/**
 * @file
 * Tests for the static value-range analysis (DESIGN.md §14): lattice
 * laws (join/widen properties on randomized elements), exact per-opcode
 * transfer functions, encoding classification and its runtime guard,
 * whole-kernel fixpoint facts on hand-built kernels, and the end-to-end
 * static/hybrid compression sweep over all Rodinia workloads — which
 * must be byte-deterministic and never let a value escape its proven
 * encoding.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <string>
#include <vector>

#include "compiler/compiler.hh"
#include "compiler/staging_checker.hh"
#include "compiler/value_range.hh"
#include "golden_runs.hh"
#include "regless/compressor.hh"
#include "regless/shadow_checker.hh"
#include "mem/memory_system.hh"
#include "sim/experiment.hh"
#include "sim/gpu_simulator.hh"
#include "workloads/kernel_builder.hh"
#include "workloads/rodinia.hh"

namespace regless
{
namespace
{

using compiler::classifyEncoding;
using compiler::encodingBytes;
using compiler::encodingHolds;
using compiler::encodingImplied;
using compiler::join;
using compiler::leq;
using compiler::StaticEncoding;
using compiler::transferInsn;
using compiler::ValueFacts;
using compiler::ValueRangeAnalysis;
using compiler::widen;
using workloads::KernelBuilder;

/* ---------------- lattice laws ---------------- */

/** Deterministic xorshift stream for randomized lattice elements. */
class FactsGen
{
  public:
    explicit FactsGen(std::uint64_t seed) : _state(seed | 1) {}

    std::uint64_t
    next()
    {
        _state ^= _state >> 12;
        _state ^= _state << 25;
        _state ^= _state >> 27;
        return _state * 0x2545f4914f6cdd1dULL;
    }

    ValueFacts
    facts()
    {
        switch (next() % 6) {
          case 0:
            return ValueFacts{};
          case 1:
            return ValueFacts::top();
          case 2:
            return ValueFacts::constant(
                static_cast<std::uint32_t>(next()));
          case 3: {
            std::uint32_t a = static_cast<std::uint32_t>(next());
            std::uint32_t b = static_cast<std::uint32_t>(next());
            return ValueFacts::range(std::min(a, b), std::max(a, b));
          }
          case 4:
            return ValueFacts::lanesAffine(
                static_cast<std::uint32_t>(next() % 9));
          default: {
            // Small ranges exercise the interval logic near-degenerate.
            std::uint32_t lo = static_cast<std::uint32_t>(next() % 256);
            return ValueFacts::range(lo, lo + next() % 16);
          }
        }
    }

  private:
    std::uint64_t _state;
};

TEST(ValueFactsLattice, JoinIsCommutativeAndAnUpperBound)
{
    FactsGen gen(17);
    for (int i = 0; i < 2000; ++i) {
        const ValueFacts a = gen.facts();
        const ValueFacts b = gen.facts();
        const ValueFacts j = join(a, b);
        EXPECT_EQ(j, join(b, a))
            << a.toString() << " vs " << b.toString();
        EXPECT_TRUE(leq(a, j))
            << a.toString() << " not <= " << j.toString();
        EXPECT_TRUE(leq(b, j))
            << b.toString() << " not <= " << j.toString();
    }
}

TEST(ValueFactsLattice, JoinIsIdempotentWithBottomIdentity)
{
    FactsGen gen(99);
    for (int i = 0; i < 500; ++i) {
        const ValueFacts a = gen.facts();
        EXPECT_EQ(join(a, a), a) << a.toString();
        EXPECT_EQ(join(a, ValueFacts{}), a) << a.toString();
        EXPECT_EQ(join(ValueFacts{}, a), a) << a.toString();
    }
}

TEST(ValueFactsLattice, JoinIsMonotone)
{
    // leq(a, b) implies leq(join(a, c), join(b, c)).
    FactsGen gen(5);
    unsigned ordered_pairs = 0;
    for (int i = 0; i < 4000; ++i) {
        const ValueFacts a = gen.facts();
        const ValueFacts b = gen.facts();
        const ValueFacts c = gen.facts();
        if (!leq(a, b))
            continue;
        ++ordered_pairs;
        EXPECT_TRUE(leq(join(a, c), join(b, c)))
            << a.toString() << " <= " << b.toString() << " but join with "
            << c.toString() << " is not monotone";
    }
    // The generator produces bottoms/tops, so order pairs must occur.
    EXPECT_GT(ordered_pairs, 100u);
}

TEST(ValueFactsLattice, WideningIsAnUpperBoundAndTerminates)
{
    FactsGen gen(23);
    for (int seq = 0; seq < 200; ++seq) {
        ValueFacts w = gen.facts();
        unsigned changes = 0;
        for (int step = 0; step < 1000; ++step) {
            const ValueFacts next = gen.facts();
            const ValueFacts widened = widen(w, join(w, next));
            EXPECT_TRUE(leq(w, widened));
            EXPECT_TRUE(leq(next, widened)) << "widen lost "
                                            << next.toString();
            if (widened != w)
                ++changes;
            w = widened;
        }
        // Each bound can only blow to its extreme once and the shape
        // can only be dropped once: every ascending chain is short.
        EXPECT_LE(changes, 4u) << "widening chain did not stabilize";
    }
}

/* ---------------- per-opcode transfers ---------------- */

ir::Instruction
insn(ir::Opcode op, std::vector<RegId> srcs, std::int64_t imm = 0)
{
    return ir::Instruction(op, 0, std::move(srcs), imm);
}

TEST(ValueRangeTransfer, ConstantsAndMoves)
{
    ValueFacts f = transferInsn(insn(ir::Opcode::MovImm, {}, 42), {});
    EXPECT_TRUE(f.isConstant());
    EXPECT_EQ(f.lo, 42u);
    EXPECT_TRUE(f.uniform());

    ValueFacts src = ValueFacts::range(3, 9);
    EXPECT_EQ(transferInsn(insn(ir::Opcode::Mov, {1}), {src}), src);
}

TEST(ValueRangeTransfer, ThreadAndBlockIndices)
{
    ValueFacts tid = transferInsn(insn(ir::Opcode::Tid, {}), {});
    EXPECT_TRUE(tid.affine);
    EXPECT_EQ(tid.stride, 1u);
    EXPECT_FALSE(tid.uniform());

    ValueFacts cta = transferInsn(insn(ir::Opcode::CtaId, {}), {});
    EXPECT_TRUE(cta.uniform());
}

TEST(ValueRangeTransfer, AdditionIsExactOnConstantsAndStrides)
{
    ValueFacts sum =
        transferInsn(insn(ir::Opcode::IAdd, {1, 2}),
                     {ValueFacts::constant(10), ValueFacts::range(1, 5)});
    EXPECT_EQ(sum.lo, 11u);
    EXPECT_EQ(sum.hi, 15u);

    // tid + uniform keeps the lane stride.
    ValueFacts strided =
        transferInsn(insn(ir::Opcode::IAdd, {1, 2}),
                     {ValueFacts::lanesAffine(1), ValueFacts::constant(8)});
    EXPECT_TRUE(strided.affine);
    EXPECT_EQ(strided.stride, 1u);

    ValueFacts imm =
        transferInsn(insn(ir::Opcode::IAddImm, {1}, 7),
                     {ValueFacts::constant(1)});
    EXPECT_TRUE(imm.isConstant());
    EXPECT_EQ(imm.lo, 8u);
}

TEST(ValueRangeTransfer, SubtractionAndMultiplication)
{
    ValueFacts sub =
        transferInsn(insn(ir::Opcode::ISub, {1, 2}),
                     {ValueFacts::lanesAffine(4), ValueFacts::lanesAffine(1)});
    EXPECT_TRUE(sub.affine);
    EXPECT_EQ(sub.stride, 3u);

    ValueFacts mul =
        transferInsn(insn(ir::Opcode::IMul, {1, 2}),
                     {ValueFacts::range(2, 3), ValueFacts::constant(5)});
    EXPECT_EQ(mul.lo, 10u);
    EXPECT_EQ(mul.hi, 15u);

    // Scaling an affine value scales the stride (tid * 4).
    ValueFacts scaled =
        transferInsn(insn(ir::Opcode::IMulImm, {1}, 4),
                     {ValueFacts::lanesAffine(1)});
    EXPECT_TRUE(scaled.affine);
    EXPECT_EQ(scaled.stride, 4u);

    ValueFacts mad = transferInsn(
        insn(ir::Opcode::IMad, {1, 2, 3}),
        {ValueFacts::constant(3), ValueFacts::constant(4),
         ValueFacts::constant(5)});
    EXPECT_TRUE(mad.isConstant());
    EXPECT_EQ(mad.lo, 17u);
}

TEST(ValueRangeTransfer, ShiftsWithConstantAmounts)
{
    ValueFacts shl =
        transferInsn(insn(ir::Opcode::Shl, {1, 2}),
                     {ValueFacts::range(1, 4), ValueFacts::constant(2)});
    EXPECT_EQ(shl.lo, 4u);
    EXPECT_EQ(shl.hi, 16u);

    ValueFacts shr =
        transferInsn(insn(ir::Opcode::Shr, {1, 2}),
                     {ValueFacts::range(16, 64), ValueFacts::constant(4)});
    EXPECT_EQ(shr.lo, 1u);
    EXPECT_EQ(shr.hi, 4u);

    // Unknown shift amount: no interval claim survives.
    ValueFacts unknown =
        transferInsn(insn(ir::Opcode::Shl, {1, 2}),
                     {ValueFacts::range(1, 4), ValueFacts::range(0, 3)});
    EXPECT_TRUE(unknown.isTop());
}

TEST(ValueRangeTransfer, BitwiseOpsBoundTheResult)
{
    ValueFacts band =
        transferInsn(insn(ir::Opcode::And, {1, 2}),
                     {ValueFacts::top(), ValueFacts::constant(0xff)});
    EXPECT_EQ(band.lo, 0u);
    EXPECT_EQ(band.hi, 0xffu);

    ValueFacts bor =
        transferInsn(insn(ir::Opcode::Or, {1, 2}),
                     {ValueFacts::range(8, 15), ValueFacts::range(1, 3)});
    EXPECT_GE(bor.lo, 8u);
    EXPECT_LE(bor.hi, 15u); // 0b1111 is the covering mask

    ValueFacts bxor =
        transferInsn(insn(ir::Opcode::Xor, {1, 2}),
                     {ValueFacts::range(0, 5), ValueFacts::range(0, 9)});
    EXPECT_EQ(bxor.lo, 0u);
    EXPECT_LE(bxor.hi, 15u);
}

TEST(ValueRangeTransfer, MinMaxAndPredicates)
{
    ValueFacts imin =
        transferInsn(insn(ir::Opcode::IMin, {1, 2}),
                     {ValueFacts::range(4, 10), ValueFacts::range(6, 8)});
    EXPECT_EQ(imin.lo, 4u);
    EXPECT_EQ(imin.hi, 8u);

    ValueFacts imax =
        transferInsn(insn(ir::Opcode::IMax, {1, 2}),
                     {ValueFacts::range(4, 10), ValueFacts::range(6, 8)});
    EXPECT_EQ(imax.lo, 6u);
    EXPECT_EQ(imax.hi, 10u);

    for (ir::Opcode op : {ir::Opcode::SetLt, ir::Opcode::SetGe,
                          ir::Opcode::SetEq, ir::Opcode::SetNe}) {
        ValueFacts p = transferInsn(
            insn(op, {1, 2}), {ValueFacts::top(), ValueFacts::top()});
        EXPECT_EQ(p.lo, 0u);
        EXPECT_EQ(p.hi, 1u);
    }
}

TEST(ValueRangeTransfer, SelectHullsArmsAndDropsDivergentShape)
{
    const ValueFacts a = ValueFacts::constant(2);
    const ValueFacts b = ValueFacts::constant(7);

    ValueFacts uniform_sel = transferInsn(
        insn(ir::Opcode::Selp, {1, 2, 3}),
        {a, b, ValueFacts::constant(1)});
    EXPECT_EQ(uniform_sel.lo, 2u);
    EXPECT_EQ(uniform_sel.hi, 7u);

    ValueFacts divergent_sel = transferInsn(
        insn(ir::Opcode::Selp, {1, 2, 3}),
        {a, b, ValueFacts::range(0, 1)});
    EXPECT_FALSE(divergent_sel.affine)
        << "lanes may mix both arms; uniformity must not survive";
}

TEST(ValueRangeTransfer, LoadsAndFloatsYieldTop)
{
    EXPECT_TRUE(transferInsn(insn(ir::Opcode::LdGlobal, {1}, 0),
                             {ValueFacts::constant(0x1000)})
                    .isTop());
    EXPECT_TRUE(transferInsn(insn(ir::Opcode::LdShared, {1}, 0),
                             {ValueFacts::constant(16)})
                    .isTop());
    ValueFacts fadd =
        transferInsn(insn(ir::Opcode::FAdd, {1, 2}),
                     {ValueFacts::range(0, 8), ValueFacts::range(0, 8)});
    EXPECT_EQ(fadd.lo, 0u);
    EXPECT_EQ(fadd.hi, 0xffffffffu);
    // All-uniform float inputs still broadcast.
    ValueFacts funi =
        transferInsn(insn(ir::Opcode::FMul, {1, 2}),
                     {ValueFacts::constant(3), ValueFacts::constant(4)});
    EXPECT_TRUE(funi.uniform());

    EXPECT_TRUE(transferInsn(insn(ir::Opcode::Rcp, {1}),
                             {ValueFacts::range(0, 4)})
                    .hi == 0xffffffffu);
}

/* ---------------- encodings ---------------- */

TEST(StaticEncodingTest, ClassificationPicksTheStrongestProvenForm)
{
    EXPECT_EQ(classifyEncoding(ValueFacts::constant(5)),
              StaticEncoding::UniformScalar);
    EXPECT_EQ(classifyEncoding(ValueFacts::lanesAffine(0)),
              StaticEncoding::UniformScalar);
    EXPECT_EQ(classifyEncoding(ValueFacts::range(0, 0xffff)),
              StaticEncoding::NarrowWidth);
    EXPECT_EQ(classifyEncoding(ValueFacts::range(0xffff8000u,
                                                 0xffffffffu)),
              StaticEncoding::SignCompressed);
    EXPECT_EQ(classifyEncoding(ValueFacts::top()), StaticEncoding::None);
    EXPECT_EQ(classifyEncoding(ValueFacts{}), StaticEncoding::None);
}

TEST(StaticEncodingTest, ClassifiedEncodingIsAlwaysImplied)
{
    FactsGen gen(31);
    for (int i = 0; i < 2000; ++i) {
        const ValueFacts f = gen.facts();
        EXPECT_TRUE(encodingImplied(classifyEncoding(f), f))
            << f.toString();
    }
}

TEST(StaticEncodingTest, RuntimeGuardAgreesWithTheFacts)
{
    // Lanes drawn from inside the facts must pass the runtime guard of
    // any encoding those facts imply.
    ir::LaneValues uniform{};
    uniform.fill(123);
    EXPECT_TRUE(encodingHolds(StaticEncoding::UniformScalar, uniform));
    EXPECT_TRUE(encodingHolds(StaticEncoding::NarrowWidth, uniform));

    ir::LaneValues divergent{};
    for (unsigned i = 0; i < warpSize; ++i)
        divergent[i] = i;
    EXPECT_FALSE(encodingHolds(StaticEncoding::UniformScalar, divergent));
    EXPECT_TRUE(encodingHolds(StaticEncoding::NarrowWidth, divergent));

    ir::LaneValues wide{};
    wide.fill(0x12345678u);
    EXPECT_FALSE(encodingHolds(StaticEncoding::NarrowWidth, wide));

    ir::LaneValues negatives{};
    negatives.fill(0xfffffff0u); // -16
    EXPECT_TRUE(encodingHolds(StaticEncoding::SignCompressed, negatives));
    EXPECT_FALSE(encodingHolds(StaticEncoding::SignCompressed, wide));

    EXPECT_TRUE(encodingHolds(StaticEncoding::None, wide));
}

TEST(StaticEncodingTest, BytesMatchTheLineBudget)
{
    EXPECT_EQ(encodingBytes(StaticEncoding::UniformScalar), 4u);
    EXPECT_EQ(encodingBytes(StaticEncoding::NarrowWidth),
              warpSize * 2u);
    EXPECT_EQ(encodingBytes(StaticEncoding::SignCompressed),
              warpSize * 2u);
    EXPECT_EQ(encodingBytes(StaticEncoding::None), regBytes);
}

/* ---------------- whole-kernel fixpoint ---------------- */

TEST(ValueRangeAnalysisTest, StraightLineFactsAreExact)
{
    KernelBuilder b("straight");
    RegId t = b.tid();
    RegId c = b.movi(100);
    RegId d = b.iaddi(c, 20);
    RegId addr = b.imuli(t, 4);
    b.st(d, addr);
    const compiler::KernelAnalyses a(b.build());

    // Find the store and ask for the operand facts right before it.
    for (Pc pc = 0; pc < a.kernel.numInsns(); ++pc) {
        if (a.kernel.insn(pc).op() != ir::Opcode::StGlobal)
            continue;
        const ValueFacts &data = a.vra.before(pc, d);
        EXPECT_TRUE(data.isConstant());
        EXPECT_EQ(data.lo, 120u);
        const ValueFacts &af = a.vra.before(pc, addr);
        EXPECT_TRUE(af.affine);
        EXPECT_EQ(af.stride, 4u);
        return;
    }
    FAIL() << "no store found";
}

TEST(ValueRangeAnalysisTest, BranchMergeJoinsBothArms)
{
    // if (tid < c) x = 1; else x = 5;  =>  x in [1, 5] at the merge.
    KernelBuilder b("diamond");
    RegId t = b.tid();
    RegId lim = b.movi(16);
    RegId p = b.setLt(t, lim);
    RegId x = b.movi(0);
    workloads::Label then_arm = b.newLabel();
    workloads::Label merged = b.newLabel();
    b.braIf(p, then_arm);
    b.moviTo(x, 5);
    b.jmp(merged);
    b.bind(then_arm);
    b.moviTo(x, 1);
    b.bind(merged);
    b.st(x, b.imuli(t, 4));
    const compiler::KernelAnalyses a(b.build());

    for (Pc pc = 0; pc < a.kernel.numInsns(); ++pc) {
        if (a.kernel.insn(pc).op() != ir::Opcode::StGlobal)
            continue;
        const ValueFacts &f = a.vra.before(pc, x);
        ASSERT_FALSE(f.isBottom());
        // Both arms execute under a partial mask, so each write merges
        // with the initial broadcast (Warp::writeReg keeps inactive
        // lanes): the merge hulls {0, 1, 5}, not just the two arms.
        EXPECT_EQ(f.lo, 0u);
        EXPECT_EQ(f.hi, 5u);
        // The branch is tid-dependent: lanes can take different arms,
        // so uniformity must not survive into the merge.
        EXPECT_FALSE(f.uniform());
        return;
    }
    FAIL() << "no store found";
}

TEST(ValueRangeAnalysisTest, LoopWidensInsteadOfDiverging)
{
    // i starts at 0 and increments per iteration: the back-edge join
    // produces an ever-growing interval, so the fixpoint must widen to
    // terminate while staying sound (every value i takes is covered).
    KernelBuilder b("loop");
    RegId t = b.tid();
    RegId i = b.movi(0);
    RegId lim = b.movi(64);
    workloads::Label head = b.newLabel();
    b.bind(head);
    b.iaddiTo(i, i, 1);
    RegId p = b.setLt(i, lim);
    b.braIf(p, head);
    b.st(i, b.imuli(t, 4));
    const compiler::KernelAnalyses a(b.build());

    for (Pc pc = 0; pc < a.kernel.numInsns(); ++pc) {
        if (a.kernel.insn(pc).op() != ir::Opcode::StGlobal)
            continue;
        const ValueFacts &f = a.vra.before(pc, i);
        ASSERT_FALSE(f.isBottom());
        // Soundness: the counter reaches at least 64 before the loop
        // exits, so the widened interval must cover it. (Uniformity is
        // conservatively dropped: the loop body sits in the back-edge
        // branch's divergence region, so its defs are treated as
        // masked writes.)
        EXPECT_EQ(f.lo, 0u);
        EXPECT_GE(f.hi, 64u);
        return;
    }
    FAIL() << "no store found";
}

TEST(ValueRangeAnalysisTest, StraightLineKernelsRunFullMask)
{
    KernelBuilder b("flat");
    b.st(b.movi(1), b.imuli(b.tid(), 4));
    const compiler::KernelAnalyses a(b.build());
    for (const ir::BasicBlock &bb : a.kernel.blocks())
        EXPECT_TRUE(a.vra.fullMaskBlock(bb.id()));
}

TEST(ValueRangeAnalysisTest, FactsFlowThroughEachBlock)
{
    // Only block-entry states are kept and a query replays its block:
    // what one instruction leaves is what the next one sees.
    for (const std::string &name : workloads::rodiniaNames()) {
        const compiler::KernelAnalyses a(workloads::makeRodinia(name));
        for (const ir::BasicBlock &bb : a.kernel.blocks()) {
            for (Pc pc = bb.firstPc(); pc < bb.lastPc(); ++pc) {
                for (RegId r = 0; r < a.kernel.numRegs(); ++r) {
                    const ValueFacts left = a.vra.after(pc, r);
                    const ValueFacts seen = a.vra.before(pc + 1, r);
                    ASSERT_TRUE(left == seen)
                        << name << " pc " << pc << " r" << r << ": "
                        << left.toString() << " vs " << seen.toString();
                }
            }
        }
    }
}

TEST(ValueRangeAnalysisTest, KernelWideTableCoversEveryDef)
{
    // staticEncodings() must be sound for ANY def's value, because the
    // compressor evicts at reclaim time with no region context: a
    // register holding a narrow constant in one block and a load result
    // in another must demote to None.
    KernelBuilder b("mixed");
    RegId t = b.tid();
    RegId x = b.movi(3); // narrow here...
    b.st(x, b.imuli(t, 4));
    b.ldTo(x, b.imuli(t, 4)); // ...but arbitrary here
    b.st(x, b.imuli(t, 8));
    ir::Kernel k = b.build();
    compiler::CompiledKernel ck = compiler::compile(std::move(k));
    EXPECT_EQ(ck.staticEncodings()[x], StaticEncoding::None);
}

/* ---------------- compressor static path ---------------- */

TEST(CompressorStaticTest, StaticHitsSkipTheMatcherAndGuardUnsound)
{
    mem::MemorySystem mem;
    staging::CompressorConfig ccfg;
    staging::Compressor comp(ccfg, mem, 0x6000'0000, 64);
    std::vector<StaticEncoding> table(16, StaticEncoding::None);
    table[3] = StaticEncoding::UniformScalar;
    comp.setStaticEncodings(staging::CompressionMode::Static, &table);

    ir::LaneValues uniform{};
    uniform.fill(77);
    staging::Compressor::EvictResult hit =
        comp.compressEvict(0, 3, uniform, 0);
    EXPECT_TRUE(hit.compressed);
    EXPECT_TRUE(hit.staticHit);
    EXPECT_FALSE(hit.unsound);

    // The lane guard rejects values that escape the proof: the line
    // goes incompressible instead of mis-decoding.
    ir::LaneValues divergent{};
    for (unsigned i = 0; i < warpSize; ++i)
        divergent[i] = i * 1000;
    staging::Compressor::EvictResult escape =
        comp.compressEvict(0, 3, divergent, 0);
    EXPECT_FALSE(escape.compressed);
    EXPECT_TRUE(escape.unsound);

    // Static mode never invokes the runtime matcher on None.
    ir::LaneValues constant{};
    constant.fill(9);
    EXPECT_FALSE(comp.compressEvict(0, 5, constant, 0).compressed);
}

TEST(CompressorStaticTest, HybridFallsBackToTheMatcher)
{
    mem::MemorySystem mem;
    staging::CompressorConfig ccfg;
    staging::Compressor comp(ccfg, mem, 0x6000'0000, 64);
    std::vector<StaticEncoding> table(16, StaticEncoding::None);
    table[3] = StaticEncoding::UniformScalar;
    comp.setStaticEncodings(staging::CompressionMode::Hybrid, &table);

    // Escapes the static proof but matches the dynamic stride pattern:
    // hybrid mode recovers it.
    ir::LaneValues stride{};
    for (unsigned i = 0; i < warpSize; ++i)
        stride[i] = 100 + i;
    staging::Compressor::EvictResult r =
        comp.compressEvict(0, 3, stride, 0);
    EXPECT_TRUE(r.compressed);
    EXPECT_TRUE(r.unsound);
    EXPECT_FALSE(r.staticHit);

    // No static encoding at all: plain dynamic matching.
    ir::LaneValues constant{};
    constant.fill(4);
    EXPECT_TRUE(comp.compressEvict(0, 5, constant, 0).compressed);
}

/* ---------------- finding codes ---------------- */

bool
hasCode(const std::vector<compiler::Finding> &findings, const char *code)
{
    return std::any_of(findings.begin(), findings.end(),
                       [&](const compiler::Finding &f) {
                           return f.code == code;
                       });
}

compiler::CompiledKernel
rebuild(const compiler::CompiledKernel &ck,
        std::vector<compiler::Region> regions)
{
    return compiler::CompiledKernel(ck.kernel(), std::move(regions),
                                    ck.lifetimeStats(),
                                    ck.metadataInsns());
}

/**
 * Forge @a enc onto the first evicted register whose value facts
 * do NOT imply it. @return the mutated region list, empty if no
 * eligible site exists in @a ck.
 */
std::vector<compiler::Region>
forgeEncoding(const compiler::CompiledKernel &ck, StaticEncoding enc)
{
    const ValueRangeAnalysis &vra =
        ck.analyses().vra;
    auto regions = ck.regions();
    for (compiler::Region &region : regions) {
        for (const auto &[pc, regs] : region.evicts) {
            for (RegId r : regs) {
                if (encodingImplied(enc, vra.after(pc, r)))
                    continue;
                region.encodings[r] = enc;
                return regions;
            }
        }
    }
    return {};
}

TEST(ValueRangeLint, ForgedNarrowEncodingIsUnsound)
{
    // "Widen a constant past its proven range": claim 16 bits for a
    // register whose facts do not bound it.
    compiler::CompiledKernel ck =
        compiler::compile(workloads::makeRodinia("hotspot"));
    auto regions = forgeEncoding(ck, StaticEncoding::NarrowWidth);
    ASSERT_FALSE(regions.empty()) << "no unprovable evict site";
    std::vector<compiler::Finding> findings =
        compiler::checkValueRanges(rebuild(ck, std::move(regions)));
    EXPECT_TRUE(hasCode(findings, compiler::codes::encodingUnsound))
        << compiler::formatFindings(findings);
    EXPECT_TRUE(compiler::hasErrors(findings));
}

TEST(ValueRangeLint, ForgedUniformEncodingIsUnsound)
{
    // "Flip a uniform broadcast to divergent": claim lane-uniformity
    // for a register the analysis cannot prove uniform.
    compiler::CompiledKernel ck =
        compiler::compile(workloads::makeRodinia("srad_v2"));
    auto regions = forgeEncoding(ck, StaticEncoding::UniformScalar);
    ASSERT_FALSE(regions.empty()) << "no divergent evict site";
    std::vector<compiler::Finding> findings = compiler::lintCompiledKernel(
        rebuild(ck, std::move(regions)));
    EXPECT_TRUE(hasCode(findings, compiler::codes::encodingUnsound))
        << compiler::formatFindings(findings);
}

TEST(ValueRangeLint, EncodingWithoutAnEvictPointIsUnsound)
{
    compiler::CompiledKernel ck =
        compiler::compile(workloads::makeRodinia("nn"));
    auto regions = ck.regions();
    // Record an encoding for a register the region never evicts.
    for (compiler::Region &region : regions) {
        bool evicted0 = false;
        for (const auto &[pc, regs] : region.evicts)
            evicted0 = evicted0 || std::count(regs.begin(), regs.end(),
                                              RegId{0});
        if (evicted0)
            continue;
        region.encodings[0] = StaticEncoding::UniformScalar;
        std::vector<compiler::Finding> findings =
            compiler::checkValueRanges(rebuild(ck, std::move(regions)));
        EXPECT_TRUE(hasCode(findings, compiler::codes::encodingUnsound))
            << compiler::formatFindings(findings);
        return;
    }
    FAIL() << "every region evicts r0?";
}

TEST(ValueRangeLint, AdvisoryWarningsAreOptIn)
{
    // Recorded encodings prove narrow footprints, yet every staged
    // line still claims 128 bytes: with --advisory that is a
    // bank-overclaim Warning; by default the lint stays silent.
    for (const std::string &name : workloads::rodiniaNames()) {
        compiler::CompiledKernel ck =
            compiler::compile(workloads::makeRodinia(name));
        bool any = false;
        for (const compiler::Region &region : ck.regions())
            any = any || !region.encodings.empty();
        if (!any)
            continue;
        std::vector<compiler::Finding> advisory =
            compiler::checkValueRanges(ck, /*advisory=*/true);
        EXPECT_TRUE(hasCode(advisory, compiler::codes::bankOverclaim))
            << name;
        EXPECT_FALSE(compiler::hasErrors(advisory)) << name;
        std::vector<compiler::Finding> silent =
            compiler::checkValueRanges(ck);
        EXPECT_TRUE(silent.empty())
            << name << ": " << compiler::formatFindings(silent);
        return;
    }
    FAIL() << "no Rodinia kernel records any static encoding";
}

TEST(ValueRangeLint, PreloadedConstantIsAdvisedDead)
{
    compiler::CompiledKernel ck =
        compiler::compile(workloads::makeRodinia("nn"));
    const ValueRangeAnalysis &vra =
        ck.analyses().vra;
    auto regions = ck.regions();
    // Forge a preload of a register that provably holds a compile-time
    // constant at the region entry: the staged line is pure waste.
    for (compiler::Region &region : regions) {
        for (RegId r = 0; r < ck.kernel().numRegs(); ++r) {
            if (!vra.before(region.startPc, r).isConstant())
                continue;
            region.preloads.push_back(compiler::Preload{r, false});
            std::vector<compiler::Finding> findings =
                compiler::checkValueRanges(
                    rebuild(ck, std::move(regions)), /*advisory=*/true);
            EXPECT_TRUE(
                hasCode(findings, compiler::codes::deadStagedLine))
                << compiler::formatFindings(findings);
            return;
        }
    }
    GTEST_SKIP() << "no provably constant register at a region entry";
}

TEST(ShadowCheckerTest, UnsoundEncodingEscapeIsARuntimeViolation)
{
    compiler::CompiledKernel ck =
        compiler::compile(workloads::makeRodinia("nn"));
    staging::ShadowChecker checker(ck);
    EXPECT_TRUE(checker.violations().empty());
    checker.onEncodingUnsound(2, 7);
    ASSERT_EQ(checker.violations().size(), 1u);
    EXPECT_EQ(checker.violations().front().code,
              compiler::codes::rtEncodingUnsound);
    // Dedup: the same (warp-independent) escape reports once.
    checker.onEncodingUnsound(2, 7);
    EXPECT_EQ(checker.violations().size(), 1u);
}

/* ---------------- end-to-end static compression ---------------- */

class StaticCompressionSweep
    : public ::testing::TestWithParam<std::string>
{
};

TEST_P(StaticCompressionSweep, NeverEscapesItsProofOnRodinia)
{
    // The kernel-wide encoding table joins facts over every def site,
    // so no evicted value — at any reclaim time — may escape its
    // encoding: zero unsound events and zero runtime violations, in
    // both static-only and hybrid modes.
    for (staging::CompressionMode mode :
         {staging::CompressionMode::Static,
          staging::CompressionMode::Hybrid}) {
        sim::GpuConfig cfg =
            sim::GpuConfig::forProvider(sim::ProviderKind::Regless);
        cfg.regless.compressionMode = mode;
        cfg.regless.runtimeCheck = true;
        cfg.setOsuCapacity(256); // pressure: reclaim-time evictions
        sim::GpuSimulator gpu(workloads::makeRodinia(GetParam()), cfg);
        sim::RunStats stats = gpu.run();
        EXPECT_EQ(stats.compressorStaticUnsound, 0u)
            << GetParam() << " mode "
            << static_cast<int>(mode);
        EXPECT_TRUE(gpu.runtimeViolations().empty()) << GetParam();
    }
}

INSTANTIATE_TEST_SUITE_P(
    AllKernels, StaticCompressionSweep,
    ::testing::ValuesIn(workloads::rodiniaNames()),
    [](const ::testing::TestParamInfo<std::string> &info) {
        std::string name = info.param;
        for (char &c : name) {
            if (!isalnum(static_cast<unsigned char>(c)))
                c = '_';
        }
        return name;
    });

TEST(StaticCompressionTest, StaticModeIsByteDeterministic)
{
    for (const std::string &name : {std::string("hotspot"),
                                    std::string("backprop")}) {
        sim::GpuConfig cfg =
            sim::GpuConfig::forProvider(sim::ProviderKind::Regless);
        cfg.regless.compressionMode = staging::CompressionMode::Hybrid;

        sim::RunStats first =
            sim::runKernel(workloads::makeRodinia(name), cfg);
        sim::RunStats second =
            sim::runKernel(workloads::makeRodinia(name), cfg);
        EXPECT_TRUE(first == second) << name;

        // And invariant under event-driven cycle skipping.
        sim::GpuConfig no_skip = cfg;
        no_skip.sm.cycleSkip = false;
        sim::RunStats unskipped = testutil::withoutSkipMeta(
            sim::runKernel(workloads::makeRodinia(name), no_skip));
        EXPECT_TRUE(testutil::withoutSkipMeta(first) == unskipped)
            << name;
    }
}

TEST(StaticCompressionTest, ModeAndGatingAreFingerprinted)
{
    sim::GpuConfig cfg =
        sim::GpuConfig::forProvider(sim::ProviderKind::Regless);
    const std::uint64_t base = sim::configFingerprint(cfg);

    sim::GpuConfig st = cfg;
    st.regless.compressionMode = staging::CompressionMode::Static;
    sim::GpuConfig hy = cfg;
    hy.regless.compressionMode = staging::CompressionMode::Hybrid;
    sim::GpuConfig ng = cfg;
    ng.regless.bankGating = false;

    EXPECT_NE(sim::configFingerprint(st), base);
    EXPECT_NE(sim::configFingerprint(hy), base);
    EXPECT_NE(sim::configFingerprint(hy), sim::configFingerprint(st));
    EXPECT_NE(sim::configFingerprint(ng), base);
}

TEST(BankGatingTest, GatedCyclesAccrueAndCutStaticEnergy)
{
    ir::Kernel kernel = workloads::makeRodinia("nn");
    sim::GpuConfig on =
        sim::GpuConfig::forProvider(sim::ProviderKind::Regless);
    sim::GpuConfig off = on;
    off.regless.bankGating = false;

    sim::RunStats gated = sim::runKernel(kernel, on);
    sim::RunStats ungated = sim::runKernel(workloads::makeRodinia("nn"),
                                           off);
    EXPECT_GT(gated.osuGatedBankCycles, 0u);
    EXPECT_EQ(ungated.osuGatedBankCycles, 0u);
    // Gating is an observability knob, not a timing one.
    EXPECT_EQ(gated.cycles, ungated.cycles);

    sim::computeEnergy(gated, on);
    sim::computeEnergy(ungated, off);
    EXPECT_LT(gated.energy.regStatic, ungated.energy.regStatic);
    EXPECT_EQ(gated.energy.regDynamic, ungated.energy.regDynamic);
}

} // namespace
} // namespace regless
