/**
 * @file
 * Analytical energy model standing in for the paper's synthesized
 * Verilog + GPUWattch flow.
 *
 * All figures that use energy (12-15) compare configurations
 * *relative* to the baseline, so the model only needs consistent
 * per-access energies with capacity scaling, plus static power and a
 * rest-of-GPU component. Constants are calibrated so the baseline
 * register file is ~1/6 of total GPU energy — the paper's "No RF"
 * upper bound of 16.7%.
 */

#ifndef REGLESS_ENERGY_ENERGY_MODEL_HH
#define REGLESS_ENERGY_ENERGY_MODEL_HH

#include <cstdint>

#include "common/types.hh"

namespace regless::energy
{

/*
 * Model constants: the one fixed calibration every figure reads.
 * Units: pJ for energy, pJ/cycle for static power.
 */

/** Per-access energy of a 2048-entry (256 KB) register file. */
inline constexpr double kRfAccess2048 = 80.0;

/**
 * Capacity scaling: E(n) = kRfAccess2048 * (n / 2048)^k. Wire-
 * dominated arrays scale slightly superlinearly with capacity.
 */
inline constexpr double kCapacityExponent = 1.15;

/** Small CAM/SRAM side structures. */
inline constexpr double kTagAccess = 2.0;
inline constexpr double kRenameAccess = 12.0;
inline constexpr double kLrfAccess = 1.5;
inline constexpr double kOrfAccess = 4.0;
inline constexpr double kCompressorAccess = 3.0;

/** OSU tag/decode overhead vs a bare SRAM of equal capacity. */
inline constexpr double kOsuOverheadFactor = 1.15;

/** Memory-hierarchy access energies (per 128 B line). */
inline constexpr double kL1Access = 60.0;
inline constexpr double kL2Access = 240.0;
inline constexpr double kDramAccess = 2400.0;

/** Static (leakage + clock) power of the 2048-entry RF. */
inline constexpr double kRfStatic2048PerCycle = 20.0;
inline constexpr double kCompressorStaticPerCycle = 0.3;

/** Rest of the GPU: execution units, fetch/decode, networks. */
inline constexpr double kRestPerInsn = 480.0;
/** Fetch/decode-only cost of a RegLess metadata instruction. */
inline constexpr double kMetadataInsnEnergy = 120.0;
inline constexpr double kRestStaticPerCycle = 400.0;

/** Scaled per-access energy for an n-entry register structure. */
double accessEnergy(unsigned entries);

/** Scaled static power for an n-entry register structure. */
double staticPower(unsigned entries);

/** Energy totals for one simulated kernel run. */
struct EnergyBreakdown
{
    /** Dynamic energy of the register structures. */
    double regDynamic = 0.0;
    /** Static energy of the register structures. */
    double regStatic = 0.0;
    /** Compressor dynamic + static (RegLess only). */
    double compressor = 0.0;
    /** Memory hierarchy (L1 + L2 + DRAM). */
    double memory = 0.0;
    /** Rest of the GPU (EUs, fetch/decode incl. metadata, idle). */
    double rest = 0.0;

    /** Paper's "register file energy" (Figure 14). */
    double
    registerStructures() const
    {
        return regDynamic + regStatic + compressor;
    }

    /** Paper's "total GPU energy" (Figure 15). */
    double
    total() const
    {
        return registerStructures() + memory + rest;
    }

    bool operator==(const EnergyBreakdown &) const = default;
};

} // namespace regless::energy

#endif // REGLESS_ENERGY_ENERGY_MODEL_HH
