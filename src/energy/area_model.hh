/**
 * @file
 * Area model for Figure 11: RegLess configurations normalized to the
 * 2048-entry baseline register file, split into storage, logic, and
 * compressor components as in the paper's placed-and-routed results.
 */

#ifndef REGLESS_ENERGY_AREA_MODEL_HH
#define REGLESS_ENERGY_AREA_MODEL_HH

namespace regless::energy
{

/** Area fractions relative to the baseline RF's total area. */
struct AreaBreakdown
{
    double storage = 0.0;
    double logic = 0.0;
    double compressor = 0.0;

    double total() const { return storage + logic + compressor; }
};

/** @name Analytical area model constants */
/// @{
/** Baseline RF area split (normalized to total = 1.0). */
inline constexpr double kStorageFraction = 0.78;
inline constexpr double kLogicFraction = 0.22;
/** Tag/queue logic scales sublinearly with capacity. */
inline constexpr double kLogicExponent = 0.9;
/** Fixed compressor area (all four shards), normalized. */
inline constexpr double kCompressorArea = 0.02;
/** Extra tag storage RegLess needs vs a plain RF of equal size. */
inline constexpr double kReglessStorageOverhead = 1.08;
/// @}

/** Area of a RegLess design with @a entries OSU registers. */
AreaBreakdown reglessArea(unsigned entries, bool with_compressor = true);

/** Area of a plain register file with @a entries registers. */
AreaBreakdown plainRfArea(unsigned entries);

} // namespace regless::energy

#endif // REGLESS_ENERGY_AREA_MODEL_HH
