#include "energy/area_model.hh"

#include <cmath>

namespace regless::energy
{

AreaBreakdown
reglessArea(unsigned entries, bool with_compressor)
{
    const double ratio = static_cast<double>(entries) / 2048.0;
    AreaBreakdown area;
    area.storage = kStorageFraction * ratio * kReglessStorageOverhead;
    area.logic = kLogicFraction * std::pow(ratio, kLogicExponent);
    area.compressor = with_compressor ? kCompressorArea : 0.0;
    return area;
}

AreaBreakdown
plainRfArea(unsigned entries)
{
    const double ratio = static_cast<double>(entries) / 2048.0;
    AreaBreakdown area;
    area.storage = kStorageFraction * ratio;
    area.logic = kLogicFraction * std::pow(ratio, kLogicExponent);
    area.compressor = 0.0;
    return area;
}

} // namespace regless::energy
