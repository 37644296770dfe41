#include "energy/energy_model.hh"

#include <cmath>

namespace regless::energy
{

double
accessEnergy(unsigned entries)
{
    return kRfAccess2048 *
           std::pow(static_cast<double>(entries) / 2048.0,
                    kCapacityExponent);
}

double
staticPower(unsigned entries)
{
    return kRfStatic2048PerCycle * static_cast<double>(entries) / 2048.0;
}

} // namespace regless::energy
