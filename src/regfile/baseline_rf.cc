#include "regfile/baseline_rf.hh"

#include <map>

namespace regless::regfile
{

BaselineRf::BaselineRf(Cycle window, unsigned num_banks,
                       Cycle collector_penalty)
    : _window(window),
      _numBanks(num_banks),
      _collectorPenalty(collector_penalty),
      _accessSeries(window)
{
}

Cycle
BaselineRf::operandDelay(const arch::Warp &warp,
                         const ir::Instruction &insn, Cycle now)
{
    (void)now;
    // An instruction's sources that map to the same bank serialise on
    // the bank's read port; operand collectors buffer the fetches, so
    // the penalty is configurable (and zero by default).
    if (insn.srcs().size() < 2)
        return 0;
    unsigned worst = 0;
    std::map<unsigned, unsigned> uses;
    for (RegId src : insn.srcs()) {
        unsigned bank = (warp.id() + src) % _numBanks;
        worst = std::max(worst, ++uses[bank]);
    }
    if (worst > 1) {
        ++_stats.bankConflicts;
        return (worst - 1) * _collectorPenalty;
    }
    return 0;
}

bool
BaselineRf::canIssue(const arch::Warp &, Cycle)
{
    return true;
}

void
BaselineRf::onIssue(const arch::Warp &warp, Pc, const ir::Instruction &insn,
                    Cycle now, Cycle)
{
    // Close working-set windows that have elapsed.
    while (now >= _windowStart + _window) {
        _workingSet.sample(static_cast<double>(_windowRegs.size()) *
                           regBytes);
        _windowRegs.clear();
        _windowStart += _window;
    }

    for (RegId src : insn.srcs()) {
        ++_stats.reads;
        _accessSeries.record(now, 1.0);
        _windowRegs.emplace(warp.id(), src);
    }
    if (insn.writesReg()) {
        ++_stats.writes;
        _accessSeries.record(now, 1.0);
        _windowRegs.emplace(warp.id(), insn.dst());
    }
}

double
BaselineRf::meanWorkingSetBytes()
{
    if (!_windowRegs.empty()) {
        _workingSet.sample(static_cast<double>(_windowRegs.size()) *
                           regBytes);
        _windowRegs.clear();
    }
    return _workingSet.mean();
}

void
BaselineRf::flushSeries()
{
    _accessSeries.flush();
}

} // namespace regless::regfile
