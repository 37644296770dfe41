#include "regfile/baseline_rf.hh"

namespace regless::regfile
{

BaselineRf::BaselineRf(Cycle window, unsigned num_banks,
                       Cycle collector_penalty)
    : _window(window),
      _numBanks(num_banks),
      _collectorPenalty(collector_penalty),
      _bankUses(num_banks, 0),
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
    for (RegId src : insn.srcs()) {
        unsigned bank = (warp.id() + src) % _numBanks;
        worst = std::max(worst, ++_bankUses[bank]);
    }
    for (RegId src : insn.srcs())
        _bankUses[(warp.id() + src) % _numBanks] = 0;
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
        closeWindow();
        _windowStart += _window;
    }

    for (RegId src : insn.srcs()) {
        ++_stats.reads;
        _accessSeries.record(now, 1.0);
        touch(warp.id(), src);
    }
    if (insn.writesReg()) {
        ++_stats.writes;
        _accessSeries.record(now, 1.0);
        touch(warp.id(), insn.dst());
    }
}

void
BaselineRf::touch(WarpId warp, RegId reg)
{
    if (warp >= _touchedIn.size())
        _touchedIn.resize(warp + 1);
    std::vector<std::uint64_t> &row = _touchedIn[warp];
    if (reg >= row.size())
        row.resize(reg + 1, 0);
    if (row[reg] != _windowId) {
        row[reg] = _windowId;
        ++_windowRegs;
    }
}

void
BaselineRf::closeWindow()
{
    _workingSet.sample(static_cast<double>(_windowRegs) * regBytes);
    _windowRegs = 0;
    ++_windowId;
}

double
BaselineRf::meanWorkingSetBytes()
{
    if (_windowRegs != 0)
        closeWindow();
    return _workingSet.mean();
}

void
BaselineRf::flushSeries()
{
    _accessSeries.flush();
}

} // namespace regless::regfile
