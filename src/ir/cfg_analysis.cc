#include "ir/cfg_analysis.hh"

#include <deque>

#include "common/logging.hh"

namespace regless::ir
{

bool
BlockSet::intersectWith(const BlockSet &other)
{
    bool changed = false;
    for (std::size_t i = 0; i < _bits.size(); ++i) {
        if (_bits[i] && !other._bits[i]) {
            _bits[i] = false;
            changed = true;
        }
    }
    return changed;
}

CfgAnalysis::CfgAnalysis(const Kernel &kernel)
    : _kernel(kernel),
      _reachable(kernel.blocks().size()),
      _inLoop(kernel.blocks().size())
{
    computeReachability();
    computeDominators();
    computePostdominators();
    computeImmediatePostdominators();
    findLoops();
}

void
CfgAnalysis::computeReachability()
{
    std::deque<BlockId> work{0};
    _reachable.set(0);
    while (!work.empty()) {
        BlockId b = work.front();
        work.pop_front();
        for (BlockId s : _kernel.block(b).successors()) {
            if (!_reachable.test(s)) {
                _reachable.set(s);
                work.push_back(s);
            }
        }
    }
}

void
CfgAnalysis::computeDominators()
{
    const std::size_t n = _kernel.blocks().size();
    _dom.assign(n, BlockSet(n, true));
    _dom[0] = BlockSet(n, false);
    _dom[0].set(0);

    bool changed = true;
    while (changed) {
        changed = false;
        for (BlockId b = 1; b < n; ++b) {
            if (!_reachable.test(b))
                continue;
            BlockSet inter(n, true);
            bool any_pred = false;
            for (BlockId p : _kernel.block(b).predecessors()) {
                if (!_reachable.test(p))
                    continue;
                inter.intersectWith(_dom[p]);
                any_pred = true;
            }
            if (!any_pred)
                inter = BlockSet(n, false);
            inter.set(b);
            if (!(inter == _dom[b])) {
                _dom[b] = inter;
                changed = true;
            }
        }
    }
}

void
CfgAnalysis::computePostdominators()
{
    const std::size_t n = _kernel.blocks().size();
    // Virtual exit: every block with no successors postdominates itself
    // only; others intersect over successors.
    std::vector<bool> is_exit(n, false);
    for (BlockId b = 0; b < n; ++b)
        is_exit[b] = _kernel.block(b).successors().empty();

    _pdom.assign(n, BlockSet(n, true));
    for (BlockId b = 0; b < n; ++b) {
        if (is_exit[b]) {
            _pdom[b] = BlockSet(n, false);
            _pdom[b].set(b);
        }
    }

    bool changed = true;
    while (changed) {
        changed = false;
        // Iterate in reverse id order: blocks are laid out roughly in
        // program order, so this converges quickly.
        for (BlockId bi = n; bi-- > 0;) {
            if (is_exit[bi] || !_reachable.test(bi))
                continue;
            BlockSet inter(n, true);
            bool any_succ = false;
            for (BlockId s : _kernel.block(bi).successors()) {
                inter.intersectWith(_pdom[s]);
                any_succ = true;
            }
            if (!any_succ)
                inter = BlockSet(n, false);
            inter.set(bi);
            if (!(inter == _pdom[bi])) {
                _pdom[bi] = inter;
                changed = true;
            }
        }
    }
}

void
CfgAnalysis::computeImmediatePostdominators()
{
    // The nearest strict postdominator p of b: no other strict
    // postdominator q of b lies between b and p (p postdominates q).
    // Candidates are tried in block-id order and the first closest one
    // wins, which also fixes the answer for unreachable blocks, whose
    // postdominator sets are full.
    const std::size_t n = _kernel.blocks().size();
    _ipdom.assign(n, invalidBlock);
    for (BlockId b = 0; b < n; ++b) {
        const BlockSet &pdoms = _pdom[b];
        for (BlockId p = 0; p < n && _ipdom[b] == invalidBlock; ++p) {
            if (p == b || !pdoms.test(p))
                continue;
            bool closest = true;
            for (BlockId q = 0; q < n && closest; ++q) {
                if (q != b && q != p && pdoms.test(q) &&
                    _pdom[q].test(p)) {
                    closest = false;
                }
            }
            if (closest)
                _ipdom[b] = p;
        }
    }
}

void
CfgAnalysis::findLoops()
{
    for (const BasicBlock &bb : _kernel.blocks()) {
        if (!_reachable.test(bb.id()))
            continue;
        for (BlockId s : bb.successors()) {
            if (dominates(s, bb.id()))
                _backEdges.emplace_back(bb.id(), s);
        }
    }
    for (const auto &[from, to] : _backEdges) {
        for (BlockId b : naturalLoop(from, to))
            _inLoop.set(b);
    }
}

bool
CfgAnalysis::dominates(BlockId a, BlockId b) const
{
    return _dom.at(b).test(a);
}

bool
CfgAnalysis::postdominates(BlockId a, BlockId b) const
{
    return _pdom.at(b).test(a);
}

bool
CfgAnalysis::isBackEdge(BlockId from, BlockId to) const
{
    for (const auto &[f, t] : _backEdges) {
        if (f == from && t == to)
            return true;
    }
    return false;
}

std::vector<BlockId>
CfgAnalysis::naturalLoop(BlockId from, BlockId to) const
{
    const std::size_t n = _kernel.blocks().size();
    BlockSet in_loop(n);
    in_loop.set(to);
    std::deque<BlockId> work;
    if (!in_loop.test(from)) {
        in_loop.set(from);
        work.push_back(from);
    }
    while (!work.empty()) {
        BlockId b = work.front();
        work.pop_front();
        for (BlockId p : _kernel.block(b).predecessors()) {
            if (!in_loop.test(p)) {
                in_loop.set(p);
                work.push_back(p);
            }
        }
    }
    std::vector<BlockId> out;
    for (BlockId b = 0; b < n; ++b) {
        if (in_loop.test(b))
            out.push_back(b);
    }
    return out;
}

} // namespace regless::ir
