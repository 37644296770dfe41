/**
 * @file
 * Dominator, postdominator, reachability, and loop analyses over a
 * kernel's CFG. These feed the soft-definition detector (paper
 * Algorithm 2) and the invalidation-placement pass.
 */

#ifndef REGLESS_IR_CFG_ANALYSIS_HH
#define REGLESS_IR_CFG_ANALYSIS_HH

#include <cstdint>
#include <utility>
#include <vector>

#include "ir/kernel.hh"

namespace regless::ir
{

/** Dense bit set over block ids; small helper for dataflow fixpoints. */
class BlockSet
{
  public:
    explicit BlockSet(std::size_t num_blocks = 0, bool value = false)
        : _bits(num_blocks, value)
    {
    }

    bool test(BlockId id) const { return _bits[id]; }
    void set(BlockId id) { _bits[id] = true; }
    void clear(BlockId id) { _bits[id] = false; }
    std::size_t size() const { return _bits.size(); }

    /** this &= other; @return true when any bit changed. */
    bool intersectWith(const BlockSet &other);

    bool operator==(const BlockSet &other) const = default;

  private:
    std::vector<bool> _bits;
};

/**
 * Forward and reverse dominance over one kernel. Unreachable blocks are
 * reported as dominated by everything (the dataflow convention); callers
 * should filter on reachable().
 */
class CfgAnalysis
{
  public:
    explicit CfgAnalysis(const Kernel &kernel);

    /** @return true when control must pass @a a before reaching @a b. */
    bool dominates(BlockId a, BlockId b) const;

    /** @return true when control must pass @a a after leaving @a b. */
    bool postdominates(BlockId a, BlockId b) const;

    /** @return true when @a b is reachable from the entry block. */
    bool reachable(BlockId b) const { return _reachable.test(b); }

    /** @return true when edge from->to is a natural-loop back edge. */
    bool isBackEdge(BlockId from, BlockId to) const;

    /** All back edges (from, to) where to dominates from. */
    const std::vector<std::pair<BlockId, BlockId>> &
    backEdges() const
    {
        return _backEdges;
    }

    /**
     * Blocks in the natural loop of back edge (@a from, @a to): the set
     * of blocks that can reach @a from without passing through @a to,
     * plus the header @a to itself.
     */
    std::vector<BlockId> naturalLoop(BlockId from, BlockId to) const;

    /** @return true when @a b sits inside any natural loop. */
    bool inAnyLoop(BlockId b) const { return _inLoop.test(b); }

    /**
     * Immediate postdominator of @a b: the nearest strict
     * postdominator, used as the SIMT reconvergence point for branches
     * terminating @a b. Returns invalidBlock for exit blocks. A table
     * read: the constructor fills it for every block.
     */
    BlockId immediatePostdominator(BlockId b) const
    {
        return _ipdom.at(b);
    }

  private:
    void computeReachability();
    void computeDominators();
    void computePostdominators();
    void computeImmediatePostdominators();
    void findLoops();

    const Kernel &_kernel;
    std::vector<BlockSet> _dom;
    std::vector<BlockSet> _pdom;
    std::vector<BlockId> _ipdom;
    BlockSet _reachable;
    BlockSet _inLoop;
    std::vector<std::pair<BlockId, BlockId>> _backEdges;
};

} // namespace regless::ir

#endif // REGLESS_IR_CFG_ANALYSIS_HH
