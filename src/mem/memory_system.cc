#include "mem/memory_system.hh"

#include <algorithm>

#include "common/logging.hh"

namespace regless::mem
{

namespace
{

/** Default synthetic value: a cheap address hash (incompressible). */
std::uint32_t
hashWord(Addr addr)
{
    std::uint64_t x = addr * 0x9e3779b97f4a7c15ull;
    x ^= x >> 29;
    x *= 0xbf58476d1ce4e5b9ull;
    x ^= x >> 32;
    return static_cast<std::uint32_t>(x);
}

/** No page's key (keys have bits 2-11 clear): forces a first lookup. */
constexpr Addr kNoPageKey = 0xffc;

} // namespace

MemorySystem::MemorySystem(const MemConfig &config)
    : MemorySystem(config, std::make_shared<DramModel>(config.dram))
{
}

MemorySystem::MemorySystem(const MemConfig &config,
                           std::shared_ptr<DramModel> shared_dram)
    : _cfg(config),
      _l1(config.l1),
      _l2(config.l2),
      _dram(std::move(shared_dram)),
      _valueGen(hashWord)
{
}

Cycle
MemorySystem::dramAccess(Addr addr, Cycle t)
{
    if (_dramPort == noDramPort)
        return _dram->access(addr, t);
    return _dram->portAccess(_dramPort, addr, t);
}

MemAccessResult
MemorySystem::accessL2(Addr addr, bool is_write, Cycle t)
{
    double start = std::max(static_cast<double>(t), _l2NextFree);
    _l2NextFree = start + kL2CyclesPerLine;
    Cycle start_cycle = static_cast<Cycle>(start);

    MemAccessResult result;
    CacheResult cr =
        _l2.access(addr, is_write, /*write_back_line=*/true, start_cycle);
    if (cr.rejected) {
        // Treat a full L2 MSHR file as extra DRAM latency rather than
        // propagating back-pressure two levels up.
        result.readyCycle = dramAccess(addr, start_cycle) + kL2Latency;
        result.source = MemSource::Dram;
        return result;
    }
    if (cr.writeback)
        dramAccess(cr.writebackAddr, start_cycle);
    if (cr.hit) {
        Cycle ready = start_cycle + kL2Latency;
        if (cr.mshrMerged)
            ready = std::max(ready, _l2.outstandingReady(addr));
        result.readyCycle = ready;
        result.source = MemSource::L2;
        return result;
    }
    // Miss: fetch the line from DRAM.
    Cycle dram_ready = dramAccess(addr, start_cycle + kL2Latency);
    _l2.fillComplete(addr, dram_ready);
    result.readyCycle = dram_ready;
    result.source = MemSource::Dram;
    return result;
}

MemAccessResult
MemorySystem::access(Addr addr, bool is_write, MemSpace space, Cycle now)
{
    MemAccessResult result = accessImpl(addr, is_write, space, now);
    // Injected lost response: the request was accepted and charged,
    // but its data never arrives, wedging the dependent warp behind a
    // scoreboard entry that never clears. The watchdog must catch it.
    if (_faults && result.accepted &&
        result.source == MemSource::Dram &&
        _faults->fire(FaultPlan::Kind::DropDramResponse, now)) {
        result.readyCycle = neverReady;
    }
    return result;
}

MemAccessResult
MemorySystem::accessImpl(Addr addr, bool is_write, MemSpace space,
                         Cycle now)
{
    MemAccessResult result;
    if (!l1PortFree(now)) {
        result.accepted = false;
        return result;
    }
    _l1NextFree = now + 1;

    if (space == MemSpace::Data) {
        if (_cfg.bypassL1Data)
            return accessL2(addr, is_write, now + kL1Latency);
        // Non-bypass mode: write-through, write-no-allocate L1.
        CacheResult cr = _l1.access(addr, is_write,
                                    /*write_back_line=*/false, now);
        if (cr.rejected) {
            result.accepted = false;
            return result;
        }
        if (is_write || !cr.hit) {
            MemAccessResult down = accessL2(addr, is_write, now + kL1Latency);
            if (!cr.hit)
                _l1.fillComplete(addr, down.readyCycle);
            return down;
        }
        Cycle ready = now + kL1Latency;
        if (cr.mshrMerged)
            ready = std::max(ready, _l1.outstandingReady(addr));
        result.readyCycle = ready;
        result.source = MemSource::L1;
        return result;
    }

    // Register space: cached in L1 with write-back lines and no
    // fetch-on-write (the preload guarantees full-line writes).
    CacheResult cr =
        _l1.access(addr, is_write, /*write_back_line=*/true, now);
    if (cr.rejected) {
        result.accepted = false;
        return result;
    }
    if (cr.writeback) {
        // Dirty register victim drains to L2.
        accessL2(cr.writebackAddr, /*is_write=*/true, now + kL1Latency);
    }
    if (cr.hit) {
        Cycle ready = now + kL1Latency;
        if (cr.mshrMerged)
            ready = std::max(ready, _l1.outstandingReady(addr));
        result.readyCycle = ready;
        result.source = MemSource::L1;
        return result;
    }
    if (is_write) {
        // Allocate-on-write without fetching the stale line.
        result.readyCycle = now + kL1Latency;
        result.source = MemSource::L1;
        return result;
    }
    MemAccessResult down = accessL2(addr, /*is_write=*/false,
                                    now + kL1Latency);
    _l1.fillComplete(addr, down.readyCycle);
    result.readyCycle = down.readyCycle;
    result.source = down.source;
    return result;
}

bool
MemorySystem::invalidateRegisterLine(Addr addr, Cycle now)
{
    if (!l1PortFree(now))
        return false;
    _l1NextFree = now + 1;
    _l1.invalidate(addr);
    _l2.invalidate(addr);
    return true;
}

const MemorySystem::WordPage *
MemorySystem::findPage(Addr key) const
{
    auto it = std::lower_bound(_pageKeys.begin(), _pageKeys.end(), key);
    if (it == _pageKeys.end() || *it != key)
        return nullptr;
    return _pages[static_cast<std::size_t>(it - _pageKeys.begin())].get();
}

MemorySystem::WordPage &
MemorySystem::pageFor(Addr key)
{
    auto it = std::lower_bound(_pageKeys.begin(), _pageKeys.end(), key);
    const auto at = it - _pageKeys.begin();
    if (it == _pageKeys.end() || *it != key) {
        _pageKeys.insert(it, key);
        _pages.insert(_pages.begin() + at, std::make_unique<WordPage>());
    }
    return *_pages[static_cast<std::size_t>(at)];
}

std::uint32_t
MemorySystem::wordIn(const WordPage *page, Addr addr) const
{
    const unsigned slot = pageSlot(addr);
    if (page && page->written[slot])
        return page->words[slot];
    return _valueGen(addr);
}

void
MemorySystem::storeIn(WordPage &page, Addr addr, std::uint32_t value)
{
    const unsigned slot = pageSlot(addr);
    page.words[slot] = value;
    page.written[slot] = true;
}

std::uint32_t
MemorySystem::readWord(Addr addr) const
{
    return wordIn(findPage(pageKey(addr)), addr);
}

void
MemorySystem::writeWord(Addr addr, std::uint32_t value)
{
    storeIn(pageFor(pageKey(addr)), addr, value);
}

// The per-warp forms look a page up once per run of lanes on it.

void
MemorySystem::readWords(const LaneAddrs &addrs, LaneMask mask,
                        LaneWords &out) const
{
    Addr key = kNoPageKey;
    const WordPage *page = nullptr;
    for (unsigned lane = 0; lane < warpSize; ++lane) {
        if (!(mask & (1u << lane)))
            continue;
        if (pageKey(addrs[lane]) != key) {
            key = pageKey(addrs[lane]);
            page = findPage(key);
        }
        out[lane] = wordIn(page, addrs[lane]);
    }
}

void
MemorySystem::writeWords(const LaneAddrs &addrs, LaneMask mask,
                         const LaneWords &values)
{
    Addr key = kNoPageKey;
    WordPage *page = nullptr;
    for (unsigned lane = 0; lane < warpSize; ++lane) {
        if (!(mask & (1u << lane)))
            continue;
        if (pageKey(addrs[lane]) != key) {
            key = pageKey(addrs[lane]);
            page = &pageFor(key);
        }
        storeIn(*page, addrs[lane], values[lane]);
    }
}

void
MemorySystem::setValueGenerator(std::function<std::uint32_t(Addr)> gen)
{
    if (!gen)
        fatal("null memory value generator");
    _valueGen = std::move(gen);
}

} // namespace regless::mem
