#include "bench.hh"

#include <algorithm>
#include <cstdio>

#include <sched.h>
#include <sys/resource.h>

namespace perfbench
{

void
Result::checkDigest(const Options &options, const std::string &key,
                    const std::string &observed)
{
    auto [seen, first] = digests.try_emplace(key, observed);
    if (!first && seen->second != observed) {
        ++failed;
        problems.push_back(key + " digest changed within the run: " +
                           seen->second + " then " + observed);
        return;
    }
    auto expected = options.reference.find(key);
    if (expected != options.reference.end() &&
        expected->second != observed) {
        ++failed;
        problems.push_back(key + " digest " + observed +
                           " does not match the reference " +
                           expected->second);
    }
}

double
now()
{
    return std::chrono::duration<double>(
               std::chrono::steady_clock::now().time_since_epoch())
        .count();
}

double
cpuNow()
{
    rusage usage{};
    getrusage(RUSAGE_SELF, &usage);
    auto seconds = [](const timeval &tv) {
        return static_cast<double>(tv.tv_sec) +
               static_cast<double>(tv.tv_usec) * 1e-6;
    };
    return seconds(usage.ru_utime) + seconds(usage.ru_stime);
}

double
peakRssMb()
{
    rusage usage{};
    getrusage(RUSAGE_SELF, &usage);
    return static_cast<double>(usage.ru_maxrss) / 1024.0; // KB on Linux
}

void
rotateCpu()
{
    static cpu_set_t allowed;
    static const bool have_mask =
        sched_getaffinity(0, sizeof(allowed), &allowed) == 0;
    static int next = 0;
    if (!have_mask || CPU_COUNT(&allowed) < 2)
        return;
    for (int tries = 0; tries < CPU_SETSIZE; ++tries) {
        const int cpu = next;
        next = (next + 1) % CPU_SETSIZE;
        if (!CPU_ISSET(cpu, &allowed))
            continue;
        cpu_set_t one;
        CPU_ZERO(&one);
        CPU_SET(cpu, &one);
        sched_setaffinity(0, sizeof(one), &one);
        sched_setaffinity(0, sizeof(allowed), &allowed);
        return;
    }
}

double
median(std::vector<double> samples)
{
    if (samples.empty())
        return 0.0;
    std::sort(samples.begin(), samples.end());
    const std::size_t mid = samples.size() / 2;
    return samples.size() % 2 ? samples[mid]
                              : (samples[mid - 1] + samples[mid]) / 2.0;
}

double
tail(std::vector<double> samples)
{
    if (samples.empty())
        return 0.0;
    std::sort(samples.begin(), samples.end());
    const std::size_t n = samples.size();
    return samples[n > 10 ? n - 11 : n - 1];
}

double
total(const std::vector<double> &samples)
{
    double sum = 0.0;
    for (double s : samples)
        sum += s;
    return sum;
}

double
ratio(double num, double den)
{
    return den > 0 ? num / den : 0.0;
}

std::string
digestText(const std::string &text)
{
    std::uint64_t hash = 1469598103934665603ULL;
    for (unsigned char c : text) {
        hash ^= c;
        hash *= 1099511628211ULL;
    }
    char hex[17];
    std::snprintf(hex, sizeof(hex), "%016llx",
                  static_cast<unsigned long long>(hash));
    return hex;
}

std::string
digestSet(std::vector<std::string> digests)
{
    std::sort(digests.begin(), digests.end());
    std::string joined;
    for (const std::string &d : digests)
        joined += d + "\n";
    return digestText(joined);
}

std::string
resultLine(const std::string &json, unsigned sms)
{
    return std::to_string(sms) + "sm " + json;
}

void
addJobTimes(const std::vector<double> &jobs,
            std::map<std::string, double> &out)
{
    out["sim.job_ms_p50"] = median(jobs) * 1e3;
    out["sim.job_ms_tail"] = tail(jobs) * 1e3;
    out["sim.job_ms_max"] =
        jobs.empty() ? 0.0
                     : *std::max_element(jobs.begin(), jobs.end()) * 1e3;
}

void
addEndToEnd(const std::vector<double> &setups, const Samples &parallel,
            const Samples &serial, Result &result)
{
    std::map<std::string, double> &m = result.metrics;
    m["setup_s"] = median(setups);
    m["pass_s"] = median(parallel.wall);
    m["pass_cpu_s"] = median(parallel.cpu);
    m["serial_pass_s"] = median(serial.wall);
    m["peak_rss_mb"] = peakRssMb();
    result.samples["setup_s"] = setups;
    result.samples["pass_s"] = parallel.wall;
    result.samples["pass_cpu_s"] = parallel.cpu;
    result.samples["serial_pass_s"] = serial.wall;
}

void
addResultCounts(const std::vector<regless::sim::RunStats> &runs,
                double sm_cycles, double run_seconds, bool simulated,
                std::map<std::string, double> &out)
{
    double skipped = 0, skip_events = 0, issued = 0, slots = 0;
    double l1 = 0, dram = 0, osu = 0, preload_osu = 0, preloads = 0;
    double matches = 0, compressions = 0;
    for (const regless::sim::RunStats &s : runs) {
        skipped += static_cast<double>(s.skippedCycles);
        skip_events += static_cast<double>(s.skipEvents);
        issued += static_cast<double>(s.issuedSlots);
        slots += static_cast<double>(s.issuedSlots);
        for (std::uint64_t stall : s.stallSlots)
            slots += static_cast<double>(stall);
        l1 += static_cast<double>(s.l1Accesses);
        dram += static_cast<double>(s.dramAccesses);
        osu += static_cast<double>(s.osuAccesses);
        preload_osu += static_cast<double>(s.preloadSrcOsu);
        preloads += static_cast<double>(s.totalPreloads());
        matches += static_cast<double>(s.compressorMatches);
        compressions += static_cast<double>(s.compressorAccesses);
    }
    // arch.* is simulation work done in the pass: none when every
    // result came out of the cache.
    if (!simulated)
        sm_cycles = skipped = skip_events = issued = slots = 0;
    out["arch.sm_cycles"] = sm_cycles;
    out["arch.skipped_frac"] = ratio(skipped, sm_cycles);
    out["arch.skip_events"] = skip_events;
    out["arch.issued_slot_frac"] = ratio(issued, slots);
    out["arch.ns_per_stepped_cycle"] =
        ratio(run_seconds * 1e9, sm_cycles - skipped);
    out["arch.sm_mcycles_per_s"] = ratio(sm_cycles / 1e6, run_seconds);
    out["mem.l1_accesses"] = l1;
    out["mem.dram_accesses"] = dram;
    out["regless.osu_accesses"] = osu;
    out["regless.preload_osu_frac"] = ratio(preload_osu, preloads);
    out["regless.compressor_match_frac"] = ratio(matches, compressions);
}

} // namespace perfbench
