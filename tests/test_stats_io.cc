/**
 * @file
 * Serialization round-trip coverage for stats_io: a RunStats written
 * as JSON and read back must compare exactly equal, including doubles
 * (written at full precision) and the backing-store time series. Also
 * the RunStats/TenantLane field lists (every member listed, compared,
 * round-tripped and merged by its rule) and hostile records, hand
 * damaged and seeded mutants.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <random>
#include <set>
#include <sstream>

#include "arch/stall.hh"
#include "common/sim_error.hh"
#include "sim/experiment.hh"
#include "sim/job_cache.hh"
#include "sim/stats_io.hh"
#include "workloads/rodinia.hh"

namespace regless
{
namespace
{

TEST(StatsIoRoundTrip, RealRunSurvivesWriteRead)
{
    sim::RunStats stats = sim::runKernel(workloads::makeRodinia("nn"),
                                         sim::ProviderKind::Regless);
    sim::RunStats back = sim::fromJson(sim::toJson(stats));
    EXPECT_TRUE(stats == back);
    // Spot-check a few fields so a broken operator== cannot hide a
    // parser bug behind a vacuous comparison.
    EXPECT_EQ(back.kernel, "nn");
    EXPECT_EQ(back.provider, sim::ProviderKind::Regless);
    EXPECT_EQ(back.cycles, stats.cycles);
    EXPECT_EQ(back.backingSeries.size(), stats.backingSeries.size());
    EXPECT_DOUBLE_EQ(back.energy.total(), stats.energy.total());
}

TEST(StatsIoRoundTrip, BaselineProviderSurvives)
{
    sim::RunStats stats = sim::runKernel(workloads::makeRodinia("bfs"),
                                         sim::ProviderKind::Baseline);
    sim::RunStats back = sim::fromJson(sim::toJson(stats));
    EXPECT_TRUE(stats == back);
    EXPECT_EQ(back.rfReads, stats.rfReads);
    EXPECT_EQ(back.rfWrites, stats.rfWrites);
}

TEST(StatsIoRoundTrip, HandMadeCornerCases)
{
    sim::RunStats stats;
    stats.kernel = "weird \"name\" with \\escapes\\";
    stats.provider = sim::ProviderKind::ReglessNoCompressor;
    stats.cycles = 123456789;
    stats.insns = 987654321;
    stats.renameLookups = 42;
    stats.lrfAccesses = 7;
    stats.orfAccesses = 8;
    stats.mrfAccesses = 9;
    stats.regionInsnsMean = 17.125;
    // A value that truncated 6-digit formatting would corrupt.
    stats.meanWorkingSetBytes = 1234.5678901234567;
    stats.backingSeries = {0.0, 1.5, 2.25, 1e-17, 3e8};

    sim::RunStats back = sim::fromJson(sim::toJson(stats));
    EXPECT_TRUE(stats == back);
    EXPECT_EQ(back.kernel, stats.kernel);
    EXPECT_EQ(back.meanWorkingSetBytes, stats.meanWorkingSetBytes);
    EXPECT_EQ(back.backingSeries, stats.backingSeries);
}

TEST(StatsIoRoundTrip, SlotAttributionSurvives)
{
    // The issue-slot fields land in the flat schema as issued_slots
    // plus one stall_<cause> key each; distinct per-cause values catch
    // any prefix-matching mix-up between causes.
    sim::RunStats stats;
    stats.kernel = "slots";
    stats.issuedSlots = 1000001;
    for (std::size_t c = 0; c < arch::kNumStallCauses; ++c)
        stats.stallSlots[c] = 100 + 7 * c;

    const std::string json = sim::toJson(stats);
    for (std::size_t c = 0; c < arch::kNumStallCauses; ++c) {
        const std::string key =
            std::string("stall_") +
            arch::stallCauseName(static_cast<arch::StallCause>(c));
        EXPECT_NE(json.find("\"" + key + "\""), std::string::npos)
            << key;
    }
    sim::RunStats back = sim::fromJson(json);
    EXPECT_TRUE(stats == back);
    EXPECT_EQ(back.issuedSlots, stats.issuedSlots);
    for (std::size_t c = 0; c < arch::kNumStallCauses; ++c)
        EXPECT_EQ(back.stallSlots[c], stats.stallSlots[c]) << c;
}

TEST(StatsIoRoundTrip, ArrayOfRunsSurvives)
{
    std::vector<sim::RunStats> runs;
    runs.push_back(sim::runKernel(workloads::makeRodinia("nn"),
                                  sim::ProviderKind::Baseline));
    runs.push_back(sim::runKernel(workloads::makeRodinia("nn"),
                                  sim::ProviderKind::Regless));

    std::ostringstream oss;
    sim::writeJson(oss, runs);
    std::vector<sim::RunStats> back = sim::runsFromJson(oss.str());
    ASSERT_EQ(back.size(), runs.size());
    for (std::size_t i = 0; i < runs.size(); ++i)
        EXPECT_TRUE(runs[i] == back[i]) << "run " << i;
}

TEST(StatsIoRoundTrip, EmptyArrayAndUnknownKeys)
{
    EXPECT_TRUE(sim::runsFromJson("[]").empty());
    // Unknown keys are skipped; known ones still land.
    sim::RunStats parsed = sim::fromJson(
        "{\"future_field\":3.5,\"cycles\":77,"
        "\"future_array\":[1,2],\"kernel\":\"k\"}");
    EXPECT_EQ(parsed.cycles, 77u);
    EXPECT_EQ(parsed.kernel, "k");
}

TEST(JobRecordForwardCompat, NewerSchemaParsesIntactForTheGate)
{
    // Forward-compatibility contract split: the *parser* tolerates a
    // record written by a newer build (unknown keys skipped, known
    // fields landed, the foreign schema stamp preserved verbatim);
    // *rejecting* it is the cache's schema gate, which needs exactly
    // this intact record.schema to diagnose "newer build shares this
    // directory" instead of serving a half-parsed record.
    sim::JobRecord record;
    std::string error;
    const std::string json =
        "{\"record_schema\":" +
        std::to_string(sim::kJobCacheSchemaVersion + 1) +
        ",\"record_status\":\"ok\",\"record_attempts\":2,"
        "\"stat_from_the_future\":[1,2,3],"
        "\"kernel\":\"tomorrow\",\"cycles\":42}";
    ASSERT_TRUE(sim::tryRecordFromJson(json, record, &error)) << error;
    EXPECT_EQ(record.schema, sim::kJobCacheSchemaVersion + 1);
    EXPECT_EQ(record.status, sim::JobStatus::Ok);
    EXPECT_EQ(record.attempts, 2u);
    EXPECT_EQ(record.stats.kernel, "tomorrow");
    EXPECT_EQ(record.stats.cycles, 42u);
}

TEST(JobRecordForwardCompat, UnknownStatusNameIsRejected)
{
    sim::JobStatus status = sim::JobStatus::Ok;
    EXPECT_FALSE(sim::tryJobStatusFromName("postponed", status));
    EXPECT_EQ(status, sim::JobStatus::Ok);
}

// ---------------------------------------------------------------------
// Field lists: one entry per member drives JSON and merging.
// ---------------------------------------------------------------------

/** Every count is odd and above 2^53, so a reader that went through
 *  double would round it. */
constexpr std::uint64_t kBig = (std::uint64_t{1} << 53) + 1;

/** Gives every listed field a distinct, non-default value. */
struct Distinct
{
    std::uint64_t n = 0;

    bool operator()(sim::field::Derived, double) { return false; }

    bool
    operator()(auto, std::string &v)
    {
        v = "s" + std::to_string(++n);
        return false;
    }

    bool
    operator()(auto, sim::ProviderKind &v)
    {
        v = sim::allProviderKinds()[1 + ++n % 6];
        return false;
    }

    bool
    operator()(auto, std::uint64_t &v)
    {
        v = kBig + 2 * ++n;
        return false;
    }

    bool
    operator()(auto, unsigned &v)
    {
        v = 1000 + static_cast<unsigned>(++n);
        return false;
    }

    bool
    operator()(auto, double &v)
    {
        v = static_cast<double>(++n) + 1.0 / 3.0;
        return false;
    }

    bool
    operator()(auto, std::vector<double> &v)
    {
        v = {static_cast<double>(++n), 0.1, 1e-300};
        return false;
    }

    bool
    operator()(auto, std::array<std::uint64_t, arch::kNumStallCauses> &v)
    {
        for (std::uint64_t &slot : v)
            slot = kBig + 2 * ++n;
        return false;
    }

    bool
    operator()(auto, std::vector<sim::TenantLane> &lanes)
    {
        lanes.resize(2);
        for (sim::TenantLane &lane : lanes)
            sim::forEachField(*this, lane);
        return false;
    }
};

sim::RunStats
distinctRun(std::uint64_t first_value)
{
    sim::RunStats stats;
    Distinct distinct{first_value};
    sim::forEachField(distinct, stats);
    return stats;
}

/** Changes only the @a target'th listed field (counting from 0). */
struct Perturb
{
    explicit Perturb(std::size_t target) : target(target) {}

    std::size_t target;
    std::size_t index = 0;
    std::string key;
    bool derived = false;

    static void bump(std::string &v) { v += "!"; }
    static void
    bump(sim::ProviderKind &v)
    {
        v = v == sim::ProviderKind::Rfh ? sim::ProviderKind::Rfv
                                        : sim::ProviderKind::Rfh;
    }
    static void bump(std::uint64_t &v) { v ^= 1; }
    static void bump(unsigned &v) { v ^= 1; }
    static void bump(double &v) { v += 0.5; }
    static void bump(std::vector<double> &v) { v.back() = -v.back(); }
    static void
    bump(std::array<std::uint64_t, arch::kNumStallCauses> &v)
    {
        v.back() ^= 1;
    }
    static void bump(std::vector<sim::TenantLane> &v) { v.pop_back(); }

    bool
    operator()(auto tag, auto &&value)
    {
        if (index++ != target)
            return false;
        key = tag.key;
        derived = std::is_same_v<decltype(tag), sim::field::Derived>;
        bump(value);
        return true;
    }
};

/** Number of entries in @a s's field list. */
template <typename S>
std::size_t
fieldCount(const S &s)
{
    std::size_t n = 0;
    sim::forEachField(
        [&n](auto, auto &&) {
            ++n;
            return false;
        },
        s);
    return n;
}

/** Records the address of every listed member. */
struct CollectAddresses
{
    std::set<const void *> &out;

    bool operator()(sim::field::Derived, double) { return false; }

    bool
    operator()(auto, auto &member)
    {
        out.insert(&member);
        return false;
    }
};

/** Checks @a merged == @a a merged with @a b under each field's rule. */
struct CheckMerge
{
    template <typename T>
    static T
    sum(const T &a, const T &b)
    {
        return a + b;
    }

    template <std::size_t N>
    static std::array<std::uint64_t, N>
    sum(const std::array<std::uint64_t, N> &a,
        const std::array<std::uint64_t, N> &b)
    {
        std::array<std::uint64_t, N> out{};
        for (std::size_t i = 0; i < N; ++i)
            out[i] = a[i] + b[i];
        return out;
    }

    bool
    operator()(sim::field::Sum tag, const auto &merged, const auto &a,
               const auto &b) const
    {
        EXPECT_TRUE(merged == sum(a, b)) << tag.key;
        return false;
    }

    bool
    operator()(sim::field::Sum tag,
               const std::vector<sim::TenantLane> &merged,
               const std::vector<sim::TenantLane> &a,
               const std::vector<sim::TenantLane> &b) const
    {
        EXPECT_EQ(merged.size(), a.size()) << tag.key;
        for (std::size_t t = 0; t < std::min(merged.size(), a.size());
             ++t)
            sim::forEachField(*this, merged[t], a[t], b[t]);
        return false;
    }

    bool
    operator()(sim::field::Max tag, const auto &merged, const auto &a,
               const auto &b) const
    {
        EXPECT_EQ(merged, std::max(a, b)) << tag.key;
        return false;
    }

    bool
    operator()(sim::field::First tag, const auto &merged,
               const auto &a, const auto &) const
    {
        EXPECT_TRUE(merged == a) << tag.key;
        return false;
    }

    bool
    operator()(sim::field::Derived, double, double, double) const
    {
        return false;
    }
};

TEST(RunStatsFields, EveryMemberIsListed)
{
    sim::RunStats s;
    s.tenants.resize(1);
    std::set<const void *> listed;
    CollectAddresses collect{listed};
    sim::forEachField(collect, s);
    sim::forEachField(collect, s.tenants[0]);

    // Field-count tripwires (the config-dump idiom of gpu_config.cc):
    // each binding names every member, so a new member breaks this
    // build until it is bound here -- and then fails the check below
    // until it is listed in run_stats.hh.
    auto &[kernel, provider, cycles, insns, metadata_insns, l1_accesses,
           l2_accesses, dram_accesses, rf_reads, rf_writes,
           rename_lookups, lrf_accesses, orf_accesses, mrf_accesses,
           osu_accesses, osu_tag_lookups, osu_bank_conflicts,
           compressor_accesses, compressor_matches,
           compressor_incompressible, compressor_static_hits,
           compressor_static_unsound, osu_gated_bank_cycles,
           rf_cache_hits, rf_cache_misses, spill_stores, fill_loads,
           preload_src_osu, preload_src_compressor, preload_src_l1,
           preload_src_l2dram, l1_preload_reqs, l1_store_reqs,
           l1_invalidate_reqs, issued_slots, stall_slots,
           skipped_cycles, skip_events, working_set_bytes,
           backing_series, region_preloads_mean, region_live_mean,
           region_live_stddev, region_cycles_mean, region_insns_mean,
           static_insns_per_region, num_regions, tenants, energy] = s;
    auto &[reg_dynamic, reg_static, compressor, memory, rest] = energy;
    auto &[lane_kernel, lane_insns, lane_issued_slots, lane_stall_slots,
           lane_finish_cycle, lane_suspended_cycles, lane_preemptions] =
        tenants[0];
    const void *members[] = {
        &kernel, &provider, &cycles, &insns, &metadata_insns,
        &l1_accesses, &l2_accesses, &dram_accesses, &rf_reads,
        &rf_writes, &rename_lookups, &lrf_accesses, &orf_accesses,
        &mrf_accesses, &osu_accesses, &osu_tag_lookups,
        &osu_bank_conflicts, &compressor_accesses, &compressor_matches,
        &compressor_incompressible, &compressor_static_hits,
        &compressor_static_unsound, &osu_gated_bank_cycles,
        &rf_cache_hits, &rf_cache_misses, &spill_stores, &fill_loads,
        &preload_src_osu, &preload_src_compressor, &preload_src_l1,
        &preload_src_l2dram, &l1_preload_reqs, &l1_store_reqs,
        &l1_invalidate_reqs, &issued_slots, &stall_slots,
        &skipped_cycles, &skip_events, &working_set_bytes,
        &backing_series, &region_preloads_mean, &region_live_mean,
        &region_live_stddev, &region_cycles_mean, &region_insns_mean,
        &static_insns_per_region, &num_regions, &tenants,
        &reg_dynamic, &reg_static, &compressor, &memory, &rest,
        &lane_kernel, &lane_insns, &lane_issued_slots,
        &lane_stall_slots, &lane_finish_cycle, &lane_suspended_cycles,
        &lane_preemptions};
    for (std::size_t i = 0; i < std::size(members); ++i)
        EXPECT_EQ(listed.count(members[i]), 1u) << "member " << i;
    EXPECT_EQ(listed.size(), std::size(members));
}

TEST(RunStatsFields, DistinctValuesRoundTripExactly)
{
    const sim::RunStats stats = distinctRun(0);
    ASSERT_EQ(stats.tenants.size(), 2u);
    ASSERT_GT(stats.insns, std::uint64_t{1} << 53);
    const sim::RunStats back = sim::fromJson(sim::toJson(stats));
    EXPECT_TRUE(back == stats);
    // A double-based reader rounds odd counts above 2^53.
    EXPECT_EQ(back.insns, stats.insns);
    EXPECT_EQ(back.tenants[1].preemptions, stats.tenants[1].preemptions);
    EXPECT_EQ(back.stallSlots.back(), stats.stallSlots.back());

    sim::JobRecord record;
    record.schema = sim::kJobCacheSchemaVersion;
    record.stats = stats;
    std::ostringstream oss;
    sim::writeJson(oss, record);
    sim::JobRecord parsed;
    std::string error;
    ASSERT_TRUE(sim::tryRecordFromJson(oss.str(), parsed, &error))
        << error;
    EXPECT_TRUE(parsed.stats == stats);
}

TEST(RunStatsFields, EveryFieldTakesPartInEquality)
{
    const sim::RunStats base = distinctRun(0);
    for (std::size_t i = 0; i < fieldCount(base); ++i) {
        sim::RunStats changed = base;
        Perturb perturb(i);
        sim::forEachField(perturb, changed);
        if (perturb.derived)
            continue;
        EXPECT_FALSE(changed == base) << perturb.key;
    }

    const sim::TenantLane lane = base.tenants[0];
    for (std::size_t i = 0; i < fieldCount(lane); ++i) {
        sim::TenantLane changed = lane;
        Perturb perturb(i);
        sim::forEachField(perturb, changed);
        EXPECT_FALSE(changed == lane) << "tenant lane " << perturb.key;
    }
}

TEST(RunStatsFields, MergeAppliesEachFieldsRule)
{
    // b's values all exceed a's: Max must pick b, First must keep
    // whichever run was merged into, in both merge orders.
    const sim::RunStats a = distinctRun(0);
    const sim::RunStats b = distinctRun(1000);
    sim::RunStats ab = a;
    sim::mergeRunStats(ab, b);
    sim::forEachField(CheckMerge{}, ab, a, b);
    sim::RunStats ba = b;
    sim::mergeRunStats(ba, a);
    sim::forEachField(CheckMerge{}, ba, b, a);

    // The rules themselves: wall clock and finish cycles are the
    // slowest SM's, counters sum, names and means stay the first's.
    EXPECT_EQ(ab.cycles, b.cycles);
    EXPECT_EQ(ab.tenants[1].finishCycle, b.tenants[1].finishCycle);
    EXPECT_EQ(ab.insns, a.insns + b.insns);
    EXPECT_EQ(ab.tenants[0].insns, a.tenants[0].insns + b.tenants[0].insns);
    EXPECT_EQ(ab.energy.rest, a.energy.rest + b.energy.rest);
    EXPECT_EQ(ab.kernel, a.kernel);
    EXPECT_EQ(ab.tenants[0].kernel, a.tenants[0].kernel);
    EXPECT_EQ(ab.regionLiveMean, a.regionLiveMean);
    EXPECT_EQ(ab.backingSeries, a.backingSeries);

    sim::RunStats single = a;
    single.tenants.clear();
    EXPECT_THROW(sim::mergeRunStats(single, b), sim::SimError);
}

// ---------------------------------------------------------------------
// Hostile records: every damaged count is a parse failure, never a
// crash, a wrapped value or a giant allocation.
// ---------------------------------------------------------------------

/** A two-tenant record with small, findable values. */
std::string
tenantRecordJson()
{
    sim::JobRecord record;
    record.schema = sim::kJobCacheSchemaVersion;
    record.stats.kernel = "nn+srad_v1";
    record.stats.cycles = 4321;
    record.stats.insns = 777;
    record.stats.numRegions = 12;
    record.stats.tenants.resize(2);
    record.stats.tenants[0].kernel = "nn";
    record.stats.tenants[0].insns = 300;
    record.stats.tenants[1].kernel = "srad_v1";
    record.stats.tenants[1].insns = 477;
    std::ostringstream oss;
    sim::writeJson(oss, record);
    return oss.str();
}

TEST(StatsIoHostile, DamagedCountsFailTheParse)
{
    const std::string good = tenantRecordJson();
    sim::JobRecord record;
    ASSERT_TRUE(sim::tryRecordFromJson(good, record));
    ASSERT_EQ(record.stats.tenants.size(), 2u);

    const std::pair<std::string, std::string> damages[] = {
        {"\"tenant_count\":2", "\"tenant_count\":1e18"},
        {"\"tenant_count\":2", "\"tenant_count\":3"},
        {"\"tenant_count\":2", "\"tenant_count\":1"},
        {"\"tenant_count\":2", "\"tenant_count\":-2"},
        {"\"tenant1_kernel\"", "\"tenant7_kernel\""},
        {"\"tenant1_insns\":477", "\"tenant1_insns\":477,"
                                  "\"tenant0_insns\":1"},
        {"\"cycles\":4321", "\"cycles\":-5"},
        {"\"insns\":777", "\"insns\":12.75"},
        {"\"insns\":777", "\"insns\":7e2"},
        {"\"insns\":777", "\"insns\":+777"},
        {"\"insns\":777", "\"insns\":18446744073709551616"},
        {"\"insns\":777", "\"insns\":\"777\""},
        {"\"num_regions\":12", "\"num_regions\":4294967296"},
        {"\"stall_no_warp\":0", "\"stall_no_warp\":0.5"},
        {"\"tenant0_insns\":300", "\"tenant0_insns\":-300"},
        {"\"record_attempts\":1", "\"record_attempts\":-1"},
        {"\"record_schema\":", "\"record_schema\":-"},
        {"\"kernel\":\"nn+srad_v1\"", "\"kernel\":5"},
        {"\"working_set_bytes\":0", "\"working_set_bytes\":\"0\""},
        {"\"backing_series\":[]", "\"backing_series\":3"},
    };
    for (const auto &[from, to] : damages) {
        std::string text = good;
        const std::size_t at = text.find(from);
        ASSERT_NE(at, std::string::npos) << from;
        text.replace(at, from.size(), to);
        std::string error;
        EXPECT_FALSE(sim::tryRecordFromJson(text, record, &error)) << to;
        EXPECT_FALSE(error.empty()) << to;
        // The plain RunStats reader skips record_* keys.
        sim::RunStats stats;
        if (from.rfind("\"record_", 0) != 0) {
            EXPECT_FALSE(sim::tryFromJson(text, stats)) << to;
        }
    }
}

/** A record as a failed or deadlocked job stores it: error and
 *  deadlock texts with quotes, backslashes and newlines. */
std::string
failureRecordJson(sim::JobStatus status)
{
    sim::JobRecord record;
    record.schema = sim::kJobCacheSchemaVersion;
    record.status = status;
    record.stats.kernel = "doomed";
    record.error = "job \"doomed\" threw: C:\\tmp\nsecond line";
    if (status == sim::JobStatus::Deadlocked) {
        record.deadlock = "deadlock: kernel 'doomed' made no forward "
                          "progress\n  w0 cm_no_capacity pc=22\n";
    }
    record.attempts = 2;
    std::ostringstream oss;
    sim::writeJson(oss, record);
    return oss.str();
}

/**
 * One random edit of @a text: a byte flip, a truncation, a deleted or
 * duplicated span, or spliced digits. Draws straight from the engine
 * (not a distribution, whose output the standard leaves to each
 * library), so the mutants are the same everywhere.
 */
void
mutate(std::string &text, std::mt19937_64 &rng)
{
    auto below = [&rng](std::size_t n) {
        return n ? static_cast<std::size_t>(rng() % n) : 0;
    };
    const std::size_t at = below(text.size());
    const std::size_t span = 1 + below(std::min<std::size_t>(
                                     24, text.size() - at));
    switch (rng() % 5) {
      case 0:
        if (!text.empty())
            text[at] = static_cast<char>(text[at] ^ (1 << below(8)));
        break;
      case 1:
        text.resize(at);
        break;
      case 2:
        text.erase(at, span);
        break;
      case 3:
        text.insert(below(text.size() + 1), text.substr(at, span));
        break;
      default: {
        std::string digits;
        for (std::size_t i = 0; i < span; ++i)
            digits.push_back(static_cast<char>('0' + below(10)));
        text.insert(below(text.size() + 1), digits);
        break;
      }
    }
}

TEST(StatsIoHostile, SeededMutantsParseOrFail)
{
    const std::string seeds[] = {
        tenantRecordJson(),
        failureRecordJson(sim::JobStatus::Failed),
        failureRecordJson(sim::JobStatus::Deadlocked),
    };
    std::mt19937_64 rng(27);
    unsigned parsed = 0;
    unsigned rejected = 0;
    for (const std::string &seed : seeds) {
        sim::JobRecord record;
        ASSERT_TRUE(sim::tryRecordFromJson(seed, record)) << seed;
        for (int i = 0; i < 1500; ++i) {
            std::string text = seed;
            for (std::uint64_t edits = 1 + rng() % 3; edits; --edits)
                mutate(text, rng);
            std::string error;
            if (!sim::tryRecordFromJson(text, record, &error)) {
                EXPECT_FALSE(error.empty()) << text;
                ++rejected;
                continue;
            }
            ++parsed;
            // What parses must survive a write and a second parse,
            // and writing it again must give the same bytes.
            std::ostringstream once;
            sim::writeJson(once, record);
            sim::JobRecord again;
            ASSERT_TRUE(sim::tryRecordFromJson(once.str(), again, &error))
                << error << "\nmutant: " << text;
            std::ostringstream twice;
            sim::writeJson(twice, again);
            EXPECT_EQ(twice.str(), once.str()) << "mutant: " << text;
        }
    }
    EXPECT_GT(parsed, 0u);
    EXPECT_GT(rejected, 0u);
}

} // namespace
} // namespace regless
