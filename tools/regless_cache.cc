/**
 * @file
 * regless_cache: maintenance CLI for the shared experiment cache
 * (DESIGN.md §15). A fleet of report processes leaves a cache
 * directory behind; this tool audits and prunes it.
 *
 *   regless_cache stats  [--dir DIR]            # what's in there
 *   regless_cache verify [--dir DIR] [--strict] # is it healthy
 *   regless_cache gc     [--dir DIR] [--max-age-sec S]
 *                        [--max-bytes B] [--grace-sec S]
 *                        [--remove-corrupt] [--dry-run]
 *
 * verify exits 0 on a healthy cache (corrupt or misplaced entries
 * make it exit 1; --strict also fails on wrong-schema entries, temp
 * files, and strays), so CI can gate on it. gc removes stale writer
 * temps always, then applies the age and size policies oldest-first;
 * every removal happens under the shard's advisory lock with a
 * bounded wait (a busy shard is skipped — gc never live-locks
 * against writers) and never touches files younger than the grace
 * margin, which is what makes it safe to run while a fleet is
 * writing.
 */

#include <cstdlib>
#include <iostream>
#include <string>
#include <vector>

#include "common/flags.hh"
#include "common/logging.hh"
#include "sim/job_cache.hh"

using namespace regless;

namespace
{

[[noreturn]] void
usage(int code)
{
    std::cerr
        << "usage: regless_cache <stats|verify|gc> [--dir DIR]\n"
           "  stats   summarize entries, shards, and sizes\n"
           "  verify  audit every entry; exit 1 on corruption\n"
           "          [--strict] also fail on schema skew, temps,\n"
           "          and strays\n"
           "  gc      prune the cache\n"
           "          [--max-age-sec S]  drop entries older than S\n"
           "          [--max-bytes B]    evict oldest past B bytes\n"
           "          [--grace-sec S]    never touch files younger\n"
           "                             than S (default 300)\n"
           "          [--remove-corrupt] also drop corrupt/misplaced\n"
           "          [--dry-run]        report, don't delete\n";
    std::exit(code);
}

int
runStats(const std::string &dir)
{
    const sim::CacheSurvey s = sim::cacheSurveyDir(dir);
    std::cout << "cache " << dir << ":\n"
              << "  entries:      " << s.entries << " (" << s.okRecords
              << " ok, " << s.failedRecords << " failed, "
              << s.deadlockedRecords << " deadlocked)\n"
              << "  shards used:  " << s.shardsUsed << "/256\n"
              << "  total bytes:  " << s.totalBytes << "\n"
              << "  schema skew:  " << s.wrongSchema << " ("
              << s.newerSchema << " from newer builds; expected schema "
              << sim::kJobCacheSchemaVersion << ")\n"
              << "  corrupt:      " << s.corrupt << "\n"
              << "  misplaced:    " << s.misplaced << "\n"
              << "  temp files:   " << s.tempFiles << "\n"
              << "  other files:  " << s.otherFiles << "\n";
    return 0;
}

int
runVerify(const std::string &dir, bool strict)
{
    const sim::CacheSurvey s = sim::cacheSurveyDir(dir);
    bool bad = s.corrupt > 0 || s.misplaced > 0;
    if (strict)
        bad = bad || s.wrongSchema > 0 || s.tempFiles > 0 ||
              s.otherFiles > 0;
    std::cout << "verify " << dir << ": " << s.entries << " entries, "
              << s.corrupt << " corrupt, " << s.misplaced
              << " misplaced, " << s.wrongSchema << " schema skew, "
              << s.tempFiles << " temps\n";
    for (const std::string &path : s.suspects)
        std::cout << "  suspect: " << path << "\n";
    std::cout << (bad ? "verify: FAILED\n" : "verify: ok\n");
    return bad ? 1 : 0;
}

int
runGc(const std::string &dir, const sim::CacheGcOptions &options)
{
    const sim::CacheGcResult r = sim::cacheGcDir(dir, options);
    std::cout << "gc " << dir << (options.dryRun ? " (dry run)" : "")
              << ": removed " << r.removedEntries << " entries + "
              << r.removedTemps << " temps (" << r.removedBytes
              << " bytes), kept " << r.keptEntries;
    if (r.skippedShards)
        std::cout << ", skipped " << r.skippedShards
                  << " locked shards";
    std::cout << "\n";
    return 0;
}

int
run(int argc, char **argv)
{
    // Library code throws SimError; this main is the process-exit
    // boundary.
    try {
        if (argc < 2)
            usage(1);
        const std::string command = argv[1];
        if (command == "--help" || command == "-h")
            usage(0);

        std::string dir = sim::kDefaultCacheDir;
        bool strict = false;
        sim::CacheGcOptions gc;
        for (int i = 2; i < argc; ++i) {
            const std::string arg = argv[i];
            auto value = [&]() -> std::string {
                if (i + 1 >= argc)
                    fatal("missing value for ", arg);
                return argv[++i];
            };
            if (arg == "--dir") {
                dir = value();
            } else if (arg == "--strict" && command == "verify") {
                strict = true;
            } else if (arg == "--max-age-sec" && command == "gc") {
                gc.maxAgeSec = flagNumber<double>(arg, value());
            } else if (arg == "--max-bytes" && command == "gc") {
                gc.maxBytes = flagNumber<std::uint64_t>(arg, value());
            } else if (arg == "--grace-sec" && command == "gc") {
                gc.graceSec = flagNumber<double>(arg, value());
            } else if (arg == "--remove-corrupt" && command == "gc") {
                gc.removeCorrupt = true;
            } else if (arg == "--dry-run" && command == "gc") {
                gc.dryRun = true;
            } else {
                usage(arg == "--help" ? 0 : 1);
            }
        }

        if (command == "stats")
            return runStats(dir);
        if (command == "verify")
            return runVerify(dir, strict);
        if (command == "gc")
            return runGc(dir, gc);
        usage(1);
    } catch (const FlagError &e) {
        std::cerr << "fatal: " << e.what() << "\n";
        return 2;
    } catch (const std::exception &e) {
        std::cerr << "fatal: " << e.what() << "\n";
        return 1;
    }
}

} // namespace

int
main(int argc, char **argv)
{
    return finishStdout(run(argc, argv));
}
