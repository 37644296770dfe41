/**
 * @file
 * Machine-readable export/import of run results: RunStats as JSON, for
 * downstream plotting, regression tracking, and archiving sweeps.
 * Hand-rolled writer and reader (no dependency); the schema is flat
 * and stable, doubles are written with full precision, and
 * write -> read round-trips to an equal RunStats.
 *
 * The experiment engine's cache entries are JobRecords: a RunStats
 * plus outcome metadata (record_* keys) in the same flat object, so
 * failed and deadlocked jobs are memoized alongside successes and a
 * warm rerun never re-executes a known-bad point.
 */

#ifndef REGLESS_SIM_STATS_IO_HH
#define REGLESS_SIM_STATS_IO_HH

#include <ostream>
#include <string>
#include <vector>

#include "sim/run_stats.hh"

namespace regless::sim
{

/** Terminal outcome of one engine job. */
enum class JobStatus
{
    Ok,         ///< simulated to completion
    Failed,     ///< threw (config error, internal bug, wall timeout)
    Deadlocked, ///< forward-progress watchdog fired
};

/** Name for a JobStatus ("ok", "failed", "deadlocked"). */
const char *jobStatusName(JobStatus status);

/** Parse a jobStatusName() string; false on unknown. */
bool tryJobStatusFromName(const std::string &name, JobStatus &out);

/**
 * One cache entry of the experiment engine: the run's outcome, its
 * stats (meaningful only when status == Ok), the error text and the
 * rendered DeadlockReport for failures, and how many attempts the
 * execution took (> 1 when a transient fault was retried).
 */
struct JobRecord
{
    /** Cache schema version the record was written under. */
    unsigned schema = 0;
    JobStatus status = JobStatus::Ok;
    RunStats stats;
    /** what() of the escaped exception (Failed / Deadlocked). */
    std::string error;
    /** Rendered DeadlockReport (Deadlocked only). */
    std::string deadlock;
    /** Execution attempts (retries + 1). */
    unsigned attempts = 1;
};

/** Write @a stats as a single JSON object. */
void writeJson(std::ostream &os, const RunStats &stats);

/** Write several runs as a JSON array. */
void writeJson(std::ostream &os, const std::vector<RunStats> &runs);

/** JSON string of one run (convenience). */
std::string toJson(const RunStats &stats);

/**
 * Parse one RunStats from a JSON object produced by writeJson().
 * Unknown keys are ignored (schema may grow); missing keys leave the
 * field at its default. fatal() on malformed input.
 */
RunStats fromJson(const std::string &json);

/**
 * Non-fatal fromJson(): parse into @a out and return true, or return
 * false on malformed/truncated input (leaving @a out unspecified).
 * If @a error is non-null it receives the parse diagnostic. Used by
 * the experiment engine to treat corrupt cache entries as misses.
 */
bool tryFromJson(const std::string &json, RunStats &out,
                 std::string *error = nullptr);

/** Parse a JSON array of runs produced by writeJson(). */
std::vector<RunStats> runsFromJson(const std::string &json);

/**
 * Write @a record as a single flat JSON object: the record_* outcome
 * keys first, then the RunStats fields of writeJson().
 */
void writeJson(std::ostream &os, const JobRecord &record);

/**
 * Parse a JobRecord produced by writeJson(JobRecord). Inputs without
 * the record_* keys — including bare RunStats objects written before
 * the watchdog existed — are rejected, so pre-watchdog cache entries
 * miss instead of masquerading as successful records.
 */
bool tryRecordFromJson(const std::string &json, JobRecord &out,
                       std::string *error = nullptr);

} // namespace regless::sim

#endif // REGLESS_SIM_STATS_IO_HH
