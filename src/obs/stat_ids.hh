/**
 * @file
 * Typed statistic identifiers for every simulated structure.
 *
 * Each enum below is one structure's counter set; kCount closes it and
 * sizes the structure's StatTable. Increments and reads both go
 * through the enumerator, so a misspelled stat is a compile error.
 * The counters carry no names: the run's results leave the structures
 * through the typed reads (statValue(), OooCore::coreStat()), and
 * SimResult names, merges and renders them from there.
 */

#ifndef SLFWD_OBS_STAT_IDS_HH_
#define SLFWD_OBS_STAT_IDS_HH_

namespace slf::obs
{

/** Core pipeline. */
enum class CoreStat : unsigned
{
    InstsRetired,
    LoadsRetired,
    StoresRetired,
    BranchesRetired,
    BranchMispredicts,
    OracleFixedMispredicts,
    MemReplays,
    ViolationFlushesTrue,
    ViolationFlushesAnti,
    ViolationFlushesOutput,
    SpuriousViolations,
    kCount
};

/** Memory disambiguation table. */
enum class MdtStat : unsigned
{
    Accesses,
    SetConflicts,
    ViolationsTrue,
    ViolationsAnti,
    ViolationsOutput,
    ScavengedEntries,
    OptimizedTrueRecoveries,
    kCount
};

/** Store forwarding cache. */
enum class SfcStat : unsigned
{
    StoreWrites,
    LoadReads,
    FullMatches,
    CorruptHits,
    SetConflicts,
    PartialFlushes,
    kCount
};

/** Store FIFO. */
enum class StoreFifoStat : unsigned
{
    Squashed,
    PayloadFaults,
    kCount
};

/** Idealized LSQ. */
enum class LsqStat : unsigned
{
    LqSearches,
    SqSearches,
    CamEntriesExamined,
    Forwards,
    ViolationsTrue,
    SilentStoreFiltered,
    kCount
};

/** Memory dependence predictor. */
enum class MemDepStat : unsigned
{
    ViolationsTrue,
    ViolationsAnti,
    ViolationsOutput,
    DepsInserted,
    kCount
};

/** MDT/SFC memory unit. */
enum class MdtSfcUnitStat : unsigned
{
    LoadReplaysSfcCorrupt,
    LoadReplaysSfcPartial,
    LoadReplaysMdtConflict,
    StoreReplaysSfcConflict,
    StoreReplaysMdtConflict,
    SfcForwards,
    HeadBypasses,
    kCount
};

/** Idealized LSQ memory unit. */
enum class LsqUnitStat : unsigned
{
    FullForwards,
    kCount
};

/** Value-replay memory unit. */
enum class ValueReplayUnitStat : unsigned
{
    SqSearches,
    CamEntriesExamined,
    FullForwards,
    RetireReplays,
    RetireViolations,
    kCount
};

/** Golden checker. */
enum class CheckerStat : unsigned
{
    RetirementsChecked,
    Failures,
    FailuresStoreCommit,
    SquashesSeen,
    kCount
};

/** Fault injector. */
enum class FaultStat : unsigned
{
    SfcMaskFaults,
    SfcDataFaults,
    MdtEvictFaults,
    FifoPayloadFaults,
    kCount
};

} // namespace slf::obs

#endif // SLFWD_OBS_STAT_IDS_HH_
