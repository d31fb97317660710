/**
 * @file
 * MachineBatch: batched lockstep execution across N Machines.
 *
 * The stochastic experiments and disc-serve shards both advance many
 * independent Machines with identical structure. Stepping them one at
 * a time pays the full per-cycle bookkeeping of Machine::step() —
 * the engaged() scan, the event-queue probe, the per-stream wait
 * tally, readyMask() over all four streams — for every machine on
 * every cycle. A MachineBatch owns the lanes' scheduling state in a
 * structure-of-arrays BatchArena and advances all of them in lockstep
 * *chunks*: per chunk it proves a regime in which that bookkeeping is
 * loop-invariant, hoists it, and runs a lean cycle loop through the
 * existing stage modules (IssueStage::tickWith, ExecuteStage::tick).
 *
 * The hot-chunk regime and why it is exact
 * ----------------------------------------
 * A chunk is entered only when nothing attached wants per-cycle hooks
 * (no PipeTrace or observer; exec traces are recorded in-chunk at EX,
 * like the superblock tier), the machine is not in the baseline halt
 * mode, and no unexecuted external/cross-stream op is already in
 * flight. Within a chunk three facts hold, each pinned by
 * a chunk-ending rule:
 *
 *  - No queued event fires: the chunk runs strictly below the event
 *    horizon (TimingKernel::nextEventTime()), and only excluded ops
 *    (LD/ST, device access) can schedule new events — so the per-
 *    cycle dispatch() probe is hoisted to one horizon computation.
 *  - Every stream's wait state and activity are frozen: waits change
 *    only via the ABI (LD/ST excluded, completions are events) and
 *    activity only via CLRI/HALT/FORK/FORKR/SWI/IRR/IMR writes (all
 *    excluded — they end the chunk when issued) or raises on the
 *    issuing stream itself, which is necessarily already active. The
 *    per-stream ready/waitAbi/inactive tallies and busyCycles are
 *    therefore constant per cycle and settle as one span at chunk
 *    exit — the same licence Machine::fastForward() uses.
 *  - Vectors appear only through traps: own-stream raises (illegal
 *    instruction, stack overflow) are the only in-chunk sources of a
 *    pending vector. Both bump a stats counter, so a two-counter
 *    sentinel checked between EX and issue upgrades the trimmed
 *    readiness mirror to the full vector-aware one exactly when
 *    needed.
 *
 * Everything else — handlers, redirects, traps, vector entry, the
 * scheduler pick, interlocks, superblock attempts — runs the real
 * code. Machines that leave the regime are peeled to the scalar path
 * (Machine::run()/step()) and re-admitted at the next sync point, so
 * traces, checkpoints, stats and run digests are bit-identical to
 * scalar stepping at every batch width. Like the fast-forward and
 * superblock tiers, the only counters that may differ are the
 * stepping-mode diagnostics (the fastForward/superblock counter
 * families — excluded from checkpoints and digests); BatchStats
 * itself lives outside MachineStats entirely.
 *
 * Opt-out: MachineConfig::batchExec = false or DISC_NO_BATCH=1 sends
 * every lane down the scalar path; MachineBatch remains usable as a
 * plain sequential runner so call sites need no second code path.
 */

#ifndef DISC_SIM_BATCH_HH
#define DISC_SIM_BATCH_HH

#include <array>
#include <cstdint>

#include "common/batch_arena.hh"
#include "common/types.hh"
#include "isa/uops.hh"

namespace disc
{

class Machine;

/** Why a lane left the batched hot lane. */
enum class BatchPeel : std::uint8_t
{
    Event,    ///< queued device/ABI event reached the horizon
    NonHot,   ///< excluded op issued (LD/ST, stream/interrupt control)
    Stall,    ///< no stream both active and ABI-ready (scalar FF regime)
    Done,     ///< lane went idle (stop-when-idle) or budget exhausted
    Baseline, ///< baseline halt-on-wait machine (never batched)
    Observed, ///< pipe trace/observer attached: every cycle must be seen
    Disabled, ///< opted out (config or DISC_NO_BATCH)
    NumReasons,
};

/** Number of distinct peel reasons. */
constexpr unsigned kNumBatchPeels =
    static_cast<unsigned>(BatchPeel::NumReasons);

/** Printable peel-reason name ("event", "non-hot", ...). */
const char *batchPeelName(BatchPeel p);

/**
 * True when @p u may issue without ending a hot chunk. External
 * accesses change wait states; SWI/CLRI/HALT/FORK/FORKR change stream
 * activity — both would break the frozen-tally invariant, so they
 * peel the lane at issue and execute on the scalar path. (SCHED and
 * RETI stay hot: slot-table and running-level changes touch neither
 * waits nor activity.)
 */
constexpr bool
batchHotUop(Uop u)
{
    switch (u) {
      case Uop::LD:
      case Uop::ST:
      case Uop::SWI:
      case Uop::CLRI:
      case Uop::HALT:
      case Uop::FORK:
      case Uop::FORKR:
        return false;
      default:
        return static_cast<unsigned>(u) < kNumUops;
    }
}

/** Aggregate counters for one MachineBatch (diagnostics only). */
struct BatchStats
{
    std::uint64_t dispatches = 0;   ///< run()/step() calls
    std::uint64_t lanesRun = 0;     ///< lanes summed over dispatches
    Cycle hotCycles = 0;            ///< cycles stepped in the hot lane
    Cycle scalarCycles = 0;         ///< cycles delegated to the scalar path
    std::uint64_t hotChunks = 0;    ///< hot-chunk entries
    std::array<std::uint64_t, kNumBatchPeels> peels{};
};

/**
 * A batch of Machines advanced in lockstep. Lanes are added with
 * add() and stay until clear(); run()/step() advance every lane by
 * the same budget, interleaved in bounded quanta so the lanes stay
 * within one sync window of each other.
 */
class MachineBatch
{
  public:
    /** Cycles a lane may advance before the next lane gets the core. */
    static constexpr Cycle kSyncQuantum = 8192;

    explicit MachineBatch(std::size_t capacity = 16);

    /** Add a lane. The machine must outlive the batch (or clear()). */
    void add(Machine *m);

    /** Forget every lane (stats are retained). */
    void clear();

    /** Number of lanes. */
    std::size_t size() const { return arena_.size(); }

    /**
     * Advance every lane as if by Machine::run(max_cycles,
     * stop_when_idle) — bit-identical final state, traces and
     * architectural stats for each machine.
     */
    void run(Cycle max_cycles, bool stop_when_idle = true);

    /**
     * Advance every lane as if by n calls to Machine::step(): no
     * fast-forward, no superblocks, no idle break, no boundary sync —
     * the serve Step-request semantics.
     */
    void step(Cycle n);

    /** Diagnostics (never part of any machine's checkpoint). */
    const BatchStats &stats() const { return stats_; }

  private:
    enum class Mode : std::uint8_t
    {
        Run,  ///< Machine::run() semantics (ff + superblocks + sync)
        Step, ///< bare Machine::step() semantics
    };

    void dispatch(Cycle budget, bool stop_when_idle, Mode mode);

    /** Advance one lane by at most @p slice; returns cycles advanced. */
    Cycle advanceLane(std::size_t i, Cycle slice, bool stop_when_idle,
                      Mode mode);

    /**
     * The lean cycle loop: step @p m up to @p budget cycles inside
     * the frozen regime described in the file comment. Returns cycles
     * advanced (hot-stepped plus any superblock spans) and the peel
     * reason that ended the chunk.
     */
    Cycle hotChunk(Machine &m, Cycle budget, Mode mode, BatchPeel &peel);

    /** Scalar fallback for @p budget cycles under @p mode. */
    Cycle scalarSpan(Machine &m, Cycle budget, bool stop_when_idle,
                     Mode mode);

    BatchArena<Machine *> arena_;
    BatchStats stats_;
};

} // namespace disc

#endif // DISC_SIM_BATCH_HH
