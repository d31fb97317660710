/**
 * @file
 * The cycle-accurate DISC1 machine model (paper section 3.7).
 *
 * DISC1 is a 16-bit Harvard load/store machine with up to four
 * resident instruction streams, a four-stage pipeline (IF, ID/RR, EX,
 * WR), a 16-slot hardware scheduler with dynamic reallocation, a
 * stack-window register file per stream, 2 KB of shared internal
 * memory, an asynchronous external data bus with a pseudo-DMA
 * interface, and per-stream vectored interrupts.
 *
 * Pipeline model
 * --------------
 * One instruction issues per cycle from the stream chosen by the
 * scheduler. Semantics execute when an instruction reaches the EX
 * stage (depth-2); the WR stage models writeback occupancy. Data
 * hazards are modelled with a per-stream interlock: a stream cannot
 * issue an instruction whose sources (registers, flags, AWP, MULH
 * latch) are written by one of its own in-flight instructions — the
 * interleaving principle means other streams use those slots instead.
 *
 * Control hazards follow the paper's simplifying assumption: when a
 * redirect executes (taken branch, jump, call, return, vector entry),
 * all younger in-flight instructions of the same stream are flushed.
 *
 * External accesses (LD/ST) hand the access to the ABI at EX. If the
 * bus is busy, the instruction itself is flushed and retried when the
 * stream leaves its wait state; if the access starts with a non-zero
 * access time, younger same-stream instructions are flushed and the
 * stream waits. Completion writes the destination register and
 * re-activates all waiting streams.
 *
 * A "standard processor" baseline mode is provided (single stream,
 * pipe halts during external waits instead of flushing) matching the
 * Ps model of section 4.1.
 *
 * Timing core
 * -----------
 * The cycle loop is event-scheduled (sim/stages.hh): devices and the
 * ABI register completions/expiries with a min-heap event queue
 * instead of being polled every cycle, step() delegates to per-stage
 * modules, and run() fast-forwards across spans where every resident
 * stream is waiting or inactive. Skipped cycles are still counted in
 * MachineStats (the paper's tables are defined over architectural
 * cycles), so both stepping modes produce bit-identical results.
 *
 * Hot chunks
 * ----------
 * Between events, run() also steps busy cycles through a lean loop
 * (sim/hot_chunk.cc) that hoists step()'s per-cycle bookkeeping. A
 * chunk is entered only when nothing attached wants per-cycle hooks
 * (no PipeTrace or observer; exec traces are recorded in-chunk at EX),
 * the machine is not in the baseline halt mode, no unexecuted cold
 * op (hotChunkUop() false) is in flight, and the next event is at
 * least a pipe depth away. Inside a chunk three facts hold, each
 * pinned by a chunk-ending rule:
 *
 *  - No queued event fires: the chunk runs strictly below the event
 *    horizon (TimingKernel::nextEventTime()), and only cold ops (LD/ST,
 *    device access) can schedule new events — so the per-cycle
 *    dispatch() probe is hoisted to one horizon computation.
 *  - Every stream's wait state and activity are frozen: waits change
 *    only via the ABI (LD/ST are cold, completions are events) and
 *    activity only via CLRI/HALT/FORK/FORKR/SWI/IRR/IMR writes (all
 *    cold — they end the chunk when issued) or raises on the issuing
 *    stream itself, which is necessarily already active. The
 *    per-stream ready/waitAbi/inactive tallies and busyCycles are
 *    therefore constant per cycle and settle as one span at chunk
 *    exit — the same licence fastForward() uses.
 *  - Vectors appear only through traps: own-stream raises (illegal
 *    instruction, stack overflow) are the only in-chunk sources of a
 *    pending vector. Both bump a stats counter, so a two-counter
 *    sentinel checked between EX and issue upgrades the trimmed
 *    readiness mirror to the full vector-aware one exactly when
 *    needed.
 *
 * Everything else — handlers, redirects, traps, vector entry, the
 * scheduler pick, interlocks, superblock attempts — runs the real
 * code, so traces, checkpoints, stats and run digests are bit-identical
 * to per-cycle stepping. MachineConfig::batchExec = false or
 * DISC_NO_BATCH=1 keeps run() off this tier.
 */

#ifndef DISC_SIM_MACHINE_HH
#define DISC_SIM_MACHINE_HH

#include <array>
#include <memory>
#include <vector>

#include "arch/bus.hh"
#include "arch/interrupts.hh"
#include "arch/memory.hh"
#include "arch/scheduler.hh"
#include "arch/stack_window.hh"
#include "common/stats.hh"
#include "common/types.hh"
#include "isa/instruction.hh"
#include "isa/predecode.hh"
#include "isa/program.hh"
#include "isa/uops.hh"
#include "sim/observer.hh"
#include "sim/pipeline_state.hh"
#include "sim/stages.hh"
#include "sim/superblock.hh"
#include "sim/trace.hh"

namespace disc
{

/** Machine construction parameters. */
struct MachineConfig
{
    /** Pipeline depth in stages (>= 3; DISC1 uses 4). */
    unsigned pipeDepth = kDisc1PipeDepth;

    /** Scheduler policy (dynamic reallocation vs strict static). */
    Scheduler::Mode schedMode = Scheduler::Mode::Dynamic;

    /**
     * Branch delay slots: on a taken control transfer, this many of
     * the stream's in-flight younger instructions (in program order
     * after the branch) execute instead of being flushed — the
     * conventional alternative the paper contrasts with interleaving.
     * Only instructions already fetched benefit; programs must be
     * scheduled delay-slot aware. Default 0 (DISC semantics).
     */
    unsigned branchDelaySlots = 0;

    /**
     * Standard-processor baseline: halt the whole pipe during external
     * waits (no flush, no overlap) — the single-stream machine the
     * paper compares against.
     */
    bool baselineHaltOnWait = false;

    /** First word of stream 0's stack region in internal memory. */
    Addr stackBase = kStackRegionBase;

    /** Words of stack region per stream. */
    Addr stackWords = kStackRegionWords;

    /**
     * Let run() jump over cycles where nothing observable can happen
     * (all streams waiting/inactive, no event due). Semantics- and
     * stats-preserving; disable to force per-cycle stepping. The
     * DISC_NO_FASTFORWARD environment variable (set non-zero)
     * overrides this to false.
     */
    bool fastForward = true;

    /**
     * Execute straight-line code through the superblock translation
     * tier (sim/superblock.hh) when the machine is in the single-
     * active-stream regime. Bit-identical to per-cycle stepping; the
     * DISC_NO_SUPERBLOCK environment variable (set non-zero)
     * overrides this to false.
     */
    bool superblockExec = true;

    /** Maximum words per translated superblock (>= 1). */
    unsigned superblockMaxLen = 64;

    /**
     * Let run() step busy cycles between events through hot chunks
     * (see the file comment). Bit-identical to per-cycle stepping; the
     * DISC_NO_BATCH environment variable (set non-zero) overrides this
     * to false.
     */
    bool batchExec = true;
};

/** Why run() left a hot chunk. */
enum class HotExit : std::uint8_t
{
    Event,  ///< a queued device/ABI event reached the horizon
    NonHot, ///< a cold op issued (LD/ST, stream/interrupt control)
    Stall,  ///< no stream both active and ABI-ready (fast-forward regime)
    Budget, ///< the run() budget ran out
    NumReasons,
};

/** Number of distinct hot-chunk exit reasons. */
constexpr unsigned kNumHotExits = static_cast<unsigned>(HotExit::NumReasons);

/** Printable exit-reason name ("event", "non-hot", ...). */
const char *hotExitName(HotExit e);

/**
 * True when @p u may issue without ending a hot chunk. External
 * accesses change wait states; SWI/CLRI/HALT/FORK/FORKR change stream
 * activity — both would break the frozen-tally invariant, so they end
 * the chunk at issue and execute on the per-cycle path. (SCHED and
 * RETI stay hot: slot-table and running-level changes touch neither
 * waits nor activity.)
 */
constexpr bool
hotChunkUop(Uop u)
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

/** Counters exposed by the machine. */
struct MachineStats
{
    Cycle cycles = 0;          ///< total cycles simulated
    Cycle busyCycles = 0;      ///< cycles with any stream engaged
    std::array<std::uint64_t, kNumStreams> retired{};
    std::uint64_t totalRetired = 0;
    std::uint64_t squashedJump = 0;   ///< flushed by control redirects
    std::uint64_t squashedWait = 0;   ///< flushed by external accesses
    std::uint64_t squashedDeact = 0;  ///< flushed by HALT/CLRI deactivation
    std::uint64_t bubbles = 0;        ///< issue slots with no ready stream
    std::uint64_t redirects = 0;      ///< taken control transfers
    std::uint64_t jumpTypeRetired = 0;
    std::uint64_t externalReads = 0;
    std::uint64_t externalWrites = 0;
    std::uint64_t busBusyRejections = 0;
    std::uint64_t vectorsTaken = 0;
    std::uint64_t stackOverflows = 0;
    std::uint64_t illegalInstructions = 0;
    std::uint64_t busFaults = 0;

    /**
     * Per-stream wait-state breakdown: every simulated cycle each
     * stream is counted as ready (active, may be scheduled), waiting
     * on the ABI (bus-free retry or own access in flight), or
     * inactive. The three sum to `cycles` per stream.
     */
    std::array<std::uint64_t, kNumStreams> readyCycles{};
    std::array<std::uint64_t, kNumStreams> waitAbiCycles{};
    std::array<std::uint64_t, kNumStreams> inactiveCycles{};

    /**
     * Fast-forward accounting: cycles covered by event-skip jumps
     * (still included in `cycles` and every per-cycle counter above)
     * and the number of jumps taken. These are the only counters that
     * differ between stepping modes.
     */
    Cycle fastForwardedCycles = 0;
    std::uint64_t fastForwards = 0;

    /**
     * Superblock-tier accounting: cycles simulated inside translated
     * blocks (included in `cycles` and every per-cycle counter
     * above), block-executor engagements, and exits by bail reason
     * (indexed by SbBail). Like the fast-forward counters, these are
     * diagnostics of the stepping mode, not architectural state, and
     * are excluded from checkpoints and digests.
     */
    Cycle superblockCycles = 0;
    std::uint64_t superblockEnters = 0;
    std::array<std::uint64_t, kNumSbBails> superblockBails{};

    /**
     * Hot-chunk accounting: cycles stepped inside hot chunks (included
     * in `cycles`; superblock spans entered from a chunk count as
     * superblockCycles instead) and chunk exits by reason (indexed by
     * HotExit; one exit per chunk). Stepping-mode diagnostics like the
     * two families above, excluded from checkpoints and digests.
     */
    Cycle hotCycles = 0;
    std::array<std::uint64_t, kNumHotExits> hotExits{};

    /** Utilisation: retired instructions per machine-busy cycle. */
    double utilization() const;

    /**
     * The paper's standard-processor utilisation computed from this
     * run's totals: E / (E + B + (pipe-1) * Njump), with B the data
     * bus busy cycles (passed in) and the pipe depth of the run.
     */
    double standardPs(Cycle bus_busy_cycles, unsigned pipe_depth) const;
};

/** The DISC1 machine. */
class Machine
{
  public:
    explicit Machine(MachineConfig cfg = {});

    /** Load a program (code + internal-memory preloads) and reset. */
    void load(const Program &prog);

    /** Reset architectural state; keeps the loaded program/devices. */
    void reset();

    /** Map a device on the external data bus. */
    void attachDevice(Addr base, Addr size, Device *device);

    /** Activate stream @p s at @p entry (external FORK). */
    void startStream(StreamId s, PAddr entry);

    /** Raise an external interrupt request. */
    void raiseExternal(StreamId s, unsigned bit);

    /** Advance one cycle. */
    void step();

    /**
     * Run until idle (all streams inactive, pipe drained, bus quiet)
     * or until @p max_cycles elapse. When fast-forward is enabled the
     * kernel jumps over dead spans; results are identical either way.
     * @param stop_when_idle pass false to always run max_cycles.
     * @return cycles actually simulated.
     */
    Cycle run(Cycle max_cycles, bool stop_when_idle = true);

    /** True when nothing can make progress without external input. */
    bool idle() const;

    /** True when run() may skip dead cycles (config + environment). */
    bool fastForwardEnabled() const { return ffEnabled_; }

    /** Override the fast-forward setting (tests, tools). */
    void setFastForward(bool on) { ffEnabled_ = on; }

    /** True when run() may use superblocks (config + environment). */
    bool superblockExecEnabled() const { return sbEnabled_; }

    /** Override the superblock setting (tests, tools). */
    void setSuperblockExec(bool on) { sbEnabled_ = on; }

    /** True when run() may use hot chunks (config + environment). */
    bool batchExecEnabled() const { return batchEnabled_; }

    /** Override the hot-chunk setting (tests, tools). */
    void setBatchExec(bool on) { batchEnabled_ = on; }

    /** Superblock engine (cache inspection in tests/diagnostics). */
    const SuperblockEngine &superblocks() const { return sblock_; }

    // --- Architectural state access (tests, examples, probes) ---

    /** Read an architected register of a stream. */
    Word readReg(StreamId s, unsigned r) const;

    /** Write an architected register of a stream. */
    void writeReg(StreamId s, unsigned r, Word value);

    /** Current fetch PC of a stream. */
    PAddr pc(StreamId s) const;

    /** Stream's stack window. */
    const StackWindow &window(StreamId s) const;

    /** Shared internal memory. */
    InternalMemory &internalMemory() { return imem_; }
    const InternalMemory &internalMemory() const { return imem_; }

    /** Interrupt unit. */
    InterruptUnit &interrupts() { return intUnit_; }
    const InterruptUnit &interrupts() const { return intUnit_; }

    /** Stream scheduler. */
    Scheduler &scheduler() { return sched_; }
    const Scheduler &scheduler() const { return sched_; }

    /** External bus (for decode tests). */
    Bus &bus() { return bus_; }

    /** Asynchronous bus interface. */
    const AsyncBusInterface &abi() const { return abi_; }

    /** Counters. */
    const MachineStats &stats() const { return stats_; }

    /** Interrupt latency samples (cycles from raise to vector entry). */
    const Histogram &latencyHistogram() const { return latency_; }

    /** Attach a pipeline trace recorder (nullptr to detach). */
    void setTrace(PipeTrace *trace) { trace_ = trace; }

    /**
     * Attach a micro-architectural observer (nullptr to detach).
     * Every hook site is guarded by a null check, so a detached
     * machine pays one predictable branch per event at most.
     */
    void setObserver(MachineObserver *obs) { observer_ = obs; }

    /**
     * Attach an instruction-level execution trace (nullptr to
     * detach). External accesses are recorded when they execute at
     * EX, i.e. when the access is handed to the ABI.
     */
    void setExecTrace(ExecTrace *trace) { execTrace_ = trace; }

    /** Pipe depth configured for this machine. */
    unsigned pipeDepth() const { return cfg_.pipeDepth; }

    /**
     * Canonical board spec this machine was composed from (empty for
     * hand-wired machines). Board::attachTo() records it; checkpoint
     * v3 embeds it so restore can verify the receiving machine
     * composed the same board.
     */
    const std::string &boardSpec() const { return boardSpec_; }

    /** Record the canonical board spec (see boardSpec()). */
    void setBoardSpec(std::string spec) { boardSpec_ = std::move(spec); }

    /** True while the stream waits on the ABI. */
    bool isWaiting(StreamId s) const;

    /**
     * Serialize the complete machine state: memories, registers,
     * windows, interrupt state, scheduler, ABI, pipeline contents,
     * statistics, and every attached device (in attach order). The
     * loaded program, device configuration and the latency histogram
     * are NOT included — restore into a machine constructed with the
     * same config, program and devices.
     */
    std::vector<std::uint8_t> saveState() const;

    /**
     * Restore a checkpoint produced by saveState() on an identically
     * configured machine. fatal() on any mismatch.
     */
    void restoreState(const std::vector<std::uint8_t> &bytes);

  private:
    friend class VectorStage;
    friend class IssueStage;
    friend class ExecuteStage;
    friend class AbiStage;
    friend class TimingKernel;
    friend class SuperblockEngine;
    friend struct ExecOps;

    MachineConfig cfg_;
    std::string boardSpec_; ///< canonical board text (checkpoint v3)
    InternalMemory imem_;
    ProgramMemory pmem_;
    PredecodeTable pdec_; ///< per-address decode + dep masks, built at load()
    Bus bus_;
    /// Mutable: lazily-deferred bus time is materialized from const
    /// snapshots (saveState) without changing observable behavior.
    mutable AsyncBusInterface abi_;
    InterruptUnit intUnit_;
    Scheduler sched_;
    std::vector<std::unique_ptr<StackWindow>> windows_;
    std::array<StreamCtx, kNumStreams> streams_;
    std::array<Word, kNumGlobalRegs> globals_{};
    /// Pipeline slots as a ring: stage i lives at
    /// pipe_[(pipeHead_ + i) % depth], stage 0 = IF .. depth-1 = WR.
    /// advancePipe() rotates the head instead of copying slots; use
    /// pipeAt() for stage-indexed access, plain iteration for
    /// order-independent scans (interlocks, engaged()).
    std::vector<PipeSlot> pipe_;
    unsigned pipeHead_ = 0; ///< ring index of the IF stage
    MachineStats stats_;
    Histogram latency_;
    PipeTrace *trace_ = nullptr;
    ExecTrace *execTrace_ = nullptr;
    MachineObserver *observer_ = nullptr;
    std::vector<PipeTrace::StageEntry> traceScratch_;
    char nextTag_ = 'a';
    Cycle haltedUntilBusDone_ = 0; ///< baseline mode flag (bool-ish)
    bool ffEnabled_ = true;
    bool sbEnabled_ = true;
    bool batchEnabled_ = true;

    // Stage modules and the timing kernel (sim/stages.hh). Declared
    // last so they are constructed after the state they reference.
    VectorStage vectorStage_;
    IssueStage issueStage_;
    ExecuteStage executeStage_;
    AbiStage abiStage_;
    SuperblockEngine sblock_;
    mutable TimingKernel timing_; ///< mutable: see abi_ above

    // -- shared helpers (machine.cc) --
    StreamCtx &ctx(StreamId s);
    const StreamCtx &ctx(StreamId s) const;

    /** Slot at pipeline stage @p stage (0 = IF .. depth-1 = WR). */
    PipeSlot &
    pipeAt(unsigned stage)
    {
        unsigned i = pipeHead_ + stage;
        if (i >= cfg_.pipeDepth)
            i -= cfg_.pipeDepth;
        return pipe_[i];
    }
    const PipeSlot &
    pipeAt(unsigned stage) const
    {
        unsigned i = pipeHead_ + stage;
        if (i >= cfg_.pipeDepth)
            i -= cfg_.pipeDepth;
        return pipe_[i];
    }
    StackWindow &win(StreamId s);
    const StackWindow &win(StreamId s) const;

    void raiseInternal(StreamId s, unsigned bit);
    void squashYounger(StreamId s, unsigned ex_stage,
                       std::uint64_t *counter, PipeEvent ev);
    bool engaged() const;
    void recordTrace();
    void advancePipe();
    void finishCycle(bool was_engaged);
    Cycle skippableCycles(Cycle budget) const;
    void fastForward(Cycle span);

    // -- hot-chunk tier (hot_chunk.cc) --
    /** run()'s chunk admission state across one call. */
    struct HotPacing
    {
        Cycle hold = 0;    ///< no chunk attempt before this cycle
        Cycle backoff = 0; ///< extra wait after a refused attempt
    };
    bool tryHotChunk(Cycle budget, HotPacing &pacing);
    Cycle coldCyclesLeft() const;
    HotExit hotChunk(Cycle budget);
};

} // namespace disc

#endif // DISC_SIM_MACHINE_HH
