/**
 * @file
 * Superblock execution tier: per-stream threaded code above the
 * micro-op tables.
 *
 * The per-cycle loop pays a fixed overhead per issued word — the
 * engaged() scan, the event-queue probe, readyMask() over all four
 * streams, the schedule pick and the per-stream tally loop — even
 * when one stream owns the machine and nothing external can happen.
 * This tier translates straight-line runs of predecoded words into
 * *superblocks* (flat arrays of prebuilt pipe slots) and executes
 * whole blocks against the live pipeline with none of that per-cycle
 * bookkeeping, the same shape as QEMU's TCG translation cache driven
 * by an icount budget.
 *
 * Cycle accounting stays exact: the engine only engages when the
 * machine is provably in the single-active-stream regime (all streams
 * ABI-ready, no vector pending, the scheduler guaranteed to pick the
 * runner on every slot, no queued event inside the budget), simulates
 * each architectural cycle — advance, EX handler, interlock, issue —
 * against the real pipe_ array via a rotating head cursor, and bails
 * back to the interpreter the moment anything outside the regime
 * shows up: an external access at EX, a pending vector, a stream
 * deactivation, a cross-stream op, or the icount/event budget
 * expiring. Settling is a fastForward()-style batch update of the
 * cycle tallies, so every MachineStats counter, trace line,
 * checkpoint and digest is bit-identical to the per-cycle path.
 *
 * Translation is keyed by fetch PC alone. The scheduler-visible mode
 * bits (slot table, dynamic-vs-static policy) do not key the cache
 * because the engagement gate already pins them: blocks only run
 * while the scheduler provably awards every pick to the single
 * runner, and any SCHED instruction ends the block at EX before it
 * can change the table. Block contents are a pure function of the
 * program image, so the cache is dropped on program load, reset and
 * checkpoint restore.
 *
 * The per-cycle stage walk remains the oracle: MachineConfig::
 * superblockExec=false or DISC_NO_SUPERBLOCK=1 disables the tier,
 * and the equivalence suite holds the two bit-identical.
 */

#ifndef DISC_SIM_SUPERBLOCK_HH
#define DISC_SIM_SUPERBLOCK_HH

#include <cstdint>
#include <memory>
#include <vector>

#include "common/types.hh"
#include "isa/uops.hh"
#include "sim/pipeline_state.hh"

namespace disc
{

class Machine;
class ExecuteStage;

/** EX handler signature, shared with the micro-op dispatch table. */
using ExecFn = void (*)(ExecuteStage &, PipeSlot &);

/** Resolve a micro-op to its EX handler (sim/stage_execute.cc). */
ExecFn execHandler(Uop u);

/**
 * The whole EX handler table, indexed by Uop. Hot loops fetch it once
 * per span so the per-cycle dispatch is a single indexed indirect
 * call.
 */
const UopTable<ExecFn> &execTable();

/** Why a superblock run handed control back to the interpreter. */
enum class SbBail : std::uint8_t
{
    Branch,    ///< fetch ran into an untranslatable (illegal) word
    Abi,       ///< an external LD/ST reached the EX stage
    Interrupt, ///< vector became pending or the stream deactivated
    Budget,    ///< icount budget expired (run limit or event deadline)
    Stream,    ///< cross-stream op (SWI/FORK/SCHED) reached EX
    NumReasons,
};

/** Number of distinct bail reasons. */
constexpr unsigned kNumSbBails = static_cast<unsigned>(SbBail::NumReasons);

/**
 * Deepest pipeline the block executor engages for (bound for its
 * stack-allocated in-flight rings). Deeper configurations simply stay
 * on the per-cycle path.
 */
constexpr unsigned kSbMaxDepth = 16;

/** Printable bail-reason name ("branch", "abi", ...). */
const char *sbBailName(SbBail b);

/**
 * True when @p u may *execute* inside a superblock. External accesses
 * are excluded (they engage the ABI and wait states), as are the ops
 * with cross-stream or scheduler effects the single-runner engagement
 * gate cannot see coming (SWI, FORK, FORKR, SCHED). Excluded ops
 * still *issue* from a block — they end it when they reach EX.
 */
constexpr bool
superblockExecutable(Uop u)
{
    switch (u) {
      case Uop::LD:
      case Uop::ST:
      case Uop::SWI:
      case Uop::FORK:
      case Uop::FORKR:
      case Uop::SCHED:
        return false;
      default:
        return static_cast<unsigned>(u) < kNumUops;
    }
}

/**
 * In-block classification of a word, precomputed at translation so
 * the cycle loop tests one byte instead of re-deriving properties
 * from the micro-op. Plain words (class 0) can neither redirect nor
 * raise nor leave the tier, which is what licenses the batched stall
 * fast path.
 */
enum : std::uint8_t
{
    kSbClsPlain = 0,   ///< pure register/memory/flag effect
    kSbClsControl = 1, ///< may redirect/park/squash at EX
    kSbClsRaise = 2,   ///< may raise (window op or wctl overflow)
    kSbClsNonExec = 4, ///< never executes in-block (LD/ST/SWI/...)
};

/**
 * True when @p u may redirect, park or squash at EX — the handlers
 * that walk pipe_[] and rewrite the stream PC. The block executor
 * realigns its rotating ring to the canonical stage order before
 * running one of these, then re-chains translation at the (possibly
 * new) fetch PC.
 */
constexpr bool
superblockControl(Uop u)
{
    switch (u) {
      case Uop::JMP:
      case Uop::JR:
      case Uop::CALL:
      case Uop::CALLR:
      case Uop::RET:
      case Uop::RETI:
      case Uop::BR_EQ:
      case Uop::BR_NE:
      case Uop::BR_LT:
      case Uop::BR_GE:
      case Uop::BR_ULT:
      case Uop::BR_UGE:
      case Uop::BR_MI:
      case Uop::BR_PL:
      case Uop::CLRI:
      case Uop::HALT:
        return true;
      default:
        return false;
    }
}

/** The kSbCls* classification of @p u. */
constexpr std::uint8_t
superblockClass(Uop u)
{
    if (!superblockExecutable(u))
        return kSbClsNonExec;
    if (superblockControl(u))
        return kSbClsControl;
    if (u == Uop::WINC || u == Uop::WDEC)
        return kSbClsRaise;
    return kSbClsPlain;
}

/**
 * The superblock translation cache and block executor for one
 * Machine. Owned by the Machine; engaged from run() between the
 * fast-forward check and step().
 */
class SuperblockEngine
{
  public:
    explicit SuperblockEngine(Machine &m) : m_(m) {}

    /**
     * Try to run superblocks for up to @p budget cycles. Returns the
     * number of architectural cycles simulated (0 when the engagement
     * gate refuses or a bail fires before the first cycle); the
     * caller falls through to step() on 0, which guarantees progress.
     */
    Cycle execute(Cycle budget);

    /**
     * Drop every translated block. Fired on program load, reset and
     * checkpoint restore; also clears the engagement-retry memo.
     */
    void invalidate();

    /**
     * No engagement attempt pays off before this cycle (retry memo
     * from a recent reject). run() compares this inline before even
     * calling execute().
     */
    Cycle retryAt() const { return retryAt_; }

    /** Number of PCs with a translated block (tests, diagnostics). */
    std::size_t cachedBlocks() const;

    /** True when a block is cached at @p pc (tests). */
    bool cached(PAddr pc) const;

  private:
    /**
     * One translated superblock: prebuilt pipe slots for a
     * straight-line run of legal words starting at one fetch PC
     * (empty when that word is illegal — issue consumes it as a
     * trap), plus the parallel kSbCls* byte per word. Slot stream/tag
     * are stamped at issue time.
     */
    struct Block
    {
        std::vector<PipeSlot> protos;
        std::vector<std::uint8_t> cls;
    };

    /**
     * The in-block cycle loop: runs blocks for the engaged stream
     * @p s until a bail or the budget expires. @tparam D is the pipe
     * depth as a compile-time constant (0 = read from the config), so
     * the common DISC1 depth folds its ring arithmetic to masks.
     */
    template <unsigned D>
    Cycle blockLoop(StreamId s, Cycle budget, SbBail &reason,
                    std::uint64_t &issued, bool &trap_issued);

    /** Block starting at @p pc, translating on first use. */
    const Block *lookup(PAddr pc);

    std::unique_ptr<Block> translate(PAddr pc) const;

    bool alwaysPicks(StreamId s) const;

    Machine &m_;
    /// Translation cache over the full 16-bit program space, sized
    /// lazily on first engagement so disabled/never-engaged machines
    /// pay nothing.
    std::vector<std::unique_ptr<Block>> cache_;
    /// Engagement-retry memo: no attempt before this cycle. Purely a
    /// performance hint (attempts have no architectural effect);
    /// cleared by invalidate().
    Cycle retryAt_ = 0;
};

} // namespace disc

#endif // DISC_SIM_SUPERBLOCK_HH
