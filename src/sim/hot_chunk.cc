/**
 * @file
 * The hot-chunk tier of Machine::run(): a lean cycle loop for busy
 * spans between events. See machine.hh for the regime argument; the
 * short version is that a chunk only runs while the per-cycle
 * bookkeeping of Machine::step() is provably loop-invariant, so it
 * is hoisted (event horizon) or settled as a span (wait tallies,
 * busyCycles) exactly the way Machine::fastForward() settles dead
 * spans. Everything with semantic content — EX handlers, redirects,
 * traps, vector entry, the schedule pick — runs the unmodified stage
 * code.
 *
 * The cycle loop is mirrored inline rather than calling step():
 * Machine::step() inlines advancePipe/EX/issue into its own TU, so a
 * cross-TU call per stage would erase the advantage. The mirror must
 * stay a specialisation of machine.cc / stage_issue.cc /
 * stage_execute.cc: readiness is IssueStage::readyMask() with the
 * wait/activity checks replaced by the frozen candidate mask, the
 * pendingVector probe elided until the trap sentinel proves a vector
 * can exist, and the per-stream dep masks patched incrementally for
 * touched streams only. Per-cycle stepping is the oracle;
 * tests/test_batch.cc holds the two bit-identical across every
 * workload the fuzzer can produce.
 */

#include <algorithm>
#include <bit>
#include <vector>

#include "isa/instruction.hh"
#include "isa/predecode.hh"
#include "sim/machine.hh"
#include "sim/trace.hh"

namespace disc
{

namespace
{

/** Dep-mask bits whose write retargets interrupt state (IRR/IMR):
 *  any instruction naming them as destination can change stream
 *  activity or raise from EX, so it ends a hot chunk like the
 *  dedicated stream-control ops do. */
constexpr std::uint32_t kIntCtlWrites =
    (1u << reg::IRR) | (1u << reg::IMR);

/** True when the issued slot may execute without leaving the hot
 *  regime. */
inline bool
hotIssue(const PipeSlot &slot)
{
    return hotChunkUop(slot.uop) && (slot.writesMask & kIntCtlWrites) == 0;
}

} // namespace

const char *
hotExitName(HotExit e)
{
    switch (e) {
      case HotExit::Event: return "event";
      case HotExit::NonHot: return "non-hot";
      case HotExit::Stall: return "stall";
      case HotExit::Budget: return "budget";
      case HotExit::NumReasons: break;
    }
    return "?";
}

/** Cycles until no unexecuted in-flight slot would leave the hot
 *  regime at EX (0: none is in flight) — a chunk must not start while
 *  one is pending. */
Cycle
Machine::coldCyclesLeft() const
{
    const unsigned ex_stage = cfg_.pipeDepth - 2;
    for (unsigned k = 0; k < cfg_.pipeDepth; ++k) {
        const PipeSlot &slot = pipeAt(k);
        if (slot.valid && !slot.squashed && !slot.executed &&
            !hotIssue(slot))
            return k < ex_stage ? ex_stage - k : 1;
    }
    return 0;
}

/**
 * One chunk attempt from run(): refuse (and pace the next attempt), or
 * run a chunk of at most @p budget cycles. Returns true when run()
 * should loop back without stepping: after a Budget exit, and after a
 * NonHot exit so the next iteration paces while step() carries the
 * cold op through EX. On a refusal, an Event exit (step() fires the
 * event) or a Stall exit it returns false.
 */
bool
Machine::tryHotChunk(Cycle budget, HotPacing &pacing)
{
    Cycle cold = coldCyclesLeft();
    Cycle next = cold ? 0 : timing_.nextEventTime();
    if (cold || next < stats_.cycles + cfg_.pipeDepth) {
        // Step a cold op through EX first, or let a close event fire:
        // a chunk shorter than a pipe refill cannot repay its setup.
        // The wait grows while refusals repeat, so code that meets
        // cold ops or events this densely (the bus kernels) rarely
        // pays for the probe.
        pacing.hold =
            (cold ? stats_.cycles + cold : next + 1) + pacing.backoff;
        pacing.backoff = std::min<Cycle>(2 * pacing.backoff + 1, 64);
        return false;
    }
    const Cycle start = stats_.cycles;
    HotExit why = hotChunk(budget);
    ++stats_.hotExits[static_cast<unsigned>(why)];
    if (stats_.cycles - start >= cfg_.pipeDepth)
        pacing.backoff = 0;
    if (why == HotExit::Stall) {
        // Nothing can issue until an event fires: step() drains the
        // pipe and fast-forward takes the rest of the span.
        next = timing_.nextEventTime();
        pacing.hold = next == kNoEvent ? kNoEvent : next + 1;
    }
    return why == HotExit::NonHot || why == HotExit::Budget;
}

/**
 * The lean cycle loop: step up to @p budget cycles inside the frozen
 * regime described in machine.hh and return the reason the chunk
 * ended. Cycles advance by hot-stepped cycles plus any superblock
 * spans entered from the chunk.
 */
__attribute__((noinline)) HotExit
Machine::hotChunk(Cycle budget)
{
    const Cycle start = stats_.cycles;
    Cycle end_at = start + budget;
    HotExit at_end = HotExit::Budget;
    if (Cycle next = timing_.nextEventTime(); next < end_at) {
        end_at = next;
        at_end = HotExit::Event;
    }

    const bool allow_sb = sbEnabled_;
    const unsigned depth = cfg_.pipeDepth;
    const unsigned ex_stage = depth - 2;
    const UopTable<ExecFn> &extab = execTable();
    ExecTrace *const etrace = execTrace_;

    // Frozen per-stream categories (see machine.hh): recomputed after
    // every superblock span, invariant across hot-stepped cycles.
    unsigned cand = 0;
    unsigned wait_mask = 0;
    bool vec_watch = false;
    std::uint64_t sentinel = 0;
    Cycle span_start = start;

    auto freeze = [&] {
        cand = 0;
        wait_mask = 0;
        vec_watch = false;
        for (StreamId s = 0; s < kNumStreams; ++s) {
            if (streams_[s].wait != WaitState::Ready)
                wait_mask |= 1u << s;
            else if (intUnit_.isActive(s))
                cand |= 1u << s;
            if ((intUnit_.ir(s) & intUnit_.mr(s) & ~1u) != 0)
                vec_watch = true;
        }
        sentinel = stats_.illegalInstructions + stats_.stackOverflows;
        span_start = stats_.cycles;
    };

    // Settle the span since span_start: every cycle of it had the
    // frozen categories and at least one engaged stream, so the
    // per-cycle tallies of finishCycle() collapse to span additions
    // (the fastForward() licence).
    // Bubbles accumulate locally (nothing reads the counter inside a
    // chunk) and flush with the span tallies.
    std::uint64_t bub = 0;

    auto settle = [&] {
        stats_.bubbles += bub;
        bub = 0;
        Cycle span = stats_.cycles - span_start;
        span_start = stats_.cycles;
        if (span == 0)
            return;
        stats_.hotCycles += span;
        for (StreamId s = 0; s < kNumStreams; ++s) {
            if (wait_mask & (1u << s))
                stats_.waitAbiCycles[s] += span;
            else if (cand & (1u << s))
                stats_.readyCycles[s] += span;
            else
                stats_.inactiveCycles[s] += span;
        }
        stats_.busyCycles += span;
    };

    // Readiness cache — the incremental mirror of readyMask().
    // Per-candidate dep masks, live
    // slot counts and ready bits are rebuilt wholesale at freeze()
    // and then maintained in place at the sites that change them. The
    // two per-cycle sites are O(1): a retirement that empties its
    // stream's pipe share clears the masks directly — and, with no
    // vector live, an empty pipe share means unconditionally ready —
    // and an issue ORs the predecoded masks of the new slot in. Only
    // the rare sites (redirect squashes, traps, a retire that leaves
    // older slots behind) fall back to re-scanning the pipe, which is
    // what makes the steady-state readiness cost independent of pipe
    // depth.
    std::uint32_t in_writes[kNumStreams] = {};
    std::uint32_t in_reads[kNumStreams] = {};
    std::uint8_t flight_n[kNumStreams] = {};
    // Predecode entry at each candidate's current pc, refreshed by
    // every non-vectored readyBit() — pc changes always pass through
    // recompute()/rebuild(), so the pointer is fresh at issue time
    // whenever no vector redirected the pc (the vec_watch issue path
    // re-reads the table directly).
    const PredecodedInst *pd_cache[kNumStreams] = {};
    unsigned in_flight = 0;
    unsigned ready = 0;
    std::uint64_t redirects0 = 0;

    auto gatherStream = [&](StreamId s) {
        std::uint32_t w = 0;
        std::uint32_t r = 0;
        unsigned n = 0;
        for (unsigned d = 0; d < depth; ++d) {
            const PipeSlot &sl = pipe_[d];
            if (sl.valid && !sl.squashed && sl.stream == s) {
                w |= sl.writesMask;
                r |= sl.readsMask;
                ++n;
            }
        }
        in_writes[s] = w;
        in_reads[s] = r;
        flight_n[s] = static_cast<std::uint8_t>(n);
        if (n)
            in_flight |= 1u << s;
        else
            in_flight &= ~(1u << s);
    };

    // One candidate's ready bit; must track IssueStage::readyMask()
    // (the wait/activity filters are the frozen cand mask, the vector
    // probe is elided until vec_watch).
    auto readyBit = [&](StreamId s) -> unsigned {
        if (vec_watch && intUnit_.pendingVector(s)) {
            // Vectored fetches skip the interlock but serialise
            // against the pipe.
            return (in_flight & (1u << s)) ? 0u : 1u << s;
        }
        const PredecodedInst &pd = pdec_.at(streams_[s].pc);
        pd_cache[s] = &pd;
        if (!pd.legal)
            return 1u << s; // issue consumes it and raises the trap
        if ((pd.readsMask & in_writes[s]) ||
            ((pd.writesMask & kDepAwp) && (in_reads[s] & kDepAwp)))
            return 0; // interlock
        return 1u << s;
    };

    /** Re-derive one candidate's ready bit from the current cache. */
    auto recompute = [&](StreamId s) {
        unsigned bit = 1u << s;
        ready = (ready & ~bit) | readyBit(s);
    };

    auto rebuild = [&] {
        ready = 0;
        in_flight = 0;
        for (unsigned bits = cand; bits != 0; bits &= bits - 1)
            gatherStream(static_cast<StreamId>(std::countr_zero(bits)));
        for (unsigned bits = cand; bits != 0; bits &= bits - 1)
            ready |= readyBit(static_cast<StreamId>(std::countr_zero(bits)));
        redirects0 = stats_.redirects;
    };

    freeze();
    rebuild();

    while (stats_.cycles < end_at) {
        // cand is frozen: it can only change at freeze(), so the
        // stall test belongs here, not in the cycle loop.
        if (cand == 0) {
            settle();
            return HotExit::Stall;
        }
        if (allow_sb && stats_.cycles >= sblock_.retryAt()) {
            // Flush the hot span first: an engaged block settles its
            // own cycles, so they must not sit between span_start and
            // the next settle().
            settle();
            if (sblock_.execute(end_at - stats_.cycles)) {
                // The block may have changed activity (CLRI/HALT
                // execute in-block) or left an external access at EX
                // — re-establish the regime before hot-stepping on.
                // Its cycles count as superblock cycles, not hot ones.
                if (coldCyclesLeft() != 0)
                    return HotExit::NonHot;
                freeze();
                rebuild();
                continue;
            }
        }
        // The superblock retry memo bounds an inner span free of
        // per-cycle retry probes: when the memo is in the future the
        // next attempt lands exactly where per-cycle run() would make
        // it. A memo-free reject (ra in the past) re-attempts at the
        // span end instead of every cycle — engagement timing is not
        // architecturally visible (the block is bit-identical to
        // stepping), only the sb attempt diagnostics move, and the
        // span is guaranteed non-empty either way.
        Cycle inner_end = end_at;
        if (allow_sb) {
            Cycle ra = sblock_.retryAt();
            if (ra > stats_.cycles && ra < inner_end)
                inner_end = ra;
        }

      while (stats_.cycles < inner_end) {
        // One architectural cycle: Machine::step() with the dispatch
        // probe hoisted (event horizon), the tallies deferred to
        // settle(), readiness patched from the cache, and the stage
        // bodies mirrored inline (superblock.cc discipline: must
        // track machine.cc / stage_issue.cc / stage_execute.cc).
        // advancePipe(): the ring head moves back one slot; the slot
        // it lands on is the retiring WR, cleared to become new IF.
        const unsigned head = pipeHead_ == 0 ? depth - 1 : pipeHead_ - 1;
        PipeSlot &wrs = pipe_[head];
        const bool retiring =
            wrs.valid && !wrs.squashed && (cand & (1u << wrs.stream));
        const StreamId rs = wrs.stream;
        // Defer the slot clear: issue overwrites every PipeSlot field,
        // so until then dropping the valid bit is enough for every
        // in-cycle pipe walk — including the re-gather below, which
        // must no longer see the retiring slot. The bubble and
        // illegal paths restore the full advancePipe() clear for
        // checkpoint-byte parity.
        wrs.valid = false;
        pipeHead_ = head; // live before any handler walks pipeAt()
        if (retiring) {
            // Retirement sheds the slot's dep masks. The common case
            // leaves the stream's pipe share empty: clear the cache
            // in place — and with no vector live an empty share means
            // ready outright (no interlock is possible, and an
            // illegal pc still issues: it is consumed by the trap).
            if (--flight_n[rs] == 0) {
                in_writes[rs] = 0;
                in_reads[rs] = 0;
                in_flight &= ~(1u << rs);
                if (!vec_watch)
                    ready |= 1u << rs;
                else
                    recompute(rs);
            } else {
                gatherStream(rs);
                recompute(rs);
            }
        }

        unsigned ei = head + ex_stage;
        if (ei >= depth)
            ei -= depth;
        PipeSlot &exs = pipe_[ei];
        if (exs.valid && !exs.squashed && !exs.executed) {
            exs.executed = true;
            extab[exs.uop](executeStage_, exs);
            if (stats_.redirects != redirects0) {
                redirects0 = stats_.redirects;
                if (cand & (1u << exs.stream)) {
                    // pc moved, younger same-stream slots squashed.
                    gatherStream(exs.stream);
                    recompute(exs.stream);
                }
            }
            if (etrace && !exs.squashed)
                etrace->record(stats_.cycles, exs.stream, exs.pc,
                               exs.inst);
        }

        if (std::uint64_t s2 =
                stats_.illegalInstructions + stats_.stackOverflows;
            s2 != sentinel) {
            sentinel = s2;
            vec_watch = true; // a trap raised: vectors can exist now
            ready = 0;
            for (unsigned bits = cand; bits != 0; bits &= bits - 1)
                gatherStream(
                    static_cast<StreamId>(std::countr_zero(bits)));
            for (unsigned bits = cand; bits != 0; bits &= bits - 1)
                ready |=
                    readyBit(static_cast<StreamId>(std::countr_zero(bits)));
        }

        bool cold_issued = false;
        StreamId s = sched_.pick(ready);
        if (s == kNoStream) {
            ++bub;
            pipe_[head] = PipeSlot{}; // bubble: full advancePipe clear
        } else {
            StreamCtx &c = streams_[s];
            if (vec_watch) {
                if (auto vec = intUnit_.pendingVector(s))
                    vectorStage_.takeVector(s, *vec);
            }
            // A vector entry just moved the pc past the cached entry;
            // otherwise the last readyBit() looked this pc up already.
            const PredecodedInst &pd =
                vec_watch ? pdec_.at(c.pc) : *pd_cache[s];
            if (!pd.legal) {
                ++stats_.illegalInstructions;
                raiseInternal(s, kIllegalInstBit);
                sentinel = stats_.illegalInstructions +
                           stats_.stackOverflows;
                vec_watch = true;
                pipe_[head] = PipeSlot{}; // no slot: full clear
            } else {
                PipeSlot &slot = pipe_[head]; // stage 0 = IF
                slot.valid = true;
                slot.squashed = false;
                slot.executed = false;
                slot.stream = s;
                slot.pc = c.pc;
                slot.inst = pd.inst;
                slot.readsMask = pd.readsMask;
                slot.writesMask = pd.writesMask;
                slot.uop = pd.uop;
                slot.tag = nextTag_;
                nextTag_ = nextTag_ == 'z' ? 'a'
                                           : static_cast<char>(nextTag_ + 1);
                cold_issued = !hotIssue(slot);
                // The new slot joins the stream's in-flight masks.
                if (flight_n[s]++ == 0) {
                    in_writes[s] = pd.writesMask;
                    in_reads[s] = pd.readsMask;
                } else {
                    in_writes[s] |= pd.writesMask;
                    in_reads[s] |= pd.readsMask;
                }
                in_flight |= 1u << s;
            }
            ++c.pc;
            recompute(s); // pc moved / new in-flight slot
        }
        ++stats_.cycles;

        if (cold_issued) {
            settle();
            return HotExit::NonHot;
        }
      } // inner span (to the next superblock attempt or the chunk end)
    }

    settle();
    return at_end;
}

} // namespace disc
