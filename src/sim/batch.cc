/**
 * @file
 * MachineBatch implementation: the lockstep dispatcher and the lean
 * hot-chunk cycle loop. See batch.hh for the regime argument; the
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
 * cross-TU call per stage would erase the batch advantage. The
 * mirror must stay a specialisation of machine.cc / stage_issue.cc /
 * stage_execute.cc: readiness is IssueStage::readyMask() with the
 * wait/activity checks replaced by the frozen candidate mask, the
 * pendingVector probe elided until the trap sentinel proves a vector
 * can exist, and the per-stream dep masks patched incrementally for
 * touched streams only. The scalar path is the oracle;
 * tests/test_batch.cc holds the two bit-identical across every
 * workload the fuzzer can produce.
 */

#include "sim/batch.hh"

#include <bit>
#include <vector>

#include "common/logging.hh"
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
    return batchHotUop(slot.uop) && (slot.writesMask & kIntCtlWrites) == 0;
}

/** True when an in-flight, not-yet-executed slot would leave the hot
 *  regime at EX — a chunk must not start while one is pending. */
inline bool
pipeHasColdInFlight(const std::vector<PipeSlot> &pipe)
{
    for (const PipeSlot &slot : pipe) {
        if (slot.valid && !slot.squashed && !slot.executed &&
            !hotIssue(slot))
            return true;
    }
    return false;
}

} // namespace

const char *
batchPeelName(BatchPeel p)
{
    switch (p) {
      case BatchPeel::Event: return "event";
      case BatchPeel::NonHot: return "non-hot";
      case BatchPeel::Stall: return "stall";
      case BatchPeel::Done: return "done";
      case BatchPeel::Baseline: return "baseline";
      case BatchPeel::Observed: return "observed";
      case BatchPeel::Disabled: return "disabled";
      case BatchPeel::NumReasons: break;
    }
    return "?";
}

MachineBatch::MachineBatch(std::size_t capacity) : arena_(capacity) {}

void
MachineBatch::add(Machine *m)
{
    if (!m)
        fatal("null machine added to a batch");
    arena_.push(m, 0);
}

void
MachineBatch::clear()
{
    arena_.clear();
}

void
MachineBatch::run(Cycle max_cycles, bool stop_when_idle)
{
    dispatch(max_cycles, stop_when_idle, Mode::Run);
}

void
MachineBatch::step(Cycle n)
{
    dispatch(n, false, Mode::Step);
}

Cycle
MachineBatch::hotChunk(Machine &m, Cycle budget, Mode mode,
                       BatchPeel &peel)
{
    const Cycle start = m.stats_.cycles;
    Cycle end_at = start + budget;
    peel = BatchPeel::Done;
    if (Cycle next = m.timing_.nextEventTime(); next != kNoEvent) {
        if (next <= start) {
            peel = BatchPeel::Event;
            return 0;
        }
        if (next < end_at) {
            end_at = next;
            peel = BatchPeel::Event;
        }
    }

    ++stats_.hotChunks;
    const bool allow_sb = mode == Mode::Run && m.sbEnabled_;
    const unsigned depth = m.cfg_.pipeDepth;
    const unsigned ex_stage = depth - 2;
    const UopTable<ExecFn> &extab = execTable();
    ExecTrace *const etrace = m.execTrace_;

    // Frozen per-stream categories (see batch.hh): recomputed after
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
            if (m.streams_[s].wait != WaitState::Ready)
                wait_mask |= 1u << s;
            else if (m.intUnit_.isActive(s))
                cand |= 1u << s;
            if ((m.intUnit_.ir(s) & m.intUnit_.mr(s) & ~1u) != 0)
                vec_watch = true;
        }
        sentinel =
            m.stats_.illegalInstructions + m.stats_.stackOverflows;
        span_start = m.stats_.cycles;
    };

    // Settle the span since span_start: every cycle of it had the
    // frozen categories and at least one engaged stream, so the
    // per-cycle tallies of finishCycle() collapse to span additions
    // (the fastForward() licence).
    // Bubbles accumulate locally (nothing reads the counter inside a
    // chunk) and flush with the span tallies.
    std::uint64_t bub = 0;

    auto settle = [&] {
        m.stats_.bubbles += bub;
        bub = 0;
        Cycle span = m.stats_.cycles - span_start;
        span_start = m.stats_.cycles;
        if (span == 0)
            return;
        stats_.hotCycles += span;
        for (StreamId s = 0; s < kNumStreams; ++s) {
            if (wait_mask & (1u << s))
                m.stats_.waitAbiCycles[s] += span;
            else if (cand & (1u << s))
                m.stats_.readyCycles[s] += span;
            else
                m.stats_.inactiveCycles[s] += span;
        }
        m.stats_.busyCycles += span;
    };

    // Readiness cache — the incremental mirror of readyMask() (see
    // the file comment in batch.hh). Per-candidate dep masks, live
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
            const PipeSlot &sl = m.pipe_[d];
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
        if (vec_watch && m.intUnit_.pendingVector(s)) {
            // Vectored fetches skip the interlock but serialise
            // against the pipe.
            return (in_flight & (1u << s)) ? 0u : 1u << s;
        }
        const PredecodedInst &pd = m.pdec_.at(m.streams_[s].pc);
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
        redirects0 = m.stats_.redirects;
    };

    freeze();
    rebuild();

    while (m.stats_.cycles < end_at) {
        // cand is frozen: it can only change at freeze(), so the
        // stall test belongs here, not in the cycle loop.
        if (cand == 0) {
            settle();
            peel = BatchPeel::Stall;
            return m.stats_.cycles - start;
        }
        if (allow_sb && m.stats_.cycles >= m.sblock_.retryAt()) {
            // Flush the hot span first: an engaged block settles its
            // own cycles, so they must not sit between span_start and
            // the next settle().
            settle();
            if (m.sblock_.execute(end_at - m.stats_.cycles)) {
                // The block may have changed activity (CLRI/HALT
                // execute in-block) or left an external access at EX
                // — re-establish the regime before hot-stepping on.
                // Its cycles still ran under batch dispatch, so they
                // count as hot for the batch diagnostics.
                stats_.hotCycles += m.stats_.cycles - span_start;
                span_start = m.stats_.cycles;
                if (pipeHasColdInFlight(m.pipe_)) {
                    peel = BatchPeel::NonHot;
                    return m.stats_.cycles - start;
                }
                freeze();
                rebuild();
                continue;
            }
        }
        // The superblock retry memo bounds an inner span free of
        // per-cycle retry probes: when the memo is in the future the
        // next attempt lands exactly where scalar run() would make
        // it. A memo-free reject (ra in the past) re-attempts at the
        // span end instead of every cycle — engagement timing is not
        // architecturally visible (the block is bit-identical to
        // stepping), only the sb attempt diagnostics move, and the
        // span is guaranteed non-empty either way.
        Cycle inner_end = end_at;
        if (allow_sb) {
            Cycle ra = m.sblock_.retryAt();
            if (ra > m.stats_.cycles && ra < inner_end)
                inner_end = ra;
        }

      while (m.stats_.cycles < inner_end) {
        // One architectural cycle: Machine::step() with the dispatch
        // probe hoisted (event horizon), the tallies deferred to
        // settle(), readiness patched from the cache, and the stage
        // bodies mirrored inline (superblock.cc discipline: must
        // track machine.cc / stage_issue.cc / stage_execute.cc).
        // advancePipe(): the ring head moves back one slot; the slot
        // it lands on is the retiring WR, cleared to become new IF.
        const unsigned head = m.pipeHead_ == 0 ? depth - 1
                                               : m.pipeHead_ - 1;
        PipeSlot &wrs = m.pipe_[head];
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
        m.pipeHead_ = head; // live before any handler walks pipeAt()
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
        PipeSlot &exs = m.pipe_[ei];
        if (exs.valid && !exs.squashed && !exs.executed) {
            exs.executed = true;
            extab[exs.uop](m.executeStage_, exs);
            if (m.stats_.redirects != redirects0) {
                redirects0 = m.stats_.redirects;
                if (cand & (1u << exs.stream)) {
                    // pc moved, younger same-stream slots squashed.
                    gatherStream(exs.stream);
                    recompute(exs.stream);
                }
            }
            if (etrace && !exs.squashed)
                etrace->record(m.stats_.cycles, exs.stream, exs.pc,
                               exs.inst);
        }

        if (std::uint64_t s2 =
                m.stats_.illegalInstructions + m.stats_.stackOverflows;
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
        StreamId s = m.sched_.pick(ready);
        if (s == kNoStream) {
            ++bub;
            m.pipe_[head] = PipeSlot{}; // bubble: full advancePipe clear
        } else {
            StreamCtx &c = m.streams_[s];
            if (vec_watch) {
                if (auto vec = m.intUnit_.pendingVector(s))
                    m.vectorStage_.takeVector(s, *vec);
            }
            // A vector entry just moved the pc past the cached entry;
            // otherwise the last readyBit() looked this pc up already.
            const PredecodedInst &pd =
                vec_watch ? m.pdec_.at(c.pc) : *pd_cache[s];
            if (!pd.legal) {
                ++m.stats_.illegalInstructions;
                m.raiseInternal(s, kIllegalInstBit);
                sentinel = m.stats_.illegalInstructions +
                           m.stats_.stackOverflows;
                vec_watch = true;
                m.pipe_[head] = PipeSlot{}; // no slot: full clear
            } else {
                PipeSlot &slot = m.pipe_[head]; // stage 0 = IF
                slot.valid = true;
                slot.squashed = false;
                slot.executed = false;
                slot.stream = s;
                slot.pc = c.pc;
                slot.inst = pd.inst;
                slot.readsMask = pd.readsMask;
                slot.writesMask = pd.writesMask;
                slot.uop = pd.uop;
                slot.tag = m.nextTag_;
                m.nextTag_ = m.nextTag_ == 'z'
                                 ? 'a'
                                 : static_cast<char>(m.nextTag_ + 1);
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
        ++m.stats_.cycles;

        if (cold_issued) {
            settle();
            peel = BatchPeel::NonHot;
            return m.stats_.cycles - start;
        }
      } // inner span (to the next superblock attempt or the chunk end)
    }

    settle();
    return m.stats_.cycles - start;
}

Cycle
MachineBatch::scalarSpan(Machine &m, Cycle budget, bool stop_when_idle,
                         Mode mode)
{
    if (mode == Mode::Run)
        return m.run(budget, stop_when_idle);
    for (Cycle i = 0; i < budget; ++i)
        m.step();
    return budget;
}

Cycle
MachineBatch::advanceLane(std::size_t i, Cycle slice, bool stop_when_idle,
                          Mode mode)
{
    Machine &m = *arena_.lane(i);
    Cycle done = 0;
    while (done < slice) {
        Cycle left = slice - done;
        if (mode == Mode::Run && stop_when_idle && m.idle()) {
            arena_.state(i) = LaneState::Done;
            break;
        }

        // Admission: reasons that hold for the whole slice go scalar
        // in one span; transient ones retry the hot lane after a
        // bounded scalar stretch.
        BatchPeel blocked = BatchPeel::NumReasons;
        if (!m.batchEnabled_)
            blocked = BatchPeel::Disabled;
        else if (m.trace_ || m.observer_)
            blocked = BatchPeel::Observed;
        else if (m.cfg_.baselineHaltOnWait || m.haltedUntilBusDone_)
            blocked = BatchPeel::Baseline;
        if (blocked != BatchPeel::NumReasons) {
            ++stats_.peels[static_cast<unsigned>(blocked)];
            Cycle n = scalarSpan(m, left, stop_when_idle, mode);
            stats_.scalarCycles += n;
            done += n;
            if (n < left)
                arena_.state(i) = LaneState::Done; // idle break
            break;
        }
        if (pipeHasColdInFlight(m.pipe_)) {
            // An excluded op is on its way to EX: step it through on
            // the scalar path (at most one pipe depth), then retry.
            ++stats_.peels[static_cast<unsigned>(BatchPeel::NonHot)];
            Cycle span = std::min<Cycle>(left, m.cfg_.pipeDepth);
            Cycle n = scalarSpan(m, span, stop_when_idle, mode);
            stats_.scalarCycles += n;
            done += n;
            if (n < span) {
                arena_.state(i) = LaneState::Done;
                break;
            }
            continue;
        }

        BatchPeel peel = BatchPeel::Done;
        Cycle n = hotChunk(m, left, mode, peel);
        done += n;
        ++stats_.peels[static_cast<unsigned>(peel)];
        if (done >= slice)
            break;
        switch (peel) {
          case BatchPeel::Event: {
            // Cross the event cycle on the scalar path (dispatch
            // fires at the top of step()).
            Cycle w = scalarSpan(m, 1, stop_when_idle, mode);
            stats_.scalarCycles += w;
            done += w;
            if (w == 0)
                arena_.state(i) = LaneState::Done; // idle break
            break;
          }
          case BatchPeel::Stall: {
            // Nothing can issue until an event or forever: the scalar
            // path fast-forwards this span (or, in step mode, pays
            // the per-cycle walk exactly like a scalar step loop).
            Cycle w = scalarSpan(m, left - n, stop_when_idle, mode);
            stats_.scalarCycles += w;
            done += w;
            if (w < left - n)
                arena_.state(i) = LaneState::Done;
            break;
          }
          case BatchPeel::NonHot:
          default:
            break; // loop re-checks admission / runs the next chunk
        }
    }
    return done;
}

void
MachineBatch::dispatch(Cycle budget, bool stop_when_idle, Mode mode)
{
    ++stats_.dispatches;
    stats_.lanesRun += arena_.size();
    for (std::size_t i = 0; i < arena_.size(); ++i) {
        arena_.remaining(i) = budget;
        arena_.advanced(i) = 0;
        arena_.state(i) =
            budget > 0 ? LaneState::Hot : LaneState::Done;
    }

    bool live = arena_.size() > 0 && budget > 0;
    while (live) {
        live = false;
        for (std::size_t i = 0; i < arena_.size(); ++i) {
            if (arena_.state(i) == LaneState::Done)
                continue;
            Cycle slice = std::min(kSyncQuantum, arena_.remaining(i));
            Cycle n = advanceLane(i, slice, stop_when_idle, mode);
            arena_.remaining(i) -= n;
            arena_.advanced(i) += n;
            if (arena_.remaining(i) == 0)
                arena_.state(i) = LaneState::Done;
            if (arena_.state(i) != LaneState::Done)
                live = true;
        }
    }

    if (mode == Mode::Run) {
        // Machine::run() leaves every lazy clock exact at return;
        // lanes that finished inside a hot chunk still owe the sync.
        for (std::size_t i = 0; i < arena_.size(); ++i)
            arena_.lane(i)->timing_.syncAll();
    }
}

} // namespace disc
