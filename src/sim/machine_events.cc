/**
 * @file
 * Event scheduling: the TimingKernel that replaces the legacy
 * per-cycle device/ABI tick phases, and the run()-level fast-forward
 * that jumps over cycles where nothing observable can happen.
 *
 * Lazy clocks. Devices no longer tick every cycle; instead the kernel
 * remembers, per device, how many legacy ticks have been applied
 * (devSynced_) and batches the rest into one onEvent(n) call at the
 * moment it matters: when the device's countdown expires, when a bus
 * access is about to touch it, or at a cycle boundary that must be
 * externally exact (checkpoint, run() return). A device whose
 * countdown is c with ticks applied through S expires during step
 * S + c - 1, so its event is scheduled at that cycle; pure
 * synchronization never moves the expiry because the countdown
 * decrements linearly. The ABI gets the same treatment via abiSynced_.
 */

#include "sim/machine.hh"

#include <algorithm>

#include "common/logging.hh"

namespace disc
{

void
TimingKernel::addDevice(Device *dev)
{
    for (Device *existing : devices_) {
        if (existing == dev)
            fatal("device attached twice");
    }
    devices_.push_back(dev);
    devSynced_.push_back(m_.stats_.cycles);
    dev->setScheduleListener(this);
    rescheduleDevice(devices_.size() - 1);
}

void
TimingKernel::syncDevice(std::size_t i, Cycle to)
{
    if (to <= devSynced_[i])
        return;
    Cycle n = to - devSynced_[i];
    devSynced_[i] = to;
    if (auto req = devices_[i]->onEvent(n))
        m_.raiseInternal(req->stream, req->bit);
}

void
TimingKernel::rescheduleDevice(std::size_t i)
{
    Cycle c = devices_[i]->nextEventIn();
    if (c == kNoDeviceEvent) {
        queue_.cancel(static_cast<std::uint32_t>(i));
        return;
    }
    if (c == 0)
        fatal("device %zu armed with a zero countdown", i);
    queue_.schedule(static_cast<std::uint32_t>(i), devSynced_[i] + c - 1);
}

void
TimingKernel::dispatch()
{
    Cycle now = m_.stats_.cycles;
    if (queue_.empty() || queue_.nextTime() > now)
        return;
    dueScratch_.clear();
    queue_.popDue(now, dueScratch_);
    // Same-cycle events replay the legacy phase order: devices in
    // attach order first, the ABI completion (kAbiSource, the largest
    // id) last.
    std::sort(dueScratch_.begin(), dueScratch_.end(),
              [](const EventQueue::Event &a, const EventQueue::Event &b) {
                  return a.source < b.source;
              });
    for (const EventQueue::Event &ev : dueScratch_) {
        if (ev.source != kAbiSource) {
            syncDevice(ev.source, now + 1);
            rescheduleDevice(ev.source);
            continue;
        }
        // The completing access reads or writes its target device, so
        // that device's clock must be exact first.
        Addr addr = m_.abi_.pendingAddr();
        syncDeviceForAccess(addr);
        auto comp = m_.abi_.advance(now + 1 - abiSynced_);
        abiSynced_ = now + 1;
        if (!comp)
            panic("ABI completion event fired with no completion");
        rescheduleDeviceAt(addr);
        m_.abiStage_.completeAccess(*comp);
    }
}

void
TimingKernel::scheduleAbiCompletion()
{
    Cycle now = m_.stats_.cycles;
    // The legacy loop ticked the ABI from the cycle after the request;
    // a latency-L access started during step R completes during step
    // R + L.
    abiSynced_ = now + 1;
    queue_.schedule(kAbiSource, now + m_.abi_.remainingCycles());
}

void
TimingKernel::syncDeviceForAccess(Addr addr)
{
    Addr offset = 0;
    Device *dev = m_.bus_.decode(addr, offset);
    if (!dev)
        return;
    for (std::size_t i = 0; i < devices_.size(); ++i) {
        if (devices_[i] == dev) {
            syncDevice(i, m_.stats_.cycles + 1);
            return;
        }
    }
    fatal("bus access to a device the timing kernel never saw");
}

void
TimingKernel::rescheduleDeviceAt(Addr addr)
{
    Addr offset = 0;
    Device *dev = m_.bus_.decode(addr, offset);
    if (!dev)
        return;
    for (std::size_t i = 0; i < devices_.size(); ++i) {
        if (devices_[i] == dev) {
            rescheduleDevice(i);
            return;
        }
    }
}

void
TimingKernel::syncAll()
{
    // Boundary semantics: bring every clock up to "stats_.cycles legacy
    // ticks applied". Dispatch has already fired everything due before
    // this cycle, so no sync below can cross an expiry or completion.
    Cycle now = m_.stats_.cycles;
    for (std::size_t i = 0; i < devices_.size(); ++i)
        syncDevice(i, now);
    if (m_.abi_.busy() && abiSynced_ < now) {
        if (m_.abi_.advance(now - abiSynced_))
            panic("ABI completed during a boundary sync");
    }
    if (abiSynced_ < now)
        abiSynced_ = now;
}

void
TimingKernel::rebuild()
{
    queue_.clear();
    Cycle now = m_.stats_.cycles;
    abiSynced_ = now;
    for (std::size_t i = 0; i < devices_.size(); ++i) {
        devSynced_[i] = now;
        rescheduleDevice(i);
    }
    if (m_.abi_.busy())
        queue_.schedule(kAbiSource, now + m_.abi_.remainingCycles() - 1);
}

void
TimingKernel::deviceScheduleChanged(Device &dev)
{
    for (std::size_t i = 0; i < devices_.size(); ++i) {
        if (devices_[i] == &dev) {
            // The skipped span was event-free by contract (the device
            // was quiescent), so jump its clock without onEvent.
            devSynced_[i] = m_.stats_.cycles;
            rescheduleDevice(i);
            return;
        }
    }
    fatal("schedule change from a device the timing kernel never saw");
}

Cycle
Machine::run(Cycle max_cycles, bool stop_when_idle)
{
    Cycle start = stats_.cycles;
    while (stats_.cycles - start < max_cycles) {
        if (stop_when_idle && idle())
            break;
        if (ffEnabled_) {
            Cycle left = max_cycles - (stats_.cycles - start);
            if (Cycle span = skippableCycles(left)) {
                fastForward(span);
                continue;
            }
        }
        if (sbEnabled_ && stats_.cycles >= sblock_.retryAt()) {
            Cycle left = max_cycles - (stats_.cycles - start);
            if (sblock_.execute(left))
                continue;
        }
        step();
    }
    // Countdowns and busy counters must read exact between run() calls.
    timing_.syncAll();
    return stats_.cycles - start;
}

/**
 * How many upcoming cycles are provably dead: no queued event fires,
 * nothing live is in the pipe and no stream can issue, so every one of
 * them would be a bubble (or a frozen halt cycle). Capped at @p budget.
 */
Cycle
Machine::skippableCycles(Cycle budget) const
{
    if (!haltedUntilBusDone_) {
        // Cheap CPU-bound early-out: something issued last cycle.
        const PipeSlot &s0 = pipeAt(0);
        if (s0.valid && !s0.squashed)
            return 0;
    }
    if (trace_)
        return 0; // per-cycle pipe diagrams must see every cycle
    Cycle now = stats_.cycles;
    Cycle next = timing_.nextEventTime();
    if (next <= now)
        return 0;
    if (!haltedUntilBusDone_) {
        for (const PipeSlot &slot : pipe_) {
            if (slot.valid && !slot.squashed)
                return 0;
        }
        if (issueStage_.readyMask() != 0)
            return 0;
    }
    if (next == kNoEvent)
        return budget;
    return std::min(budget, next - now);
}

/**
 * Account @p span dead cycles in bulk. Every per-cycle quantity is
 * constant across the span (no stream changes state without an event
 * or an issue), so the bulk update is bit-identical to stepping: the
 * same wait-state tallies, bubbles, scheduler cursor movement and
 * squashed-slot drain. With an observer attached the cycles are
 * stepped for real so every onCycleEnd hook still fires.
 */
void
Machine::fastForward(Cycle span)
{
    stats_.fastForwardedCycles += span;
    ++stats_.fastForwards;
    if (observer_) {
        for (Cycle i = 0; i < span; ++i)
            step();
        return;
    }
    bool eng = engaged();
    for (StreamId s = 0; s < kNumStreams; ++s) {
        if (streams_[s].wait != WaitState::Ready)
            stats_.waitAbiCycles[s] += span;
        else if (intUnit_.isActive(s))
            stats_.readyCycles[s] += span;
        else
            stats_.inactiveCycles[s] += span;
    }
    stats_.cycles += span;
    if (eng)
        stats_.busyCycles += span;
    if (!haltedUntilBusDone_) {
        // Each dead cycle was a bubble: the scheduler still consumed a
        // slot, and any squashed slots aged out of the pipe.
        stats_.bubbles += span;
        sched_.skipSlots(
            static_cast<unsigned>(span % kScheduleSlots));
        Cycle shifts = std::min<Cycle>(span, cfg_.pipeDepth);
        for (Cycle i = 0; i < shifts; ++i)
            advancePipe();
    }
}

} // namespace disc
