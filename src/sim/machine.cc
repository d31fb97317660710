/**
 * @file
 * Machine core: construction, architectural state access, the
 * per-cycle step() skeleton and shared pipe helpers. Stage semantics
 * live in stage_issue.cc / stage_execute.cc / stage_abi.cc, event
 * scheduling and fast-forward in machine_events.cc, checkpointing in
 * machine_ckpt.cc.
 */

#include "sim/machine.hh"

#include <cstdlib>
#include <cstring>

#include "common/logging.hh"
#include "sim/trace.hh"

namespace disc
{

const char *
pipeEventName(PipeEvent ev)
{
    switch (ev) {
      case PipeEvent::Issue: return "issue";
      case PipeEvent::Retire: return "retire";
      case PipeEvent::SquashJump: return "squash-jump";
      case PipeEvent::SquashWait: return "squash-wait";
      case PipeEvent::SquashDeact: return "squash-deact";
      case PipeEvent::BusBusy: return "bus-busy";
      case PipeEvent::WaitStart: return "wait-start";
      case PipeEvent::Wake: return "wake";
      case PipeEvent::Vector: return "vector";
      case PipeEvent::TrapOverflow: return "trap-overflow";
      case PipeEvent::TrapIllegal: return "trap-illegal";
      case PipeEvent::TrapBusFault: return "trap-bus-fault";
      case PipeEvent::NumEvents: break;
    }
    return "?";
}

double
MachineStats::utilization() const
{
    if (busyCycles == 0)
        return 0.0;
    return static_cast<double>(totalRetired) /
           static_cast<double>(busyCycles);
}

double
MachineStats::standardPs(Cycle bus_busy_cycles, unsigned pipe_depth) const
{
    double e = static_cast<double>(totalRetired);
    if (e == 0.0)
        return 0.0;
    double denom = e + static_cast<double>(bus_busy_cycles) +
                   static_cast<double>(jumpTypeRetired) *
                       static_cast<double>(pipe_depth - 1);
    return e / denom;
}

Machine::Machine(MachineConfig cfg)
    : cfg_(cfg), abi_(bus_), latency_(128), vectorStage_(*this),
      issueStage_(*this), executeStage_(*this), abiStage_(*this),
      sblock_(*this), timing_(*this)
{
    if (cfg_.pipeDepth < 3)
        fatal("pipe depth %u is below the minimum of 3", cfg_.pipeDepth);
    sched_.setMode(cfg_.schedMode);
    for (StreamId s = 0; s < kNumStreams; ++s) {
        windows_.push_back(std::make_unique<StackWindow>(
            imem_, static_cast<Addr>(cfg_.stackBase + s * cfg_.stackWords),
            cfg_.stackWords));
    }
    pipe_.resize(cfg_.pipeDepth);
    ffEnabled_ = cfg_.fastForward;
    if (const char *env = std::getenv("DISC_NO_FASTFORWARD");
        env && *env && std::strcmp(env, "0") != 0)
        ffEnabled_ = false;
    sbEnabled_ = cfg_.superblockExec;
    if (const char *env = std::getenv("DISC_NO_SUPERBLOCK");
        env && *env && std::strcmp(env, "0") != 0)
        sbEnabled_ = false;
    batchEnabled_ = cfg_.batchExec;
    if (const char *env = std::getenv("DISC_NO_BATCH");
        env && *env && std::strcmp(env, "0") != 0)
        batchEnabled_ = false;
}

void
Machine::load(const Program &prog)
{
    pmem_.load(prog);
    pdec_.load(prog);
    reset();
    imem_.load(prog);
}

void
Machine::reset()
{
    imem_.reset();
    abi_.reset();
    intUnit_.reset();
    sched_.reset();
    sched_.setMode(cfg_.schedMode);
    for (auto &w : windows_)
        w->reset();
    for (auto &c : streams_)
        c = StreamCtx{};
    globals_.fill(0);
    std::fill(pipe_.begin(), pipe_.end(), PipeSlot{});
    pipeHead_ = 0;
    stats_ = MachineStats{};
    latency_ = Histogram(128);
    nextTag_ = 'a';
    haltedUntilBusDone_ = 0;
    sblock_.invalidate();
    timing_.rebuild();
}

void
Machine::attachDevice(Addr base, Addr size, Device *device)
{
    bus_.attach(base, size, device);
    timing_.addDevice(device);
}

StreamCtx &
Machine::ctx(StreamId s)
{
    if (s >= kNumStreams)
        panic("bad stream id %u", s);
    return streams_[s];
}

const StreamCtx &
Machine::ctx(StreamId s) const
{
    if (s >= kNumStreams)
        panic("bad stream id %u", s);
    return streams_[s];
}

StackWindow &
Machine::win(StreamId s)
{
    if (s >= kNumStreams)
        panic("bad stream id %u", s);
    return *windows_[s];
}

const StackWindow &
Machine::win(StreamId s) const
{
    if (s >= kNumStreams)
        panic("bad stream id %u", s);
    return *windows_[s];
}

const StackWindow &
Machine::window(StreamId s) const
{
    return win(s);
}

bool
Machine::isWaiting(StreamId s) const
{
    return ctx(s).wait != WaitState::Ready;
}

void
Machine::startStream(StreamId s, PAddr entry)
{
    ctx(s).pc = entry;
    intUnit_.raise(s, 0);
}

void
Machine::raiseExternal(StreamId s, unsigned bit)
{
    raiseInternal(s, bit);
}

void
Machine::raiseInternal(StreamId s, unsigned bit)
{
    StreamCtx &c = ctx(s);
    bool was_pending = (intUnit_.ir(s) >> bit) & 1;
    intUnit_.raise(s, bit);
    if (bit >= 1 && !was_pending) {
        c.lastRaise[bit] = stats_.cycles;
        c.latencyArmed[bit] = true;
    }
    if (observer_) {
        if (bit == kStackOverflowBit)
            observer_->onEvent(s, Opcode::NOP, PipeEvent::TrapOverflow);
        else if (bit == kIllegalInstBit)
            observer_->onEvent(s, Opcode::NOP, PipeEvent::TrapIllegal);
        else if (bit == kBusFaultBit)
            observer_->onEvent(s, Opcode::NOP, PipeEvent::TrapBusFault);
    }
}

PAddr
Machine::pc(StreamId s) const
{
    return ctx(s).pc;
}

Word
Machine::readReg(StreamId s, unsigned r) const
{
    if (reg::isWindow(r))
        return win(s).read(r);
    if (reg::isGlobal(r))
        return globals_[r - reg::G0];
    const StreamCtx &c = ctx(s);
    switch (r) {
      case reg::SR:
        return static_cast<Word>(
            (c.z ? 1 : 0) | (c.n ? 2 : 0) | (c.c ? 4 : 0) |
            (c.v ? 8 : 0) | (static_cast<unsigned>(s) << 4) |
            (intUnit_.runningLevel(s) << 6));
      case reg::IRR:
        return intUnit_.ir(s);
      case reg::IMR:
        return intUnit_.mr(s);
      case reg::AWP:
        return win(s).awp();
      default:
        panic("bad register %u", r);
    }
}

void
Machine::writeReg(StreamId s, unsigned r, Word value)
{
    if (reg::isWindow(r)) {
        win(s).write(r, value);
        return;
    }
    if (reg::isGlobal(r)) {
        globals_[r - reg::G0] = value;
        return;
    }
    StreamCtx &c = ctx(s);
    switch (r) {
      case reg::SR:
        c.z = value & 1;
        c.n = value & 2;
        c.c = value & 4;
        c.v = value & 8;
        return;
      case reg::IRR:
        // A stream may post requests to its own IR; bits clear only
        // via CLRI.
        for (unsigned bit = 0; bit < kNumIntLevels; ++bit) {
            if (value & (1u << bit))
                raiseInternal(s, bit);
        }
        return;
      case reg::IMR:
        intUnit_.setMr(s, value);
        return;
      case reg::AWP:
        if (win(s).setAwp(value)) {
            ++stats_.stackOverflows;
            raiseInternal(s, kStackOverflowBit);
        }
        return;
      default:
        panic("bad register %u", r);
    }
}

void
Machine::squashYounger(StreamId s, unsigned ex_stage,
                       std::uint64_t *counter, PipeEvent ev)
{
    for (unsigned i = 0; i < ex_stage; ++i) {
        PipeSlot &slot = pipeAt(i);
        if (slot.valid && !slot.squashed && slot.stream == s) {
            slot.squashed = true;
            if (counter)
                ++(*counter);
            if (observer_)
                observer_->onEvent(s, slot.inst.op, ev);
        }
    }
}

bool
Machine::engaged() const
{
    if (abi_.busy())
        return true;
    for (StreamId s = 0; s < kNumStreams; ++s) {
        if (intUnit_.isActive(s) || streams_[s].wait != WaitState::Ready)
            return true;
    }
    for (const PipeSlot &slot : pipe_) {
        if (slot.valid && !slot.squashed)
            return true;
    }
    return false;
}

void
Machine::recordTrace()
{
    if (!trace_)
        return;
    traceScratch_.resize(cfg_.pipeDepth);
    for (unsigned i = 0; i < cfg_.pipeDepth; ++i) {
        const PipeSlot &slot = pipeAt(i);
        traceScratch_[i] = {slot.valid, slot.squashed, slot.stream,
                            slot.tag};
    }
    trace_->record(stats_.cycles, traceScratch_);
}

void
Machine::advancePipe()
{
    // Retire WR implicitly, age everything one stage: the ring head
    // moves back one slot, and the slot it lands on — the old WR —
    // is cleared to become the new IF.
    pipeHead_ = pipeHead_ == 0 ? cfg_.pipeDepth - 1 : pipeHead_ - 1;
    pipe_[pipeHead_] = PipeSlot{};
}

void
Machine::finishCycle(bool was_engaged)
{
    for (StreamId s = 0; s < kNumStreams; ++s) {
        if (streams_[s].wait != WaitState::Ready)
            ++stats_.waitAbiCycles[s];
        else if (intUnit_.isActive(s))
            ++stats_.readyCycles[s];
        else
            ++stats_.inactiveCycles[s];
    }
    ++stats_.cycles;
    if (was_engaged || engaged())
        ++stats_.busyCycles;
    recordTrace();
    if (observer_)
        observer_->onCycleEnd();
}

void
Machine::step()
{
    bool was_engaged = engaged();

    // 1. Timing kernel: fire due device expiries and ABI completions
    //    (the legacy phase-1 device tick / phase-2 ABI tick pair).
    timing_.dispatch();

    // 2. Standard-processor mode: the pipe is frozen during a wait.
    if (haltedUntilBusDone_) {
        finishCycle(was_engaged);
        return;
    }

    // 3. Pipe stages: age, execute at EX, issue into IF.
    advancePipe();
    executeStage_.tick();
    if (!haltedUntilBusDone_)
        issueStage_.tick();

    finishCycle(was_engaged);
}

bool
Machine::idle() const
{
    return !engaged();
}

} // namespace disc
