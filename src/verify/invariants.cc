#include "verify/invariants.hh"

#include "common/logging.hh"

namespace disc
{

namespace
{
constexpr std::size_t kMaxStoredViolations = 32;
} // namespace

InvariantChecker::InvariantChecker(const Machine &m) : m_(m)
{
    resync();
}

void
InvariantChecker::resync()
{
    for (StreamId s = 0; s < kNumStreams; ++s) {
        shadow_[s] =
            m_.isWaiting(s) ? ShadowWait::Waiting : ShadowWait::Ready;
    }
    violations_.clear();
    totalViolations_ = 0;
}

void
InvariantChecker::fail(std::string message)
{
    ++totalViolations_;
    if (violations_.size() < kMaxStoredViolations)
        violations_.push_back({m_.stats().cycles, std::move(message)});
}

unsigned
InvariantChecker::activeStreams() const
{
    unsigned n = 0;
    for (StreamId s = 0; s < kNumStreams; ++s)
        n += m_.interrupts().isActive(s);
    return n;
}

void
InvariantChecker::onIssue(StreamId s, StreamId slot_owner,
                          unsigned ready_mask, PAddr pc,
                          const Instruction &inst)
{
    (void)inst;
    if (s >= kNumStreams) {
        fail(strprintf("issued from nonexistent stream %u", s));
        return;
    }
    if (!((ready_mask >> s) & 1)) {
        fail(strprintf("stream %u issued (pc %u) without its ready bit "
                       "(mask 0x%x)",
                       s, pc, ready_mask));
    }
    if (!m_.interrupts().isActive(s)) {
        fail(strprintf("stream %u issued (pc %u) while inactive "
                       "(IR&MR == 0)",
                       s, pc));
    }
    if (m_.isWaiting(s)) {
        fail(strprintf("stream %u issued (pc %u) while in an ABI wait "
                       "state",
                       s, pc));
    }
    if (shadow_[s] != ShadowWait::Ready) {
        fail(strprintf("stream %u issued (pc %u) but the ABI event log "
                       "says it is waiting",
                       s, pc));
    }
    // Partition honour: a ready slot owner must get its own slot.
    if (slot_owner < kNumStreams && ((ready_mask >> slot_owner) & 1) &&
        s != slot_owner) {
        fail(strprintf("partition violated: slot owned by ready stream "
                       "%u was issued to stream %u (mask 0x%x)",
                       slot_owner, s, ready_mask));
    }
}

void
InvariantChecker::onVector(StreamId s, unsigned level)
{
    const InterruptUnit &iu = m_.interrupts();
    unsigned pending = static_cast<unsigned>(iu.ir(s) & iu.mr(s));
    unsigned running = iu.runningLevel(s);
    // Independent re-derivation of the paper's rule: the vector taken
    // must be the highest unmasked pending level in 7..1 strictly
    // above the running level.
    unsigned expected = 0;
    for (unsigned lvl = kNumIntLevels - 1; lvl >= 1; --lvl) {
        if (pending & (1u << lvl)) {
            if (lvl > running)
                expected = lvl;
            break;
        }
    }
    if (expected == 0) {
        fail(strprintf("stream %u vectored to level %u with no "
                       "eligible vector (pending 0x%02x, running %u)",
                       s, level, pending, running));
    } else if (level != expected) {
        fail(strprintf("stream %u vectored to level %u but the highest "
                       "eligible pending level is %u (pending 0x%02x, "
                       "running %u)",
                       s, level, expected, pending, running));
    }
}

void
InvariantChecker::onEvent(StreamId s, Opcode op, PipeEvent ev)
{
    if (cov_)
        cov_->record(op, ev, activeStreams(),
                     m_.stats().fastForwardedCycles > 0);
    if (s >= kNumStreams)
        return;
    switch (ev) {
      case PipeEvent::BusBusy:
      case PipeEvent::WaitStart:
        if (shadow_[s] != ShadowWait::Ready) {
            fail(strprintf("stream %u started a %s wait while already "
                           "waiting",
                           s, pipeEventName(ev)));
        }
        shadow_[s] = ShadowWait::Waiting;
        break;
      case PipeEvent::Wake:
        if (shadow_[s] != ShadowWait::Waiting)
            fail(strprintf("stream %u woken while not waiting", s));
        shadow_[s] = ShadowWait::Ready;
        break;
      default:
        break;
    }
}

void
InvariantChecker::onCycleEnd()
{
    for (StreamId s = 0; s < kNumStreams; ++s) {
        const StackWindow &w = m_.window(s);
        if (w.awp() < w.minAwp() || w.awp() >= w.limit()) {
            fail(strprintf("stream %u AWP %u outside its stack region "
                           "[%u, %u)",
                           s, w.awp(), w.minAwp(), w.limit()));
        }
        bool machine_waiting = m_.isWaiting(s);
        bool shadow_waiting = shadow_[s] == ShadowWait::Waiting;
        if (machine_waiting != shadow_waiting) {
            fail(strprintf("stream %u wait state %s disagrees with the "
                           "ABI event log (%s)",
                           s, machine_waiting ? "waiting" : "ready",
                           shadow_waiting ? "waiting" : "ready"));
            shadow_[s] = machine_waiting ? ShadowWait::Waiting
                                         : ShadowWait::Ready;
        }
    }
}

std::string
InvariantChecker::report() const
{
    if (ok())
        return "";
    std::string out = strprintf("%llu invariant violation(s):\n",
                                static_cast<unsigned long long>(
                                    totalViolations_));
    for (const Violation &v : violations_) {
        out += strprintf("  cycle %llu: %s\n",
                         static_cast<unsigned long long>(v.cycle),
                         v.message.c_str());
    }
    if (totalViolations_ > violations_.size())
        out += "  ...\n";
    return out;
}

} // namespace disc
