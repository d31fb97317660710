/**
 * @file
 * Checkpointing: full-fidelity save/restore of the machine state.
 *
 * Version 2 extends the version-1 layout with the per-stream
 * wait-state tallies. Version 3 embeds the canonical board spec in
 * the header so park/restore and cross-shard migration can verify the
 * receiving machine composed the same device graph; version-2
 * checkpoints (no spec) still restore into boardless machines. The
 * fast-forward counters are deliberately NOT serialized: they are
 * diagnostics of how a run was stepped, not machine state, and
 * keeping them out makes checkpoints taken in event-skip and
 * per-cycle modes byte-identical.
 */

#include "sim/machine.hh"

#include "common/logging.hh"
#include "common/serialize.hh"

namespace disc
{

namespace
{

constexpr std::uint32_t kCheckpointMagic = 0x44495343; // "DISC"
constexpr std::uint16_t kCheckpointVersion = 3;

} // namespace

std::vector<std::uint8_t>
Machine::saveState() const
{
    // Device countdowns and ABI busy counters are lazy; make them
    // exact before they are serialized. Side-effect-free at a cycle
    // boundary, hence callable from const.
    timing_.syncAll();

    Serializer out;
    out.put(kCheckpointMagic);
    out.put(kCheckpointVersion);
    out.put<std::uint16_t>(static_cast<std::uint16_t>(cfg_.pipeDepth));
    out.putString(boardSpec_);

    imem_.save(out);
    for (Word g : globals_)
        out.put(g);
    for (const StreamCtx &c : streams_) {
        out.put(c.pc);
        out.putBool(c.z);
        out.putBool(c.n);
        out.putBool(c.c);
        out.putBool(c.v);
        out.put(c.mulHigh);
        out.put<std::uint8_t>(static_cast<std::uint8_t>(c.wait));
        out.put<std::uint8_t>(static_cast<std::uint8_t>(c.pendingWctl));
        for (unsigned b = 0; b < kNumIntLevels; ++b) {
            out.put<Cycle>(c.lastRaise[b]);
            out.putBool(c.latencyArmed[b]);
        }
    }
    for (const auto &w : windows_)
        w->save(out);
    intUnit_.save(out);
    sched_.save(out);
    abi_.save(out);

    // Stage order (IF..WR), not ring memory order, so the byte format
    // is independent of where the head happens to sit.
    for (unsigned i = 0; i < cfg_.pipeDepth; ++i) {
        const PipeSlot &slot = pipeAt(i);
        out.putBool(slot.valid);
        out.putBool(slot.squashed);
        out.putBool(slot.executed);
        out.put(slot.stream);
        out.put(slot.pc);
        out.put<std::uint32_t>(encode(slot.inst));
        out.put<std::uint8_t>(static_cast<std::uint8_t>(slot.tag));
    }

    out.put<Cycle>(stats_.cycles);
    out.put<Cycle>(stats_.busyCycles);
    for (std::uint64_t r : stats_.retired)
        out.put(r);
    out.put(stats_.totalRetired);
    out.put(stats_.squashedJump);
    out.put(stats_.squashedWait);
    out.put(stats_.squashedDeact);
    out.put(stats_.bubbles);
    out.put(stats_.redirects);
    out.put(stats_.jumpTypeRetired);
    out.put(stats_.externalReads);
    out.put(stats_.externalWrites);
    out.put(stats_.busBusyRejections);
    out.put(stats_.vectorsTaken);
    out.put(stats_.stackOverflows);
    out.put(stats_.illegalInstructions);
    out.put(stats_.busFaults);
    for (std::uint64_t r : stats_.readyCycles)
        out.put(r);
    for (std::uint64_t w : stats_.waitAbiCycles)
        out.put(w);
    for (std::uint64_t i : stats_.inactiveCycles)
        out.put(i);

    out.put<std::uint8_t>(static_cast<std::uint8_t>(nextTag_));
    out.put<Cycle>(haltedUntilBusDone_);

    bus_.saveDevices(out);
    return out.take();
}

void
Machine::restoreState(const std::vector<std::uint8_t> &bytes)
{
    Deserializer in(bytes);
    if (in.get<std::uint32_t>() != kCheckpointMagic)
        fatal("not a DISC checkpoint");
    std::uint16_t version = in.get<std::uint16_t>();
    if (version != 2 && version != kCheckpointVersion)
        fatal("checkpoint version mismatch");
    if (in.get<std::uint16_t>() != cfg_.pipeDepth)
        fatal("checkpoint pipe depth mismatch");
    if (version >= 3) {
        // A v2 checkpoint carries no spec; the caller vouches for the
        // device graph, exactly as every pre-board checkpoint did.
        std::string spec = in.getString();
        if (spec != boardSpec_)
            fatal("checkpoint board spec mismatch: checkpoint has %zu "
                  "spec bytes, machine has %zu",
                  spec.size(), boardSpec_.size());
    }

    imem_.restore(in);
    for (Word &g : globals_)
        g = in.get<Word>();
    for (StreamCtx &c : streams_) {
        c.pc = in.get<PAddr>();
        c.z = in.getBool();
        c.n = in.getBool();
        c.c = in.getBool();
        c.v = in.getBool();
        c.mulHigh = in.get<Word>();
        c.wait = static_cast<WaitState>(in.get<std::uint8_t>());
        c.pendingWctl = static_cast<WCtl>(in.get<std::uint8_t>());
        for (unsigned b = 0; b < kNumIntLevels; ++b) {
            c.lastRaise[b] = in.get<Cycle>();
            c.latencyArmed[b] = in.getBool();
        }
    }
    for (auto &w : windows_)
        w->restore(in);
    intUnit_.restore(in);
    sched_.restore(in);
    abi_.restore(in);

    pipeHead_ = 0; // slots arrive in stage order; restore canonical
    for (PipeSlot &slot : pipe_) {
        slot.valid = in.getBool();
        slot.squashed = in.getBool();
        slot.executed = in.getBool();
        slot.stream = in.get<StreamId>();
        slot.pc = in.get<PAddr>();
        slot.inst = decode(in.get<std::uint32_t>());
        depMasks(slot.inst, slot.readsMask, slot.writesMask);
        slot.uop = uopFor(slot.inst.op, slot.inst.cond);
        slot.tag = static_cast<char>(in.get<std::uint8_t>());
    }

    stats_.cycles = in.get<Cycle>();
    stats_.busyCycles = in.get<Cycle>();
    for (std::uint64_t &r : stats_.retired)
        r = in.get<std::uint64_t>();
    stats_.totalRetired = in.get<std::uint64_t>();
    stats_.squashedJump = in.get<std::uint64_t>();
    stats_.squashedWait = in.get<std::uint64_t>();
    stats_.squashedDeact = in.get<std::uint64_t>();
    stats_.bubbles = in.get<std::uint64_t>();
    stats_.redirects = in.get<std::uint64_t>();
    stats_.jumpTypeRetired = in.get<std::uint64_t>();
    stats_.externalReads = in.get<std::uint64_t>();
    stats_.externalWrites = in.get<std::uint64_t>();
    stats_.busBusyRejections = in.get<std::uint64_t>();
    stats_.vectorsTaken = in.get<std::uint64_t>();
    stats_.stackOverflows = in.get<std::uint64_t>();
    stats_.illegalInstructions = in.get<std::uint64_t>();
    stats_.busFaults = in.get<std::uint64_t>();
    for (std::uint64_t &r : stats_.readyCycles)
        r = in.get<std::uint64_t>();
    for (std::uint64_t &w : stats_.waitAbiCycles)
        w = in.get<std::uint64_t>();
    for (std::uint64_t &i : stats_.inactiveCycles)
        i = in.get<std::uint64_t>();
    stats_.fastForwardedCycles = 0;
    stats_.fastForwards = 0;
    stats_.superblockCycles = 0;
    stats_.superblockEnters = 0;
    stats_.superblockBails.fill(0);
    stats_.hotCycles = 0;
    stats_.hotExits.fill(0);

    nextTag_ = static_cast<char>(in.get<std::uint8_t>());
    haltedUntilBusDone_ = in.get<Cycle>();

    bus_.restoreDevices(in);
    if (!in.exhausted())
        fatal("checkpoint has %zu trailing bytes",
              bytes.size() - in.position());

    // The restored machine may be running a different program image
    // than the one the blocks were translated from; drop them all.
    sblock_.invalidate();
    // Device countdowns and the ABI remainder are exact again; rebuild
    // the event schedule from them.
    timing_.rebuild();
}

} // namespace disc
