/**
 * @file
 * Execute stage: full instruction semantics at EX — the ALU, control
 * transfers, stream control (FORK/HALT/SCHED), window moves and trap
 * raising. External accesses are handed to the ABI stage.
 */

#include "sim/machine.hh"

namespace disc
{

void
ExecuteStage::setAluFlags(StreamId s, Word result, bool carry,
                          bool overflow)
{
    StreamCtx &c = m_.ctx(s);
    c.z = result == 0;
    c.n = (result & 0x8000) != 0;
    c.c = carry;
    c.v = overflow;
}

void
ExecuteStage::applyWctl(PipeSlot &slot)
{
    if (slot.inst.wctl == WCtl::None)
        return;
    bool bad = slot.inst.wctl == WCtl::Inc ? m_.win(slot.stream).inc()
                                           : m_.win(slot.stream).dec();
    if (bad) {
        ++m_.stats_.stackOverflows;
        m_.raiseInternal(slot.stream, kStackOverflowBit);
    }
}

void
ExecuteStage::redirect(StreamId s, PAddr target, unsigned ex_stage)
{
    m_.ctx(s).pc = target;
    ++m_.stats_.redirects;
    if (m_.cfg_.branchDelaySlots == 0) {
        m_.squashYounger(s, ex_stage, &m_.stats_.squashedJump,
                         PipeEvent::SquashJump);
        return;
    }
    // Delayed branching: spare the first N younger same-stream
    // instructions in program order (they sit at the highest stages
    // below EX), squash the rest.
    unsigned spared = 0;
    for (unsigned i = ex_stage; i-- > 0;) {
        PipeSlot &slot = m_.pipeAt(i);
        if (!slot.valid || slot.squashed || slot.stream != s)
            continue;
        if (spared < m_.cfg_.branchDelaySlots) {
            ++spared;
            continue;
        }
        slot.squashed = true;
        ++m_.stats_.squashedJump;
        if (m_.observer_)
            m_.observer_->onEvent(s, slot.inst.op, PipeEvent::SquashJump);
    }
}

/**
 * Micro-op handlers: one static function per Uop, dispatched through
 * a constexpr function-pointer table indexed by the handler id that
 * predecode resolved (isa/uops.hh). These are the machine's only
 * instruction semantics; the differential tests check them against
 * the golden-model interpreter's independently written opcode switch
 * (sim/interp.cc).
 */
struct ExecOps
{
    using Fn = void (*)(ExecuteStage &, PipeSlot &);

    static unsigned exStage(ExecuteStage &ex)
    {
        return ex.m_.cfg_.pipeDepth - 2;
    }

    static Word ra(ExecuteStage &ex, PipeSlot &slot)
    {
        return ex.m_.readReg(slot.stream, slot.inst.ra);
    }
    static Word rb(ExecuteStage &ex, PipeSlot &slot)
    {
        return ex.m_.readReg(slot.stream, slot.inst.rb);
    }
    static Word imm(PipeSlot &slot)
    {
        return static_cast<Word>(slot.inst.imm);
    }
    static void wr(ExecuteStage &ex, PipeSlot &slot, Word value)
    {
        ex.m_.writeReg(slot.stream, slot.inst.rd, value);
    }

    static Word addLike(ExecuteStage &ex, StreamId s, Word a, Word b,
                        Word carry_in)
    {
        DWord full = static_cast<DWord>(a) + b + carry_in;
        Word r = static_cast<Word>(full);
        bool carry = (full >> 16) != 0;
        bool ovf = (~(a ^ b) & (a ^ r) & 0x8000) != 0;
        ex.setAluFlags(s, r, carry, ovf);
        return r;
    }
    static Word subLike(ExecuteStage &ex, StreamId s, Word a, Word b,
                        Word borrow_in)
    {
        DWord full = static_cast<DWord>(a) - b - borrow_in;
        Word r = static_cast<Word>(full);
        bool borrow = (full >> 16) != 0;
        bool ovf = ((a ^ b) & (a ^ r) & 0x8000) != 0;
        ex.setAluFlags(s, r, borrow, ovf);
        return r;
    }
    static Word logicFlags(ExecuteStage &ex, StreamId s, Word r)
    {
        ex.setAluFlags(s, r, false, false);
        return r;
    }

    /** Common retire tail: window move, retire counts, observer. */
    static void retire(ExecuteStage &ex, PipeSlot &slot, bool jump_type)
    {
        ex.applyWctl(slot);
        Machine &m = ex.m_;
        ++m.stats_.retired[slot.stream];
        ++m.stats_.totalRetired;
        if (jump_type)
            ++m.stats_.jumpTypeRetired;
        if (m.observer_)
            m.observer_->onEvent(slot.stream, slot.inst.op,
                                 PipeEvent::Retire);
    }

    static void noteWindowFault(ExecuteStage &ex, StreamId s, bool bad)
    {
        if (bad) {
            ++ex.m_.stats_.stackOverflows;
            ex.m_.raiseInternal(s, kStackOverflowBit);
        }
    }

    // --- ALU / immediates / internal memory ---

    static void nop(ExecuteStage &ex, PipeSlot &slot)
    {
        retire(ex, slot, false);
    }
    static void add(ExecuteStage &ex, PipeSlot &slot)
    {
        wr(ex, slot, addLike(ex, slot.stream, ra(ex, slot), rb(ex, slot), 0));
        retire(ex, slot, false);
    }
    static void adc(ExecuteStage &ex, PipeSlot &slot)
    {
        Word cin = ex.m_.ctx(slot.stream).c ? 1 : 0;
        wr(ex, slot,
           addLike(ex, slot.stream, ra(ex, slot), rb(ex, slot), cin));
        retire(ex, slot, false);
    }
    static void sub(ExecuteStage &ex, PipeSlot &slot)
    {
        wr(ex, slot, subLike(ex, slot.stream, ra(ex, slot), rb(ex, slot), 0));
        retire(ex, slot, false);
    }
    static void sbc(ExecuteStage &ex, PipeSlot &slot)
    {
        Word bin = ex.m_.ctx(slot.stream).c ? 1 : 0;
        wr(ex, slot,
           subLike(ex, slot.stream, ra(ex, slot), rb(ex, slot), bin));
        retire(ex, slot, false);
    }
    static void and_(ExecuteStage &ex, PipeSlot &slot)
    {
        wr(ex, slot,
           logicFlags(ex, slot.stream, ra(ex, slot) & rb(ex, slot)));
        retire(ex, slot, false);
    }
    static void or_(ExecuteStage &ex, PipeSlot &slot)
    {
        wr(ex, slot,
           logicFlags(ex, slot.stream, ra(ex, slot) | rb(ex, slot)));
        retire(ex, slot, false);
    }
    static void xor_(ExecuteStage &ex, PipeSlot &slot)
    {
        wr(ex, slot,
           logicFlags(ex, slot.stream, ra(ex, slot) ^ rb(ex, slot)));
        retire(ex, slot, false);
    }
    static void shl(ExecuteStage &ex, PipeSlot &slot)
    {
        unsigned sh = rb(ex, slot) & 15u;
        Word a = ra(ex, slot);
        Word r = static_cast<Word>(a << sh);
        bool carry = sh > 0 && ((a >> (16 - sh)) & 1);
        ex.setAluFlags(slot.stream, r, carry, false);
        wr(ex, slot, r);
        retire(ex, slot, false);
    }
    static void shr(ExecuteStage &ex, PipeSlot &slot)
    {
        unsigned sh = rb(ex, slot) & 15u;
        Word a = ra(ex, slot);
        Word r = static_cast<Word>(a >> sh);
        bool carry = sh > 0 && ((a >> (sh - 1)) & 1);
        ex.setAluFlags(slot.stream, r, carry, false);
        wr(ex, slot, r);
        retire(ex, slot, false);
    }
    static void asr(ExecuteStage &ex, PipeSlot &slot)
    {
        unsigned sh = rb(ex, slot) & 15u;
        SWord a = static_cast<SWord>(ra(ex, slot));
        Word r = static_cast<Word>(a >> sh);
        bool carry = sh > 0 && ((static_cast<Word>(a) >> (sh - 1)) & 1);
        ex.setAluFlags(slot.stream, r, carry, false);
        wr(ex, slot, r);
        retire(ex, slot, false);
    }
    static void mul(ExecuteStage &ex, PipeSlot &slot)
    {
        StreamCtx &c = ex.m_.ctx(slot.stream);
        DWord p = static_cast<DWord>(ra(ex, slot)) * rb(ex, slot);
        c.mulHigh = static_cast<Word>(p >> 16);
        Word r = static_cast<Word>(p);
        ex.setAluFlags(slot.stream, r, false, false);
        wr(ex, slot, r);
        retire(ex, slot, false);
    }
    static void mulh(ExecuteStage &ex, PipeSlot &slot)
    {
        wr(ex, slot, ex.m_.ctx(slot.stream).mulHigh);
        retire(ex, slot, false);
    }
    static void mov(ExecuteStage &ex, PipeSlot &slot)
    {
        wr(ex, slot, logicFlags(ex, slot.stream, ra(ex, slot)));
        retire(ex, slot, false);
    }
    static void not_(ExecuteStage &ex, PipeSlot &slot)
    {
        wr(ex, slot,
           logicFlags(ex, slot.stream,
                      static_cast<Word>(~ra(ex, slot))));
        retire(ex, slot, false);
    }
    static void neg(ExecuteStage &ex, PipeSlot &slot)
    {
        wr(ex, slot, subLike(ex, slot.stream, 0, ra(ex, slot), 0));
        retire(ex, slot, false);
    }
    static void cmp(ExecuteStage &ex, PipeSlot &slot)
    {
        subLike(ex, slot.stream, ra(ex, slot), rb(ex, slot), 0);
        retire(ex, slot, false);
    }
    static void tst(ExecuteStage &ex, PipeSlot &slot)
    {
        logicFlags(ex, slot.stream, ra(ex, slot) & rb(ex, slot));
        retire(ex, slot, false);
    }
    static void addi(ExecuteStage &ex, PipeSlot &slot)
    {
        wr(ex, slot,
           addLike(ex, slot.stream, ra(ex, slot), imm(slot), 0));
        retire(ex, slot, false);
    }
    static void subi(ExecuteStage &ex, PipeSlot &slot)
    {
        wr(ex, slot,
           subLike(ex, slot.stream, ra(ex, slot), imm(slot), 0));
        retire(ex, slot, false);
    }
    static void andi(ExecuteStage &ex, PipeSlot &slot)
    {
        wr(ex, slot,
           logicFlags(ex, slot.stream, ra(ex, slot) & imm(slot)));
        retire(ex, slot, false);
    }
    static void ori(ExecuteStage &ex, PipeSlot &slot)
    {
        wr(ex, slot,
           logicFlags(ex, slot.stream, ra(ex, slot) | imm(slot)));
        retire(ex, slot, false);
    }
    static void xori(ExecuteStage &ex, PipeSlot &slot)
    {
        wr(ex, slot,
           logicFlags(ex, slot.stream, ra(ex, slot) ^ imm(slot)));
        retire(ex, slot, false);
    }
    static void cmpi(ExecuteStage &ex, PipeSlot &slot)
    {
        subLike(ex, slot.stream, ra(ex, slot), imm(slot), 0);
        retire(ex, slot, false);
    }
    static void ldi(ExecuteStage &ex, PipeSlot &slot)
    {
        wr(ex, slot, imm(slot));
        retire(ex, slot, false);
    }
    static void ldih(ExecuteStage &ex, PipeSlot &slot)
    {
        Word old = ex.m_.readReg(slot.stream, slot.inst.rd);
        wr(ex, slot,
           static_cast<Word>((old & 0x00ff) | (imm(slot) << 8)));
        retire(ex, slot, false);
    }
    static void ldm(ExecuteStage &ex, PipeSlot &slot)
    {
        Addr a = static_cast<Addr>(ra(ex, slot) + slot.inst.imm);
        wr(ex, slot, ex.m_.imem_.read(a));
        retire(ex, slot, false);
    }
    static void ldmd(ExecuteStage &ex, PipeSlot &slot)
    {
        wr(ex, slot,
           ex.m_.imem_.read(static_cast<Addr>(slot.inst.imm)));
        retire(ex, slot, false);
    }
    static void stm(ExecuteStage &ex, PipeSlot &slot)
    {
        Addr a = static_cast<Addr>(ra(ex, slot) + slot.inst.imm);
        ex.m_.imem_.write(a, ex.m_.readReg(slot.stream, slot.inst.rd));
        retire(ex, slot, false);
    }
    static void stmd(ExecuteStage &ex, PipeSlot &slot)
    {
        ex.m_.imem_.write(static_cast<Addr>(slot.inst.imm),
                          ex.m_.readReg(slot.stream, slot.inst.rd));
        retire(ex, slot, false);
    }
    static void tas(ExecuteStage &ex, PipeSlot &slot)
    {
        Word old = ex.m_.imem_.testAndSet(ra(ex, slot));
        logicFlags(ex, slot.stream, old);
        wr(ex, slot, old);
        retire(ex, slot, false);
    }

    // --- External bus (retires through the ABI) ---

    static void ldst(ExecuteStage &ex, PipeSlot &slot)
    {
        ex.m_.abiStage_.externalAccess(slot, exStage(ex));
    }

    // --- Control transfer ---

    static void jmp(ExecuteStage &ex, PipeSlot &slot)
    {
        ex.redirect(slot.stream, static_cast<PAddr>(slot.inst.imm),
                    exStage(ex));
        retire(ex, slot, true);
    }
    static void jr(ExecuteStage &ex, PipeSlot &slot)
    {
        ex.redirect(slot.stream, ra(ex, slot), exStage(ex));
        retire(ex, slot, true);
    }
    static void callCommon(ExecuteStage &ex, PipeSlot &slot, PAddr target)
    {
        StreamId s = slot.stream;
        noteWindowFault(ex, s, ex.m_.win(s).inc());
        ex.m_.win(s).write(0, static_cast<Word>(slot.pc + 1));
        ex.redirect(s, target, exStage(ex));
        retire(ex, slot, true);
    }
    static void call(ExecuteStage &ex, PipeSlot &slot)
    {
        callCommon(ex, slot, static_cast<PAddr>(slot.inst.imm));
    }
    static void callr(ExecuteStage &ex, PipeSlot &slot)
    {
        callCommon(ex, slot, ra(ex, slot));
    }
    static void ret(ExecuteStage &ex, PipeSlot &slot)
    {
        StreamId s = slot.stream;
        bool bad = ex.m_.win(s).move(-slot.inst.imm);
        PAddr ra_val = ex.m_.win(s).read(0);
        bad |= ex.m_.win(s).dec();
        noteWindowFault(ex, s, bad);
        ex.redirect(s, ra_val, exStage(ex));
        retire(ex, slot, true);
    }
    static void reti(ExecuteStage &ex, PipeSlot &slot)
    {
        StreamId s = slot.stream;
        if (!ex.m_.intUnit_.exitService(s)) {
            ++ex.m_.stats_.illegalInstructions;
            ex.m_.raiseInternal(s, kIllegalInstBit);
            retire(ex, slot, true);
            return;
        }
        PAddr ra_val = ex.m_.win(s).read(0);
        noteWindowFault(ex, s, ex.m_.win(s).dec());
        ex.redirect(s, ra_val, exStage(ex));
        retire(ex, slot, true);
    }
    static void brTake(ExecuteStage &ex, PipeSlot &slot, bool take)
    {
        if (take) {
            ex.redirect(slot.stream,
                        static_cast<PAddr>(static_cast<int>(slot.pc) +
                                           slot.inst.imm),
                        exStage(ex));
        }
        retire(ex, slot, true);
    }
    static void brEq(ExecuteStage &ex, PipeSlot &slot)
    {
        brTake(ex, slot, ex.m_.ctx(slot.stream).z);
    }
    static void brNe(ExecuteStage &ex, PipeSlot &slot)
    {
        brTake(ex, slot, !ex.m_.ctx(slot.stream).z);
    }
    static void brLt(ExecuteStage &ex, PipeSlot &slot)
    {
        const StreamCtx &c = ex.m_.ctx(slot.stream);
        brTake(ex, slot, c.n != c.v);
    }
    static void brGe(ExecuteStage &ex, PipeSlot &slot)
    {
        const StreamCtx &c = ex.m_.ctx(slot.stream);
        brTake(ex, slot, c.n == c.v);
    }
    static void brUlt(ExecuteStage &ex, PipeSlot &slot)
    {
        brTake(ex, slot, ex.m_.ctx(slot.stream).c);
    }
    static void brUge(ExecuteStage &ex, PipeSlot &slot)
    {
        brTake(ex, slot, !ex.m_.ctx(slot.stream).c);
    }
    static void brMi(ExecuteStage &ex, PipeSlot &slot)
    {
        brTake(ex, slot, ex.m_.ctx(slot.stream).n);
    }
    static void brPl(ExecuteStage &ex, PipeSlot &slot)
    {
        brTake(ex, slot, !ex.m_.ctx(slot.stream).n);
    }

    // --- Stream / interrupt control ---

    static void swi(ExecuteStage &ex, PipeSlot &slot)
    {
        ex.m_.raiseInternal(slot.inst.stream, slot.inst.bit);
        retire(ex, slot, false);
    }
    static void deactivate(ExecuteStage &ex, PipeSlot &slot)
    {
        StreamId s = slot.stream;
        if (!ex.m_.intUnit_.isActive(s)) {
            ex.m_.squashYounger(s, exStage(ex),
                                &ex.m_.stats_.squashedDeact,
                                PipeEvent::SquashDeact);
            ex.m_.ctx(s).pc = static_cast<PAddr>(slot.pc + 1);
        }
    }
    static void clri(ExecuteStage &ex, PipeSlot &slot)
    {
        ex.m_.intUnit_.clear(slot.stream, slot.inst.bit);
        deactivate(ex, slot);
        retire(ex, slot, false);
    }
    static void halt(ExecuteStage &ex, PipeSlot &slot)
    {
        ex.m_.intUnit_.clear(slot.stream, 0);
        deactivate(ex, slot);
        retire(ex, slot, false);
    }
    static void forkCommon(ExecuteStage &ex, PipeSlot &slot, PAddr entry)
    {
        StreamId t = slot.inst.stream;
        ex.m_.squashYounger(t, ex.m_.cfg_.pipeDepth,
                            &ex.m_.stats_.squashedDeact,
                            PipeEvent::SquashDeact);
        ex.m_.ctx(t).pc = entry;
        ex.m_.intUnit_.raise(t, 0);
        retire(ex, slot, false);
    }
    static void fork(ExecuteStage &ex, PipeSlot &slot)
    {
        forkCommon(ex, slot, static_cast<PAddr>(slot.inst.imm));
    }
    static void forkr(ExecuteStage &ex, PipeSlot &slot)
    {
        forkCommon(ex, slot, ra(ex, slot));
    }
    static void sched(ExecuteStage &ex, PipeSlot &slot)
    {
        ex.m_.sched_.setSlot(slot.inst.slot, slot.inst.stream);
        retire(ex, slot, false);
    }
    static void winc(ExecuteStage &ex, PipeSlot &slot)
    {
        noteWindowFault(ex, slot.stream, ex.m_.win(slot.stream).inc());
        retire(ex, slot, false);
    }
    static void wdec(ExecuteStage &ex, PipeSlot &slot)
    {
        noteWindowFault(ex, slot.stream, ex.m_.win(slot.stream).dec());
        retire(ex, slot, false);
    }
};

namespace
{

constexpr UopTable<ExecOps::Fn>
buildExecTable()
{
    UopTable<ExecOps::Fn> t;
    t.set(Uop::NOP, &ExecOps::nop);
    t.set(Uop::ADD, &ExecOps::add);
    t.set(Uop::ADC, &ExecOps::adc);
    t.set(Uop::SUB, &ExecOps::sub);
    t.set(Uop::SBC, &ExecOps::sbc);
    t.set(Uop::AND, &ExecOps::and_);
    t.set(Uop::OR, &ExecOps::or_);
    t.set(Uop::XOR, &ExecOps::xor_);
    t.set(Uop::SHL, &ExecOps::shl);
    t.set(Uop::SHR, &ExecOps::shr);
    t.set(Uop::ASR, &ExecOps::asr);
    t.set(Uop::MUL, &ExecOps::mul);
    t.set(Uop::MULH, &ExecOps::mulh);
    t.set(Uop::MOV, &ExecOps::mov);
    t.set(Uop::NOT, &ExecOps::not_);
    t.set(Uop::NEG, &ExecOps::neg);
    t.set(Uop::CMP, &ExecOps::cmp);
    t.set(Uop::TST, &ExecOps::tst);
    t.set(Uop::ADDI, &ExecOps::addi);
    t.set(Uop::SUBI, &ExecOps::subi);
    t.set(Uop::ANDI, &ExecOps::andi);
    t.set(Uop::ORI, &ExecOps::ori);
    t.set(Uop::XORI, &ExecOps::xori);
    t.set(Uop::CMPI, &ExecOps::cmpi);
    t.set(Uop::LDI, &ExecOps::ldi);
    t.set(Uop::LDIH, &ExecOps::ldih);
    t.set(Uop::LD, &ExecOps::ldst);
    t.set(Uop::ST, &ExecOps::ldst);
    t.set(Uop::LDM, &ExecOps::ldm);
    t.set(Uop::STM, &ExecOps::stm);
    t.set(Uop::LDMD, &ExecOps::ldmd);
    t.set(Uop::STMD, &ExecOps::stmd);
    t.set(Uop::TAS, &ExecOps::tas);
    t.set(Uop::JMP, &ExecOps::jmp);
    t.set(Uop::JR, &ExecOps::jr);
    t.set(Uop::CALL, &ExecOps::call);
    t.set(Uop::CALLR, &ExecOps::callr);
    t.set(Uop::RET, &ExecOps::ret);
    t.set(Uop::BR_EQ, &ExecOps::brEq);
    t.set(Uop::BR_NE, &ExecOps::brNe);
    t.set(Uop::BR_LT, &ExecOps::brLt);
    t.set(Uop::BR_GE, &ExecOps::brGe);
    t.set(Uop::BR_ULT, &ExecOps::brUlt);
    t.set(Uop::BR_UGE, &ExecOps::brUge);
    t.set(Uop::BR_MI, &ExecOps::brMi);
    t.set(Uop::BR_PL, &ExecOps::brPl);
    t.set(Uop::SWI, &ExecOps::swi);
    t.set(Uop::CLRI, &ExecOps::clri);
    t.set(Uop::RETI, &ExecOps::reti);
    t.set(Uop::HALT, &ExecOps::halt);
    t.set(Uop::FORK, &ExecOps::fork);
    t.set(Uop::FORKR, &ExecOps::forkr);
    t.set(Uop::SCHED, &ExecOps::sched);
    t.set(Uop::WINC, &ExecOps::winc);
    t.set(Uop::WDEC, &ExecOps::wdec);
    return t;
}

constexpr UopTable<ExecOps::Fn> kExecTable = buildExecTable();
static_assert(kExecTable.complete(),
              "every micro-op needs an EX handler: extend "
              "buildExecTable() alongside isa/uops.hh");

} // namespace

ExecFn
execHandler(Uop u)
{
    return kExecTable[u];
}

const UopTable<ExecFn> &
execTable()
{
    return kExecTable;
}

void
ExecuteStage::tick()
{
    PipeSlot &slot = m_.pipeAt(m_.cfg_.pipeDepth - 2);
    if (!slot.valid || slot.squashed || slot.executed)
        return;
    slot.executed = true;
    kExecTable[slot.uop](*this, slot);
    if (m_.execTrace_ && !slot.squashed) {
        m_.execTrace_->record(m_.stats_.cycles, slot.stream, slot.pc,
                              slot.inst);
    }
}

} // namespace disc
