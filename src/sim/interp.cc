#include "sim/interp.hh"

#include "common/logging.hh"

namespace disc
{

Interp::Interp()
    : window_(imem_, kStackRegionBase, kStackRegionWords)
{}

Interp::Interp(Addr stack_base, Addr stack_words, StreamId self)
    : window_(imem_, stack_base, stack_words), self_(self)
{}

void
Interp::load(const Program &prog)
{
    pmem_.load(prog);
    pdec_.load(prog);
    reset();
    imem_.load(prog);
}

void
Interp::reset(PAddr entry)
{
    imem_.reset();
    window_.reset();
    globals_.fill(0);
    pc_ = entry;
    z_ = n_ = c_ = v_ = false;
    mulHigh_ = 0;
    ir_ = 0x01; // background run bit: the interpreter is always "on"
    mr_ = 0xff;
    halted_ = false;
    overflows_ = 0;
    illegal_ = 0;
}

void
Interp::attachDevice(Addr base, Addr size, Device *device)
{
    bus_.attach(base, size, device);
}

Word
Interp::readReg(unsigned r) const
{
    if (reg::isWindow(r))
        return window_.read(r);
    if (reg::isGlobal(r))
        return globals_[r - reg::G0];
    switch (r) {
      case reg::SR:
        return static_cast<Word>((z_ ? 1 : 0) | (n_ ? 2 : 0) |
                                 (c_ ? 4 : 0) | (v_ ? 8 : 0));
      case reg::IRR:
        return ir_;
      case reg::IMR:
        return mr_;
      case reg::AWP:
        return window_.awp();
      default:
        panic("interp: bad register %u", r);
    }
}

void
Interp::writeReg(unsigned r, Word value)
{
    if (reg::isWindow(r)) {
        window_.write(r, value);
        return;
    }
    if (reg::isGlobal(r)) {
        globals_[r - reg::G0] = value;
        return;
    }
    switch (r) {
      case reg::SR:
        z_ = value & 1;
        n_ = value & 2;
        c_ = value & 4;
        v_ = value & 8;
        return;
      case reg::IRR:
        ir_ |= value & 0xff;
        return;
      case reg::IMR:
        mr_ = value & 0xff;
        return;
      case reg::AWP:
        noteWindow(window_.setAwp(value));
        return;
      default:
        panic("interp: bad register %u", r);
    }
}

void
Interp::setFlags(Word result, bool carry, bool overflow)
{
    z_ = result == 0;
    n_ = (result & 0x8000) != 0;
    c_ = carry;
    v_ = overflow;
}

void
Interp::noteWindow(bool violated)
{
    if (violated)
        ++overflows_;
}

void
Interp::applyWctl(WCtl w)
{
    StackWindow &win = window_;
    if (w == WCtl::Inc)
        noteWindow(win.inc());
    else if (w == WCtl::Dec)
        noteWindow(win.dec());
}

void
Interp::execute(const Instruction &inst, PAddr this_pc, PAddr &next)
{
    StackWindow &win = window_;

    auto ra_v = [&] { return readReg(inst.ra); };
    auto rb_v = [&] { return readReg(inst.rb); };
    auto imm_w = [&] { return static_cast<Word>(inst.imm); };

    auto add_like = [&](Word a, Word b, Word cin) {
        DWord full = static_cast<DWord>(a) + b + cin;
        Word r = static_cast<Word>(full);
        setFlags(r, (full >> 16) != 0,
                 (~(a ^ b) & (a ^ r) & 0x8000) != 0);
        return r;
    };
    auto sub_like = [&](Word a, Word b, Word bin) {
        DWord full = static_cast<DWord>(a) - b - bin;
        Word r = static_cast<Word>(full);
        setFlags(r, (full >> 16) != 0, ((a ^ b) & (a ^ r) & 0x8000) != 0);
        return r;
    };
    auto logical = [&](Word r) {
        setFlags(r, false, false);
        return r;
    };
    auto write_rd = [&](Word value) { writeReg(inst.rd, value); };

    switch (inst.op) {
      case Opcode::NOP:
        break;
      case Opcode::ADD: write_rd(add_like(ra_v(), rb_v(), 0)); break;
      case Opcode::ADC:
        write_rd(add_like(ra_v(), rb_v(), c_ ? 1 : 0));
        break;
      case Opcode::SUB: write_rd(sub_like(ra_v(), rb_v(), 0)); break;
      case Opcode::SBC:
        write_rd(sub_like(ra_v(), rb_v(), c_ ? 1 : 0));
        break;
      case Opcode::AND: write_rd(logical(ra_v() & rb_v())); break;
      case Opcode::OR: write_rd(logical(ra_v() | rb_v())); break;
      case Opcode::XOR: write_rd(logical(ra_v() ^ rb_v())); break;
      case Opcode::SHL: {
        unsigned sh = rb_v() & 15u;
        Word a = ra_v();
        Word r = static_cast<Word>(a << sh);
        setFlags(r, sh > 0 && ((a >> (16 - sh)) & 1), false);
        write_rd(r);
        break;
      }
      case Opcode::SHR: {
        unsigned sh = rb_v() & 15u;
        Word a = ra_v();
        Word r = static_cast<Word>(a >> sh);
        setFlags(r, sh > 0 && ((a >> (sh - 1)) & 1), false);
        write_rd(r);
        break;
      }
      case Opcode::ASR: {
        unsigned sh = rb_v() & 15u;
        Word a = ra_v();
        Word r = static_cast<Word>(static_cast<SWord>(a) >> sh);
        setFlags(r, sh > 0 && ((a >> (sh - 1)) & 1), false);
        write_rd(r);
        break;
      }
      case Opcode::MUL: {
        DWord p = static_cast<DWord>(ra_v()) * rb_v();
        mulHigh_ = static_cast<Word>(p >> 16);
        Word r = static_cast<Word>(p);
        setFlags(r, false, false);
        write_rd(r);
        break;
      }
      case Opcode::MULH: write_rd(mulHigh_); break;
      case Opcode::MOV: write_rd(logical(ra_v())); break;
      case Opcode::NOT:
        write_rd(logical(static_cast<Word>(~ra_v())));
        break;
      case Opcode::NEG: write_rd(sub_like(0, ra_v(), 0)); break;
      case Opcode::CMP: sub_like(ra_v(), rb_v(), 0); break;
      case Opcode::TST: logical(ra_v() & rb_v()); break;
      case Opcode::ADDI: write_rd(add_like(ra_v(), imm_w(), 0)); break;
      case Opcode::SUBI: write_rd(sub_like(ra_v(), imm_w(), 0)); break;
      case Opcode::ANDI: write_rd(logical(ra_v() & imm_w())); break;
      case Opcode::ORI: write_rd(logical(ra_v() | imm_w())); break;
      case Opcode::XORI: write_rd(logical(ra_v() ^ imm_w())); break;
      case Opcode::CMPI: sub_like(ra_v(), imm_w(), 0); break;
      case Opcode::LDI: write_rd(imm_w()); break;
      case Opcode::LDIH:
        write_rd(static_cast<Word>((readReg(inst.rd) & 0x00ff) |
                                   (imm_w() << 8)));
        break;
      case Opcode::LD:
      case Opcode::ST: {
        Addr addr = static_cast<Addr>(ra_v() + inst.imm);
        Addr offset = 0;
        Device *dev = bus_.decode(addr, offset);
        if (!dev) {
            ir_ |= 1u << kBusFaultBit;
        } else if (inst.op == Opcode::LD) {
            write_rd(dev->read(offset));
        } else {
            dev->write(offset, readReg(inst.rd));
        }
        break;
      }
      case Opcode::LDM:
        write_rd(imem_.read(static_cast<Addr>(ra_v() + inst.imm)));
        break;
      case Opcode::STM:
        imem_.write(static_cast<Addr>(ra_v() + inst.imm),
                    readReg(inst.rd));
        break;
      case Opcode::LDMD:
        write_rd(imem_.read(static_cast<Addr>(inst.imm)));
        break;
      case Opcode::STMD:
        imem_.write(static_cast<Addr>(inst.imm), readReg(inst.rd));
        break;
      case Opcode::TAS: {
        Word old = imem_.testAndSet(ra_v());
        setFlags(old, false, false);
        write_rd(old);
        break;
      }
      case Opcode::JMP: next = static_cast<PAddr>(inst.imm); break;
      case Opcode::JR: next = ra_v(); break;
      case Opcode::CALL:
      case Opcode::CALLR: {
        PAddr target = inst.op == Opcode::CALL
                           ? static_cast<PAddr>(inst.imm)
                           : ra_v();
        noteWindow(win.inc());
        win.write(0, static_cast<Word>(this_pc + 1));
        next = target;
        break;
      }
      case Opcode::RET: {
        bool bad = win.move(-inst.imm);
        next = win.read(0);
        bad |= win.dec();
        noteWindow(bad);
        break;
      }
      case Opcode::RETI:
        // The interpreter has no interrupt machinery; treat RETI like
        // RET 0 so handler code can still be golden-tested.
        next = win.read(0);
        noteWindow(win.dec());
        break;
      case Opcode::BR: {
        bool take = false;
        switch (inst.cond) {
          case Cond::EQ: take = z_; break;
          case Cond::NE: take = !z_; break;
          case Cond::LT: take = n_ != v_; break;
          case Cond::GE: take = n_ == v_; break;
          case Cond::ULT: take = c_; break;
          case Cond::UGE: take = !c_; break;
          case Cond::MI: take = n_; break;
          case Cond::PL: take = !n_; break;
        }
        if (take)
            next = static_cast<PAddr>(static_cast<int>(this_pc) +
                                      inst.imm);
        break;
      }
      case Opcode::SWI:
        if (inst.stream == self_)
            ir_ |= static_cast<Word>(1u << inst.bit);
        break;
      case Opcode::CLRI:
        ir_ &= static_cast<Word>(~(1u << inst.bit));
        break;
      case Opcode::HALT:
        halted_ = true;
        break;
      case Opcode::FORK:
      case Opcode::FORKR:
      case Opcode::SCHED:
        // Multi-stream controls are no-ops in the one-stream model.
        break;
      case Opcode::WINC: noteWindow(win.inc()); break;
      case Opcode::WDEC: noteWindow(win.dec()); break;
      default:
        panic("interp: unhandled opcode %u",
              static_cast<unsigned>(inst.op));
    }
}

bool
Interp::step()
{
    if (halted_)
        return false;

    const PredecodedInst &pd = pdec_.at(pc_);
    if (!pd.legal) {
        ++illegal_;
        ++pc_;
        return true;
    }
    PAddr this_pc = pc_;
    PAddr next = static_cast<PAddr>(pc_ + 1);

    execute(pd.inst, this_pc, next);

    applyWctl(pd.inst.wctl);
    pc_ = next;
    return !halted_;
}

std::uint64_t
Interp::run(std::uint64_t max_instructions)
{
    std::uint64_t n = 0;
    while (n < max_instructions && step())
        ++n;
    if (halted_ && n < max_instructions)
        ++n; // count the HALT itself
    return n;
}

} // namespace disc
