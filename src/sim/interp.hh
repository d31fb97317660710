/**
 * @file
 * A sequential architectural interpreter of the DISC1 ISA, used as a
 * golden model for differential testing of the pipelined machine.
 *
 * The interpreter executes one stream, one instruction at a time,
 * with no pipeline, no scheduler and no bus timing (external accesses
 * complete immediately through the same Bus decode). Architected
 * results — registers, flags, window position, internal memory —
 * must match the cycle-accurate Machine for any single-stream program
 * regardless of pipelining, which is exactly what the differential
 * property tests assert.
 *
 * Implementation note: the semantics here are written independently
 * of sim/machine.cc (no shared execution code beyond the decoder), so
 * a bug must be made twice to go unnoticed. In particular step()
 * switches on the decoded Opcode and never reads the predecoded
 * micro-op index the Machine dispatches on, so a wrong Opcode -> Uop
 * mapping (isa/uops.hh) shows up as a differential mismatch.
 */

#ifndef DISC_SIM_INTERP_HH
#define DISC_SIM_INTERP_HH

#include <array>
#include <cstdint>

#include "arch/bus.hh"
#include "arch/interrupts.hh"
#include "arch/memory.hh"
#include "arch/stack_window.hh"
#include "common/types.hh"
#include "isa/instruction.hh"
#include "isa/predecode.hh"
#include "isa/program.hh"

namespace disc
{

/** Single-stream golden-model interpreter. */
class Interp
{
  public:
    Interp();

    /**
     * Golden model for one particular stream of a multi-stream
     * program: the window lives over [stack_base, stack_base +
     * stack_words) and SWI recognises @p self as "this stream" (so a
     * self-signalling stream still posts to its own IR). Everything
     * else is the usual sequential model.
     */
    Interp(Addr stack_base, Addr stack_words, StreamId self);

    /** Load a program (code + data preloads) and reset. */
    void load(const Program &prog);

    /** Reset architectural state, set the PC. */
    void reset(PAddr entry = 0);

    /** Map a device for external accesses (zero-latency semantics). */
    void attachDevice(Addr base, Addr size, Device *device);

    /**
     * Execute one instruction.
     * @return false when the stream halted (HALT executed) or an
     *         unrecoverable condition occurred.
     */
    bool step();

    /**
     * Run until HALT or @p max_instructions executed.
     * @return instructions executed.
     */
    std::uint64_t run(std::uint64_t max_instructions);

    /** True after HALT. */
    bool halted() const { return halted_; }

    /** Architected register read (same numbering as the machine). */
    Word readReg(unsigned r) const;

    /** Architected register write. */
    void writeReg(unsigned r, Word value);

    /** Current PC. */
    PAddr pc() const { return pc_; }

    /** Set the PC. */
    void setPc(PAddr pc) { pc_ = pc; }

    /** Internal memory. */
    InternalMemory &internalMemory() { return imem_; }
    const InternalMemory &internalMemory() const { return imem_; }

    /** Stack window. */
    const StackWindow &window() const { return window_; }

    /** Count of stack-window bound violations seen. */
    std::uint64_t overflowEvents() const { return overflows_; }

    /** Count of illegal instructions seen (skipped as NOPs). */
    std::uint64_t illegalEvents() const { return illegal_; }

  private:
    InternalMemory imem_;
    ProgramMemory pmem_;
    PredecodeTable pdec_; ///< same decoder as the Machine (inst, legal)
    Bus bus_;
    StackWindow window_;
    std::array<Word, kNumGlobalRegs> globals_{};
    PAddr pc_ = 0;
    bool z_ = false, n_ = false, c_ = false, v_ = false;
    Word mulHigh_ = 0;
    Word ir_ = 0;
    Word mr_ = 0xff;
    StreamId self_ = 0;
    bool halted_ = false;
    std::uint64_t overflows_ = 0;
    std::uint64_t illegal_ = 0;

    void setFlags(Word result, bool carry, bool overflow);
    void noteWindow(bool violated);
    void applyWctl(WCtl w);
    void execute(const Instruction &inst, PAddr this_pc, PAddr &next);
};

} // namespace disc

#endif // DISC_SIM_INTERP_HH
