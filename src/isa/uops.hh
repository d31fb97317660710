/**
 * @file
 * Micro-op dispatch layer: a pre-resolved handler index per program
 * word, computed once at predecode time.
 *
 * Instead of walking a ~50-way `switch` on Opcode for every retired
 * instruction (plus a second nested switch on Cond for branches), the
 * Machine's execute stage dispatches on a Uop. A Uop names the exact
 * semantic routine directly — BR is split into one micro-op per
 * condition — so the per-cycle dispatch is a single indexed load from
 * a function-pointer table instead of two unpredictable switches.
 *
 * The mapping Opcode (x Cond) -> Uop is a pure constexpr function and
 * its completeness is enforced at compile time: adding an Opcode
 * without extending uopFor() fails the build here, and the Machine's
 * dispatch table (sim/stage_execute.cc) static_asserts that it
 * installs a handler for every Uop. The golden-model interpreter
 * (sim/interp.cc) deliberately does not use this mapping: it switches
 * on the Opcode, so the differential tests check each handler and
 * the uopFor() split against independently written semantics.
 */

#ifndef DISC_ISA_UOPS_HH
#define DISC_ISA_UOPS_HH

#include <array>
#include <cstdint>
#include <string_view>

#include "isa/opcodes.hh"

namespace disc
{

/**
 * Handler index for one predecoded instruction. One value per opcode,
 * except BR which gets one per branch condition so the taken test is
 * resolved at predecode time.
 */
enum class Uop : std::uint8_t
{
    NOP = 0,
    ADD, ADC, SUB, SBC, AND, OR, XOR, SHL, SHR, ASR,
    MUL, MULH,
    MOV, NOT, NEG,
    CMP, TST,
    ADDI, SUBI, ANDI, ORI, XORI, CMPI,
    LDI, LDIH,
    LD, ST,
    LDM, STM, LDMD, STMD,
    TAS,
    JMP, JR, CALL, CALLR, RET,
    BR_EQ, BR_NE, BR_LT, BR_GE, BR_ULT, BR_UGE, BR_MI, BR_PL,
    SWI, CLRI, RETI, HALT, FORK, FORKR, SCHED,
    WINC, WDEC,

    NumUops,

    /** uopFor() sentinel for an unmapped opcode (never stored). */
    Invalid = 0xff,
};

/** Number of defined micro-ops. */
constexpr unsigned kNumUops = static_cast<unsigned>(Uop::NumUops);

/**
 * Map an opcode (and, for BR, its condition) to its micro-op.
 * Returns Uop::Invalid for an unmapped opcode; the static_assert
 * below guarantees that can never happen for a real Opcode.
 */
constexpr Uop
uopFor(Opcode op, Cond cond)
{
    switch (op) {
      case Opcode::NOP: return Uop::NOP;
      case Opcode::ADD: return Uop::ADD;
      case Opcode::ADC: return Uop::ADC;
      case Opcode::SUB: return Uop::SUB;
      case Opcode::SBC: return Uop::SBC;
      case Opcode::AND: return Uop::AND;
      case Opcode::OR: return Uop::OR;
      case Opcode::XOR: return Uop::XOR;
      case Opcode::SHL: return Uop::SHL;
      case Opcode::SHR: return Uop::SHR;
      case Opcode::ASR: return Uop::ASR;
      case Opcode::MUL: return Uop::MUL;
      case Opcode::MULH: return Uop::MULH;
      case Opcode::MOV: return Uop::MOV;
      case Opcode::NOT: return Uop::NOT;
      case Opcode::NEG: return Uop::NEG;
      case Opcode::CMP: return Uop::CMP;
      case Opcode::TST: return Uop::TST;
      case Opcode::ADDI: return Uop::ADDI;
      case Opcode::SUBI: return Uop::SUBI;
      case Opcode::ANDI: return Uop::ANDI;
      case Opcode::ORI: return Uop::ORI;
      case Opcode::XORI: return Uop::XORI;
      case Opcode::CMPI: return Uop::CMPI;
      case Opcode::LDI: return Uop::LDI;
      case Opcode::LDIH: return Uop::LDIH;
      case Opcode::LD: return Uop::LD;
      case Opcode::ST: return Uop::ST;
      case Opcode::LDM: return Uop::LDM;
      case Opcode::STM: return Uop::STM;
      case Opcode::LDMD: return Uop::LDMD;
      case Opcode::STMD: return Uop::STMD;
      case Opcode::TAS: return Uop::TAS;
      case Opcode::JMP: return Uop::JMP;
      case Opcode::JR: return Uop::JR;
      case Opcode::CALL: return Uop::CALL;
      case Opcode::CALLR: return Uop::CALLR;
      case Opcode::RET: return Uop::RET;
      case Opcode::BR:
        switch (cond) {
          case Cond::EQ: return Uop::BR_EQ;
          case Cond::NE: return Uop::BR_NE;
          case Cond::LT: return Uop::BR_LT;
          case Cond::GE: return Uop::BR_GE;
          case Cond::ULT: return Uop::BR_ULT;
          case Cond::UGE: return Uop::BR_UGE;
          case Cond::MI: return Uop::BR_MI;
          case Cond::PL: return Uop::BR_PL;
        }
        return Uop::Invalid;
      case Opcode::SWI: return Uop::SWI;
      case Opcode::CLRI: return Uop::CLRI;
      case Opcode::RETI: return Uop::RETI;
      case Opcode::HALT: return Uop::HALT;
      case Opcode::FORK: return Uop::FORK;
      case Opcode::FORKR: return Uop::FORKR;
      case Opcode::SCHED: return Uop::SCHED;
      case Opcode::WINC: return Uop::WINC;
      case Opcode::WDEC: return Uop::WDEC;
      case Opcode::NumOpcodes: break;
    }
    return Uop::Invalid;
}

/** Opcode a micro-op belongs to (BR_* collapse back to BR). */
Opcode uopOpcode(Uop u);

/** Printable micro-op name ("add", "br.eq", ...). */
std::string_view uopName(Uop u);

namespace detail
{

/** Every opcode (every condition for BR) must map to a micro-op. */
constexpr bool
uopMapComplete()
{
    for (unsigned i = 0; i < kNumOpcodes; ++i) {
        Opcode op = static_cast<Opcode>(i);
        if (op == Opcode::BR) {
            for (unsigned c = 0; c < 8; ++c) {
                if (uopFor(op, static_cast<Cond>(c)) == Uop::Invalid)
                    return false;
            }
        } else if (uopFor(op, Cond::EQ) == Uop::Invalid) {
            return false;
        }
    }
    return true;
}

} // namespace detail

static_assert(detail::uopMapComplete(),
              "every Opcode (and BR condition) needs a Uop mapping");

/**
 * A Uop-indexed handler table. Built as a constexpr object so the
 * dispatch site can `static_assert(table.complete())`: an Opcode added
 * without a handler breaks the build of that translation unit rather
 * than surfacing as a null call at fuzz time.
 */
template <typename Handler>
class UopTable
{
  public:
    constexpr void set(Uop u, Handler h)
    {
        fn_[static_cast<std::size_t>(u)] = h;
        filled_[static_cast<std::size_t>(u)] = true;
    }

    constexpr Handler operator[](Uop u) const
    {
        return fn_[static_cast<std::size_t>(u)];
    }

    /**
     * True when every micro-op has been set(). Reads a separate
     * bitmap rather than comparing handlers to null: UBSan's
     * instrumentation makes a function-pointer comparison
     * non-constant, which would break the static_assert.
     */
    constexpr bool complete() const
    {
        for (bool f : filled_) {
            if (!f)
                return false;
        }
        return true;
    }

  private:
    std::array<Handler, kNumUops> fn_{};
    std::array<bool, kNumUops> filled_{};
};

} // namespace disc

#endif // DISC_ISA_UOPS_HH
