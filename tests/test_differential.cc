/**
 * @file
 * Differential tests: randomly generated single-stream programs must
 * produce identical architectural results on the pipelined Machine
 * and on the sequential golden-model Interp, regardless of hazards,
 * flushes and interleaving artifacts.
 *
 * The generator produces terminating programs only: straight-line
 * ALU/memory/window instructions, short forward branches, balanced
 * call/return pairs, ending in HALT. Window motion is tracked so the
 * stack region is never violated.
 *
 * The Machine executes through its micro-op handlers and the Interp
 * through an opcode switch that never reads the predecoded micro-op
 * index, so these tests also cross each handler, and the Opcode ->
 * Uop mapping that selects it, against independently written
 * semantics. EveryUopAgainstSwitch makes sure every micro-op is
 * actually on that path.
 */

#include <gtest/gtest.h>

#include "arch/devices.hh"
#include "common/logging.hh"
#include "common/random.hh"
#include "isa/assembler.hh"
#include "isa/predecode.hh"
#include "isa/uops.hh"
#include "sim/interp.hh"
#include "sim/machine.hh"
#include "sim/trace.hh"
#include "verify/differential.hh"

namespace disc
{
namespace
{

/** Emits a random terminating program as a vector of instructions. */
class ProgramGenerator
{
  public:
    explicit ProgramGenerator(std::uint64_t seed)
        : rng_(seed)
    {}

    Program
    generate(unsigned length)
    {
        code_.clear();
        headroom_ = kStackRegionWords - kNumWindowRegs - 4;
        depth_ = 0;
        for (unsigned i = 0; i < length; ++i)
            emitRandom();
        // Unwind any window motion we accumulated, then stop.
        while (depth_ > 0) {
            code_.push_back(encode(makeOp(Opcode::WDEC)));
            --depth_;
        }
        code_.push_back(encode(makeOp(Opcode::HALT)));

        Program p;
        p.code = code_;
        return p;
    }

  private:
    Rng rng_;
    std::vector<InstWord> code_;
    int headroom_ = 0;
    int depth_ = 0;

    unsigned
    anyReg()
    {
        // Window locals and globals; specials only via dedicated ops.
        unsigned r = static_cast<unsigned>(rng_.below(12));
        return r;
    }

    int
    smallImm()
    {
        return static_cast<int>(rng_.below(256)) - 128;
    }

    void
    emitRandom()
    {
        switch (rng_.below(14)) {
          case 0: case 1: case 2: { // three-register ALU
            static const Opcode ops[] = {
                Opcode::ADD, Opcode::ADC, Opcode::SUB, Opcode::SBC,
                Opcode::AND, Opcode::OR, Opcode::XOR, Opcode::SHL,
                Opcode::SHR, Opcode::ASR, Opcode::MUL};
            Opcode op = ops[rng_.below(std::size(ops))];
            code_.push_back(
                encode(makeR3(op, anyReg(), anyReg(), anyReg())));
            break;
          }
          case 3: case 4: { // immediate ALU
            static const Opcode ops[] = {Opcode::ADDI, Opcode::SUBI,
                                         Opcode::ANDI, Opcode::ORI,
                                         Opcode::XORI};
            Opcode op = ops[rng_.below(std::size(ops))];
            code_.push_back(
                encode(makeRI(op, anyReg(), anyReg(), smallImm())));
            break;
          }
          case 5: { // constant loads
            if (rng_.chance(0.5)) {
                code_.push_back(encode(makeLdi(
                    anyReg(), static_cast<int>(rng_.below(4096)) -
                                  2048)));
            } else {
                code_.push_back(encode(makeLdih(
                    anyReg(), static_cast<unsigned>(rng_.below(256)))));
            }
            break;
          }
          case 6: { // two-register ops
            static const Opcode ops[] = {Opcode::MOV, Opcode::NOT,
                                         Opcode::NEG};
            code_.push_back(encode(makeR2(ops[rng_.below(3)], anyReg(),
                                          anyReg())));
            break;
          }
          case 7: { // compares / flags
            Instruction i;
            i.op = rng_.chance(0.5) ? Opcode::CMP : Opcode::TST;
            i.ra = anyReg();
            i.rb = anyReg();
            code_.push_back(encode(i));
            break;
          }
          case 8: { // MULH
            code_.push_back(
                encode(makeR2(Opcode::MULH, anyReg(), 0)));
            break;
          }
          case 9: { // internal memory, direct (low region only)
            unsigned addr = static_cast<unsigned>(rng_.below(256));
            Opcode op =
                rng_.chance(0.5) ? Opcode::LDMD : Opcode::STMD;
            Instruction i;
            i.op = op;
            i.rd = anyReg();
            i.imm = static_cast<int>(addr);
            code_.push_back(encode(i));
            break;
          }
          case 10: { // internal memory, register indirect via masked reg
            // Constrain the base: r = r & 0xff so the address stays in
            // the low region, away from the stack.
            unsigned base = anyReg();
            code_.push_back(
                encode(makeRI(Opcode::ANDI, base, base, 0x7f)));
            Opcode op = rng_.chance(0.5) ? Opcode::LDM : Opcode::STM;
            code_.push_back(encode(makeRI(op, anyReg(), base,
                                          static_cast<int>(
                                              rng_.below(64)))));
            break;
          }
          case 11: { // window motion (bounded)
            if (rng_.chance(0.5) && headroom_ > 0) {
                code_.push_back(encode(makeOp(Opcode::WINC)));
                --headroom_;
                ++depth_;
            } else if (depth_ > 0) {
                code_.push_back(encode(makeOp(Opcode::WDEC)));
                ++headroom_;
                --depth_;
            }
            break;
          }
          case 12: { // wctl suffix on an ALU op (bounded)
            if (headroom_ > 0 && depth_ < 100) {
                code_.push_back(encode(makeR3(Opcode::ADD, anyReg(),
                                              anyReg(), anyReg(),
                                              WCtl::Inc)));
                --headroom_;
                ++depth_;
            }
            break;
          }
          case 13: { // short forward branch over 1..3 instructions
            unsigned skip = 1 + static_cast<unsigned>(rng_.below(3));
            Cond cond = static_cast<Cond>(rng_.below(8));
            code_.push_back(encode(
                makeBranch(cond, static_cast<int>(skip) + 1)));
            for (unsigned k = 0; k < skip; ++k) {
                code_.push_back(encode(makeRI(
                    Opcode::ADDI, anyReg(), anyReg(), smallImm())));
            }
            break;
          }
        }
    }
};

/** Compare all architected state between machine and interpreter. */
void
expectSameArchState(const Machine &m, const Interp &ref,
                    std::uint64_t seed)
{
    for (unsigned r = 0; r < 12; ++r) {
        EXPECT_EQ(m.readReg(0, r), ref.readReg(r))
            << "seed " << seed << " reg " << reg::name(r);
    }
    EXPECT_EQ(m.window(0).awp(), ref.window().awp()) << "seed " << seed;
    // Flags (low 4 bits of SR).
    EXPECT_EQ(m.readReg(0, reg::SR) & 0xf, ref.readReg(reg::SR) & 0xf)
        << "seed " << seed;
    for (Addr a = 0; a < kInternalMemWords; ++a) {
        ASSERT_EQ(m.internalMemory().read(a),
                  ref.internalMemory().read(a))
            << "seed " << seed << " mem[" << a << "]";
    }
}

class DifferentialTest : public ::testing::TestWithParam<std::uint64_t>
{};

TEST_P(DifferentialTest, MachineMatchesGoldenModel)
{
    std::uint64_t seed = GetParam();
    ProgramGenerator gen(seed);
    Program p = gen.generate(300);

    Interp ref;
    ref.load(p);
    std::uint64_t executed = ref.run(100000);
    ASSERT_TRUE(ref.halted()) << "seed " << seed;
    ASSERT_EQ(ref.overflowEvents(), 0u)
        << "generator let the window escape, seed " << seed;

    Machine m;
    m.load(p);
    m.startStream(0, 0);
    m.run(1000000);
    ASSERT_TRUE(m.idle()) << "seed " << seed;
    EXPECT_EQ(m.stats().stackOverflows, 0u);

    expectSameArchState(m, ref, seed);
    // The pipelined machine retires exactly the instructions the
    // golden model executed (flushed wrong-path work never retires).
    EXPECT_EQ(m.stats().totalRetired, executed) << "seed " << seed;
}

INSTANTIATE_TEST_SUITE_P(RandomPrograms, DifferentialTest,
                         ::testing::Range<std::uint64_t>(1, 81));

TEST(DifferentialCalls, NestedCallProgramMatches)
{
    // Calls/returns are exercised with a structured program (the
    // random generator keeps to straight-line + forward branches).
    Program p = assemble(R"(
        .org 0x20
        main:
            ldi g0, 4
            call fib           ; g1 = fib(g0) with memoised recursion
            stmd g1, [0x20]
            ldi g0, 7
            call fib
            stmd g1, [0x21]
            halt
        fib:
            cmpi g0, 2
            bge f_rec
            mov g1, g0
            ret 0
        f_rec:
            winc               ; local: saved n
            winc               ; local: fib(n-1)
            mov r0, g0
            subi g0, r0, 1
            call fib
            mov r1, g1
            subi g0, r0, 2
            call fib
            add g1, g1, r1
            ret 2
    )");
    Interp ref;
    ref.load(p);
    ref.setPc(p.symbol("main"));
    ref.run(100000);
    ASSERT_TRUE(ref.halted());
    EXPECT_EQ(ref.internalMemory().read(0x20), 3);  // fib(4)
    EXPECT_EQ(ref.internalMemory().read(0x21), 13); // fib(7)

    Machine m;
    m.load(p);
    m.startStream(0, p.symbol("main"));
    m.run(1000000);
    ASSERT_TRUE(m.idle());
    expectSameArchState(m, ref, 0);
}

TEST(DifferentialDevices, ExternalAccessesMatchWithZeroLatency)
{
    // With a zero-wait-state device both models see the same values.
    Program p = assemble(R"(
        .org 0x20
        main:
            ldi  g0, 0x00
            ldih g0, 0x10
            ldi  r1, 7
            st   r1, [g0+2]
            ld   r2, [g0+2]
            addi r2, r2, 1
            st   r2, [g0+3]
            ld   g1, [g0+3]
            halt
    )");
    ExternalMemoryDevice dev_m(64, 0), dev_i(64, 0);

    Machine m;
    m.attachDevice(0x1000, 64, &dev_m);
    m.load(p);
    m.startStream(0, p.symbol("main"));
    m.run(10000);
    ASSERT_TRUE(m.idle());

    Interp ref;
    ref.attachDevice(0x1000, 64, &dev_i);
    ref.load(p);
    ref.setPc(p.symbol("main"));
    ref.run(10000);
    ASSERT_TRUE(ref.halted());

    EXPECT_EQ(dev_m.peek(3), dev_i.peek(3));
    EXPECT_EQ(m.readReg(0, reg::G1), ref.readReg(reg::G1));
    EXPECT_EQ(m.readReg(0, reg::G1), 8);
}

TEST(Interpreter, HaltStopsExecution)
{
    Program p = assemble("main:\n halt\n nop\n");
    Interp ref;
    ref.load(p);
    EXPECT_EQ(ref.run(100), 1u);
    EXPECT_TRUE(ref.halted());
    EXPECT_FALSE(ref.step());
}

/**
 * A corpus covering every (opcode, wctl) word class, including the
 * undefined opcode space, crossed with operand patterns that put every
 * value in every 4-bit field plus the wide-immediate corner patterns.
 */
std::vector<InstWord>
predecodeCorpus()
{
    std::vector<std::uint32_t> lows;
    for (unsigned nib = 0; nib < 4; ++nib)
        for (std::uint32_t v = 0; v < 16; ++v)
            lows.push_back(v << (4 * nib));
    for (std::uint32_t extra : {0xffffu, 0x0fffu, 0x01ffu, 0x1234u,
                                0x8765u, 0xf0f0u, 0x0f0fu, 0xaaaau})
        lows.push_back(extra);

    std::vector<InstWord> words;
    words.reserve(64 * 4 * lows.size());
    for (std::uint32_t op = 0; op < 64; ++op)
        for (std::uint32_t wctl = 0; wctl < 4; ++wctl)
            for (std::uint32_t low : lows)
                words.push_back((op << 18) | (wctl << 16) | low);
    return words;
}

TEST(Predecode, TableMatchesPerWordFunctionsForEveryWordClass)
{
    Program p;
    p.code = predecodeCorpus();
    PredecodeTable table;
    table.load(p);
    ASSERT_EQ(table.size(), p.code.size());

    for (PAddr addr = 0; addr < p.code.size(); ++addr) {
        InstWord word = p.code[addr];
        const PredecodedInst &pd = table.at(addr);
        ASSERT_EQ(pd.legal, isLegal(word)) << strprintf("word %06x", word);
        ASSERT_TRUE(pd.inst == decode(word))
            << strprintf("word %06x", word);
        std::uint32_t reads = 0, writes = 0;
        depMasks(decode(word), reads, writes);
        ASSERT_EQ(pd.readsMask, reads) << strprintf("word %06x", word);
        ASSERT_EQ(pd.writesMask, writes) << strprintf("word %06x", word);
    }

    // Beyond the image the table yields the predecoded NOP, mirroring
    // ProgramMemory::fetch.
    const PredecodedInst &past = table.at(
        static_cast<PAddr>(p.code.size()) + 100);
    EXPECT_TRUE(past.legal);
    EXPECT_TRUE(past.inst == decode(0));
}

TEST(Predecode, DependencyMaskSemantics)
{
    // Window-register operands pick up the AWP pseudo-dependency;
    // globals do not. Flag writers mark kDepFlags.
    PredecodedInst add = predecode(encode(makeR3(Opcode::ADD, 3, 1, 2)));
    ASSERT_TRUE(add.legal);
    EXPECT_EQ(add.readsMask, (1u << 1) | (1u << 2) | kDepAwp);
    EXPECT_EQ(add.writesMask, (1u << 3) | kDepFlags);

    PredecodedInst gadd = predecode(
        encode(makeR3(Opcode::ADD, reg::G0, reg::G1, reg::G2)));
    EXPECT_EQ(gadd.readsMask, (1u << reg::G1) | (1u << reg::G2));
    EXPECT_EQ(gadd.writesMask, (1u << reg::G0) | kDepFlags);

    // The MUL high-half latch is a pseudo-resource ordered between
    // MUL (producer) and MULH (consumer).
    PredecodedInst mul = predecode(encode(makeR3(Opcode::MUL, 3, 1, 2)));
    EXPECT_NE(mul.writesMask & kDepMulHigh, 0u);
    Instruction mulh;
    mulh.op = Opcode::MULH;
    mulh.rd = 4;
    EXPECT_NE(predecode(encode(mulh)).readsMask & kDepMulHigh, 0u);

    // Window motion (explicit or via wctl) orders on the AWP.
    PredecodedInst winc = predecode(encode(makeOp(Opcode::WINC)));
    EXPECT_NE(winc.writesMask & kDepAwp, 0u);
    PredecodedInst addw = predecode(
        encode(makeR3(Opcode::ADD, reg::G0, reg::G1, reg::G2, WCtl::Inc)));
    EXPECT_NE(addw.writesMask & kDepAwp, 0u);

    // Undefined opcodes predecode as illegal.
    EXPECT_FALSE(predecode(static_cast<InstWord>(60) << 18).legal);
}

TEST(Interpreter, IllegalInstructionSkipsAndCounts)
{
    Program p;
    p.code = {static_cast<InstWord>(60) << 18, // undefined opcode
              encode(makeOp(Opcode::HALT))};
    Interp ref;
    ref.load(p);
    ref.run(10);
    EXPECT_EQ(ref.illegalEvents(), 1u);
    EXPECT_TRUE(ref.halted());
}

// ---- Every micro-op against the interpreter's switch ----

/**
 * A four-stream program whose run executes every micro-op, with each
 * branch condition both taken and not taken. Per-stream final state
 * must be interleaving-independent (see verify/generator.hh): no
 * globals, disjoint scratch regions ([s*64, s*64+64)) and devices.
 *
 *  - stream 0: stream control (FORK, FORKR, SCHED, SWI), the external
 *    bus (LD, ST), and a self-interrupt whose handler runs CLRI; RETI;
 *  - stream 1: every ALU and load-immediate op, recording each result
 *    and the flags it left, then 24 branches: the eight conditions
 *    under three flag states that make each one go both ways;
 *  - stream 2: jumps, calls, returns and window moves;
 *  - stream 3 (spawned through its level-1 vector): internal memory.
 */
std::string
everyUopSource()
{
    std::string src = R"(
        .org 2              ; vector: stream 0, level 2
            jmp  handler2
        .org 25             ; vector: stream 3, level 1 (its spawn)
            jmp  s3
        .org 0x20
        main:
            ldi   r1, 0
            ldih  r1, 0x10  ; this stream's device
            ldi   r0, s2
            fork  1, s1
            forkr 2, r0
            sched 3, 3
            swi   3, 1
            swi   0, 2
            ldi   r2, 0x123
            st    r2, [r1+3]
            ld    r3, [r1+3]
            addi  r3, r3, 1
            st    r3, [r1+4]
            ld    r4, [r1+4]
            nop
            nop
            nop
            nop
            halt
        handler2:
            clri  2
            reti

        s1:
            ldi   r1, 5
            ldi   r2, 7
            ldi   r3, 0
            ldih  r3, 0x80  ; 0x8000
            ldi   r4, -3
            ldi   r7, 0
            ldi   r0, 0
    )";
    // Each op writes r5 (or only flags); record r5 and the flags.
    static const char *const alu[] = {
        "add r5, r4, r2",  "cmp r1, r2\n adc r5, r1, r2",
        "sub r5, r1, r2",  "cmp r1, r2\n sbc r5, r2, r1",
        "and r5, r4, r2",  "or r5, r3, r1",
        "xor r5, r4, r1",  "shl r5, r4, r1",
        "shr r5, r4, r1",  "asr r5, r3, r1",
        "mul r5, r4, r2",  "mulh r5",
        "mov r5, r3",      "not r5, r1",
        "neg r5, r1",      "cmp r3, r1",
        "tst r4, r2",      "addi r5, r4, 5",
        "subi r5, r1, 7",  "andi r5, r4, 0x7f",
        "ori r5, r3, -1",  "xori r5, r4, 0x55",
        "cmpi r4, -3",     "ldi r5, -1234",
        "ldih r5, 0xab",
    };
    unsigned addr = 64;
    for (const char *op : alu) {
        src += strprintf("    %s\n"
                         "    stmd r5, [%u]\n"
                         "    mov  r6, sr\n"
                         "    andi r6, r6, 15\n"
                         "    stmd r6, [%u]\n",
                         op, addr, addr + 1);
        addr += 2;
    }
    // Flag states: Z; N and C; V. Between them every condition is
    // both true and false. Outcomes shift into r7, then r0.
    static const char *const states[] = {"r1, r1", "r1, r2", "r3, r1"};
    static const char *const conds[] = {"beq",  "bne",  "blt", "bge",
                                        "bult", "buge", "bmi", "bpl"};
    unsigned label = 0;
    for (unsigned st = 0; st < 3; ++st) {
        const char *acc = st < 2 ? "r7" : "r0";
        for (const char *br : conds) {
            src += strprintf("    add  %s, %s, %s\n"
                             "    cmp  %s\n"
                             "    %s  b%u\n"
                             "    ori  %s, %s, 1\n"
                             "b%u:\n",
                             acc, acc, acc, states[st], br, label, acc,
                             acc, label);
            ++label;
        }
    }
    src += R"(
            halt

        s2:
            ldi   r1, 1
            ldi   r2, 0
            jmp   j1
            ldi   r2, 99
        j1:
            ldi   r3, j2
            jr    r3
            ldi   r2, 98
        j2:
            call  f1        ; r1 += 40 through the window overlap
            ldi   r3, f2
            callr r3
            winc
            ldi   r0, 17
            addi+ r4, r0, 2 ; wctl: the window moves up after the add
            wdec
            wdec
            nop
            stmd  r1, [128]
            stmd  r2, [129]
            halt
        f1:
            winc
            ldi   r0, 40
            add   r3, r3, r0
            ret   1
        f2:
            ret   0

        s3:
            ldi   r1, 192
            ldi   r2, 0x77
            stm   r2, [r1+1]
            ldm   r3, [r1+1]
            stmd  r3, [194]
            ldmd  r4, [194]
            tas   r5, [r1]
            tas   r6, [r1]
            clri  1
            halt
    )";
    return src;
}

TEST(DifferentialUops, EveryUopAgainstSwitch)
{
    MultiStreamProgram msp;
    msp.program = assemble(everyUopSource());
    msp.streams = msp.opts.streams = kNumStreams;
    msp.opts.length = 1; // only sizes cycleBudget()
    msp.entry = {msp.program.symbol("main"), msp.program.symbol("s1"),
                 msp.program.symbol("s2"), msp.program.symbol("s3")};
    msp.vectored[3] = true;

    MachineRig rig(msp);
    ExecTrace trace(1u << 16);
    rig.machine().setExecTrace(&trace);
    rig.start();
    rig.machine().run(rig.cycleBudget());
    ASSERT_TRUE(rig.machine().idle());
    for (const std::string &d : compareWithReference(rig))
        ADD_FAILURE() << d;

    // Every micro-op ran, and every branch condition went both ways.
    // Two are not compared instruction by instruction:
    //  - SCHED only moves the interleaving, which the per-stream final
    //    state is built not to depend on (the Interp treats it as a
    //    no-op);
    //  - RETI (and the level-2 SWI/CLRI around it) runs in a vector
    //    handler the Interp never enters. It is checked as a net-zero
    //    round trip: stream 0's registers and window position must
    //    match the model that skipped the handler.
    ASSERT_EQ(trace.total(), trace.entries().size()); // none evicted
    std::array<unsigned, kNumUops> hist{};
    std::array<unsigned, 8> taken{}, fallthrough{};
    std::array<const ExecTrace::Entry *, kNumStreams> branch{};
    for (const ExecTrace::Entry &e : trace.entries()) {
        if (const ExecTrace::Entry *b = branch[e.stream]) {
            unsigned c = static_cast<unsigned>(b->inst.cond);
            ++(e.pc == b->pc + 1 ? fallthrough : taken)[c];
            branch[e.stream] = nullptr;
        }
        ++hist[static_cast<unsigned>(uopFor(e.inst.op, e.inst.cond))];
        if (e.inst.op == Opcode::BR)
            branch[e.stream] = &e;
    }
    for (unsigned u = 0; u < kNumUops; ++u)
        EXPECT_GT(hist[u], 0u) << uopName(static_cast<Uop>(u));
    for (unsigned c = 0; c < 8; ++c) {
        EXPECT_GT(taken[c], 0u) << "cond " << c << " never taken";
        EXPECT_GT(fallthrough[c], 0u) << "cond " << c << " never fell through";
    }
}

} // namespace
} // namespace disc
