/**
 * @file
 * Behavioural coverage map for the coverage-guided fuzzer.
 *
 * A coverage point is the tuple (opcode, pipeline event, number of
 * active streams at the time, event-skip taken): "an ST was squashed
 * by a bus wait while three streams were live" is a different point
 * from the same squash with one stream live, and both differ again
 * depending on whether the run has exercised the timing kernel's
 * fast-forward path. The fuzzer keeps a
 * generated program in its corpus exactly when running it lights up
 * at least one point no earlier input has reached, which steers the
 * random search toward the interleaving-dependent corners the DISC
 * paper's claims live in.
 *
 * Superblock bail reasons are a second, much smaller point family:
 * each SbBail value the run triggered at least once is its own
 * coverage point, so the corpus keeps inputs that drive the
 * translation tier out through exits (interrupt expiry, ABI waits,
 * budget edges) earlier inputs never took. Hot-chunk exit reasons are
 * a third family of the same shape: each HotExit value an
 * observer-free replay triggered keeps inputs that leave run()'s hot
 * chunks through distinct exits (event horizon, cold ops, stalls,
 * budget). Board device types are a fourth family: each
 * registry device type a generated board composed at least once is
 * its own point, so the board-axis corpus keeps specs that exercise
 * peripherals earlier boards never placed on the bus.
 */

#ifndef DISC_VERIFY_COVERAGE_HH
#define DISC_VERIFY_COVERAGE_HH

#include <cstdint>
#include <vector>

#include "board/registry.hh"
#include "common/types.hh"
#include "isa/opcodes.hh"
#include "sim/machine.hh"
#include "sim/observer.hh"
#include "sim/superblock.hh"

namespace disc
{

/**
 * Dense hit-count map over (opcode × pipe event × active streams ×
 * event-skip taken).
 */
class CoverageMap
{
  public:
    CoverageMap();

    /**
     * Record one event with @p active streams live (0..kNumStreams).
     * @p skip_taken says whether the run has fast-forwarded at least
     * once by event time — the same behaviour reached with and
     * without the event-skip path engaged counts as two points.
     */
    void record(Opcode op, PipeEvent ev, unsigned active,
                bool skip_taken = false);

    /** Record that the superblock tier bailed for reason @p b. */
    void recordBail(SbBail b);

    /** Record every hot-chunk exit reason @p st counts at least once. */
    void recordHotExits(const MachineStats &st);

    /**
     * Record that a generated board composed a device of registry
     * type index @p type (DeviceRegistry::typeIndex()).
     */
    void recordBoardDevice(std::size_t type);

    /** Number of distinct points hit at least once. */
    std::size_t pointsHit() const;

    /** Total number of representable points. */
    std::size_t pointsTotal() const { return hits_.size(); }

    /** Points hit in @p other that this map has never seen. */
    std::size_t countNew(const CoverageMap &other) const;

    /** Fold @p other's hits into this map. */
    void merge(const CoverageMap &other);

    /** Clear all hit counts. */
    void clear();

  private:
    // Indexed [op][event][active][skip]; one 32-bit saturating
    // counter each. The superblock bail-reason points live in a
    // kNumSbBails-long tail after the dense block, followed by a
    // kNumHotExits-long tail for the hot-chunk exit reasons and a
    // kNumBoardDeviceTypes-long tail for board device types.
    std::vector<std::uint32_t> hits_;

    static std::size_t index(Opcode op, PipeEvent ev, unsigned active,
                             bool skip_taken);
};

} // namespace disc

#endif // DISC_VERIFY_COVERAGE_HH
