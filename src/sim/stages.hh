/**
 * @file
 * Stage modules and the timing kernel that together form the
 * event-scheduled simulator core.
 *
 * The former monolithic Machine::step() is decomposed into four
 * cooperating stage objects — issue (fetch/schedule), execute,
 * ABI/writeback, interrupt-vector — plus a TimingKernel that owns the
 * event queue and keeps lazily-synchronized device time. Each stage
 * holds a back-reference to the Machine, whose architectural state
 * remains the single source of truth; the split is about giving each
 * pipeline concern its own reviewable module, not about duplicating
 * state.
 *
 * Layering (see DESIGN.md):
 *
 *   event kernel (EventQueue + TimingKernel)
 *        ^ schedules completions/expiries
 *   devices / ABI bus
 *        ^ accessed at EX / completion
 *   pipeline stages (issue -> execute -> ABI/writeback, vector unit)
 *        ^ hook points
 *   observer / traces / stats
 */

#ifndef DISC_SIM_STAGES_HH
#define DISC_SIM_STAGES_HH

#include <vector>

#include "arch/bus.hh"
#include "common/event_queue.hh"
#include "common/types.hh"
#include "sim/pipeline_state.hh"

namespace disc
{

class Machine;
struct ExecOps;

/** Interrupt-vector stage: serialized vector entry at issue time. */
class VectorStage
{
  public:
    explicit VectorStage(Machine &m) : m_(m) {}

    /** Push the return PC and redirect @p s into its vector handler. */
    void takeVector(StreamId s, unsigned level);

  private:
    Machine &m_;
};

/** Fetch/issue stage: readiness, interlocks and the schedule pick. */
class IssueStage
{
  public:
    explicit IssueStage(Machine &m) : m_(m) {}

    /** Streams that could issue this cycle (bit per stream). */
    unsigned readyMask() const;

    /** Issue one instruction from the scheduled stream (or bubble). */
    void tick();

  private:
    bool interlocked(StreamId s, std::uint32_t reads,
                     std::uint32_t writes) const;
    bool hasInFlight(StreamId s) const;

    Machine &m_;
};

/** Execute stage: instruction semantics at EX, redirects, traps. */
class ExecuteStage
{
  public:
    explicit ExecuteStage(Machine &m) : m_(m) {}

    /** Execute the instruction sitting at the EX stage, if any. */
    void tick();

    /** Apply a post-execute window move (shared with the ABI stage). */
    void applyWctl(PipeSlot &slot);

  private:
    void redirect(StreamId s, PAddr target, unsigned ex_stage);
    void setAluFlags(StreamId s, Word result, bool carry, bool overflow);

    Machine &m_;

    friend struct ExecOps;  // micro-op handlers (stage_execute.cc)
};

/** ABI/writeback stage: external accesses, waits and completions. */
class AbiStage
{
  public:
    explicit AbiStage(Machine &m) : m_(m) {}

    /** Hand a LD/ST at EX to the ABI; park or squash as needed. */
    void externalAccess(PipeSlot &slot, unsigned stage);

    /** Land a completed access: writeback, wctl, wake waiters. */
    void completeAccess(const AsyncBusInterface::Completion &c);

  private:
    void wakeWaiters();

    Machine &m_;
};

/**
 * The timing kernel: owns the event queue, tracks how far each
 * device's local clock has been advanced (lazy synchronization), and
 * dispatches due events at the top of every machine cycle.
 *
 * Source ids are the device attach index; the ABI completion uses the
 * reserved kAbiSource. Events due on the same cycle dispatch in
 * (device attach order, then ABI) order — exactly the legacy
 * phase-1-devices / phase-2-ABI sequence of the per-cycle loop.
 */
class TimingKernel : public DeviceScheduleListener
{
  public:
    static constexpr std::uint32_t kAbiSource = 0xffffffffu;

    explicit TimingKernel(Machine &m) : m_(m) {}

    /** Register a newly attached device and schedule its first event. */
    void addDevice(Device *dev);

    /** Fire every event due at the current cycle (start of step()). */
    void dispatch();

    /** Cycle of the earliest queued event (kNoEvent when none). */
    Cycle nextEventTime() const { return queue_.nextTime(); }

    /** Schedule the ABI completion for the just-started access. */
    void scheduleAbiCompletion();

    /**
     * Bring the device mapped at @p addr exactly up to date before a
     * bus access touches it (device-local clocks are lazy).
     */
    void syncDeviceForAccess(Addr addr);

    /** Re-derive the event for the device at @p addr after an access. */
    void rescheduleDeviceAt(Addr addr);

    /**
     * Advance every lazy clock (devices and ABI) to the current cycle
     * boundary. Called before checkpointing and when run() returns so
     * externally visible countdowns/counters are exact.
     */
    void syncAll();

    /** Rebuild schedule state after restoreState()/reset(). */
    void rebuild();

    /** DeviceScheduleListener: device woke up out-of-band. */
    void deviceScheduleChanged(Device &dev) override;

  private:
    void syncDevice(std::size_t i, Cycle to);
    void rescheduleDevice(std::size_t i);

    Machine &m_;
    EventQueue queue_;
    std::vector<Device *> devices_;    ///< attach order = source id
    std::vector<Cycle> devSynced_;     ///< legacy ticks applied so far
    Cycle abiSynced_ = 0;
    std::vector<EventQueue::Event> dueScratch_;
};

} // namespace disc

#endif // DISC_SIM_STAGES_HH
