#include "verify/coverage.hh"

#include <algorithm>
#include <limits>

#include "common/logging.hh"

namespace disc
{

namespace
{
constexpr std::size_t kActiveBuckets = kNumStreams + 1;
constexpr std::size_t kSkipBuckets = 2;
constexpr std::size_t kDenseSize =
    static_cast<std::size_t>(kNumOpcodes) * kNumPipeEvents *
    kActiveBuckets * kSkipBuckets;
// Dense (op x event x active x skip) block, then one slot per
// superblock bail reason, one per batch peel reason, and one per
// board device type.
constexpr std::size_t kMapSize =
    kDenseSize + kNumSbBails + kNumBatchPeels + kNumBoardDeviceTypes;
} // namespace

CoverageMap::CoverageMap() : hits_(kMapSize, 0) {}

std::size_t
CoverageMap::index(Opcode op, PipeEvent ev, unsigned active,
                   bool skip_taken)
{
    auto o = static_cast<std::size_t>(op);
    auto e = static_cast<std::size_t>(ev);
    if (o >= kNumOpcodes || e >= kNumPipeEvents ||
        active >= kActiveBuckets)
        panic("coverage point (%zu, %zu, %u) out of range", o, e,
              active);
    return ((o * kNumPipeEvents + e) * kActiveBuckets + active) *
               kSkipBuckets +
           (skip_taken ? 1 : 0);
}

void
CoverageMap::record(Opcode op, PipeEvent ev, unsigned active,
                    bool skip_taken)
{
    std::uint32_t &h = hits_[index(op, ev, active, skip_taken)];
    if (h != std::numeric_limits<std::uint32_t>::max())
        ++h;
}

void
CoverageMap::recordBail(SbBail b)
{
    auto i = static_cast<std::size_t>(b);
    if (i >= kNumSbBails)
        panic("bail reason %zu out of range", i);
    std::uint32_t &h = hits_[kDenseSize + i];
    if (h != std::numeric_limits<std::uint32_t>::max())
        ++h;
}

void
CoverageMap::recordPeel(BatchPeel p)
{
    auto i = static_cast<std::size_t>(p);
    if (i >= kNumBatchPeels)
        panic("peel reason %zu out of range", i);
    std::uint32_t &h = hits_[kDenseSize + kNumSbBails + i];
    if (h != std::numeric_limits<std::uint32_t>::max())
        ++h;
}

void
CoverageMap::recordBoardDevice(std::size_t type)
{
    if (type >= kNumBoardDeviceTypes)
        panic("board device type %zu out of range", type);
    std::uint32_t &h =
        hits_[kDenseSize + kNumSbBails + kNumBatchPeels + type];
    if (h != std::numeric_limits<std::uint32_t>::max())
        ++h;
}

std::size_t
CoverageMap::pointsHit() const
{
    std::size_t n = 0;
    for (std::uint32_t h : hits_)
        n += h != 0;
    return n;
}

std::size_t
CoverageMap::countNew(const CoverageMap &other) const
{
    std::size_t n = 0;
    for (std::size_t i = 0; i < hits_.size(); ++i)
        n += hits_[i] == 0 && other.hits_[i] != 0;
    return n;
}

void
CoverageMap::merge(const CoverageMap &other)
{
    for (std::size_t i = 0; i < hits_.size(); ++i) {
        std::uint64_t sum =
            static_cast<std::uint64_t>(hits_[i]) + other.hits_[i];
        hits_[i] = static_cast<std::uint32_t>(std::min<std::uint64_t>(
            sum, std::numeric_limits<std::uint32_t>::max()));
    }
}

void
CoverageMap::clear()
{
    std::fill(hits_.begin(), hits_.end(), 0);
}

} // namespace disc
