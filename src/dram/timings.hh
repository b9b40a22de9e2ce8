/**
 * @file
 * DRAM device organization and timing parameters.
 *
 * Values follow Table 1 of the paper: DDR3-1600, 1 channel,
 * 2 ranks/DIMM, 8 banks/rank, 4 KB rows, open-row policy, with
 * density-dependent refresh parameters (tRFC_ab = 350/530/710/890 ns
 * and 128K/256K/384K/512K rows per bank for 8/16/24/32 Gb devices)
 * and tRFC_ab : tRFC_pb = 2.3 (Chang et al., HPCA'14).
 *
 * A `timeScale` divisor shrinks the refresh window, the number of
 * refresh commands per window, and the number of rows per bank by
 * the same factor.  This keeps every behaviour-determining ratio
 * invariant -- tRFC/tREFI (refresh duty cycle), refresh-slot length /
 * OS quantum alignment, rows refreshed per command -- while letting a
 * full refresh window simulate quickly.  timeScale=1 reproduces the
 * exact JEDEC wall-clock values.
 */

#ifndef REFSCHED_DRAM_TIMINGS_HH
#define REFSCHED_DRAM_TIMINGS_HH

#include <cstdint>
#include <string>

#include "simcore/types.hh"

namespace refsched::dram
{

/** DRAM device density. Determines tRFC and rows per bank. */
enum class DensityGb : int
{
    d8 = 8,
    d16 = 16,
    d24 = 24,
    d32 = 32,
};

std::string toString(DensityGb d);

/** DDR4 fine-granularity-refresh mode (paper section 6.3). */
enum class FgrMode : int
{
    x1 = 1,  ///< Baseline tREFI, full tRFC.
    x2 = 2,  ///< tREFI/2, tRFC/1.35.
    x4 = 4,  ///< tREFI/4, tRFC/1.63.
};

/** Physical structure of the memory system. */
struct DramOrganization
{
    int channels = 1;
    int ranksPerChannel = 2;
    int banksPerRank = 8;
    std::uint64_t rowsPerBank = 512 * 1024;  ///< density-dependent
    std::uint64_t rowBytes = 4 * kKiB;       ///< 4 KB DRAM page
    std::uint64_t lineBytes = 64;            ///< cache-line burst

    /**
     * XOR the bank index with the low row bits (bank-address
     * hashing, as real controllers do): strided access patterns
     * whose period aliases the bank-interleave then spread over all
     * banks instead of camping on one.  The OS still sees the true
     * bank through AddressMapping, so the co-design is unaffected.
     */
    bool xorBankHash = false;

    int banksTotal() const { return ranksPerChannel * banksPerRank; }

    std::uint64_t
    bankBytes() const
    {
        return rowsPerBank * rowBytes;
    }

    std::uint64_t
    channelBytes() const
    {
        return static_cast<std::uint64_t>(banksTotal()) * bankBytes();
    }

    std::uint64_t
    totalBytes() const
    {
        return static_cast<std::uint64_t>(channels) * channelBytes();
    }

    std::uint64_t
    columnsPerRow() const
    {
        return rowBytes / lineBytes;
    }

    /** Validate power-of-two fields etc.; fatal() on error. */
    void check() const;
};

/** All timing parameters, in ticks (picoseconds). */
struct DramTimings
{
    Tick tCK = 1250;                    ///< DDR3-1600 clock period
    Tick tRCD = nanoseconds(13.75);     ///< ACT -> CAS
    Tick tCL = nanoseconds(13.75);      ///< CAS -> first data (read)
    Tick tCWL = nanoseconds(10.0);      ///< CAS -> first data (write)
    Tick tRP = nanoseconds(13.75);      ///< PRE -> ACT
    Tick tRAS = nanoseconds(35.0);      ///< ACT -> PRE
    Tick tRC = nanoseconds(48.75);      ///< ACT -> ACT (same bank)
    Tick tBURST = nanoseconds(5.0);     ///< BL8 data burst
    Tick tCCD = nanoseconds(5.0);       ///< CAS -> CAS
    Tick tWR = nanoseconds(15.0);       ///< write recovery
    Tick tWTR = nanoseconds(7.5);       ///< write -> read turnaround
    Tick tRTP = nanoseconds(7.5);       ///< read -> PRE
    Tick tRRD = nanoseconds(6.0);       ///< ACT -> ACT (same rank)
    Tick tFAW = nanoseconds(30.0);      ///< four-activate window
    Tick tRTRS = nanoseconds(2.5);      ///< rank-to-rank bus switch
    Tick tBusTurn = nanoseconds(7.5);   ///< read<->write bus turnaround

    // --- Refresh ---
    Tick tREFW = milliseconds(64.0);    ///< retention / refresh window
    Tick tREFIab = microseconds(7.8125);///< all-bank refresh interval
    Tick tRFCab = nanoseconds(890.0);   ///< all-bank refresh cycle
    Tick tRFCpb = nanoseconds(890.0 / 2.3);  ///< per-bank refresh cycle

    /** All-bank REF commands per tREFW (8192 / timeScale). */
    std::uint64_t refreshCommandsPerWindow = 8192;

    /** Rows refreshed in a bank by one REF command. */
    std::uint64_t rowsPerRefresh = 64;

    /** Per-bank refresh interval given total bank count. */
    Tick
    tREFIpb(int banksTotal) const
    {
        return tREFIab / static_cast<Tick>(banksTotal);
    }

    /** Fraction of time a rank is blocked by all-bank refresh. */
    double
    allBankDutyCycle() const
    {
        return static_cast<double>(tRFCab)
            / static_cast<double>(tREFIab);
    }

    /** Validate internal consistency; fatal() on error. */
    void check(const DramOrganization &org) const;
};

/** Bundle used by factory functions below. */
struct DramDeviceConfig
{
    DramOrganization org;
    DramTimings timings;
    DensityGb density = DensityGb::d32;
    FgrMode fgr = FgrMode::x1;
    unsigned timeScale = 1;
};

/** tRFC_ab in nanoseconds for a given density (Table 1 / Fig. 3). */
double tRfcAbNs(DensityGb density);

/** Unscaled rows per bank for a given density (Table 1). */
std::uint64_t rowsPerBankFor(DensityGb density);

/** fatal() unless @p timeScale is a ratio-preserving shrink factor:
 *  a power of two that leaves at least one refresh per window. */
void checkTimeScale(unsigned timeScale);

/**
 * Build a DDR3-1600-style configuration per Table 1.
 *
 * @param density     device density (sets tRFC and rows/bank)
 * @param tREFW       retention window (64 ms below 85C, 32 ms above)
 * @param timeScale   ratio-preserving shrink factor (see file header)
 * @param fgr         DDR4 fine-granularity mode (x1 = DDR3 behaviour)
 */
DramDeviceConfig makeDdr3_1600(DensityGb density,
                               Tick tREFW = milliseconds(64.0),
                               unsigned timeScale = 1,
                               FgrMode fgr = FgrMode::x1);

} // namespace refsched::dram

#endif // REFSCHED_DRAM_TIMINGS_HH
