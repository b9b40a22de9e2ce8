#include "dram/timings.hh"

#include "simcore/logging.hh"

namespace refsched::dram
{

std::string
toString(DensityGb d)
{
    return std::to_string(static_cast<int>(d)) + "Gb";
}

void
DramOrganization::check() const
{
    if (channels < 1 || ranksPerChannel < 1 || banksPerRank < 1)
        fatal("DRAM organization fields must be positive");
    if (!isPowerOfTwo(static_cast<std::uint64_t>(channels)))
        fatal("channel count must be a power of two");
    if (!isPowerOfTwo(static_cast<std::uint64_t>(ranksPerChannel)))
        fatal("rank count must be a power of two");
    if (!isPowerOfTwo(static_cast<std::uint64_t>(banksPerRank)))
        fatal("bank count must be a power of two");
    // rowsPerBank may be non-power-of-two (24 Gb devices have 384K
    // rows); the row is the top address field, so no bit mask is
    // needed for it.
    if (rowsPerBank == 0)
        fatal("rows per bank must be non-zero");
    if (!isPowerOfTwo(rowBytes) || !isPowerOfTwo(lineBytes))
        fatal("row and line sizes must be powers of two");
    if (lineBytes > rowBytes)
        fatal("line larger than row");
}

void
DramTimings::check(const DramOrganization &org) const
{
    if (tCK == 0)
        fatal("tCK must be non-zero");
    if (tRC < tRAS)
        fatal("tRC must cover tRAS");
    if (tREFIab == 0 || tREFW == 0)
        fatal("refresh intervals must be non-zero");
    if (tRFCab >= tREFIab)
        fatal("tRFC_ab (", tRFCab, ") must be smaller than tREFI_ab (",
              tREFIab, "): refresh would consume the whole interval");
    // Per-bank feasibility: consecutive same-bank refreshes occur at
    // least one per-rank interval apart (the sequential scheduler
    // falls back to rank-parallel slots when the global cadence is
    // tighter than tRFC_pb, e.g. 32 ms retention at 32 Gb).
    if (tRFCpb >= tREFIpb(org.banksPerRank))
        fatal("tRFC_pb must be smaller than the per-rank per-bank "
              "refresh interval");
    if (refreshCommandsPerWindow == 0)
        fatal("refreshCommandsPerWindow must be non-zero");
    if (rowsPerRefresh * refreshCommandsPerWindow != org.rowsPerBank)
        fatal("refresh schedule does not cover the bank exactly: ",
              rowsPerRefresh, " rows/REF * ", refreshCommandsPerWindow,
              " REFs != ", org.rowsPerBank, " rows");
}

double
tRfcAbNs(DensityGb density)
{
    switch (density) {
      case DensityGb::d8:
        return 350.0;
      case DensityGb::d16:
        return 530.0;
      case DensityGb::d24:
        return 710.0;
      case DensityGb::d32:
        return 890.0;
    }
    fatal("density must be 8, 16, 24 or 32 Gb");
}

std::uint64_t
rowsPerBankFor(DensityGb density)
{
    switch (density) {
      case DensityGb::d8:
        return 128 * 1024;
      case DensityGb::d16:
        return 256 * 1024;
      case DensityGb::d24:
        return 384 * 1024;
      case DensityGb::d32:
        return 512 * 1024;
    }
    fatal("density must be 8, 16, 24 or 32 Gb");
}

constexpr std::uint64_t kJedecRefreshCommands = 8192;

void
checkTimeScale(unsigned timeScale)
{
    if (timeScale == 0)
        fatal("timeScale must be >= 1");
    if (!isPowerOfTwo(timeScale))
        fatal("timeScale must be a power of two to keep rows/bank a "
              "power of two, got ", timeScale);
    if (timeScale > kJedecRefreshCommands)
        fatal("timeScale too large: fewer than one refresh command "
              "per window");
}

DramDeviceConfig
makeDdr3_1600(DensityGb density, Tick tREFW, unsigned timeScale,
              FgrMode fgr)
{
    checkTimeScale(timeScale);

    DramDeviceConfig cfg;
    cfg.density = density;
    cfg.fgr = fgr;
    cfg.timeScale = timeScale;

    const std::uint64_t rows = rowsPerBankFor(density);
    if (rows % timeScale != 0)
        fatal("timeScale does not divide rows per bank");
    cfg.org.rowsPerBank = rows / timeScale;

    DramTimings &t = cfg.timings;
    t.tREFW = tREFW / timeScale;
    t.refreshCommandsPerWindow = kJedecRefreshCommands / timeScale;
    t.tREFIab = t.tREFW / t.refreshCommandsPerWindow;
    t.rowsPerRefresh = cfg.org.rowsPerBank / t.refreshCommandsPerWindow;

    const double rfcAbNs = tRfcAbNs(density);
    double rfcScale = 1.0;
    switch (fgr) {
      case FgrMode::x1:
        rfcScale = 1.0;
        break;
      case FgrMode::x2:
        // Paper section 6.3: tREFI halves but tRFC shrinks only by
        // 1.35x, so 2x mode issues more refresh time overall.
        rfcScale = 1.35;
        t.tREFIab /= 2;
        t.refreshCommandsPerWindow *= 2;
        t.rowsPerRefresh = divCeil(t.rowsPerRefresh, 2);
        break;
      case FgrMode::x4:
        rfcScale = 1.63;
        t.tREFIab /= 4;
        t.refreshCommandsPerWindow *= 4;
        t.rowsPerRefresh = divCeil(t.rowsPerRefresh, 4);
        break;
    }
    t.tRFCab = nanoseconds(rfcAbNs / rfcScale);
    // tRFC_ab-to-tRFC_pb ratio = 2.3 (Table 1, from Chang et al.).
    t.tRFCpb = nanoseconds(rfcAbNs / rfcScale / 2.3);

    cfg.org.check();
    // FGR modes round rowsPerRefresh up, so skip the exact-coverage
    // check for them; x1 must match exactly.
    if (fgr == FgrMode::x1)
        t.check(cfg.org);

    return cfg;
}

} // namespace refsched::dram
