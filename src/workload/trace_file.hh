/**
 * @file
 * Trace recording and replay.
 *
 * Lets users capture a task's instruction stream (synthetic or
 * otherwise) to a compact binary file and replay it later --
 * e.g. to pin a workload across library versions, to share a
 * reproduction input, or to splice in externally generated traces
 * (the closest substitute for the paper's SPEC reference runs).
 *
 * File format (little-endian):
 *   24-byte header: magic "RSTR", u32 version, u64 entry count,
 *                   f64 base CPI
 *   entries: u32 gap, u8 flags (bit0 write, bit1 sequential,
 *            bit2 dependent), u8[3] pad, u64 vaddr
 */

#ifndef REFSCHED_WORKLOAD_TRACE_FILE_HH
#define REFSCHED_WORKLOAD_TRACE_FILE_HH

#include <cstdint>
#include <string>
#include <vector>

#include "cpu/instruction_source.hh"

namespace refsched::workload
{

/** Most entries one recording may hold: 2^26, which is 1 GiB on
 *  disk and as much again in memory. */
inline constexpr std::uint64_t kMaxTraceEntries = 1ULL << 26;

/** Capture entries from @p source into an in-memory trace; fatal()
 *  when @p entries exceeds kMaxTraceEntries. */
std::vector<cpu::TraceEntry> recordTrace(cpu::InstructionSource &source,
                                         std::uint64_t entries);

/** Write @p entries to @p path; fatal() on I/O errors. */
void writeTraceFile(const std::string &path,
                    const std::vector<cpu::TraceEntry> &entries,
                    double baseCpi = 0.5);

/** Result of loading a trace file. */
struct LoadedTrace
{
    std::vector<cpu::TraceEntry> entries;
    double baseCpi = 0.5;
};

/** Read a trace file; fatal() on corrupt or unreadable input,
 *  including a header that claims more entries than the file holds. */
LoadedTrace readTraceFile(const std::string &path);

/**
 * An InstructionSource replaying a recorded trace, looping when the
 * recording is exhausted (simulations are time-bounded, so sources
 * must be infinite).
 */
class ReplaySource final : public cpu::InstructionSource
{
  public:
    explicit ReplaySource(std::vector<cpu::TraceEntry> entries,
                          double baseCpi = 0.5);

    /** Convenience: load from a trace file. */
    explicit ReplaySource(const std::string &path);

    cpu::TraceEntry next() override;
    double baseCpi() const override { return baseCpi_; }

    std::size_t size() const { return entries_.size(); }
    std::uint64_t loops() const { return loops_; }

  private:
    std::vector<cpu::TraceEntry> entries_;
    double baseCpi_;
    std::size_t pos_ = 0;
    std::uint64_t loops_ = 0;
};

} // namespace refsched::workload

#endif // REFSCHED_WORKLOAD_TRACE_FILE_HH
