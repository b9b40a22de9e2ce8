#include "validate/golden_trace.hh"

#include <algorithm>
#include <fstream>
#include <iterator>

#include "simcore/logging.hh"

namespace refsched::validate
{

namespace
{

constexpr char kMagic[8] = {'r', 'e', 'f', 's', 'c', 'h', 'e', 'd'};
constexpr std::uint64_t kVersion = 1;

void
putVarint(std::vector<std::uint8_t> &out, std::uint64_t v)
{
    while (v >= 0x80) {
        out.push_back(static_cast<std::uint8_t>(v) | 0x80);
        v >>= 7;
    }
    out.push_back(static_cast<std::uint8_t>(v));
}

std::uint64_t
getVarint(const std::vector<std::uint8_t> &in, std::size_t &pos)
{
    std::uint64_t v = 0;
    int shift = 0;
    for (;;) {
        if (pos >= in.size())
            fatal("truncated varint in trace at byte ", pos);
        const std::uint8_t byte = in[pos++];
        v |= static_cast<std::uint64_t>(byte & 0x7f) << shift;
        if (!(byte & 0x80))
            return v;
        shift += 7;
        if (shift >= 64)
            fatal("overlong varint in trace at byte ", pos);
    }
}

TraceKind
dramKind(DramOp op)
{
    switch (op) {
    case DramOp::Act:
        return TraceKind::DramAct;
    case DramOp::Read:
        return TraceKind::DramRead;
    case DramOp::Write:
        return TraceKind::DramWrite;
    case DramOp::Pre:
        return TraceKind::DramPre;
    case DramOp::RefPerBank:
        return TraceKind::DramRefPb;
    case DramOp::RefAllBank:
        return TraceKind::DramRefAb;
    case DramOp::RefPause:
        return TraceKind::DramRefPause;
    }
    panic("unreachable DramOp");
}

const char *
kindName(TraceKind kind)
{
    switch (kind) {
    case TraceKind::DramAct:
        return "ACT";
    case TraceKind::DramRead:
        return "READ";
    case TraceKind::DramWrite:
        return "WRITE";
    case TraceKind::DramPre:
        return "PRE";
    case TraceKind::DramRefPb:
        return "REFpb";
    case TraceKind::DramRefAb:
        return "REFab";
    case TraceKind::DramRefPause:
        return "REFpause";
    case TraceKind::SchedPick:
        return "PICK";
    case TraceKind::PageAlloc:
        return "ALLOC";
    case TraceKind::PageFree:
        return "FREE";
    case TraceKind::PageMigrate:
        return "MIGRATE";
    case TraceKind::TaskLife:
        return "TASK";
    }
    return "?";
}

} // namespace

std::size_t
traceFieldCount(TraceKind kind)
{
    switch (kind) {
    case TraceKind::DramAct:
    case TraceKind::DramRead:
    case TraceKind::DramWrite:
    case TraceKind::DramPre:
        return 4;  // ch, rank, bank+1, row
    case TraceKind::DramRefPb:
    case TraceKind::DramRefAb:
    case TraceKind::DramRefPause:
        return 5;  // ch, rank, bank+1, rows, busyUntil-tick
    case TraceKind::SchedPick:
        return 3;  // cpu, kind, chosen+1
    case TraceKind::PageAlloc:
        return 3;  // pid+1, pfn, fallback
    case TraceKind::PageFree:
        return 1;  // pfn
    case TraceKind::PageMigrate:
        return 4;  // pid+1, vpn, fromPfn, toPfn
    case TraceKind::TaskLife:
        return 2;  // pid+1, spawn
    }
    fatal("unknown trace kind ", static_cast<int>(kind));
}

bool
TraceEvent::operator==(const TraceEvent &o) const
{
    if (kind != o.kind || tick != o.tick)
        return false;
    const std::size_t n = traceFieldCount(kind);
    for (std::size_t i = 0; i < n; ++i)
        if (f[i] != o.f[i])
            return false;
    return true;
}

std::string
describe(const TraceEvent &ev)
{
    std::string s = detail::format("tick ", ev.tick, " ",
                                   kindName(ev.kind));
    switch (ev.kind) {
    case TraceKind::DramAct:
    case TraceKind::DramRead:
    case TraceKind::DramWrite:
    case TraceKind::DramPre:
        s += detail::format(" ch", ev.f[0], "/r", ev.f[1], "/b",
                            static_cast<std::int64_t>(ev.f[2]) - 1,
                            " row ", ev.f[3]);
        break;
    case TraceKind::DramRefPb:
    case TraceKind::DramRefAb:
    case TraceKind::DramRefPause:
        s += detail::format(" ch", ev.f[0], "/r", ev.f[1], "/b",
                            static_cast<std::int64_t>(ev.f[2]) - 1,
                            " rows ", ev.f[3], " busy +", ev.f[4]);
        break;
    case TraceKind::SchedPick:
        s += detail::format(" cpu", ev.f[0], " kind ", ev.f[1],
                            " pid ",
                            static_cast<std::int64_t>(ev.f[2]) - 1);
        break;
    case TraceKind::PageAlloc:
        s += detail::format(" pid ",
                            static_cast<std::int64_t>(ev.f[0]) - 1,
                            " pfn ", ev.f[1],
                            ev.f[2] ? " (fallback)" : "");
        break;
    case TraceKind::PageFree:
        s += detail::format(" pfn ", ev.f[0]);
        break;
    case TraceKind::PageMigrate:
        s += detail::format(" pid ",
                            static_cast<std::int64_t>(ev.f[0]) - 1,
                            " vpn ", ev.f[1], " pfn ", ev.f[2],
                            " -> ", ev.f[3]);
        break;
    case TraceKind::TaskLife:
        s += detail::format(ev.f[1] ? " spawn pid " : " exit pid ",
                            static_cast<std::int64_t>(ev.f[0]) - 1);
        break;
    }
    return s;
}

void
TraceRecorder::put(TraceKind kind, Tick tick,
                   std::initializer_list<std::uint64_t> fields)
{
    REFSCHED_ASSERT(tick >= lastTick_,
                    "trace events must be recorded in tick order");
    REFSCHED_ASSERT(fields.size() == traceFieldCount(kind),
                    "trace field count mismatch");
    buf_.push_back(static_cast<std::uint8_t>(kind));
    putVarint(buf_, tick - lastTick_);
    lastTick_ = tick;
    for (std::uint64_t f : fields)
        putVarint(buf_, f);
    ++count_;
}

void
TraceRecorder::onDramCommand(const DramCmdEvent &ev)
{
    const TraceKind kind = dramKind(ev.op);
    const auto bank =
        static_cast<std::uint64_t>(static_cast<std::int64_t>(ev.bank)
                                   + 1);
    if (traceFieldCount(kind) == 5)
        put(kind, ev.tick,
            {static_cast<std::uint64_t>(ev.channel),
             static_cast<std::uint64_t>(ev.rank), bank, ev.row,
             ev.busyUntil - ev.tick});
    else
        put(kind, ev.tick,
            {static_cast<std::uint64_t>(ev.channel),
             static_cast<std::uint64_t>(ev.rank), bank, ev.row});
}

void
TraceRecorder::onSchedPick(const SchedPickEvent &ev)
{
    put(TraceKind::SchedPick, ev.tick,
        {static_cast<std::uint64_t>(ev.cpu),
         static_cast<std::uint64_t>(ev.kind),
         static_cast<std::uint64_t>(
             static_cast<std::int64_t>(ev.chosen) + 1)});
}

void
TraceRecorder::onPageAlloc(const PageAllocEvent &ev)
{
    put(TraceKind::PageAlloc, ev.tick,
        {static_cast<std::uint64_t>(
             static_cast<std::int64_t>(ev.pid) + 1),
         ev.pfn, ev.fallback ? 1u : 0u});
}

void
TraceRecorder::onPageFree(const PageFreeEvent &ev)
{
    // The owning pid is deliberately not encoded: PageFree predates
    // pid-carrying frees and old fixtures must keep decoding.
    put(TraceKind::PageFree, ev.tick, {ev.pfn});
}

void
TraceRecorder::onPageMigrate(const PageMigrateEvent &ev)
{
    put(TraceKind::PageMigrate, ev.tick,
        {static_cast<std::uint64_t>(
             static_cast<std::int64_t>(ev.pid) + 1),
         ev.vpn, ev.fromPfn, ev.toPfn});
}

void
TraceRecorder::onTaskSpawn(const TaskLifeEvent &ev)
{
    put(TraceKind::TaskLife, ev.tick,
        {static_cast<std::uint64_t>(
             static_cast<std::int64_t>(ev.pid) + 1),
         1u});
}

void
TraceRecorder::onTaskExit(const TaskLifeEvent &ev)
{
    put(TraceKind::TaskLife, ev.tick,
        {static_cast<std::uint64_t>(
             static_cast<std::int64_t>(ev.pid) + 1),
         0u});
}

std::vector<TraceEvent>
decodeTrace(const std::vector<std::uint8_t> &data)
{
    std::vector<TraceEvent> events;
    std::size_t pos = 0;
    Tick tick = 0;
    while (pos < data.size()) {
        TraceEvent ev;
        const std::uint8_t kind = data[pos++];
        if (kind < 1
            || kind > static_cast<std::uint8_t>(TraceKind::TaskLife))
            fatal("bad trace record kind ", int(kind), " at byte ",
                  pos - 1);
        ev.kind = static_cast<TraceKind>(kind);
        tick += getVarint(data, pos);
        ev.tick = tick;
        const std::size_t n = traceFieldCount(ev.kind);
        for (std::size_t i = 0; i < n; ++i)
            ev.f[i] = getVarint(data, pos);
        events.push_back(ev);
    }
    return events;
}

void
writeTraceFile(const std::string &path, const TraceRecorder &recorder)
{
    std::ofstream os(path, std::ios::binary);
    if (!os)
        fatal("cannot write trace file ", path);
    os.write(kMagic, sizeof(kMagic));
    std::vector<std::uint8_t> head;
    putVarint(head, kVersion);
    putVarint(head, recorder.eventCount());
    os.write(reinterpret_cast<const char *>(head.data()),
             static_cast<std::streamsize>(head.size()));
    os.write(reinterpret_cast<const char *>(recorder.data().data()),
             static_cast<std::streamsize>(recorder.data().size()));
    if (!os)
        fatal("short write to trace file ", path);
}

std::vector<TraceEvent>
readTraceFile(const std::string &path)
{
    std::ifstream is(path, std::ios::binary);
    if (!is)
        fatal("cannot read trace file ", path);
    std::vector<std::uint8_t> bytes(
        (std::istreambuf_iterator<char>(is)),
        std::istreambuf_iterator<char>());
    if (bytes.size() < sizeof(kMagic)
        || !std::equal(kMagic, kMagic + sizeof(kMagic), bytes.begin()))
        fatal(path, " is not a refsched trace file");
    std::size_t pos = sizeof(kMagic);
    const std::uint64_t version = getVarint(bytes, pos);
    if (version != kVersion)
        fatal(path, ": unsupported trace version ", version);
    const std::uint64_t count = getVarint(bytes, pos);
    auto events = decodeTrace(std::vector<std::uint8_t>(
        bytes.begin() + static_cast<std::ptrdiff_t>(pos),
        bytes.end()));
    if (events.size() != count)
        fatal(path, ": header promises ", count, " events, decoded ",
              events.size());
    return events;
}

std::string
TraceDiff::describe() const
{
    if (identical)
        return "traces identical";
    if (lhsEnded)
        return detail::format("trace A ends at event ", index,
                              "; trace B continues with ",
                              validate::describe(rhs));
    if (rhsEnded)
        return detail::format("trace B ends at event ", index,
                              "; trace A continues with ",
                              validate::describe(lhs));
    return detail::format("first divergence at event ", index,
                          ":\n  A: ", validate::describe(lhs),
                          "\n  B: ", validate::describe(rhs));
}

TraceDiff
diffTraces(const std::vector<TraceEvent> &a,
           const std::vector<TraceEvent> &b)
{
    TraceDiff d;
    const std::size_t n = std::min(a.size(), b.size());
    for (std::size_t i = 0; i < n; ++i) {
        if (a[i] != b[i]) {
            d.identical = false;
            d.index = i;
            d.lhs = a[i];
            d.rhs = b[i];
            return d;
        }
    }
    if (a.size() != b.size()) {
        d.identical = false;
        d.index = n;
        d.lhsEnded = a.size() == n;
        d.rhsEnded = b.size() == n;
        if (!d.lhsEnded)
            d.lhs = a[n];
        if (!d.rhsEnded)
            d.rhs = b[n];
    }
    return d;
}

} // namespace refsched::validate
