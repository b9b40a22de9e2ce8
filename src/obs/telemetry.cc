#include "obs/telemetry.hh"

#include <algorithm>
#include <array>
#include <cctype>
#include <fstream>

#include "obs/timeline.hh"
#include "simcore/logging.hh"

namespace refsched::obs
{

void
TelemetryConfig::check() const
{
    if (!enabled)
        return;
    if (periodTicks <= 0)
        fatal("telemetry.periodTicks must be positive, got ",
              periodTicks);
}

TelemetryRecorder::TelemetryRecorder(const TelemetryConfig &cfg)
    : cfg_(cfg)
{
    cfg_.check();
    REFSCHED_ASSERT(cfg_.enabled,
                    "TelemetryRecorder built from a disabled config");
    nextSample_ = cfg_.periodTicks;
}

int
TelemetryRecorder::addSeries(std::string name, int laneId, Kind kind,
                             Sampler s)
{
    REFSCHED_ASSERT(!sealed_,
                    "addSeries after the first sample pass");
    REFSCHED_ASSERT(s != nullptr, "null telemetry sampler");
    REFSCHED_ASSERT(series_.empty()
                        || laneId >= series_.back().laneId,
                    "telemetry series must register in laneId order");
    Series ser;
    ser.name = std::move(name);
    ser.laneId = laneId;
    ser.kind = kind;
    ser.sampler = std::move(s);
    if (kind == Kind::Delta)
        ser.last = ser.sampler();
    series_.push_back(std::move(ser));
    return static_cast<int>(series_.size()) - 1;
}

void
TelemetryRecorder::reserveSamples(std::size_t passes)
{
    passTicks_.reserve(passTicks_.size() + passes);
    values_.reserve(values_.size() + passes * series_.size());
}

void
TelemetryRecorder::samplePass(Tick stamp)
{
    sealed_ = true;
    passTicks_.push_back(stamp);
    for (auto &ser : series_) {
        const std::int64_t raw = ser.sampler();
        if (ser.kind == Kind::Delta) {
            values_.push_back(raw - ser.last);
            ser.last = raw;
        } else {
            values_.push_back(raw);
        }
    }
}

void
TelemetryRecorder::armPeriodic(EventQueue &eq)
{
    REFSCHED_ASSERT(periodicEq_ == nullptr,
                    "armPeriodic called twice");
    periodicEq_ = &eq;
    eq.schedule(nextSample_, *this, 0, 0, EventPriority::StatDump);
}

void
TelemetryRecorder::fire(Tick now, std::uint64_t, std::uint64_t)
{
    samplePass(now);
    nextSample_ = now + cfg_.periodTicks;
    periodicEq_->schedule(nextSample_, *this, 0, 0,
                          EventPriority::StatDump);
}

void
TelemetryRecorder::restart()
{
    passTicks_.clear();
    values_.clear();
    for (auto &ser : series_)
        if (ser.kind == Kind::Delta)
            ser.last = ser.sampler();
}

void
TelemetryRecorder::writeJsonl(std::ostream &os) const
{
    os << "{\"type\": \"schema\", \"periodTicks\": "
       << cfg_.periodTicks << ", \"series\": [";
    for (std::size_t i = 0; i < series_.size(); ++i) {
        const auto &ser = series_[i];
        os << (i ? ", " : "") << "{\"id\": " << i << ", \"lane\": "
           << ser.laneId << ", \"kind\": \""
           << (ser.kind == Kind::Delta ? "delta" : "gauge")
           << "\", \"name\": \"" << ser.name << "\"}";
    }
    os << "]}\n";
    for (std::size_t p = 0; p < passTicks_.size(); ++p) {
        os << "{\"t\": " << passTicks_[p] << ", \"v\": [";
        for (std::size_t s = 0; s < series_.size(); ++s)
            os << (s ? ", " : "") << value(p, s);
        os << "]}\n";
    }
}

void
TelemetryRecorder::writeCsv(std::ostream &os) const
{
    os << "tick";
    for (const auto &ser : series_)
        os << "," << ser.name;
    os << "\n";
    for (std::size_t p = 0; p < passTicks_.size(); ++p) {
        os << passTicks_[p];
        for (std::size_t s = 0; s < series_.size(); ++s)
            os << "," << value(p, s);
        os << "\n";
    }
}

void
TelemetryRecorder::writeFile(const std::string &path) const
{
    std::ofstream f(path, std::ios::binary);
    if (!f)
        fatal("cannot open telemetry file for writing: ", path);
    const bool csv = path.size() >= 4
        && path.compare(path.size() - 4, 4, ".csv") == 0;
    if (csv)
        writeCsv(f);
    else
        writeJsonl(f);
    f.flush();
    if (!f)
        fatal("error writing telemetry file: ", path);
}

void
TelemetryRecorder::exportCounters(TimelineRecorder &tl) const
{
    for (std::size_t p = 0; p < passTicks_.size(); ++p)
        for (std::size_t s = 0; s < series_.size(); ++s)
            tl.addCounter(passTicks_[p], series_[s].name,
                          value(p, s));
}

bool
isKnownTelemetrySeries(const std::string &name)
{
    static constexpr std::array<const char *, 13> kChannelMetrics = {
        "readQ",          "writeQ",        "blockedReads",
        "refreshBacklog", "refreshEngaged", "reads",
        "writes",         "rowHits",       "rowMisses",
        "refreshCommands", "blockedReadsTotal",
        "readQOccInt",    "writeQOccInt",
    };
    static constexpr std::array<const char *, 4> kCoreMetrics = {
        "instrs", "dramReads", "robStallTicks", "runq",
    };
    static constexpr std::array<const char *, 2> kSchedMetrics = {
        "quanta", "cleanPicks",
    };
    static constexpr std::array<const char *, 4> kServingMetrics = {
        "backlog", "arrivals", "drops", "completed",
    };

    const auto dot = name.find('.');
    if (dot == std::string::npos || dot + 1 >= name.size())
        return false;
    const std::string head = name.substr(0, dot);
    const std::string metric = name.substr(dot + 1);

    const auto among = [&metric](const auto &list) {
        return std::any_of(list.begin(), list.end(),
                           [&metric](const char *m) {
                               return metric == m;
                           });
    };
    const auto indexed = [&head](const char *prefix) {
        const std::size_t n = std::char_traits<char>::length(prefix);
        if (head.size() <= n || head.compare(0, n, prefix) != 0)
            return false;
        return std::all_of(head.begin()
                               + static_cast<std::ptrdiff_t>(n),
                           head.end(), [](unsigned char c) {
                               return std::isdigit(c) != 0;
                           });
    };

    if (head == "sched")
        return among(kSchedMetrics);
    if (head == "serving")
        return among(kServingMetrics);
    if (indexed("ch"))
        return among(kChannelMetrics);
    if (indexed("core"))
        return among(kCoreMetrics);
    return false;
}

} // namespace refsched::obs
