#include "workload/arrival.hh"

#include <cmath>

#include "simcore/logging.hh"

namespace refsched::workload
{

std::string
toString(ArrivalKind k)
{
    switch (k) {
      case ArrivalKind::Poisson:
        return "poisson";
      case ArrivalKind::Mmpp:
        return "mmpp";
    }
    return "?";
}

ArrivalKind
arrivalKindFromString(const std::string &s)
{
    if (s == "poisson")
        return ArrivalKind::Poisson;
    if (s == "mmpp")
        return ArrivalKind::Mmpp;
    fatal("unknown arrival kind: ", s, " (want poisson|mmpp)");
}

void
ArrivalShape::check() const
{
    if (kind == ArrivalKind::Poisson)
        return;
    if (burstRatio <= 1.0)
        fatal("mmpp burstRatio must be > 1, got ", burstRatio);
    if (burstFraction <= 0.0 || burstFraction >= 1.0)
        fatal("mmpp burstFraction must be in (0,1), got ",
              burstFraction);
    // The quiet-state rate solves f*burst + (1-f)*quiet = 1 so the
    // long-run average meets the offered rate; it must stay positive.
    if (burstRatio * burstFraction >= 1.0)
        fatal("mmpp burstRatio*burstFraction must be < 1, got ",
              burstRatio * burstFraction);
    if (burstDwellArrivals <= 0.0)
        fatal("mmpp burstDwellArrivals must be > 0, got ",
              burstDwellArrivals);
}

ArrivalProcess::ArrivalProcess(const ArrivalShape &shape,
                               double meanGapTicks,
                               std::uint64_t seed, Tick startTick)
    : shape_(shape), meanGap_(meanGapTicks),
      gaps_(seed, rngstream::kArrival),
      dwells_(seed, rngstream::kArrivalPhase),
      now_(static_cast<double>(startTick))
{
    shape_.check();
    REFSCHED_ASSERT(meanGap_ >= 1.0, "mean interarrival below 1 tick: ",
                    meanGap_);
    if (shape_.kind == ArrivalKind::Mmpp) {
        burstMul_ = shape_.burstRatio;
        quietMul_ = (1.0 - shape_.burstFraction * shape_.burstRatio)
            / (1.0 - shape_.burstFraction);
        burstDwell_ = shape_.burstDwellArrivals * meanGap_;
        quietDwell_ = burstDwell_
            * (1.0 - shape_.burstFraction) / shape_.burstFraction;
        // Deterministic initial state: quiet, one dwell drawn.
        inBurst_ = false;
        stateUntil_ = now_ + expDraw(dwells_, quietDwell_);
    }
}

double
ArrivalProcess::expDraw(CounterRng &rng, double mean)
{
    // Inverse-CDF: -mean * log(1 - U), U in [0, 1).
    return -mean * std::log1p(-rng.real());
}

double
ArrivalProcess::currentRateMul(double now)
{
    if (shape_.kind == ArrivalKind::Poisson)
        return 1.0;
    if (now >= stateUntil_) {
        inBurst_ = !inBurst_;
        stateUntil_ = now
            + expDraw(dwells_, inBurst_ ? burstDwell_ : quietDwell_);
    }
    return inBurst_ ? burstMul_ : quietMul_;
}

Tick
ArrivalProcess::next()
{
    // One Exp(1) unit of "work", consumed at the piecewise-constant
    // instantaneous rate; state switches falling inside the gap eat
    // their share of the work at their own rate.
    double work = expDraw(gaps_, 1.0);
    for (;;) {
        const double mul = currentRateMul(now_);
        const double rate = mul / meanGap_;
        if (shape_.kind == ArrivalKind::Poisson) {
            now_ += work / rate;
            break;
        }
        const double capacity = (stateUntil_ - now_) * rate;
        if (capacity >= work) {
            now_ += work / rate;
            break;
        }
        work -= capacity;
        now_ = stateUntil_;
    }
    ++generated_;
    // Saturate like milliseconds(): a rare draw past 2^64 ticks
    // lands on kMaxTick, which no run reaches, so it never arrives.
    Tick tick = now_ < 0x1p64 ? static_cast<Tick>(now_) : kMaxTick;
    // Strictly increasing integer ticks: two arrivals can round to
    // the same picosecond; nudge forward so event ordering is total.
    if (tick <= lastTick_ && generated_ > 1 && lastTick_ != kMaxTick)
        tick = lastTick_ + 1;
    lastTick_ = tick;
    return tick;
}

} // namespace refsched::workload
