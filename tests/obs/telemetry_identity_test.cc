/**
 * @file
 * Telemetry identity proof: the JSONL export is byte-identical across
 * --jobs, exactly like the stats JSON and golden traces.  Sampling is
 * a StatDump-priority event on the one event queue, so the values are
 * a pure function of the configuration; running cells on worker
 * threads must not move a byte.
 */

#include <gtest/gtest.h>

#include <sstream>
#include <string>
#include <vector>

#include "core/experiment.hh"
#include "core/parallel_runner.hh"
#include "core/system.hh"
#include "obs/telemetry.hh"
#include "workload/serving.hh"

namespace refsched::obs
{
namespace
{

core::SystemConfig
telemetryConfig(core::Policy policy, int channels)
{
    core::SystemConfig cfg = core::makeConfig(
        "WL-1", policy, dram::DensityGb::d32, milliseconds(64.0),
        /*numCores=*/2, /*tasksPerCore=*/4, /*timeScale=*/1024);
    cfg.channels = channels;
    // Serving on, so the serving.* lane-0 series are exercised too.
    cfg.serving = workload::ServingConfig::parse(
        "arrival=mmpp,load=0.3,pool=4,queue=16,lines=4");
    cfg.telemetry.enabled = true;
    return cfg;
}

std::string
runTelemetryJsonl(const core::SystemConfig &cfg)
{
    core::System sys(cfg);
    sys.run(/*warmupQuanta=*/1, /*measureQuanta=*/2);
    std::ostringstream os;
    sys.telemetry()->writeJsonl(os);
    return os.str();
}

/** One telemetry cell of the identity matrix. */
struct Cell
{
    core::Policy policy;
    int channels;
};

/** Run every cell under @p jobs workers and return the telemetry
 *  JSONL per cell, in cell order. */
std::vector<std::string>
runMatrix(const std::vector<Cell> &cells, int jobs)
{
    std::vector<std::string> out(cells.size());
    std::vector<core::CellSpec> specs;
    for (std::size_t i = 0; i < cells.size(); ++i) {
        const core::SystemConfig cfg =
            telemetryConfig(cells[i].policy, cells[i].channels);
        std::string *slot = &out[i];
        core::CellSpec spec;
        spec.custom = [cfg, slot] {
            core::System sys(cfg);
            const auto m = sys.run(/*warmupQuanta=*/1,
                                   /*measureQuanta=*/2);
            std::ostringstream os;
            sys.telemetry()->writeJsonl(os);
            *slot = os.str();
            return m;
        };
        specs.push_back(std::move(spec));
    }
    core::ParallelRunner(jobs).runCells(specs);
    return out;
}

TEST(TelemetryIdentityTest, JobsMatrixIsByteIdentical)
{
    const std::vector<Cell> cells = {
        {core::Policy::CoDesign, 2},
        {core::Policy::CoDesign, 1},
        {core::Policy::AllBank, 2},
        {core::Policy::PerBank, 1},
    };
    const std::vector<std::string> seq = runMatrix(cells, /*jobs=*/1);
    const std::vector<std::string> par = runMatrix(cells, /*jobs=*/8);

    // The export must carry real samples from every series family,
    // or identity proves nothing.
    ASSERT_FALSE(seq[0].empty());
    EXPECT_NE(seq[0].find("\"type\": \"schema\""),
              std::string::npos);
    EXPECT_NE(seq[0].find("ch1.readQ"), std::string::npos);
    EXPECT_NE(seq[0].find("core1.instrs"), std::string::npos);
    EXPECT_NE(seq[0].find("sched.quanta"), std::string::npos);
    EXPECT_NE(seq[0].find("serving.backlog"), std::string::npos);
    EXPECT_NE(seq[0].find("{\"t\": "), std::string::npos)
        << "no sample passes in the measured interval";

    for (std::size_t i = 0; i < cells.size(); ++i) {
        EXPECT_EQ(seq[i], par[i])
            << core::toString(cells[i].policy) << " channels="
            << cells[i].channels << ": jobs=1 vs jobs=8";
    }
}

TEST(TelemetryIdentityTest, LegacyKernelIsDeterministic)
{
    // Back-to-back runs of one cell on one thread.
    const core::SystemConfig cfg =
        telemetryConfig(core::Policy::CoDesign, 2);
    const std::string a = runTelemetryJsonl(cfg);
    const std::string b = runTelemetryJsonl(cfg);
    EXPECT_EQ(a, b);
    EXPECT_NE(a.find("{\"t\": "), std::string::npos);
}

TEST(TelemetryIdentityTest, CsvMatchesJsonlValues)
{
    // Same run exported both ways: the CSV must hold exactly the
    // JSONL passes (same count, same first stamp), proving the two
    // writers read one buffer rather than resampling.
    const core::SystemConfig cfg =
        telemetryConfig(core::Policy::CoDesign, 2);
    core::System sys(cfg);
    sys.run(/*warmupQuanta=*/1, /*measureQuanta=*/2);
    const auto *tel = sys.telemetry();
    ASSERT_NE(tel, nullptr);
    ASSERT_GT(tel->passCount(), 0u);

    std::ostringstream csv;
    tel->writeCsv(csv);
    // Header + one row per pass + trailing newline.
    std::size_t rows = 0;
    for (char c : csv.str())
        rows += c == '\n';
    EXPECT_EQ(rows, tel->passCount() + 1);
    EXPECT_NE(csv.str().find(std::to_string(tel->passTick(0))),
              std::string::npos);
}

} // namespace
} // namespace refsched::obs
