/**
 * @file
 * molbench entry point.
 *
 *   molbench --workload <sim_fig5|sim_table2|svc_hot|svc_churn>
 *            --seed <n> --seconds <s> --trace <0|1>
 *            [--fingerprints <file>] [--spans-out <file>]
 *            [--tiny] [--perturb-fingerprint] [--record-fingerprints]
 *
 * Human-readable lines start with '#'.  The last line of stdout is one
 * JSON object: {"correct", "attempted", "failed", "metrics"}, where the
 * metrics are the end-to-end set (--trace 0) or the per-layer set
 * (--trace 1) listed in BENCHMARK.json.
 */

#include <cmath>
#include <cstdlib>
#include <cstring>
#include <string>

#include "common.hpp"
#include "workloads.hpp"

using namespace molbench;

namespace {

[[noreturn]] void
usage(const char *why)
{
    std::fprintf(stderr, "molbench: %s\n", why);
    std::exit(2);
}

Options
parse(int argc, char **argv)
{
    Options opt;
    for (int i = 1; i < argc; ++i) {
        const std::string arg = argv[i];
        const auto value = [&]() -> std::string {
            if (i + 1 >= argc)
                usage(("missing value for " + arg).c_str());
            return argv[++i];
        };
        if (arg == "--workload")
            opt.workload = value();
        else if (arg == "--seed")
            opt.seed = std::stoull(value());
        else if (arg == "--seconds")
            opt.seconds = std::stod(value());
        else if (arg == "--trace")
            opt.trace = value() != "0";
        else if (arg == "--fingerprints")
            opt.fingerprints = value();
        else if (arg == "--spans-out")
            opt.spansOut = value();
        else if (arg == "--tiny")
            opt.tiny = true;
        else if (arg == "--perturb-fingerprint")
            opt.perturbFingerprint = true;
        else if (arg == "--record-fingerprints")
            opt.recordFingerprints = true;
        else
            usage(("unknown argument " + arg).c_str());
    }
    if (!isSimWorkload(opt.workload) && !isServiceWorkload(opt.workload))
        usage("--workload must be sim_fig5, sim_table2, svc_hot or "
              "svc_churn");
    if (!(opt.seconds > 0.0))
        usage("--seconds must be positive");
    return opt;
}

/** Build stamp: perf numbers are comparable only between Release
 * builds with the contracts compiled out. */
void
stamp()
{
#ifdef MOLCACHE_CONTRACTS_ENABLED
    const char *contracts = "on";
#else
    const char *contracts = "off";
#endif
    note("build: type=%s contracts=%s", MOLBENCH_BUILD_TYPE, contracts);
    if (std::strcmp(MOLBENCH_BUILD_TYPE, "Release") != 0)
        note("WARNING: non-Release capture; numbers are not comparable "
             "with the Release baseline");
}

} // namespace

int
main(int argc, char **argv)
{
    const Options opt = parse(argc, argv);
    stamp();
    captureCpus();

    Report report;
    std::vector<SpanLog> logs;
    if (isSimWorkload(opt.workload))
        runSimWorkload(opt, report, logs);
    else
        runServiceWorkload(opt, report, logs);
    if (opt.recordFingerprints)
        return 0;
    if (!opt.trace)
        report.metric("rss_mb", peakRssMb(), "MiB");

    if (opt.trace && !opt.spansOut.empty()) {
        u64 spans = 0;
        for (const SpanLog &log : logs)
            spans += log.recorded();
        if (writeSpans(opt.spansOut, logs))
            note("spans: %llu recorded, ring tail written to %s",
                 static_cast<unsigned long long>(spans), opt.spansOut.c_str());
    }

    const double failedFrac =
        report.attempted ? static_cast<double>(report.failed) /
                               static_cast<double>(report.attempted)
                         : 1.0;
    ungated("failed_frac", failedFrac, "ratio",
            std::to_string(report.failed) + " of " +
                std::to_string(report.attempted) + " operations failed");
    const bool correct = report.failed == 0 && report.attempted > 0;

    std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, "
                "\"metrics\": {",
                correct ? "true" : "false",
                static_cast<unsigned long long>(report.attempted),
                static_cast<unsigned long long>(report.failed));
    for (size_t i = 0; i < report.metrics.size(); ++i) {
        const Report::Metric &m = report.metrics[i];
        const double v = std::isfinite(m.value) ? m.value : 0.0;
        std::printf("%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}",
                    i ? ", " : "", m.name.c_str(), v, m.unit.c_str());
    }
    std::printf("}}\n");
    return 0;
}
