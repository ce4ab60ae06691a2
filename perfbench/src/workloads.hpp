/**
 * @file
 * The four molbench workloads.  Each fills a Report: operation counts,
 * output checks and either the end-to-end metrics (untraced run) or the
 * per-layer metrics (traced run).
 */

#ifndef MOLBENCH_WORKLOADS_HPP
#define MOLBENCH_WORKLOADS_HPP

#include <string>
#include <vector>

#include "common.hpp"

namespace molbench {

/** sim_fig5 / sim_table2: paper configurations through Simulator::run. */
bool isSimWorkload(const std::string &name);
void runSimWorkload(const Options &options, Report &report,
                    std::vector<SpanLog> &logs);

/** svc_hot / svc_churn: molcached (mc::Service) in a closed loop. */
bool isServiceWorkload(const std::string &name);
void runServiceWorkload(const Options &options, Report &report,
                        std::vector<SpanLog> &logs);

/** Span ring size per thread in a traced run. */
inline constexpr size_t kSpanCapacity = 1u << 16;

} // namespace molbench

#endif // MOLBENCH_WORKLOADS_HPP
