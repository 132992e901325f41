// Observability demo: run TPC-H Q3 with tracing on, write the Chrome
// trace_event JSON (load it at chrome://tracing or ui.perfetto.dev), and
// print the EXPLAIN ANALYZE rendering. CI runs this to produce the sample
// trace artifact; scripts/summarize_trace.py aggregates the JSON into a
// per-phase virtual-time breakdown.
//
// Usage: trace_demo [trace.json]   (default ./trace_q3.json)

#include <cstdio>
#include <fstream>

#include "cloud/cloud.h"
#include "core/driver.h"
#include "workload/tpch.h"

using namespace lambada;  // NOLINT

int main(int argc, char** argv) {
  const char* trace_path = argc > 1 ? argv[1] : "trace_q3.json";

  cloud::Cloud cloud;
  core::Driver driver(&cloud);
  LAMBADA_CHECK_OK(driver.Install());

  // The obs_test Q3 fixture: LINEITEM joined to ORDERS and CUSTOMER.
  workload::LoadOptions li;
  li.num_rows = 8000;
  li.num_files = 8;
  li.row_groups_per_file = 4;
  li.seed = 77;
  LAMBADA_CHECK_OK(workload::LoadLineitem(&cloud.s3(), "tpch", "li/", li));
  workload::LoadOptions oo;
  oo.num_rows = workload::MaxOrderKey(workload::GenerateLineitem(li.num_rows, 77));
  oo.num_files = 4;
  oo.seed = 123;
  LAMBADA_CHECK_OK(workload::LoadOrders(&cloud.s3(), "tpch", "orders/", oo));
  workload::LoadOptions co;
  co.num_rows = 60;
  co.num_files = 2;
  co.seed = 555;
  LAMBADA_CHECK_OK(workload::LoadCustomer(&cloud.s3(), "tpch", "customer/", co));

  core::RunOptions ropts;
  ropts.trace.enabled = true;
  auto q = workload::TpchQ3("s3://tpch/li/*.lpq", "s3://tpch/orders/*.lpq",
                            "s3://tpch/customer/*.lpq");
  auto report = driver.RunToCompletion(q, ropts);
  LAMBADA_CHECK(report.ok()) << report.status().ToString();
  std::ofstream out(trace_path, std::ios::binary | std::ios::trunc);
  out << report->trace->ChromeTraceJson();
  out.close();
  LAMBADA_CHECK(!out.fail()) << "cannot write trace to " << trace_path;

  std::printf("%s\n", report->explain_analyze_text.c_str());
  std::printf("trace: %zu spans -> %s\n", report->trace->spans().size(),
              trace_path);
  return 0;
}
