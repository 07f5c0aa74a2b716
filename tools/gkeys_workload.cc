// gkeys_workload — declarative workload runner.
//
//   gkeys_workload run <spec.json> [--json=<out>] [--no-oracle]
//                                  [--processors=N]
//
// Executes the spec end to end (full runs + delta batches across every
// listed algorithm) with the differential oracle on by default, and
// prints / writes the standard bench JSON rows. Exit 0 only when the run
// and every oracle check passed. --processors=N must be an integer in
// [1, 256]; any other value exits 2 before the spec is read.

#include <cstdio>
#include <fstream>
#include <string>
#include <string_view>
#include <vector>

#include "common/json_writer.h"
#include "core/em_common.h"
#include "numeric_flag.h"
#include "workload/workload.h"

namespace {

int Usage() {
  std::fprintf(
      stderr,
      "usage: gkeys_workload run <spec.json> [--json=<out>] [--no-oracle]\n"
      "                                      [--processors=N]\n");
  return 2;
}

int CmdRun(const std::vector<std::string>& args) {
  std::string spec_path;
  std::string json_out;
  gkeys::WorkloadRunOptions opts;
  for (const std::string& a : args) {
    if (a.rfind("--json=", 0) == 0) {
      json_out = a.substr(7);
    } else if (a == "--no-oracle") {
      opts.disable_oracle = true;
    } else if (a.rfind("--processors=", 0) == 0) {
      if (!gkeys::ParseNumericFlag("--processors",
                                   std::string_view(a).substr(13), 1,
                                   gkeys::kMaxProcessors, &opts.processors)) {
        return 2;
      }
    } else if (!a.empty() && a[0] == '-') {
      std::fprintf(stderr, "gkeys_workload: unknown flag %s\n", a.c_str());
      return Usage();
    } else if (spec_path.empty()) {
      spec_path = a;
    } else {
      return Usage();
    }
  }
  if (spec_path.empty()) return Usage();

  gkeys::StatusOr<gkeys::WorkloadSpec> spec =
      gkeys::LoadWorkloadSpec(spec_path);
  if (!spec.ok()) {
    std::fprintf(stderr, "gkeys_workload: %s\n",
                 spec.status().message().c_str());
    return 1;
  }
  std::fprintf(stderr, "workload %s: %zu algorithms, generator %s",
               spec->name.c_str(), spec->algorithms.size(),
               spec->generator.c_str());
  if (spec->delta_batches > 0) {
    std::fprintf(stderr, ", %d %s delta batches", spec->delta_batches,
                 spec->delta_kind.c_str());
  }
  std::fprintf(stderr, "\n");

  gkeys::StatusOr<gkeys::WorkloadReport> report =
      gkeys::RunWorkload(*spec, opts);
  if (!report.ok()) {
    std::fprintf(stderr, "gkeys_workload: %s\n",
                 report.status().message().c_str());
    return 1;
  }
  for (const std::string& line : report->log) {
    std::fprintf(stderr, "  %s\n", line.c_str());
  }
  std::fprintf(stderr,
               "workload %s: OK — %zu rows, %zu oracle checks, %zu pairs\n",
               spec->name.c_str(), report->rows.size(),
               report->oracle_checks, report->final_pairs);

  std::string rendered = gkeys::RenderJsonRows(report->rows);
  if (json_out.empty()) {
    std::fputs(rendered.c_str(), stdout);
  } else {
    std::ofstream out(json_out, std::ios::trunc);
    if (!out || !(out << rendered).good()) {
      std::fprintf(stderr, "gkeys_workload: cannot write %s\n",
                   json_out.c_str());
      return 1;
    }
    std::fprintf(stderr, "wrote %s\n", json_out.c_str());
  }
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  if (argc < 2) return Usage();
  std::string cmd = argv[1];
  std::vector<std::string> args(argv + 2, argv + argc);
  if (cmd == "run") return CmdRun(args);
  return Usage();
}
